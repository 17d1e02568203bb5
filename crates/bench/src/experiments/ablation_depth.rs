//! Ablation: how many hidden layers does the width model need?
//!
//! The paper fixes 10 hidden layers "obtained by hyperparameter
//! optimization". This ablation sweeps the depth on an ibmpg2-style
//! benchmark and reports accuracy and training cost. The generate +
//! size prefix runs once through the cached pipeline; each depth
//! trains (and caches) its own model against the shared golden widths.

use std::fmt::Write as _;

use ppdl_core::pipeline::{
    run_stage, ArtifactCache, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx, TrainStage,
};
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("ablation_depth", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Depth ablation on ibmpg2 (scale {}, seed {})\n",
        opts.scale, opts.seed
    );
    let mut ctx = PipelineCtx::new(base_config(opts), cache);
    run_stage(
        &BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, opts.scale, opts.seed),
        &mut ctx,
    )?;
    run_stage(&FeatureExtractStage, &mut ctx)?;
    manifest.record_stages("ibmpg2", &ctx.records);

    let mut rows = Vec::new();
    for depth in [1usize, 2, 4, 6, 10, 14] {
        let mut depth_ctx = ctx.clone();
        depth_ctx.records.clear();
        depth_ctx.config.predictor.hidden_layers = depth;
        run_stage(&TrainStage, &mut depth_ctx)?;
        let prefix = format!("depth{depth}");
        manifest.record_stages(&prefix, &depth_ctx.records);
        let record = depth_ctx
            .records
            .last()
            .ok_or("TrainStage recorded no stage")?;
        let train_secs = record.wall.as_secs_f64();
        let sizing = depth_ctx.sizing()?;
        let trained = depth_ctx.trained()?;
        let m = trained
            .predictor
            .evaluate(&sizing.sized, &sizing.golden_widths)?;
        manifest.add_metric(&format!("{prefix}_r2"), m.r2);
        rows.push(vec![
            depth.to_string(),
            format!("{:.3}", m.r2),
            format!("{:.4}", m.mse_scaled),
            if record.cache_hit {
                "(cached)".to_string()
            } else {
                format!("{train_secs:.2}")
            },
            trained.summary.total_epochs().to_string(),
        ]);
    }
    let header = ["hidden layers", "r2", "MSE", "train (s)", "epochs"];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    let path = write_primary_csv(opts, "ablation_depth.csv", &header, &rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

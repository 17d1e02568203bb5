//! Table I and Fig. 4(b): r² of single input features vs the combined
//! `(X, Y, Id)` feature set, plus the per-interconnect windowed-r²
//! trace over the first 1000 interconnects of ibmpg1.
//!
//! The benchmark generation and conventional sizing run once through
//! the pipeline prefix; each feature set then trains its own cached
//! model on the shared golden widths (the train key includes the
//! feature set, so the four models cache independently).

use std::fmt::Write as _;

use ppdl_core::pipeline::{
    run_stage, ArtifactCache, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx, TrainStage,
};
use ppdl_core::FeatureSet;
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, windowed_r2, write_csv, write_primary_csv, Options};

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("fig4b_table1", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Table I / Fig. 4(b) reproduction on ibmpg1 (scale {}, seed {})\n",
        opts.scale, opts.seed
    );
    // Shared prefix: generate + calibrate + conventionally size, once.
    let mut ctx = PipelineCtx::new(base_config(opts), cache);
    run_stage(
        &BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg1, opts.scale, opts.seed),
        &mut ctx,
    )?;
    run_stage(&FeatureExtractStage, &mut ctx)?;
    manifest.record_stages("ibmpg1", &ctx.records);

    // Table I: one model per feature set, all on the shared labels.
    let paper = [0.34, 0.39, 0.61, 0.89];
    let mut rows = Vec::new();
    let mut combined_pairs = Vec::new();
    for (fs, paper_r2) in FeatureSet::ALL.into_iter().zip(paper) {
        let mut fs_ctx = ctx.clone();
        fs_ctx.records.clear();
        fs_ctx.config.predictor.feature_set = fs;
        run_stage(&TrainStage, &mut fs_ctx)?;
        manifest.record_stages(fs.label(), &fs_ctx.records);
        let sizing = fs_ctx.sizing()?;
        let predictor = &fs_ctx.trained()?.predictor;
        let m = predictor.evaluate(&sizing.sized, &sizing.golden_widths)?;
        if fs == FeatureSet::Combined {
            combined_pairs = predictor.scatter_data(&sizing.sized, &sizing.golden_widths)?;
        }
        manifest.add_metric(&format!("r2_{}", fs.label()), m.r2);
        rows.push(vec![
            fs.label().to_string(),
            format!("{:.2}", m.r2),
            format!("{paper_r2:.2}"),
        ]);
    }
    let header = ["Input features", "r2 score", "paper r2"];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    let table1_path = write_csv(&opts.out_dir, "table1_feature_r2.csv", &header, &rows)?;
    manifest.add_output(&table1_path);

    // Fig. 4(b): windowed r² over 1000 interconnects. Segments are
    // stored strap by strap, so a raw window would often see a single
    // strap (constant golden width, degenerate r²); a deterministic
    // shuffle mixes straps within each window like the benchmark's
    // file order does in the paper.
    {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
        combined_pairs.shuffle(&mut rng);
    }
    let n = combined_pairs.len().min(1000);
    let series = windowed_r2(&combined_pairs[..n], 50);
    let fig_rows: Vec<Vec<String>> = series
        .iter()
        .map(|(idx, r2)| vec![idx.to_string(), format!("{r2:.4}")])
        .collect();
    let path = write_primary_csv(
        opts,
        "fig4b_windowed_r2.csv",
        &["interconnect", "r2"],
        &fig_rows,
    )?;
    manifest.add_output(&path);
    let _ = writeln!(
        report,
        "wrote {} ({} windows over {n} interconnects)",
        path.display(),
        series.len()
    );
    let mean_r2: f64 = series.iter().map(|(_, r)| r).sum::<f64>() / series.len().max(1) as f64;
    manifest.add_metric("mean_windowed_r2", mean_r2);
    let _ = writeln!(report, "mean windowed r2 (combined features): {mean_r2:.3}");
    Ok(RunOutput { manifest, report })
}

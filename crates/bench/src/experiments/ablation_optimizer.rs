//! Ablation: Adam (the paper's optimizer, ref. 13) vs SGD, momentum,
//! and RMSProp on the width-regression task.
//!
//! Uses the raw `ppdl-nn` training loop on the standardised ibmpg2
//! dataset so every optimizer sees identical batches. The generate +
//! size prefix runs through the cached pipeline; the optimizer loop
//! itself is deliberately uncached (it *is* the thing under test).

use std::fmt::Write as _;
use std::time::Instant;

use ppdl_core::pipeline::{
    run_stage, ArtifactCache, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx,
};
use ppdl_core::{segment_dataset, FeatureSet};
use ppdl_netlist::IbmPgPreset;
use ppdl_nn::{
    metrics, Activation, Adam, Dataset, Loss, MlpBuilder, Momentum, Optimizer, RmsProp, Sgd,
    StandardScaler,
};

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

fn train_with<O: Optimizer>(
    data: &Dataset,
    mut opt: O,
    epochs: usize,
) -> Result<(f64, f64), DynError> {
    let mut model = MlpBuilder::new(3)
        .hidden_stack(4, 24, Activation::Relu)
        .output(1)
        .seed(3)
        .build()?;
    let t0 = Instant::now();
    for epoch in 0..epochs {
        for (xb, yb) in data.shuffled(epoch as u64).batches(64) {
            model.train_batch(&xb, &yb, Loss::Mse, &mut opt)?;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let pred = model.predict(data.x())?;
    let r2 = metrics::r2_score(&pred, data.y())?;
    Ok((r2, secs))
}

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("ablation_optimizer", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Optimizer ablation on ibmpg2 (scale {}, seed {})\n",
        opts.scale, opts.seed
    );
    let mut ctx = PipelineCtx::new(base_config(opts), cache);
    run_stage(
        &BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, opts.scale, opts.seed),
        &mut ctx,
    )?;
    run_stage(&FeatureExtractStage, &mut ctx)?;
    manifest.record_stages("ibmpg2", &ctx.records);
    let sizing = ctx.sizing()?;
    let sized = &sizing.sized;
    let golden = &sizing.golden_widths;

    let raw = segment_dataset(sized, golden, FeatureSet::Combined)?;
    // Restrict to one strap direction: a combined-direction regression
    // has two conflicting targets per (X, Y) location, which would cap
    // every optimizer identically and mask their differences. Pick the
    // direction whose golden widths actually vary.
    let variance = |orient: ppdl_netlist::Orientation| -> f64 {
        let w: Vec<f64> = sized
            .straps()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.orientation == orient)
            .map(|(i, _)| golden[i])
            .collect();
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        w.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / w.len() as f64
    };
    let chosen = if variance(ppdl_netlist::Orientation::Vertical)
        >= variance(ppdl_netlist::Orientation::Horizontal)
    {
        ppdl_netlist::Orientation::Vertical
    } else {
        ppdl_netlist::Orientation::Horizontal
    };
    let _ = writeln!(
        report,
        "training on {chosen:?} straps (higher width variance)\n"
    );
    let picked: Vec<usize> = sized
        .segments()
        .iter()
        .enumerate()
        .filter(|(_, seg)| sized.straps()[seg.strap].orientation == chosen)
        .map(|(i, _)| i)
        .collect();
    let raw_x = raw.x().gather_rows(&picked);
    let raw_y = raw.y().gather_rows(&picked);
    let xs = StandardScaler::fit(&raw_x)?;
    let ys = StandardScaler::fit(&raw_y)?;
    let data = Dataset::new(xs.transform(&raw_x)?, ys.transform(&raw_y)?)?;

    let epochs = 120;
    let mut rows = Vec::new();
    let mut push = |name: &str, r2: f64, secs: f64, rows: &mut Vec<Vec<String>>| {
        manifest.add_metric(&format!("{name}_r2"), r2);
        rows.push(vec![name.into(), format!("{r2:.3}"), format!("{secs:.2}")]);
    };
    let (r2, secs) = train_with(&data, Adam::new(2e-3)?, epochs)?;
    push("adam", r2, secs, &mut rows);
    let (r2, secs) = train_with(&data, Sgd::new(2e-2)?, epochs)?;
    push("sgd", r2, secs, &mut rows);
    let (r2, secs) = train_with(&data, Momentum::new(5e-3, 0.9)?, epochs)?;
    push("momentum", r2, secs, &mut rows);
    let (r2, secs) = train_with(&data, RmsProp::new(2e-3)?, epochs)?;
    push("rmsprop", r2, secs, &mut rows);

    let header = ["optimizer", "r2 (train)", "time (s)"];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    let path = write_primary_csv(opts, "ablation_optimizer.csv", &header, &rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

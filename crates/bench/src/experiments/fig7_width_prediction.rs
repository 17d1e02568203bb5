//! Fig. 7: width-prediction quality on ibmpg2 — (a) predicted vs
//! golden scatter, (b) signed error histogram.
//!
//! The scatter pairs come from the *same* trained predictor the
//! pipeline produced (the legacy binary re-trained a second model just
//! to get them — the exact double-training foot-gun the artifact cache
//! exists to prevent).

use std::fmt::Write as _;

use ppdl_core::pipeline::{ArtifactCache, BenchmarkSourceStage};
use ppdl_core::PowerPlanningDl;
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, histogram, write_csv, write_primary_csv, Options};

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("fig7_width_prediction", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Fig. 7 reproduction on ibmpg2 (scale {}, seed {})\n",
        opts.scale, opts.seed
    );
    let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, opts.scale, opts.seed);
    let (outcome, records) = PowerPlanningDl::new(base_config(opts)).run(source, cache)?;
    manifest.record_stages("ibmpg2", &records);

    // (golden, predicted) pairs on the test design, from the one
    // predictor the flow trained.
    let pairs = outcome
        .predictor
        .scatter_data(&outcome.test_bench, &outcome.golden_widths)?;
    let metrics = &outcome.width_metrics;

    // (a) scatter: write all pairs; print summary statistics.
    let scatter_rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|(g, p)| vec![format!("{g:.4}"), format!("{p:.4}")])
        .collect();
    let scatter_path = write_primary_csv(
        opts,
        "fig7a_scatter.csv",
        &["golden_um", "predicted_um"],
        &scatter_rows,
    )?;
    manifest.add_output(&scatter_path);
    let _ = writeln!(
        report,
        "scatter: {} interconnects, correlation {:.3}, r2 {:.3}",
        pairs.len(),
        metrics.correlation,
        metrics.r2
    );
    manifest.add_metric("r2", metrics.r2);
    manifest.add_metric("correlation", metrics.correlation);

    // (b) error histogram over golden - predicted.
    let errors: Vec<f64> = pairs.iter().map(|(g, p)| g - p).collect();
    let lo = errors.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = errors.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    let bins = histogram(&errors, lo - 0.05 * span, hi + 0.05 * span, 41);
    let hist_rows: Vec<Vec<String>> = bins
        .iter()
        .map(|(c, n)| vec![format!("{c:.4}"), n.to_string()])
        .collect();
    let hist_path = write_csv(
        &opts.out_dir,
        "fig7b_error_histogram.csv",
        &["error_um", "count"],
        &hist_rows,
    )?;
    manifest.add_output(&hist_path);

    // Shape check the paper emphasises: mass concentrated near zero.
    let near_zero = errors.iter().filter(|e| e.abs() <= 0.1 * span).count();
    let mut rows = vec![
        vec![
            "fraction within 10% of error span of 0".into(),
            format!("{:.1}%", 100.0 * near_zero as f64 / errors.len() as f64),
        ],
        vec![
            "overpredicted (error < 0)".into(),
            errors.iter().filter(|e| **e < 0.0).count().to_string(),
        ],
        vec![
            "underpredicted (error > 0)".into(),
            errors.iter().filter(|e| **e > 0.0).count().to_string(),
        ],
        vec![
            "max |error| (um)".into(),
            format!("{:.3}", lo.abs().max(hi.abs())),
        ],
    ];
    rows.push(vec!["mse (um^2)".into(), format!("{:.4}", metrics.mse_um2)]);
    manifest.add_metric("mse_um2", metrics.mse_um2);
    let _ = writeln!(report, "{}", format_table(&["statistic", "value"], &rows));
    let _ = writeln!(
        report,
        "wrote {} and {}",
        scatter_path.display(),
        hist_path.display()
    );
    Ok(RunOutput { manifest, report })
}

//! Table IV: convergence time of the conventional flow vs
//! PowerPlanningDL, and the resulting speedup, for all 8 benchmarks.
//!
//! Conventional time = one full power-grid analysis of the test design
//! (the paper's best-case, single-design-iteration cost); DL time =
//! width inference + Kirchhoff IR-drop prediction. Both are stored in
//! the stage artifacts, so a cache-warm run reports the timings from
//! when the stages actually executed.

use std::fmt::Write as _;

use ppdl_core::pipeline::{ArtifactCache, BenchmarkSourceStage};
use ppdl_core::PowerPlanningDl;
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

/// The paper's Table IV, for side-by-side comparison.
fn paper_speedup(preset: IbmPgPreset) -> f64 {
    match preset {
        IbmPgPreset::Ibmpg1 => 1.92,
        IbmPgPreset::Ibmpg2 => 1.97,
        IbmPgPreset::Ibmpg3 => 3.59,
        IbmPgPreset::Ibmpg4 => 4.42,
        IbmPgPreset::Ibmpg5 => 5.87,
        IbmPgPreset::Ibmpg6 => 5.60,
        IbmPgPreset::IbmpgNew1 => 4.77,
        IbmPgPreset::IbmpgNew2 => 4.47,
    }
}

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("table4_speedup", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Table IV reproduction (scale {} of Table II sizes, seed {})\n",
        opts.scale, opts.seed
    );
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let flow = PowerPlanningDl::new(base_config(opts));
    for preset in IbmPgPreset::ALL {
        let source = BenchmarkSourceStage::preset(preset, opts.scale, opts.seed);
        let (outcome, records) = match flow.run(source, cache) {
            Ok(o) => o,
            Err(e) => {
                let _ = writeln!(report, "{preset}: {e}");
                continue;
            }
        };
        manifest.record_stages(preset.name(), &records);
        manifest.add_metric(&format!("{preset}_speedup"), outcome.timing.speedup);
        speedups.push(outcome.timing.speedup);
        rows.push(vec![
            preset.name().to_string(),
            format!("{:.4}", outcome.timing.conventional.as_secs_f64()),
            format!("{:.4}", outcome.timing.dl.as_secs_f64()),
            format!("{:.2}x", outcome.timing.speedup),
            format!("{:.2}x", paper_speedup(preset)),
        ]);
    }
    if !speedups.is_empty() {
        manifest.add_metric(
            "mean_speedup",
            speedups.iter().sum::<f64>() / speedups.len() as f64,
        );
    }
    let header = [
        "PG circuit",
        "Conventional (s)",
        "PowerPlanningDL (s)",
        "Speedup",
        "paper speedup",
    ];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    let path = write_primary_csv(opts, "table4_speedup.csv", &header, &rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

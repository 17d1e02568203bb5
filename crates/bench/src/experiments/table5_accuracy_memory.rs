//! Table V: r² score, MSE, and peak memory per benchmark.
//!
//! Peak memory is measured by the tracking global allocator (the
//! paper used `mprof`), reset right before each benchmark's flow.
//! Cache-warm runs decode artifacts instead of solving/training, so
//! their peaks reflect the decode path — run with `--no-cache` for a
//! faithful memory measurement.

use std::fmt::Write as _;

use ppdl_core::pipeline::{ArtifactCache, BenchmarkSourceStage};
use ppdl_core::PowerPlanningDl;
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};
use crate::memtrack::{peak_bytes, reset_peak, to_mib};

/// The paper's Table V (r², MSE, peak MiB) for side-by-side reference.
fn paper_row(preset: IbmPgPreset) -> (f64, f64, u32) {
    match preset {
        IbmPgPreset::Ibmpg1 => (0.933, 0.0231, 66),
        IbmPgPreset::Ibmpg2 => (0.937, 0.0230, 318),
        IbmPgPreset::Ibmpg3 => (0.932, 0.0212, 730),
        IbmPgPreset::Ibmpg4 => (0.941, 0.0210, 749),
        IbmPgPreset::Ibmpg5 => (0.944, 0.0225, 511),
        IbmPgPreset::Ibmpg6 => (0.945, 0.0208, 841),
        IbmPgPreset::IbmpgNew1 => (0.943, 0.0201, 1025),
        IbmPgPreset::IbmpgNew2 => (0.945, 0.0209, 745),
    }
}

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("table5_accuracy_memory", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Table V reproduction (scale {} of Table II sizes, seed {})\n",
        opts.scale, opts.seed
    );
    let mut rows = Vec::new();
    let flow = PowerPlanningDl::new(base_config(opts));
    for preset in IbmPgPreset::ALL {
        reset_peak();
        let source = BenchmarkSourceStage::preset(preset, opts.scale, opts.seed);
        let (outcome, records) = match flow.run(source, cache) {
            Ok(o) => o,
            Err(e) => {
                let _ = writeln!(report, "{preset}: {e}");
                continue;
            }
        };
        manifest.record_stages(preset.name(), &records);
        let peak = to_mib(peak_bytes());
        manifest.add_metric(&format!("{preset}_r2"), outcome.width_metrics.r2);
        manifest.add_metric(&format!("{preset}_mse"), outcome.width_metrics.mse_scaled);
        manifest.add_metric(&format!("{preset}_peak_mib"), peak);
        let (paper_r2, paper_mse, paper_mib) = paper_row(preset);
        rows.push(vec![
            preset.name().to_string(),
            outcome.test_bench.segments().len().to_string(),
            format!("{:.3}", outcome.width_metrics.r2),
            format!("{:.4}", outcome.width_metrics.mse_scaled),
            format!("{peak:.0}"),
            format!("{paper_r2:.3}"),
            format!("{paper_mse:.4}"),
            paper_mib.to_string(),
        ]);
        drop(outcome);
    }
    let header = [
        "PG circuit",
        "#interconnects",
        "r2",
        "MSE",
        "Peak MiB",
        "paper r2",
        "paper MSE",
        "paper MiB",
    ];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    if manifest.cache_hits() > 0 {
        let _ = writeln!(
            report,
            "note: {} stages decoded from the artifact cache; peak MiB reflects\n\
             the decode path, not full recomputation (use --no-cache to measure).",
            manifest.cache_hits()
        );
    }
    let path = write_primary_csv(opts, "table5_accuracy_memory.csv", &header, &rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

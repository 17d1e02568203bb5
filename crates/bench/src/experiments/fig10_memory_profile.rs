//! Fig. 10: memory-vs-time profile of the PowerPlanningDL flow for
//! ibmpg2 and ibmpg6, sampled from the tracking allocator (the paper
//! used `mprof`). Cache-warm runs profile the artifact decode path —
//! pass `--no-cache` to profile full recomputation.

use std::fmt::Write as _;
use std::time::Duration;

use ppdl_core::pipeline::{ArtifactCache, BenchmarkSourceStage};
use ppdl_core::PowerPlanningDl;
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_csv, Options};
use crate::memtrack::{peak_bytes, reset_peak, to_mib, Sampler};

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("fig10_memory_profile", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Fig. 10 reproduction (memory profile, scale {}, seed {})\n",
        opts.scale, opts.seed
    );
    let mut rows = Vec::new();
    let flow = PowerPlanningDl::new(base_config(opts));
    for preset in [IbmPgPreset::Ibmpg2, IbmPgPreset::Ibmpg6] {
        reset_peak();
        let sampler = Sampler::start(Duration::from_millis(5));
        let outcome = flow.run(
            BenchmarkSourceStage::preset(preset, opts.scale, opts.seed),
            cache,
        );
        let profile = sampler.stop();
        let records = match outcome {
            Ok((_, records)) => records,
            Err(e) => {
                let _ = writeln!(report, "{preset}: {e}");
                continue;
            }
        };
        manifest.record_stages(preset.name(), &records);
        let csv_rows: Vec<Vec<String>> = profile
            .iter()
            .map(|s| {
                vec![
                    format!("{:.4}", s.elapsed),
                    format!("{:.3}", to_mib(s.bytes)),
                ]
            })
            .collect();
        let name = format!("fig10_{preset}_memory.csv");
        let path = write_csv(&opts.out_dir, &name, &["seconds", "mib"], &csv_rows)?;
        manifest.add_output(&path);
        manifest.add_metric(&format!("{preset}_peak_mib"), to_mib(peak_bytes()));
        rows.push(vec![
            preset.name().to_string(),
            profile.len().to_string(),
            format!("{:.1}", profile.last().map_or(0.0, |s| s.elapsed)),
            format!("{:.1}", to_mib(peak_bytes())),
        ]);
        let _ = writeln!(report, "wrote {}", path.display());
    }
    let header = ["PG circuit", "samples", "duration (s)", "peak MiB"];
    let _ = writeln!(report, "\n{}", format_table(&header, &rows));
    Ok(RunOutput { manifest, report })
}

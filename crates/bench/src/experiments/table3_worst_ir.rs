//! Table III: worst-case IR drop, conventional vs PowerPlanningDL.

use std::fmt::Write as _;

use ppdl_core::pipeline::{ArtifactCache, BenchmarkSourceStage};
use ppdl_core::PowerPlanningDl;
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("table3_worst_ir", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Table III reproduction (scale {} of Table II sizes, seed {})\n",
        opts.scale, opts.seed
    );
    let mut rows = Vec::new();
    let flow = PowerPlanningDl::new(base_config(opts));
    for preset in IbmPgPreset::TABLE3 {
        let source = BenchmarkSourceStage::preset(preset, opts.scale, opts.seed);
        let (outcome, records) = match flow.run(source, cache) {
            Ok(o) => o,
            Err(e) => {
                let _ = writeln!(report, "{preset}: {e}");
                continue;
            }
        };
        manifest.record_stages(preset.name(), &records);
        manifest.add_metric(
            &format!("{preset}_conv_mv"),
            outcome.conventional_worst_ir_mv,
        );
        manifest.add_metric(&format!("{preset}_dl_mv"), outcome.predicted_worst_ir_mv);
        let paper = preset
            .table3_worst_ir_mv()
            .ok_or_else(|| format!("{preset} has no published Table III value"))?;
        rows.push(vec![
            preset.name().to_string(),
            format!("{:.1}", outcome.conventional_worst_ir_mv),
            format!("{:.1}", outcome.predicted_worst_ir_mv),
            format!(
                "{:+.1}%",
                100.0 * (outcome.predicted_worst_ir_mv - outcome.conventional_worst_ir_mv)
                    / outcome.conventional_worst_ir_mv
            ),
            format!("{paper:.1}"),
        ]);
    }
    let header = [
        "PG circuit",
        "Conventional (mV)",
        "PowerPlanningDL (mV)",
        "delta",
        "paper conv. (mV)",
    ];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    let path = write_primary_csv(opts, "table3_worst_ir.csv", &header, &rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

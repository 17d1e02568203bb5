//! Fig. 8: 100x100 IR-drop maps of ibmpg2 and ibmpg6, conventional
//! analysis vs the PowerPlanningDL prediction.

use std::fmt::Write as _;

use ppdl_analysis::IrDropMap;
use ppdl_core::pipeline::{ArtifactCache, BenchmarkSourceStage};
use ppdl_core::PowerPlanningDl;
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

const RESOLUTION: usize = 100;

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("fig8_ir_maps", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Fig. 8 reproduction (100x100 IR maps, scale {}, seed {})\n",
        opts.scale, opts.seed
    );
    let mut rows = Vec::new();
    let flow = PowerPlanningDl::new(base_config(opts));
    for preset in [IbmPgPreset::Ibmpg2, IbmPgPreset::Ibmpg6] {
        let source = BenchmarkSourceStage::preset(preset, opts.scale, opts.seed);
        let (outcome, records) = match flow.run(source, cache) {
            Ok(o) => o,
            Err(e) => {
                let _ = writeln!(report, "{preset}: {e}");
                continue;
            }
        };
        manifest.record_stages(preset.name(), &records);
        let conventional = IrDropMap::from_report(
            outcome.test_bench.network(),
            &outcome.test_report,
            RESOLUTION,
        )?;
        let predicted = outcome
            .predicted_ir
            .to_map(&outcome.test_bench, RESOLUTION)?;

        std::fs::create_dir_all(&opts.out_dir)?;
        let conv_path = opts.out_dir.join(format!("fig8_{preset}_conventional.csv"));
        let pred_path = opts.out_dir.join(format!("fig8_{preset}_predicted.csv"));
        std::fs::write(&conv_path, conventional.to_csv())?;
        std::fs::write(&pred_path, predicted.to_csv())?;
        manifest.add_output(&conv_path);
        manifest.add_output(&pred_path);
        manifest.add_metric(
            &format!("{preset}_mean_abs_diff_mv"),
            conventional.mean_abs_diff_mv(&predicted),
        );

        rows.push(vec![
            preset.name().to_string(),
            format!(
                "{:.1} / {:.1} / {:.1}",
                conventional.min_mv(),
                conventional.mean_mv(),
                conventional.max_mv()
            ),
            format!(
                "{:.1} / {:.1} / {:.1}",
                predicted.min_mv(),
                predicted.mean_mv(),
                predicted.max_mv()
            ),
            format!("{:.2}", conventional.mean_abs_diff_mv(&predicted)),
        ]);
        let _ = writeln!(
            report,
            "wrote {} and {}",
            conv_path.display(),
            pred_path.display()
        );
    }
    let header = [
        "PG circuit",
        "conventional min/mean/max (mV)",
        "predicted min/mean/max (mV)",
        "mean |diff| (mV)",
    ];
    let _ = writeln!(report, "\n{}", format_table(&header, &rows));
    let path = write_primary_csv(opts, "fig8_summary.csv", &header, &rows)?;
    manifest.add_output(&path);
    Ok(RunOutput { manifest, report })
}

//! Cross-preset transfer: how well does a width surrogate trained on
//! one IBM-PG benchmark generalise to the others?
//!
//! For each backend (MLP, CNN, and — outside `--fast` — the
//! encoder-decoder) the experiment trains one model per train preset
//! and evaluates it on every preset's conventionally sized design,
//! emitting a train-preset × test-preset error matrix. The diagonal is
//! in-sample accuracy; the off-diagonal entries measure transfer. The
//! generate + size prefix runs once per preset through the cached
//! pipeline and is shared across backends.

use std::fmt::Write as _;

use ppdl_core::pipeline::{
    run_stage, ArtifactCache, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx, TrainStage,
};
use ppdl_core::BackendKind;
use ppdl_netlist::IbmPgPreset;

use super::{base_config, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("transfer_matrix", opts);
    let presets: &[IbmPgPreset] = if opts.fast {
        &[IbmPgPreset::Ibmpg1, IbmPgPreset::Ibmpg2]
    } else {
        &[
            IbmPgPreset::Ibmpg1,
            IbmPgPreset::Ibmpg2,
            IbmPgPreset::Ibmpg3,
            IbmPgPreset::Ibmpg4,
        ]
    };
    let backends: &[BackendKind] = if opts.fast {
        &[BackendKind::Mlp, BackendKind::Cnn]
    } else {
        &BackendKind::ALL
    };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Cross-preset transfer matrix (scale {}, seed {}, backends {})\n",
        opts.scale,
        opts.seed,
        backends
            .iter()
            .map(|b| b.tag())
            .collect::<Vec<_>>()
            .join("/")
    );

    // Generate + conventionally size every preset once; all backends
    // train and test against the same golden substrates.
    let mut sized = Vec::new();
    for &preset in presets {
        let mut ctx = PipelineCtx::new(base_config(opts), cache);
        run_stage(
            &BenchmarkSourceStage::preset(preset, opts.scale, opts.seed),
            &mut ctx,
        )?;
        run_stage(&FeatureExtractStage, &mut ctx)?;
        manifest.record_stages(preset.name(), &ctx.records);
        sized.push((preset, ctx));
    }

    let mut csv_rows = Vec::new();
    for &backend in backends {
        let mut matrix_rows = Vec::new();
        for (train_preset, train_ctx) in &sized {
            let mut ctx = train_ctx.clone();
            ctx.records.clear();
            ctx.config.backend = backend;
            run_stage(&TrainStage, &mut ctx)?;
            let prefix = format!("{}_{}", backend.tag(), train_preset.name());
            manifest.record_stages(&prefix, &ctx.records);
            let trained = ctx.trained()?;
            let mut row = vec![train_preset.name().to_string()];
            for (test_preset, test_ctx) in &sized {
                let s = test_ctx.sizing()?;
                let m = trained.predictor.evaluate(&s.sized, &s.golden_widths)?;
                let key = format!(
                    "{}.{}.{}",
                    backend.tag(),
                    train_preset.name(),
                    test_preset.name()
                );
                manifest.add_metric(&format!("{key}.r2"), m.r2);
                manifest.add_metric(&format!("{key}.mse"), m.mse_scaled);
                row.push(format!("{:.3}", m.r2));
                csv_rows.push(vec![
                    backend.tag().to_string(),
                    train_preset.name().to_string(),
                    test_preset.name().to_string(),
                    format!("{}", m.r2),
                    format!("{}", m.mse_scaled),
                    if train_preset == test_preset {
                        "in-sample"
                    } else {
                        "transfer"
                    }
                    .to_string(),
                ]);
            }
            matrix_rows.push(row);
        }
        let mut header = vec![format!("{} train\\test", backend.tag())];
        header.extend(presets.iter().map(|p| p.name().to_string()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let _ = writeln!(
            report,
            "{} (r², rows train / columns test)\n{}",
            backend.label(),
            format_table(&header_refs, &matrix_rows)
        );
    }

    let header = ["backend", "train", "test", "r2", "mse_scaled", "kind"];
    let path = write_primary_csv(opts, "transfer_matrix.csv", &header, &csv_rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

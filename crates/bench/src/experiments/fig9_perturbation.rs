//! Fig. 9: prediction MSE vs perturbation size γ ∈ {10..30 %} for the
//! three perturbation kinds, on ibmpg2 and ibmpg6.
//!
//! The model is trained once per benchmark on the sized design — the
//! generate/size/train prefix runs through the cached pipeline stages,
//! and the cache layer *asserts* the sweep itself never retrains. For
//! each (γ, kind) the *initial* design is re-perturbed, re-sized by the
//! conventional flow (its widths are the golden answer for the
//! perturbed spec), and the model's MSE against those golden widths is
//! reported as MSE(%).

use std::fmt::Write as _;

use ppdl_core::pipeline::{
    run_stage, ArtifactCache, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx, TrainStage,
};
use ppdl_core::{experiment, run_perturbation_sweep, ConventionalFlow, PerturbationKind};
use ppdl_netlist::IbmPgPreset;

use super::{base_builder, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_csv, write_primary_csv, Options};

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("fig9_perturbation", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Fig. 9 reproduction (MSE vs perturbation size, scale {}, seed {})\n",
        opts.scale, opts.seed
    );
    let gammas = [0.10, 0.15, 0.20, 0.25, 0.30];
    let mut combined_rows = Vec::new();

    for preset in [IbmPgPreset::Ibmpg2, IbmPgPreset::Ibmpg6] {
        // A finer widening step than the default keeps the golden
        // widths from jumping in coarse quanta between gamma points;
        // it feeds the feature-extract cache key, so these sizings
        // never collide with the default-widen artifacts.
        let config = base_builder(opts).widen_factor(1.15).build();
        let mut ctx = PipelineCtx::new(config, cache);
        run_stage(
            &BenchmarkSourceStage::preset(preset, opts.scale, opts.seed),
            &mut ctx,
        )?;
        run_stage(&FeatureExtractStage, &mut ctx)?;
        run_stage(&TrainStage, &mut ctx)?;
        manifest.record_stages(preset.name(), &ctx.records);
        let initial = ctx.bench()?.bench.clone();
        let predictor = ctx.trained()?.predictor.clone();
        let conventional = ConventionalFlow::new(ctx.config.conventional.clone());

        let mut rows = Vec::new();
        let mut csv_rows = Vec::new();
        let repeats = 3u64;
        // Kind-major grid with `repeats` seeded draws per (kind, γ)
        // point — the random signs make any single draw noisy. Every
        // point re-sizes the perturbed spec independently, so the whole
        // grid evaluates in parallel across PPDL_THREADS.
        let points =
            experiment::perturbation_grid(&gammas, &PerturbationKind::ALL, opts.seed, repeats)?;
        let trains_before_sweep = cache.map(|c| c.stats().executions("train"));
        let results = run_perturbation_sweep(&initial, &points, |perturbed, _| {
            // Golden answer for the perturbed spec.
            let (sized_p, golden_p) = conventional.run(perturbed)?;
            let m = predictor.evaluate(&sized_p, &golden_p.widths)?;
            // MSE(%): squared error relative to the mean golden width —
            // a scale-free percentage that does not blow up when the
            // golden widths are tightly clustered.
            let mean_w = golden_p.widths.iter().sum::<f64>() / golden_p.widths.len() as f64;
            Ok(100.0 * m.mse_um2 / (mean_w * mean_w))
        });
        // The sweep train-once guarantee, enforced by the cache layer:
        // training happened in the prefix (at most once per key), never
        // inside the per-point sweep.
        if let (Some(c), Some(before)) = (cache, trains_before_sweep) {
            assert_eq!(
                c.stats().executions("train"),
                before,
                "perturbation sweep must not retrain the predictor"
            );
        }
        let mut point = results.iter().zip(&points);
        for kind in PerturbationKind::ALL {
            let mut cells = vec![kind.label().to_string()];
            for &gamma in &gammas {
                let mut sum = 0.0;
                let mut count = 0usize;
                for _ in 0..repeats {
                    let Some((res, p)) = point.next() else {
                        return Err(
                            "perturbation grid exhausted early (kind x gamma x repeats)".into()
                        );
                    };
                    match res {
                        Ok(mse_pct) => {
                            sum += mse_pct;
                            count += 1;
                        }
                        Err(e) => {
                            let _ = writeln!(
                                report,
                                "{preset} gamma={gamma} {kind:?} seed={}: {e}",
                                p.seed()
                            );
                        }
                    }
                }
                let mse_pct = if count > 0 {
                    sum / count as f64
                } else {
                    f64::NAN
                };
                cells.push(format!("{mse_pct:.1}"));
                csv_rows.push(vec![
                    kind.label().to_string(),
                    format!("{gamma:.2}"),
                    format!("{mse_pct:.3}"),
                ]);
                combined_rows.push(vec![
                    preset.name().to_string(),
                    kind.label().to_string(),
                    format!("{gamma:.2}"),
                    format!("{mse_pct:.3}"),
                ]);
            }
            rows.push(cells);
        }
        let header = ["perturbation", "10%", "15%", "20%", "25%", "30%"];
        let _ = writeln!(
            report,
            "{}:\n{}",
            preset.name(),
            format_table(&header, &rows)
        );
        let path = write_csv(
            &opts.out_dir,
            &format!("fig9_{preset}_mse_vs_gamma.csv"),
            &["kind", "gamma", "mse_pct"],
            &csv_rows,
        )?;
        manifest.add_output(&path);
    }
    if opts.csv.is_some() {
        // --csv asks for a single file: the combined grid with a
        // preset column.
        let path = write_primary_csv(
            opts,
            "fig9_mse_vs_gamma.csv",
            &["preset", "kind", "gamma", "mse_pct"],
            &combined_rows,
        )?;
        manifest.add_output(&path);
    }
    let _ = writeln!(
        report,
        "wrote fig9_*_mse_vs_gamma.csv to {}",
        opts.out_dir.display()
    );
    Ok(RunOutput { manifest, report })
}

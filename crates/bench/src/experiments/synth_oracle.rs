//! Predictor-in-the-loop synthesis vs the conventional flow: same
//! margins, a fraction of the full MNA solves.
//!
//! The pipeline's cached prefix (generate → conventionally size →
//! train) provides both sides of the comparison at once: the sizing
//! stage's iteration count *is* the conventional flow's full-solve
//! bill, and its trained surrogate plus golden widths become the
//! [`TrainedBundle`] the synthesizer uses as its cheap oracle. The
//! manifest records the headline pair the ROADMAP asks for — the
//! full-solve reduction factor and the worst-IR gap against the
//! conventional result — which `bench_results/BENCH_synth.json` pins
//! in CI.

use std::fmt::Write as _;

use ppdl_core::pipeline::{
    run_stage, ArtifactCache, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx, TrainStage,
};
use ppdl_core::predict::BundleMeta;
use ppdl_core::{synthesize, SynthConfig, TrainedBundle};
use ppdl_netlist::IbmPgPreset;

use super::{base_builder, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

/// Widening multiplier of the conventional reference. The registry
/// default (1.3) overshoots the margin in a handful of coarse steps;
/// a signoff-fidelity 5% schedule converges a tight margin and pays
/// the honest per-iteration full-solve bill the paper's §V timing
/// comparison is about — that bill is this experiment's denominator.
const REFERENCE_WIDEN_FACTOR: f64 = 1.05;

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("synth_oracle", opts);
    let preset = IbmPgPreset::Ibmpg2;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Predictor-in-the-loop synthesis vs conventional flow ({}, scale {}, seed {})\n",
        preset.name(),
        opts.scale,
        opts.seed
    );

    // Cached prefix: generate + size + train once; warm runs decode
    // everything from the artifact cache.
    let config = base_builder(opts)
        .widen_factor(REFERENCE_WIDEN_FACTOR)
        .build();
    let mut ctx = PipelineCtx::new(config, cache);
    run_stage(
        &BenchmarkSourceStage::preset(preset, opts.scale, opts.seed),
        &mut ctx,
    )?;
    run_stage(&FeatureExtractStage, &mut ctx)?;
    run_stage(&TrainStage, &mut ctx)?;
    manifest.record_stages(preset.name(), &ctx.records);

    // The conventional side of the ledger comes straight from the
    // sizing stage: one full MNA solve per widening iteration, and the
    // verified worst drop it converged to.
    let sizing = ctx.sizing()?;
    let conventional_solves = sizing.iterations;
    let conventional_worst = sizing.worst_ir;
    let conventional_area = sizing.sized.total_metal_area();

    let bench_slot = ctx.bench()?;
    let bundle = TrainedBundle {
        predictor: ctx.trained()?.predictor.clone(),
        meta: BundleMeta {
            preset,
            scale: opts.scale,
            seed: opts.seed,
            margin_fraction: bench_slot.margin_fraction,
            inference_stride: ctx.config.inference_stride,
        },
        loads: bench_slot
            .bench
            .network()
            .current_loads()
            .iter()
            .map(|l| l.amps)
            .collect(),
        golden_widths: sizing.golden_widths.clone(),
    };
    bundle.validate()?;

    let mut config = if opts.fast {
        SynthConfig::fast()
    } else {
        SynthConfig::default()
    };
    config.seed = opts.seed;
    if let Some(kind) = opts.precond {
        config.precond = kind;
    }
    // Track the conventional flow's verified margin: the annealer aims
    // its cost at that exact worst drop, so the comparison below is
    // same-margin, fewer-solves rather than different-margin.
    config.aim_worst_ir = Some(conventional_worst);
    // The conventional flow's verified worst drop anchors the oracle's
    // calibration for free — it was already paid for by the sizing
    // stage above.
    let result = synthesize(&bundle, &config, Some(conventional_worst))?;

    let solve_reduction = conventional_solves as f64 / result.full_solves.max(1) as f64;
    let gap_pct = if conventional_worst > 0.0 {
        100.0 * (result.worst_ir - conventional_worst).abs() / conventional_worst
    } else {
        0.0
    };
    let acceptance = if result.proposed > 0 {
        result.accepted as f64 / result.proposed as f64
    } else {
        0.0
    };

    manifest.add_metric("conventional_full_solves", conventional_solves as f64);
    manifest.add_metric("conventional_worst_ir_mv", conventional_worst * 1e3);
    manifest.add_metric("synth_full_solves", result.full_solves as f64);
    manifest.add_metric("synth_oracle_calls", result.oracle_calls as f64);
    manifest.add_metric("solve_reduction", solve_reduction);
    manifest.add_metric("worst_ir_gap_pct", gap_pct);
    manifest.add_metric("synth_worst_ir_mv", result.worst_ir_mv());
    manifest.add_metric("target_worst_ir_mv", result.target_worst_ir * 1e3);
    manifest.add_metric("synth_feasible", f64::from(u8::from(result.feasible)));
    manifest.add_metric("acceptance_rate", acceptance);
    manifest.add_metric(
        "area_vs_conventional",
        result.metal_area / conventional_area,
    );
    manifest.add_metric("synth_accepted", result.accepted as f64);
    manifest.add_metric("synth_repair_rounds", result.repair_rounds as f64);

    let header = ["quantity", "conventional", "synth"];
    let rows = vec![
        vec![
            "full MNA solves".into(),
            format!("{conventional_solves}"),
            format!("{}", result.full_solves),
        ],
        vec![
            "oracle calls".into(),
            "-".into(),
            format!("{}", result.oracle_calls),
        ],
        vec![
            "worst IR (mV)".into(),
            format!("{:.3}", conventional_worst * 1e3),
            format!("{:.3}", result.worst_ir_mv()),
        ],
        vec![
            "metal area (µm²)".into(),
            format!("{conventional_area:.0}"),
            format!("{:.0}", result.metal_area),
        ],
    ];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    let _ = writeln!(
        report,
        "solve reduction {solve_reduction:.1}x, worst-IR gap {gap_pct:.2}% \
         (target {:.3} mV), acceptance {acceptance:.2}, {} repair round(s)\n",
        result.target_worst_ir * 1e3,
        result.repair_rounds
    );

    let csv_header = ["metric", "value"];
    let csv_rows: Vec<Vec<String>> = manifest
        .metrics
        .iter()
        .map(|(k, v)| vec![k.clone(), format!("{v}")])
        .collect();
    let path = write_primary_csv(opts, "synth_oracle.csv", &csv_header, &csv_rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

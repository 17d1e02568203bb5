//! Standard experiment preparation shared by the tests, examples, and
//! the table/figure harnesses.
//!
//! The recipe mirrors the paper's setup (§V-A: "Current loads of the
//! IBM PG benchmarks are modified in order to obtain the desired
//! effects"): generate the preset's synthetic grid, calibrate its load
//! currents so the *initial* design violates the IR margin by a chosen
//! overdrive factor, and set the margin to the benchmark's published
//! Table III worst-case drop. The conventional sizing loop then has
//! real work to do, converges just under the published value, and
//! produces spatially varying golden widths for the model to learn.

use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};

use crate::pipeline::{ArtifactCache, BenchmarkSourceStage, StageRecord};
use crate::{
    calibrate_to_worst_ir, CoreError, DlFlowConfig, DlFlowConfigBuilder, DlOutcome, Perturbation,
    PerturbationKind, PowerPlanningDl,
};

/// The overdrive factor of the standard experiment recipe: how far the
/// initial design violates its margin before sizing (2.5 gives the
/// conventional loop a few rounds of real work, like the paper's
/// "multiple iterative steps").
pub const STANDARD_OVERDRIVE: f64 = 2.5;

/// A benchmark prepared for a paper experiment.
#[derive(Debug, Clone)]
pub struct PreparedBenchmark {
    /// The calibrated benchmark (initial widths, overdriven loads).
    pub bench: SyntheticBenchmark,
    /// The IR margin as a fraction of Vdd that the conventional flow
    /// should target.
    pub margin_fraction: f64,
    /// The margin in volts (the Table III target).
    pub target_worst_ir: f64,
}

/// The Table III worst-case-drop target for a preset, in volts; the
/// two `new` benchmarks Table III omits get interpolated targets.
#[must_use]
pub fn target_worst_ir(preset: IbmPgPreset) -> f64 {
    preset.table3_worst_ir_mv().unwrap_or(match preset {
        IbmPgPreset::IbmpgNew1 => 10.0,
        _ => 9.0,
    }) / 1e3
}

/// Prepares a preset benchmark at `scale` for an experiment run.
///
/// `overdrive` is how far the initial design violates the margin
/// (2.5 is a good default: a few sizing rounds, like the paper's
/// "multiple iterative steps").
///
/// # Errors
///
/// Propagates generation and calibration errors, and rejects
/// `overdrive <= 1` (the sizing loop would have nothing to do).
pub fn prepare(
    preset: IbmPgPreset,
    scale: f64,
    seed: u64,
    overdrive: f64,
) -> crate::Result<PreparedBenchmark> {
    if !(overdrive > 1.0 && overdrive.is_finite()) {
        return Err(CoreError::InvalidConfig {
            detail: format!("overdrive {overdrive} must exceed 1"),
        });
    }
    let mut bench = SyntheticBenchmark::from_preset(preset, scale, seed)?;
    let target = target_worst_ir(preset);
    calibrate_to_worst_ir(&mut bench, overdrive * target)?;
    // Generated benchmarks always carry supplies; keep the failure
    // typed anyway so callers see an error, not an abort
    // (robustness/unwrap-in-lib).
    let vdd = bench
        .network()
        .supply_voltage()
        .ok_or(CoreError::Analysis(ppdl_analysis::AnalysisError::NoSupply))?;
    Ok(PreparedBenchmark {
        bench,
        margin_fraction: target / vdd,
        target_worst_ir: target,
    })
}

/// Builds the γ × kind grid of [`Perturbation`]s a sweep study (Fig. 9)
/// evaluates, with `repeats` independently seeded draws per point to
/// average out the random signs.
///
/// Points are ordered kind-major, then γ, then repeat, and each point's
/// seed is a deterministic function of `base_seed` and its grid
/// position, so the grid — and everything downstream of it — is
/// reproducible. Feed the result to
/// [`run_perturbation_sweep`](crate::run_perturbation_sweep) for
/// parallel evaluation.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if any γ is outside `(0, 1)`
/// or `repeats` is zero.
pub fn perturbation_grid(
    gammas: &[f64],
    kinds: &[PerturbationKind],
    base_seed: u64,
    repeats: u64,
) -> crate::Result<Vec<Perturbation>> {
    if repeats == 0 {
        return Err(CoreError::InvalidConfig {
            detail: "a perturbation grid needs at least one repeat per point".into(),
        });
    }
    let mut out = Vec::with_capacity(kinds.len() * gammas.len() * repeats as usize);
    for &kind in kinds {
        for (gi, &gamma) in gammas.iter().enumerate() {
            for rep in 0..repeats {
                let seed = base_seed
                    .wrapping_add(1 + gi as u64)
                    .wrapping_mul(101)
                    .wrapping_add(rep);
                out.push(Perturbation::new(gamma, kind, seed)?);
            }
        }
    }
    Ok(out)
}

/// The cacheable pipeline source for the standard experiment recipe:
/// generate at `scale`/`seed`, calibrate to
/// [`STANDARD_OVERDRIVE`] × the preset's Table III target.
#[must_use]
pub fn preset_source(preset: IbmPgPreset, scale: f64, seed: u64) -> BenchmarkSourceStage {
    BenchmarkSourceStage::preset(preset, scale, seed, STANDARD_OVERDRIVE)
}

/// Runs the full five-stage flow for one preset through the pipeline
/// engine, optionally against an artifact cache. This is the
/// pipeline-native equivalent of [`prepare`] + [`flow_config`] +
/// [`PowerPlanningDl::run`], and what the experiment registry calls.
///
/// # Errors
///
/// Propagates generation, calibration, sizing, training, and analysis
/// errors.
pub fn run_preset_cached(
    preset: IbmPgPreset,
    scale: f64,
    seed: u64,
    fast: bool,
    cache: Option<&ArtifactCache>,
) -> crate::Result<(DlOutcome, Vec<StageRecord>)> {
    let mut builder = DlFlowConfig::builder();
    if fast {
        builder = builder.fast();
    }
    PowerPlanningDl::new(builder.build())
        .run_source_cached(preset_source(preset, scale, seed), cache)
}

/// A [`DlFlowConfig`] builder matched to a prepared benchmark: the
/// conventional margin targets the preset's Table III drop. Chain
/// further knobs before `build()`.
#[must_use]
pub fn flow_builder(prepared: &PreparedBenchmark, fast: bool) -> DlFlowConfigBuilder {
    let mut builder = DlFlowConfig::builder().ir_margin_fraction(prepared.margin_fraction);
    if fast {
        builder = builder.fast();
    }
    builder
}

/// A [`DlFlowConfig`] matched to a prepared benchmark
/// ([`flow_builder`] with no extra knobs).
#[must_use]
pub fn flow_config(prepared: &PreparedBenchmark, fast: bool) -> DlFlowConfig {
    flow_builder(prepared, fast).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_analysis::StaticAnalysis;

    #[test]
    fn prepared_bench_violates_margin_by_overdrive() {
        let p = prepare(IbmPgPreset::Ibmpg2, 0.005, 3, 2.5).unwrap();
        let report = StaticAnalysis::default().solve(p.bench.network()).unwrap();
        let worst = report.worst_drop().unwrap().1;
        assert!((worst - 2.5 * p.target_worst_ir).abs() < 1e-5);
    }

    #[test]
    fn targets_cover_all_presets() {
        for preset in IbmPgPreset::ALL {
            let t = target_worst_ir(preset);
            assert!(t > 0.0 && t < 0.1, "{preset}: {t}");
        }
        assert!((target_worst_ir(IbmPgPreset::Ibmpg1) - 0.0698).abs() < 1e-12);
    }

    #[test]
    fn overdrive_validated() {
        assert!(prepare(IbmPgPreset::Ibmpg1, 0.01, 1, 1.0).is_err());
        assert!(prepare(IbmPgPreset::Ibmpg1, 0.01, 1, f64::NAN).is_err());
    }

    #[test]
    fn perturbation_grid_is_deterministic_and_ordered() {
        let gammas = [0.1, 0.2];
        let kinds = PerturbationKind::ALL;
        let a = perturbation_grid(&gammas, &kinds, 7, 2).unwrap();
        let b = perturbation_grid(&gammas, &kinds, 7, 2).unwrap();
        assert_eq!(a.len(), kinds.len() * gammas.len() * 2);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.gamma(), pb.gamma());
            assert_eq!(pa.kind(), pb.kind());
            assert_eq!(pa.seed(), pb.seed());
        }
        // Kind-major ordering: the first gammas.len() * repeats points
        // share the first kind.
        assert!(a[..4].iter().all(|p| p.kind() == kinds[0]));
        assert_eq!(a[0].gamma(), 0.1);
        assert_eq!(a[2].gamma(), 0.2);
        assert!(perturbation_grid(&[0.0], &kinds, 7, 2).is_err());
        assert!(perturbation_grid(&gammas, &kinds, 7, 0).is_err());
    }

    #[test]
    fn flow_config_carries_margin() {
        let p = prepare(IbmPgPreset::Ibmpg1, 0.01, 1, 2.0).unwrap();
        let c = flow_config(&p, true);
        assert!((c.conventional.ir_margin_fraction - p.margin_fraction).abs() < 1e-15);
    }
}

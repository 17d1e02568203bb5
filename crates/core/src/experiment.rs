//! The standard experiment recipe's constants and the Fig. 9 sweep
//! grid.
//!
//! The recipe mirrors the paper's setup (§V-A: "Current loads of the
//! IBM PG benchmarks are modified in order to obtain the desired
//! effects"): generate the preset's synthetic grid, calibrate its load
//! currents so the *initial* design violates the IR margin by
//! [`STANDARD_OVERDRIVE`], and set the margin to the benchmark's
//! published Table III worst-case drop ([`target_worst_ir`]). The
//! conventional sizing loop then has real work to do, converges just
//! under the published value, and produces spatially varying golden
//! widths for the model to learn. The pipeline's
//! [`BenchmarkSourceStage::preset`](crate::pipeline::BenchmarkSourceStage::preset)
//! is the one place that applies it.

use ppdl_netlist::IbmPgPreset;

use crate::{CoreError, Perturbation, PerturbationKind};

/// The overdrive factor of the standard experiment recipe: how far the
/// initial design violates its margin before sizing (2.5 gives the
/// conventional loop a few rounds of real work, like the paper's
/// "multiple iterative steps").
pub const STANDARD_OVERDRIVE: f64 = 2.5;

/// The Table III worst-case-drop target for a preset, in volts; the
/// two `new` benchmarks Table III omits get interpolated targets.
#[must_use]
pub fn target_worst_ir(preset: IbmPgPreset) -> f64 {
    preset.table3_worst_ir_mv().unwrap_or(match preset {
        IbmPgPreset::IbmpgNew1 => 10.0,
        _ => 9.0,
    }) / 1e3
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_stage, BenchmarkSourceStage, PipelineCtx};
    use crate::DlFlowConfig;
    use ppdl_analysis::StaticAnalysis;

    #[test]
    fn calibrated_source_overdrives_and_sets_the_margin() {
        let mut ctx = PipelineCtx::new(DlFlowConfig::fast(), None);
        let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.005, 3);
        run_stage(&source, &mut ctx).unwrap();
        let slot = ctx.bench().unwrap();
        let report = StaticAnalysis::default()
            .solve(slot.bench.network())
            .unwrap();
        let worst = report.worst_drop().unwrap().1;
        assert!((worst - STANDARD_OVERDRIVE * slot.target_worst_ir).abs() < 1e-5);
        assert_eq!(slot.target_worst_ir, target_worst_ir(IbmPgPreset::Ibmpg2));
        let margin = ctx.config.conventional.ir_margin_fraction;
        assert!((margin - slot.margin_fraction).abs() < 1e-15);
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
}

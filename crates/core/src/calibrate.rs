//! Load-current calibration against published worst-case IR drops.
//!
//! The IBM decks come with real current loads; our synthetic grids
//! need theirs scaled so the analysis reproduces the millivolt-scale
//! drops of Table III. Because the static grid is linear, the drop
//! vector scales exactly with a uniform load scaling — but the *solver*
//! is iterative, so a single solve leaves a residual-sized error that
//! can exceed a millivolt-scale target's tolerance. Calibration
//! therefore rescales and re-verifies until the drop reported by a
//! default-accuracy analysis lands on the target, and returns a typed
//! [`CoreError::CalibrationDidNotConverge`] when it cannot.
//!
//! Calibration runs inside the pipeline's `benchmark-source` stage
//! ([`crate::pipeline::BenchmarkSourceStage`]); its artifact stores the
//! applied load scale, so cached runs skip the rescale/verify loop.

use ppdl_analysis::{AnalysisOptions, StaticAnalysis};
use ppdl_netlist::SyntheticBenchmark;

use crate::CoreError;

/// Scales every load current of `bench` (in place) so that its
/// worst-case IR drop under static analysis equals `target_volts`.
/// Returns the total scale factor applied.
///
/// The result is *verified*: after scaling, the worst drop reported by
/// a [`StaticAnalysis::default`] solve of the calibrated network agrees
/// with the target to well within the solver's accuracy (see
/// [`calibration_tolerance`]), or a typed error is returned.
///
/// # Errors
///
/// * [`CoreError::InvalidConfig`] — non-positive target, or the grid
///   draws no current / shows no drop (nothing to scale).
/// * [`CoreError::CalibrationDidNotConverge`] — the verified drop could
///   not be driven onto the target (degenerate or numerically
///   unreachable target); the benchmark is left at the last iterate.
/// * Analysis errors propagate.
///
/// # Example
///
/// ```
/// use ppdl_core::calibrate_to_worst_ir;
/// use ppdl_analysis::StaticAnalysis;
/// use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
///
/// let mut bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.005, 3).unwrap();
/// calibrate_to_worst_ir(&mut bench, 0.0363).unwrap(); // Table III: 36.3 mV
/// let report = StaticAnalysis::default().solve(bench.network()).unwrap();
/// let worst = report.worst_drop().unwrap().1;
/// assert!((worst - 0.0363).abs() < 1e-5);
/// ```
pub fn calibrate_to_worst_ir(
    bench: &mut SyntheticBenchmark,
    target_volts: f64,
) -> crate::Result<f64> {
    if !(target_volts.is_finite() && target_volts > 0.0) {
        return Err(CoreError::InvalidConfig {
            detail: format!("calibration target {target_volts} must be positive"),
        });
    }
    if bench.network().current_loads().is_empty() || bench.network().total_load_current() <= 0.0 {
        return Err(CoreError::InvalidConfig {
            detail: "grid draws no current; cannot calibrate".into(),
        });
    }
    // First solve at a tight tolerance to get a good starting scale,
    // then verify with the same default-accuracy analysis downstream
    // consumers use, rescaling until the verified drop hits the target.
    let tight = StaticAnalysis::new(AnalysisOptions {
        tolerance: 1e-10,
        ..AnalysisOptions::default()
    });
    let verifier = StaticAnalysis::default();
    let tolerance = calibration_tolerance(target_volts);

    let mut total_factor = 1.0;
    let mut worst = tight
        .solve(bench.network())?
        .worst_drop()
        .map_or(0.0, |(_, d)| d);
    for iteration in 0..MAX_CALIBRATION_ITERS {
        if !(worst.is_finite() && worst > 0.0) {
            return Err(CoreError::InvalidConfig {
                detail: "grid shows no IR drop; cannot calibrate (no loads?)".into(),
            });
        }
        let factor = target_volts / worst;
        if !factor.is_finite() || factor <= 0.0 {
            return Err(CoreError::CalibrationDidNotConverge {
                target_volts,
                achieved_volts: worst,
                iterations: iteration,
            });
        }
        scale_loads(bench, factor)?;
        total_factor *= factor;
        worst = verifier
            .solve(bench.network())?
            .worst_drop()
            .map_or(0.0, |(_, d)| d);
        if (worst - target_volts).abs() <= tolerance {
            return Ok(total_factor);
        }
    }
    Err(CoreError::CalibrationDidNotConverge {
        target_volts,
        achieved_volts: worst,
        iterations: MAX_CALIBRATION_ITERS,
    })
}

/// Rescale-and-verify budget; the system is linear, so two or three
/// rounds normally suffice and more indicate a degenerate grid.
const MAX_CALIBRATION_ITERS: usize = 8;

/// Absolute agreement demanded between the verified worst-case drop
/// and the calibration target, in volts.
///
/// The verifying solve stops at the default voltage-space residual
/// (1e-9 of `‖b‖`) and solves for each node's deviation from the supply
/// level, so its worst drop lands within about 2e-6 relative of an
/// exact factor on the benchmark grids: 1e-4 relative leaves it ample
/// room. This bound is an order of magnitude stricter than what the
/// calibration property tests assert.
#[must_use]
pub fn calibration_tolerance(target_volts: f64) -> f64 {
    1e-4 * target_volts + 1e-7
}

fn scale_loads(bench: &mut SyntheticBenchmark, factor: f64) -> crate::Result<()> {
    let loads: Vec<f64> = bench
        .network()
        .current_loads()
        .iter()
        .map(|l| l.amps * factor)
        .collect();
    for (i, amps) in loads.iter().enumerate() {
        bench.network_mut().set_load_current(i, *amps)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_netlist::IbmPgPreset;

    #[test]
    fn hits_target_exactly() {
        let mut b = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 1).unwrap();
        let factor = calibrate_to_worst_ir(&mut b, 0.0698).unwrap();
        assert!(factor > 0.0);
        let rep = StaticAnalysis::default().solve(b.network()).unwrap();
        assert!((rep.worst_drop().unwrap().1 - 0.0698).abs() < 1e-6);
    }

    #[test]
    fn scaling_is_uniform() {
        let mut b = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 1).unwrap();
        let before: Vec<f64> = b.network().current_loads().iter().map(|l| l.amps).collect();
        let factor = calibrate_to_worst_ir(&mut b, 0.01).unwrap();
        for (l, old) in b.network().current_loads().iter().zip(&before) {
            assert!((l.amps - old * factor).abs() < 1e-15);
        }
    }

    #[test]
    fn idempotent_at_target() {
        let mut b = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 2).unwrap();
        calibrate_to_worst_ir(&mut b, 0.02).unwrap();
        let second = calibrate_to_worst_ir(&mut b, 0.02).unwrap();
        assert!((second - 1.0).abs() < 1e-6);
    }

    #[test]
    fn millivolt_target_verified_within_property_bound() {
        // The shrunk ppdl-core proptest regression: `target_mv = 1.0,
        // seed = 0`. A single tight solve used to leave a residual-sized
        // error that the default-accuracy verification could exceed; the
        // rescale-and-verify loop must land inside the property bound.
        let mut b = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.003, 0).unwrap();
        let target = 1.0e-3;
        calibrate_to_worst_ir(&mut b, target).unwrap();
        let worst = StaticAnalysis::default()
            .solve(b.network())
            .unwrap()
            .worst_drop()
            .unwrap()
            .1;
        assert!((worst - target).abs() <= calibration_tolerance(target));
        assert!((worst - target).abs() < 1e-3 * target + 1e-6);
    }

    #[test]
    fn invalid_target_rejected() {
        let mut b = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 1).unwrap();
        assert!(calibrate_to_worst_ir(&mut b, 0.0).is_err());
        assert!(calibrate_to_worst_ir(&mut b, -1.0).is_err());
        assert!(calibrate_to_worst_ir(&mut b, f64::NAN).is_err());
    }

    #[test]
    fn loadless_grid_rejected() {
        use ppdl_netlist::GridSpec;
        // A floorplan whose only block draws zero current.
        let spec = GridSpec {
            die_width: 100.0,
            die_height: 100.0,
            v_straps: 3,
            h_straps: 3,
            ..GridSpec::default()
        };
        let mut fp = ppdl_floorplan::Floorplan::new(100.0, 100.0).unwrap();
        fp.add_block(
            ppdl_floorplan::FunctionalBlock::new("idle", 10.0, 10.0, 50.0, 50.0, 0.0).unwrap(),
        )
        .unwrap();
        let mut b = SyntheticBenchmark::generate("z", spec, fp).unwrap();
        assert!(matches!(
            calibrate_to_worst_ir(&mut b, 0.01),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}

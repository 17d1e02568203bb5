//! The conventional iterative power-planning baseline (Fig. 1).
//!
//! Starting from the initial uniform widths, the loop runs a full
//! power-grid analysis, checks the IR-drop margin and the EM constraint
//! (eq. 4), widens every violating strap, and repeats until both
//! margins hold. The resulting widths are the *golden* labels the deep
//! learning model trains on, and the loop's analysis time is the
//! "conventional convergence time" of Table IV.
//!
//! In the staged experiment pipeline ([`crate::pipeline`]) this loop
//! runs inside the `feature-extract` stage, whose cached artifact
//! carries the golden widths and the loop's wall time so warm runs
//! reproduce Table IV without re-sizing.

use std::time::{Duration, Instant};

use ppdl_analysis::{AnalysisOptions, EmChecker, IrDropReport, StaticAnalysis};
use ppdl_netlist::{NodeId, SyntheticBenchmark};

use crate::CoreError;

/// Configuration of the conventional sizing loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ConventionalConfig {
    /// Allowed worst-case IR drop, as a fraction of Vdd (e.g. `0.05`
    /// allows 90 mV at 1.8 V).
    pub ir_margin_fraction: f64,
    /// Electromigration current-density limit (A/µm).
    pub jmax: f64,
    /// Multiplier applied to a violating strap's width each round.
    pub widen_factor: f64,
    /// Maximum design-loop iterations before giving up.
    pub max_iterations: usize,
    /// Upper bound on any strap width (µm) — the paper's Fig. 7 width
    /// axis tops out at 25 µm.
    pub max_width: f64,
    /// Options for the underlying analysis solves.
    pub analysis: AnalysisOptions,
}

impl Default for ConventionalConfig {
    fn default() -> Self {
        Self {
            ir_margin_fraction: 0.05,
            jmax: 0.05,
            widen_factor: 1.3,
            max_iterations: 40,
            max_width: 25.0,
            analysis: AnalysisOptions::default(),
        }
    }
}

/// Result of a conventional sizing run.
#[derive(Debug, Clone)]
pub struct ConventionalResult {
    /// The converged per-strap widths (the golden labels).
    pub widths: Vec<f64>,
    /// Design-loop iterations used (each one is a full analysis).
    pub iterations: usize,
    /// The final IR-drop report.
    pub report: IrDropReport,
    /// Final worst-case IR drop in volts.
    pub worst_ir: f64,
    /// Wall-clock time spent inside power-grid analysis (the dominant
    /// cost the paper counts as convergence time).
    pub analysis_time: Duration,
    /// Wall-clock time of one (the final) analysis solve.
    pub single_analysis_time: Duration,
}

/// The conventional iterative design flow.
///
/// # Example
///
/// ```
/// use ppdl_core::{ConventionalConfig, ConventionalFlow};
/// use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
///
/// let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 3).unwrap();
/// let (sized, result) = ConventionalFlow::new(ConventionalConfig::default())
///     .run(&bench)
///     .unwrap();
/// assert_eq!(result.widths.len(), sized.straps().len());
/// assert!(result.worst_ir <= 0.05 * 1.8 + 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConventionalFlow {
    config: ConventionalConfig,
}

impl ConventionalFlow {
    /// Creates a flow with the given configuration.
    #[must_use]
    pub fn new(config: ConventionalConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ConventionalConfig {
        &self.config
    }

    /// Runs the sizing loop on a copy of `bench`, returning the sized
    /// benchmark and the result record.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SizingDidNotConverge`] — margins still violated
    ///   after `max_iterations` (or every violating strap is already at
    ///   `max_width`).
    /// * Analysis errors propagate.
    pub fn run(
        &self,
        bench: &SyntheticBenchmark,
    ) -> crate::Result<(SyntheticBenchmark, ConventionalResult)> {
        let c = &self.config;
        if !(c.ir_margin_fraction > 0.0 && c.ir_margin_fraction < 1.0) {
            return Err(CoreError::InvalidConfig {
                detail: format!("IR margin fraction {} outside (0, 1)", c.ir_margin_fraction),
            });
        }
        let mut sized = bench.clone();
        let vdd = sized
            .network()
            .supply_voltage()
            .ok_or(CoreError::Analysis(ppdl_analysis::AnalysisError::NoSupply))?;
        let margin = c.ir_margin_fraction * vdd;
        let analyzer = StaticAnalysis::new(c.analysis.clone());
        let em = EmChecker::new(c.jmax);

        let mut analysis_time = Duration::ZERO;
        let mut single;
        let mut last_report = None;
        let mut worst = f64::INFINITY;

        for iteration in 1..=c.max_iterations {
            // ppdl-lint: allow(determinism/wall-clock) -- times the conventional-flow iteration for Table 2; convergence is iteration-count based, not time based
            let t0 = Instant::now();
            let report = analyzer.solve(sized.network())?;
            single = t0.elapsed();
            analysis_time += single;

            worst = report.worst_drop().map_or(0.0, |(_, d)| d);
            let em_report = em.check(&sized, &report)?;

            // Attribute IR violations to straps through segment endpoints.
            let mut violating = vec![false; sized.straps().len()];
            let mut any = false;
            if worst > margin {
                for seg in sized.segments() {
                    let r = &sized.network().resistors()[seg.resistor];
                    let over = report.drop_at(NodeId(r.a.0)) > margin
                        || report.drop_at(NodeId(r.b.0)) > margin;
                    if over {
                        violating[seg.strap] = true;
                        any = true;
                    }
                }
            }
            for v in em_report.violations() {
                violating[v.strap] = true;
                any = true;
            }

            if !any {
                let widths = bench_widths(&sized);
                return Ok((
                    sized,
                    ConventionalResult {
                        widths,
                        iterations: iteration,
                        report,
                        worst_ir: worst,
                        analysis_time,
                        single_analysis_time: single,
                    },
                ));
            }

            // Widen the violators in one resize; detect saturation.
            let mut widths = sized.strap_widths();
            let mut progressed = false;
            for (w, &flag) in widths.iter_mut().zip(&violating) {
                if !flag {
                    continue;
                }
                let new_w = (*w * c.widen_factor).min(c.max_width);
                if new_w > *w {
                    *w = new_w;
                    progressed = true;
                }
            }
            last_report = Some(report);
            if !progressed {
                break;
            }
            sized.set_strap_widths(&widths)?;
        }

        let _ = last_report;
        Err(CoreError::SizingDidNotConverge {
            iterations: c.max_iterations,
            worst_ir: worst,
            margin,
        })
    }
}

fn bench_widths(bench: &SyntheticBenchmark) -> Vec<f64> {
    bench.strap_widths()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_netlist::{GridSpec, IbmPgPreset};

    /// An ibmpg2-style benchmark whose loads are calibrated so the
    /// initial design violates a 5 %-of-Vdd margin by ~2.5x — the
    /// sizing loop has real work to do.
    fn bench() -> SyntheticBenchmark {
        let mut b = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.005, 9).unwrap();
        crate::calibrate_to_worst_ir(&mut b, 2.5 * 0.05 * 1.8).unwrap();
        b
    }

    #[test]
    fn converges_and_meets_margin() {
        let (sized, res) = ConventionalFlow::default().run(&bench()).unwrap();
        let margin = 0.05 * 1.8;
        assert!(res.worst_ir <= margin + 1e-12);
        assert!(res.iterations > 1, "calibrated bench must need sizing");
        assert_eq!(res.widths.len(), sized.straps().len());
        // The sized benchmark's widths match the reported ones.
        assert_eq!(res.widths, sized.strap_widths());
    }

    #[test]
    fn widths_only_grow() {
        let b = bench();
        let before = b.strap_widths();
        let (_, res) = ConventionalFlow::default().run(&b).unwrap();
        for (w_after, w_before) in res.widths.iter().zip(&before) {
            assert!(w_after >= w_before);
        }
        // And at least one strap actually widened.
        assert!(res.widths.iter().zip(&before).any(|(a, b)| a > b));
    }

    #[test]
    fn tight_margin_needs_more_iterations() {
        let b = bench();
        let loose = ConventionalFlow::new(ConventionalConfig {
            ir_margin_fraction: 0.2,
            ..ConventionalConfig::default()
        })
        .run(&b)
        .unwrap()
        .1;
        let tight = ConventionalFlow::new(ConventionalConfig {
            ir_margin_fraction: 0.02,
            ..ConventionalConfig::default()
        })
        .run(&b)
        .unwrap()
        .1;
        assert!(
            tight.iterations > loose.iterations,
            "tight {} vs loose {}",
            tight.iterations,
            loose.iterations
        );
        assert!(tight.worst_ir < loose.worst_ir + 1e-12);
    }

    #[test]
    fn impossible_margin_reports_nonconvergence() {
        let b = bench();
        let err = ConventionalFlow::new(ConventionalConfig {
            ir_margin_fraction: 1e-7,
            max_iterations: 5,
            ..ConventionalConfig::default()
        })
        .run(&b)
        .unwrap_err();
        assert!(matches!(err, CoreError::SizingDidNotConverge { .. }));
    }

    #[test]
    fn invalid_margin_rejected() {
        let b = bench();
        for f in [0.0, 1.0, -0.5] {
            let err = ConventionalFlow::new(ConventionalConfig {
                ir_margin_fraction: f,
                ..ConventionalConfig::default()
            })
            .run(&b)
            .unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig { .. }));
        }
    }

    #[test]
    fn em_only_violations_also_drive_widening() {
        // Very loose IR margin, tight-but-satisfiable EM limit: sizing
        // must act on EM alone.
        let spec = GridSpec {
            die_width: 200.0,
            die_height: 200.0,
            v_straps: 4,
            h_straps: 4,
            ..GridSpec::default()
        };
        let mut fp = ppdl_floorplan::Floorplan::new(200.0, 200.0).unwrap();
        fp.add_block(
            ppdl_floorplan::FunctionalBlock::new("b", 20.0, 20.0, 150.0, 150.0, 0.2).unwrap(),
        )
        .unwrap();
        let b = SyntheticBenchmark::generate("em", spec, fp).unwrap();
        let before = b.strap_widths();
        let (_, res) = ConventionalFlow::new(ConventionalConfig {
            ir_margin_fraction: 0.9,
            jmax: 0.02,
            ..ConventionalConfig::default()
        })
        .run(&b)
        .unwrap();
        assert!(res.widths.iter().zip(&before).any(|(a, b)| a > b));
    }

    #[test]
    fn timing_is_recorded() {
        let (_, res) = ConventionalFlow::default().run(&bench()).unwrap();
        assert!(res.analysis_time >= res.single_analysis_time);
        assert!(res.single_analysis_time > Duration::ZERO);
    }
}

//! Test-set generation by perturbation (§IV-D).
//!
//! The paper validates on "new" designs obtained by perturbing the
//! training designs: branch currents / node voltages / switching
//! currents are changed by a perturbation size γ (10 % in the headline
//! experiments, swept to 30 % in Fig. 9).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ppdl_netlist::SyntheticBenchmark;

use crate::CoreError;

/// Which quantities the perturbation touches — the three series of
/// Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerturbationKind {
    /// Perturb the supply (node) voltages only.
    NodeVoltages,
    /// Perturb the load ("current workload") values only.
    CurrentWorkloads,
    /// Perturb both.
    Both,
}

impl PerturbationKind {
    /// All kinds, in Fig. 9 legend order.
    pub const ALL: [PerturbationKind; 3] = [
        PerturbationKind::NodeVoltages,
        PerturbationKind::CurrentWorkloads,
        PerturbationKind::Both,
    ];

    /// Legend label used by the figure harness.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PerturbationKind::NodeVoltages => "Perturbation in node voltages",
            PerturbationKind::CurrentWorkloads => "Perturbation in current workloads",
            PerturbationKind::Both => "Perturbation in both",
        }
    }
}

/// A seeded perturbation of size γ.
///
/// Each touched value is *changed by* γ — multiplied by `1 ± γ` with an
/// independent random sign — matching the paper's wording ("changing
/// the branch current, node voltage, and switching current … by a
/// γ = 10%"). The supply voltage gets a single common sign (it is one
/// rail), so a γ-perturbation always moves every touched quantity by
/// exactly γ, making the Fig. 9 sweep monotone in expectation.
///
/// # Example
///
/// ```
/// use ppdl_core::{Perturbation, PerturbationKind};
/// use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
///
/// let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 3).unwrap();
/// let p = Perturbation::new(0.10, PerturbationKind::CurrentWorkloads, 99).unwrap();
/// let test_bench = p.apply(&bench).unwrap();
/// // Loads moved, sources untouched.
/// assert_ne!(
///     test_bench.network().total_load_current(),
///     bench.network().total_load_current()
/// );
/// assert_eq!(
///     test_bench.network().supply_voltage(),
///     bench.network().supply_voltage()
/// );
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Perturbation {
    gamma: f64,
    kind: PerturbationKind,
    seed: u64,
}

impl Perturbation {
    /// Creates a perturbation of size `gamma` ∈ `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for γ outside `(0, 1)`.
    pub fn new(gamma: f64, kind: PerturbationKind, seed: u64) -> crate::Result<Self> {
        if !(gamma > 0.0 && gamma < 1.0) {
            return Err(CoreError::InvalidConfig {
                detail: format!("perturbation size {gamma} outside (0, 1)"),
            });
        }
        Ok(Self { gamma, kind, seed })
    }

    /// The perturbation size γ.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// What the perturbation touches.
    #[must_use]
    pub fn kind(&self) -> PerturbationKind {
        self.kind
    }

    /// The seed driving the perturbation's random signs.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Applies the perturbation to a copy of `bench`.
    ///
    /// # Errors
    ///
    /// Propagates netlist mutation errors (cannot occur for factors in
    /// `[1 − γ, 1 + γ]` with γ < 1, but surfaced rather than swallowed).
    pub fn apply(&self, bench: &SyntheticBenchmark) -> crate::Result<SyntheticBenchmark> {
        let mut out = bench.clone();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let factor = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                1.0 + self.gamma
            } else {
                1.0 - self.gamma
            }
        };
        if matches!(
            self.kind,
            PerturbationKind::CurrentWorkloads | PerturbationKind::Both
        ) {
            for i in 0..out.network().current_loads().len() {
                let amps = out.network().current_loads()[i].amps * factor(&mut rng);
                out.set_load_current(i, amps)?;
            }
        }
        if matches!(
            self.kind,
            PerturbationKind::NodeVoltages | PerturbationKind::Both
        ) {
            // One factor for the whole supply: the package delivers a
            // common rail, so a node-voltage perturbation is a global
            // supply-level shift. (Per-source jitter would make the
            // "drop below Vdd" metric reflect the jitter spread rather
            // than grid resistance.)
            let f = factor(&mut rng);
            for i in 0..out.network().voltage_sources().len() {
                let volts = out.network().voltage_sources()[i].volts * f;
                out.set_source_voltage(i, volts)?;
            }
        }
        Ok(out)
    }
}

/// Evaluates many perturbations of the same benchmark, in parallel
/// across the thread pool configured through [`ppdl_solver::parallel`].
///
/// Each point applies its perturbation to a private copy of `bench` and
/// runs `eval` on the result; the return vector is in input order, one
/// entry per perturbation. Every point's work is independent of how the
/// points are scheduled, so the results are identical at any thread
/// count. This is the engine behind γ-sweep studies like Fig. 9.
///
/// # Example
///
/// ```
/// use ppdl_core::{run_perturbation_sweep, Perturbation, PerturbationKind};
/// use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
///
/// let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 3).unwrap();
/// let points: Vec<Perturbation> = [0.1, 0.2, 0.3]
///     .iter()
///     .map(|&g| Perturbation::new(g, PerturbationKind::CurrentWorkloads, 7).unwrap())
///     .collect();
/// let totals = run_perturbation_sweep(&bench, &points, |perturbed, _| {
///     Ok(perturbed.network().total_load_current())
/// });
/// assert_eq!(totals.len(), 3);
/// ```
pub fn run_perturbation_sweep<R, F>(
    bench: &SyntheticBenchmark,
    perturbations: &[Perturbation],
    eval: F,
) -> Vec<crate::Result<R>>
where
    R: Send,
    F: Fn(&SyntheticBenchmark, &Perturbation) -> crate::Result<R> + Sync,
{
    // ppdl-lint: allow(determinism/tainted-parallel) -- apply() seeds StdRng from the perturbation's own seed field, so every item is bitwise deterministic regardless of scheduling (tests::deterministic_per_seed)
    ppdl_solver::parallel::par_map_vec(perturbations, |_, p| {
        let perturbed = p.apply(bench)?;
        eval(&perturbed, p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_netlist::IbmPgPreset;

    fn bench() -> SyntheticBenchmark {
        SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 4).unwrap()
    }

    #[test]
    fn gamma_bounds_enforced() {
        assert!(Perturbation::new(0.0, PerturbationKind::Both, 1).is_err());
        assert!(Perturbation::new(1.0, PerturbationKind::Both, 1).is_err());
        assert!(Perturbation::new(0.1, PerturbationKind::Both, 1).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let b = bench();
        let p = Perturbation::new(0.2, PerturbationKind::Both, 7).unwrap();
        let a = p.apply(&b).unwrap();
        let c = p.apply(&b).unwrap();
        assert_eq!(
            a.network().total_load_current(),
            c.network().total_load_current()
        );
        let other = Perturbation::new(0.2, PerturbationKind::Both, 8)
            .unwrap()
            .apply(&b)
            .unwrap();
        assert_ne!(
            a.network().total_load_current(),
            other.network().total_load_current()
        );
    }

    #[test]
    fn factors_stay_in_band() {
        let b = bench();
        let gamma = 0.25;
        let p = Perturbation::new(gamma, PerturbationKind::Both, 3).unwrap();
        let out = p.apply(&b).unwrap();
        for (new, old) in out
            .network()
            .current_loads()
            .iter()
            .zip(b.network().current_loads())
        {
            // The multiply-then-divide round trip can land one ulp
            // outside the band, so allow the same 1e-12 slack as the
            // `perturbation_moves_by_exactly_gamma` property.
            let f = new.amps / old.amps;
            assert!(
                f >= 1.0 - gamma - 1e-12 && f <= 1.0 + gamma + 1e-12,
                "factor {f}"
            );
        }
        for (new, old) in out
            .network()
            .voltage_sources()
            .iter()
            .zip(b.network().voltage_sources())
        {
            let f = new.volts / old.volts;
            assert!(f >= 1.0 - gamma - 1e-12 && f <= 1.0 + gamma + 1e-12);
        }
    }

    #[test]
    fn kinds_touch_only_their_targets() {
        let b = bench();
        let volts_only = Perturbation::new(0.3, PerturbationKind::NodeVoltages, 5)
            .unwrap()
            .apply(&b)
            .unwrap();
        assert_eq!(
            volts_only.network().total_load_current(),
            b.network().total_load_current()
        );
        assert_ne!(
            volts_only.network().voltage_sources()[0].volts,
            b.network().voltage_sources()[0].volts
        );

        let loads_only = Perturbation::new(0.3, PerturbationKind::CurrentWorkloads, 5)
            .unwrap()
            .apply(&b)
            .unwrap();
        assert_eq!(
            loads_only.network().voltage_sources()[0].volts,
            b.network().voltage_sources()[0].volts
        );
    }

    #[test]
    fn original_untouched() {
        let b = bench();
        let before = b.network().total_load_current();
        let _ = Perturbation::new(0.3, PerturbationKind::Both, 5)
            .unwrap()
            .apply(&b)
            .unwrap();
        assert_eq!(b.network().total_load_current(), before);
    }

    #[test]
    fn sweep_matches_sequential_application() {
        let b = bench();
        let points: Vec<Perturbation> = [0.1, 0.2, 0.3]
            .iter()
            .map(|&g| Perturbation::new(g, PerturbationKind::Both, 11).unwrap())
            .collect();
        let swept = run_perturbation_sweep(&b, &points, |perturbed, p| {
            Ok((p.gamma(), perturbed.network().total_load_current()))
        });
        assert_eq!(swept.len(), points.len());
        for (res, p) in swept.into_iter().zip(&points) {
            let (gamma, total) = res.unwrap();
            assert_eq!(gamma, p.gamma());
            let expected = p.apply(&b).unwrap().network().total_load_current();
            assert_eq!(total, expected, "sweep must match direct application");
        }
    }

    /// One failing evaluation point must land as `Err` in its own slot
    /// while every other point still returns `Ok` — and the whole
    /// result vector (including which slot failed and the surviving
    /// values, bit for bit) must not depend on the thread count.
    #[test]
    fn one_failing_point_is_isolated_to_its_slot() {
        use ppdl_solver::set_threads;

        let b = bench();
        let points: Vec<Perturbation> = [0.1, 0.2, 0.3, 0.4]
            .iter()
            .map(|&g| Perturbation::new(g, PerturbationKind::Both, 11).unwrap())
            .collect();
        let failing_gamma = points[2].gamma();
        let sweep = |threads: usize| {
            set_threads(threads);
            let out = run_perturbation_sweep(&b, &points, |perturbed, p| {
                if p.gamma() == failing_gamma {
                    Err(crate::CoreError::InvalidConfig {
                        detail: format!("injected failure at gamma {}", p.gamma()),
                    })
                } else {
                    Ok(perturbed.network().total_load_current())
                }
            });
            set_threads(0);
            out
        };

        let one = sweep(1);
        let four = sweep(4);
        for results in [&one, &four] {
            assert_eq!(results.len(), points.len());
            for (i, slot) in results.iter().enumerate() {
                if i == 2 {
                    let err = slot.as_ref().unwrap_err();
                    assert!(
                        err.to_string().contains("injected failure"),
                        "slot 2 should carry the injected error, got {err}"
                    );
                } else {
                    assert!(slot.is_ok(), "slot {i} should survive the failing point");
                }
            }
        }
        for (a, b) in one.iter().zip(&four) {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "surviving value differs between 1 and 4 threads"
                ),
                (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
                _ => panic!("slot outcome flipped with the thread count"),
            }
        }
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(PerturbationKind::ALL.len(), 3);
        assert!(PerturbationKind::Both.label().contains("both"));
    }
}

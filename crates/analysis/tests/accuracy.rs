//! The default sign-off against an independent exact solve, on small
//! wire-bond and flip-chip grids. In its own test binary because it
//! reads the process-wide telemetry registry.

use ppdl_analysis::{AnalysisOptions, StaticAnalysis};
use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
use ppdl_solver::PrecondKind;

/// The default solve's worst drop and the multilevel depth it used.
fn default_solve(bench: &SyntheticBenchmark) -> (f64, f64) {
    let levels = ppdl_obs::global().histogram("solver/multilevel/levels", &[]);
    let (count, sum) = (levels.count(), levels.sum());
    let report = StaticAnalysis::default().solve(bench.network()).unwrap();
    assert_eq!(levels.count(), count + 1, "one multilevel build per solve");
    (report.worst_drop().unwrap().1, levels.sum() - sum)
}

/// A sparse Cholesky factor at tolerance 1e-12.
fn exact_worst(bench: &SyntheticBenchmark) -> f64 {
    StaticAnalysis::new(AnalysisOptions {
        tolerance: 1e-12,
        max_iterations: 0,
        preconditioner: PrecondKind::Direct,
    })
    .solve(bench.network())
    .unwrap()
    .worst_drop()
    .unwrap()
    .1
}

#[test]
fn the_default_solve_matches_an_exact_factor_on_both_package_styles() {
    ppdl_obs::set_enabled(true);
    // Wire-bond: a few pads at the die edge, so the grid keeps its
    // coarse levels. Flip-chip: pads pin every crossing's neighbours,
    // so the first coarse level stalls and IC(0) runs alone.
    for (preset, keeps_hierarchy) in [(IbmPgPreset::Ibmpg3, true), (IbmPgPreset::Ibmpg6, false)] {
        let bench = SyntheticBenchmark::from_preset(preset, 0.01, 1).unwrap();
        let (worst, levels) = default_solve(&bench);
        let exact = exact_worst(&bench);
        let err = (worst - exact).abs() / exact;
        assert!(
            err <= 1e-5,
            "{preset:?}: worst {worst} vs exact {exact} ({err:e})"
        );
        assert_eq!(levels > 1.0, keeps_hierarchy, "{preset:?}: {levels} levels");
    }
    ppdl_obs::set_enabled(false);
}

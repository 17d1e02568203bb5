//! Cross-crate consistency checks: independent algorithms must agree
//! on the same physics.

use powerplanningdl::analysis::{AnalysisOptions, EmChecker, IrDropMap, StaticAnalysis};
use powerplanningdl::core::pipeline::{
    run_stage, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx,
};
use powerplanningdl::core::{DlFlowConfig, IrPredictor};
use powerplanningdl::netlist::{parse_spice, IbmPgPreset, NodeId, SyntheticBenchmark};
use powerplanningdl::solver::{GaussSeidel, PrecondKind, StationaryOptions};

fn bench() -> SyntheticBenchmark {
    SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.004, 17).unwrap()
}

/// The MNA path (analysis crate) must agree with an independent
/// hand-rolled nodal assembly solved by Gauss-Seidel (solver crate).
#[test]
fn mna_agrees_with_independent_gauss_seidel() {
    let b = bench();
    let report = StaticAnalysis::new(AnalysisOptions {
        tolerance: 1e-12,
        ..AnalysisOptions::default()
    })
    .solve(b.network())
    .unwrap();

    // Independent assembly in *drop* coordinates: G d = loads, with
    // source nodes eliminated (drop 0 there).
    let net = b.network();
    let n = net.node_count();
    let mut pinned = vec![false; n];
    for s in net.voltage_sources() {
        pinned[s.node.0] = true;
    }
    let mut index = vec![usize::MAX; n];
    let mut free = Vec::new();
    for i in 0..n {
        if !pinned[i] {
            index[i] = free.len();
            free.push(i);
        }
    }
    let mut t = powerplanningdl::solver::TripletMatrix::new(free.len(), free.len());
    let mut rhs = vec![0.0; free.len()];
    for r in net.resistors() {
        let g = 1.0 / r.ohms;
        match (index[r.a.0], index[r.b.0]) {
            (usize::MAX, usize::MAX) => {}
            (ia, usize::MAX) => t.stamp_grounded_conductance(ia, g),
            (usize::MAX, ib) => t.stamp_grounded_conductance(ib, g),
            (ia, ib) => t.stamp_conductance(ia, ib, g),
        }
    }
    for l in net.current_loads() {
        if index[l.node.0] != usize::MAX {
            rhs[index[l.node.0]] += l.amps;
        }
    }
    let gs = GaussSeidel::new(StationaryOptions {
        tolerance: 1e-10,
        max_sweeps: 200_000,
        relaxation: 1.9,
    })
    .solve(&t.to_csr(), &rhs)
    .unwrap();
    for (k, &node) in free.iter().enumerate() {
        let drop_mna = report.drop_at(NodeId(node));
        assert!(
            (gs.x[k] - drop_mna).abs() < 1e-6,
            "node {node}: GS {} vs MNA {}",
            gs.x[k],
            drop_mna
        );
    }
}

/// The Kirchhoff predictor must track the exact solve within a few
/// percent at the worst-drop level when given the true widths.
#[test]
fn predictor_tracks_solver() {
    let b = bench();
    let truth = StaticAnalysis::default()
        .solve(b.network())
        .unwrap()
        .worst_drop()
        .unwrap()
        .1;
    let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
    assert!(
        (est.worst - truth).abs() / truth < 0.05,
        "estimate {} vs truth {}",
        est.worst,
        truth
    );
}

/// Conventional vs predicted IR maps must be close cell by cell.
#[test]
fn maps_agree_cellwise() {
    let b = bench();
    let report = StaticAnalysis::default().solve(b.network()).unwrap();
    let conv = IrDropMap::from_report(b.network(), &report, 20).unwrap();
    let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
    let pred = est.to_map(&b, 20).unwrap();
    let spread = (conv.max_mv() - conv.min_mv()).max(1e-9);
    assert!(
        conv.mean_abs_diff_mv(&pred) < 0.1 * spread,
        "mean |diff| {} vs spread {}",
        conv.mean_abs_diff_mv(&pred),
        spread
    );
}

/// After conventional sizing, both the IR margin and the EM constraint
/// hold — and the deck round-trips through SPICE with the same
/// analysis result.
#[test]
fn sized_design_meets_margins_and_roundtrips() {
    let mut ctx = PipelineCtx::new(DlFlowConfig::default(), None);
    let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.006, 23);
    run_stage(&source, &mut ctx).unwrap();
    run_stage(&FeatureExtractStage, &mut ctx).unwrap();
    let sizing = ctx.sizing().unwrap();
    let sized = &sizing.sized;
    assert!(sizing.worst_ir <= ctx.bench().unwrap().target_worst_ir + 1e-9);
    let report1 = StaticAnalysis::default().solve(sized.network()).unwrap();
    let em = EmChecker::new(ctx.config.conventional.jmax)
        .check(sized, &report1)
        .unwrap();
    assert!(em.passes());

    // Round-trip the sized deck through the SPICE writer/parser and
    // re-analyze: identical worst-case drop.
    let deck = sized.network().to_spice();
    let reparsed = parse_spice(&deck).unwrap();
    let report2 = StaticAnalysis::default().solve(&reparsed).unwrap();
    assert!((report1.worst_drop().unwrap().1 - report2.worst_drop().unwrap().1).abs() < 1e-9);
}

/// Every preconditioner gives the same physical answer on a generated
/// benchmark.
#[test]
fn preconditioner_choice_does_not_change_physics() {
    let b = bench();
    let mut drops = Vec::new();
    for pk in PrecondKind::ALL {
        let rep = StaticAnalysis::new(AnalysisOptions {
            preconditioner: pk,
            tolerance: 1e-11,
            max_iterations: 0,
        })
        .solve(b.network())
        .unwrap();
        drops.push(rep.worst_drop().unwrap().1);
    }
    for (d, pk) in drops.iter().zip(PrecondKind::ALL) {
        assert!((drops[0] - d).abs() < 1e-8, "{pk}: {d} vs {}", drops[0]);
    }
}

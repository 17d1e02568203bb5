//! Physics-invariant tests for the static analysis engine: Kirchhoff's
//! current law must hold at every node of any solved grid, and the total
//! current delivered by the supplies must equal the total load current.

use ppdl_analysis::{AnalysisOptions, StaticAnalysis};
use ppdl_floorplan::{Floorplan, FunctionalBlock};
use ppdl_netlist::{GridSpec, NodeId, SyntheticBenchmark};
use ppdl_solver::PrecondKind;
use proptest::prelude::*;

fn build(v: usize, h: usize, current: f64, seed_blocks: usize) -> SyntheticBenchmark {
    let die_w = v as f64 * 50.0;
    let die_h = h as f64 * 50.0;
    let spec = GridSpec {
        die_width: die_w,
        die_height: die_h,
        v_straps: v,
        h_straps: h,
        ..GridSpec::default()
    };
    let mut fp = Floorplan::new(die_w, die_h).unwrap();
    // A few non-overlapping blocks in a diagonal arrangement.
    let n = seed_blocks.clamp(1, 3);
    for k in 0..n {
        let side = die_w.min(die_h) / (n as f64 + 1.0);
        let x = k as f64 * side;
        let y = k as f64 * side;
        fp.add_block(
            FunctionalBlock::new(format!("b{k}"), x, y, side * 0.9, side * 0.9, current).unwrap(),
        )
        .unwrap();
    }
    SyntheticBenchmark::generate("kcl", spec, fp).unwrap()
}

/// Net current flowing *out* of `node` through resistors.
fn kcl_residual(
    bench: &SyntheticBenchmark,
    report: &ppdl_analysis::IrDropReport,
    node: NodeId,
) -> f64 {
    let net = bench.network();
    let mut out = 0.0;
    for (idx, r) in net.resistors().iter().enumerate() {
        if r.is_short() {
            continue;
        }
        let i = report.branch_current(net, idx).unwrap();
        if r.a == node {
            out += i;
        } else if r.b == node {
            out -= i;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// KCL at every load node: current out through wires equals minus
    /// the load draw; at unloaded free nodes it is zero.
    #[test]
    fn kcl_holds_at_every_free_node(
        v in 3usize..7,
        h in 3usize..7,
        current in 0.01_f64..0.5,
        blocks in 1usize..4,
    ) {
        let bench = build(v, h, current, blocks);
        let report = StaticAnalysis::new(AnalysisOptions {
            tolerance: 1e-12,
            ..AnalysisOptions::default()
        })
        .solve(bench.network())
        .unwrap();
        let net = bench.network();
        let mut load_at = vec![0.0; net.node_count()];
        for l in net.current_loads() {
            load_at[l.node.0] += l.amps;
        }
        let mut fixed = vec![false; net.node_count()];
        for s in net.voltage_sources() {
            fixed[s.node.0] = true;
        }
        for i in 0..net.node_count() {
            if fixed[i] || net.node_names()[i].is_ground() {
                continue;
            }
            let residual = kcl_residual(&bench, &report, NodeId(i)) + load_at[i];
            prop_assert!(
                residual.abs() < 1e-6,
                "KCL violated at node {} by {:.3e}",
                i,
                residual
            );
        }
    }

    /// Global conservation: supplies deliver exactly the total load.
    #[test]
    fn supplies_deliver_total_load(
        v in 3usize..7,
        h in 3usize..7,
        current in 0.01_f64..0.5,
    ) {
        let bench = build(v, h, current, 2);
        let report = StaticAnalysis::new(AnalysisOptions {
            tolerance: 1e-12,
            ..AnalysisOptions::default()
        })
        .solve(bench.network())
        .unwrap();
        let net = bench.network();
        let mut fixed = vec![false; net.node_count()];
        for s in net.voltage_sources() {
            fixed[s.node.0] = true;
        }
        // Current out of all supply nodes through wires.
        let mut delivered = 0.0;
        for (idx, r) in net.resistors().iter().enumerate() {
            if r.is_short() {
                continue;
            }
            let i = report.branch_current(net, idx).unwrap();
            match (fixed[r.a.0], fixed[r.b.0]) {
                (true, false) => delivered += i,
                (false, true) => delivered -= i,
                _ => {}
            }
        }
        let total_load = net.total_load_current();
        prop_assert!(
            (delivered - total_load).abs() < 1e-6 * total_load.max(1.0),
            "delivered {delivered}, load {total_load}"
        );
    }

    /// Drop monotonicity: scaling every load current by a factor scales
    /// every node drop by the same factor (the system is linear).
    #[test]
    fn drop_is_linear_in_loads(
        v in 3usize..6,
        h in 3usize..6,
        factor in 1.5_f64..4.0,
    ) {
        let bench = build(v, h, 0.1, 2);
        let analysis = StaticAnalysis::new(AnalysisOptions {
            tolerance: 1e-12,
            preconditioner: PrecondKind::Ic0,
            max_iterations: 0,
        });
        let base = analysis.solve(bench.network()).unwrap();

        let mut scaled = bench.clone();
        let loads: Vec<f64> = scaled
            .network()
            .current_loads()
            .iter()
            .map(|l| l.amps * factor)
            .collect();
        for (i, amps) in loads.iter().enumerate() {
            scaled.network_mut().set_load_current(i, *amps).unwrap();
        }
        let rep2 = analysis.solve(scaled.network()).unwrap();
        let (node, d1) = base.worst_drop().unwrap();
        let d2 = rep2.drop_at(node);
        prop_assert!(
            (d2 - factor * d1).abs() < 1e-7 * d1.abs().max(1e-9) * factor,
            "drop {d1} scaled to {d2}, expected {}",
            factor * d1
        );
    }
}

//! Solving a netlist with zero-ohm shorts stamps its own elements
//! through the short-merge node map. That must give the same system,
//! and so the same bits, as solving the merged copy of the netlist
//! (`PowerGridNetwork::merged_shorts`) and scattering its voltages back
//! through the map.

use ppdl_analysis::{IrDropReport, StaticAnalysis};
use ppdl_netlist::{parse_spice, NodeId, NodeName, PowerGridNetwork};
use proptest::prelude::*;

/// Solves `net` directly and through its merged copy; on success the
/// voltages and iteration counts must be bit-equal, on failure the
/// errors must be the same (count and example for floating nodes).
fn solve_both_ways(net: &PowerGridNetwork) -> Result<Option<IrDropReport>, String> {
    let analysis = StaticAnalysis::default();
    let (merged, map) = net.merged_shorts();
    match (analysis.solve(net), analysis.solve(&merged)) {
        (Ok(direct), Ok(copy)) => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let scattered: Vec<f64> = map.iter().map(|id| copy.voltages()[id.0]).collect();
            if bits(direct.voltages()) != bits(&scattered) {
                return Err(format!(
                    "voltages differ: {:?} vs {scattered:?}",
                    direct.voltages()
                ));
            }
            if (direct.iterations(), direct.unknowns()) != (copy.iterations(), copy.unknowns()) {
                return Err(format!(
                    "iterations/unknowns differ: {}/{} vs {}/{}",
                    direct.iterations(),
                    direct.unknowns(),
                    copy.iterations(),
                    copy.unknowns()
                ));
            }
            Ok(Some(direct))
        }
        (Err(a), Err(b)) => {
            let (a, b) = (format!("{a:?}"), format!("{b:?}"));
            if a == b {
                Ok(None)
            } else {
                Err(format!("errors differ: {a} vs {b}"))
            }
        }
        (a, b) => Err(format!("outcomes differ: {a:?} vs {b:?}")),
    }
}

fn voltage(net: &PowerGridNetwork, report: &IrDropReport, name: &str) -> f64 {
    let id = net.node_id(&name.parse().unwrap()).unwrap();
    report.voltage(id)
}

proptest! {
    /// Random graphs of resistors and shorts over ten grid nodes and the
    /// ground node (interned at a random position, so it is sometimes
    /// and sometimes not the lowest-indexed member of its merged group),
    /// with a supply, shorts on the supply node, and loads on shorted
    /// nodes.
    #[test]
    fn solving_through_the_map_matches_solving_the_merged_copy(
        edges in proptest::collection::vec((0usize..11, 0usize..11, prop_oneof![Just(0.0), 0.1_f64..10.0]), 1..40),
        ground_at in 0usize..11,
        supply in 0usize..10,
        supply_shorts in proptest::collection::vec(0usize..11, 0..3),
        loads in proptest::collection::vec((0usize..10, 0.0_f64..0.5), 0..6),
    ) {
        let mut net = PowerGridNetwork::new();
        // Slots 0..10 are grid nodes, slot 10 is ground; interning order
        // puts ground at position `ground_at`.
        let mut slots = [NodeId(0); 11];
        for k in 0..11 {
            let slot = match k.cmp(&ground_at) {
                std::cmp::Ordering::Less => k,
                std::cmp::Ordering::Equal => 10,
                std::cmp::Ordering::Greater => k - 1,
            };
            let name = if slot == 10 {
                NodeName::Ground
            } else {
                NodeName::grid(1, slot as i64, 0)
            };
            slots[slot] = net.intern(name);
        }
        for (k, &(a, b, ohms)) in edges.iter().enumerate() {
            if a != b {
                net.add_resistor(format!("R{k}"), slots[a], slots[b], ohms).unwrap();
            }
        }
        for (k, &other) in supply_shorts.iter().enumerate() {
            if other != supply {
                net.add_resistor(format!("Rs{k}"), slots[supply], slots[other], 0.0).unwrap();
            }
        }
        net.add_voltage_source("V0", slots[supply], 1.8).unwrap();
        for (k, &(node, amps)) in loads.iter().enumerate() {
            net.add_current_load(format!("i{k}"), slots[node], amps).unwrap();
        }
        // A load on one end of every short between grid nodes.
        for (k, r) in net.resistors().to_vec().iter().enumerate() {
            if r.is_short() && r.b != slots[10] {
                net.add_current_load(format!("is{k}"), r.b, 0.01).unwrap();
            }
        }
        let outcome = solve_both_ways(&net);
        prop_assert!(outcome.is_ok(), "{:?}", outcome.err());
    }
}

#[test]
fn short_parallel_to_a_resistor() {
    let net = parse_spice(
        "R1 n1_0_0 n1_0_1 1.0\nRs n1_0_1 n1_0_2 0\nRp n1_0_1 n1_0_2 5.0\n\
         R2 n1_0_2 n1_0_3 1.0\nV0 n1_0_0 0 1.8\ni0 n1_0_3 0 0.01\n",
    )
    .unwrap();
    let rep = solve_both_ways(&net).unwrap().expect("solvable");
    // The parallel resistor carries nothing: its ends are one node.
    assert_eq!(voltage(&net, &rep, "n1_0_1"), voltage(&net, &rep, "n1_0_2"));
    assert_eq!(rep.branch_current(&net, 2).unwrap(), 0.0);
    assert!((voltage(&net, &rep, "n1_0_1") - 1.79).abs() < 1e-8);
    assert!((voltage(&net, &rep, "n1_0_3") - 1.78).abs() < 1e-8);
}

#[test]
fn chain_of_shorts_collapses_to_one_node() {
    let net = parse_spice(
        "R1 n1_0_0 n1_0_1 1.0\nRa n1_0_1 n2_0_1 0\nRb n2_0_1 n3_0_1 0\nRc n3_0_1 n4_0_1 0\n\
         R2 n4_0_1 n4_0_2 2.0\nV0 n1_0_0 0 1.8\ni0 n4_0_2 0 0.01\n",
    )
    .unwrap();
    let rep = solve_both_ways(&net).unwrap().expect("solvable");
    let chain = ["n1_0_1", "n2_0_1", "n3_0_1", "n4_0_1"].map(|n| voltage(&net, &rep, n));
    assert!(chain.iter().all(|&v| v == chain[0]));
    assert!((chain[0] - 1.79).abs() < 1e-8);
    assert!((voltage(&net, &rep, "n4_0_2") - 1.77).abs() < 1e-8);
    // Four nodes became one unknown, plus the chain's far end.
    assert_eq!(rep.unknowns(), 2);
}

#[test]
fn load_on_a_shorted_node() {
    let net = parse_spice(
        "R1 n1_0_0 n1_0_1 2.0\nRv n1_0_1 n2_0_1 0\nV0 n1_0_0 0 1.8\n\
         i0 n2_0_1 0 0.05\ni1 n1_0_1 0 0.05\n",
    )
    .unwrap();
    let rep = solve_both_ways(&net).unwrap().expect("solvable");
    // Both loads draw through R1: 0.1 A × 2 Ω.
    for node in ["n1_0_1", "n2_0_1"] {
        assert!((voltage(&net, &rep, node) - 1.6).abs() < 1e-8);
    }
}

#[test]
fn short_on_the_supply_node_pins_its_partner() {
    let net = parse_spice(
        "Rv n1_0_0 n2_0_0 0\nR1 n2_0_0 n2_0_1 1.0\nV0 n1_0_0 0 1.8\ni0 n2_0_1 0 0.01\n",
    )
    .unwrap();
    let rep = solve_both_ways(&net).unwrap().expect("solvable");
    assert_eq!(voltage(&net, &rep, "n2_0_0"), 1.8);
    assert!((voltage(&net, &rep, "n2_0_1") - 1.79).abs() < 1e-8);
}

#[test]
fn floating_group_is_named_after_its_lowest_member() {
    // n1_5_5 and n1_5_6 are shorted together and reach no supply: one
    // floating merged node, named after the first-interned member.
    let net = parse_spice(
        "R1 n1_0_0 n1_0_1 1.0\nRf n1_5_5 n1_5_6 0\nV0 n1_0_0 0 1.8\ni0 n1_5_6 0 0.01\n",
    )
    .unwrap();
    assert!(solve_both_ways(&net).unwrap().is_none());
    match StaticAnalysis::default().solve(&net) {
        Err(ppdl_analysis::AnalysisError::FloatingNodes { count, example }) => {
            assert_eq!((count, example.as_str()), (1, "n1_5_5"));
        }
        other => panic!("expected floating nodes, got {other:?}"),
    }
}

use ppdl_netlist::{NodeId, PowerGridNetwork, UnionFind};
use ppdl_solver::{CgOptions, ConjugateGradient, PrecondKind, TripletMatrix};

use crate::AnalysisError;

/// Options for a static IR-drop analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisOptions {
    /// Relative residual tolerance of the CG solve.
    pub tolerance: f64,
    /// Iteration cap (`0` = automatic).
    pub max_iterations: usize,
    /// Preconditioner of the CG solve; [`PrecondKind::Direct`] makes it
    /// an exact sparse Cholesky solve in one iteration.
    pub preconditioner: PrecondKind,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-8,
            max_iterations: 0,
            preconditioner: PrecondKind::Ic0,
        }
    }
}

/// Static (DC) power-grid analyzer.
///
/// Performs the "early vectorless / vectored power grid analysis" step
/// of the conventional flow (Fig. 1 of the paper): node classification,
/// conductance stamping with Dirichlet elimination of the supply nodes,
/// and a preconditioned CG solve.
#[derive(Debug, Clone, Default)]
pub struct StaticAnalysis {
    options: AnalysisOptions,
}

impl StaticAnalysis {
    /// Creates an analyzer with the given options.
    #[must_use]
    pub fn new(options: AnalysisOptions) -> Self {
        Self { options }
    }

    /// The options in use.
    #[must_use]
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Solves the grid and returns the IR-drop report.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::NoSupply`] — no voltage source in the deck.
    /// * [`AnalysisError::FloatingNodes`] — nodes without a path to a
    ///   supply.
    /// * [`AnalysisError::Solver`] — the CG solve failed.
    pub fn solve(&self, network: &PowerGridNetwork) -> crate::Result<IrDropReport> {
        let _span = ppdl_obs::span("analysis/solve");
        if network.voltage_sources().is_empty() {
            return Err(AnalysisError::NoSupply);
        }
        let assemble = ppdl_obs::span("assemble");
        // Shorts are merged through a node map: the original elements
        // are stamped in their own order at their merged node ids, so
        // the system is the one the merged copy of the netlist gives.
        let merge = network.short_merge();
        let n = merge.node_count();

        // Classify merged nodes.
        const FREE: usize = usize::MAX;
        const GROUND: usize = usize::MAX - 1;
        // fixed_voltage[i] = Some(v) for supply-pinned nodes.
        let mut fixed: Vec<Option<f64>> = vec![None; n];
        for s in network.voltage_sources() {
            fixed[merge.node(s.node).0] = Some(s.volts);
        }
        for (i, &named) in merge.name_sources().iter().enumerate() {
            if network.node_name(named).is_ground() {
                fixed[i] = Some(0.0);
            }
        }

        // Check connectivity: every free node must reach a fixed node
        // through resistors.
        let mut uf = UnionFind::new(n);
        for r in network.resistors() {
            if let Some((a, b)) = merge.resistor(r) {
                uf.union(a.0, b.0);
            }
        }
        let mut component_has_fixed = vec![false; n];
        for (i, fv) in fixed.iter().enumerate() {
            if fv.is_some() {
                let root = uf.find(i);
                component_has_fixed[root] = true;
            }
        }
        let mut floating = 0usize;
        let mut example = String::new();
        for i in 0..n {
            if fixed[i].is_none() && !component_has_fixed[uf.find(i)] {
                if floating == 0 {
                    example = network.node_name(merge.name_sources()[i]).to_string();
                }
                floating += 1;
            }
        }
        if floating > 0 {
            return Err(AnalysisError::FloatingNodes {
                count: floating,
                example,
            });
        }

        // Index the free unknowns.
        let mut unknown_index = vec![FREE; n];
        let mut free_nodes = Vec::new();
        for (i, fv) in fixed.iter().enumerate() {
            if fv.is_none() {
                unknown_index[i] = free_nodes.len();
                free_nodes.push(i);
            } else {
                unknown_index[i] = GROUND; // marker: not an unknown
            }
        }
        let m = free_nodes.len();

        // Stamp.
        let mut g = TripletMatrix::with_capacity(m, m, 4 * network.resistors().len());
        let mut rhs = vec![0.0; m];
        for r in network.resistors() {
            let Some((a, b)) = merge.resistor(r) else {
                continue;
            };
            let cond = r.conductance();
            let (a, b) = (a.0, b.0);
            match (fixed[a], fixed[b]) {
                (None, None) => {
                    g.stamp_conductance(unknown_index[a], unknown_index[b], cond);
                }
                (None, Some(vb)) => {
                    let ia = unknown_index[a];
                    g.stamp_grounded_conductance(ia, cond);
                    rhs[ia] += cond * vb;
                }
                (Some(va), None) => {
                    let ib = unknown_index[b];
                    g.stamp_grounded_conductance(ib, cond);
                    rhs[ib] += cond * va;
                }
                (Some(_), Some(_)) => {}
            }
        }
        for l in network.current_loads() {
            let node = merge.node(l.node).0;
            if fixed[node].is_none() {
                rhs[unknown_index[node]] -= l.amps;
            }
        }

        let matrix = g.to_csr();
        drop(assemble);
        let (solution, iterations) = if m == 0 {
            (None, 0)
        } else {
            let _cg = ppdl_obs::span("cg");
            let cg = ConjugateGradient::new(CgOptions {
                tolerance: self.options.tolerance,
                max_iterations: self.options.max_iterations,
                precond: self.options.preconditioner,
            });
            let s = cg.solve(&matrix, &rhs)?;
            (Some(s.x), s.iterations)
        };

        // Scatter back to merged-node voltages, then to original nodes.
        let mut merged_v = vec![0.0; n];
        for (i, fv) in fixed.iter().enumerate() {
            if let Some(v) = fv {
                merged_v[i] = *v;
            }
        }
        if let Some(x) = solution {
            for (k, &node) in free_nodes.iter().enumerate() {
                merged_v[node] = x[k];
            }
        }
        let voltages: Vec<f64> = merge.map().iter().map(|&mid| merged_v[mid.0]).collect();
        // Re-checked rather than expect()ed: `solve` is on the serve
        // hot path, where a malformed deck must become a typed wire
        // error, never a process abort (robustness/unwrap-in-lib).
        let vdd = network.supply_voltage().ok_or(AnalysisError::NoSupply)?;
        let is_ground: Vec<bool> = network
            .node_names()
            .iter()
            .map(ppdl_netlist::NodeName::is_ground)
            .collect();

        Ok(IrDropReport {
            vdd,
            voltages,
            is_ground,
            unknowns: m,
            iterations,
        })
    }
}

/// The result of a static IR-drop analysis, indexed by the *original*
/// network's node ids.
#[derive(Debug, Clone)]
pub struct IrDropReport {
    vdd: f64,
    voltages: Vec<f64>,
    is_ground: Vec<bool>,
    unknowns: usize,
    iterations: usize,
}

impl IrDropReport {
    /// Reassembles a report from its parts — the artifact-cache decode
    /// path, where a previously computed solve is restored from disk.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Undefined`] when the voltage and
    /// ground-mask vectors disagree in length.
    pub fn from_parts(
        vdd: f64,
        voltages: Vec<f64>,
        is_ground: Vec<bool>,
        unknowns: usize,
        iterations: usize,
    ) -> crate::Result<Self> {
        if voltages.len() != is_ground.len() {
            return Err(AnalysisError::Undefined {
                detail: format!(
                    "report with {} voltages but {} ground flags",
                    voltages.len(),
                    is_ground.len()
                ),
            });
        }
        Ok(Self {
            vdd,
            voltages,
            is_ground,
            unknowns,
            iterations,
        })
    }

    /// The supply voltage used as the drop reference.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Which nodes belong to the return (ground) net, indexed like
    /// [`voltages`](Self::voltages).
    #[must_use]
    pub fn ground_mask(&self) -> &[bool] {
        &self.is_ground
    }

    /// Number of free unknowns the solver handled.
    #[must_use]
    pub fn unknowns(&self) -> usize {
        self.unknowns
    }

    /// CG iterations taken.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Voltage at an original node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.0]
    }

    /// All node voltages, indexed by `NodeId.0`.
    #[must_use]
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// IR drop at a node: `Vdd − v`. Ground nodes return `0.0` (they
    /// belong to the return net, not the supply net under analysis).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn drop_at(&self, node: NodeId) -> f64 {
        if self.is_ground[node.0] {
            0.0
        } else {
            self.vdd - self.voltages[node.0]
        }
    }

    /// The worst-case IR drop and the node where it occurs — the
    /// Table III quantity. `None` if the network has no non-ground node.
    #[must_use]
    pub fn worst_drop(&self) -> Option<(NodeId, f64)> {
        let mut best: Option<(NodeId, f64)> = None;
        for i in 0..self.voltages.len() {
            if self.is_ground[i] {
                continue;
            }
            let d = self.vdd - self.voltages[i];
            if best.map_or(true, |(_, bd)| d > bd) {
                best = Some((NodeId(i), d));
            }
        }
        best
    }

    /// The `q`-quantile of the drop distribution over non-ground nodes
    /// (`q = 0.5` is the median, `q = 0.99` the p99 hot tail). Returns
    /// `None` for an empty report or `q` outside `[0, 1]`.
    #[must_use]
    pub fn drop_quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut drops: Vec<f64> = (0..self.voltages.len())
            .filter(|&i| !self.is_ground[i])
            .map(|i| self.vdd - self.voltages[i])
            .collect();
        if drops.is_empty() {
            return None;
        }
        // total_cmp: a NaN from a degenerate solve sorts last instead
        // of panicking the caller (robustness/unwrap-in-lib).
        drops.sort_by(f64::total_cmp);
        let idx = ((drops.len() - 1) as f64 * q).round() as usize;
        Some(drops[idx])
    }

    /// Mean IR drop over non-ground nodes (`0.0` for an empty report).
    #[must_use]
    pub fn mean_drop(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..self.voltages.len() {
            if !self.is_ground[i] {
                sum += self.vdd - self.voltages[i];
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Current through a resistor of the original network, flowing from
    /// terminal `a` to terminal `b` (signed).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Undefined`] for zero-ohm shorts, whose
    /// individual branch current is not recoverable after merging.
    pub fn branch_current(
        &self,
        network: &PowerGridNetwork,
        resistor: usize,
    ) -> crate::Result<f64> {
        let r = network
            .resistors()
            .get(resistor)
            .ok_or_else(|| AnalysisError::Undefined {
                detail: format!("resistor index {resistor} out of range"),
            })?;
        if r.is_short() {
            return Err(AnalysisError::Undefined {
                detail: format!("branch current of zero-ohm short '{}'", r.name),
            });
        }
        Ok((self.voltages[r.a.0] - self.voltages[r.b.0]) / r.ohms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_netlist::parse_spice;

    #[test]
    fn chain_voltages_exact() {
        // Vdd - 1 ohm - n1 - 1 ohm - n2, 10 mA load at n2.
        let net = parse_spice(
            "R1 n1_0_0 n1_0_1 1.0\nR2 n1_0_1 n1_0_2 1.0\nV0 n1_0_0 0 1.8\ni0 n1_0_2 0 0.01\n",
        )
        .unwrap();
        let rep = StaticAnalysis::default().solve(&net).unwrap();
        let a = net.node_id(&"n1_0_0".parse().unwrap()).unwrap();
        let b = net.node_id(&"n1_0_1".parse().unwrap()).unwrap();
        let c = net.node_id(&"n1_0_2".parse().unwrap()).unwrap();
        assert!((rep.voltage(a) - 1.8).abs() < 1e-12);
        assert!((rep.voltage(b) - 1.79).abs() < 1e-8);
        assert!((rep.voltage(c) - 1.78).abs() < 1e-8);
        assert!((rep.drop_at(c) - 0.02).abs() < 1e-8);
        let (worst_node, worst) = rep.worst_drop().unwrap();
        assert_eq!(worst_node, c);
        assert!((worst - 0.02).abs() < 1e-8);
    }

    #[test]
    fn branch_current_direction() {
        let net = parse_spice("R1 n1_0_0 n1_0_1 2.0\nV0 n1_0_0 0 1.8\ni0 n1_0_1 0 0.05\n").unwrap();
        let rep = StaticAnalysis::default().solve(&net).unwrap();
        // Current flows from the supply (a) toward the load (b): positive.
        let i = rep.branch_current(&net, 0).unwrap();
        assert!((i - 0.05).abs() < 1e-9);
    }

    #[test]
    fn short_merging_transparent() {
        // Same chain but with a zero-ohm via in the middle.
        let net = parse_spice(
            "R1 n1_0_0 n1_0_1 1.0\nRv n1_0_1 n2_0_1 0\nR2 n2_0_1 n2_0_2 1.0\nV0 n1_0_0 0 1.8\ni0 n2_0_2 0 0.01\n",
        )
        .unwrap();
        let rep = StaticAnalysis::default().solve(&net).unwrap();
        let mid_lower = net.node_id(&"n1_0_1".parse().unwrap()).unwrap();
        let mid_upper = net.node_id(&"n2_0_1".parse().unwrap()).unwrap();
        assert_eq!(rep.voltage(mid_lower), rep.voltage(mid_upper));
        assert!(rep.branch_current(&net, 1).is_err()); // the short
        assert!((rep.worst_drop().unwrap().1 - 0.02).abs() < 1e-8);
    }

    #[test]
    fn no_supply_rejected() {
        let net = parse_spice("R1 n1_0_0 n1_0_1 1.0\ni0 n1_0_1 0 0.01\n").unwrap();
        assert!(matches!(
            StaticAnalysis::default().solve(&net),
            Err(AnalysisError::NoSupply)
        ));
    }

    #[test]
    fn floating_nodes_detected() {
        let net =
            parse_spice("R1 n1_0_0 n1_0_1 1.0\nR2 n1_5_5 n1_5_6 1.0\nV0 n1_0_0 0 1.8\n").unwrap();
        match StaticAnalysis::default().solve(&net) {
            Err(AnalysisError::FloatingNodes { count, .. }) => assert_eq!(count, 2),
            other => panic!("expected floating nodes, got {other:?}"),
        }
    }

    #[test]
    fn load_on_supply_node_is_absorbed() {
        let net = parse_spice("R1 n1_0_0 n1_0_1 1.0\nV0 n1_0_0 0 1.8\ni0 n1_0_0 0 0.5\n").unwrap();
        let rep = StaticAnalysis::default().solve(&net).unwrap();
        // The load sits on the pinned node; the free node sees no current.
        let b = net.node_id(&"n1_0_1".parse().unwrap()).unwrap();
        assert!((rep.voltage(b) - 1.8).abs() < 1e-10);
    }

    #[test]
    fn preconditioners_agree_on_grid() {
        use ppdl_netlist::{GridSpec, SyntheticBenchmark};
        let spec = GridSpec {
            die_width: 300.0,
            die_height: 300.0,
            v_straps: 6,
            h_straps: 6,
            ..GridSpec::default()
        };
        let fp = ppdl_floorplan_fixture(300.0);
        let b = SyntheticBenchmark::generate("t", spec, fp).unwrap();
        let mut results = Vec::new();
        for pk in PrecondKind::ALL {
            let rep = StaticAnalysis::new(AnalysisOptions {
                preconditioner: pk,
                tolerance: 1e-11,
                max_iterations: 0,
            })
            .solve(b.network())
            .unwrap();
            results.push(rep.worst_drop().unwrap().1);
        }
        for (i, r) in results.iter().enumerate().skip(1) {
            assert!((results[0] - r).abs() < 1e-9, "kind {i}");
        }
    }

    #[test]
    fn all_nodes_fixed_is_fine() {
        let net = parse_spice("R1 n1_0_0 n1_0_1 1.0\nV0 n1_0_0 0 1.8\nV1 n1_0_1 0 1.8\n").unwrap();
        let rep = StaticAnalysis::default().solve(&net).unwrap();
        assert_eq!(rep.unknowns(), 0);
        assert!((rep.worst_drop().unwrap().1).abs() < 1e-12);
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let net = parse_spice(
            "R1 n1_0_0 n1_0_1 1.0\nR2 n1_0_1 n1_0_2 1.0\nV0 n1_0_0 0 1.8\ni0 n1_0_2 0 0.01\n",
        )
        .unwrap();
        let rep = StaticAnalysis::default().solve(&net).unwrap();
        let p0 = rep.drop_quantile(0.0).unwrap();
        let p50 = rep.drop_quantile(0.5).unwrap();
        let p100 = rep.drop_quantile(1.0).unwrap();
        assert!(p0 <= p50 && p50 <= p100);
        assert!((p100 - rep.worst_drop().unwrap().1).abs() < 1e-15);
        assert!((p0 - 0.0).abs() < 1e-12); // the pinned node itself
        assert!(rep.drop_quantile(-0.1).is_none());
        assert!(rep.drop_quantile(1.1).is_none());
    }

    #[test]
    fn mean_drop_between_zero_and_worst() {
        let net = parse_spice(
            "R1 n1_0_0 n1_0_1 1.0\nR2 n1_0_1 n1_0_2 1.0\nV0 n1_0_0 0 1.8\ni0 n1_0_2 0 0.01\n",
        )
        .unwrap();
        let rep = StaticAnalysis::default().solve(&net).unwrap();
        let worst = rep.worst_drop().unwrap().1;
        assert!(rep.mean_drop() > 0.0);
        assert!(rep.mean_drop() <= worst);
    }

    /// A plain uniform floorplan for grid tests.
    fn ppdl_floorplan_fixture(die: f64) -> ppdl_floorplan::Floorplan {
        let mut fp = ppdl_floorplan::Floorplan::new(die, die).unwrap();
        fp.add_block(
            ppdl_floorplan::FunctionalBlock::new(
                "b",
                die * 0.1,
                die * 0.1,
                die * 0.8,
                die * 0.8,
                0.2,
            )
            .unwrap(),
        )
        .unwrap();
        fp
    }
}

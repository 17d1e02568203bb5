//! Problem 2 / Algorithm 2: Kirchhoff-law IR-drop prediction.
//!
//! Given the predicted widths and the switching currents, the paper
//! estimates IR drop *without* running a full grid analysis: the
//! current each power-grid line must deliver to its blocks is
//! accumulated (eqs. 7–9) and Ohm's law is applied.
//! [`IrPredictor::predict`] does this for the whole grid in two stages:
//!
//! * **Coarse Kirchhoff solve.** Nodes are aggregated into k × k die
//!   cells (both layers merged into one Kirchhoff node), each segment
//!   crossing a cell boundary is stamped with its conductance derated by
//!   its length over the cell extent, and the aggregated network is
//!   solved by IC(0)-CG to a prediction-grade relative tolerance of
//!   1e-3. The adaptive k is one cell per strap crossing (at most 256 per
//!   side), so the coarse system has one unknown per crossing cell that
//!   no supply pin holds: 8,320 on ibmpg6@0.02, 8,455 on ibmpg3@0.02,
//!   3,128 on ibmpg2@0.05. The iteration count depends on the pads:
//!   1 on the flip-chip ibmpg6@0.02, whose coarse system is diagonal,
//!   79 on the wire-bond ibmpg3@0.02 and 51 on ibmpg2@0.05.
//! * **Local KCL sweeps.** A fixed budget of Gauss–Seidel sweeps over
//!   every node, started from the coarse solution, restores per-node
//!   detail.
//!
//! Everything that depends only on the topology and on k is a *plan*:
//! the node→cell map and the coarse unknowns, the segment derating, the
//! coarse stamps, and the sweep adjacency. The plan of the adaptive k is
//! built once per design, by its first estimate or ahead of time by
//! [`IrPredictor::prepare`], and kept in
//! [`SyntheticBenchmark::topology_memo`], which every clone shares, so
//! a request's test design reuses its base's plan and a call does only
//! value work.

use ppdl_analysis::IrDropMap;
use ppdl_netlist::{Orientation, SyntheticBenchmark};
use ppdl_solver::{CgOptions, ConjugateGradient, PrecondKind, TripletMatrix};

use crate::CoreError;

/// Marks a node or load that feeds no coarse unknown.
const NONE: u32 = u32::MAX;

/// The Kirchhoff-based IR-drop estimate for a benchmark.
#[derive(Debug, Clone)]
pub struct PredictedIr {
    /// Estimated drop per node (volts), indexed by `NodeId.0`; `NaN`
    /// where no estimate exists (isolated nodes).
    pub node_drops: Vec<f64>,
    /// The worst estimated drop (volts).
    pub worst: f64,
    /// Estimated drop across each segment (volts), parallel to
    /// [`SyntheticBenchmark::segments`].
    pub segment_drops: Vec<f64>,
}

impl PredictedIr {
    /// The worst estimated drop in millivolts (the Table III
    /// "PowerPlanningDL" column).
    #[must_use]
    pub fn worst_mv(&self) -> f64 {
        self.worst * 1e3
    }

    /// Rasterises the estimate into an IR-drop map (Fig. 8(b)/(d)).
    ///
    /// # Errors
    ///
    /// Propagates map-construction errors.
    pub fn to_map(
        &self,
        bench: &SyntheticBenchmark,
        resolution: usize,
    ) -> crate::Result<IrDropMap> {
        Ok(IrDropMap::from_node_drops(
            bench.network(),
            &self.node_drops,
            resolution,
        )?)
    }
}

/// The IR-drop predictor.
///
/// # Example
///
/// ```
/// use ppdl_core::IrPredictor;
/// use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
///
/// let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.005, 3).unwrap();
/// let widths = bench.strap_widths();
/// let predicted = IrPredictor::new().predict(&bench, &widths).unwrap();
/// assert!(predicted.worst > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IrPredictor {
    sweeps: usize,
    coarse_cells: usize,
}

impl Default for IrPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl IrPredictor {
    /// Creates a predictor with the default budget: an adaptive coarse
    /// grid (one cell per strap crossing, at most 256 per side) and 15
    /// smoothing sweeps.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sweeps: 15,
            coarse_cells: 0,
        }
    }

    /// Creates a predictor with explicit budgets. `sweeps = 0` returns
    /// the raw coarse-grid interpolation; `coarse_cells = 0` selects
    /// the adaptive default.
    #[must_use]
    pub fn with_budget(coarse_cells: usize, sweeps: usize) -> Self {
        Self {
            sweeps,
            coarse_cells,
        }
    }

    /// The smoothing-sweep budget.
    #[must_use]
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Builds the plan of the adaptive coarse grid for `bench` and keeps
    /// it in [`SyntheticBenchmark::topology_memo`], unless it is there
    /// already. Every later adaptive-budget
    /// [`predict`](Self::predict) on `bench` or on any clone of it then
    /// does no set-up work. Call it where a base design is stored, so
    /// the first request does not pay for the build.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the benchmark's nodes
    /// carry no coordinates or it is too large for 32-bit indices.
    pub fn prepare(bench: &SyntheticBenchmark) -> crate::Result<()> {
        adaptive_plan(bench).map(|_| ())
    }

    /// Estimates IR drop for `bench` assuming the straps have the
    /// given `widths` (one per strap, e.g. the DL-predicted widths).
    ///
    /// The adaptive budget reuses the plan memoised on `bench` (see
    /// [`prepare`](Self::prepare)), building it on first use; an
    /// explicit `coarse_cells` builds a plan for this call alone.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `widths` does not have
    /// one positive entry per strap, if a width gives a segment or via
    /// a conductance that is not finite and positive (a width so small
    /// or so large that it underflows or overflows), or if the benchmark
    /// has no supply or no node coordinates, and propagates solver
    /// errors from the coarse solve.
    pub fn predict(
        &self,
        bench: &SyntheticBenchmark,
        widths: &[f64],
    ) -> crate::Result<PredictedIr> {
        validate_widths(bench, widths)?;
        if bench.network().voltage_sources().is_empty() {
            return Err(CoreError::InvalidConfig {
                detail: "benchmark has no supply pins".into(),
            });
        }
        let built;
        let plan = if self.coarse_cells >= 2 {
            built = KirchhoffPlan::build(bench, self.coarse_cells).map_err(invalid)?;
            &built
        } else {
            adaptive_plan(bench)?
        };
        let (conductance, coarse) = {
            let _span = ppdl_obs::span("coarse");
            let conductance = plan.conductances(bench, widths)?;
            let coarse = plan.coarse_solve(bench, &conductance)?;
            (conductance, coarse)
        };
        let _span = ppdl_obs::span("sweeps");
        plan.relax(bench, &conductance, &coarse, self.sweeps)
    }
}

fn validate_widths(bench: &SyntheticBenchmark, widths: &[f64]) -> crate::Result<()> {
    let straps = bench.straps().len();
    if widths.len() != straps || widths.iter().any(|w| !(w.is_finite() && *w > 0.0)) {
        return Err(invalid(format!(
            "need one finite, positive width per strap: {} widths for {straps} straps",
            widths.len()
        )));
    }
    Ok(())
}

fn invalid(detail: String) -> CoreError {
    CoreError::InvalidConfig { detail }
}

/// A derived conductance of strap `strap`, rejected unless finite and
/// positive: a zero one would drop the element from the estimate.
fn checked(conductance: f64, strap: usize, widths: &[f64]) -> crate::Result<f64> {
    if conductance.is_finite() && conductance > 0.0 {
        Ok(conductance)
    } else {
        Err(invalid(format!(
            "strap {strap} width {:e} gives conductance {conductance:e}; it must be finite and > 0",
            widths[strap]
        )))
    }
}

/// The plan of the adaptive coarse grid, memoised on `bench` and shared
/// by its clones.
fn adaptive_plan(bench: &SyntheticBenchmark) -> crate::Result<&KirchhoffPlan> {
    let memo = bench.topology_memo().get_or_init(|| {
        let k = adaptive_cells(bench);
        Box::new(KirchhoffPlan::build(bench, k))
    });
    match memo.downcast_ref::<Result<KirchhoffPlan, String>>() {
        Some(Ok(plan)) => Ok(plan),
        Some(Err(detail)) => Err(invalid(detail.clone())),
        None => Err(invalid(
            "the benchmark's topology memo holds something other than a Kirchhoff plan".into(),
        )),
    }
}

/// The adaptive k: one cell per strap crossing (both layers merged into
/// one Kirchhoff node) is near-exact; the reduction comes from halving
/// the unknowns, dropping the vias, and the loose tolerance of the
/// coarse solve. The cap bounds the coarse system on full-size grids at
/// a small accuracy cost.
fn adaptive_cells(bench: &SyntheticBenchmark) -> usize {
    let count = |o: Orientation| bench.straps().iter().filter(|s| s.orientation == o).count();
    count(Orientation::Vertical)
        .max(count(Orientation::Horizontal))
        .clamp(8, 256)
}

/// Everything [`IrPredictor::predict`] derives from the topology and k
/// alone, with `u32` indices.
#[derive(Debug)]
struct KirchhoffPlan {
    /// Per node, then per load: the coarse unknown of its cell, or
    /// [`NONE`] (no coordinates, or a pinned or untouched cell).
    node_unknown: Vec<u32>,
    load_unknown: Vec<u32>,
    /// Coarse unknowns: the cells touched by a cell-to-cell resistor
    /// and holding no supply pin, in cell order.
    unknowns: usize,
    /// Resistors whose conductance is `1 / ohms`: neither segment nor
    /// via (those follow the widths), and not a short.
    ohmic: Vec<u32>,
    /// The coarse stamps, in resistor order.
    stamps: Vec<CoarseStamp>,
    /// Node `i`'s conducting resistors, in resistor order, are
    /// `adj_resistor[adj_start[i]..adj_start[i + 1]]`, leading to the
    /// nodes `adj_node` of the same range.
    adj_start: Vec<u32>,
    adj_node: Vec<u32>,
    adj_resistor: Vec<u32>,
    /// Nodes holding a supply pin, and the nodes a sweep relaxes
    /// (ascending: unpinned, with a conducting resistor).
    pinned: Vec<bool>,
    relaxed: Vec<u32>,
}

/// A conducting resistor between two cells, at least one an unknown.
#[derive(Debug, Clone, Copy)]
struct CoarseStamp {
    resistor: u32,
    /// The homogenisation derating of a segment; 1 for other resistors.
    scale: f64,
    /// The ends' coarse unknowns; [`NONE`] for a pinned cell, which the
    /// reduced system grounds.
    a: u32,
    b: u32,
}

impl KirchhoffPlan {
    /// Builds the plan for a k × k coarse grid. An error is the detail
    /// of a [`CoreError::InvalidConfig`], kept as text so a memoised
    /// failure can be reported again.
    fn build(bench: &SyntheticBenchmark, k: usize) -> Result<Self, String> {
        let _span = ppdl_obs::span("core/kirchhoff-plan");
        ppdl_obs::counter_add("core/kirchhoff/plan_builds", 1);
        let net = bench.network();
        let (n, resistors) = (net.node_count(), net.resistors());
        if n.max(2 * resistors.len()).max(net.current_loads().len()) >= NONE as usize {
            return Err(format!("{n} nodes exceed the plan's 32-bit indices"));
        }
        let ((min_x, min_y), (max_x, max_y)) = net
            .bounding_box()
            .ok_or("benchmark nodes carry no coordinates")?;
        let wx = (max_x - min_x).max(1) as f64;
        let wy = (max_y - min_y).max(1) as f64;
        let cell = |v: i64, min: i64, w: f64| {
            ((((v - min) as f64 / w) * k as f64).min(k as f64 - 1.0)) as usize
        };
        let cells: Vec<Option<usize>> = net
            .node_names()
            .iter()
            .map(|name| {
                name.coordinates()
                    .map(|(x, y)| cell(y, min_y, wy) * k + cell(x, min_x, wx))
            })
            .collect();

        // Homogenisation: a cell bundles several parallel straps, but a
        // cell-to-cell path also chains several segments in series.
        // Stamping each boundary-crossing segment with its full
        // conductance would make the coarse grid (cell/pitch)x too
        // conductive, so each segment is derated by its length relative
        // to the cell extent along its strap.
        let (cell_wx, cell_wy) = (wx / 1000.0 / k as f64, wy / 1000.0 / k as f64);
        let mut scale = vec![1.0; resistors.len()];
        let mut by_width = vec![false; resistors.len()];
        for seg in bench.segments() {
            let extent = match bench.straps()[seg.strap].orientation {
                Orientation::Vertical => cell_wy,
                Orientation::Horizontal => cell_wx,
            };
            scale[seg.resistor] = (seg.length / extent).min(1.0);
            by_width[seg.resistor] = true;
        }
        for via in bench.vias() {
            by_width[via.resistor] = true;
        }
        let conducts = |ri: usize| by_width[ri] || !resistors[ri].is_short();

        let mut touched = vec![false; k * k];
        let mut pinned_cell = vec![false; k * k];
        for r in resistors {
            if let (Some(ca), Some(cb)) = (cells[r.a.0], cells[r.b.0]) {
                touched[ca] |= ca != cb;
                touched[cb] |= ca != cb;
            }
        }
        for s in net.voltage_sources() {
            if let Some(c) = cells[s.node.0] {
                pinned_cell[c] = true;
            }
        }
        let mut index = vec![NONE; k * k];
        let mut unknowns = 0;
        for c in (0..k * k).filter(|&c| touched[c] && !pinned_cell[c]) {
            index[c] = unknowns;
            unknowns += 1;
        }
        let unknown_of = |node: usize| cells[node].map_or(NONE, |c| index[c]);

        let mut stamps = Vec::new();
        let mut adjacency = vec![Vec::new(); n];
        for (ri, r) in resistors.iter().enumerate().filter(|&(ri, _)| conducts(ri)) {
            adjacency[r.a.0].push((r.b.0 as u32, ri as u32));
            adjacency[r.b.0].push((r.a.0 as u32, ri as u32));
            let (Some(ca), Some(cb)) = (cells[r.a.0], cells[r.b.0]) else {
                continue;
            };
            if ca != cb && (index[ca], index[cb]) != (NONE, NONE) {
                stamps.push(CoarseStamp {
                    resistor: ri as u32,
                    scale: scale[ri],
                    a: index[ca],
                    b: index[cb],
                });
            }
        }
        let unknowns = unknowns as usize;
        let mut adj_start = vec![0];
        adj_start.extend(adjacency.iter().scan(0, |end, list| {
            *end += list.len() as u32;
            Some(*end)
        }));
        let (adj_node, adj_resistor) = adjacency.into_iter().flatten().unzip();
        let mut pinned = vec![false; n];
        for s in net.voltage_sources() {
            pinned[s.node.0] = true;
        }
        Ok(Self {
            node_unknown: (0..n).map(unknown_of).collect(),
            load_unknown: net
                .current_loads()
                .iter()
                .map(|l| unknown_of(l.node.0))
                .collect(),
            unknowns,
            ohmic: (0..resistors.len())
                .filter(|&ri| conducts(ri) && !by_width[ri])
                .map(|ri| ri as u32)
                .collect(),
            stamps,
            relaxed: (0..n)
                .filter(|&i| !pinned[i] && adj_start[i + 1] > adj_start[i])
                .map(|i| i as u32)
                .collect(),
            adj_start,
            adj_node,
            adj_resistor,
            pinned,
        })
    }

    /// Per-resistor conductances under `widths`: `w / (ρ·ℓ)` for a
    /// segment, the width-scaled array for a via, `1 / ohms` for any
    /// other resistor, and 0 for a short (which nothing reads).
    fn conductances(&self, bench: &SyntheticBenchmark, widths: &[f64]) -> crate::Result<Vec<f64>> {
        let resistors = bench.network().resistors();
        let mut conductance = vec![0.0; resistors.len()];
        for &ri in &self.ohmic {
            conductance[ri as usize] = 1.0 / resistors[ri as usize].ohms;
        }
        for seg in bench.segments() {
            let rho = bench
                .spec()
                .sheet_resistance(bench.straps()[seg.strap].orientation);
            let g = widths[seg.strap] / (rho * seg.length);
            conductance[seg.resistor] = checked(g, seg.strap, widths)?;
        }
        for via in bench.vias() {
            let g = 1.0 / bench.via_resistance_for_width(widths[via.lower_strap]);
            conductance[via.resistor] = checked(g, via.lower_strap, widths)?;
        }
        Ok(conductance)
    }

    /// Stage 1: stamps the coarse system at `conductance` and solves it
    /// for each unknown's drop.
    fn coarse_solve(
        &self,
        bench: &SyntheticBenchmark,
        conductance: &[f64],
    ) -> crate::Result<Vec<f64>> {
        if self.unknowns == 0 {
            return Ok(Vec::new());
        }
        let mut rhs = vec![0.0; self.unknowns];
        for (l, &u) in bench
            .network()
            .current_loads()
            .iter()
            .zip(&self.load_unknown)
        {
            if u != NONE {
                rhs[u as usize] += l.amps;
            }
        }
        let mut t =
            TripletMatrix::with_capacity(self.unknowns, self.unknowns, 4 * self.stamps.len());
        for s in &self.stamps {
            // A derated conductance of 0 (a zero-length segment, or an
            // underflow) is left out; a pinned end is ground, so only
            // the other end's diagonal is stamped.
            let g = conductance[s.resistor as usize] * s.scale;
            if g <= 0.0 {
                continue;
            }
            match (s.a, s.b) {
                (a, NONE) | (NONE, a) => t.stamp_grounded_conductance(a as usize, g),
                (a, b) => t.stamp_conductance(a as usize, b as usize, g),
            }
        }
        // Prediction-grade tolerance: well below the millivolt
        // resolution the estimate targets, far looser than the
        // conventional sign-off solve.
        let options = CgOptions {
            tolerance: 1e-3,
            precond: PrecondKind::Ic0,
            ..CgOptions::default()
        };
        let sol = ConjugateGradient::new(options)
            .solve(&t.to_csr(), &rhs)
            .map_err(|e| CoreError::Analysis(e.into()))?;
        Ok(sol.x)
    }

    /// Stage 2: interpolates the coarse drops onto the nodes, runs
    /// `sweeps` Gauss–Seidel KCL sweeps, and reads out the estimate.
    fn relax(
        &self,
        bench: &SyntheticBenchmark,
        conductance: &[f64],
        coarse: &[f64],
        sweeps: usize,
    ) -> crate::Result<PredictedIr> {
        let net = bench.network();
        let n = self.pinned.len();
        let range = |i: usize| self.adj_start[i] as usize..self.adj_start[i + 1] as usize;
        let adj_g: Vec<f64> = self
            .adj_resistor
            .iter()
            .map(|&r| conductance[r as usize])
            .collect();
        let diag: Vec<f64> = (0..n)
            .map(|i| adj_g[range(i)].iter().fold(0.0, |sum, &g| sum + g))
            .collect();
        let mut loads = vec![0.0; n];
        for l in net.current_loads() {
            loads[l.node.0] += l.amps;
        }
        let vdd = net
            .supply_voltage()
            .ok_or(CoreError::Analysis(ppdl_analysis::AnalysisError::NoSupply))?;
        let mut d: Vec<f64> = self
            .node_unknown
            .iter()
            .map(|&u| if u == NONE { 0.0 } else { coarse[u as usize] })
            .collect();
        for s in net.voltage_sources() {
            d[s.node.0] = vdd - s.volts;
        }
        for _ in 0..sweeps {
            for &i in &self.relaxed {
                let i = i as usize;
                let mut acc = loads[i];
                for (&j, &g) in self.adj_node[range(i)].iter().zip(&adj_g[range(i)]) {
                    acc += g * d[j as usize];
                }
                d[i] = acc / diag[i];
            }
        }

        let mut node_drops = vec![f64::NAN; n];
        let mut worst = 0.0_f64;
        for i in (0..n).filter(|&i| diag[i] > 0.0 || self.pinned[i]) {
            node_drops[i] = d[i];
            worst = worst.max(d[i]);
        }
        let segment_drops = bench
            .segments()
            .iter()
            .map(|seg| {
                let r = &net.resistors()[seg.resistor];
                (d[r.a.0] - d[r.b.0]).abs()
            })
            .collect();
        Ok(PredictedIr {
            node_drops,
            worst,
            segment_drops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_analysis::StaticAnalysis;
    use ppdl_netlist::{IbmPgPreset, NodeName};

    use crate::{Perturbation, PerturbationKind};

    fn bench_perimeter() -> SyntheticBenchmark {
        SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.005, 21).unwrap()
    }

    fn bench_flipchip() -> SyntheticBenchmark {
        SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg5, 0.001, 21).unwrap()
    }

    #[test]
    fn width_count_validated() {
        let b = bench_perimeter();
        let p = IrPredictor::new();
        assert!(p.predict(&b, &[1.0]).is_err());
        let mut w = b.strap_widths();
        w[0] = -1.0;
        assert!(p.predict(&b, &w).is_err());
    }

    #[test]
    fn estimate_positive_and_bounded() {
        let b = bench_perimeter();
        let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
        assert!(est.worst > 0.0);
        assert!(est.worst < b.network().supply_voltage().unwrap());
        assert_eq!(est.segment_drops.len(), b.segments().len());
        assert!(est.segment_drops.iter().all(|d| *d >= 0.0));
    }

    #[test]
    fn tracks_conventional_analysis_perimeter() {
        let b = bench_perimeter();
        let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
        let truth = StaticAnalysis::default()
            .solve(b.network())
            .unwrap()
            .worst_drop()
            .unwrap()
            .1;
        let err = (est.worst - truth).abs() / truth;
        assert!(
            err < 0.35,
            "estimate {} vs truth {} ({}% off)",
            est.worst,
            truth,
            100.0 * err
        );
    }

    #[test]
    fn tracks_conventional_analysis_flipchip() {
        let b = bench_flipchip();
        let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
        let truth = StaticAnalysis::default()
            .solve(b.network())
            .unwrap()
            .worst_drop()
            .unwrap()
            .1;
        let err = (est.worst - truth).abs() / truth;
        assert!(
            err < 0.35,
            "estimate {} vs truth {} ({}% off)",
            est.worst,
            truth,
            100.0 * err
        );
    }

    #[test]
    fn smoothing_improves_on_raw_coarse() {
        let b = bench_perimeter();
        let truth = StaticAnalysis::default()
            .solve(b.network())
            .unwrap()
            .worst_drop()
            .unwrap()
            .1;
        let raw = IrPredictor::with_budget(16, 0)
            .predict(&b, &b.strap_widths())
            .unwrap();
        let smoothed = IrPredictor::with_budget(16, 15)
            .predict(&b, &b.strap_widths())
            .unwrap();
        let raw_err = (raw.worst - truth).abs();
        let smooth_err = (smoothed.worst - truth).abs();
        assert!(
            smooth_err <= raw_err + 1e-12,
            "smoothing should not hurt: {smooth_err} vs {raw_err}"
        );
    }

    #[test]
    fn wider_straps_lower_the_estimate() {
        let b = bench_perimeter();
        let w1 = b.strap_widths();
        let w2: Vec<f64> = w1.iter().map(|w| w * 3.0).collect();
        let p = IrPredictor::new();
        let e1 = p.predict(&b, &w1).unwrap();
        let e2 = p.predict(&b, &w2).unwrap();
        assert!(e2.worst < e1.worst);
    }

    #[test]
    fn map_is_buildable() {
        let b = bench_perimeter();
        let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
        let map = est.to_map(&b, 10).unwrap();
        assert_eq!(map.resolution(), 10);
        assert!(map.max_mv() > 0.0);
    }

    #[test]
    fn scaling_loads_scales_estimate() {
        let mut b = bench_perimeter();
        let p = IrPredictor::new();
        let w = b.strap_widths();
        let e1 = p.predict(&b, &w).unwrap();
        let loads: Vec<f64> = b
            .network()
            .current_loads()
            .iter()
            .map(|l| l.amps * 2.0)
            .collect();
        for (i, a) in loads.iter().enumerate() {
            b.network_mut().set_load_current(i, *a).unwrap();
        }
        let e2 = p.predict(&b, &w).unwrap();
        assert!((e2.worst - 2.0 * e1.worst).abs() < 1e-9 * e1.worst.max(1e-12));
    }

    /// FNV-1a over the estimate's bits: the worst drop, every node drop,
    /// every segment drop.
    fn digest(ir: &PredictedIr) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let worst = std::iter::once(&ir.worst);
        for v in worst.chain(&ir.node_drops).chain(&ir.segment_drops) {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    fn perturbed_widths(b: &SyntheticBenchmark) -> Vec<f64> {
        let golden = b.strap_widths();
        golden
            .iter()
            .enumerate()
            .map(|(i, w)| w * (1.0 + 0.25 * (i % 3) as f64))
            .collect()
    }

    #[test]
    fn budgets_keep_their_pinned_results() {
        // Bit patterns of the estimate at the golden and at perturbed
        // widths, pinned so that how the estimate is organised cannot
        // move a bit of what it computes.
        let b = bench_perimeter();
        let cases = [
            (
                IrPredictor::new(),
                0xe00f_4e5d_e8c5_59d5,
                0x3e96_4c99_f453_7da4,
            ),
            (
                IrPredictor::with_budget(16, 0),
                0xad51_c38a_d670_2ef7,
                0x1851_1bdb_0cce_c9f0,
            ),
            (
                IrPredictor::with_budget(16, 15),
                0x2116_eb3c_adca_351a,
                0x9d8b_1a79_54f1_5f9a,
            ),
        ];
        for (p, golden, perturbed) in cases {
            assert_eq!(digest(&p.predict(&b, &b.strap_widths()).unwrap()), golden);
            assert_eq!(
                digest(&p.predict(&b, &perturbed_widths(&b)).unwrap()),
                perturbed
            );
        }
    }

    #[test]
    fn a_clone_sharing_the_plan_answers_like_a_fresh_bench() {
        let base = bench_flipchip();
        IrPredictor::prepare(&base).unwrap();
        let p = IrPredictor::new();
        let golden = base.strap_widths();
        for widths in [golden.clone(), perturbed_widths(&base)] {
            // Value edits keep the shared plan: widths, one load, the
            // supply, and a whole perturbation.
            let edit = |b: &mut SyntheticBenchmark| {
                b.set_strap_widths(&widths).unwrap();
                let amps = b.network().current_loads()[0].amps;
                b.set_load_current(0, 1.5 * amps).unwrap();
                b.set_source_voltage(0, 1.7).unwrap();
            };
            let perturbation = Perturbation::new(0.2, PerturbationKind::Both, 9).unwrap();
            let mut shared = perturbation.apply(&base).unwrap();
            edit(&mut shared);
            assert!(std::ptr::eq(shared.topology_memo(), base.topology_memo()));
            let mut fresh = perturbation.apply(&bench_flipchip()).unwrap();
            edit(&mut fresh);
            assert!(fresh.topology_memo().get().is_none());
            assert_eq!(
                digest(&p.predict(&shared, &widths).unwrap()),
                digest(&p.predict(&fresh, &widths).unwrap())
            );
        }
    }

    #[test]
    fn a_topology_edit_drops_the_plan() {
        let base = bench_perimeter();
        let p = IrPredictor::new();
        let widths = base.strap_widths();
        let before = digest(&p.predict(&base, &widths).unwrap());
        // An extra resistor between two far-apart grid nodes, applied to
        // a clone of the planned base and to a fresh bench.
        let extra = |b: &mut SyntheticBenchmark| -> usize {
            let names = b.network().node_names();
            let (first, last) = (names[0].clone(), names[names.len() - 1].clone());
            let net = b.network_mut();
            let (a, z) = (net.intern(first), net.intern(last));
            net.add_resistor("Rextra", a, z, 0.05).unwrap();
            net.resistors().len() - 1
        };
        let mut edited = base.clone();
        let idx = extra(&mut edited);
        let mut fresh = bench_perimeter();
        extra(&mut fresh);
        let added = digest(&p.predict(&edited, &widths).unwrap());
        assert_ne!(added, before);
        assert_eq!(added, digest(&p.predict(&fresh, &widths).unwrap()));
        // Shorting it (0 Ω) takes it out of the estimate again.
        edited.network_mut().set_resistance(idx, 0.0).unwrap();
        fresh.network_mut().set_resistance(idx, 0.0).unwrap();
        let shorted = digest(&p.predict(&edited, &widths).unwrap());
        assert_eq!(shorted, before);
        assert_eq!(shorted, digest(&p.predict(&fresh, &widths).unwrap()));
        // A new node with a load: the plan must cover it too.
        let net = edited.network_mut();
        let far = net.intern(NodeName::grid(9, 0, 0));
        let first = net.node_names()[0].clone();
        let near = net.intern(first);
        net.add_resistor("Rstub", near, far, 0.5).unwrap();
        net.add_current_load("istub", far, 0.01).unwrap();
        let stub = p.predict(&edited, &widths).unwrap();
        assert_eq!(stub.node_drops.len(), edited.network().node_count());
        assert!(stub.node_drops[far.0] > stub.node_drops[near.0]);
    }

    #[test]
    fn a_width_whose_conductance_underflows_is_rejected() {
        let b = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.005, 3).unwrap();
        for tiny in [5e-324, f64::MAX] {
            let mut w = b.strap_widths();
            w[0] = tiny;
            match IrPredictor::new().predict(&b, &w) {
                Err(CoreError::InvalidConfig { detail }) => {
                    assert!(detail.contains("strap 0 "), "{detail}");
                }
                other => panic!("width {tiny:e}: expected a typed rejection, got {other:?}"),
            }
        }
        // The netlist's width setter refuses the underflowing width too
        // (its resistance overflows to infinity).
        let mut w = b.strap_widths();
        w[0] = 5e-324;
        assert!(b.clone().set_strap_widths(&w).is_err());
    }
}

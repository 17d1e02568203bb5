//! Synthetic IBM-PG-style benchmark generator.
//!
//! Builds a two-layer orthogonal strap grid over a floorplan: the lower
//! layer runs vertical straps, the upper layer horizontal straps, with a
//! via at every crossing. Block switching currents are apportioned to
//! the lower-layer nodes they cover; supply pins attach to upper-layer
//! nodes (perimeter ring or area array, mirroring the wirebond vs
//! flip-chip structure of the real benchmarks).

use ppdl_floorplan::{Floorplan, FloorplanGenerator, PadPlacement};

use crate::{NetlistError, NodeName, PowerGridNetwork};

/// Direction a strap runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Strap runs parallel to the y axis (lower layer).
    Vertical,
    /// Strap runs parallel to the x axis (upper layer).
    Horizontal,
}

/// One power-grid strap: a full-length metal line on one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct StrapInfo {
    /// Metal layer the strap is drawn on.
    pub layer: u32,
    /// Direction the strap runs.
    pub orientation: Orientation,
    /// Index of the strap among its peers on the same layer.
    pub index: usize,
    /// Cross-position of the strap centreline (x for vertical straps,
    /// y for horizontal ones), in µm.
    pub position: f64,
    /// Current metal width in µm — the quantity the paper's model
    /// predicts and the sizing loop adjusts.
    pub width: f64,
}

/// One wire segment (a "PG interconnect" in the paper's terminology):
/// the piece of a strap between two adjacent crossings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentInfo {
    /// Index into [`PowerGridNetwork::resistors`] of the segment's
    /// resistor.
    pub resistor: usize,
    /// Index into [`SyntheticBenchmark::straps`] of the owning strap.
    pub strap: usize,
    /// Segment length in µm.
    pub length: f64,
    /// Midpoint x coordinate in µm (the `X` feature).
    pub x: f64,
    /// Midpoint y coordinate in µm (the `Y` feature).
    pub y: f64,
}

/// One via (array) connecting the two layers at a strap crossing.
///
/// Its resistance scales inversely with the lower strap's width: a
/// wider strap hosts a proportionally larger via array, so sizing a
/// strap also strengthens its layer connections — without this, via
/// resistance would put a floor under the achievable IR drop that no
/// amount of metal widening could pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViaInfo {
    /// Index into [`PowerGridNetwork::resistors`] of the via resistor.
    pub resistor: usize,
    /// Index of the lower-layer strap the via lands on.
    pub lower_strap: usize,
}

/// Geometric and electrical parameters of a synthetic grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Die width in µm.
    pub die_width: f64,
    /// Die height in µm.
    pub die_height: f64,
    /// Number of vertical (lower-layer) straps.
    pub v_straps: usize,
    /// Number of horizontal (upper-layer) straps.
    pub h_straps: usize,
    /// Metal layer number of the vertical straps.
    pub lower_layer: u32,
    /// Metal layer number of the horizontal straps.
    pub upper_layer: u32,
    /// Sheet resistance of the lower layer (Ω/□).
    pub sheet_res_lower: f64,
    /// Sheet resistance of the upper layer (Ω/□).
    pub sheet_res_upper: f64,
    /// Resistance of each via between the layers (Ω).
    pub via_resistance: f64,
    /// Initial width of lower-layer straps (µm).
    pub initial_width_lower: f64,
    /// Initial width of upper-layer straps (µm).
    pub initial_width_upper: f64,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Fraction of grid nodes carrying a supply pin (matches `#v / #n`
    /// of the target benchmark).
    pub source_fraction: f64,
    /// How supply pins are placed.
    pub pad_placement: PadPlacement,
}

impl Default for GridSpec {
    fn default() -> Self {
        Self {
            die_width: 1000.0,
            die_height: 1000.0,
            v_straps: 20,
            h_straps: 20,
            lower_layer: 1,
            upper_layer: 4,
            sheet_res_lower: 0.06,
            sheet_res_upper: 0.04,
            via_resistance: 0.01,
            initial_width_lower: 1.0,
            initial_width_upper: 1.2,
            vdd: 1.8,
            source_fraction: 0.02,
            pad_placement: PadPlacement::Perimeter,
        }
    }
}

impl GridSpec {
    /// Sheet resistance of the layer a strap with the given orientation
    /// sits on.
    #[must_use]
    pub fn sheet_resistance(&self, orientation: Orientation) -> f64 {
        match orientation {
            Orientation::Vertical => self.sheet_res_lower,
            Orientation::Horizontal => self.sheet_res_upper,
        }
    }

    /// Resistance of a `length` µm piece of a `width` µm strap running
    /// in `orientation`: `R = ρ · ℓ / w`.
    fn segment_resistance(&self, orientation: Orientation, length: f64, width: f64) -> f64 {
        self.sheet_resistance(orientation) * length / width
    }

    /// Resistance of the via array at a crossing whose lower strap is
    /// `width` µm wide (the array grows with the strap).
    fn via_resistance_at(&self, width: f64) -> f64 {
        self.via_resistance * self.initial_width_lower / width
    }

    fn validate(&self) -> crate::Result<()> {
        if self.v_straps < 2 || self.h_straps < 2 {
            return Err(NetlistError::InfeasibleGrid {
                detail: format!(
                    "need at least 2 straps per direction, got {}x{}",
                    self.v_straps, self.h_straps
                ),
            });
        }
        for (what, v) in [
            ("die width", self.die_width),
            ("die height", self.die_height),
            ("lower sheet resistance", self.sheet_res_lower),
            ("upper sheet resistance", self.sheet_res_upper),
            ("via resistance", self.via_resistance),
            ("lower initial width", self.initial_width_lower),
            ("upper initial width", self.initial_width_upper),
            ("vdd", self.vdd),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(NetlistError::InfeasibleGrid {
                    detail: format!("{what} must be positive, got {v}"),
                });
            }
        }
        if !(self.source_fraction > 0.0 && self.source_fraction <= 1.0) {
            return Err(NetlistError::InfeasibleGrid {
                detail: format!("source fraction {} outside (0, 1]", self.source_fraction),
            });
        }
        Ok(())
    }
}

/// A generated benchmark: the netlist plus all the geometry the
/// PowerPlanningDL flow needs (which the real decks encode in node names
/// and which the paper recovers as its X/Y features).
#[derive(Debug, Clone)]
pub struct SyntheticBenchmark {
    name: String,
    spec: GridSpec,
    floorplan: Floorplan,
    network: PowerGridNetwork,
    straps: Vec<StrapInfo>,
    segments: Vec<SegmentInfo>,
    vias: Vec<ViaInfo>,
}

impl SyntheticBenchmark {
    /// Generates a benchmark for an [`IbmPgPreset`](crate::IbmPgPreset)
    /// at the given `scale` (fraction of the published node count; `1.0`
    /// reproduces Table II sizes, smaller values keep tests fast), using
    /// `seed` for the floorplan randomness.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::InfeasibleGrid`] for degenerate scales
    /// (so small that fewer than 2 straps remain).
    pub fn from_preset(preset: crate::IbmPgPreset, scale: f64, seed: u64) -> crate::Result<Self> {
        let spec = preset.grid_spec(scale)?;
        let fp_config = preset.floorplan_config(scale);
        let floorplan = FloorplanGenerator::new(fp_config).generate(seed)?;
        Self::generate(preset.name(), spec, floorplan)
    }

    /// Builds the grid netlist for `spec` over `floorplan`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InfeasibleGrid`] if the spec is invalid
    /// or inconsistent with the floorplan dimensions.
    pub fn generate(
        name: impl Into<String>,
        spec: GridSpec,
        floorplan: Floorplan,
    ) -> crate::Result<Self> {
        spec.validate()?;
        if (floorplan.die_width() - spec.die_width).abs() > 1e-6
            || (floorplan.die_height() - spec.die_height).abs() > 1e-6
        {
            return Err(NetlistError::InfeasibleGrid {
                detail: format!(
                    "floorplan die {}x{} does not match spec die {}x{}",
                    floorplan.die_width(),
                    floorplan.die_height(),
                    spec.die_width,
                    spec.die_height
                ),
            });
        }

        let (nv, nh) = (spec.v_straps, spec.h_straps);
        let pitch_x = spec.die_width / nv as f64;
        let pitch_y = spec.die_height / nh as f64;
        // Node coordinates in integer nanometre-ish database units.
        let dbu = |um: f64| -> i64 { (um * 1000.0).round() as i64 };
        let xs: Vec<f64> = (0..nv).map(|i| (i as f64 + 0.5) * pitch_x).collect();
        let ys: Vec<f64> = (0..nh).map(|j| (j as f64 + 0.5) * pitch_y).collect();

        let mut network = PowerGridNetwork::new();
        // Intern all nodes up front: lower then upper, row-major.
        let mut lower = vec![vec![crate::NodeId(0); nh]; nv];
        let mut upper = vec![vec![crate::NodeId(0); nh]; nv];
        for (i, &x) in xs.iter().enumerate() {
            for (j, &y) in ys.iter().enumerate() {
                lower[i][j] = network.intern(NodeName::grid(spec.lower_layer, dbu(x), dbu(y)));
            }
        }
        for (i, &x) in xs.iter().enumerate() {
            for (j, &y) in ys.iter().enumerate() {
                upper[i][j] = network.intern(NodeName::grid(spec.upper_layer, dbu(x), dbu(y)));
            }
        }

        let mut straps = Vec::with_capacity(nv + nh);
        let mut segments = Vec::new();

        // Vertical (lower-layer) straps and their segments.
        for (i, &x) in xs.iter().enumerate() {
            let strap_id = straps.len();
            straps.push(StrapInfo {
                layer: spec.lower_layer,
                orientation: Orientation::Vertical,
                index: i,
                position: x,
                width: spec.initial_width_lower,
            });
            for j in 0..nh - 1 {
                let length = ys[j + 1] - ys[j];
                let ohms = spec.segment_resistance(
                    Orientation::Vertical,
                    length,
                    spec.initial_width_lower,
                );
                let ridx = network.resistors().len();
                network.add_resistor(format!("Rv{i}_{j}"), lower[i][j], lower[i][j + 1], ohms)?;
                segments.push(SegmentInfo {
                    resistor: ridx,
                    strap: strap_id,
                    length,
                    x,
                    y: (ys[j] + ys[j + 1]) / 2.0,
                });
            }
        }

        // Horizontal (upper-layer) straps.
        for (j, &y) in ys.iter().enumerate() {
            let strap_id = straps.len();
            straps.push(StrapInfo {
                layer: spec.upper_layer,
                orientation: Orientation::Horizontal,
                index: j,
                position: y,
                width: spec.initial_width_upper,
            });
            for i in 0..nv - 1 {
                let length = xs[i + 1] - xs[i];
                let ohms = spec.segment_resistance(
                    Orientation::Horizontal,
                    length,
                    spec.initial_width_upper,
                );
                let ridx = network.resistors().len();
                network.add_resistor(format!("Rh{j}_{i}"), upper[i][j], upper[i + 1][j], ohms)?;
                segments.push(SegmentInfo {
                    resistor: ridx,
                    strap: strap_id,
                    length,
                    x: (xs[i] + xs[i + 1]) / 2.0,
                    y,
                });
            }
        }

        // Vias at every crossing (one array per crossing, landing on
        // the vertical lower-layer strap). Their resistance follows the
        // same width rule as a resize, so re-applying the current widths
        // leaves every value bit-for-bit as generated.
        let via_ohms = spec.via_resistance_at(spec.initial_width_lower);
        let mut vias = Vec::with_capacity(nv * nh);
        for i in 0..nv {
            for j in 0..nh {
                let ridx = network.resistors().len();
                network.add_resistor(format!("Rx{i}_{j}"), lower[i][j], upper[i][j], via_ohms)?;
                vias.push(ViaInfo {
                    resistor: ridx,
                    lower_strap: i,
                });
            }
        }

        // Current loads: each lower node takes the covering block's
        // demand over one pitch tile.
        let tile_area = pitch_x * pitch_y;
        for (i, &x) in xs.iter().enumerate() {
            for (j, &y) in ys.iter().enumerate() {
                let amps = floorplan.current_demand_at(x, y, tile_area);
                if amps > 0.0 {
                    network.add_current_load(format!("iL{i}_{j}"), lower[i][j], amps)?;
                }
            }
        }

        // Supply pins on upper-layer nodes.
        let total_nodes = 2 * nv * nh;
        let want_sources = ((spec.source_fraction * total_nodes as f64).round() as usize).max(1);
        match spec.pad_placement {
            PadPlacement::Perimeter => {
                // Wirebond: pins spread evenly over the boundary ring,
                // spilling to interior nodes only for unusually high pin
                // counts.
                let mut candidates: Vec<(usize, usize)> = Vec::with_capacity(nv * nh);
                for i in 0..nv {
                    for j in 0..nh {
                        if i == 0 || j == 0 || i == nv - 1 || j == nh - 1 {
                            candidates.push((i, j));
                        }
                    }
                }
                for i in 1..nv - 1 {
                    for j in 1..nh - 1 {
                        candidates.push((i, j));
                    }
                }
                let take = want_sources.min(candidates.len());
                for k in 0..take {
                    let idx = k * candidates.len() / take;
                    let (i, j) = candidates[idx];
                    network.add_voltage_source(format!("V{k}"), upper[i][j], spec.vdd)?;
                }
            }
            PadPlacement::AreaArray => {
                // Flip-chip: bumps on a regular modular lattice
                // ((i + 3j) mod m), so every strap sees pins at a
                // uniform pitch. Stride-sampling a row-major candidate
                // list would instead leave periodic stripes of
                // unsupplied crossings — artificial hot lines that
                // dominate the IR picture.
                let crossings = nv * nh;
                let m = ((crossings as f64 / want_sources as f64).round() as usize).max(1);
                let mut k = 0;
                for (i, row) in upper.iter().enumerate() {
                    for (j, &node) in row.iter().enumerate() {
                        if (i + 3 * j) % m == 0 {
                            network.add_voltage_source(format!("V{k}"), node, spec.vdd)?;
                            k += 1;
                        }
                    }
                }
            }
        }

        Ok(Self {
            name: name.into(),
            spec,
            floorplan,
            network,
            straps,
            segments,
            vias,
        })
    }

    /// Benchmark name (e.g. `ibmpg2`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grid specification used.
    #[must_use]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The floorplan the grid was built over.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The generated netlist.
    #[must_use]
    pub fn network(&self) -> &PowerGridNetwork {
        &self.network
    }

    /// Mutable netlist access (the perturbation engine edits loads and
    /// source voltages in place).
    pub fn network_mut(&mut self) -> &mut PowerGridNetwork {
        &mut self.network
    }

    /// The straps of the grid.
    #[must_use]
    pub fn straps(&self) -> &[StrapInfo] {
        &self.straps
    }

    /// The wire segments ("PG interconnects").
    #[must_use]
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.segments
    }

    /// The vias connecting the two layers, one per crossing.
    #[must_use]
    pub fn vias(&self) -> &[ViaInfo] {
        &self.vias
    }

    /// The via-array resistance a crossing would have if its lower
    /// strap were `width` µm wide (the array grows with the strap).
    #[must_use]
    pub fn via_resistance_for_width(&self, width: f64) -> f64 {
        self.spec.via_resistance_at(width)
    }

    /// The strap plan of one direction: the current widths with the
    /// spacings that satisfy the ring-width constraint of eq. 3,
    /// `Σ (sᵢ + wᵢ) = W_core`.
    ///
    /// # Errors
    ///
    /// Propagates [`FloorplanError::RingWidthViolation`]
    /// (as [`NetlistError::Floorplan`]) if the straps have been widened
    /// past the die — the design-rule check that catches runaway
    /// sizing.
    ///
    /// [`FloorplanError::RingWidthViolation`]: ppdl_floorplan::FloorplanError::RingWidthViolation
    pub fn strap_plan(&self, orientation: Orientation) -> crate::Result<ppdl_floorplan::StrapPlan> {
        let core_width = match orientation {
            Orientation::Vertical => self.spec.die_width,
            Orientation::Horizontal => self.spec.die_height,
        };
        let widths: Vec<f64> = self
            .straps
            .iter()
            .filter(|s| s.orientation == orientation)
            .map(|s| s.width)
            .collect();
        Ok(ppdl_floorplan::StrapPlan::from_widths(core_width, &widths)?)
    }

    /// Sets one strap's width: [`set_strap_widths`](Self::set_strap_widths)
    /// with every other strap at its current width, so the same checks
    /// and the same all-or-nothing guarantee apply.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InfeasibleGrid`] if `strap` is out of
    /// range, and otherwise the errors of
    /// [`set_strap_widths`](Self::set_strap_widths).
    pub fn set_strap_width(&mut self, strap: usize, width: f64) -> crate::Result<()> {
        let mut widths = self.strap_widths();
        let Some(slot) = widths.get_mut(strap) else {
            return Err(NetlistError::InfeasibleGrid {
                detail: format!(
                    "strap index {strap} out of range for {} straps",
                    self.straps.len()
                ),
            });
        };
        *slot = width;
        self.set_strap_widths(&widths)
    }

    /// Convenience: the widths of all straps, indexed by strap id.
    #[must_use]
    pub fn strap_widths(&self) -> Vec<f64> {
        self.straps.iter().map(|s| s.width).collect()
    }

    /// Total metal area of the grid in µm² (Σ width × length over all
    /// segments) — the routing-area cost that over-designing inflates
    /// and Problem 1 trades against the reliability margins.
    #[must_use]
    pub fn total_metal_area(&self) -> f64 {
        self.segments
            .iter()
            .map(|seg| self.straps[seg.strap].width * seg.length)
            .sum()
    }

    /// Applies a full width vector (one entry per strap) and re-derives
    /// every resistance from it in one pass over segments and vias:
    /// `R = ρ · ℓ / w` for a segment, and
    /// [`via_resistance_for_width`](Self::via_resistance_for_width) of
    /// the lower strap for a via.
    ///
    /// All or nothing: the widths and every derived resistance are
    /// checked before anything is written, so on `Err` the benchmark is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InfeasibleGrid`] on length mismatch or a
    /// width that is not finite and strictly positive, and
    /// [`NetlistError::InvalidElement`] for a derived resistance that is
    /// not finite (a tiny width overflows `ρ · ℓ / w`).
    pub fn set_strap_widths(&mut self, widths: &[f64]) -> crate::Result<()> {
        if widths.len() != self.straps.len() {
            return Err(NetlistError::InfeasibleGrid {
                detail: format!(
                    "{} widths provided for {} straps",
                    widths.len(),
                    self.straps.len()
                ),
            });
        }
        if let Some((strap, w)) = widths
            .iter()
            .enumerate()
            .find(|(_, w)| !(w.is_finite() && **w > 0.0))
        {
            return Err(NetlistError::InfeasibleGrid {
                detail: format!("strap {strap} width must be positive, got {w}"),
            });
        }
        let Self {
            spec,
            network,
            straps,
            segments,
            vias,
            ..
        } = self;
        // Every derived value is checked before any is written, so the
        // write pass cannot fail half-way.
        let derived = || derived_resistances(spec, straps, segments, vias, widths);
        for (resistor, ohms) in derived() {
            network.check_resistance(resistor, ohms)?;
        }
        for (resistor, ohms) in derived() {
            network.set_resistance(resistor, ohms)?;
        }
        for (strap, &w) in straps.iter_mut().zip(widths) {
            strap.width = w;
        }
        Ok(())
    }

    /// Partitions the straps into `per_orientation` contiguous bands
    /// per direction for template-based synthesis (OpeNPDN-style: one
    /// width template per region rather than one free width per strap).
    ///
    /// Straps of each orientation are ordered by centreline position
    /// and split into bands of near-equal size; vertical bands come
    /// first, then horizontal, so region `i` always means the same
    /// physical stripe for a given grid. Every strap lands in exactly
    /// one region, and no region is empty (directions with fewer straps
    /// than `per_orientation` yield fewer, non-empty bands).
    #[must_use]
    pub fn strap_regions(&self, per_orientation: usize) -> Vec<Vec<usize>> {
        let per_orientation = per_orientation.max(1);
        let mut regions = Vec::new();
        for orientation in [Orientation::Vertical, Orientation::Horizontal] {
            let mut ids: Vec<usize> = (0..self.straps.len())
                .filter(|&i| self.straps[i].orientation == orientation)
                .collect();
            ids.sort_by(|&a, &b| {
                self.straps[a]
                    .position
                    .total_cmp(&self.straps[b].position)
                    .then(a.cmp(&b))
            });
            if ids.is_empty() {
                continue;
            }
            let bands = per_orientation.min(ids.len());
            // Spread the remainder over the leading bands so sizes
            // differ by at most one.
            let (base, extra) = (ids.len() / bands, ids.len() % bands);
            let mut start = 0;
            for b in 0..bands {
                let len = base + usize::from(b < extra);
                regions.push(ids[start..start + len].to_vec());
                start += len;
            }
        }
        regions
    }

    /// Applies a full load-current vector (one entry per current load,
    /// in [`PowerGridNetwork::current_loads`] order) — the bulk form of
    /// [`PowerGridNetwork::set_load_current`], used to restore cached
    /// calibration results.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InfeasibleGrid`] on length mismatch and
    /// propagates per-load errors for invalid values.
    pub fn set_load_currents(&mut self, amps: &[f64]) -> crate::Result<()> {
        if amps.len() != self.network.current_loads().len() {
            return Err(NetlistError::InfeasibleGrid {
                detail: format!(
                    "{} load currents provided for {} loads",
                    amps.len(),
                    self.network.current_loads().len()
                ),
            });
        }
        for (i, &a) in amps.iter().enumerate() {
            self.network.set_load_current(i, a)?;
        }
        Ok(())
    }
}

/// The resistance every segment and via should have at `widths`, as
/// `(resistor index, ohms)`: segments first, then vias.
fn derived_resistances<'a>(
    spec: &'a GridSpec,
    straps: &'a [StrapInfo],
    segments: &'a [SegmentInfo],
    vias: &'a [ViaInfo],
    widths: &'a [f64],
) -> impl Iterator<Item = (usize, f64)> + 'a {
    let wires = segments.iter().map(move |seg| {
        let orientation = straps[seg.strap].orientation;
        let ohms = spec.segment_resistance(orientation, seg.length, widths[seg.strap]);
        (seg.resistor, ohms)
    });
    let arrays = vias.iter().map(move |via| {
        (
            via.resistor,
            spec.via_resistance_at(widths[via.lower_strap]),
        )
    });
    wires.chain(arrays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_floorplan::PowerNet;

    fn small_spec() -> GridSpec {
        GridSpec {
            die_width: 100.0,
            die_height: 100.0,
            v_straps: 4,
            h_straps: 5,
            ..GridSpec::default()
        }
    }

    fn small_floorplan() -> Floorplan {
        let mut fp = Floorplan::new(100.0, 100.0).unwrap();
        fp.add_block(
            ppdl_floorplan::FunctionalBlock::new("b0", 10.0, 10.0, 60.0, 60.0, 0.3).unwrap(),
        )
        .unwrap();
        fp.add_pad(ppdl_floorplan::PowerPad::new("v", 0.0, 0.0, PowerNet::Vdd))
            .unwrap();
        fp
    }

    #[test]
    fn counts_match_formula() {
        let b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        let (nv, nh) = (4, 5);
        assert_eq!(b.network().node_count(), 2 * nv * nh);
        // v-straps segments + h-straps segments + vias
        let expect_r = nv * (nh - 1) + nh * (nv - 1) + nv * nh;
        assert_eq!(b.network().resistors().len(), expect_r);
        assert_eq!(b.straps().len(), nv + nh);
        assert_eq!(b.segments().len(), nv * (nh - 1) + nh * (nv - 1));
    }

    #[test]
    fn loads_cover_block_area_only() {
        let b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        // Block covers x,y in [10,70]: pitches 25/20, so nodes at
        // x in {12.5, 37.5, 62.5} and y in {10,30,50} qualify (y=70 is
        // outside the half-open block). 3 x values * 3 y values = 9.
        assert_eq!(b.network().current_loads().len(), 9);
        // Load total approximates block current (tile quantization).
        let total = b.network().total_load_current();
        assert!(total > 0.1 && total < 0.5, "total {total}");
    }

    #[test]
    fn sources_at_least_one_and_at_vdd() {
        let b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        assert!(!b.network().voltage_sources().is_empty());
        assert!(b.network().voltage_sources().iter().all(|s| s.volts == 1.8));
    }

    #[test]
    fn segment_resistance_follows_geometry() {
        let spec = small_spec();
        let b = SyntheticBenchmark::generate("t", spec.clone(), small_floorplan()).unwrap();
        let seg = &b.segments()[0];
        let strap = &b.straps()[seg.strap];
        let rho = spec.sheet_resistance(strap.orientation);
        let expect = rho * seg.length / strap.width;
        assert!((b.network().resistors()[seg.resistor].ohms - expect).abs() < 1e-12);
    }

    #[test]
    fn set_strap_width_rescales_all_segments() {
        let mut b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        let before = b.network().resistors()[b.segments()[0].resistor].ohms;
        b.set_strap_width(0, 2.0).unwrap();
        let after = b.network().resistors()[b.segments()[0].resistor].ohms;
        assert!((after - before / 2.0).abs() < 1e-12);
        assert_eq!(b.straps()[0].width, 2.0);
        // Other straps untouched.
        let other = b.segments().iter().find(|s| s.strap == 1).unwrap().resistor;
        assert!((b.network().resistors()[other].ohms - before).abs() < 1e-12);
    }

    #[test]
    fn set_strap_width_validates() {
        let mut b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        assert!(b.set_strap_width(999, 1.0).is_err());
        assert!(b.set_strap_width(0, 0.0).is_err());
        assert!(b.set_strap_width(0, f64::NAN).is_err());
    }

    #[test]
    fn set_strap_widths_roundtrip() {
        let mut b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        let mut w = b.strap_widths();
        for (i, wi) in w.iter_mut().enumerate() {
            *wi = 1.0 + 0.1 * i as f64;
        }
        b.set_strap_widths(&w).unwrap();
        assert_eq!(b.strap_widths(), w);
        assert!(b.set_strap_widths(&w[1..]).is_err());
    }

    /// Every resistor's ohms and every strap width, as raw bits.
    fn state_bits(b: &SyntheticBenchmark) -> (Vec<u64>, Vec<u64>) {
        let ohms = b.network().resistors().iter().map(|r| r.ohms.to_bits());
        let widths = b.straps().iter().map(|s| s.width.to_bits());
        (ohms.collect(), widths.collect())
    }

    #[test]
    fn set_strap_widths_derives_every_resistance_bitwise() {
        use rand::{Rng, SeedableRng};
        let spec = small_spec();
        let mut b = SyntheticBenchmark::generate("t", spec.clone(), small_floorplan()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let w: Vec<f64> = (0..b.straps().len())
            .map(|_| rng.gen_range(0.1..25.0))
            .collect();
        b.set_strap_widths(&w).unwrap();
        assert_eq!(b.strap_widths(), w);
        let ohms = |i: usize| b.network().resistors()[i].ohms.to_bits();
        for seg in b.segments() {
            let rho = spec.sheet_resistance(b.straps()[seg.strap].orientation);
            assert_eq!(
                ohms(seg.resistor),
                (rho * seg.length / w[seg.strap]).to_bits()
            );
        }
        for via in b.vias() {
            let expect = b.via_resistance_for_width(w[via.lower_strap]);
            assert_eq!(ohms(via.resistor), expect.to_bits());
        }
        // Segments and vias are every resistor of the grid.
        assert_eq!(
            b.segments().len() + b.vias().len(),
            b.network().resistors().len()
        );
    }

    #[test]
    fn set_strap_widths_is_all_or_nothing() {
        let mut b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        let n = b.straps().len();
        b.set_strap_widths(&vec![1.5; n]).unwrap();
        let before = state_bits(&b);
        // A NaN in the last slot: caught by the width check.
        let mut nan_last = vec![3.0; n];
        nan_last[n - 1] = f64::NAN;
        assert!(matches!(
            b.set_strap_widths(&nan_last),
            Err(NetlistError::InfeasibleGrid { .. })
        ));
        assert_eq!(state_bits(&b), before);
        // A tiny positive width passes the width check but overflows
        // R = ρ·ℓ/w to +inf, which the resistance check rejects.
        let mut tiny = vec![3.0; n];
        tiny[1] = 1e-310;
        assert!(matches!(
            b.set_strap_widths(&tiny),
            Err(NetlistError::InvalidElement { .. })
        ));
        assert_eq!(state_bits(&b), before);
        assert!(b.set_strap_width(1, 1e-310).is_err());
        assert_eq!(state_bits(&b), before);
    }

    #[test]
    fn reapplying_the_current_widths_is_a_bitwise_no_op() {
        // 0.013 · 1.3 / 1.3 != 0.013 in f64: the generator must derive
        // via resistances with the resize rule for this to hold.
        let spec = GridSpec {
            via_resistance: 0.013,
            initial_width_lower: 1.3,
            ..small_spec()
        };
        let mut b = SyntheticBenchmark::generate("t", spec, small_floorplan()).unwrap();
        let before = state_bits(&b);
        b.set_strap_widths(&b.strap_widths()).unwrap();
        assert_eq!(state_bits(&b), before);
    }

    #[test]
    fn metal_area_grows_with_widening() {
        let mut b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        let before = b.total_metal_area();
        assert!(before > 0.0);
        b.set_strap_width(0, 4.0).unwrap();
        let after = b.total_metal_area();
        assert!(after > before);
        // The increase equals (new - old width) x strap length.
        let strap_len: f64 = b
            .segments()
            .iter()
            .filter(|s| s.strap == 0)
            .map(|s| s.length)
            .sum();
        assert!((after - before - (4.0 - 1.0) * strap_len).abs() < 1e-9);
    }

    #[test]
    fn strap_plan_satisfies_eq3() {
        let mut b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        let plan = b.strap_plan(Orientation::Vertical).unwrap();
        assert_eq!(plan.strap_count(), 4);
        assert!(plan.satisfies_ring_constraint(1e-9));
        // Widen a strap: the plan reflects it and still satisfies eq. 3.
        b.set_strap_width(0, 5.0).unwrap();
        let plan = b.strap_plan(Orientation::Vertical).unwrap();
        assert_eq!(plan.segments()[0].width, 5.0);
        assert!(plan.satisfies_ring_constraint(1e-9));
        // Over-widening past the die is a design-rule violation.
        for s in 0..4 {
            b.set_strap_width(s, 30.0).unwrap();
        }
        assert!(b.strap_plan(Orientation::Vertical).is_err());
    }

    #[test]
    fn too_few_straps_rejected() {
        let spec = GridSpec {
            v_straps: 1,
            ..small_spec()
        };
        assert!(matches!(
            SyntheticBenchmark::generate("t", spec, small_floorplan()),
            Err(NetlistError::InfeasibleGrid { .. })
        ));
    }

    #[test]
    fn mismatched_floorplan_rejected() {
        let spec = GridSpec {
            die_width: 200.0,
            ..small_spec()
        };
        assert!(SyntheticBenchmark::generate("t", spec, small_floorplan()).is_err());
    }

    #[test]
    fn spice_round_trip_preserves_stats() {
        let b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        let deck = b.network().to_spice();
        let net = crate::parse_spice(&deck).unwrap();
        assert_eq!(net.stats(), b.network().stats());
    }

    #[test]
    fn area_array_spreads_sources() {
        let spec = GridSpec {
            pad_placement: PadPlacement::AreaArray,
            source_fraction: 0.25,
            ..small_spec()
        };
        let b = SyntheticBenchmark::generate("t", spec, small_floorplan()).unwrap();
        // 25% of 40 nodes = 10 sources.
        assert_eq!(b.network().voltage_sources().len(), 10);
    }

    #[test]
    fn strap_regions_partition_every_strap_once() {
        let b = SyntheticBenchmark::generate("t", small_spec(), small_floorplan()).unwrap();
        // 4 vertical + 5 horizontal straps, 2 bands each direction.
        let regions = b.strap_regions(2);
        assert_eq!(regions.len(), 4);
        let mut seen: Vec<usize> = regions.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..b.straps().len()).collect::<Vec<_>>());
        assert!(regions.iter().all(|r| !r.is_empty()));
        // Bands are contiguous in position and single-orientation.
        for region in &regions {
            let o = b.straps()[region[0]].orientation;
            assert!(region.iter().all(|&i| b.straps()[i].orientation == o));
            for pair in region.windows(2) {
                assert!(b.straps()[pair[0]].position <= b.straps()[pair[1]].position);
            }
        }
        // More bands than straps degrades to one strap per band, never
        // an empty band.
        let fine = b.strap_regions(100);
        assert_eq!(fine.len(), b.straps().len());
        assert!(fine.iter().all(|r| r.len() == 1));
    }
}

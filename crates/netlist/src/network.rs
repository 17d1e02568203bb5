// ppdl-lint: allow(determinism/hashmap-iter) -- name->id lookup table below; see field comment
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::{CurrentLoad, NetlistError, NodeName, Resistor, UnionFind, VoltageSource};

/// Index of a node within a [`PowerGridNetwork`]'s node table.
///
/// The ground reference, when present, is an ordinary entry in the table
/// (analysis treats it specially).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The headline size statistics of a benchmark, matching the columns of
/// Table II of the paper: `#n` (non-ground nodes), `#r` (resistors),
/// `#v` (supply sources), `#i` (current loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BenchmarkStats {
    /// Non-ground nodes in the network.
    pub nodes: usize,
    /// Resistor elements (including via shorts).
    pub resistors: usize,
    /// Voltage-source elements.
    pub sources: usize,
    /// Current-load elements.
    pub loads: usize,
}

/// An in-memory power-grid netlist: an interned node table plus the
/// resistor / voltage-source / current-load element lists.
///
/// # Example
///
/// ```
/// use ppdl_netlist::{NodeName, PowerGridNetwork};
///
/// let mut net = PowerGridNetwork::new();
/// let a = net.intern(NodeName::grid(1, 0, 0));
/// let b = net.intern(NodeName::grid(1, 0, 100));
/// net.add_resistor("R1", a, b, 0.5).unwrap();
/// net.add_voltage_source("V1", a, 1.8).unwrap();
/// net.add_current_load("i1", b, 0.01).unwrap();
/// let s = net.stats();
/// assert_eq!((s.nodes, s.resistors, s.sources, s.loads), (2, 1, 1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerGridNetwork {
    // The node table is shared between clones and copied on the first
    // `intern` of a new name, so a copy of a design whose element values
    // change (a perturbed test design) does not copy its names.
    names: Arc<Vec<NodeName>>,
    // Lookup-only (`get`/`insert`, never iterated): iteration order
    // cannot leak into results, and O(1) interning is on the deck-parse
    // hot path, so HashMap stays.
    // ppdl-lint: allow(determinism/hashmap-iter) -- get/insert only, never iterated; O(1) interning on the parse hot path
    index: Arc<HashMap<NodeName, NodeId>>,
    resistors: Vec<Resistor>,
    sources: Vec<VoltageSource>,
    loads: Vec<CurrentLoad>,
}

impl PowerGridNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node name, returning its id (existing or fresh).
    pub fn intern(&mut self, name: NodeName) -> NodeId {
        if let Some(&id) = self.index.get(&name) {
            return id;
        }
        let id = NodeId(self.names.len());
        Arc::make_mut(&mut self.names).push(name.clone());
        Arc::make_mut(&mut self.index).insert(name, id);
        id
    }

    /// Looks up an existing node by name.
    #[must_use]
    pub fn node_id(&self, name: &NodeName) -> Option<NodeId> {
        self.index.get(name).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> &NodeName {
        &self.names[id.0]
    }

    /// Total entries in the node table (including ground if interned).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// All node names, indexable by `NodeId.0`.
    #[must_use]
    pub fn node_names(&self) -> &[NodeName] {
        &self.names
    }

    /// Adds a resistor between two interned nodes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if either terminal is not
    /// in the node table, or [`NetlistError::InvalidElement`] for an
    /// invalid value.
    pub fn add_resistor(
        &mut self,
        name: impl Into<String>,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> crate::Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        self.resistors.push(Resistor::new(name, a, b, ohms)?);
        Ok(())
    }

    /// Adds a voltage source pinning `node` to `volts`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`add_resistor`](Self::add_resistor).
    pub fn add_voltage_source(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
        volts: f64,
    ) -> crate::Result<()> {
        self.check_node(node)?;
        self.sources.push(VoltageSource::new(name, node, volts)?);
        Ok(())
    }

    /// Adds a current load drawing `amps` from `node`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`add_resistor`](Self::add_resistor).
    pub fn add_current_load(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
        amps: f64,
    ) -> crate::Result<()> {
        self.check_node(node)?;
        self.loads.push(CurrentLoad::new(name, node, amps)?);
        Ok(())
    }

    fn check_node(&self, id: NodeId) -> crate::Result<()> {
        if id.0 >= self.names.len() {
            return Err(NetlistError::UnknownNode {
                index: id.0,
                nodes: self.names.len(),
            });
        }
        Ok(())
    }

    /// The resistor elements.
    #[must_use]
    pub fn resistors(&self) -> &[Resistor] {
        &self.resistors
    }

    /// Mutable access to one resistor's value — the hook the iterative
    /// sizing loop uses when it changes a strap width.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if `idx` is out of range
    /// (reusing the index-style error), or
    /// [`NetlistError::InvalidElement`] for an invalid value.
    pub fn set_resistance(&mut self, idx: usize, ohms: f64) -> crate::Result<()> {
        self.check_resistance(idx, ohms)?;
        self.resistors[idx].ohms = ohms;
        Ok(())
    }

    /// The checks of [`set_resistance`](Self::set_resistance) without the
    /// write, so a bulk update can validate every value first.
    pub(crate) fn check_resistance(&self, idx: usize, ohms: f64) -> crate::Result<()> {
        let Some(r) = self.resistors.get(idx) else {
            return Err(NetlistError::UnknownNode {
                index: idx,
                nodes: self.resistors.len(),
            });
        };
        if !(ohms.is_finite() && ohms >= 0.0) {
            return Err(NetlistError::InvalidElement {
                name: r.name.clone(),
                detail: format!("resistance {ohms} must be finite and non-negative"),
            });
        }
        Ok(())
    }

    /// The voltage sources.
    #[must_use]
    pub fn voltage_sources(&self) -> &[VoltageSource] {
        &self.sources
    }

    /// Mutable access to one voltage source's value (used by the
    /// perturbation engine for "perturbation in node voltages").
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if `idx` is out of range,
    /// or [`NetlistError::InvalidElement`] for a non-finite value.
    pub fn set_source_voltage(&mut self, idx: usize, volts: f64) -> crate::Result<()> {
        if idx >= self.sources.len() {
            return Err(NetlistError::UnknownNode {
                index: idx,
                nodes: self.sources.len(),
            });
        }
        if !volts.is_finite() {
            return Err(NetlistError::InvalidElement {
                name: self.sources[idx].name.clone(),
                detail: format!("voltage {volts} must be finite"),
            });
        }
        self.sources[idx].volts = volts;
        Ok(())
    }

    /// The current loads.
    #[must_use]
    pub fn current_loads(&self) -> &[CurrentLoad] {
        &self.loads
    }

    /// Mutable access to one load's current (used by the perturbation
    /// engine for "perturbation in current workloads").
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if `idx` is out of range,
    /// or [`NetlistError::InvalidElement`] for an invalid value.
    pub fn set_load_current(&mut self, idx: usize, amps: f64) -> crate::Result<()> {
        if idx >= self.loads.len() {
            return Err(NetlistError::UnknownNode {
                index: idx,
                nodes: self.loads.len(),
            });
        }
        if !(amps.is_finite() && amps >= 0.0) {
            return Err(NetlistError::InvalidElement {
                name: self.loads[idx].name.clone(),
                detail: format!("load current {amps} must be finite and non-negative"),
            });
        }
        self.loads[idx].amps = amps;
        Ok(())
    }

    /// Table II-style statistics (`#n` excludes the ground entry).
    #[must_use]
    pub fn stats(&self) -> BenchmarkStats {
        let ground = self.names.iter().filter(|n| n.is_ground()).count();
        BenchmarkStats {
            nodes: self.names.len() - ground,
            resistors: self.resistors.len(),
            sources: self.sources.len(),
            loads: self.loads.len(),
        }
    }

    /// Sum of all load currents (A).
    #[must_use]
    pub fn total_load_current(&self) -> f64 {
        self.loads.iter().map(|l| l.amps).sum()
    }

    /// The supply voltage: the maximum source voltage in the deck
    /// (`None` if there are no sources).
    #[must_use]
    pub fn supply_voltage(&self) -> Option<f64> {
        self.sources
            .iter()
            .map(|s| s.volts)
            .fold(None, |m, v| Some(m.map_or(v, |mv: f64| mv.max(v))))
    }

    /// Bounding box `((min_x, min_y), (max_x, max_y))` over all grid
    /// nodes, or `None` if the network has no grid-named nodes.
    #[must_use]
    pub fn bounding_box(&self) -> Option<((i64, i64), (i64, i64))> {
        let mut bb: Option<((i64, i64), (i64, i64))> = None;
        for n in self.names.iter() {
            if let Some((x, y)) = n.coordinates() {
                bb = Some(match bb {
                    None => ((x, y), (x, y)),
                    Some(((x0, y0), (x1, y1))) => ((x0.min(x), y0.min(y)), (x1.max(x), y1.max(y))),
                });
            }
        }
        bb
    }

    /// The node map that merges every zero-resistance short: see
    /// [`ShortMerge`]. Without shorts it is the identity and no
    /// union-find runs.
    #[must_use]
    pub fn short_merge(&self) -> ShortMerge {
        let n = self.names.len();
        let labels = if self.resistors.iter().any(Resistor::is_short) {
            let mut uf = UnionFind::new(n);
            for r in self.resistors.iter().filter(|r| r.is_short()) {
                uf.union(r.a.0, r.b.0);
            }
            uf.dense_labels()
        } else {
            (0..n).collect()
        };
        // Labels are dense in first-seen order, so a label is new
        // exactly when it equals the count seen so far, and its first
        // member is the lowest-indexed one.
        let mut names_from = Vec::new();
        for (i, &c) in labels.iter().enumerate() {
            if c == names_from.len() {
                names_from.push(NodeId(i));
            }
        }
        ShortMerge {
            map: labels.into_iter().map(NodeId).collect(),
            names_from,
        }
    }

    /// Merges all zero-resistance shorts, producing a new network in
    /// which each shorted group is a single node, together with the map
    /// from old node index to new [`NodeId`].
    ///
    /// Element order is preserved; shorts themselves are dropped.
    /// Resistors whose two terminals land in the same merged node
    /// (parallel shorts) are also dropped. The merged node keeps the
    /// name of the lowest-indexed member of its group. The rule is
    /// [`short_merge`](Self::short_merge)'s; analysis applies it without
    /// building this copy.
    #[must_use]
    pub fn merged_shorts(&self) -> (PowerGridNetwork, Vec<NodeId>) {
        let merge = self.short_merge();
        let mut merged = PowerGridNetwork::new();
        for (c, &member) in merge.name_sources().iter().enumerate() {
            let id = merged.intern(self.names[member.0].clone());
            debug_assert_eq!(id.0, c);
        }
        // The merged elements are rebuilt by struct literal rather than
        // through the validating constructors: values were validated at
        // insertion, and `ShortMerge::resistor` drops every short and
        // self-loop, so re-validation could only manufacture a panic path.
        for r in &self.resistors {
            if let Some((a, b)) = merge.resistor(r) {
                merged.resistors.push(Resistor {
                    name: r.name.clone(),
                    a,
                    b,
                    ohms: r.ohms,
                });
            }
        }
        for s in &self.sources {
            merged.sources.push(VoltageSource {
                name: s.name.clone(),
                node: merge.node(s.node),
                volts: s.volts,
            });
        }
        for l in &self.loads {
            merged.loads.push(CurrentLoad {
                name: l.name.clone(),
                node: merge.node(l.node),
                amps: l.amps,
            });
        }
        (merged, merge.map)
    }

    /// Serialises the network to the IBM PG SPICE subset. The output
    /// round-trips through [`parse_spice`](crate::parse_spice).
    #[must_use]
    pub fn to_spice(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "* synthetic IBM-PG-style power grid netlist");
        let _ = writeln!(
            out,
            "* nodes={} resistors={} sources={} loads={}",
            self.stats().nodes,
            self.resistors.len(),
            self.sources.len(),
            self.loads.len()
        );
        for r in &self.resistors {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                r.name,
                self.names[r.a.0],
                self.names[r.b.0],
                crate::format_si(r.ohms)
            );
        }
        for s in &self.sources {
            let _ = writeln!(
                out,
                "{} {} 0 {}",
                s.name,
                self.names[s.node.0],
                crate::format_si(s.volts)
            );
        }
        for l in &self.loads {
            let _ = writeln!(
                out,
                "{} {} 0 {}",
                l.name,
                self.names[l.node.0],
                crate::format_si(l.amps)
            );
        }
        out.push_str(".op\n.end\n");
        out
    }
}

/// How merging zero-resistance shorts renumbers a network's nodes,
/// without copying the network.
///
/// Nodes joined by a chain of shorts become one merged node. Merged
/// ids are dense and numbered in order of each group's lowest-indexed
/// member, which also gives the merged node its name (and so decides
/// whether it is ground). Shorts, and resistors whose two ends merge,
/// drop out. [`PowerGridNetwork::merged_shorts`] builds the merged copy
/// from this map; static analysis stamps the original elements through
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortMerge {
    /// Merged id of each original node.
    map: Vec<NodeId>,
    /// The original node each merged node takes its name from.
    names_from: Vec<NodeId>,
}

impl ShortMerge {
    /// Number of merged nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.names_from.len()
    }

    /// The merged id of an original node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the network the map was
    /// built from.
    #[must_use]
    pub fn node(&self, node: NodeId) -> NodeId {
        self.map[node.0]
    }

    /// For each merged node, the original node it is named after: the
    /// lowest-indexed member of its group.
    #[must_use]
    pub fn name_sources(&self) -> &[NodeId] {
        &self.names_from
    }

    /// The merged ends of `r`, or `None` when the merge drops it (a
    /// short, or both ends in one merged node).
    ///
    /// # Panics
    ///
    /// Panics if a terminal is out of range for the network the map was
    /// built from.
    #[must_use]
    pub fn resistor(&self, r: &Resistor) -> Option<(NodeId, NodeId)> {
        if r.is_short() {
            return None;
        }
        let (a, b) = (self.map[r.a.0], self.map[r.b.0]);
        (a != b).then_some((a, b))
    }

    /// The merged id of every original node, indexed by `NodeId.0`.
    #[must_use]
    pub fn map(&self) -> &[NodeId] {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PowerGridNetwork {
        let mut net = PowerGridNetwork::new();
        let a = net.intern(NodeName::grid(1, 0, 0));
        let b = net.intern(NodeName::grid(1, 0, 100));
        let c = net.intern(NodeName::grid(2, 0, 100));
        net.add_resistor("R1", a, b, 1.0).unwrap();
        net.add_resistor("Rvia", b, c, 0.0).unwrap();
        net.add_voltage_source("V1", a, 1.8).unwrap();
        net.add_current_load("i1", c, 0.02).unwrap();
        net
    }

    #[test]
    fn interning_is_idempotent() {
        let mut net = PowerGridNetwork::new();
        let a = net.intern(NodeName::grid(1, 5, 5));
        let b = net.intern(NodeName::grid(1, 5, 5));
        assert_eq!(a, b);
        assert_eq!(net.node_count(), 1);
    }

    #[test]
    fn stats_exclude_ground() {
        let mut net = tiny();
        let g = net.intern(NodeName::Ground);
        net.add_resistor("Rg", NodeId(0), g, 1.0).unwrap();
        assert_eq!(net.stats().nodes, 3);
        assert_eq!(net.node_count(), 4);
    }

    #[test]
    fn self_loop_resistor_rejected_with_error() {
        // Regression: `resistors = [(0, 0, 0.0)]` (the shrunk proptest
        // case) used to slip through as a degenerate zero-ohm short.
        let mut net = PowerGridNetwork::new();
        let a = net.intern(NodeName::grid(1, 0, 0));
        let err = net.add_resistor("Rbad", a, a, 0.0).unwrap_err();
        assert!(matches!(err, NetlistError::InvalidElement { .. }));
        let err = net.add_resistor("Rbad2", a, a, 1.5).unwrap_err();
        assert!(matches!(err, NetlistError::InvalidElement { .. }));
        assert_eq!(net.stats().resistors, 0);
    }

    #[test]
    fn unknown_node_rejected() {
        let mut net = PowerGridNetwork::new();
        let err = net
            .add_resistor("R1", NodeId(0), NodeId(1), 1.0)
            .unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNode { .. }));
    }

    #[test]
    fn totals() {
        let net = tiny();
        assert!((net.total_load_current() - 0.02).abs() < 1e-15);
        assert_eq!(net.supply_voltage(), Some(1.8));
        assert_eq!(PowerGridNetwork::new().supply_voltage(), None);
    }

    #[test]
    fn bounding_box_covers_grid_nodes() {
        let net = tiny();
        assert_eq!(net.bounding_box(), Some(((0, 0), (0, 100))));
        assert_eq!(PowerGridNetwork::new().bounding_box(), None);
    }

    #[test]
    fn merged_shorts_collapses_via() {
        let net = tiny();
        let (merged, map) = net.merged_shorts();
        assert_eq!(merged.node_count(), 2);
        assert_eq!(merged.resistors().len(), 1);
        // b and c collapse to the same node.
        assert_eq!(map[1], map[2]);
        assert_ne!(map[0], map[1]);
        // The load moved onto the merged node.
        assert_eq!(merged.current_loads()[0].node, map[2]);
        // No shorts remain.
        assert!(merged.resistors().iter().all(|r| !r.is_short()));
    }

    #[test]
    fn merged_shorts_drops_self_loops() {
        let mut net = PowerGridNetwork::new();
        let a = net.intern(NodeName::grid(1, 0, 0));
        let b = net.intern(NodeName::grid(1, 1, 0));
        net.add_resistor("Rshort", a, b, 0.0).unwrap();
        net.add_resistor("Rpar", a, b, 2.0).unwrap(); // parallel to the short
        let (merged, _) = net.merged_shorts();
        assert_eq!(merged.node_count(), 1);
        assert!(merged.resistors().is_empty());
    }

    #[test]
    fn merged_shorts_identity_when_no_shorts() {
        let mut net = PowerGridNetwork::new();
        let a = net.intern(NodeName::grid(1, 0, 0));
        let b = net.intern(NodeName::grid(1, 1, 0));
        net.add_resistor("R1", a, b, 1.0).unwrap();
        let (merged, map) = net.merged_shorts();
        assert_eq!(merged.node_count(), 2);
        assert_eq!(map, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn setters_validate() {
        let mut net = tiny();
        net.set_resistance(0, 2.0).unwrap();
        assert_eq!(net.resistors()[0].ohms, 2.0);
        assert!(net.set_resistance(99, 1.0).is_err());
        assert!(net.set_resistance(0, -1.0).is_err());
        net.set_source_voltage(0, 1.9).unwrap();
        assert!(net.set_source_voltage(0, f64::NAN).is_err());
        net.set_load_current(0, 0.03).unwrap();
        assert!(net.set_load_current(0, -0.1).is_err());
        assert!(net.set_load_current(7, 0.1).is_err());
    }

    #[test]
    fn spice_output_contains_all_elements() {
        let s = tiny().to_spice();
        assert!(s.contains("R1 n1_0_0 n1_0_100 1"));
        assert!(s.contains("V1 n1_0_0 0 1.8"));
        assert!(s.contains("i1 n2_0_100 0 0.02"));
        assert!(s.ends_with(".op\n.end\n"));
    }
}

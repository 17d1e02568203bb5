//! IBM power-grid benchmark netlists: model, parser, writer, generator.
//!
//! The paper trains and validates on the IBM Power Grid benchmarks (paper ref. 14)
//! (`ibmpg1` … `ibmpg6`, `ibmpgnew1/2`) — SPICE decks of resistors (`R`),
//! supply sources (`V`) and current loads (`I`) extracted from IBM
//! processors. Those decks are proprietary and not available here, so
//! this crate provides both halves of a faithful substitute:
//!
//! * a complete parser/writer for the IBM PG SPICE subset
//!   ([`parse_spice`], [`PowerGridNetwork::to_spice`]), including the
//!   `n<layer>_<x>_<y>` node-name convention, engineering-notation
//!   values, comments, and `.op`/`.end` cards, plus zero-resistance via
//!   shorts handled by union-find node merging;
//! * a **synthetic benchmark generator** ([`SyntheticBenchmark`]) that
//!   builds multi-layer orthogonal strap grids over a floorplan, with
//!   per-benchmark presets ([`IbmPgPreset`]) scaled to the published
//!   node/resistor/source/load counts of Table II.
//!
//! # Example
//!
//! ```
//! use ppdl_netlist::{parse_spice, IbmPgPreset, SyntheticBenchmark};
//!
//! let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 1).unwrap();
//! let deck = bench.network().to_spice();
//! let reparsed = parse_spice(&deck).unwrap();
//! assert_eq!(reparsed.stats().nodes, bench.network().stats().nodes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod element;
mod error;
mod generator;
mod network;
mod node;
mod presets;
mod spice;
mod unionfind;
mod units;

pub use element::{CurrentLoad, Resistor, VoltageSource};
pub use error::NetlistError;
pub use generator::{GridSpec, Orientation, SegmentInfo, StrapInfo, SyntheticBenchmark, ViaInfo};
pub use network::{BenchmarkStats, NodeId, PowerGridNetwork, ShortMerge};
pub use node::NodeName;
pub use presets::IbmPgPreset;
pub use spice::{parse_spice, parse_spice_lines};
pub use unionfind::UnionFind;
pub use units::{format_si, parse_value};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NetlistError>;

//! Static power-grid analysis: IR drop and electromigration.
//!
//! This crate is the "conventional approach" engine of the paper: given
//! a power-grid netlist it assembles the modified-nodal-analysis (MNA)
//! conductance system, solves it with preconditioned conjugate
//! gradients, and reports per-node IR drop, per-branch currents,
//! electromigration current densities (eq. 4), and rasterised IR-drop
//! maps (the Fig. 8 plots).
//!
//! The flow is:
//!
//! 1. [`StaticAnalysis::solve`] merges via shorts through a node map
//!    ([`ShortMerge`](ppdl_netlist::ShortMerge), no copy of the
//!    netlist), classifies nodes (ground / supply-fixed / free), stamps
//!    conductances straight into CSR, and solves `G v = i` for the
//!    free-node voltages, as deviations from the supply level.
//! 2. [`IrDropReport`] exposes voltages, drops, branch currents, and
//!    the worst-case drop (the Table III number).
//! 3. [`EmChecker`] computes per-segment current densities `I/w` and
//!    flags violations of `J_max`.
//! 4. [`IrDropMap`] rasterises drops onto a fixed grid for plotting.
//!
//! # Example
//!
//! ```
//! use ppdl_analysis::StaticAnalysis;
//! use ppdl_netlist::parse_spice;
//!
//! // A 3-node chain fed from one end, loaded at the other.
//! let net = parse_spice("\
//! R1 n1_0_0 n1_0_100 1.0
//! R2 n1_0_100 n1_0_200 1.0
//! V0 n1_0_0 0 1.8
//! i0 n1_0_200 0 0.01
//! ").unwrap();
//! let report = StaticAnalysis::default().solve(&net).unwrap();
//! let (_, worst) = report.worst_drop().unwrap();
//! assert!((worst - 0.02).abs() < 1e-8); // 10 mA through 2 ohms
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod em;
mod error;
mod irmap;
mod mna;
mod stamp;

pub use em::{EmChecker, EmReport, EmViolation};
pub use error::AnalysisError;
pub use irmap::IrDropMap;
pub use mna::{AnalysisOptions, IrDropReport, StaticAnalysis};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, AnalysisError>;

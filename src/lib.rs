//! PowerPlanningDL — reliability-aware on-chip power grid design using
//! deep learning.
//!
//! This is the umbrella crate of a full Rust reproduction of
//! *PowerPlanningDL: Reliability-Aware Framework for On-Chip Power Grid
//! Design using Deep Learning* (Dey, Nandi, Trivedi — DATE 2020). It
//! re-exports the workspace crates under one roof:
//!
//! * [`netlist`] — IBM-PG-style SPICE netlists: parser, writer, network
//!   model, and a synthetic benchmark generator with per-benchmark
//!   presets.
//! * [`solver`] — sparse linear algebra (CSR, preconditioned CG with
//!   one [`PrecondKind`](solver::PrecondKind) enum, sparse and dense
//!   Cholesky).
//! * [`floorplan`] — functional blocks, power pads, strap plans, and a
//!   seeded floorplan generator.
//! * [`analysis`] — static IR-drop analysis (MNA assembly + solve),
//!   electromigration checks, and IR-drop maps.
//! * [`nn`] — a from-scratch dense neural-network library with the Adam
//!   optimizer, used for the paper's multi-target regression model.
//! * [`core`] — the PowerPlanningDL framework itself: feature
//!   extraction, width prediction (Problem 1), Kirchhoff-based IR-drop
//!   prediction (Problem 2), the perturbation engine, and the
//!   conventional iterative baseline.
//! * [`service`] — the batched prediction service: loads a persisted
//!   [`TrainedBundle`](core::TrainedBundle) once and answers streams of
//!   ECO width/IR queries over an NDJSON request/response protocol
//!   (`ppdl serve`).
//! * [`obs`] — the zero-dependency telemetry layer every crate above
//!   reports through: hierarchical spans, counters, and histograms with
//!   a deterministic JSON snapshot (`ppdl serve --telemetry`,
//!   `ppdl-bench run --telemetry`; see DESIGN.md §11).
//!
//! # Parallel execution
//!
//! Every hot path — sparse matrix–vector products, the CG vector
//! kernels, minibatch training, and γ perturbation sweeps — runs on the workspace-wide thread pool
//! configured through [`parallel`] (re-exported from the solver crate).
//! The thread count defaults to the machine's parallelism, can be
//! pinned with the `PPDL_THREADS` environment variable or
//! [`parallel::set_threads`], and results are **bitwise identical at
//! every thread count**: work decomposition depends only on problem
//! size, and reductions fold fixed-size chunks in a fixed order.
//!
//! # Quickstart
//!
//! ```
//! use powerplanningdl::core::{experiment, PowerPlanningDl};
//! use powerplanningdl::netlist::IbmPgPreset;
//!
//! // Build a small ibmpg2-like benchmark, calibrate it to the paper's
//! // worst-case IR drop, and run the full train-then-predict flow.
//! let prepared = experiment::prepare(IbmPgPreset::Ibmpg2, 0.006, 7, 2.5).unwrap();
//! let config = experiment::flow_config(&prepared, true);
//! let outcome = PowerPlanningDl::new(config).run(&prepared.bench).unwrap();
//! assert!(outcome.width_metrics.r2 > 0.4);
//! assert!(outcome.timing.speedup > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use ppdl_analysis as analysis;
pub use ppdl_core as core;
pub use ppdl_floorplan as floorplan;
pub use ppdl_netlist as netlist;
pub use ppdl_nn as nn;
pub use ppdl_obs as obs;
pub use ppdl_service as service;
pub use ppdl_solver as solver;

pub use ppdl_solver::parallel;
pub use ppdl_solver::{parallel_config, set_par_threshold, set_threads, ParallelConfig};

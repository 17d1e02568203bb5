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
//! Parallelism runs at one level, over independent work items: the
//! requests of a service batch, synthesis templates, γ perturbation
//! sweeps and the NN's fixed 256-row chunks, each through
//! [`parallel::par_map_vec`] (re-exported from the solver crate). A
//! call nested inside another's worker runs inline, and the kernels
//! underneath (SpMV, the CG vector kernels, GEMM) are sequential. The
//! thread count defaults to the machine's parallelism, can be pinned
//! with the `PPDL_THREADS` environment variable or [`set_threads`],
//! and results are **bitwise identical at every thread count**: work
//! decomposition depends only on problem size, and results are folded
//! in a fixed order.
//!
//! # Quickstart
//!
//! ```
//! use powerplanningdl::core::pipeline::BenchmarkSourceStage;
//! use powerplanningdl::core::{DlFlowConfig, PowerPlanningDl};
//! use powerplanningdl::netlist::IbmPgPreset;
//!
//! // Build a small ibmpg2-like benchmark, calibrate it to the paper's
//! // worst-case IR drop, and run the full train-then-predict flow
//! // (no artifact cache).
//! let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.006, 7);
//! let (outcome, _stages) = PowerPlanningDl::new(DlFlowConfig::fast())
//!     .run(source, None)
//!     .unwrap();
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
pub use ppdl_solver::set_threads;

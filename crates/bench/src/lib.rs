//! Experiment harness for the PowerPlanningDL reproduction.
//!
//! Everything needed to regenerate the paper's tables and figures:
//!
//! * [`memtrack`] — a tracking global allocator (live/peak byte
//!   counters) plus a background sampler, standing in for the paper's
//!   `mprof` memory profiles (Table V peak memory, Fig. 10).
//! * [`harness`] — shared experiment plumbing: the unified [`Options`]
//!   parser every experiment accepts, table formatting, CSV emission.
//! * [`experiments`] — the experiment registry: each paper table and
//!   figure as a named entry over the cached pipeline engine, producing
//!   a [`RunManifest`](ppdl_core::pipeline::RunManifest) per run.
//! * [`baseline`] — manifest-diff baseline checks: tolerance-tagged
//!   metric bounds committed to the repo, compared against a fresh
//!   manifest in CI (`ppdl-bench baseline`).
//!
//! The `ppdl-bench` binary dispatches them (`ppdl-bench run <name>
//! [--json] [--no-cache]`, `ppdl-bench list`). Kernel timings live in
//! the `kernels` experiment; end-to-end and per-layer timings live in
//! the repository benchmark (`perfbench/`).
//!
//! This crate contains the only `unsafe` in the workspace: the
//! [`GlobalAlloc`](std::alloc::GlobalAlloc) implementation of the
//! tracking allocator, which simply delegates to the system allocator
//! around counter updates.
//!
//! [`Options`]: harness::Options

#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod harness;
pub mod memtrack;

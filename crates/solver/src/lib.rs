//! Sparse and dense linear algebra kernels for power-grid analysis.
//!
//! Static IR-drop analysis of an on-chip power grid reduces to solving the
//! modified-nodal-analysis (MNA) system `G v = i`, where `G` is a large,
//! sparse, symmetric positive-definite conductance matrix. This crate
//! provides everything the analysis layer needs to do that from scratch:
//!
//! * [`TripletMatrix`] — a coordinate-format accumulator used while
//!   stamping conductances, with duplicate summing.
//! * [`CsrMatrix`] — compressed-sparse-row storage with matrix–vector
//!   products, transpose, and structural queries.
//! * [`DenseMatrix`] — small dense matrices with a Cholesky
//!   factorization, used by block-Jacobi and as a test oracle.
//! * [`SparseCholesky`] — an exact sparse factorization (no fill-reducing
//!   ordering), the [`PrecondKind::Direct`] preconditioner.
//! * [`ConjugateGradient`] — (preconditioned) conjugate-gradient solver
//!   with one entry point, [`ConjugateGradient::solve`]. The
//!   preconditioner is chosen at runtime by a [`PrecondKind`] carried in
//!   [`CgOptions`]: identity, Jacobi, block-Jacobi, IC(0), a
//!   pairwise-aggregation multilevel V-cycle, or the exact sparse
//!   Cholesky factor.
//! * [`vecops`] — the BLAS-1 style kernels (`dot`, `axpy`, norms) shared
//!   by the iterative solvers.
//! * [`parallel`] — the workspace-wide parallel execution layer: the
//!   thread count (`PPDL_THREADS`) and the one fork primitive,
//!   `par_map_vec`, over independent work items. The kernels above are
//!   sequential; parallelism lives in their callers.
//!
//! # Example
//!
//! Solve a small SPD system with preconditioned CG:
//!
//! ```
//! use ppdl_solver::{TripletMatrix, ConjugateGradient, CgOptions, PrecondKind};
//!
//! // 2x2 SPD system: [[4, 1], [1, 3]] x = [1, 2]
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let a = t.to_csr();
//!
//! let solver = ConjugateGradient::new(CgOptions {
//!     precond: PrecondKind::Jacobi,
//!     ..CgOptions::default()
//! });
//! let sol = solver.solve(&a, &[1.0, 2.0]).unwrap();
//! assert!((sol.x[0] - 1.0 / 11.0).abs() < 1e-8);
//! assert!((sol.x[1] - 7.0 / 11.0).abs() < 1e-8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cg;
mod csr;
mod dense;
mod error;
mod multilevel;
pub mod parallel;
mod precond;
mod sparse_chol;
mod stationary;
mod triplet;
pub mod vecops;

pub use cg::{CgOptions, CgSolution, ConjugateGradient};
pub use csr::CsrMatrix;
pub use dense::{DenseCholesky, DenseMatrix};
pub use error::SolverError;
pub use parallel::set_threads;
pub use precond::PrecondKind;
pub use sparse_chol::SparseCholesky;
pub use stationary::{GaussSeidel, StationaryOptions, StationarySolution};
pub use triplet::TripletMatrix;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SolverError>;

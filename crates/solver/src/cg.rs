use crate::vecops::{all_finite, axpy, dot, norm2, xpby};
use crate::{CsrMatrix, PrecondKind, Preconditioner, SolverError};

/// Iteration-count histogram edges: 1 to 16k iterations, doubling.
const ITER_BOUNDS: [f64; 15] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0,
];

/// Final relative-residual histogram edges: 1e-14 to 1, one decade per
/// bucket.
const RESID_BOUNDS: [f64; 15] = [
    1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
];

/// Telemetry for one converged solve (no-op unless collection is on).
fn record_converged_solve(iterations: usize, relative_residual: f64) {
    if !ppdl_obs::enabled() {
        return;
    }
    let reg = ppdl_obs::global();
    reg.counter("solver/cg/solves").inc();
    reg.counter("solver/cg/iterations_total")
        .add(iterations as u64);
    reg.histogram("solver/cg/iterations", &ITER_BOUNDS)
        .record(iterations as f64);
    reg.histogram("solver/cg/rel_residual", &RESID_BOUNDS)
        .record(relative_residual);
}

/// Options controlling a (preconditioned) conjugate-gradient solve.
///
/// The preconditioner is part of the options ([`CgOptions::precond`]),
/// selected at runtime by [`PrecondKind`] rather than threaded through a
/// generic parameter — see [`ConjugateGradient::solve`]. Construct with
/// [`CgOptions::builder`] for range checking, or a struct literal with
/// `..CgOptions::default()` when the values are statically known-good.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance: the solve stops when
    /// `||b - A x|| <= tolerance * ||b||`.
    pub tolerance: f64,
    /// Hard iteration cap. `0` means "dimension of the system".
    pub max_iterations: usize,
    /// If `true`, record the residual norm at every iteration in
    /// [`CgSolution::residual_history`] (off by default; it allocates).
    pub record_history: bool,
    /// Which preconditioner [`ConjugateGradient::solve`] builds.
    pub precond: PrecondKind,
    /// Block size for [`PrecondKind::BlockJacobi`]; ignored by the other
    /// kinds.
    pub precond_block: usize,
}

/// Default block size for [`PrecondKind::BlockJacobi`]: large enough to
/// capture a strip of a row-major grid, small enough that the dense
/// per-block Cholesky stays cheap.
pub const DEFAULT_PRECOND_BLOCK: usize = 64;

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_iterations: 0,
            record_history: false,
            precond: PrecondKind::default(),
            precond_block: DEFAULT_PRECOND_BLOCK,
        }
    }
}

impl CgOptions {
    /// Starts a builder pre-loaded with the defaults.
    #[must_use]
    pub fn builder() -> CgOptionsBuilder {
        CgOptionsBuilder {
            options: Self::default(),
        }
    }
}

/// Builder for [`CgOptions`], mirroring `DlFlowConfig::builder()` in
/// `ppdl-core`: chainable `#[must_use]` setters, an infallible
/// [`build`](CgOptionsBuilder::build) for known-good values, and a
/// range-checked [`try_build`](CgOptionsBuilder::try_build) for values
/// arriving from config files or CLI flags.
#[derive(Debug, Clone)]
pub struct CgOptionsBuilder {
    options: CgOptions,
}

impl CgOptionsBuilder {
    /// Sets the relative residual tolerance.
    #[must_use]
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.options.tolerance = tolerance;
        self
    }

    /// Sets the hard iteration cap (`0` = dimension-derived default).
    #[must_use]
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.options.max_iterations = max_iterations;
        self
    }

    /// Enables or disables per-iteration residual recording.
    #[must_use]
    pub fn record_history(mut self, record_history: bool) -> Self {
        self.options.record_history = record_history;
        self
    }

    /// Selects the preconditioner kind.
    #[must_use]
    pub fn precond(mut self, precond: PrecondKind) -> Self {
        self.options.precond = precond;
        self
    }

    /// Sets the block size used by [`PrecondKind::BlockJacobi`].
    #[must_use]
    pub fn precond_block(mut self, precond_block: usize) -> Self {
        self.options.precond_block = precond_block;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> CgOptions {
        self.options
    }

    /// Finishes the builder, rejecting out-of-range knobs (non-positive
    /// or non-finite tolerance, zero or absurd block size) instead of
    /// failing later inside a solve.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidOptions`].
    pub fn try_build(self) -> crate::Result<CgOptions> {
        let o = self.options;
        if !(o.tolerance.is_finite() && o.tolerance > 0.0 && o.tolerance < 1.0) {
            return Err(SolverError::InvalidOptions {
                detail: format!("cg tolerance {:e} outside (0, 1)", o.tolerance),
            });
        }
        if o.precond_block == 0 || o.precond_block > 4096 {
            return Err(SolverError::InvalidOptions {
                detail: format!(
                    "preconditioner block size {} outside 1..=4096",
                    o.precond_block
                ),
            });
        }
        Ok(o)
    }
}

/// Result of a successful CG solve.
#[derive(Debug, Clone)]
pub struct CgSolution {
    /// The computed solution vector.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `||b - A x|| / ||b||`.
    pub relative_residual: f64,
    /// Per-iteration residual norms, if requested via
    /// [`CgOptions::record_history`].
    pub residual_history: Vec<f64>,
}

/// Preconditioned conjugate-gradient solver for symmetric
/// positive-definite systems.
///
/// This is the solver used for static IR-drop analysis: the MNA
/// conductance matrix of a power grid (with the voltage-source nodes
/// eliminated) is SPD and diagonally dominant, the regime in which CG
/// with a Jacobi or IC(0) preconditioner converges quickly.
///
/// # Example
///
/// ```
/// use ppdl_solver::{TripletMatrix, ConjugateGradient, CgOptions, PrecondKind};
///
/// let mut t = TripletMatrix::new(3, 3);
/// t.stamp_conductance(0, 1, 1.0);
/// t.stamp_conductance(1, 2, 1.0);
/// t.stamp_grounded_conductance(0, 1.0);
/// let a = t.to_csr();
/// let b = vec![0.0, 0.0, 1.0]; // 1 A injected at the far node
///
/// let options = CgOptions::builder()
///     .precond(PrecondKind::Ic0)
///     .try_build()
///     .unwrap();
/// let cg = ConjugateGradient::new(options);
/// let sol = cg.solve(&a, &b).unwrap();
/// // Voltages accumulate along the chain: 1, 2, 3 volts.
/// assert!((sol.x[2] - 3.0).abs() < 1e-7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConjugateGradient {
    options: CgOptions,
}

impl ConjugateGradient {
    /// Creates a solver with the given options.
    #[must_use]
    pub fn new(options: CgOptions) -> Self {
        Self { options }
    }

    /// Returns the configured options.
    #[must_use]
    pub fn options(&self) -> &CgOptions {
        &self.options
    }

    /// Solves `A x = b` starting from `x = 0`, building the
    /// preconditioner selected by [`CgOptions::precond`].
    ///
    /// # Errors
    ///
    /// * [`SolverError::DimensionMismatch`] — shapes are inconsistent.
    /// * [`SolverError::DidNotConverge`] — the iteration cap was reached
    ///   before the residual dropped below tolerance.
    /// * [`SolverError::NonFiniteValue`] — the recurrence produced a NaN
    ///   or infinity (e.g. the matrix is not SPD).
    /// * [`SolverError::NotPositiveDefinite`] — the preconditioner could
    ///   not be built from `a`.
    pub fn solve(&self, a: &CsrMatrix, b: &[f64]) -> crate::Result<CgSolution> {
        let x0 = vec![0.0; b.len()];
        self.solve_with_guess(a, b, x0)
    }

    /// Solves `A x = b` starting from a caller-provided initial guess —
    /// the warm-start path the iterative design loop uses between sizing
    /// rounds, where consecutive solves differ only slightly. The
    /// preconditioner is built per call from [`CgOptions::precond`];
    /// callers that reuse one factorization across many solves should
    /// build it once and use
    /// [`solve_with_guess_using`](Self::solve_with_guess_using).
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_with_guess(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: Vec<f64>,
    ) -> crate::Result<CgSolution> {
        let precond = self.options.precond.build(a, self.options.precond_block)?;
        self.solve_core(a, b, &precond, x)
    }

    /// Solves `A x = b` from `x = 0` with an explicit, caller-built
    /// preconditioner. This is the escape hatch for custom
    /// [`Preconditioner`] implementations and for amortizing one
    /// factorization over many right-hand sides; everything else should
    /// let [`solve`](Self::solve) build from [`CgOptions::precond`].
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), minus the build errors.
    pub fn solve_using(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        precond: &dyn Preconditioner,
    ) -> crate::Result<CgSolution> {
        let x0 = vec![0.0; b.len()];
        self.solve_core(a, b, precond, x0)
    }

    /// Warm-start variant of [`solve_using`](Self::solve_using).
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), minus the build errors.
    pub fn solve_with_guess_using(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        precond: &dyn Preconditioner,
        x: Vec<f64>,
    ) -> crate::Result<CgSolution> {
        self.solve_core(a, b, precond, x)
    }

    /// The PCG iteration shared by every public entry point.
    fn solve_core(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        precond: &dyn Preconditioner,
        mut x: Vec<f64>,
    ) -> crate::Result<CgSolution> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!("cg requires a square matrix, got {}x{}", n, a.ncols()),
            });
        }
        if b.len() != n || x.len() != n || precond.dim() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "cg: matrix dim {n}, b {}, x0 {}, preconditioner {}",
                    b.len(),
                    x.len(),
                    precond.dim()
                ),
            });
        }
        if !all_finite(b) {
            return Err(SolverError::NonFiniteValue {
                context: "cg right-hand side".into(),
            });
        }

        let bnorm = norm2(b);
        if bnorm == 0.0 {
            // Homogeneous system with SPD matrix: the solution is zero.
            record_converged_solve(0, 0.0);
            return Ok(CgSolution {
                x: vec![0.0; n],
                iterations: 0,
                relative_residual: 0.0,
                residual_history: Vec::new(),
            });
        }

        let max_iter = if self.options.max_iterations == 0 {
            // CG converges in at most n steps in exact arithmetic; give
            // some slack for floating point.
            2 * n + 50
        } else {
            self.options.max_iterations
        };

        // r = b - A x
        let mut r = a.residual(&x, b)?;
        let mut z = vec![0.0; n];
        precond.apply(&r, &mut z)?;
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        let mut ap = vec![0.0; n];
        let mut history = Vec::new();

        let mut resid = norm2(&r) / bnorm;
        if self.options.record_history {
            history.push(resid);
        }
        if resid <= self.options.tolerance {
            record_converged_solve(0, resid);
            return Ok(CgSolution {
                x,
                iterations: 0,
                relative_residual: resid,
                residual_history: history,
            });
        }

        for iter in 1..=max_iter {
            a.mul_vec_into(&p, &mut ap)?;
            let pap = dot(&p, &ap);
            if pap <= 0.0 || !pap.is_finite() {
                return Err(SolverError::NonFiniteValue {
                    context: format!("cg iteration {iter}: p·Ap = {pap:e} (matrix not SPD?)"),
                });
            }
            let alpha = rz / pap;
            axpy(alpha, &p, &mut x);
            axpy(-alpha, &ap, &mut r);

            resid = norm2(&r) / bnorm;
            if self.options.record_history {
                history.push(resid);
            }
            if resid <= self.options.tolerance {
                record_converged_solve(iter, resid);
                return Ok(CgSolution {
                    x,
                    iterations: iter,
                    relative_residual: resid,
                    residual_history: history,
                });
            }

            precond.apply(&r, &mut z)?;
            let rz_new = dot(&r, &z);
            if !rz_new.is_finite() {
                return Err(SolverError::NonFiniteValue {
                    context: format!("cg iteration {iter}: r·z"),
                });
            }
            let beta = rz_new / rz;
            rz = rz_new;
            xpby(&z, beta, &mut p);
        }

        ppdl_obs::counter_add("solver/cg/no_converge", 1);
        Err(SolverError::DidNotConverge {
            iterations: max_iter,
            residual: resid,
            tolerance: self.options.tolerance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdentityPreconditioner, IncompleteCholesky, TripletMatrix};

    fn chain(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        t.stamp_grounded_conductance(0, 1.0);
        t.to_csr()
    }

    /// 2-D grid Laplacian with one grounded corner — the structure of a
    /// single-layer power grid.
    fn grid2d(side: usize) -> CsrMatrix {
        let n = side * side;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                if c + 1 < side {
                    t.stamp_conductance(i, i + 1, 1.0);
                }
                if r + 1 < side {
                    t.stamp_conductance(i, i + side, 1.0);
                }
            }
        }
        t.stamp_grounded_conductance(0, 2.0);
        t.to_csr()
    }

    fn with_precond(kind: PrecondKind) -> ConjugateGradient {
        ConjugateGradient::new(CgOptions {
            precond: kind,
            ..CgOptions::default()
        })
    }

    #[test]
    fn solves_chain_exactly() {
        let a = chain(4);
        let b = vec![0.0, 0.0, 0.0, 1.0];
        let cg = with_precond(PrecondKind::Identity);
        let sol = cg.solve(&a, &b).unwrap();
        for (i, &v) in sol.x.iter().enumerate() {
            assert!((v - (i as f64 + 1.0)).abs() < 1e-7, "node {i}: {v}");
        }
        assert!(sol.relative_residual <= 1e-9);
    }

    #[test]
    fn zero_rhs_returns_zero_instantly() {
        let a = chain(5);
        let cg = ConjugateGradient::default();
        let sol = cg.solve(&a, &[0.0; 5]).unwrap();
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.x, vec![0.0; 5]);
    }

    #[test]
    fn matches_dense_cholesky_on_grid() {
        let a = grid2d(6);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 * 0.1).collect();
        let cg = ConjugateGradient::new(CgOptions {
            tolerance: 1e-12,
            ..CgOptions::default()
        });
        let sol = cg.solve(&a, &b).unwrap();
        let dense = a.to_dense().cholesky().unwrap().solve(&b).unwrap();
        for (u, v) in sol.x.iter().zip(&dense) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn every_precond_kind_solves_the_same_system() {
        let a = grid2d(8);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) % 9) as f64 * 0.25).collect();
        let reference = a.to_dense().cholesky().unwrap().solve(&b).unwrap();
        for kind in PrecondKind::ALL {
            let cg = ConjugateGradient::new(
                CgOptions::builder()
                    .tolerance(1e-11)
                    .precond(kind)
                    .precond_block(16)
                    .try_build()
                    .unwrap(),
            );
            let sol = cg.solve(&a, &b).unwrap();
            for (u, v) in sol.x.iter().zip(&reference) {
                assert!((u - v).abs() < 1e-7, "{kind}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn stronger_preconditioners_cut_iterations() {
        let a = grid2d(12);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.2 + 0.1).collect();
        let iters = |kind| {
            let cg = ConjugateGradient::new(CgOptions {
                tolerance: 1e-10,
                precond: kind,
                ..CgOptions::default()
            });
            cg.solve(&a, &b).unwrap().iterations
        };
        let plain = iters(PrecondKind::Identity);
        let block = iters(PrecondKind::BlockJacobi);
        let ic = iters(PrecondKind::Ic0);
        assert!(ic < plain, "IC(0) {ic} iters vs plain {plain}");
        assert!(block < plain, "block-Jacobi {block} iters vs plain {plain}");
    }

    #[test]
    fn warm_start_takes_fewer_iterations() {
        let a = grid2d(10);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.3).collect();
        let cg = ConjugateGradient::new(CgOptions {
            tolerance: 1e-10,
            ..CgOptions::default()
        });
        let cold = cg.solve(&a, &b).unwrap();
        // Perturb b slightly and warm-start from the previous solution.
        let b2: Vec<f64> = b.iter().map(|v| v * 1.01).collect();
        let warm = cg.solve_with_guess(&a, &b2, cold.x.clone()).unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn solve_using_amortizes_one_factorization() {
        // Explicit-preconditioner path must agree bitwise with the
        // options-built path for the same kind.
        let a = grid2d(7);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 4) as f64 + 0.5).collect();
        let cg = with_precond(PrecondKind::Ic0);
        let built = cg.solve(&a, &b).unwrap();
        let ic = IncompleteCholesky::from_matrix(&a).unwrap();
        let explicit = cg.solve_using(&a, &b, &ic).unwrap();
        assert_eq!(built.x, explicit.x);
        assert_eq!(built.iterations, explicit.iterations);
    }

    #[test]
    fn builder_sets_every_knob() {
        let o = CgOptions::builder()
            .tolerance(1e-6)
            .max_iterations(77)
            .record_history(true)
            .precond(PrecondKind::BlockJacobi)
            .precond_block(32)
            .build();
        assert_eq!(
            o,
            CgOptions {
                tolerance: 1e-6,
                max_iterations: 77,
                record_history: true,
                precond: PrecondKind::BlockJacobi,
                precond_block: 32,
            }
        );
    }

    #[test]
    fn try_build_rejects_out_of_range_knobs() {
        for bad in [0.0, -1e-9, f64::NAN, f64::INFINITY, 1.0] {
            let err = CgOptions::builder().tolerance(bad).try_build().unwrap_err();
            assert!(matches!(err, SolverError::InvalidOptions { .. }), "{bad}");
        }
        for bad in [0usize, 4097] {
            let err = CgOptions::builder()
                .precond_block(bad)
                .try_build()
                .unwrap_err();
            assert!(matches!(err, SolverError::InvalidOptions { .. }), "{bad}");
        }
        assert!(CgOptions::builder().try_build().is_ok());
    }

    #[test]
    fn default_options_use_jacobi() {
        let o = CgOptions::default();
        assert_eq!(o.precond, PrecondKind::Jacobi);
        assert_eq!(o.precond_block, DEFAULT_PRECOND_BLOCK);
    }

    #[test]
    fn iteration_cap_reports_nonconvergence() {
        let a = grid2d(8);
        let n = a.nrows();
        let b = vec![1.0; n];
        let cg = ConjugateGradient::new(CgOptions {
            tolerance: 1e-14,
            max_iterations: 2,
            precond: PrecondKind::Identity,
            ..CgOptions::default()
        });
        let err = cg.solve(&a, &b).unwrap_err();
        assert!(matches!(
            err,
            SolverError::DidNotConverge { iterations: 2, .. }
        ));
    }

    #[test]
    fn residual_history_is_recorded_and_decreases_overall() {
        let a = grid2d(5);
        let n = a.nrows();
        let b = vec![1.0; n];
        let cg = ConjugateGradient::new(CgOptions {
            record_history: true,
            ..CgOptions::default()
        });
        let sol = cg.solve(&a, &b).unwrap();
        assert_eq!(sol.residual_history.len(), sol.iterations + 1);
        assert!(sol.residual_history.last().unwrap() < sol.residual_history.first().unwrap());
    }

    #[test]
    fn rejects_non_spd_direction() {
        // Symmetric but indefinite matrix: CG must detect p·Ap <= 0.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, -1.0);
        let a = t.to_csr();
        let cg = with_precond(PrecondKind::Identity);
        let err = cg.solve(&a, &[0.0, 1.0]).unwrap_err();
        assert!(matches!(err, SolverError::NonFiniteValue { .. }));
    }

    #[test]
    fn rejects_nan_rhs() {
        let a = chain(3);
        let cg = ConjugateGradient::default();
        let err = cg.solve(&a, &[1.0, f64::NAN, 0.0]).unwrap_err();
        assert!(matches!(err, SolverError::NonFiniteValue { .. }));
    }

    #[test]
    fn dim_mismatch_rejected() {
        let a = chain(3);
        let cg = ConjugateGradient::default();
        assert!(cg.solve(&a, &[1.0, 2.0]).is_err());
        // Explicit-preconditioner path checks the preconditioner dim too.
        assert!(cg
            .solve_using(&a, &[1.0, 2.0, 3.0], &IdentityPreconditioner::new(2))
            .is_err());
    }
}

use crate::precond::BuiltPreconditioner;
use crate::vecops::{all_finite, axpy, dot, norm2, xpby};
use crate::{CsrMatrix, PrecondKind, SolverError};

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
/// generic parameter — see [`ConjugateGradient::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance: the solve stops when
    /// `||b - A x|| <= tolerance * ||b||`.
    pub tolerance: f64,
    /// Hard iteration cap. `0` means "dimension of the system".
    pub max_iterations: usize,
    /// Which preconditioner [`ConjugateGradient::solve`] builds.
    pub precond: PrecondKind,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_iterations: 0,
            precond: PrecondKind::default(),
        }
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
/// let cg = ConjugateGradient::new(CgOptions {
///     precond: PrecondKind::Ic0,
///     ..CgOptions::default()
/// });
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
        let precond = self.options.precond.build(a)?;
        self.solve_core(a, b, &precond)
    }

    /// The PCG iteration behind [`solve`](Self::solve), from `x = 0`.
    fn solve_core(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        precond: &BuiltPreconditioner,
    ) -> crate::Result<CgSolution> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!("cg requires a square matrix, got {}x{}", n, a.ncols()),
            });
        }
        if b.len() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!("cg: matrix dim {n}, b {}", b.len()),
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
        let mut x = vec![0.0; n];
        let mut r = a.residual(&x, b)?;
        let mut z = vec![0.0; n];
        precond.apply(&r, &mut z)?;
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        let mut ap = vec![0.0; n];

        let mut resid = norm2(&r) / bnorm;
        if resid <= self.options.tolerance {
            record_converged_solve(0, resid);
            return Ok(CgSolution {
                x,
                iterations: 0,
                relative_residual: resid,
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
            if resid <= self.options.tolerance {
                record_converged_solve(iter, resid);
                return Ok(CgSolution {
                    x,
                    iterations: iter,
                    relative_residual: resid,
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
    use crate::TripletMatrix;

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
            let cg = ConjugateGradient::new(CgOptions {
                tolerance: 1e-11,
                precond: kind,
                ..CgOptions::default()
            });
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
    fn default_options_use_jacobi() {
        let o = CgOptions::default();
        assert_eq!(o.precond, PrecondKind::Jacobi);
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
        });
        let err = cg.solve(&a, &b).unwrap_err();
        assert!(matches!(
            err,
            SolverError::DidNotConverge { iterations: 2, .. }
        ));
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
    }
}

use crate::{CsrMatrix, SolverError};

/// Sparse Cholesky factorization `A = L Lᵀ` for symmetric
/// positive-definite matrices, in up-looking row form: row `i`'s
/// pattern is discovered by walking the elimination tree from the
/// nonzeros of `A(i, 0..i)`, then computed by a sparse triangular
/// solve against the rows already factored.
///
/// No fill-reducing ordering is applied (AMD/ND are out of scope for
/// this reproduction), so fill-in on 2-D grid matrices grows as
/// roughly O(n^1.5); the factorization is intended for the
/// small-to-medium systems where an exact solve is convenient. It is
/// the [`PrecondKind::Direct`](crate::PrecondKind::Direct)
/// preconditioner, with which CG converges in one iteration, and an
/// oracle against the iterative solvers.
///
/// # Example
///
/// ```
/// use ppdl_solver::{SparseCholesky, TripletMatrix};
///
/// let mut t = TripletMatrix::new(3, 3);
/// t.stamp_conductance(0, 1, 1.0);
/// t.stamp_conductance(1, 2, 2.0);
/// t.stamp_grounded_conductance(0, 0.5);
/// let a = t.to_csr();
/// let chol = SparseCholesky::factor(&a).unwrap();
/// let x = chol.solve(&[0.0, 0.0, 1.0]).unwrap();
/// // 1 A into node 2 -> drops accumulate: 2, 3, 3.5 V.
/// assert!((x[0] - 2.0).abs() < 1e-10);
/// assert!((x[2] - 3.5).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    /// Strictly-lower factor rows, compressed; columns ascending.
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
    /// `L[i][i]`.
    diag: Vec<f64>,
}

impl SparseCholesky {
    /// Factors a symmetric positive-definite matrix. Only the lower
    /// triangle of `a` is read; symmetry is the caller's contract
    /// (assembled MNA matrices always satisfy it).
    ///
    /// # Errors
    ///
    /// * [`SolverError::DimensionMismatch`] — non-square input.
    /// * [`SolverError::NotPositiveDefinite`] — a pivot is not strictly
    ///   positive.
    pub fn factor(a: &CsrMatrix) -> crate::Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!("sparse cholesky of non-square {}x{}", n, a.ncols()),
            });
        }

        let mut parent = vec![usize::MAX; n]; // elimination tree
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices: Vec<usize> = Vec::new();
        let mut data: Vec<f64> = Vec::new();
        let mut diag = vec![0.0; n];

        let mut x = vec![0.0; n]; // dense scratch, zero outside the loop
        let mut marked = vec![usize::MAX; n]; // marked[t] == i -> in row i's pattern
        let mut pattern: Vec<usize> = Vec::with_capacity(64);

        indptr.push(0);
        for i in 0..n {
            // Discover the pattern of L(i, 0..i): the union of etree
            // paths from every structural nonzero of A(i, 0..i). The
            // first row to reach an unparented node becomes its etree
            // parent.
            pattern.clear();
            let mut aii = 0.0;
            for (j, v) in a.row(i) {
                match j.cmp(&i) {
                    std::cmp::Ordering::Greater => continue,
                    std::cmp::Ordering::Equal => {
                        aii = v;
                        continue;
                    }
                    std::cmp::Ordering::Less => {}
                }
                x[j] += v;
                let mut t = j;
                while t < i && marked[t] != i {
                    marked[t] = i;
                    pattern.push(t);
                    if parent[t] == usize::MAX {
                        parent[t] = i;
                    }
                    t = parent[t];
                }
            }
            pattern.sort_unstable();

            // Sparse forward solve over the pattern:
            //   L_ij = (x_j - sum_{m<j} L_jm * L_im) / L_jj
            // Row j of L is already stored, so the inner sum is a
            // gather against the current row's partial values in x.
            let mut sq = 0.0;
            for &j in &pattern {
                let mut s = x[j];
                for idx in indptr[j]..indptr[j + 1] {
                    s -= data[idx] * x[indices[idx]];
                }
                let lij = s / diag[j];
                x[j] = lij;
                sq += lij * lij;
            }
            let d = aii - sq;
            if d <= 0.0 || !d.is_finite() {
                // Clean the scratch before bailing out.
                for &j in &pattern {
                    x[j] = 0.0;
                }
                return Err(SolverError::NotPositiveDefinite { pivot: i, value: d });
            }
            diag[i] = d.sqrt();
            for &j in &pattern {
                indices.push(j);
                data.push(x[j]);
                x[j] = 0.0;
            }
            indptr.push(indices.len());
        }

        Ok(Self {
            n,
            indptr,
            indices,
            data,
            diag,
        })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored strictly-lower entries (a fill measure).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Solves `A x = b` by forward and backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> crate::Result<Vec<f64>> {
        let n = self.n;
        if b.len() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!("sparse cholesky solve: dim {n}, b has length {}", b.len()),
            });
        }
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for idx in self.indptr[i]..self.indptr[i + 1] {
                s -= self.data[idx] * y[self.indices[idx]];
            }
            y[i] = s / self.diag[i];
        }
        // Backward: Lᵀ x = y, scattering row i into earlier columns.
        for i in (0..n).rev() {
            y[i] /= self.diag[i];
            let yi = y[i];
            for idx in self.indptr[i]..self.indptr[i + 1] {
                y[self.indices[idx]] -= self.data[idx] * yi;
            }
        }
        Ok(y)
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

    fn grid2d(side: usize) -> CsrMatrix {
        let n = side * side;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                if c + 1 < side {
                    t.stamp_conductance(i, i + 1, 1.0 + (i % 3) as f64 * 0.2);
                }
                if r + 1 < side {
                    t.stamp_conductance(i, i + side, 1.0 + (i % 5) as f64 * 0.1);
                }
            }
        }
        t.stamp_grounded_conductance(0, 2.0);
        t.stamp_grounded_conductance(n - 1, 1.5);
        t.to_csr()
    }

    #[test]
    fn tridiagonal_has_no_fill() {
        let a = chain(20);
        let chol = SparseCholesky::factor(&a).unwrap();
        // A tridiagonal matrix factors with exactly one sub-diagonal
        // entry per row after the first.
        assert_eq!(chol.nnz(), 19);
    }

    #[test]
    fn matches_dense_cholesky() {
        let a = grid2d(7);
        let chol = SparseCholesky::factor(&a).unwrap();
        let dense = a.to_dense().cholesky().unwrap();
        let b: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 13 + 5) % 17) as f64 * 0.1)
            .collect();
        let xs = chol.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-9, "{s} vs {d}");
        }
    }

    #[test]
    fn matches_cg() {
        use crate::{CgOptions, ConjugateGradient};
        let a = grid2d(9);
        let chol = SparseCholesky::factor(&a).unwrap();
        let b = vec![0.25; a.nrows()];
        let xs = chol.solve(&b).unwrap();
        let cg = ConjugateGradient::new(CgOptions {
            tolerance: 1e-12,
            ..CgOptions::default()
        });
        let xc = cg.solve(&a, &b).unwrap().x;
        for (s, c) in xs.iter().zip(&xc) {
            assert!((s - c).abs() < 1e-7);
        }
    }

    #[test]
    fn residual_is_tiny() {
        let a = grid2d(10);
        let chol = SparseCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let x = chol.solve(&b).unwrap();
        let r = a.residual(&x, &b).unwrap();
        let rel = crate::vecops::norm2(&r) / crate::vecops::norm2(&b);
        assert!(rel < 1e-12, "relative residual {rel}");
    }

    #[test]
    fn rejects_indefinite() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 1.0);
        let err = SparseCholesky::factor(&t.to_csr()).unwrap_err();
        assert!(matches!(err, SolverError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn rejects_non_square() {
        let t = TripletMatrix::new(2, 3);
        assert!(SparseCholesky::factor(&t.to_csr()).is_err());
    }

    #[test]
    fn solve_length_checked() {
        let a = chain(4);
        let chol = SparseCholesky::factor(&a).unwrap();
        assert!(chol.solve(&[1.0, 2.0]).is_err());
        assert_eq!(chol.dim(), 4);
    }

    #[test]
    fn disconnected_blocks_factor_independently() {
        // Two separate chains, each grounded: block-diagonal SPD.
        let mut t = TripletMatrix::new(6, 6);
        t.stamp_conductance(0, 1, 1.0);
        t.stamp_conductance(1, 2, 1.0);
        t.stamp_grounded_conductance(0, 1.0);
        t.stamp_conductance(3, 4, 2.0);
        t.stamp_conductance(4, 5, 2.0);
        t.stamp_grounded_conductance(3, 2.0);
        let a = t.to_csr();
        let chol = SparseCholesky::factor(&a).unwrap();
        let x = chol.solve(&[0.0, 0.0, 1.0, 0.0, 0.0, 1.0]).unwrap();
        // First chain: drops 1, 2, 3; second chain: 0.5, 1.0, 1.5.
        assert!((x[2] - 3.0).abs() < 1e-10);
        assert!((x[5] - 1.5).abs() < 1e-10);
        // No fill across the blocks.
        assert_eq!(chol.nnz(), 4);
    }
}

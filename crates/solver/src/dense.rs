use crate::SolverError;

/// Row-major dense matrix.
///
/// Used for small MNA systems (a handful of straps), as the test oracle
/// for the sparse path, and inside block-Jacobi's per-block Cholesky.
///
/// # Example
///
/// ```
/// use ppdl_solver::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
/// let chol = a.cholesky().unwrap();
/// let x = chol.solve(&[1.0, 2.0]).unwrap();
/// assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape.
    #[must_use]
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates an identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> crate::Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(SolverError::DimensionMismatch {
                    detail: format!("row {i} has length {}, expected {ncols}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { nrows, ncols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.nrows && c < self.ncols, "dense get out of bounds");
        self.data[r * self.ncols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.nrows && c < self.ncols, "dense set out of bounds");
        self.data[r * self.ncols + c] = v;
    }

    /// Adds `v` to the element at `(r, c)` (stamping accumulation).
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.nrows && c < self.ncols, "dense add out of bounds");
        self.data[r * self.ncols + c] += v;
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> crate::Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "dense mul_vec: matrix is {}x{}, vector has length {}",
                    self.nrows,
                    self.ncols,
                    x.len()
                ),
            });
        }
        Ok((0..self.nrows)
            .map(|r| {
                let row = &self.data[r * self.ncols..(r + 1) * self.ncols];
                crate::vecops::dot(row, x)
            })
            .collect())
    }

    /// Cholesky factorization `A = L Lᵀ` for symmetric positive-definite
    /// matrices.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if the matrix is not
    /// square, or [`SolverError::NotPositiveDefinite`] if a pivot is not
    /// strictly positive.
    pub fn cholesky(&self) -> crate::Result<DenseCholesky> {
        if self.nrows != self.ncols {
            return Err(SolverError::DimensionMismatch {
                detail: format!("cholesky of non-square {}x{}", self.nrows, self.ncols),
            });
        }
        let n = self.nrows;
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            let mut d = self.get(j, j);
            for k in 0..j {
                d -= l[j * n + k] * l[j * n + k];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(SolverError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            l[j * n + j] = dj;
            for i in (j + 1)..n {
                let mut s = self.get(i, j);
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = s / dj;
            }
        }
        // Mirror `L` into the upper triangle: `Lᵀ`'s rows, which the
        // backward substitution reads.
        for i in 0..n {
            for k in (i + 1)..n {
                l[i * n + k] = l[k * n + i];
            }
        }
        Ok(DenseCholesky { n, l })
    }
}

/// Dense Cholesky factorization of a symmetric positive-definite matrix.
///
/// Produced by [`DenseMatrix::cholesky`]; solves `A x = b` by forward and
/// backward substitution.
#[derive(Debug, Clone)]
pub struct DenseCholesky {
    n: usize,
    /// The factor `L`, row-major, with `Lᵀ` in the upper triangle:
    /// entry `(i, k)` is `L[i][k]` for `k ≤ i` and `L[k][i]` for
    /// `k > i`, so both substitutions walk rows.
    l: Vec<f64>,
}

impl DenseCholesky {
    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` into a new vector; see
    /// [`solve_in_place`](Self::solve_in_place).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> crate::Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: `x` holds `b` on entry and the
    /// solution on return. Each entry subtracts its terms in ascending
    /// column order, forward then backward, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `x.len() != dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) -> crate::Result<()> {
        let n = self.n;
        if x.len() != n {
            return Err(SolverError::DimensionMismatch {
                detail: format!("cholesky solve: dim {n}, b has length {}", x.len()),
            });
        }
        // Forward: L y = b, reading row i of L.
        for i in 0..n {
            let row = &self.l[i * n..(i + 1) * n];
            let mut s = x[i];
            for (lik, xk) in row[..i].iter().zip(&x[..i]) {
                s -= lik * xk;
            }
            x[i] = s / row[i];
        }
        // Backward: Lᵀ x = y, reading row i of Lᵀ.
        for i in (0..n).rev() {
            let row = &self.l[i * n..(i + 1) * n];
            let mut s = x[i];
            for (lki, xk) in row[i + 1..].iter().zip(&x[i + 1..]) {
                s -= lki * xk;
            }
            x[i] = s / row[i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_get() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn from_rows_ragged_rejected() {
        let err = DenseMatrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, SolverError::DimensionMismatch { .. }));
    }

    #[test]
    fn mul_vec_identity() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.mul_vec(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn add_to_accumulates() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.add_to(0, 0, 1.5);
        m.add_to(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 4.0);
    }

    #[test]
    fn cholesky_solves_spd() {
        let a = DenseMatrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let chol = a.cholesky().unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = chol.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-9, "residual too large");
        }
    }

    /// Reference: the same substitution order, reading only the lower
    /// triangle (the backward pass walks `L` by column).
    fn column_walk_solve(chol: &DenseCholesky, b: &[f64]) -> Vec<f64> {
        let (n, l) = (chol.n, &chol.l);
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= l[i * n + k] * y[k];
            }
            y[i] /= l[i * n + i];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= l[k * n + i] * y[k];
            }
            y[i] /= l[i * n + i];
        }
        y
    }

    #[test]
    fn in_place_solve_matches_the_column_walk_bit_for_bit() {
        for n in [1usize, 2, 7, 64, 150] {
            // A diagonally dominant SPD matrix with irregular entries.
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..i {
                    let v = -(((i * 31 + j * 17) % 13) as f64 + 0.37) / (n as f64 * 7.0);
                    a.set(i, j, v);
                    a.set(j, i, v);
                }
                a.set(i, i, 2.0 + ((i * 7) % 5) as f64 * 0.3);
            }
            let chol = a.cholesky().unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 9) as f64 * 0.21 - 0.8).collect();
            let mut x = b.clone();
            chol.solve_in_place(&mut x).unwrap();
            let reference = column_walk_solve(&chol, &b);
            assert_eq!(
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "n = {n}"
            );
            assert_eq!(chol.solve(&b).unwrap(), x);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let err = a.cholesky().unwrap_err();
        assert!(matches!(err, SolverError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn solve_wrong_rhs_length() {
        let a = DenseMatrix::identity(2);
        assert!(a.cholesky().unwrap().solve(&[1.0]).is_err());
    }
}

use crate::{SolverError, TripletMatrix};

/// Cached SpMV telemetry handles (`calls`, `elements`): the kernel runs
/// once per CG iteration, so the registry lookup happens once per
/// process, not per call.
fn spmv_counters() -> &'static (ppdl_obs::Counter, ppdl_obs::Counter) {
    static COUNTERS: std::sync::OnceLock<(ppdl_obs::Counter, ppdl_obs::Counter)> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = ppdl_obs::global();
        (
            reg.counter("solver/spmv/calls"),
            reg.counter("solver/spmv/elements"),
        )
    })
}

/// Compressed-sparse-row matrix.
///
/// The workhorse storage format for the assembled MNA conductance matrix.
/// Rows are stored contiguously; within each row, column indices are
/// strictly increasing. Construct one either from a [`TripletMatrix`]
/// (the usual path when stamping a circuit) or from validated raw parts.
///
/// # Example
///
/// ```
/// use ppdl_solver::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.stamp_conductance(0, 1, 2.0);
/// let a = t.to_csr();
/// let y = a.mul_vec(&[1.0, 0.0]).unwrap();
/// assert_eq!(y, vec![2.0, -2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
    /// Cached diagonal (empty for non-square matrices). Computed once at
    /// construction; the matrix is immutable, so no invalidation exists.
    diag: Vec<f64>,
    /// Cached row-nnz profile: the widest row, used to dispatch SpMV
    /// between the interleaved short-row kernel and the general one.
    max_row_nnz: usize,
}

/// Rows at or below this many stored entries take the 4-row interleaved
/// SpMV kernel; the serial per-row accumulation chain of such short rows
/// (a 2-D grid stencil has ≤ 5) is too short to hide load latency, so
/// four independent row accumulators run in lockstep instead. Each
/// row's own accumulation order is unchanged, keeping the result
/// bitwise identical to the general kernel.
const SPMV_INTERLEAVE_MAX_ROW_NNZ: usize = 16;

impl CsrMatrix {
    /// Finishes construction from validated parts: computes the cached
    /// diagonal and row-nnz profile. Every constructor funnels through
    /// here so the caches always exist.
    fn assemble(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        let max_row_nnz = indptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let diag = if nrows == ncols {
            let mut d = vec![0.0; nrows];
            for (r, dr) in d.iter_mut().enumerate() {
                let row = &indices[indptr[r]..indptr[r + 1]];
                if let Ok(pos) = row.binary_search(&r) {
                    *dr = data[indptr[r] + pos];
                }
            }
            d
        } else {
            Vec::new()
        };
        Self {
            nrows,
            ncols,
            indptr,
            indices,
            data,
            diag,
            max_row_nnz,
        }
    }

    /// Builds a CSR matrix from raw parts, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `indptr` does not
    /// have `nrows + 1` monotonically non-decreasing entries ending at
    /// `indices.len()`, if `indices` and `data` differ in length, if any
    /// column index is out of range, or if columns within a row are not
    /// strictly increasing.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> crate::Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "indptr length {} != nrows + 1 = {}",
                    indptr.len(),
                    nrows + 1
                ),
            });
        }
        if indices.len() != data.len() {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "indices length {} != data length {}",
                    indices.len(),
                    data.len()
                ),
            });
        }
        if indptr.first() != Some(&0) || indptr.last() != Some(&indices.len()) {
            return Err(SolverError::DimensionMismatch {
                detail: "indptr must start at 0 and end at nnz".into(),
            });
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(SolverError::DimensionMismatch {
                    detail: "indptr must be non-decreasing".into(),
                });
            }
        }
        for r in 0..nrows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return Err(SolverError::DimensionMismatch {
                        detail: format!("columns in row {r} not strictly increasing"),
                    });
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SolverError::IndexOutOfBounds {
                        row: r,
                        col: last,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(Self::assemble(nrows, ncols, indptr, indices, data))
    }

    /// Builds an `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self::assemble(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
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

    /// Number of stored (structurally nonzero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Returns the stored value at `(row, col)`, or `0.0` if the entry is
    /// structurally zero.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows && col < self.ncols, "get out of bounds");
        let lo = self.indptr[row];
        let hi = self.indptr[row + 1];
        match self.indices[lo..hi].binary_search(&col) {
            Ok(pos) => self.data[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(col, value)` pairs of one row, in increasing column
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `row >= nrows`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.nrows, "row out of bounds");
        let lo = self.indptr[row];
        let hi = self.indptr[row + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.data[lo..hi].iter().copied())
    }

    /// Number of stored entries in one row.
    #[must_use]
    pub fn row_nnz(&self, row: usize) -> usize {
        self.indptr[row + 1] - self.indptr[row]
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> crate::Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "spmv: matrix is {}x{}, vector has length {}",
                    self.nrows,
                    self.ncols,
                    x.len()
                ),
            });
        }
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y)?;
        Ok(y)
    }

    /// Matrix–vector product writing into a preallocated output buffer.
    /// This is the allocation-free kernel the CG loop uses.
    ///
    /// Rows are computed in parallel when the matrix is at least
    /// [`crate::parallel::par_threshold`] rows tall; each output element
    /// is a single row's accumulation regardless of the split, so the
    /// result is bitwise identical at every thread count. Within a
    /// chunk the kernel dispatches on the cached row-nnz profile:
    /// matrices whose widest row holds at most 16 entries (the
    /// grid-stencil regime) take a 4-row interleaved kernel that
    /// overlaps four independent accumulation chains; wider rows take
    /// the general per-row loop. Both produce identical bits — each row is always
    /// one serial ascending-column accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] on shape mismatch.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) -> crate::Result<()> {
        if x.len() != self.ncols || y.len() != self.nrows {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "spmv into: matrix is {}x{}, x has length {}, y has length {}",
                    self.nrows,
                    self.ncols,
                    x.len(),
                    y.len()
                ),
            });
        }
        if ppdl_obs::enabled() {
            let (calls, elements) = spmv_counters();
            calls.inc();
            elements.add(self.nnz() as u64);
        }
        if self.max_row_nnz <= SPMV_INTERLEAVE_MAX_ROW_NNZ {
            crate::parallel::par_chunks_mut(y, |row0, out| {
                self.spmv_rows_interleaved(x, row0, out);
            });
        } else {
            crate::parallel::par_chunks_mut(y, |row0, out| {
                self.spmv_rows_general(x, row0, out);
            });
        }
        Ok(())
    }

    /// General SpMV over rows `row0..row0 + out.len()`: one serial
    /// accumulation chain per row, in ascending column order.
    fn spmv_rows_general(&self, x: &[f64], row0: usize, out: &mut [f64]) {
        for (i, yi) in out.iter_mut().enumerate() {
            let r = row0 + i;
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.data[k] * x[self.indices[k]];
            }
            *yi = acc;
        }
    }

    /// Short-row SpMV: walks four rows in lockstep so four independent
    /// accumulation chains are in flight, hiding the gather latency
    /// that dominates stencil-width rows. Each accumulator still adds
    /// its own row's entries in ascending column order, so every output
    /// element is bitwise identical to [`Self::spmv_rows_general`].
    fn spmv_rows_interleaved(&self, x: &[f64], row0: usize, out: &mut [f64]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            let r = row0 + i;
            let (s0, e0) = (self.indptr[r], self.indptr[r + 1]);
            let (s1, e1) = (self.indptr[r + 1], self.indptr[r + 2]);
            let (s2, e2) = (self.indptr[r + 2], self.indptr[r + 3]);
            let (s3, e3) = (self.indptr[r + 3], self.indptr[r + 4]);
            let (l0, l1, l2, l3) = (e0 - s0, e1 - s1, e2 - s2, e3 - s3);
            let shared = l0.min(l1).min(l2).min(l3);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for p in 0..shared {
                a0 += self.data[s0 + p] * x[self.indices[s0 + p]];
                a1 += self.data[s1 + p] * x[self.indices[s1 + p]];
                a2 += self.data[s2 + p] * x[self.indices[s2 + p]];
                a3 += self.data[s3 + p] * x[self.indices[s3 + p]];
            }
            for p in shared..l0 {
                a0 += self.data[s0 + p] * x[self.indices[s0 + p]];
            }
            for p in shared..l1 {
                a1 += self.data[s1 + p] * x[self.indices[s1 + p]];
            }
            for p in shared..l2 {
                a2 += self.data[s2 + p] * x[self.indices[s2 + p]];
            }
            for p in shared..l3 {
                a3 += self.data[s3 + p] * x[self.indices[s3 + p]];
            }
            out[i] = a0;
            out[i + 1] = a1;
            out[i + 2] = a2;
            out[i + 3] = a3;
            i += 4;
        }
        // Remainder rows (< 4 left) take the general path.
        let row0_tail = row0 + i;
        self.spmv_rows_general(x, row0_tail, &mut out[i..]);
    }

    /// Returns the transpose as a new CSR matrix.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut t = TripletMatrix::with_capacity(self.ncols, self.nrows, self.nnz());
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                t.push(c, r, v);
            }
        }
        t.to_csr()
    }

    /// Extracts the diagonal into a vector (missing diagonal entries are
    /// `0.0`). Defined for square matrices only.
    ///
    /// This is a copy of the cached diagonal; callers that only need to
    /// read it should prefer [`Self::diagonal_ref`].
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        self.diagonal_ref().to_vec()
    }

    /// Borrows the diagonal cached at construction (missing entries are
    /// `0.0`). The matrix is immutable, so the cache never goes stale;
    /// preconditioner setup and dominance checks read it for free
    /// instead of re-deriving it with per-entry binary searches.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn diagonal_ref(&self) -> &[f64] {
        assert_eq!(self.nrows, self.ncols, "diagonal requires a square matrix");
        &self.diag
    }

    /// The number of stored entries in the widest row — the profile the
    /// SpMV dispatch uses, cached at construction.
    #[must_use]
    pub fn max_row_nnz(&self) -> usize {
        self.max_row_nnz
    }

    /// Checks structural and numerical symmetry to within `tol` (relative
    /// to the larger of the two mirrored magnitudes).
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                let m = self.get(c, r);
                let scale = v.abs().max(m.abs()).max(1.0);
                if (v - m).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// Checks weak row diagonal dominance: `|a_ii| >= sum_{j != i} |a_ij|`
    /// for every row. MNA conductance matrices with at least one path to a
    /// voltage source satisfy this, which guarantees CG convergence.
    #[must_use]
    pub fn is_diagonally_dominant(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            // The diagonal comes from the construction-time cache; the
            // row walk only accumulates the off-diagonal magnitudes.
            let diag = self.diag[r].abs();
            let mut off = 0.0;
            for (c, v) in self.row(r) {
                if c != r {
                    off += v.abs();
                }
            }
            // Tiny tolerance for floating point accumulation.
            if diag + 1e-12 * (diag + off) < off {
                return false;
            }
        }
        true
    }

    /// Computes the residual vector `r = b - A x`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] on shape mismatch.
    pub fn residual(&self, x: &[f64], b: &[f64]) -> crate::Result<Vec<f64>> {
        if b.len() != self.nrows {
            return Err(SolverError::DimensionMismatch {
                detail: format!(
                    "residual: matrix has {} rows, b has length {}",
                    self.nrows,
                    b.len()
                ),
            });
        }
        let ax = self.mul_vec(x)?;
        Ok(b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect())
    }

    /// Converts to a dense matrix. Intended for small systems and tests.
    #[must_use]
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                d.set(r, c, v);
            }
        }
        d
    }

    /// Frobenius norm of the matrix.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        crate::vecops::norm2(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        CsrMatrix::from_raw_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn raw_parts_roundtrip() {
        let a = sample();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.row_nnz(1), 1);
    }

    #[test]
    fn invalid_indptr_rejected() {
        let err = CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SolverError::DimensionMismatch { .. }));
    }

    #[test]
    fn decreasing_indptr_rejected() {
        let err = CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SolverError::DimensionMismatch { .. }));
    }

    #[test]
    fn unsorted_columns_rejected() {
        let err =
            CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SolverError::DimensionMismatch { .. }));
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err =
            CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SolverError::DimensionMismatch { .. }));
    }

    #[test]
    fn column_out_of_range_rejected() {
        let err = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, SolverError::IndexOutOfBounds { col: 5, .. }));
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let y = a.mul_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn spmv_shape_mismatch() {
        let a = sample();
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn identity_acts_as_identity() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.mul_vec(&x).unwrap(), x);
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_moves_entries() {
        let a = sample();
        let at = a.transpose();
        assert_eq!(at.get(2, 0), 2.0);
        assert_eq!(at.get(0, 2), 4.0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 5.0]);
        assert_eq!(a.diagonal_ref(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn row_nnz_profile_is_cached() {
        assert_eq!(sample().max_row_nnz(), 2);
        assert_eq!(CsrMatrix::identity(4).max_row_nnz(), 1);
        assert_eq!(CsrMatrix::identity(0).max_row_nnz(), 0);
    }

    #[test]
    fn interleaved_spmv_matches_general_bitwise() {
        // A short-row matrix (stencil regime) with ragged row lengths,
        // including empty rows, exercising the interleaved kernel's
        // shared-prefix and tail paths plus the < 4-row remainder.
        let mut t = TripletMatrix::new(103, 103);
        for i in 0..103usize {
            t.push(i, i, 2.0 + (i % 7) as f64 * 0.25);
            if i + 1 < 103 && i % 3 != 0 {
                t.push(i, i + 1, -0.5 - (i % 5) as f64 * 0.125);
            }
            if i >= 10 && i % 4 == 0 {
                t.push(i, i - 10, 0.75);
            }
        }
        let a = t.to_csr();
        assert!(a.max_row_nnz() <= SPMV_INTERLEAVE_MAX_ROW_NNZ);
        let x: Vec<f64> = (0..103)
            .map(|i| ((i * 13) % 17) as f64 * 0.3 - 1.1)
            .collect();
        let mut fast = vec![0.0; 103];
        a.spmv_rows_interleaved(&x, 0, &mut fast);
        let mut reference = vec![0.0; 103];
        a.spmv_rows_general(&x, 0, &mut reference);
        for (f, r) in fast.iter().zip(&reference) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
        // And mul_vec (which dispatches to the interleaved path here)
        // agrees too.
        let y = a.mul_vec(&x).unwrap();
        for (f, r) in y.iter().zip(&reference) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn blocked_spmv_is_bitwise_deterministic_across_thread_counts() {
        // Large enough (n > par threshold) that 4 threads actually
        // split the rows; per-row serial accumulation must make the
        // result bitwise identical to the single-thread run.
        let n = 5000usize;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + (i % 9) as f64 * 0.5);
            if i + 1 < n {
                t.push(i, i + 1, -1.0 - (i % 3) as f64 * 0.25);
            }
            if i >= 50 {
                t.push(i, i - 50, 0.375);
            }
        }
        let a = t.to_csr();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 29) % 101) as f64 * 0.07 - 3.0)
            .collect();
        crate::set_threads(1);
        let y1 = a.mul_vec(&x).unwrap();
        crate::set_threads(4);
        let y4 = a.mul_vec(&x).unwrap();
        crate::set_threads(0);
        for (u, v) in y1.iter().zip(&y4) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn wide_row_matrix_dispatches_to_general_path() {
        // One dense row pushes the profile past the interleave bound.
        let mut t = TripletMatrix::new(40, 40);
        for i in 0..40usize {
            t.push(i, i, 3.0);
        }
        for c in 0..40usize {
            if c != 20 {
                t.push(20, c, 0.01 * (c as f64 + 1.0));
            }
        }
        let a = t.to_csr();
        assert!(a.max_row_nnz() > SPMV_INTERLEAVE_MAX_ROW_NNZ);
        let x: Vec<f64> = (0..40).map(|i| (i as f64).mul_add(0.1, -2.0)).collect();
        let y = a.mul_vec(&x).unwrap();
        let mut reference = vec![0.0; 40];
        a.spmv_rows_general(&x, 0, &mut reference);
        assert_eq!(y, reference);
    }

    #[test]
    fn symmetry_check() {
        let mut t = TripletMatrix::new(2, 2);
        t.stamp_conductance(0, 1, 2.0);
        t.stamp_grounded_conductance(0, 1.0);
        let a = t.to_csr();
        assert!(a.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
    }

    #[test]
    fn diagonal_dominance_of_stamped_grid() {
        let mut t = TripletMatrix::new(3, 3);
        t.stamp_conductance(0, 1, 1.0);
        t.stamp_conductance(1, 2, 1.0);
        t.stamp_grounded_conductance(0, 0.5);
        let a = t.to_csr();
        assert!(a.is_diagonally_dominant());
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = CsrMatrix::identity(3);
        let r = a.residual(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(r, vec![0.0; 3]);
    }

    #[test]
    fn to_dense_matches_get() {
        let a = sample();
        let d = a.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d.get(r, c), a.get(r, c));
            }
        }
    }

    #[test]
    fn frobenius_norm_value() {
        let a = sample();
        let expect = (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0).sqrt();
        assert!((a.frobenius_norm() - expect).abs() < 1e-12);
    }
}

use crate::NnError;

/// Row-major dense matrix of `f64`, the tensor type of this library.
///
/// # Example
///
/// ```
/// use ppdl_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
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

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> crate::Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(NnError::ShapeMismatch {
                    detail: format!("row {i} has length {}, expected {ncols}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "flat data of length {} cannot form a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix get out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix set out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// A view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self · other`, computed by the crate's
    /// register-tiled GEMM kernel (parallel over row blocks, bitwise
    /// deterministic across thread counts).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> crate::Result<Matrix> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "matmul: {}x{} · {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::gemm::gemm_nn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix product with the second operand transposed:
    /// `self · otherᵀ`. Avoids materialising the transpose in the
    /// backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `self.cols != other.cols`.
    pub fn matmul_transpose(&self, other: &Matrix) -> crate::Result<Matrix> {
        if self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "matmul_transpose: {}x{} · ({}x{})ᵀ",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        crate::gemm::gemm_nt(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix product with the first operand transposed:
    /// `selfᵀ · other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `self.rows != other.rows`.
    pub fn transpose_matmul(&self, other: &Matrix) -> crate::Result<Matrix> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "transpose_matmul: ({}x{})ᵀ · {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.cols, other.cols);
        crate::gemm::gemm_tn(
            self.cols,
            self.rows,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on shape mismatch.
    pub fn add(&self, other: &Matrix) -> crate::Result<Matrix> {
        self.zip_with(other, |a, b| a + b, "add")
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> crate::Result<Matrix> {
        self.zip_with(other, |a, b| a - b, "sub")
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> crate::Result<Matrix> {
        self.zip_with(other, |a, b| a * b, "hadamard")
    }

    fn zip_with(
        &self,
        other: &Matrix,
        f: impl Fn(f64, f64) -> f64,
        opname: &str,
    ) -> crate::Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{opname}: {}x{} vs {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| f(*a, *b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise map.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scalar multiplication.
    #[must_use]
    pub fn scale(&self, alpha: f64) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `bias.len() != cols`.
    pub fn add_row_broadcast(&self, bias: &[f64]) -> crate::Result<Matrix> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "broadcast: bias length {} vs {} columns",
                    bias.len(),
                    self.cols
                ),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Column sums (used for bias gradients).
    #[must_use]
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Mean of all elements (`0.0` for an empty matrix).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// Extracts a contiguous block of rows `[start, end)` as a new
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    #[must_use]
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row slice out of range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gathers the given rows (by index) into a new matrix, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Returns `true` if every element is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        let f = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
        assert_eq!(f.get(1, 1), 3.0);
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn matmul_correctness() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f64);
        let b = Matrix::from_fn(5, 4, |r, c| (2 * r + c) as f64 * 0.5);
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(4, 2, |r, c| (r + c) as f64);
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().row(0), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().row(0), &[2.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().row(0), &[3.0, 10.0]);
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn broadcast_and_sums() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let biased = a.add_row_broadcast(&[10.0, 20.0]).unwrap();
        assert_eq!(biased.row(1), &[13.0, 24.0]);
        assert_eq!(a.column_sums(), vec![4.0, 6.0]);
        assert!(a.add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn map_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        assert_eq!(a.map(f64::abs).row(0), &[1.0, 2.0]);
        assert_eq!(a.scale(-1.0).row(0), &[-1.0, 2.0]);
        let mut b = a.clone();
        b.map_inplace(|v| v + 1.0);
        assert_eq!(b.row(0), &[2.0, -1.0]);
    }

    #[test]
    fn slicing_and_gathering() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[2.0, 3.0]);
        let g = a.gather_rows(&[3, 0]);
        assert_eq!(g.row(0), &[6.0, 7.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn mean_and_finiteness() {
        let a = Matrix::from_rows(&[&[1.0, 3.0]]).unwrap();
        assert_eq!(a.mean(), 2.0);
        assert_eq!(Matrix::zeros(0, 0).mean(), 0.0);
        assert!(a.all_finite());
        let mut b = a.clone();
        b.set(0, 0, f64::NAN);
        assert!(!b.all_finite());
    }
}

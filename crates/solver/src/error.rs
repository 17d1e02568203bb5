use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolverError {
    /// Matrix/vector dimensions are incompatible for the requested
    /// operation. Holds a human-readable description of the mismatch.
    DimensionMismatch {
        /// Description of the operation and the offending shapes.
        detail: String,
    },
    /// An index was outside the matrix bounds.
    IndexOutOfBounds {
        /// The offending row index.
        row: usize,
        /// The offending column index.
        col: usize,
        /// Number of rows of the matrix.
        nrows: usize,
        /// Number of columns of the matrix.
        ncols: usize,
    },
    /// A factorization failed because the matrix is singular or not
    /// positive definite (for Cholesky-type factorizations).
    NotPositiveDefinite {
        /// Pivot index where the failure was detected.
        pivot: usize,
        /// The offending pivot value.
        value: f64,
    },
    /// A stationary iteration hit a zero diagonal entry.
    SingularMatrix {
        /// Pivot index where the failure was detected.
        pivot: usize,
    },
    /// An iterative solver failed to reach the requested tolerance within
    /// its iteration budget.
    DidNotConverge {
        /// Number of iterations performed.
        iterations: usize,
        /// Relative residual norm at the final iteration.
        residual: f64,
        /// The tolerance that was requested.
        tolerance: f64,
    },
    /// A non-finite value (NaN or infinity) was encountered.
    NonFiniteValue {
        /// Description of where the non-finite value appeared.
        context: String,
    },
    /// A solver option was not recognised (e.g. an unknown
    /// preconditioner name).
    InvalidOptions {
        /// Description of the offending knob and its value.
        detail: String,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::DimensionMismatch { detail } => {
                write!(f, "dimension mismatch: {detail}")
            }
            SolverError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {nrows}x{ncols} matrix"
            ),
            SolverError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} has value {value:e}"
            ),
            SolverError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular: zero pivot at index {pivot}")
            }
            SolverError::DidNotConverge {
                iterations,
                residual,
                tolerance,
            } => write!(
                f,
                "iterative solver did not converge: relative residual {residual:e} > \
                 tolerance {tolerance:e} after {iterations} iterations"
            ),
            SolverError::NonFiniteValue { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            SolverError::InvalidOptions { detail } => {
                write!(f, "invalid solver options: {detail}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = SolverError::DimensionMismatch {
            detail: "spmv: 3x3 * len-2".into(),
        };
        assert!(e.to_string().contains("dimension mismatch"));
        assert!(e.to_string().contains("spmv"));
    }

    #[test]
    fn display_not_positive_definite() {
        let e = SolverError::NotPositiveDefinite {
            pivot: 4,
            value: -1.5,
        };
        let s = e.to_string();
        assert!(s.contains("positive definite"));
        assert!(s.contains('4'));
    }

    #[test]
    fn display_did_not_converge_mentions_numbers() {
        let e = SolverError::DidNotConverge {
            iterations: 100,
            residual: 1e-3,
            tolerance: 1e-9,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("1e-3") || s.contains("1e-03") || s.contains("0.001"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<T: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SolverError>();
    }

    #[test]
    fn display_invalid_options() {
        let e = SolverError::InvalidOptions {
            detail: "tolerance 0e0 must be positive".into(),
        };
        let s = e.to_string();
        assert!(s.contains("invalid solver options"));
        assert!(s.contains("tolerance"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = SolverError::SingularMatrix { pivot: 1 };
        let b = SolverError::SingularMatrix { pivot: 1 };
        assert_eq!(a, b);
    }
}

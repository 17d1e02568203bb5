//! BLAS-1 style vector kernels shared by the iterative solvers.
//!
//! All functions panic on length mismatch — callers inside this crate
//! validate shapes at the solver boundary, so a mismatch here is a bug,
//! not a user error.
//!
//! Every kernel is a sequential loop on the calling thread; parallelism
//! lives one level up, over independent solves (see
//! [`crate::parallel`]). Reductions (`dot`, the norms) keep a fixed
//! association: one partial per `REDUCTION_CHUNK`-element chunk,
//! folded in ascending chunk order. Every CG iterate depends on that
//! order, so changing it changes the bits of every solve.

use std::ops::Range;

/// Fixed reduction chunk size, in elements. Chunk boundaries depend on
/// the input length only.
const REDUCTION_CHUNK: usize = 4096;

/// Maps each fixed [`REDUCTION_CHUNK`]-element chunk of `0..len` to a
/// partial and folds the partials in ascending chunk order; `0.0` when
/// `len == 0`.
fn fold_chunks(
    len: usize,
    map: impl Fn(Range<usize>) -> f64,
    fold: impl FnMut(f64, f64) -> f64,
) -> f64 {
    (0..len)
        .step_by(REDUCTION_CHUNK)
        .map(|start| map(start..(start + REDUCTION_CHUNK).min(len)))
        .reduce(fold)
        .unwrap_or(0.0)
}

/// Dot product `x · y`.
///
/// Computed as a fixed-chunk reduction: per-chunk serial partial sums
/// over 4,096-element chunks, folded in ascending chunk order.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(ppdl_solver::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[must_use]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    fold_chunks(
        x.len(),
        |r| {
            x[r.clone()]
                .iter()
                .zip(&y[r])
                .map(|(a, b)| a * b)
                .sum::<f64>()
        },
        |a, b| a + b,
    )
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scale `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// In-place `y = x + beta * y` (the "xpby" update used by CG for the
/// search direction).
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Euclidean norm `||x||_2`, computed with scaling to avoid overflow.
///
/// Both passes (max-abs and the scaled sum of squares) are fixed-chunk
/// reductions like [`dot`]'s.
#[must_use]
pub fn norm2(x: &[f64]) -> f64 {
    let maxabs = norm_inf(x);
    if maxabs == 0.0 || !maxabs.is_finite() {
        return if maxabs.is_finite() {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let sum = fold_chunks(
        x.len(),
        |r| {
            x[r].iter()
                .map(|v| (v / maxabs) * (v / maxabs))
                .sum::<f64>()
        },
        |a, b| a + b,
    );
    maxabs * sum.sqrt()
}

/// Infinity norm `||x||_inf`.
#[must_use]
pub fn norm_inf(x: &[f64]) -> f64 {
    fold_chunks(
        x.len(),
        |r| x[r].iter().fold(0.0_f64, |m, v| m.max(v.abs())),
        f64::max,
    )
}

/// Elementwise copy of `src` into `dst`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn copy(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    dst.copy_from_slice(src);
}

/// Returns `true` if every element of `x` is finite.
#[must_use]
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    /// `dot` is one serial sum per `REDUCTION_CHUNK`, folded in
    /// ascending chunk order. On this input a single serial sum rounds
    /// differently, as it would in the CG iterates built on `dot`.
    #[test]
    fn dot_folds_per_chunk_sums_in_ascending_order() {
        let n = 3 * REDUCTION_CHUNK + 123;
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.618_034).fract() - 0.5)
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.414_214).fract() + 0.25)
            .collect();
        let serial = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(p, q)| p * q).sum::<f64>();
        let chunked = x
            .chunks(REDUCTION_CHUNK)
            .zip(y.chunks(REDUCTION_CHUNK))
            .map(|(a, b)| serial(a, b))
            .reduce(|a, b| a + b)
            .unwrap();
        assert_eq!(dot(&x, &y).to_bits(), chunked.to_bits());
        assert_ne!(serial(&x, &y).to_bits(), chunked.to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn xpby_updates_direction() {
        let mut p = vec![1.0, 2.0];
        xpby(&[10.0, 20.0], 0.5, &mut p);
        assert_eq!(p, vec![10.5, 21.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn norm2_pythagorean() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norm2_resists_overflow() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-12);
    }

    #[test]
    fn norm_inf_picks_max_abs() {
        assert_eq!(norm_inf(&[1.0, -7.0, 3.0]), 7.0);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}

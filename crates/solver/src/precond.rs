use crate::multilevel::Multilevel;
use crate::{CsrMatrix, SolverError, SparseCholesky};

/// Which preconditioner a CG solve should build, selected at runtime
/// through [`CgOptions`](crate::CgOptions) instead of by generic
/// parameter — config files, CLI flags, and sweep axes can all carry a
/// `PrecondKind` without monomorphizing a solve path per choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecondKind {
    /// No preconditioning (`M = I`): plain CG.
    Identity,
    /// Diagonal scaling (`M = diag(A)`) — cheap; the default of
    /// `CgOptions::default()` only. `ppdl-analysis`'s
    /// `AnalysisOptions::default()`, which every conventional IR-drop
    /// solve inherits, picks [`Multilevel`](Self::Multilevel).
    #[default]
    Jacobi,
    /// Block-diagonal with per-block dense Cholesky over contiguous
    /// blocks of 64 rows.
    BlockJacobi,
    /// Zero-fill incomplete Cholesky, IC(0).
    Ic0,
    /// A pairwise-aggregation multilevel V-cycle, smoothed by IC(0) on
    /// the finest level and by Gauss–Seidel below it. Where the matrix
    /// cannot be paired down (a level keeps more than 90% of its nodes
    /// unpaired), it is IC(0) alone.
    Multilevel,
    /// The exact sparse Cholesky factor ([`SparseCholesky`]) as the
    /// preconditioner, so PCG converges in one iteration. No
    /// fill-reducing ordering: fill-in limits it to small and medium
    /// grids.
    Direct,
}

/// Block size of [`PrecondKind::BlockJacobi`]: large enough to capture
/// a strip of a row-major grid, small enough that the dense per-block
/// Cholesky stays cheap.
const BLOCK_JACOBI_SIZE: usize = 64;

impl PrecondKind {
    /// Every kind, in the order used by sweeps and `--help` listings.
    pub const ALL: [Self; 6] = [
        Self::Identity,
        Self::Jacobi,
        Self::BlockJacobi,
        Self::Ic0,
        Self::Multilevel,
        Self::Direct,
    ];

    /// Canonical lower-case name, accepted back by [`parse`](Self::parse).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Identity => "identity",
            Self::Jacobi => "jacobi",
            Self::BlockJacobi => "block-jacobi",
            Self::Ic0 => "ic0",
            Self::Multilevel => "multilevel",
            Self::Direct => "direct",
        }
    }

    /// Parses a kind from its CLI spelling, case-insensitively: the
    /// one spelling table for every `--precond` flag. Besides each
    /// [`name`](Self::name) it accepts `none`, `ic`, `block_jacobi`,
    /// `blockjacobi`, `amg`, `direct-cholesky` and `direct_cholesky`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "identity" | "none" => Some(Self::Identity),
            "jacobi" => Some(Self::Jacobi),
            "block-jacobi" | "block_jacobi" | "blockjacobi" => Some(Self::BlockJacobi),
            "ic0" | "ic" => Some(Self::Ic0),
            "multilevel" | "amg" => Some(Self::Multilevel),
            "direct" | "direct-cholesky" | "direct_cholesky" => Some(Self::Direct),
            _ => None,
        }
    }

    /// Builds the selected preconditioner for `a`.
    pub(crate) fn build(self, a: &CsrMatrix) -> crate::Result<BuiltPreconditioner<'_>> {
        Ok(match self {
            Self::Identity => BuiltPreconditioner::Identity(IdentityPreconditioner::new(a.nrows())),
            Self::Jacobi => BuiltPreconditioner::Jacobi(JacobiPreconditioner::from_matrix(a)?),
            Self::BlockJacobi => BuiltPreconditioner::BlockJacobi(
                BlockJacobiPreconditioner::from_matrix(a, BLOCK_JACOBI_SIZE)?,
            ),
            Self::Ic0 => BuiltPreconditioner::Ic0(IncompleteCholesky::from_matrix(a)?),
            Self::Multilevel => BuiltPreconditioner::Multilevel(Multilevel::from_matrix(a)?),
            Self::Direct => BuiltPreconditioner::Direct(SparseCholesky::factor(a)?),
        })
    }
}

impl std::fmt::Display for PrecondKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PrecondKind {
    type Err = SolverError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| SolverError::InvalidOptions {
            detail: format!(
                "unknown preconditioner {s:?} (expected identity|none, jacobi, \
                 block-jacobi, ic0, multilevel|amg, or direct)"
            ),
        })
    }
}

/// A preconditioner built from a [`PrecondKind`]: applies `z = M⁻¹ r`
/// once per CG iteration. Every variant is symmetric positive definite.
/// The multilevel one borrows the matrix it was built from.
#[derive(Debug, Clone)]
pub(crate) enum BuiltPreconditioner<'a> {
    Identity(IdentityPreconditioner),
    Jacobi(JacobiPreconditioner),
    BlockJacobi(BlockJacobiPreconditioner),
    Ic0(IncompleteCholesky),
    Multilevel(Multilevel<'a>),
    Direct(SparseCholesky),
}

impl BuiltPreconditioner<'_> {
    /// Writes `z = M⁻¹ r`.
    pub(crate) fn apply(&self, r: &[f64], z: &mut [f64]) -> crate::Result<()> {
        match self {
            Self::Identity(p) => p.apply(r, z),
            Self::Jacobi(p) => p.apply(r, z),
            Self::BlockJacobi(p) => p.apply(r, z),
            Self::Ic0(p) => p.apply(r, z),
            Self::Multilevel(p) => p.apply(r, z),
            Self::Direct(p) => {
                check_dims(p.dim(), r, z)?;
                z.copy_from_slice(&p.solve(r)?);
                Ok(())
            }
        }
    }
}

/// The trivial preconditioner `M = I` (plain CG).
#[derive(Debug, Clone)]
pub(crate) struct IdentityPreconditioner {
    n: usize,
}

impl IdentityPreconditioner {
    pub(crate) fn new(n: usize) -> Self {
        Self { n }
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) -> crate::Result<()> {
        check_dims(self.n, r, z)?;
        z.copy_from_slice(r);
        Ok(())
    }
}

/// Jacobi (diagonal) preconditioner `M = diag(A)`.
///
/// Cheap and effective for the diagonally dominant conductance matrices
/// that power grids produce.
#[derive(Debug, Clone)]
pub(crate) struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Extracts the diagonal of `a` and inverts it.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if any diagonal entry
    /// is not strictly positive (an SPD matrix always has a positive
    /// diagonal), or [`SolverError::DimensionMismatch`] if `a` is not
    /// square.
    pub(crate) fn from_matrix(a: &CsrMatrix) -> crate::Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SolverError::DimensionMismatch {
                detail: format!("jacobi of non-square {}x{}", a.nrows(), a.ncols()),
            });
        }
        // The diagonal is cached on the matrix at construction — no
        // per-entry binary searches here.
        let mut inv_diag = Vec::with_capacity(a.nrows());
        for (i, &d) in a.diagonal_ref().iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SolverError::NotPositiveDefinite { pivot: i, value: d });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(Self { inv_diag })
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) -> crate::Result<()> {
        check_dims(self.inv_diag.len(), r, z)?;
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
        Ok(())
    }
}

/// Block-Jacobi preconditioner: `M = blockdiag(A₁, A₂, …)` with each
/// diagonal block factored by a dense Cholesky.
///
/// Rows are partitioned into contiguous blocks of `block_size` (the
/// last block may be smaller). Grid nodes are numbered row-major by the
/// generator, so a contiguous block covers a horizontal strip of the
/// grid and captures the strong in-strip couplings that plain Jacobi
/// throws away — cutting CG iteration counts on large grids at a cost
/// of `O(n·block_size)` flops per application. Every principal
/// submatrix of an SPD matrix is SPD, so the block factorizations exist;
/// if floating-point noise still breaks one down, the block's diagonal
/// is boosted once (the same pivot-boost strategy
/// [`IncompleteCholesky`] uses) before giving up.
#[derive(Debug, Clone)]
pub(crate) struct BlockJacobiPreconditioner {
    n: usize,
    blocks: Vec<crate::DenseCholesky>,
}

impl BlockJacobiPreconditioner {
    /// Extracts and factors the diagonal blocks of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `a` is not square
    /// or `block_size` is zero, and [`SolverError::NotPositiveDefinite`]
    /// if a diagonal block cannot be factored even after a pivot boost.
    pub(crate) fn from_matrix(a: &CsrMatrix, block_size: usize) -> crate::Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SolverError::DimensionMismatch {
                detail: format!("block-jacobi of non-square {}x{}", a.nrows(), a.ncols()),
            });
        }
        if block_size == 0 {
            return Err(SolverError::DimensionMismatch {
                detail: "block-jacobi block size must be positive".into(),
            });
        }
        let n = a.nrows();
        let mut blocks = Vec::with_capacity(n.div_ceil(block_size.max(1)));
        let mut lo = 0;
        while lo < n {
            let hi = (lo + block_size).min(n);
            let nb = hi - lo;
            let mut dense = crate::DenseMatrix::zeros(nb, nb);
            let mut max_diag = 0.0_f64;
            for r in lo..hi {
                for (c, v) in a.row(r) {
                    if (lo..hi).contains(&c) {
                        dense.set(r - lo, c - lo, v);
                    }
                    if c == r {
                        max_diag = max_diag.max(v.abs());
                    }
                }
            }
            let factored = match dense.cholesky() {
                Ok(f) => f,
                Err(_) => {
                    // Numerical breakdown: boost the whole block diagonal
                    // and retry once, mirroring the IC(0) pivot boost.
                    let boost = (max_diag * 1e-8).max(f64::EPSILON);
                    for i in 0..nb {
                        dense.add_to(i, i, boost);
                    }
                    dense.cholesky()?
                }
            };
            blocks.push(factored);
            lo = hi;
        }
        Ok(Self { n, blocks })
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) -> crate::Result<()> {
        check_dims(self.n, r, z)?;
        let mut lo = 0;
        for block in &self.blocks {
            let hi = lo + block.dim();
            z[lo..hi].copy_from_slice(&r[lo..hi]);
            block.solve_in_place(&mut z[lo..hi])?;
            lo = hi;
        }
        Ok(())
    }
}

/// Zero-fill incomplete Cholesky preconditioner, IC(0).
///
/// Computes a lower-triangular `L` with the sparsity pattern of the lower
/// triangle of `A` such that `L Lᵀ ≈ A`, then applies `M⁻¹ = L⁻ᵀ L⁻¹` by
/// two triangular solves. This is the standard preconditioner for
/// power-grid analysis and cuts CG iteration counts substantially on
/// large grids (see the `kernels` experiment's CG table).
#[derive(Debug, Clone)]
pub(crate) struct IncompleteCholesky {
    n: usize,
    // CSR storage of L (strictly lower part, row by row, columns ascending)
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
    diag: Vec<f64>,
}

impl IncompleteCholesky {
    /// Factors the lower triangle of `a` in place of its own pattern.
    ///
    /// If a pivot becomes non-positive (possible for IC(0) even on SPD
    /// matrices), it is boosted by a small shift, which keeps the
    /// preconditioner SPD at a modest cost in quality.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] if `a` is not square,
    /// or [`SolverError::NotPositiveDefinite`] if a diagonal entry of `a`
    /// is missing or non-positive.
    pub(crate) fn from_matrix(a: &CsrMatrix) -> crate::Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SolverError::DimensionMismatch {
                detail: format!("ic0 of non-square {}x{}", a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        // Collect strictly-lower pattern and the diagonal.
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        let mut diag = vec![0.0; n];
        indptr.push(0);
        for (i, di) in diag.iter_mut().enumerate() {
            let mut found_diag = false;
            for (j, v) in a.row(i) {
                if j < i {
                    indices.push(j);
                    data.push(v);
                } else if j == i {
                    *di = v;
                    found_diag = true;
                }
            }
            indptr.push(indices.len());
            if !found_diag || *di <= 0.0 {
                return Err(SolverError::NotPositiveDefinite {
                    pivot: i,
                    value: *di,
                });
            }
        }

        // Up-looking IC(0): for each row i, update entries against all
        // previous rows k that appear in row i's pattern.
        //
        // l_ik = (a_ik - sum_{j<k, j in both patterns} l_ij * l_kj) / d_k
        // d_i  = sqrt(a_ii - sum_{k<i} l_ik^2)
        for i in 0..n {
            let (lo_i, hi_i) = (indptr[i], indptr[i + 1]);
            for idx in lo_i..hi_i {
                let k = indices[idx];
                // Dot of row i and row k over shared columns < k.
                let mut s = data[idx];
                let (mut p, mut q) = (lo_i, indptr[k]);
                let (p_end, q_end) = (idx, indptr[k + 1]);
                while p < p_end && q < q_end {
                    match indices[p].cmp(&indices[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            s -= data[p] * data[q];
                            p += 1;
                            q += 1;
                        }
                    }
                }
                data[idx] = s / diag[k];
            }
            let mut d = diag[i];
            for &l in &data[lo_i..hi_i] {
                d -= l * l;
            }
            if d <= 0.0 {
                // Breakdown: boost the pivot to keep the factor SPD.
                d = (diag[i] * 1e-3).max(f64::EPSILON);
            }
            diag[i] = d.sqrt();
        }
        Ok(Self {
            n,
            indptr,
            indices,
            data,
            diag,
        })
    }

    pub(crate) fn apply(&self, r: &[f64], z: &mut [f64]) -> crate::Result<()> {
        check_dims(self.n, r, z)?;
        // Forward solve L y = r.
        for i in 0..self.n {
            let mut s = r[i];
            for idx in self.indptr[i]..self.indptr[i + 1] {
                s -= self.data[idx] * z[self.indices[idx]];
            }
            z[i] = s / self.diag[i];
        }
        // Backward solve Lᵀ z = y (in place, traversing rows in reverse;
        // row i's entries scatter into earlier columns).
        for i in (0..self.n).rev() {
            z[i] /= self.diag[i];
            let zi = z[i];
            for idx in self.indptr[i]..self.indptr[i + 1] {
                z[self.indices[idx]] -= self.data[idx] * zi;
            }
        }
        Ok(())
    }
}

fn check_dims(n: usize, r: &[f64], z: &[f64]) -> crate::Result<()> {
    if r.len() != n || z.len() != n {
        return Err(SolverError::DimensionMismatch {
            detail: format!(
                "preconditioner dim {n}, r has length {}, z has length {}",
                r.len(),
                z.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn spd_grid(n: usize) -> CsrMatrix {
        // 1-D resistor chain with grounded end: tridiagonal SPD.
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        t.stamp_grounded_conductance(0, 1.0);
        t.to_csr()
    }

    #[test]
    fn identity_copies() {
        let p = IdentityPreconditioner::new(3);
        let mut z = vec![0.0; 3];
        p.apply(&[1.0, 2.0, 3.0], &mut z).unwrap();
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let a = spd_grid(3);
        let p = JacobiPreconditioner::from_matrix(&a).unwrap();
        let mut z = vec![0.0; 3];
        p.apply(&[a.get(0, 0), a.get(1, 1), a.get(2, 2)], &mut z)
            .unwrap();
        for zi in z {
            assert!((zi - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn jacobi_rejects_nonpositive_diagonal() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, -1.0);
        t.push(1, 1, 1.0);
        let err = JacobiPreconditioner::from_matrix(&t.to_csr()).unwrap_err();
        assert!(matches!(err, SolverError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn jacobi_rejects_missing_diagonal() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 1, 1.0);
        // Row 0 has no diagonal entry -> treated as 0 -> rejected.
        let err = JacobiPreconditioner::from_matrix(&t.to_csr()).unwrap_err();
        assert!(matches!(
            err,
            SolverError::NotPositiveDefinite { pivot: 0, .. }
        ));
    }

    #[test]
    fn block_jacobi_with_full_block_is_exact() {
        // One block spanning the whole matrix: M = A, so M⁻¹r = A⁻¹r.
        let a = spd_grid(6);
        let bj = BlockJacobiPreconditioner::from_matrix(&a, 6).unwrap();
        let r = vec![1.0, -2.0, 0.5, 3.0, -1.5, 0.25];
        let mut z = vec![0.0; 6];
        bj.apply(&r, &mut z).unwrap();
        let x = a.to_dense().cholesky().unwrap().solve(&r).unwrap();
        for (zi, xi) in z.iter().zip(&x) {
            assert!((zi - xi).abs() < 1e-10, "{zi} vs {xi}");
        }
    }

    #[test]
    fn block_jacobi_block_one_matches_jacobi() {
        // 1x1 blocks degrade to the diagonal preconditioner.
        let a = spd_grid(5);
        let bj = BlockJacobiPreconditioner::from_matrix(&a, 1).unwrap();
        let j = JacobiPreconditioner::from_matrix(&a).unwrap();
        let r = vec![0.3, -0.7, 1.1, 2.0, -0.4];
        let (mut zb, mut zj) = (vec![0.0; 5], vec![0.0; 5]);
        bj.apply(&r, &mut zb).unwrap();
        j.apply(&r, &mut zj).unwrap();
        for (b, jj) in zb.iter().zip(&zj) {
            assert!((b - jj).abs() < 1e-14);
        }
    }

    #[test]
    fn block_jacobi_solves_every_block_exactly_at_every_block_size() {
        // Sizes 1..8 over 12 rows: most leave a ragged last block.
        let n = 12;
        let a = spd_grid(n);
        let r: Vec<f64> = (0..n).map(|i| i as f64 - 5.5).collect();
        for block in 1..8 {
            let bj = BlockJacobiPreconditioner::from_matrix(&a, block).unwrap();
            let mut z = vec![0.0; n];
            bj.apply(&r, &mut z).unwrap();
            // Within its own diagonal block, z solves A z = r exactly.
            for (i, ri) in r.iter().enumerate() {
                let lo = i / block * block;
                let hi = (lo + block).min(n);
                let az: f64 = a
                    .row(i)
                    .filter(|(c, _)| (lo..hi).contains(c))
                    .map(|(c, v)| v * z[c])
                    .sum();
                assert!((az - ri).abs() < 1e-10, "block {block} row {i}");
            }
            // SPD form: r·z > 0 for r != 0.
            assert!(crate::vecops::dot(&r, &z) > 0.0, "block {block}");
        }
    }

    #[test]
    fn block_jacobi_rejects_zero_block_size() {
        let a = spd_grid(4);
        let err = BlockJacobiPreconditioner::from_matrix(&a, 0).unwrap_err();
        assert!(matches!(err, SolverError::DimensionMismatch { .. }));
    }

    #[test]
    fn block_jacobi_rejects_indefinite_block() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, -4.0);
        t.push(1, 1, 1.0);
        let err = BlockJacobiPreconditioner::from_matrix(&t.to_csr(), 2).unwrap_err();
        assert!(matches!(err, SolverError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn ic0_exact_on_tridiagonal() {
        // For a tridiagonal SPD matrix IC(0) IS the exact Cholesky factor,
        // so M^{-1} r must equal A^{-1} r.
        let a = spd_grid(5);
        let ic = IncompleteCholesky::from_matrix(&a).unwrap();
        let r = vec![1.0, 2.0, -1.0, 0.5, 3.0];
        let mut z = vec![0.0; 5];
        ic.apply(&r, &mut z).unwrap();
        let x = a.to_dense().cholesky().unwrap().solve(&r).unwrap();
        for (zi, xi) in z.iter().zip(&x) {
            assert!((zi - xi).abs() < 1e-10, "{zi} vs {xi}");
        }
    }

    #[test]
    fn ic0_apply_is_spd_form() {
        // z = M^{-1} r must satisfy r·z > 0 for r != 0 (SPD preconditioner).
        let a = spd_grid(8);
        let ic = IncompleteCholesky::from_matrix(&a).unwrap();
        let r: Vec<f64> = (0..8).map(|i| (i as f64 - 3.5) * 0.7).collect();
        let mut z = vec![0.0; 8];
        ic.apply(&r, &mut z).unwrap();
        assert!(crate::vecops::dot(&r, &z) > 0.0);
    }

    #[test]
    fn ic0_rejects_missing_diag() {
        let mut t = TripletMatrix::new(2, 2);
        t.stamp_conductance(0, 1, 1.0);
        t.push(0, 0, -1.0); // cancels row-0 diagonal to zero
        let csr = t.to_csr();
        let err = IncompleteCholesky::from_matrix(&csr).unwrap_err();
        assert!(matches!(err, SolverError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn precond_kind_round_trips_through_names() {
        for kind in PrecondKind::ALL {
            assert_eq!(PrecondKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.name().parse::<PrecondKind>().unwrap(), kind);
        }
        assert_eq!(PrecondKind::parse("none"), Some(PrecondKind::Identity));
        assert_eq!(
            PrecondKind::parse("Block_Jacobi"),
            Some(PrecondKind::BlockJacobi)
        );
        for spelling in ["direct", "Direct-Cholesky", "direct_cholesky"] {
            assert_eq!(PrecondKind::parse(spelling), Some(PrecondKind::Direct));
        }
        for spelling in ["multilevel", "AMG"] {
            assert_eq!(PrecondKind::parse(spelling), Some(PrecondKind::Multilevel));
        }
        assert_eq!(PrecondKind::parse("ilu"), None);
        assert!(matches!(
            "ilu".parse::<PrecondKind>(),
            Err(SolverError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn precond_kind_builds_matching_variant() {
        let a = spd_grid(8);
        for kind in PrecondKind::ALL {
            let built = kind.build(&a).unwrap();
            let matches_kind = matches!(
                (kind, &built),
                (PrecondKind::Identity, BuiltPreconditioner::Identity(_))
                    | (PrecondKind::Jacobi, BuiltPreconditioner::Jacobi(_))
                    | (
                        PrecondKind::BlockJacobi,
                        BuiltPreconditioner::BlockJacobi(_)
                    )
                    | (PrecondKind::Ic0, BuiltPreconditioner::Ic0(_))
                    | (PrecondKind::Multilevel, BuiltPreconditioner::Multilevel(_))
                    | (PrecondKind::Direct, BuiltPreconditioner::Direct(_))
            );
            assert!(matches_kind, "{kind} built the wrong variant");
            // Every built preconditioner is SPD: r·z > 0 for r != 0.
            let r: Vec<f64> = (0..8).map(|i| (i as f64 - 3.5) * 0.9).collect();
            let mut z = vec![0.0; 8];
            built.apply(&r, &mut z).unwrap();
            assert!(crate::vecops::dot(&r, &z) > 0.0, "{kind}");
        }
    }

    #[test]
    fn apply_dim_mismatch() {
        let a = spd_grid(3);
        let p = JacobiPreconditioner::from_matrix(&a).unwrap();
        let mut z = vec![0.0; 2];
        assert!(p.apply(&[1.0, 2.0, 3.0], &mut z).is_err());
    }
}

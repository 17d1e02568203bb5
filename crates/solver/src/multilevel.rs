//! The pairwise-aggregation multilevel preconditioner behind
//! [`PrecondKind::Multilevel`](crate::PrecondKind::Multilevel).
//!
//! Each coarse level runs two pairwise-matching passes over the graph of
//! the level above, so it has about a quarter of its unknowns. Its
//! operator is the Galerkin product `PᵀAP` of the level above with the
//! piecewise-constant prolongation `P` of those pairs. Coarsening stops
//! at [`DENSE_MAX`] unknowns, where a dense Cholesky factor takes over.
//!
//! One application is a V(1,1) cycle:
//! - On the finest level, IC(0) smooths before and after the coarse
//!   correction: `z = M⁻¹r`, then `z += P·(coarse cycle)·Pᵀ(r − Az)`,
//!   then `z += M⁻¹(r − Az)`.
//! - On a coarse level, a forward Gauss–Seidel sweep from zero smooths
//!   before the correction and a backward sweep after it.
//!
//! On every level the post-smoother is the adjoint of the pre-smoother,
//! so the cycle is a symmetric operator and PCG stays valid.
//!
//! A level that cannot be paired down while it is still above the dense
//! size (more than [`STALL_UNPAIRED`] of its nodes stay unpaired) drops
//! the whole hierarchy, and the preconditioner is IC(0) alone. On a
//! flip-chip grid the pads pin every neighbour of a crossing, so the
//! first coarse level has no strong couplings left, and IC(0) alone
//! already converges in a few iterations.
//!
//! Everything runs on the calling thread in fixed loop orders, so the
//! bits do not depend on the thread count.

use crate::precond::IncompleteCholesky;
use crate::{CsrMatrix, DenseCholesky, SolverError};

/// A level with at most this many unknowns is solved by dense Cholesky.
const DENSE_MAX: usize = 150;

/// A pair's coupling `−a_ij` must reach this share of `a_ii`…
const STRONG_OF_DIAG: f64 = 0.1;

/// …and this share of the row's strongest coupling.
const STRONG_OF_ROW: f64 = 0.25;

/// A level whose first pass leaves more than this share of its nodes
/// unpaired has stalled.
const STALL_UNPAIRED: f64 = 0.9;

/// Edges of the `solver/multilevel/levels` histogram.
const LEVEL_BOUNDS: [f64; 12] = [
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
];

/// Marks a node no pass has assigned to an aggregate yet.
const UNPAIRED: usize = usize::MAX;

/// The multilevel preconditioner of one matrix.
#[derive(Debug, Clone)]
pub(crate) struct Multilevel<'a> {
    /// The finest operator, which the fine-level residuals use.
    a: &'a CsrMatrix,
    /// IC(0) of `a`, the fine-level smoother.
    smoother: IncompleteCholesky,
    /// The coarse levels; `None` when the hierarchy was dropped.
    coarse: Option<Hierarchy>,
}

/// The coarse levels below the finest one.
#[derive(Debug, Clone)]
struct Hierarchy {
    /// Finest first; the last one is the coarsest.
    levels: Vec<Level>,
    /// Dense Cholesky factor of the coarsest level's operator.
    bottom: DenseCholesky,
}

/// One coarse level.
#[derive(Debug, Clone)]
struct Level {
    /// The aggregate of each node of the level above.
    agg: Vec<usize>,
    /// The Galerkin operator `PᵀAP`.
    a: CsrMatrix,
    /// `1 / a_ii`, for the Gauss–Seidel sweeps.
    inv_diag: Vec<f64>,
}

/// One pairwise-matching pass, aggregates numbered in the order of
/// their lowest node.
struct Pairing {
    /// Each node's aggregate.
    agg: Vec<usize>,
    /// Each aggregate's nodes, the second [`UNPAIRED`] for a singleton.
    members: Vec<(usize, usize)>,
    unpaired: usize,
}

impl<'a> Multilevel<'a> {
    /// Factors IC(0) of `a` and builds the coarse levels below it.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if IC(0), a coarse
    /// diagonal or the coarsest level's dense Cholesky breaks down, and
    /// [`SolverError::DimensionMismatch`] if `a` is not square.
    pub(crate) fn from_matrix(a: &'a CsrMatrix) -> crate::Result<Self> {
        let smoother = IncompleteCholesky::from_matrix(a)?;
        let coarse = coarsen(a)?;
        let depth = 1 + coarse.as_ref().map_or(0, |h| h.levels.len());
        ppdl_obs::observe("solver/multilevel/levels", &LEVEL_BOUNDS, depth as f64);
        Ok(Self {
            a,
            smoother,
            coarse,
        })
    }

    /// Writes `z = B r` for the V-cycle operator `B`.
    pub(crate) fn apply(&self, r: &[f64], z: &mut [f64]) -> crate::Result<()> {
        self.smoother.apply(r, z)?;
        let Some(coarse) = &self.coarse else {
            return Ok(());
        };
        let mut res = vec![0.0; r.len()];
        residual(self.a, z, r, &mut res)?;
        let e = coarse.cycle(0, &res)?;
        prolong_add(&coarse.levels[0].agg, &e, z);
        residual(self.a, z, r, &mut res)?;
        let mut dz = vec![0.0; r.len()];
        self.smoother.apply(&res, &mut dz)?;
        for (zi, d) in z.iter_mut().zip(&dz) {
            *zi += d;
        }
        Ok(())
    }
}

impl Hierarchy {
    /// The coarse correction from level `l`: restricts the residual
    /// `res` of the level above, and returns the cycle's solution on
    /// level `l`.
    fn cycle(&self, l: usize, res: &[f64]) -> crate::Result<Vec<f64>> {
        let level = &self.levels[l];
        let mut b = vec![0.0; level.a.nrows()];
        for (&k, &v) in level.agg.iter().zip(res) {
            b[k] += v;
        }
        if l + 1 == self.levels.len() {
            self.bottom.solve_in_place(&mut b)?;
            return Ok(b);
        }
        // Forward Gauss–Seidel from zero: the entries above the diagonal
        // multiply zeros, so only the lower ones are summed.
        let n = b.len();
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for (j, v) in level.a.row(i) {
                if j >= i {
                    break;
                }
                s -= v * x[j];
            }
            x[i] = s * level.inv_diag[i];
        }
        let mut r = vec![0.0; n];
        residual(&level.a, &x, &b, &mut r)?;
        let e = self.cycle(l + 1, &r)?;
        prolong_add(&self.levels[l + 1].agg, &e, &mut x);
        // Backward Gauss–Seidel, the adjoint of the forward sweep.
        for i in (0..n).rev() {
            let mut s = b[i];
            for (j, v) in level.a.row(i) {
                if j != i {
                    s -= v * x[j];
                }
            }
            x[i] = s * level.inv_diag[i];
        }
        Ok(x)
    }
}

/// `out = b − A x`.
fn residual(a: &CsrMatrix, x: &[f64], b: &[f64], out: &mut [f64]) -> crate::Result<()> {
    a.mul_vec_into(x, out)?;
    for (o, bi) in out.iter_mut().zip(b) {
        *o = bi - *o;
    }
    Ok(())
}

/// `x += P e`: each node takes its aggregate's correction.
fn prolong_add(agg: &[usize], e: &[f64], x: &mut [f64]) {
    for (xi, &k) in x.iter_mut().zip(agg) {
        *xi += e[k];
    }
}

/// The coarse levels below `a`, down to [`DENSE_MAX`] unknowns; `None`
/// when `a` is that small already or a level above that size stalls.
fn coarsen(a: &CsrMatrix) -> crate::Result<Option<Hierarchy>> {
    let mut levels: Vec<Level> = Vec::new();
    loop {
        let top = levels.last().map_or(a, |l| &l.a);
        let n = top.nrows();
        if n <= DENSE_MAX {
            if levels.is_empty() {
                return Ok(None);
            }
            let bottom = top.to_dense().cholesky()?;
            return Ok(Some(Hierarchy { levels, bottom }));
        }
        let first = pair(top);
        if first.unpaired as f64 > STALL_UNPAIRED * n as f64 {
            return Ok(None);
        }
        let mid = galerkin(top, &first);
        let second = pair(&mid);
        let coarse = galerkin(&mid, &second);
        let mut inv_diag = Vec::with_capacity(coarse.nrows());
        for (i, &d) in coarse.diagonal_ref().iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SolverError::NotPositiveDefinite { pivot: i, value: d });
            }
            inv_diag.push(1.0 / d);
        }
        let agg = first.agg.iter().map(|&k| second.agg[k]).collect();
        levels.push(Level {
            agg,
            a: coarse,
            inv_diag,
        });
    }
}

/// One pairwise-matching pass over `a`'s graph, in node order: an
/// unpaired node pairs with its strongest unpaired neighbour `j` when
/// `−a_ij` reaches [`STRONG_OF_DIAG`]` · a_ii` and [`STRONG_OF_ROW`] of
/// the row's strongest coupling.
fn pair(a: &CsrMatrix) -> Pairing {
    let n = a.nrows();
    let diag = a.diagonal_ref();
    let mut agg = vec![UNPAIRED; n];
    let mut members = Vec::with_capacity(n / 2 + 1);
    let mut unpaired = 0;
    for i in 0..n {
        if agg[i] != UNPAIRED {
            continue;
        }
        let (cols, vals) = a.row_parts(i);
        let (mut strongest, mut best, mut best_c) = (0.0_f64, UNPAIRED, 0.0_f64);
        for (&j, &v) in cols.iter().zip(vals) {
            if j == i {
                continue;
            }
            let c = -v;
            strongest = strongest.max(c);
            if agg[j] == UNPAIRED && c > best_c {
                (best, best_c) = (j, c);
            }
        }
        let k = members.len();
        agg[i] = k;
        if best != UNPAIRED
            && best_c >= STRONG_OF_DIAG * diag[i]
            && best_c >= STRONG_OF_ROW * strongest
        {
            agg[best] = k;
            members.push((i, best));
        } else {
            members.push((i, UNPAIRED));
            unpaired += 1;
        }
    }
    Pairing {
        agg,
        members,
        unpaired,
    }
}

/// The Galerkin product `PᵀAP` for the piecewise-constant `P` of `p`.
/// Coarse row `k` gathers its first member's row, then its second's,
/// each in column order, maps the columns to aggregates, sorts them
/// stably and sums each aggregate's entries in that order.
fn galerkin(a: &CsrMatrix, p: &Pairing) -> CsrMatrix {
    let nc = p.members.len();
    let mut row: Vec<(usize, f64)> = Vec::new();
    let mut indptr = Vec::with_capacity(nc + 1);
    let mut indices = Vec::with_capacity(a.nnz());
    let mut data = Vec::with_capacity(a.nnz());
    indptr.push(0);
    for &(first, second) in &p.members {
        row.clear();
        for i in [first, second] {
            if i != UNPAIRED {
                let (cols, vals) = a.row_parts(i);
                row.extend(cols.iter().zip(vals).map(|(&j, &v)| (p.agg[j], v)));
            }
        }
        // A stable insertion sort: aggregates are numbered in node
        // order, so the mapped columns are nearly sorted already.
        for k in 1..row.len() {
            let e = row[k];
            let mut m = k;
            while m > 0 && row[m - 1].0 > e.0 {
                row[m] = row[m - 1];
                m -= 1;
            }
            row[m] = e;
        }
        let mut k = 0;
        while k < row.len() {
            let (c, mut sum) = row[k];
            k += 1;
            while k < row.len() && row[k].0 == c {
                sum += row[k].1;
                k += 1;
            }
            indices.push(c);
            data.push(sum);
        }
        indptr.push(indices.len());
    }
    // Reserved for the fine nonzeros; the coarse operator keeps only
    // its own through the solve.
    indices.shrink_to_fit();
    data.shrink_to_fit();
    // Every row is sorted, duplicate-free and in range by construction.
    CsrMatrix::assemble(nc, nc, indptr, indices, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// 2-D grid Laplacian with one grounded corner.
    fn grid(side: usize) -> CsrMatrix {
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

    #[test]
    fn a_grid_coarsens_about_four_to_one_down_to_the_dense_size() {
        let a = grid(40);
        let ml = Multilevel::from_matrix(&a).unwrap();
        let h = ml
            .coarse
            .as_ref()
            .expect("a grid Laplacian keeps its hierarchy");
        let mut above = a.nrows();
        for level in &h.levels {
            let n = level.a.nrows();
            assert!(n * 3 < above, "{above} -> {n} is not a 4:1-ish cut");
            assert_eq!(level.agg.len(), above);
            above = n;
        }
        assert!(above <= DENSE_MAX);
        assert_eq!(h.bottom.dim(), above);
    }

    #[test]
    fn the_galerkin_operator_sums_the_aggregates_couplings() {
        // Pairs {0, 1} and {2, 3} of a 4-node chain: PᵀAP by hand.
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..3 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        t.stamp_grounded_conductance(0, 1.0);
        let p = Pairing {
            agg: vec![0, 0, 1, 1],
            members: vec![(0, 1), (2, 3)],
            unpaired: 0,
        };
        let c = galerkin(&t.to_csr(), &p);
        assert_eq!(c.to_dense().get(0, 0), 2.0);
        assert_eq!(c.to_dense().get(0, 1), -1.0);
        assert_eq!(c.to_dense().get(1, 0), -1.0);
        assert_eq!(c.to_dense().get(1, 1), 1.0);
    }

    #[test]
    fn weak_couplings_stall_and_drop_the_hierarchy() {
        // Every node grounded far more strongly than it couples to its
        // neighbours: no pair reaches a tenth of the diagonal.
        let n = 400;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        for i in 0..n {
            t.stamp_grounded_conductance(i, 100.0);
        }
        let a = t.to_csr();
        let ml = Multilevel::from_matrix(&a).unwrap();
        assert!(ml.coarse.is_none());
        // IC(0) alone.
        let ic = IncompleteCholesky::from_matrix(&a).unwrap();
        let r: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let (mut z1, mut z2) = (vec![0.0; n], vec![0.0; n]);
        ml.apply(&r, &mut z1).unwrap();
        ic.apply(&r, &mut z2).unwrap();
        assert_eq!(z1, z2);
    }

    #[test]
    fn the_cycle_is_symmetric_and_positive() {
        // Two coarse levels, so the Gauss–Seidel sweeps run too.
        let a = grid(40);
        let n = a.nrows();
        let ml = Multilevel::from_matrix(&a).unwrap();
        assert!(ml.coarse.is_some());
        let u: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let v: Vec<f64> = (0..n).map(|i| ((i * 5 + 1) % 13) as f64 - 6.0).collect();
        let (mut bu, mut bv) = (vec![0.0; n], vec![0.0; n]);
        ml.apply(&u, &mut bu).unwrap();
        ml.apply(&v, &mut bv).unwrap();
        let (vbu, ubv) = (crate::vecops::dot(&v, &bu), crate::vecops::dot(&u, &bv));
        assert!(
            (vbu - ubv).abs() <= 1e-10 * vbu.abs().max(1.0),
            "{vbu} vs {ubv}"
        );
        assert!(crate::vecops::dot(&u, &bu) > 0.0);
        assert!(crate::vecops::dot(&v, &bv) > 0.0);
    }
}

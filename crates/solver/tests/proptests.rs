//! Property-based tests for the sparse linear-algebra kernels.

use ppdl_solver::{CgOptions, ConjugateGradient, CsrMatrix, PrecondKind, TripletMatrix};
use proptest::prelude::*;

/// Strategy: a random resistor network on `n` nodes that is guaranteed
/// SPD — a spanning chain plus extra random conductances plus at least
/// one grounded node.
fn spd_network(max_nodes: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_nodes)
        .prop_flat_map(|n| {
            let extra = proptest::collection::vec((0..n, 0..n, 0.1_f64..10.0), 0..(3 * n));
            let chain_g = proptest::collection::vec(0.1_f64..10.0, n - 1);
            let ground = (0..n, 0.1_f64..10.0);
            (Just(n), chain_g, extra, ground)
        })
        .prop_map(|(n, chain_g, extra, (gnode, gg))| {
            let mut t = TripletMatrix::new(n, n);
            for (i, g) in chain_g.iter().enumerate() {
                t.stamp_conductance(i, i + 1, *g);
            }
            for (a, b, g) in extra {
                if a != b {
                    t.stamp_conductance(a, b, g);
                }
            }
            t.stamp_grounded_conductance(gnode, gg);
            t.to_csr()
        })
}

proptest! {
    /// Every assembled network matrix is symmetric and diagonally
    /// dominant — the invariant that guarantees CG convergence.
    #[test]
    fn assembled_networks_are_symmetric_dominant(a in spd_network(20)) {
        prop_assert!(a.is_symmetric(1e-12));
        prop_assert!(a.is_diagonally_dominant());
    }

    /// CG must actually solve the system: residual below tolerance.
    #[test]
    fn cg_residual_below_tolerance(
        a in spd_network(16),
        seed in proptest::collection::vec(-5.0_f64..5.0, 16),
    ) {
        let n = a.nrows();
        let b = &seed[..n];
        let cg = ConjugateGradient::new(CgOptions {
            tolerance: 1e-9,
            precond: PrecondKind::Identity,
            ..CgOptions::default()
        });
        let sol = cg.solve(&a, b).unwrap();
        let r = a.residual(&sol.x, b).unwrap();
        let bnorm = ppdl_solver::vecops::norm2(b);
        if bnorm > 0.0 {
            prop_assert!(ppdl_solver::vecops::norm2(&r) <= 1e-8 * bnorm.max(1.0));
        }
    }

    /// CG with every [`PrecondKind`] converges to the unpreconditioned
    /// solution on random SPD networks — the contract that makes the
    /// preconditioner a pure performance knob.
    #[test]
    fn every_precond_kind_agrees_with_unpreconditioned(
        a in spd_network(12),
        seed in proptest::collection::vec(-3.0_f64..3.0, 12),
    ) {
        let n = a.nrows();
        let b = &seed[..n];
        let base = ConjugateGradient::new(CgOptions {
            tolerance: 1e-11,
            precond: PrecondKind::Identity,
            ..CgOptions::default()
        });
        let x_plain = base.solve(&a, b).unwrap().x;
        for kind in PrecondKind::ALL {
            let options = CgOptions {
                tolerance: 1e-11,
                precond: kind,
                ..CgOptions::default()
            };
            let x = ConjugateGradient::new(options).solve(&a, b).unwrap().x;
            for i in 0..n {
                prop_assert!(
                    (x_plain[i] - x[i]).abs() < 1e-6,
                    "{} node {}: {} vs {}", kind, i, x_plain[i], x[i]
                );
            }
        }
    }

    /// CG agrees with the dense Cholesky oracle.
    #[test]
    fn cg_matches_dense_oracle(
        a in spd_network(10),
        seed in proptest::collection::vec(-2.0_f64..2.0, 10),
    ) {
        let n = a.nrows();
        let b = &seed[..n];
        let cg = ConjugateGradient::new(CgOptions { tolerance: 1e-12, ..CgOptions::default() });
        let x = cg.solve(&a, b).unwrap().x;
        let dense = a.to_dense().cholesky().unwrap().solve(b).unwrap();
        for i in 0..n {
            prop_assert!((x[i] - dense[i]).abs() < 1e-6, "node {}: {} vs {}", i, x[i], dense[i]);
        }
    }

    /// Triplet-to-CSR then SpMV agrees with a naive dense accumulation.
    #[test]
    fn spmv_matches_naive(
        entries in proptest::collection::vec((0usize..8, 0usize..8, -10.0_f64..10.0), 1..40),
        x in proptest::collection::vec(-5.0_f64..5.0, 8),
    ) {
        let mut t = TripletMatrix::new(8, 8);
        let mut dense = vec![0.0; 64];
        for (r, c, v) in &entries {
            t.push(*r, *c, *v);
            dense[r * 8 + c] += v;
        }
        let a = t.to_csr();
        let y = a.mul_vec(&x).unwrap();
        for r in 0..8 {
            let naive: f64 = (0..8).map(|c| dense[r * 8 + c] * x[c]).sum();
            prop_assert!((y[r] - naive).abs() < 1e-9);
        }
    }

    /// Transpose is an involution and preserves the entry set.
    #[test]
    fn transpose_involution(
        entries in proptest::collection::vec((0usize..6, 0usize..9, -3.0_f64..3.0), 0..30),
    ) {
        let mut t = TripletMatrix::new(6, 9);
        for (r, c, v) in &entries {
            t.push(*r, *c, *v);
        }
        let a = t.to_csr();
        let at = a.transpose();
        prop_assert_eq!(at.nrows(), 9);
        prop_assert_eq!(at.ncols(), 6);
        prop_assert_eq!(&a.transpose().transpose(), &a);
        for r in 0..6 {
            for (c, v) in a.row(r) {
                prop_assert_eq!(at.get(c, r), v);
            }
        }
    }

    /// Sparse Cholesky agrees with the dense oracle on random SPD
    /// networks.
    #[test]
    fn sparse_cholesky_matches_dense(
        a in spd_network(14),
        seed in proptest::collection::vec(-4.0_f64..4.0, 14),
    ) {
        let n = a.nrows();
        let b = &seed[..n];
        let sparse = ppdl_solver::SparseCholesky::factor(&a).unwrap();
        let xs = sparse.solve(b).unwrap();
        let xd = a.to_dense().cholesky().unwrap().solve(b).unwrap();
        for i in 0..n {
            prop_assert!((xs[i] - xd[i]).abs() < 1e-7, "node {}: {} vs {}", i, xs[i], xd[i]);
        }
    }
}

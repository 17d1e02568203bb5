//! Kernel microbenches as a registered experiment: tiled GEMM against
//! the scalar triple loop it replaced, blocked SpMV throughput, and CG
//! iterations and seconds per iterative preconditioner on a power-grid
//! Laplacian.
//!
//! It is the repository's one kernel benchmark. The numbers land in a
//! [`RunManifest`](ppdl_core::pipeline::RunManifest) that `ppdl-bench
//! baseline` diffs against a committed snapshot in CI; run it with
//! `--threads 1` and `--threads N` to measure thread scaling.

use std::fmt::Write as _;
use std::time::Instant;

use ppdl_core::pipeline::ArtifactCache;
use ppdl_nn::Matrix;
use ppdl_solver::{CgOptions, ConjugateGradient, CsrMatrix, PrecondKind, TripletMatrix};

use super::{manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

/// 2-D grid Laplacian with grounded corner — the structure of a
/// power-grid conductance matrix.
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

/// The naive triple-loop matmul the tiled GEMM replaced, kept as the
/// speedup baseline.
fn scalar_matmul(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                // ppdl-lint: allow(perf/scalar-matmul) -- the deliberate scalar baseline the speedup is measured against
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// Best-of-`reps` wall time in seconds; best-of suppresses scheduler
/// noise better than the mean at these sub-second scales.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

pub(super) fn run(opts: &Options, _cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("kernels", opts);
    let mut report = String::new();
    opts.apply_threads();
    let reps = if opts.fast { 3 } else { 7 };

    // --- GEMM: tiled vs scalar, paper-scale shapes ------------------
    let shapes: &[(usize, usize, usize)] = if opts.fast {
        &[(512, 24, 24), (96, 96, 96)]
    } else {
        &[(4096, 24, 24), (256, 256, 256)]
    };
    let _ = writeln!(report, "GEMM: register-tiled vs scalar triple loop\n");
    let mut gemm_rows = Vec::new();
    for &(m, k, n) in shapes {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 113) as f64 / 113.0 - 0.5);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 17) % 127) as f64 / 127.0 - 0.5);
        a.matmul(&b)?; // validate shapes once, outside the timed closure
        let scalar = time_best(reps, || {
            // Allocate the output inside the closure like matmul does,
            // so both paths pay the same allocation cost.
            let mut out = vec![0.0f64; m * n];
            scalar_matmul(m, k, n, a.as_slice(), b.as_slice(), &mut out);
        });
        let tiled = time_best(reps, || {
            // ppdl-lint: allow(robustness/unwrap-in-lib) -- timed closure; the same call was validated just above
            let _ = a.matmul(&b).expect("matmul");
        });
        let speedup = scalar / tiled;
        let gflops = 2.0 * (m * k * n) as f64 / tiled / 1e9;
        manifest.add_metric(&format!("gemm_speedup_{m}x{k}x{n}"), speedup);
        manifest.add_metric(&format!("gemm_gflops_{m}x{k}x{n}"), gflops);
        gemm_rows.push(vec![
            format!("{m}x{k}x{n}"),
            format!("{:.3}", scalar * 1e3),
            format!("{:.3}", tiled * 1e3),
            format!("{speedup:.2}"),
            format!("{gflops:.2}"),
        ]);
    }
    let gemm_header = ["shape", "scalar (ms)", "tiled (ms)", "speedup", "GFLOP/s"];
    let _ = writeln!(report, "{}", format_table(&gemm_header, &gemm_rows));

    // --- SpMV: blocked/interleaved CSR kernel -----------------------
    let sides: &[usize] = if opts.fast { &[64, 150] } else { &[150, 400] };
    let _ = writeln!(report, "SpMV: row-blocked CSR kernel\n");
    let mut spmv_rows = Vec::new();
    for &side in sides {
        let a = grid(side);
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        a.mul_vec_into(&x, &mut y)?; // validate shapes once, outside the timed closure
        let secs = time_best(reps * 3, || {
            // ppdl-lint: allow(robustness/unwrap-in-lib) -- timed closure; the same call was validated just above
            a.mul_vec_into(&x, &mut y).expect("spmv");
        });
        let gflops = 2.0 * a.nnz() as f64 / secs / 1e9;
        manifest.add_metric(&format!("spmv_gflops_n{}", side * side), gflops);
        spmv_rows.push(vec![
            format!("{}", side * side),
            format!("{}", a.nnz()),
            format!("{:.1}", secs * 1e6),
            format!("{gflops:.2}"),
        ]);
    }
    let spmv_header = ["unknowns", "nnz", "time (us)", "GFLOP/s"];
    let _ = writeln!(report, "{}", format_table(&spmv_header, &spmv_rows));

    // --- CG iterations per preconditioner ---------------------------
    let side = if opts.fast { 96 } else { 200 };
    let a = grid(side);
    let b_vec: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64 * 0.1).collect();
    let _ = writeln!(
        report,
        "CG iterations on a {side}x{side} grid (tolerance 1e-8)\n"
    );
    let mut cg_rows = Vec::new();
    let mut jacobi_iters = None;
    // The iterative kinds only: `Direct` is an exact factor, so its
    // one iteration says nothing about CG on this matrix.
    for kind in PrecondKind::ALL
        .into_iter()
        .filter(|&k| k != PrecondKind::Direct)
    {
        let cg = ConjugateGradient::new(CgOptions {
            tolerance: 1e-8,
            precond: kind,
            ..CgOptions::default()
        });
        let t0 = Instant::now();
        let sol = cg.solve(&a, &b_vec)?;
        let secs = t0.elapsed().as_secs_f64();
        if kind == PrecondKind::Jacobi {
            jacobi_iters = Some(sol.iterations as f64);
        }
        let cut = jacobi_iters
            .map(|j| 100.0 * (1.0 - sol.iterations as f64 / j))
            .unwrap_or(0.0);
        manifest.add_metric(&format!("cg_iters_{}", kind.name()), sol.iterations as f64);
        cg_rows.push(vec![
            kind.name().to_string(),
            format!("{}", sol.iterations),
            format!("{cut:.1}"),
            format!("{:.3}", secs),
        ]);
    }
    let cg_header = [
        "preconditioner",
        "iterations",
        "cut vs jacobi (%)",
        "time (s)",
    ];
    let _ = writeln!(report, "{}", format_table(&cg_header, &cg_rows));

    let header = ["metric", "value"];
    let rows: Vec<Vec<String>> = manifest
        .metrics
        .iter()
        .map(|(k, v)| vec![k.clone(), format!("{v:.4}")])
        .collect();
    let path = write_primary_csv(opts, "kernels.csv", &header, &rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

//! Cache-blocked, register-tiled GEMM microkernels.
//!
//! This is the blessed home of every dense triple loop in `ppdl-nn`
//! (the `perf/scalar-matmul` lint steers new code here). All three
//! [`Matrix`](crate::Matrix) products route through this module, plus
//! the bias-seeded variant the im2col convolution path uses and the
//! one dense inference kernel, [`dense_forward`].
//!
//! # The fixed-order reduction contract
//!
//! Every kernel computes each output element as **one accumulator
//! folded in ascending-`k` order**, with one exception: the `n % 4`
//! tail columns of `gemm_nt` and of [`dense_forward`] keep the
//! historical 4-accumulator association of [`unrolled_dot`]. Register
//! tiling only changes *which* elements are in flight simultaneously —
//! never the association of any single element's sum — so the results
//! are bitwise identical to the pre-tiling scalar loops (for finite
//! inputs), which the committed golden-model tests rely on.
//!
//! Every kernel runs on the calling thread. Rows never mix, so the
//! engine's parallel split of a batch into fixed row chunks (one level
//! up) cannot change a bit either.
//!
//! Tiling scheme: `MR×NR = 4×8` register tiles over a B panel packed
//! contiguously per `NR`-column strip (`gemm_nn` / `gemm_tn`), or
//! `4×4` tiles straight out of row-major B (`gemm_nt`, where B's rows
//! are already contiguous along `k`). One A element is broadcast
//! against an NR-wide B row per step, so the fixed-size inner loops
//! autovectorize without any unsafe code.
//!
//! # Dense inference
//!
//! [`dense_forward`] runs a block of at most [`BLOCK`] rows through a
//! whole stack of dense layers before it moves on, so the activations
//! stay in L1 between layers. The block is stored feature-major
//! (`k × ld`: feature `k` of row `r` at `k·ld + r`), so [`LANES`]
//! neighbouring rows share SIMD registers and each weight is splatted
//! against them; two buffers sized to the block take turns as a
//! layer's input and output. Bias and activation are applied as each
//! tile is stored, and every output element keeps the association
//! `gemm_nt` gives it, so inference is bit-identical to
//! `act(x·Wᵀ + b)` computed layer by layer through `gemm_nt`.

use crate::{Activation, DenseLayer, Matrix, NnError};

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile (one 64-byte cache line of `f64`).
const NR: usize = 8;
/// Rows per register tile of [`dense_forward`]: the SIMD lanes one
/// splatted weight multiplies. A tile of two neurons × 12 rows holds
/// 12 two-lane accumulators, which leaves room for the two splats in
/// the 16 vector registers of baseline x86-64.
const LANES: usize = 12;
/// Rows per block of [`dense_forward`]. Two feature-major buffers of a
/// 24-wide layer at 96 rows take 36 KiB, about an L1 data cache.
const BLOCK: usize = 96;

/// Telemetry for one kernel call (no-op unless collection is on).
fn record_gemm(kind: &'static str, m: usize, k: usize, n: usize) {
    if !ppdl_obs::enabled() {
        return;
    }
    let reg = ppdl_obs::global();
    reg.counter(kind).inc();
    reg.counter("nn/gemm/fmas").add((m * k * n) as u64);
}

/// Packs columns `[j, j+jw)` of the row-major `kdim×ldb` matrix `b`
/// into a contiguous `kdim×jw` panel so the microkernel streams it
/// linearly.
fn pack_panel(b: &[f64], ldb: usize, kdim: usize, j: usize, jw: usize, panel: &mut Vec<f64>) {
    panel.clear();
    for kk in 0..kdim {
        let base = kk * ldb + j;
        panel.extend_from_slice(&b[base..base + jw]);
    }
}

/// `out = A·B` where `a` is `m×kdim` and `b` is `kdim×n`, both
/// row-major. Each element is a serial ascending-`k` sum — bitwise
/// equal to the textbook loop for finite inputs.
pub(crate) fn gemm_nn(m: usize, kdim: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    record_gemm("nn/gemm/nn", m, kdim, n);
    let mut panel = Vec::new();
    let mut j = 0;
    while j < n {
        let jw = (n - j).min(NR);
        pack_panel(b, n, kdim, j, jw, &mut panel);
        let mut i = 0;
        while i < m {
            let iw = (m - i).min(MR);
            if jw == NR {
                // Two 4-wide half-tiles, each swept over all of k
                // in turn: a 4×8 f64 accumulator block needs 16
                // vector registers and spills on baseline x86-64;
                // 4×4 fits. Each element still folds one serial
                // ascending-k accumulator.
                for half in 0..2 {
                    let off = half * (NR / 2);
                    let mut acc = [[0.0_f64; NR / 2]; MR];
                    for kk in 0..kdim {
                        let prow = &panel[kk * NR + off..kk * NR + off + NR / 2];
                        for (r, acc_r) in acc.iter_mut().enumerate().take(iw) {
                            let ar = a[(i + r) * kdim + kk];
                            for t in 0..NR / 2 {
                                acc_r[t] += ar * prow[t];
                            }
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate().take(iw) {
                        let base = (i + r) * n + j + off;
                        out[base..base + NR / 2].copy_from_slice(acc_r);
                    }
                }
            } else {
                let mut acc = [[0.0_f64; NR]; MR];
                for kk in 0..kdim {
                    let prow = &panel[kk * jw..kk * jw + jw];
                    for (r, acc_r) in acc.iter_mut().enumerate().take(iw) {
                        let ar = a[(i + r) * kdim + kk];
                        for t in 0..jw {
                            acc_r[t] += ar * prow[t];
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate().take(iw) {
                    let base = (i + r) * n + j;
                    out[base..base + jw].copy_from_slice(&acc_r[..jw]);
                }
            }
            i += iw;
        }
        j += jw;
    }
}

/// `out = A·Bᵀ` where `a` is `m×kdim` and `b` is `n×kdim`, both
/// row-major. Complete 4-column blocks use serial ascending-`k`
/// accumulators; the `n % 4` tail columns use [`unrolled_dot`] — the
/// exact association of the historical inference kernel, preserved so
/// committed golden predictions stay bitwise stable.
pub(crate) fn gemm_nt(m: usize, kdim: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), n * kdim);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    record_gemm("nn/gemm/nt", m, kdim, n);
    let jmain = n / 4 * 4;
    let mut i = 0;
    while i < m {
        let iw = (m - i).min(MR);
        let mut j = 0;
        while j < jmain {
            // iw×4 register tile: four B rows stream once and feed
            // every A row in the tile.
            let mut acc = [[0.0_f64; 4]; MR];
            let b0 = &b[j * kdim..(j + 1) * kdim];
            let b1 = &b[(j + 1) * kdim..(j + 2) * kdim];
            let b2 = &b[(j + 2) * kdim..(j + 3) * kdim];
            let b3 = &b[(j + 3) * kdim..(j + 4) * kdim];
            for kk in 0..kdim {
                let (v0, v1, v2, v3) = (b0[kk], b1[kk], b2[kk], b3[kk]);
                for (r, acc_r) in acc.iter_mut().enumerate().take(iw) {
                    let ar = a[(i + r) * kdim + kk];
                    acc_r[0] += ar * v0;
                    acc_r[1] += ar * v1;
                    acc_r[2] += ar * v2;
                    acc_r[3] += ar * v3;
                }
            }
            for (r, acc_r) in acc.iter().enumerate().take(iw) {
                let base = (i + r) * n + j;
                out[base..base + 4].copy_from_slice(acc_r);
            }
            j += 4;
        }
        for jj in jmain..n {
            let brow = &b[jj * kdim..(jj + 1) * kdim];
            for r in 0..iw {
                let arow = &a[(i + r) * kdim..(i + r + 1) * kdim];
                out[(i + r) * n + jj] = unrolled_dot(arow, brow);
            }
        }
        i += iw;
    }
}

/// `out = Aᵀ·B` where `a` is `kdim×m` and `b` is `kdim×n`, both
/// row-major. Each element is a serial ascending-`k` sum over A's rows
/// — bitwise equal to the historical k-outer scatter loop for finite
/// inputs.
pub(crate) fn gemm_tn(m: usize, kdim: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), kdim * m);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    record_gemm("nn/gemm/tn", m, kdim, n);
    let mut panel = Vec::new();
    let mut j = 0;
    while j < n {
        let jw = (n - j).min(NR);
        pack_panel(b, n, kdim, j, jw, &mut panel);
        let mut i = 0;
        while i < m {
            let iw = (m - i).min(MR);
            if jw == NR {
                // Same two-half-tile split as gemm_nn: 4×4
                // accumulators fit the register file, 4×8 spills.
                // Per-element association is untouched.
                for half in 0..2 {
                    let off = half * (NR / 2);
                    let mut acc = [[0.0_f64; NR / 2]; MR];
                    for kk in 0..kdim {
                        let prow = &panel[kk * NR + off..kk * NR + off + NR / 2];
                        for (r, acc_r) in acc.iter_mut().enumerate().take(iw) {
                            let ar = a[kk * m + i + r];
                            for t in 0..NR / 2 {
                                acc_r[t] += ar * prow[t];
                            }
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate().take(iw) {
                        let base = (i + r) * n + j + off;
                        out[base..base + NR / 2].copy_from_slice(acc_r);
                    }
                }
            } else {
                let mut acc = [[0.0_f64; NR]; MR];
                for kk in 0..kdim {
                    let prow = &panel[kk * jw..kk * jw + jw];
                    for (r, acc_r) in acc.iter_mut().enumerate().take(iw) {
                        let ar = a[kk * m + i + r];
                        for t in 0..jw {
                            acc_r[t] += ar * prow[t];
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate().take(iw) {
                    let base = (i + r) * n + j;
                    out[base..base + jw].copy_from_slice(&acc_r[..jw]);
                }
            }
            i += iw;
        }
        j += jw;
    }
}

/// `out[i][j] = bias[i] + Σₖ a[i][k]·b[j][k]` with **every** element a
/// serial ascending-`k` sum seeded from the bias — the association the
/// direct convolution loop uses, so the im2col path reproduces it
/// bitwise (padding contributes `+0.0` terms, which cannot change a
/// finite accumulation).
pub(crate) fn gemm_nt_bias_rows(
    m: usize,
    kdim: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), n * kdim);
    debug_assert_eq!(bias.len(), m);
    debug_assert_eq!(out.len(), m * n);
    record_gemm("nn/gemm/nt_bias", m, kdim, n);
    for i in 0..m {
        let arow = &a[i * kdim..(i + 1) * kdim];
        let orow = &mut out[i * n..(i + 1) * n];
        let seed = bias[i];
        let mut j = 0;
        while j + 4 <= n {
            let mut acc = [seed; 4];
            let b0 = &b[j * kdim..(j + 1) * kdim];
            let b1 = &b[(j + 1) * kdim..(j + 2) * kdim];
            let b2 = &b[(j + 2) * kdim..(j + 3) * kdim];
            let b3 = &b[(j + 3) * kdim..(j + 4) * kdim];
            for (kk, &ak) in arow.iter().enumerate() {
                acc[0] += ak * b0[kk];
                acc[1] += ak * b1[kk];
                acc[2] += ak * b2[kk];
                acc[3] += ak * b3[kk];
            }
            orow[j..j + 4].copy_from_slice(&acc);
            j += 4;
        }
        while j < n {
            let brow = &b[j * kdim..(j + 1) * kdim];
            let mut acc = seed;
            for (kk, &ak) in arow.iter().enumerate() {
                acc += ak * brow[kk];
            }
            orow[j] = acc;
            j += 1;
        }
    }
}

/// Inference through a stack of consecutive dense layers:
/// `act(x·Wᵀ + b)` for each layer in turn, on the `m × k` batch `x`.
/// Each block of at most [`BLOCK`] rows is transposed into a
/// feature-major buffer once, taken through every layer, and
/// transposed out once. `nn/gemm/fmas` grows by `m·k·n` per layer.
///
/// Each output element is what `gemm_nt` followed by `act(v + b)`
/// gives it: columns below `⌊n/4⌋·4` are one accumulator from `0.0`
/// adding terms in ascending `k`; the tail columns use
/// [`unrolled_dot`]'s association. Rows never mix, so the output does
/// not depend on how the caller splits a batch.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if a layer's input width differs
/// from the width flowing into it.
pub(crate) fn dense_forward(layers: &[&DenseLayer], x: &Matrix) -> crate::Result<Matrix> {
    let (m, mut width) = x.shape();
    let mut widest = width;
    for (i, layer) in layers.iter().enumerate() {
        if layer.input_dim() != width {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "dense layer {i} expects {} inputs, batch is {m}x{width}",
                    layer.input_dim()
                ),
            });
        }
        width = layer.output_dim();
        widest = widest.max(width);
    }
    let mut out = Matrix::zeros(m, width);
    if m == 0 {
        return Ok(out);
    }
    for layer in layers {
        record_gemm("nn/gemm/dense", m, layer.input_dim(), layer.output_dim());
    }
    // A batch smaller than a block gets buffers sized to the batch.
    let ld = m.min(BLOCK).next_multiple_of(LANES);
    let mut cur = vec![0.0; widest * ld];
    let mut next = vec![0.0; widest * ld];
    let mut r0 = 0;
    while r0 < m {
        let rows = (m - r0).min(BLOCK);
        for r in 0..rows {
            for (kk, &v) in x.row(r0 + r).iter().enumerate() {
                cur[kk * ld + r] = v;
            }
        }
        let lanes = rows.next_multiple_of(LANES);
        for layer in layers {
            dense_layer(layer, ld, lanes, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        for r in 0..rows {
            for (j, o) in out.row_mut(r0 + r).iter_mut().enumerate() {
                *o = cur[j * ld + r];
            }
        }
        r0 += rows;
    }
    Ok(out)
}

/// One layer of [`dense_forward`] on the first `lanes` rows of a
/// feature-major block with leading dimension `ld`. The activation is
/// chosen here, once, so the tile loop calls a closure the compiler
/// can inline instead of matching per element.
fn dense_layer(layer: &DenseLayer, ld: usize, lanes: usize, x: &[f64], out: &mut [f64]) {
    match layer.activation() {
        Activation::Relu => dense_tiles(layer, ld, lanes, x, out, |v| Activation::Relu.apply(v)),
        Activation::Identity => {
            dense_tiles(layer, ld, lanes, x, out, |v| Activation::Identity.apply(v));
        }
        act => dense_tiles(layer, ld, lanes, x, out, |v| act.apply(v)),
    }
}

/// `out[j·ld + r] = act(Σₖ x[k·ld + r]·w[j·kdim + k] + b[j])` for rows
/// `r < lanes` (a multiple of [`LANES`]), with `gemm_nt`'s association
/// per element.
fn dense_tiles<F: Fn(f64) -> f64>(
    layer: &DenseLayer,
    ld: usize,
    lanes: usize,
    x: &[f64],
    out: &mut [f64],
    act: F,
) {
    let w = layer.weights().as_slice();
    let b = layer.bias();
    let (kdim, n) = (layer.input_dim(), layer.output_dim());
    let jmain = n / 4 * 4;
    let mut j = 0;
    while j < jmain {
        // 2 neurons × LANES rows: each weight is splatted once per k
        // and multiplies LANES rows; one serial ascending-k
        // accumulator per element.
        let w0 = &w[j * kdim..(j + 1) * kdim];
        let w1 = &w[(j + 1) * kdim..(j + 2) * kdim];
        let mut r = 0;
        while r < lanes {
            let mut acc = [[0.0_f64; LANES]; 2];
            for kk in 0..kdim {
                let xs = &x[kk * ld + r..kk * ld + r + LANES];
                let (v0, v1) = (w0[kk], w1[kk]);
                for t in 0..LANES {
                    acc[0][t] += xs[t] * v0;
                    acc[1][t] += xs[t] * v1;
                }
            }
            for (q, acc_q) in acc.iter().enumerate() {
                let bias = b[j + q];
                let o = &mut out[(j + q) * ld + r..(j + q) * ld + r + LANES];
                for t in 0..LANES {
                    o[t] = act(acc_q[t] + bias);
                }
            }
            r += LANES;
        }
        j += 2;
    }
    let chunks = kdim / 4 * 4;
    for jj in jmain..n {
        // unrolled_dot's association, one lane per row: four strided
        // partial sums, a serial tail, then (s0 + s1) + (s2 + s3) + tail.
        let wr = &w[jj * kdim..(jj + 1) * kdim];
        let bias = b[jj];
        let mut r = 0;
        while r < lanes {
            let add_term = |acc: &mut [f64; LANES], kk: usize| {
                let xs = &x[kk * ld + r..kk * ld + r + LANES];
                for t in 0..LANES {
                    acc[t] += xs[t] * wr[kk];
                }
            };
            let mut s = [[0.0_f64; LANES]; 4];
            for (q, s_q) in s.iter_mut().enumerate() {
                (q..chunks).step_by(4).for_each(|kk| add_term(s_q, kk));
            }
            let mut tail = [0.0_f64; LANES];
            (chunks..kdim).for_each(|kk| add_term(&mut tail, kk));
            let o = &mut out[jj * ld + r..jj * ld + r + LANES];
            for t in 0..LANES {
                let dot = (s[0][t] + s[1][t]) + (s[2][t] + s[3][t]) + tail[t];
                o[t] = act(dot + bias);
            }
            r += LANES;
        }
    }
}

/// Dot product with four independent accumulators, breaking the serial
/// addition dependency so the inference-critical `x · Wᵀ` tail columns
/// vectorise. (Changes summation order, which is fine at f64 for the
/// well-conditioned sums a forward pass produces — and the association
/// is frozen: golden predictions depend on it.)
pub(crate) fn unrolled_dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let chunks = n / 4 * 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i < chunks {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut tail = 0.0;
    while i < n {
        tail += a[i] * b[i];
        i += 1;
    }
    (s0 + s1) + (s2 + s3) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, Network, TensorShape};

    fn fill(rows: usize, cols: usize, salt: u64) -> Vec<f64> {
        (0..rows * cols)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                ((h >> 33) % 2000) as f64 / 997.0 - 1.0
            })
            .collect()
    }

    /// Pre-tiling reference: per-element serial ascending-k (what the
    /// old ikj loop computed for finite data).
    fn ref_nn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Pre-tiling reference for A·Bᵀ: the historical hybrid (serial
    /// 4-column blocks, unrolled_dot tail).
    fn ref_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let mut j = 0;
            while j + 4 <= n {
                let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                for kk in 0..k {
                    let av = arow[kk];
                    s0 += av * b[j * k + kk];
                    s1 += av * b[(j + 1) * k + kk];
                    s2 += av * b[(j + 2) * k + kk];
                    s3 += av * b[(j + 3) * k + kk];
                }
                out[i * n + j] = s0;
                out[i * n + j + 1] = s1;
                out[i * n + j + 2] = s2;
                out[i * n + j + 3] = s3;
                j += 4;
            }
            while j < n {
                out[i * n + j] = unrolled_dot(arow, &b[j * k..(j + 1) * k]);
                j += 1;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tiled_nn_is_bitwise_equal_to_reference() {
        for (m, k, n) in [(1, 1, 1), (5, 7, 9), (13, 3, 17), (8, 16, 8), (9, 24, 33)] {
            let a = fill(m, k, 1);
            let b = fill(k, n, 2);
            let mut out = vec![0.0; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            assert_eq!(bits(&out), bits(&ref_nn(m, k, n, &a, &b)), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_nt_is_bitwise_equal_to_reference() {
        for (m, k, n) in [(1, 1, 1), (5, 7, 9), (13, 3, 17), (6, 24, 11), (9, 32, 4)] {
            let a = fill(m, k, 3);
            let b = fill(n, k, 4);
            let mut out = vec![0.0; m * n];
            gemm_nt(m, k, n, &a, &b, &mut out);
            assert_eq!(bits(&out), bits(&ref_nt(m, k, n, &a, &b)), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_tn_is_bitwise_equal_to_reference() {
        for (m, k, n) in [(1, 1, 1), (5, 7, 9), (17, 13, 3), (8, 40, 12)] {
            // a is k×m here; the reference transposes explicitly.
            let a = fill(k, m, 5);
            let b = fill(k, n, 6);
            let mut at = vec![0.0; m * k];
            for r in 0..k {
                for c in 0..m {
                    at[c * k + r] = a[r * m + c];
                }
            }
            let mut out = vec![0.0; m * n];
            gemm_tn(m, k, n, &a, &b, &mut out);
            assert_eq!(bits(&out), bits(&ref_nn(m, k, n, &at, &b)), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn bias_rows_matches_seeded_serial_sum() {
        let (m, k, n) = (3, 10, 13);
        let a = fill(m, k, 7);
        let b = fill(n, k, 8);
        let bias = [0.5, -1.25, 0.0];
        let mut out = vec![0.0; m * n];
        gemm_nt_bias_rows(m, k, n, &a, &b, &bias, &mut out);
        for i in 0..m {
            for j in 0..n {
                let mut acc = bias[i];
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                assert_eq!(out[i * n + j].to_bits(), acc.to_bits(), "({i},{j})");
            }
        }
    }

    /// Test-only reference for dense inference: `gemm_nt`, then
    /// `act(v + b)`, one layer at a time.
    fn ref_dense(layers: &[&DenseLayer], x: &Matrix) -> Vec<f64> {
        let (m, mut k) = x.shape();
        let mut a = x.as_slice().to_vec();
        for layer in layers {
            let n = layer.output_dim();
            let mut out = vec![0.0; m * n];
            gemm_nt(m, k, n, &a, layer.weights().as_slice(), &mut out);
            for row in out.chunks_mut(n) {
                for (v, b) in row.iter_mut().zip(layer.bias()) {
                    *v = layer.activation().apply(*v + b);
                }
            }
            a = out;
            k = n;
        }
        a
    }

    /// Dense layers of widths `dims`, all with `act`, with filled
    /// weights and biases.
    fn dense_stack(dims: &[usize], act: Activation) -> Vec<DenseLayer> {
        dims.windows(2)
            .enumerate()
            .map(|(i, d)| {
                let salt = 20 + 2 * i as u64;
                let w = Matrix::from_vec(d[1], d[0], fill(d[1], d[0], salt)).unwrap();
                DenseLayer::from_parameters(w, fill(1, d[1], salt + 1), act).unwrap()
            })
            .collect()
    }

    const ACTIVATIONS: [Activation; 5] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu(0.01),
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn dense_forward_is_bitwise_equal_to_layerwise_gemm_nt() {
        let rows = [
            1,
            LANES - 1,
            LANES,
            LANES + 1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            511,
            512,
            1000,
        ];
        // 26, 7 and 1 leave n % 4 tail columns; 24 has none.
        for dims in [&[3, 26, 7, 1][..], &[3, 24, 24, 1]] {
            for act in ACTIVATIONS {
                let stack = dense_stack(dims, act);
                let layers: Vec<&DenseLayer> = stack.iter().collect();
                for m in rows {
                    let x = Matrix::from_vec(m, dims[0], fill(m, dims[0], 9)).unwrap();
                    let got = dense_forward(&layers, &x).unwrap();
                    assert_eq!(got.shape(), (m, dims[dims.len() - 1]));
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&ref_dense(&layers, &x)),
                        "{dims:?} {act:?} at {m} rows"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_forward_rejects_a_broken_width_chain() {
        let stack = dense_stack(&[3, 8, 2], Activation::Relu);
        let x = Matrix::zeros(4, 3);
        assert!(dense_forward(&[&stack[1]], &x).is_err());
        assert!(dense_forward(&[&stack[1], &stack[0]], &Matrix::zeros(4, 8)).is_err());
        assert_eq!(
            dense_forward(&[&stack[0], &stack[1]], &Matrix::zeros(0, 3))
                .unwrap()
                .shape(),
            (0, 2)
        );
    }

    /// `Network::predict` takes batches of 512 rows and more through
    /// the engine's parallel 256-row chunks: the bits must match the
    /// reference at 1 and at 4 threads.
    #[test]
    fn dense_network_predict_is_bitwise_equal_at_one_and_four_threads() {
        let stack = dense_stack(&[3, 26, 7, 1], Activation::Relu);
        let layers: Vec<&DenseLayer> = stack.iter().collect();
        let net = Network::from_parts(
            TensorShape::Flat(3),
            stack.iter().cloned().map(Layer::Dense).collect(),
        )
        .unwrap();
        for m in [512, 1000] {
            let x = Matrix::from_vec(m, 3, fill(m, 3, 15)).unwrap();
            let expected = bits(&ref_dense(&layers, &x));
            ppdl_solver::set_threads(1);
            let one = net.predict(&x).unwrap();
            ppdl_solver::set_threads(4);
            let four = net.predict(&x).unwrap();
            ppdl_solver::set_threads(0);
            assert_eq!(bits(one.as_slice()), expected, "1 thread, {m} rows");
            assert_eq!(bits(four.as_slice()), expected, "4 threads, {m} rows");
        }
    }

    #[test]
    fn zero_k_yields_zero_product() {
        let mut out = vec![1.0; 6];
        gemm_nn(2, 0, 3, &[], &[], &mut out);
        assert_eq!(out, vec![0.0; 6]);
    }

    /// The determinism contract: tiled GEMM output is bitwise
    /// identical at 1 and 4 threads (same shape as the conv determinism
    /// tests).
    #[test]
    fn tiled_gemm_is_bitwise_deterministic_across_thread_counts() {
        let (m, k, n) = (96, 48, 80);
        let a = fill(m, k, 11);
        let bn = fill(k, n, 12);
        let bt = fill(n, k, 13);
        let at = fill(k, m, 14);
        let run = || {
            let mut nn = vec![0.0; m * n];
            gemm_nn(m, k, n, &a, &bn, &mut nn);
            let mut nt = vec![0.0; m * n];
            gemm_nt(m, k, n, &a, &bt, &mut nt);
            let mut tn = vec![0.0; m * n];
            gemm_tn(m, k, n, &at, &bn, &mut tn);
            (bits(&nn), bits(&nt), bits(&tn))
        };
        ppdl_solver::set_threads(1);
        let r1 = run();
        ppdl_solver::set_threads(4);
        let r4 = run();
        ppdl_solver::set_threads(0);
        assert_eq!(r1, r4, "tiled GEMM must not depend on thread count");
    }
}

//! Spatial layers: 2-D convolution, max pooling, and upsampling.
//!
//! Samples stay ordinary [`Matrix`] rows — one row per sample, holding
//! a `C×H×W` map flattened channel-major (`idx = c·H·W + y·W + x`) —
//! so the row-chunk data-parallel engine drives spatial layers exactly
//! like dense ones. The convolution forward pass lowers each sample via
//! [`im2col`] into the bias-seeded GEMM in [`crate::gemm`]; the
//! backward pass and the pooling/upsampling kernels stay plain
//! fixed-order loops. No accumulation order depends on the thread
//! count, which keeps the bitwise-determinism contract intact.

use rand::rngs::StdRng;
use rand::Rng;

use crate::{Activation, Matrix, NnError};

/// Lowers one `C×H×W` sample into a `(H·W) × (C·k²)` patch matrix:
/// row `oy·W + ox` holds the receptive field of that output position,
/// columns ordered `ic·k² + dy·k + dx` to match the weight layout.
/// Out-of-bounds (padding) taps stay `0.0`.
fn im2col(x: &[f64], in_c: usize, h: usize, w: usize, k: usize, pad: usize, patches: &mut [f64]) {
    let plane = h * w;
    let fan_in = in_c * k * k;
    patches.fill(0.0);
    for oy in 0..h {
        for ox in 0..w {
            let prow = &mut patches[(oy * w + ox) * fan_in..(oy * w + ox + 1) * fan_in];
            for ic in 0..in_c {
                let in_base = ic * plane;
                let w_base = ic * k * k;
                for dy in 0..k {
                    let iy = oy + dy;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let iy = iy - pad;
                    for dx in 0..k {
                        let ix = ox + dx;
                        if ix < pad || ix - pad >= w {
                            continue;
                        }
                        let ix = ix - pad;
                        prow[w_base + dy * k + dx] = x[in_base + iy * w + ix];
                    }
                }
            }
        }
    }
}

fn check_dims(detail: &str, dims: &[usize]) -> crate::Result<()> {
    if dims.contains(&0) {
        return Err(NnError::InvalidConfig {
            detail: format!("{detail}: dimensions must be positive, got {dims:?}"),
        });
    }
    Ok(())
}

fn check_input_width(name: &str, input: &Matrix, expected: usize) -> crate::Result<()> {
    if input.cols() != expected {
        return Err(NnError::ShapeMismatch {
            detail: format!(
                "{name}: input width {} vs expected {expected}",
                input.cols()
            ),
        });
    }
    Ok(())
}

/// A 2-D convolution with a square `k×k` kernel (odd `k`), stride 1,
/// and symmetric zero padding, so the spatial size is preserved:
/// `in_c×H×W → out_c×H×W`.
///
/// Weights are stored as an `out_c × (in_c·k·k)` matrix (row `oc`,
/// column `ic·k² + dy·k + dx`), which keeps persistence and the
/// optimizer's flat-slice protocol identical to the dense layer's.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

impl Conv2d {
    /// Creates a convolution with He-style scaled uniform
    /// initialisation over the `in_c·k²` fan-in.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero dimensions or an
    /// even kernel size (symmetric padding needs odd `k`).
    pub fn new(
        in_c: usize,
        h: usize,
        w: usize,
        out_c: usize,
        k: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> crate::Result<Self> {
        check_dims("conv2d", &[in_c, h, w, out_c, k])?;
        if k % 2 == 0 {
            return Err(NnError::InvalidConfig {
                detail: format!("conv2d kernel size {k} must be odd"),
            });
        }
        let fan_in = in_c * k * k;
        let bound = (6.0 / fan_in as f64).sqrt();
        let weights = Matrix::from_fn(out_c, fan_in, |_, _| rng.gen_range(-bound..bound));
        Ok(Self {
            in_c,
            h,
            w,
            out_c,
            k,
            weights,
            bias: vec![0.0; out_c],
            activation,
        })
    }

    /// Rebuilds a convolution from explicit parameters (persistence).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the weight matrix or bias
    /// length disagrees with the declared geometry, or
    /// [`NnError::InvalidConfig`] for invalid geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parameters(
        in_c: usize,
        h: usize,
        w: usize,
        out_c: usize,
        k: usize,
        activation: Activation,
        weights: Matrix,
        bias: Vec<f64>,
    ) -> crate::Result<Self> {
        check_dims("conv2d", &[in_c, h, w, out_c, k])?;
        if k % 2 == 0 {
            return Err(NnError::InvalidConfig {
                detail: format!("conv2d kernel size {k} must be odd"),
            });
        }
        let fan_in = in_c * k * k;
        if weights.shape() != (out_c, fan_in) || bias.len() != out_c {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "conv2d parameters {:?}/{} vs declared {}x{}",
                    weights.shape(),
                    bias.len(),
                    out_c,
                    fan_in
                ),
            });
        }
        Ok(Self {
            in_c,
            h,
            w,
            out_c,
            k,
            weights,
            bias,
            activation,
        })
    }

    /// Input channel count.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Spatial size `(h, w)` (preserved by the layer).
    #[must_use]
    pub fn spatial(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Kernel size.
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// The layer's activation.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix (`out_c × in_c·k²`).
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The per-output-channel bias.
    #[must_use]
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    fn input_len(&self) -> usize {
        self.in_c * self.h * self.w
    }

    fn output_len(&self) -> usize {
        self.out_c * self.h * self.w
    }

    pub(crate) fn forward_pure(&self, input: &Matrix) -> crate::Result<(Matrix, Matrix)> {
        check_input_width("conv2d", input, self.input_len())?;
        let (h, w, k) = (self.h, self.w, self.k);
        let pad = k / 2;
        let plane = h * w;
        let fan_in = self.in_c * k * k;
        let mut pre = Matrix::zeros(input.rows(), self.output_len());
        // im2col + GEMM: lower each sample's padded receptive fields
        // into a `plane × fan_in` patch matrix once, then one
        // register-tiled product computes every output channel. The
        // bias-seeded serial-k kernel reproduces the direct loop's
        // accumulation order bitwise — padding only contributes `+0.0`
        // terms, which cannot change a finite sum.
        let mut patches = vec![0.0; plane * fan_in];
        for r in 0..input.rows() {
            im2col(input.row(r), self.in_c, h, w, k, pad, &mut patches);
            crate::gemm::gemm_nt_bias_rows(
                self.out_c,
                fan_in,
                plane,
                self.weights.as_slice(),
                &patches,
                &self.bias,
                pre.row_mut(r),
            );
        }
        let act = self.activation;
        let out = pre.map(|v| act.apply(v));
        Ok((pre, out))
    }

    pub(crate) fn forward_inference(&self, input: &Matrix) -> crate::Result<Matrix> {
        let (_, out) = self.forward_pure(input)?;
        Ok(out)
    }

    pub(crate) fn backward_pure(
        &self,
        input: &Matrix,
        pre: &Matrix,
        grad_output: &Matrix,
    ) -> crate::Result<(Matrix, Matrix, Vec<f64>)> {
        check_input_width("conv2d", input, self.input_len())?;
        let act = self.activation;
        let dpre = grad_output.hadamard(&pre.map(|v| act.derivative(v)))?;
        let (h, w, k) = (self.h, self.w, self.k);
        let pad = k / 2;
        let plane = h * w;
        let fan_in = self.in_c * k * k;
        let mut grad_weights = Matrix::zeros(self.out_c, fan_in);
        let mut grad_bias = vec![0.0; self.out_c];
        let mut grad_input = Matrix::zeros(input.rows(), self.input_len());
        for r in 0..input.rows() {
            let x = input.row(r);
            let d = dpre.row(r);
            #[allow(clippy::needless_range_loop)] // oc also indexes grad_weights/self.weights rows
            for oc in 0..self.out_c {
                let base = oc * plane;
                let gw = grad_weights.row_mut(oc);
                let wt = self.weights.row(oc);
                // Borrowing grad_input mutably inside the oc loop would
                // alias gw; accumulate input gradients afterwards.
                for oy in 0..h {
                    for ox in 0..w {
                        let g = d[base + oy * w + ox];
                        if g == 0.0 {
                            continue;
                        }
                        grad_bias[oc] += g;
                        for ic in 0..self.in_c {
                            let in_base = ic * plane;
                            let w_base = ic * k * k;
                            for dy in 0..k {
                                let iy = oy + dy;
                                if iy < pad || iy - pad >= h {
                                    continue;
                                }
                                let iy = iy - pad;
                                for dx in 0..k {
                                    let ix = ox + dx;
                                    if ix < pad || ix - pad >= w {
                                        continue;
                                    }
                                    let ix = ix - pad;
                                    gw[w_base + dy * k + dx] += g * x[in_base + iy * w + ix];
                                }
                            }
                        }
                    }
                }
                let gi = grad_input.row_mut(r);
                for oy in 0..h {
                    for ox in 0..w {
                        let g = d[base + oy * w + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ic in 0..self.in_c {
                            let in_base = ic * plane;
                            let w_base = ic * k * k;
                            for dy in 0..k {
                                let iy = oy + dy;
                                if iy < pad || iy - pad >= h {
                                    continue;
                                }
                                let iy = iy - pad;
                                for dx in 0..k {
                                    let ix = ox + dx;
                                    if ix < pad || ix - pad >= w {
                                        continue;
                                    }
                                    let ix = ix - pad;
                                    gi[in_base + iy * w + ix] += g * wt[w_base + dy * k + dx];
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok((grad_input, grad_weights, grad_bias))
    }

    pub(crate) fn parameters_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (self.weights.as_mut_slice(), &mut self.bias)
    }
}

/// Max pooling: `c×H×W → c×(H/k)×(W/k)`, window = stride = `k`, with
/// a deterministic first-max tie-break.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
}

impl MaxPool2d {
    /// Creates the pooling layer over a `c×h×w` input with window (and
    /// stride) `k`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero dimensions or a
    /// window that does not divide the map evenly.
    pub fn new(c: usize, h: usize, w: usize, k: usize) -> crate::Result<Self> {
        check_dims("maxpool2d", &[c, h, w, k])?;
        if h % k != 0 || w % k != 0 {
            return Err(NnError::InvalidConfig {
                detail: format!("maxpool2d window {k} must divide the {h}x{w} map"),
            });
        }
        Ok(Self { c, h, w, k })
    }

    /// Channel count (unchanged by pooling).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Input spatial size `(h, w)`.
    #[must_use]
    pub fn spatial(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Pooling window / stride.
    #[must_use]
    pub fn window(&self) -> usize {
        self.k
    }

    fn input_len(&self) -> usize {
        self.c * self.h * self.w
    }

    fn output_len(&self) -> usize {
        self.c * (self.h / self.k) * (self.w / self.k)
    }

    pub(crate) fn forward_inference(&self, input: &Matrix) -> crate::Result<Matrix> {
        check_input_width("maxpool2d", input, self.input_len())?;
        let (h, w, k) = (self.h, self.w, self.k);
        let (h2, w2) = (h / k, w / k);
        let mut out = Matrix::zeros(input.rows(), self.output_len());
        for r in 0..input.rows() {
            let x = input.row(r);
            let o = out.row_mut(r);
            for c in 0..self.c {
                let in_base = c * h * w;
                let out_base = c * h2 * w2;
                for oy in 0..h2 {
                    for ox in 0..w2 {
                        let mut acc = f64::NEG_INFINITY;
                        for dy in 0..k {
                            for dx in 0..k {
                                let v = x[in_base + (oy * k + dy) * w + ox * k + dx];
                                // Strict > keeps the first maximum on
                                // ties — a deterministic argmax the
                                // backward pass re-derives.
                                if v > acc {
                                    acc = v;
                                }
                            }
                        }
                        o[out_base + oy * w2 + ox] = acc;
                    }
                }
            }
        }
        Ok(out)
    }

    pub(crate) fn backward_pure(
        &self,
        input: &Matrix,
        _pre: &Matrix,
        grad_output: &Matrix,
    ) -> crate::Result<(Matrix, Matrix, Vec<f64>)> {
        check_input_width("maxpool2d", input, self.input_len())?;
        if grad_output.shape() != (input.rows(), self.output_len()) {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "maxpool2d gradient {:?} vs expected {}x{}",
                    grad_output.shape(),
                    input.rows(),
                    self.output_len()
                ),
            });
        }
        let (h, w, k) = (self.h, self.w, self.k);
        let (h2, w2) = (h / k, w / k);
        let mut grad_input = Matrix::zeros(input.rows(), self.input_len());
        for r in 0..input.rows() {
            let x = input.row(r);
            let d = grad_output.row(r);
            let gi = grad_input.row_mut(r);
            for c in 0..self.c {
                let in_base = c * h * w;
                let out_base = c * h2 * w2;
                for oy in 0..h2 {
                    for ox in 0..w2 {
                        // First-max tie-break, matching forward.
                        let mut best = f64::NEG_INFINITY;
                        let mut best_idx = in_base + (oy * k) * w + ox * k;
                        for dy in 0..k {
                            for dx in 0..k {
                                let idx = in_base + (oy * k + dy) * w + ox * k + dx;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        gi[best_idx] += d[out_base + oy * w2 + ox];
                    }
                }
            }
        }
        Ok((grad_input, Matrix::zeros(0, 0), Vec::new()))
    }
}

/// Nearest-neighbour upsampling: `c×H×W → c×(H·k)×(W·k)`. The backward
/// pass sums each `k×k` block of the output gradient — the exact
/// adjoint of replication.
#[derive(Debug, Clone)]
pub struct Upsample2d {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
}

impl Upsample2d {
    /// Creates the upsampling layer over a `c×h×w` input with factor
    /// `k`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero dimensions.
    pub fn new(c: usize, h: usize, w: usize, k: usize) -> crate::Result<Self> {
        check_dims("upsample2d", &[c, h, w, k])?;
        Ok(Self { c, h, w, k })
    }

    /// Channel count (unchanged).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Input spatial size `(h, w)`.
    #[must_use]
    pub fn spatial(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Upsampling factor.
    #[must_use]
    pub fn factor(&self) -> usize {
        self.k
    }

    fn input_len(&self) -> usize {
        self.c * self.h * self.w
    }

    fn output_len(&self) -> usize {
        self.c * self.h * self.k * self.w * self.k
    }

    pub(crate) fn forward_inference(&self, input: &Matrix) -> crate::Result<Matrix> {
        check_input_width("upsample2d", input, self.input_len())?;
        let (h, w, k) = (self.h, self.w, self.k);
        let (h2, w2) = (h * k, w * k);
        let mut out = Matrix::zeros(input.rows(), self.output_len());
        for r in 0..input.rows() {
            let x = input.row(r);
            let o = out.row_mut(r);
            for c in 0..self.c {
                let in_base = c * h * w;
                let out_base = c * h2 * w2;
                for y in 0..h2 {
                    for xcol in 0..w2 {
                        o[out_base + y * w2 + xcol] = x[in_base + (y / k) * w + xcol / k];
                    }
                }
            }
        }
        Ok(out)
    }

    pub(crate) fn backward_pure(
        &self,
        input: &Matrix,
        _pre: &Matrix,
        grad_output: &Matrix,
    ) -> crate::Result<(Matrix, Matrix, Vec<f64>)> {
        let rows = input.rows();
        if grad_output.shape() != (rows, self.output_len()) {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "upsample2d gradient {:?} vs expected {rows}x{}",
                    grad_output.shape(),
                    self.output_len()
                ),
            });
        }
        let (h, w, k) = (self.h, self.w, self.k);
        let (h2, w2) = (h * k, w * k);
        let mut grad_input = Matrix::zeros(rows, self.input_len());
        for r in 0..rows {
            let d = grad_output.row(r);
            let gi = grad_input.row_mut(r);
            for c in 0..self.c {
                let in_base = c * h * w;
                let out_base = c * h2 * w2;
                for y in 0..h2 {
                    for xcol in 0..w2 {
                        gi[in_base + (y / k) * w + xcol / k] += d[out_base + y * w2 + xcol];
                    }
                }
            }
        }
        Ok((grad_input, Matrix::zeros(0, 0), Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn conv_geometry_validated() {
        assert!(Conv2d::new(1, 4, 4, 2, 2, Activation::Relu, &mut rng()).is_err());
        assert!(Conv2d::new(0, 4, 4, 2, 3, Activation::Relu, &mut rng()).is_err());
        let c = Conv2d::new(2, 4, 5, 3, 3, Activation::Relu, &mut rng()).unwrap();
        assert_eq!(c.parameter_count(), 3 * 2 * 9 + 3);
        assert_eq!(c.spatial(), (4, 5));
    }

    #[test]
    fn conv_identity_kernel_passes_input_through() {
        // 1x1 kernel with weight 1 and identity activation: output
        // equals input.
        let w = Matrix::from_rows(&[&[1.0]]).unwrap();
        let c = Conv2d::from_parameters(1, 3, 3, 1, 1, Activation::Identity, w, vec![0.0]).unwrap();
        let x = Matrix::from_fn(2, 9, |r, i| (r * 9 + i) as f64 * 0.1);
        let (_, out) = c.forward_pure(&x).unwrap();
        assert_eq!(out, x);
    }

    #[test]
    fn conv_matches_manual_3x3() {
        // A single 3x3 all-ones kernel on a 3x3 input sums the 3x3
        // neighbourhood under zero padding; check the centre and a
        // corner by hand.
        let w = Matrix::from_fn(1, 9, |_, _| 1.0);
        let c = Conv2d::from_parameters(1, 3, 3, 1, 3, Activation::Identity, w, vec![0.5]).unwrap();
        let x = Matrix::from_fn(1, 9, |_, i| (i + 1) as f64);
        let (_, out) = c.forward_pure(&x).unwrap();
        // Centre sees all nine values: 45 + bias.
        assert_eq!(out.get(0, 4), 45.5);
        // Top-left corner sees the 2x2 block {1,2,4,5}: 12 + bias.
        assert_eq!(out.get(0, 0), 12.5);
    }

    #[test]
    fn conv_gradients_match_finite_difference() {
        let c = Conv2d::new(2, 4, 4, 3, 3, Activation::Tanh, &mut rng()).unwrap();
        let x = Matrix::from_fn(3, 2 * 16, |r, i| {
            ((r * 31 + i * 7) % 13) as f64 * 0.11 - 0.6
        });
        let (pre, _) = c.forward_pure(&x).unwrap();
        let ones = Matrix::from_fn(3, 3 * 16, |_, _| 1.0);
        let (dx, dw, db) = c.backward_pure(&x, &pre, &ones).unwrap();
        let h = 1e-6;
        let sum_out = |c: &Conv2d, x: &Matrix| -> f64 {
            c.forward_inference(x).unwrap().as_slice().iter().sum()
        };
        // Weight gradient spot checks.
        for (r, col) in [(0, 0), (1, 7), (2, 17)] {
            let mut cp = c.clone();
            let mut wp = cp.weights().clone();
            wp.set(r, col, wp.get(r, col) + h);
            cp = Conv2d::from_parameters(2, 4, 4, 3, 3, cp.activation(), wp, cp.bias().to_vec())
                .unwrap();
            let mut cm = c.clone();
            let mut wm = cm.weights().clone();
            wm.set(r, col, wm.get(r, col) - h);
            cm = Conv2d::from_parameters(2, 4, 4, 3, 3, cm.activation(), wm, cm.bias().to_vec())
                .unwrap();
            let fd = (sum_out(&cp, &x) - sum_out(&cm, &x)) / (2.0 * h);
            let an = dw.get(r, col);
            assert!((fd - an).abs() < 1e-4, "dW[{r}][{col}]: fd {fd} vs {an}");
        }
        // Bias gradient.
        let mut bp = c.clone();
        let mut bias = bp.bias().to_vec();
        bias[1] += h;
        bp = Conv2d::from_parameters(2, 4, 4, 3, 3, bp.activation(), bp.weights().clone(), bias)
            .unwrap();
        let fd = (sum_out(&bp, &x) - sum_out(&c, &x)) / h;
        assert!((fd - db[1]).abs() < 1e-3, "db: fd {fd}");
        // Input gradient spot check.
        let mut xp = x.clone();
        xp.set(1, 9, xp.get(1, 9) + h);
        let mut xm = x.clone();
        xm.set(1, 9, xm.get(1, 9) - h);
        let fd = (sum_out(&c, &xp) - sum_out(&c, &xm)) / (2.0 * h);
        assert!((fd - dx.get(1, 9)).abs() < 1e-4, "dx: fd {fd}");
    }

    #[test]
    fn max_pool_picks_first_maximum() {
        let p = MaxPool2d::new(1, 2, 2, 2).unwrap();
        // Tie between positions 0 and 3: forward takes the value, and
        // backward routes the whole gradient to the first.
        let x = Matrix::from_rows(&[&[5.0, 1.0, 2.0, 5.0]]).unwrap();
        let out = p.forward_inference(&x).unwrap();
        assert_eq!(out.as_slice(), &[5.0]);
        let g = Matrix::from_rows(&[&[2.0]]).unwrap();
        let (gi, gw, gb) = p.backward_pure(&x, &out, &g).unwrap();
        assert_eq!(gi.as_slice(), &[2.0, 0.0, 0.0, 0.0]);
        assert_eq!(gw.shape(), (0, 0));
        assert!(gb.is_empty());
    }

    #[test]
    fn pool_window_must_divide() {
        assert!(MaxPool2d::new(1, 5, 4, 2).is_err());
        assert!(MaxPool2d::new(1, 4, 6, 4).is_err());
    }

    #[test]
    fn upsample_replicates_and_adjoint_sums() {
        let u = Upsample2d::new(1, 1, 2, 2).unwrap();
        let x = Matrix::from_rows(&[&[3.0, 7.0]]).unwrap();
        let out = u.forward_inference(&x).unwrap();
        assert_eq!(out.as_slice(), &[3.0, 3.0, 7.0, 7.0, 3.0, 3.0, 7.0, 7.0]);
        let g = Matrix::from_fn(1, 8, |_, i| (i + 1) as f64);
        let (gi, _, _) = u.backward_pure(&x, &out, &g).unwrap();
        // Each input cell collects its 2x2 block: {1,2,5,6} and {3,4,7,8}.
        assert_eq!(gi.as_slice(), &[14.0, 22.0]);
    }
}

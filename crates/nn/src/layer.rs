use rand::rngs::StdRng;
use rand::Rng;

use crate::{Activation, Matrix, NnError};

/// A fully-connected layer `a = σ(x Wᵀ + b)`.
///
/// Weights are stored as an `output_dim × input_dim` matrix. The layer
/// caches its last input and pre-activation during forward
/// (`DenseLayer::forward`), which [`backward`](DenseLayer::backward)
/// consumes to produce gradients.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
    // Caches from the most recent forward pass.
    cached_input: Option<Matrix>,
    cached_preact: Option<Matrix>,
    // Gradients from the most recent backward pass.
    grad_weights: Matrix,
    grad_bias: Vec<f64>,
}

impl DenseLayer {
    /// Creates a layer with He-style scaled uniform initialisation
    /// (appropriate for ReLU-family activations; harmless for others).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if either dimension is zero.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> crate::Result<Self> {
        if input_dim == 0 || output_dim == 0 {
            return Err(NnError::InvalidConfig {
                detail: format!("layer dimensions must be positive, got {input_dim}x{output_dim}"),
            });
        }
        let bound = (6.0 / input_dim as f64).sqrt();
        let weights = Matrix::from_fn(output_dim, input_dim, |_, _| rng.gen_range(-bound..bound));
        Ok(Self {
            weights,
            bias: vec![0.0; output_dim],
            activation,
            cached_input: None,
            cached_preact: None,
            grad_weights: Matrix::zeros(output_dim, input_dim),
            grad_bias: vec![0.0; output_dim],
        })
    }

    /// Builds a layer from explicit parameters (used by persistence).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `bias.len()` does not match
    /// the weight row count.
    pub fn from_parameters(
        weights: Matrix,
        bias: Vec<f64>,
        activation: Activation,
    ) -> crate::Result<Self> {
        if bias.len() != weights.rows() {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "bias length {} vs weight rows {}",
                    bias.len(),
                    weights.rows()
                ),
            });
        }
        let (o, i) = weights.shape();
        Ok(Self {
            weights,
            bias,
            activation,
            cached_input: None,
            cached_preact: None,
            grad_weights: Matrix::zeros(o, i),
            grad_bias: vec![0.0; o],
        })
    }

    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix (`output_dim × input_dim`).
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector.
    #[must_use]
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Forward pass for a batch (`batch × input_dim`), caching what the
    /// backward pass needs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the batch width is wrong.
    pub fn forward(&mut self, input: &Matrix) -> crate::Result<Matrix> {
        let (pre, out) = self.forward_pure(input)?;
        self.cached_input = Some(input.clone());
        self.cached_preact = Some(pre);
        Ok(out)
    }

    /// Side-effect-free forward pass returning `(pre_activation, output)`
    /// without touching the layer's caches. This is the kernel the
    /// data-parallel minibatch path runs per row-chunk: because it takes
    /// `&self`, any number of chunks can evaluate it concurrently.
    pub(crate) fn forward_pure(&self, input: &Matrix) -> crate::Result<(Matrix, Matrix)> {
        let pre = input
            .matmul_transpose(&self.weights)?
            .add_row_broadcast(&self.bias)?;
        let act = self.activation;
        let out = pre.map(|v| act.apply(v));
        Ok((pre, out))
    }

    /// Inference-only forward pass (no caching). Bias addition and
    /// activation are fused into the product buffer, so inference over
    /// a large batch makes a single allocation per layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the batch width is wrong.
    pub fn forward_inference(&self, input: &Matrix) -> crate::Result<Matrix> {
        let mut pre = input.matmul_transpose(&self.weights)?;
        let act = self.activation;
        for r in 0..pre.rows() {
            for (v, b) in pre.row_mut(r).iter_mut().zip(&self.bias) {
                *v = act.apply(*v + b);
            }
        }
        Ok(pre)
    }

    /// Backward pass: takes `∂L/∂output` and returns `∂L/∂input`,
    /// storing the weight and bias gradients internally.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if called before
    /// [`forward`](Self::forward), or [`NnError::ShapeMismatch`] if the
    /// gradient shape is wrong.
    pub fn backward(&mut self, grad_output: &Matrix) -> crate::Result<Matrix> {
        let input = self.cached_input.as_ref().ok_or(NnError::InvalidConfig {
            detail: "backward called before forward".into(),
        })?;
        // Cached alongside `cached_input` in `forward`, so present
        // whenever that check passed; typed error keeps the invariant
        // panic-free anyway (robustness/unwrap-in-lib).
        let pre = self.cached_preact.as_ref().ok_or(NnError::InvalidConfig {
            detail: "backward called before forward".into(),
        })?;
        let (grad_input, grad_weights, grad_bias) = self.backward_pure(input, pre, grad_output)?;
        self.grad_weights = grad_weights;
        self.grad_bias = grad_bias;
        Ok(grad_input)
    }

    /// Side-effect-free backward pass for one row-chunk.
    ///
    /// Takes the chunk's cached `input` and `pre`-activation (as returned
    /// by [`forward_pure`](Self::forward_pure)) and the loss gradient for
    /// the chunk, and returns `(grad_input, grad_weights, grad_bias)`
    /// without storing anything — the caller accumulates chunk gradients
    /// in a fixed order.
    pub(crate) fn backward_pure(
        &self,
        input: &Matrix,
        pre: &Matrix,
        grad_output: &Matrix,
    ) -> crate::Result<(Matrix, Matrix, Vec<f64>)> {
        let act = self.activation;
        let dpre = grad_output.hadamard(&pre.map(|v| act.derivative(v)))?;
        // dW = dpreᵀ · x  (output_dim × input_dim)
        let grad_weights = dpre.transpose_matmul(input)?;
        let grad_bias = dpre.column_sums();
        // dX = dpre · W
        let grad_input = dpre.matmul(&self.weights)?;
        Ok((grad_input, grad_weights, grad_bias))
    }

    /// Installs externally accumulated gradients (the data-parallel
    /// path's reduction result) so the normal optimizer hook sees them.
    pub(crate) fn set_gradients(&mut self, grad_weights: Matrix, grad_bias: Vec<f64>) {
        self.grad_weights = grad_weights;
        self.grad_bias = grad_bias;
    }

    /// Weight gradients from the last backward pass.
    #[must_use]
    pub fn grad_weights(&self) -> &Matrix {
        &self.grad_weights
    }

    /// Bias gradients from the last backward pass.
    #[must_use]
    pub fn grad_bias(&self) -> &[f64] {
        &self.grad_bias
    }

    /// Applies an update function to (parameters, gradients) pairs —
    /// the hook optimizers use. Called once for the weights and once
    /// for the bias.
    pub fn update_parameters(&mut self, mut f: impl FnMut(&mut [f64], &[f64])) {
        f(self.weights.as_mut_slice(), self.grad_weights.as_slice());
        f(&mut self.bias, &self.grad_bias);
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn construction_and_dims() {
        let l = DenseLayer::new(3, 5, Activation::Relu, &mut rng()).unwrap();
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 5);
        assert_eq!(l.parameter_count(), 3 * 5 + 5);
        assert!(DenseLayer::new(0, 5, Activation::Relu, &mut rng()).is_err());
    }

    #[test]
    fn forward_identity_layer_is_affine() {
        let w = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        let mut l = DenseLayer::from_parameters(w, vec![1.0, -1.0], Activation::Identity).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.row(0), &[3.0, 2.0]);
    }

    #[test]
    fn forward_inference_matches_forward() {
        let mut l = DenseLayer::new(4, 3, Activation::Tanh, &mut rng()).unwrap();
        let x = Matrix::from_fn(5, 4, |r, c| (r + c) as f64 * 0.1);
        let a = l.forward(&x).unwrap();
        let b = l.forward_inference(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn backward_before_forward_rejected() {
        let mut l = DenseLayer::new(2, 2, Activation::Relu, &mut rng()).unwrap();
        assert!(l.backward(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut l = DenseLayer::new(3, 2, Activation::Tanh, &mut rng()).unwrap();
        let x = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) % 5) as f64 * 0.3 - 0.6);
        // Loss = sum of outputs; dL/dout = ones.
        let ones = Matrix::from_fn(4, 2, |_, _| 1.0);
        let _ = l.forward(&x).unwrap();
        let dx = l.backward(&ones).unwrap();
        let h = 1e-6;

        // Weight gradient check (a few entries).
        for (r, c) in [(0, 0), (1, 2), (0, 1)] {
            let mut lp = l.clone();
            let mut wp = lp.weights().clone();
            wp.set(r, c, wp.get(r, c) + h);
            lp = DenseLayer::from_parameters(wp, lp.bias().to_vec(), lp.activation()).unwrap();
            let up: f64 = lp.forward_inference(&x).unwrap().as_slice().iter().sum();

            let mut lm = l.clone();
            let mut wm = lm.weights().clone();
            wm.set(r, c, wm.get(r, c) - h);
            lm = DenseLayer::from_parameters(wm, lm.bias().to_vec(), lm.activation()).unwrap();
            let down: f64 = lm.forward_inference(&x).unwrap().as_slice().iter().sum();

            let fd = (up - down) / (2.0 * h);
            let an = l.grad_weights().get(r, c);
            assert!((fd - an).abs() < 1e-4, "dW[{r}][{c}]: fd {fd} vs {an}");
        }

        // Input gradient check (one entry).
        let mut xp = x.clone();
        xp.set(2, 1, xp.get(2, 1) + h);
        let up: f64 = l.forward_inference(&xp).unwrap().as_slice().iter().sum();
        let mut xm = x.clone();
        xm.set(2, 1, xm.get(2, 1) - h);
        let down: f64 = l.forward_inference(&xm).unwrap().as_slice().iter().sum();
        let fd = (up - down) / (2.0 * h);
        assert!((fd - dx.get(2, 1)).abs() < 1e-4);
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut l = DenseLayer::new(2, 3, Activation::Identity, &mut rng()).unwrap();
        let x = Matrix::from_fn(5, 2, |r, c| (r + c) as f64);
        let g = Matrix::from_fn(5, 3, |_, c| (c + 1) as f64);
        let _ = l.forward(&x).unwrap();
        let _ = l.backward(&g).unwrap();
        // Identity activation: dpre = g; bias grad = column sums of g.
        assert_eq!(l.grad_bias(), &[5.0, 10.0, 15.0]);
    }

    #[test]
    fn update_parameters_visits_weights_and_bias() {
        let mut l = DenseLayer::new(2, 2, Activation::Relu, &mut rng()).unwrap();
        let x = Matrix::from_fn(1, 2, |_, _| 1.0);
        let _ = l.forward(&x).unwrap();
        let _ = l.backward(&Matrix::from_fn(1, 2, |_, _| 1.0)).unwrap();
        let mut calls = 0;
        l.update_parameters(|params, grads| {
            calls += 1;
            assert_eq!(params.len(), grads.len());
        });
        assert_eq!(calls, 2);
    }
}

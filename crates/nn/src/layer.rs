use rand::rngs::StdRng;
use rand::Rng;

use crate::{Activation, Matrix, NnError};

/// A fully-connected layer `a = σ(x Wᵀ + b)`.
///
/// Weights are stored as an `output_dim × input_dim` matrix. The layer
/// holds only its parameters: a training step keeps its activations
/// and gradients in locals of its own.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
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
        Ok(Self {
            weights,
            bias,
            activation,
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

    /// Training forward pass for a batch (`batch × input_dim`),
    /// returning `(pre_activation, output)`. This is the kernel a
    /// training step runs per row chunk: because it takes `&self`, any
    /// number of chunks can evaluate it concurrently.
    pub(crate) fn forward_pure(&self, input: &Matrix) -> crate::Result<(Matrix, Matrix)> {
        let pre = input
            .matmul_transpose(&self.weights)?
            .add_row_broadcast(&self.bias)?;
        let act = self.activation;
        let out = pre.map(|v| act.apply(v));
        Ok((pre, out))
    }

    /// Inference-only forward pass on the calling thread,
    /// through the same dense kernel [`Network::predict`] runs, so its
    /// output is bit-identical to what the layer produces inside a
    /// network.
    ///
    /// [`Network::predict`]: crate::Network::predict
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the batch width is wrong.
    pub fn forward_inference(&self, input: &Matrix) -> crate::Result<Matrix> {
        crate::gemm::dense_forward(&[self], input)
    }

    /// Backward pass for one row chunk.
    ///
    /// Takes the chunk's `input` and `pre`-activation (as returned by
    /// [`forward_pure`](Self::forward_pure)) and the loss gradient for
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

    /// The weights and bias as the flat slices an optimizer updates.
    pub(crate) fn parameters_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (self.weights.as_mut_slice(), &mut self.bias)
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
        let l = DenseLayer::from_parameters(w, vec![1.0, -1.0], Activation::Identity).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let (pre, y) = l.forward_pure(&x).unwrap();
        assert_eq!(y.row(0), &[3.0, 2.0]);
        assert_eq!(pre, y);
    }

    #[test]
    fn forward_inference_matches_forward_pure() {
        let l = DenseLayer::new(4, 3, Activation::Tanh, &mut rng()).unwrap();
        let x = Matrix::from_fn(5, 4, |r, c| (r + c) as f64 * 0.1);
        let (_, a) = l.forward_pure(&x).unwrap();
        let b = l.forward_inference(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let l = DenseLayer::new(3, 2, Activation::Tanh, &mut rng()).unwrap();
        let x = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) % 5) as f64 * 0.3 - 0.6);
        // Loss = sum of outputs; dL/dout = ones.
        let ones = Matrix::from_fn(4, 2, |_, _| 1.0);
        let (pre, _) = l.forward_pure(&x).unwrap();
        let (dx, dw, _) = l.backward_pure(&x, &pre, &ones).unwrap();
        let h = 1e-6;

        // Weight gradient check (a few entries).
        for (r, c) in [(0, 0), (1, 2), (0, 1)] {
            let mut wp = l.weights().clone();
            wp.set(r, c, wp.get(r, c) + h);
            let lp = DenseLayer::from_parameters(wp, l.bias().to_vec(), l.activation()).unwrap();
            let up: f64 = lp.forward_inference(&x).unwrap().as_slice().iter().sum();

            let mut wm = l.weights().clone();
            wm.set(r, c, wm.get(r, c) - h);
            let lm = DenseLayer::from_parameters(wm, l.bias().to_vec(), l.activation()).unwrap();
            let down: f64 = lm.forward_inference(&x).unwrap().as_slice().iter().sum();

            let fd = (up - down) / (2.0 * h);
            let an = dw.get(r, c);
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
        let l = DenseLayer::new(2, 3, Activation::Identity, &mut rng()).unwrap();
        let x = Matrix::from_fn(5, 2, |r, c| (r + c) as f64);
        let g = Matrix::from_fn(5, 3, |_, c| (c + 1) as f64);
        let (pre, _) = l.forward_pure(&x).unwrap();
        let (_, _, gb) = l.backward_pure(&x, &pre, &g).unwrap();
        // Identity activation: dpre = g; bias grad = column sums of g.
        assert_eq!(gb, [5.0, 10.0, 15.0]);
    }
}

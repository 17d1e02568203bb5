use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Activation, DenseLayer, Layer, Network, NnError, TensorShape};

/// Builder for the paper's all-dense [`Network`]: a multilayer
/// perceptron over a flat feature row.
///
/// Every weight is drawn in layer order from one RNG seeded by
/// [`seed`](Self::seed) — the initialisation every trained width model
/// and committed golden starts from.
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_dim: usize,
    hidden: Vec<(usize, Activation)>,
    output_dim: usize,
    output_activation: Activation,
    seed: u64,
}

impl MlpBuilder {
    /// Starts a network taking `input_dim` features.
    #[must_use]
    pub fn new(input_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: Vec::new(),
            output_dim: 1,
            output_activation: Activation::Identity,
            seed: 0,
        }
    }

    /// Appends one hidden layer.
    #[must_use]
    pub fn hidden(mut self, width: usize, activation: Activation) -> Self {
        self.hidden.push((width, activation));
        self
    }

    /// Appends `count` identical hidden layers — the convenient form
    /// for the paper's 10-deep stack.
    #[must_use]
    pub fn hidden_stack(mut self, count: usize, width: usize, activation: Activation) -> Self {
        for _ in 0..count {
            self.hidden.push((width, activation));
        }
        self
    }

    /// Sets the output dimension (default 1), with a linear output
    /// activation as regression requires.
    #[must_use]
    pub fn output(mut self, dim: usize) -> Self {
        self.output_dim = dim;
        self
    }

    /// Overrides the output activation (rarely useful for regression).
    #[must_use]
    pub fn output_activation(mut self, activation: Activation) -> Self {
        self.output_activation = activation;
        self
    }

    /// Sets the weight-initialisation seed (default 0) for
    /// reproducibility.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the network: a `Flat(input_dim)` input followed by one
    /// [`Layer::Dense`] per hidden layer and the output layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any dimension is zero.
    pub fn build(self) -> crate::Result<Network> {
        if self.input_dim == 0 || self.output_dim == 0 {
            return Err(NnError::InvalidConfig {
                detail: "input and output dimensions must be positive".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut layers = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.input_dim;
        for (width, act) in &self.hidden {
            layers.push(Layer::Dense(DenseLayer::new(prev, *width, *act, &mut rng)?));
            prev = *width;
        }
        layers.push(Layer::Dense(DenseLayer::new(
            prev,
            self.output_dim,
            self.output_activation,
            &mut rng,
        )?));
        Network::from_parts(TensorShape::Flat(self.input_dim), layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{engine, Adam, Loss, Matrix, Sgd};

    fn dense(layer: &Layer) -> &DenseLayer {
        match layer {
            Layer::Dense(l) => l,
            other => panic!("MlpBuilder built a non-dense layer: {other:?}"),
        }
    }

    #[test]
    fn builder_shapes() {
        let m = MlpBuilder::new(3)
            .hidden(8, Activation::Relu)
            .hidden(4, Activation::Tanh)
            .output(2)
            .build()
            .unwrap();
        assert_eq!(m.layer_count(), 3);
        assert!(m.layers().iter().all(|l| matches!(l, Layer::Dense(_))));
        assert_eq!(m.input_shape(), TensorShape::Flat(3));
        assert_eq!(m.output_shape(), TensorShape::Flat(2));
        assert_eq!(m.parameter_count(), (3 * 8 + 8) + (8 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn hidden_stack_builds_deep_net() {
        let m = MlpBuilder::new(3)
            .hidden_stack(10, 16, Activation::Relu)
            .output(1)
            .build()
            .unwrap();
        assert_eq!(m.layer_count(), 11);
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(MlpBuilder::new(0).output(1).build().is_err());
        assert!(MlpBuilder::new(2).output(0).build().is_err());
        assert!(MlpBuilder::new(2)
            .hidden(0, Activation::Relu)
            .output(1)
            .build()
            .is_err());
    }

    #[test]
    fn seeded_builds_are_identical() {
        let a = MlpBuilder::new(2)
            .hidden(4, Activation::Relu)
            .seed(9)
            .build()
            .unwrap();
        let b = MlpBuilder::new(2)
            .hidden(4, Activation::Relu)
            .seed(9)
            .build()
            .unwrap();
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
        let c = MlpBuilder::new(2)
            .hidden(4, Activation::Relu)
            .seed(10)
            .build()
            .unwrap();
        assert_ne!(a.predict(&x).unwrap(), c.predict(&x).unwrap());
    }

    #[test]
    fn predict_wrong_width_rejected() {
        let m = MlpBuilder::new(3).output(1).build().unwrap();
        assert!(m.predict(&Matrix::zeros(2, 4)).is_err());
    }

    #[test]
    fn training_reduces_loss_on_linear_target() {
        let x = Matrix::from_fn(32, 2, |r, c| ((r * 5 + c * 3) % 11) as f64 / 11.0);
        let y = Matrix::from_fn(32, 1, |r, _| x.get(r, 0) + 0.5 * x.get(r, 1));
        let mut m = MlpBuilder::new(2)
            .hidden(8, Activation::Tanh)
            .output(1)
            .seed(3)
            .build()
            .unwrap();
        let mut opt = Adam::new(0.01).unwrap();
        let first = m.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..300 {
            last = m.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap();
        }
        assert!(last < first / 10.0, "loss {first} -> {last}");
    }

    #[test]
    fn deep_network_trains_without_nan() {
        let x = Matrix::from_fn(16, 3, |r, c| ((r + c) % 7) as f64 / 7.0);
        let y = Matrix::from_fn(16, 1, |r, _| x.get(r, 0) * x.get(r, 1) + x.get(r, 2));
        let mut m = MlpBuilder::new(3)
            .hidden_stack(10, 12, Activation::Relu)
            .output(1)
            .seed(5)
            .build()
            .unwrap();
        let mut opt = Adam::new(0.003).unwrap();
        for _ in 0..100 {
            let loss = m.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap();
            assert!(loss.is_finite());
        }
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        // On a zero-loss task (targets already matched by a zero
        // network output), the only force is the decay: weights shrink.
        let x = Matrix::from_fn(8, 2, |_, _| 0.0);
        let y = Matrix::zeros(8, 1);
        let mut m = MlpBuilder::new(2)
            .hidden(4, Activation::Identity)
            .output(1)
            .seed(4)
            .build()
            .unwrap();
        let norm = |m: &Network| -> f64 {
            m.layers()
                .iter()
                .map(|l| {
                    dense(l)
                        .weights()
                        .as_slice()
                        .iter()
                        .map(|w| w * w)
                        .sum::<f64>()
                })
                .sum()
        };
        let before = norm(&m);
        let mut opt = Sgd::new(0.05).unwrap();
        for _ in 0..50 {
            m.train_batch_regularized(&x, &y, Loss::Mse, 0.1, &mut opt)
                .unwrap();
        }
        assert!(norm(&m) < before * 0.5, "{} -> {}", before, norm(&m));
    }

    #[test]
    fn zero_decay_matches_plain_training() {
        let x = Matrix::from_fn(8, 2, |r, c| (r + c) as f64 * 0.1);
        let y = Matrix::from_fn(8, 1, |r, _| r as f64 * 0.05);
        let mut a = MlpBuilder::new(2)
            .hidden(4, Activation::Tanh)
            .seed(6)
            .build()
            .unwrap();
        let mut b = a.clone();
        let mut oa = Sgd::new(0.1).unwrap();
        let mut ob = Sgd::new(0.1).unwrap();
        for _ in 0..10 {
            a.train_batch(&x, &y, Loss::Mse, &mut oa).unwrap();
            b.train_batch_regularized(&x, &y, Loss::Mse, 0.0, &mut ob)
                .unwrap();
        }
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    #[test]
    fn negative_decay_rejected() {
        let x = Matrix::zeros(2, 2);
        let y = Matrix::zeros(2, 1);
        let mut m = MlpBuilder::new(2).output(1).build().unwrap();
        let mut opt = Sgd::new(0.1).unwrap();
        assert!(m
            .train_batch_regularized(&x, &y, Loss::Mse, -0.1, &mut opt)
            .is_err());
        assert!(m
            .train_batch_regularized(&x, &y, Loss::Mse, f64::NAN, &mut opt)
            .is_err());
    }

    #[test]
    fn chunked_gradients_match_full_batch() {
        // 600 rows crosses the 2 * PAR_ROW_CHUNK threshold, so a step
        // runs three chunks; their summed gradients must agree with the
        // whole batch run as a single chunk, up to reassociation
        // rounding.
        let x = Matrix::from_fn(600, 3, |r, c| ((r * 7 + c * 3) % 17) as f64 / 17.0 - 0.4);
        let y = Matrix::from_fn(600, 1, |r, _| {
            x.get(r, 0) * 0.8 - x.get(r, 1) + 0.3 * x.get(r, 2)
        });
        let net = MlpBuilder::new(3)
            .hidden(6, Activation::Tanh)
            .output(1)
            .seed(21)
            .build()
            .unwrap();
        let chunks = engine::row_chunks(600);
        assert_eq!(chunks.len(), 3);
        let whole = std::slice::from_ref(&(0..600));
        let (vf, full) = engine::train_step(net.layers(), &x, &y, Loss::Mse, whole).unwrap();
        let (vc, chunked) = engine::train_step(net.layers(), &x, &y, Loss::Mse, &chunks).unwrap();
        assert!((vf - vc).abs() < 1e-12 * vf.abs().max(1.0), "{vf} vs {vc}");
        for ((fw, fb), (cw, cb)) in full.iter().zip(&chunked) {
            for (a, b) in fw.as_slice().iter().zip(cw.as_slice()) {
                assert!((a - b).abs() < 1e-10, "{a} vs {b}");
            }
            for (a, b) in fb.iter().zip(cb) {
                assert!((a - b).abs() < 1e-10, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn chunked_predict_matches_sequential() {
        let m = MlpBuilder::new(2)
            .hidden(5, Activation::Relu)
            .output(2)
            .seed(13)
            .build()
            .unwrap();
        let x = Matrix::from_fn(700, 2, |r, c| ((r + 3 * c) % 23) as f64 / 23.0);
        let par = m.predict(&x).unwrap();
        // Row-independent inference: chunking must be invisible.
        let mut a = x.clone();
        for layer in m.layers() {
            a = layer.forward_inference(&a).unwrap();
        }
        assert_eq!(par, a);
    }

    #[test]
    fn training_is_bitwise_deterministic_across_thread_counts() {
        let x = Matrix::from_fn(640, 3, |r, c| ((r * 5 + c) % 19) as f64 / 19.0);
        let y = Matrix::from_fn(640, 1, |r, _| x.get(r, 0) - 0.5 * x.get(r, 2));
        let run = |threads: usize| {
            ppdl_solver::set_threads(threads);
            let mut m = MlpBuilder::new(3)
                .hidden(8, Activation::Tanh)
                .output(1)
                .seed(17)
                .build()
                .unwrap();
            let mut opt = Adam::new(0.01).unwrap();
            let mut losses = Vec::new();
            for _ in 0..4 {
                losses.push(m.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap());
            }
            ppdl_solver::set_threads(0);
            (losses, m)
        };
        let (l1, m1) = run(1);
        let (l4, m4) = run(4);
        assert_eq!(l1, l4, "loss trajectories must be bitwise identical");
        for (a, b) in m1.layers().iter().zip(m4.layers()) {
            let (a, b) = (dense(a), dense(b));
            assert_eq!(a.weights().as_slice(), b.weights().as_slice());
            assert_eq!(a.bias(), b.bias());
        }
    }

    #[test]
    fn sgd_also_works() {
        let x = Matrix::from_fn(16, 1, |r, _| r as f64 / 16.0);
        let y = x.map(|v| 3.0 * v);
        let mut m = MlpBuilder::new(1).output(1).seed(2).build().unwrap();
        let mut opt = Sgd::new(0.5).unwrap();
        for _ in 0..500 {
            m.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap();
        }
        let final_loss = Loss::Mse.value(&m.predict(&x).unwrap(), &y).unwrap();
        assert!(final_loss < 1e-4, "loss {final_loss}");
    }
}

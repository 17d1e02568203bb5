//! The layer-graph model: a sequential [`Network`] of dense or spatial
//! layers behind one deterministic engine. The paper's MLP is the
//! all-dense case ([`MlpBuilder`](crate::MlpBuilder)); the
//! encoder-decoder is the all-spatial one ([`NetworkBuilder`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::conv::{Conv2d, MaxPool2d, Upsample2d};
use crate::engine;
use crate::{Activation, DenseLayer, Loss, Matrix, NnError, Optimizer};

/// The shape of the tensor flowing between layers: a flat feature row
/// or a channel-major `c×h×w` map (both are stored as one [`Matrix`]
/// row of `len()` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorShape {
    /// A flat feature vector of the given width.
    Flat(usize),
    /// A channel-major map: index `c·h·w + y·w + x`.
    Chw {
        /// Channel count.
        c: usize,
        /// Map height.
        h: usize,
        /// Map width.
        w: usize,
    },
}

impl TensorShape {
    /// Number of values per sample row.
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            TensorShape::Flat(n) => n,
            TensorShape::Chw { c, h, w } => c * h * w,
        }
    }

    /// Whether the shape holds zero values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Display for TensorShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TensorShape::Flat(n) => write!(f, "flat({n})"),
            TensorShape::Chw { c, h, w } => write!(f, "chw({c}x{h}x{w})"),
        }
    }
}

/// One layer of a [`Network`] — a closed enum so persistence, shape
/// propagation, and the engine contract stay exhaustive.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(DenseLayer),
    /// 2-D convolution (odd kernel, stride 1, same padding).
    Conv2d(Conv2d),
    /// Max pooling (window = stride).
    MaxPool2d(MaxPool2d),
    /// Nearest-neighbour upsampling.
    Upsample2d(Upsample2d),
}

impl Layer {
    /// The shape this layer expects as input.
    #[must_use]
    pub fn input_shape(&self) -> TensorShape {
        match self {
            Layer::Dense(l) => TensorShape::Flat(l.input_dim()),
            Layer::Conv2d(l) => {
                let (h, w) = l.spatial();
                TensorShape::Chw {
                    c: l.in_channels(),
                    h,
                    w,
                }
            }
            Layer::MaxPool2d(l) => {
                let (h, w) = l.spatial();
                TensorShape::Chw {
                    c: l.channels(),
                    h,
                    w,
                }
            }
            Layer::Upsample2d(l) => {
                let (h, w) = l.spatial();
                TensorShape::Chw {
                    c: l.channels(),
                    h,
                    w,
                }
            }
        }
    }

    /// The shape this layer produces.
    #[must_use]
    pub fn output_shape(&self) -> TensorShape {
        match self {
            Layer::Dense(l) => TensorShape::Flat(l.output_dim()),
            Layer::Conv2d(l) => {
                let (h, w) = l.spatial();
                TensorShape::Chw {
                    c: l.out_channels(),
                    h,
                    w,
                }
            }
            Layer::MaxPool2d(l) => {
                let (h, w) = l.spatial();
                let k = l.window();
                TensorShape::Chw {
                    c: l.channels(),
                    h: h / k,
                    w: w / k,
                }
            }
            Layer::Upsample2d(l) => {
                let (h, w) = l.spatial();
                let k = l.factor();
                TensorShape::Chw {
                    c: l.channels(),
                    h: h * k,
                    w: w * k,
                }
            }
        }
    }

    /// Trainable parameter count (zero for pooling and upsampling).
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.parameter_count(),
            Layer::Conv2d(l) => l.parameter_count(),
            _ => 0,
        }
    }

    /// Inference-only forward pass of this one layer for a batch, on
    /// the calling thread, with the same bits as the layer's step
    /// inside [`Network::predict`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the batch width is wrong.
    pub fn forward_inference(&self, input: &Matrix) -> crate::Result<Matrix> {
        match self {
            Layer::Dense(l) => l.forward_inference(input),
            Layer::Conv2d(l) => l.forward_inference(input),
            Layer::MaxPool2d(l) => l.forward_inference(input),
            Layer::Upsample2d(l) => l.forward_inference(input),
        }
    }

    // The engine's per-layer contract: the side-effect-free kernels a
    // training step runs per row chunk, and the parameters the
    // optimizer updates. Parameterless layers (pooling, upsampling)
    // keep no pre-activation, return empty gradient tensors from
    // `backward_pure`, and have no parameters.

    /// Side-effect-free forward returning `(pre_activation, output)`.
    pub(crate) fn forward_pure(&self, input: &Matrix) -> crate::Result<(Matrix, Matrix)> {
        match self {
            Layer::Dense(l) => l.forward_pure(input),
            Layer::Conv2d(l) => l.forward_pure(input),
            Layer::MaxPool2d(_) | Layer::Upsample2d(_) => {
                Ok((Matrix::zeros(0, 0), self.forward_inference(input)?))
            }
        }
    }

    /// Side-effect-free backward for one chunk:
    /// `(grad_input, grad_weights, grad_bias)`.
    pub(crate) fn backward_pure(
        &self,
        input: &Matrix,
        pre: &Matrix,
        grad_output: &Matrix,
    ) -> crate::Result<(Matrix, Matrix, Vec<f64>)> {
        match self {
            Layer::Dense(l) => l.backward_pure(input, pre, grad_output),
            Layer::Conv2d(l) => l.backward_pure(input, pre, grad_output),
            Layer::MaxPool2d(l) => l.backward_pure(input, pre, grad_output),
            Layer::Upsample2d(l) => l.backward_pure(input, pre, grad_output),
        }
    }

    /// The `(weights, bias)` an optimizer updates; `None` for
    /// parameterless layers.
    pub(crate) fn parameters_mut(&mut self) -> Option<(&mut [f64], &mut [f64])> {
        match self {
            Layer::Dense(l) => Some(l.parameters_mut()),
            Layer::Conv2d(l) => Some(l.parameters_mut()),
            Layer::MaxPool2d(_) | Layer::Upsample2d(_) => None,
        }
    }
}

/// A sequential layer-graph model over [`Layer`]s on the
/// bitwise-deterministic chunked engine: samples are matrix rows, large
/// batches split into fixed 256-row chunks, and gradients reduce in
/// ascending chunk order regardless of thread count.
///
/// The paper's width regressor is the dense-only case, built by
/// [`MlpBuilder`](crate::MlpBuilder): three inputs (`X`, `Y`, `Id`),
/// ten hidden layers, and one output (`wᵢ`), trained with Adam on MSE.
///
/// # Example
///
/// ```
/// use ppdl_nn::{Activation, Matrix, MlpBuilder, TensorShape};
///
/// let model = MlpBuilder::new(3)
///     .hidden_stack(10, 24, Activation::Relu) // the paper's 10 hidden layers
///     .output(1)
///     .seed(1)
///     .build()
///     .unwrap();
/// assert_eq!(model.layer_count(), 11);
/// assert_eq!(model.input_shape(), TensorShape::Flat(3));
/// let y = model.predict(&Matrix::zeros(4, 3)).unwrap();
/// assert_eq!(y.shape(), (4, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
    input_shape: TensorShape,
    output_shape: TensorShape,
}

impl Network {
    /// Assembles a network from parts, validating that every layer's
    /// input shape equals its predecessor's output shape (the first
    /// layer's, `input_shape`). Dense layers take and give `Flat`
    /// rows and spatial layers `Chw` maps, so a network is all-dense or
    /// all-spatial.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an empty layer list and
    /// [`NnError::ShapeMismatch`] for a broken shape chain.
    pub fn from_parts(input_shape: TensorShape, layers: Vec<Layer>) -> crate::Result<Self> {
        if layers.is_empty() {
            return Err(NnError::InvalidConfig {
                detail: "a network needs at least one layer".into(),
            });
        }
        let mut shape = input_shape;
        for (i, layer) in layers.iter().enumerate() {
            let expected = layer.input_shape();
            if expected != shape {
                return Err(NnError::ShapeMismatch {
                    detail: format!("layer {i} expects input {expected} but receives {shape}"),
                });
            }
            shape = layer.output_shape();
        }
        Ok(Self {
            layers,
            input_shape,
            output_shape: shape,
        })
    }

    /// The declared input shape.
    #[must_use]
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// The derived output shape.
    #[must_use]
    pub fn output_shape(&self) -> TensorShape {
        self.output_shape
    }

    /// Read access to the layers.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Layer::parameter_count).sum()
    }

    /// Inference on a batch (`batch × input_shape.len()`).
    ///
    /// Large batches (≥ 512 rows) are evaluated as independent row
    /// chunks, in parallel when [`ppdl_solver::parallel`] is configured
    /// with more than one thread. Each row's output depends only on that
    /// row, so the result is bitwise identical to the sequential pass at
    /// every thread count. Consecutive dense layers run as one fused
    /// kernel that takes each block of rows through all of them, with
    /// the same bits as running the layers one at a time. With
    /// telemetry on, the call is an `nn/forward` span.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for a wrong input width.
    pub fn predict(&self, x: &Matrix) -> crate::Result<Matrix> {
        engine::predict(&self.layers, x)
    }

    /// One optimisation step on a batch: forward, loss, backward, and
    /// parameter update. Returns the pre-update batch loss.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x` and `y` have
    /// different row counts, [`NnError::EmptyDataset`] for a batch of
    /// no rows, and propagates the layers' shape errors and optimizer
    /// errors. A refused batch leaves the weights unchanged.
    pub fn train_batch<O: Optimizer>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        optimizer: &mut O,
    ) -> crate::Result<f64> {
        self.train_batch_regularized(x, y, loss, 0.0, optimizer)
    }

    /// [`train_batch`](Self::train_batch) with an L2 penalty
    /// `λ ‖Ω‖²` on the weights (not the biases) — the λC(Ω) term of
    /// the paper's eq. 2. The returned loss excludes the penalty;
    /// parameterless layers contribute no optimizer groups.
    ///
    /// Every step runs the side-effect-free layer kernels over fixed
    /// row chunks: a batch below 512 rows is one chunk; a larger batch
    /// splits into 256-row chunks, run concurrently when
    /// [`ppdl_solver::parallel`] allows, whose gradients are summed in
    /// ascending chunk order. Both the split and the reduction order
    /// are functions of the batch size alone, so the resulting weights
    /// are bitwise identical at every thread count.
    ///
    /// # Errors
    ///
    /// The errors of [`train_batch`](Self::train_batch), and
    /// [`NnError::InvalidConfig`] for a negative or non-finite λ.
    pub fn train_batch_regularized<O: Optimizer>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        weight_decay: f64,
        optimizer: &mut O,
    ) -> crate::Result<f64> {
        engine::train_batch_regularized(&mut self.layers, x, y, loss, weight_decay, optimizer)
    }
}

/// Builder for an all-spatial [`Network`] over `Chw` maps, tracking
/// the flowing shape so layer geometry never has to be repeated.
/// (All-dense networks come from [`MlpBuilder`](crate::MlpBuilder).)
///
/// # Example
///
/// A small encoder-decoder over `2×8×8` maps:
///
/// ```
/// use ppdl_nn::{Activation, NetworkBuilder, TensorShape};
///
/// let net = NetworkBuilder::new(TensorShape::Chw { c: 2, h: 8, w: 8 })
///     .conv2d(4, 3, Activation::Relu)
///     .max_pool(2)
///     .conv2d(4, 3, Activation::Relu)
///     .upsample(2)
///     .conv2d(2, 3, Activation::Identity)
///     .seed(7)
///     .build()
///     .unwrap();
/// assert_eq!(net.output_shape(), TensorShape::Chw { c: 2, h: 8, w: 8 });
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    input_shape: TensorShape,
    shape: TensorShape,
    layers: Vec<Layer>,
    seed: u64,
    error: Option<NnError>,
}

impl NetworkBuilder {
    /// Starts a builder for the given input shape.
    #[must_use]
    pub fn new(input_shape: TensorShape) -> Self {
        Self {
            input_shape,
            shape: input_shape,
            layers: Vec::new(),
            seed: 0,
            error: None,
        }
    }

    /// Sets the weight-initialisation seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn fail(mut self, detail: String) -> Self {
        if self.error.is_none() {
            self.error = Some(NnError::InvalidConfig { detail });
        }
        self
    }

    fn push(mut self, layer: Layer) -> Self {
        self.shape = layer.output_shape();
        self.layers.push(layer);
        self
    }

    fn chw(&self) -> Option<(usize, usize, usize)> {
        match self.shape {
            TensorShape::Chw { c, h, w } => Some((c, h, w)),
            TensorShape::Flat(_) => None,
        }
    }

    /// Appends a `k×k` convolution producing `out_c` channels
    /// (requires a `Chw` tensor).
    #[must_use]
    pub fn conv2d(mut self, out_c: usize, k: usize, activation: Activation) -> Self {
        let shape = self.shape;
        let Some((c, h, w)) = self.chw() else {
            return self.fail(format!("conv2d requires a chw input, found {shape}"));
        };
        if self.error.is_some() {
            return self;
        }
        let li = self.layers.len() as u64;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(li.wrapping_mul(0x9e37_79b9)));
        match Conv2d::new(c, h, w, out_c, k, activation, &mut rng) {
            Ok(l) => self.push(Layer::Conv2d(l)),
            Err(e) => {
                self.error = Some(e);
                self
            }
        }
    }

    /// Appends a max-pooling layer with window `k`.
    #[must_use]
    pub fn max_pool(mut self, k: usize) -> Self {
        let shape = self.shape;
        let Some((c, h, w)) = self.chw() else {
            return self.fail(format!("max_pool requires a chw input, found {shape}"));
        };
        match MaxPool2d::new(c, h, w, k) {
            Ok(l) => self.push(Layer::MaxPool2d(l)),
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
                self
            }
        }
    }

    /// Appends a nearest-neighbour upsampling layer with factor `k`.
    #[must_use]
    pub fn upsample(mut self, k: usize) -> Self {
        let shape = self.shape;
        let Some((c, h, w)) = self.chw() else {
            return self.fail(format!("upsample requires a chw input, found {shape}"));
        };
        match Upsample2d::new(c, h, w, k) {
            Ok(l) => self.push(Layer::Upsample2d(l)),
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
                self
            }
        }
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns the first layer-construction error, or
    /// [`NnError::InvalidConfig`] for an empty network.
    pub fn build(self) -> crate::Result<Network> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Network::from_parts(self.input_shape, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;

    fn chw(c: usize, h: usize, w: usize) -> TensorShape {
        TensorShape::Chw { c, h, w }
    }

    #[test]
    fn shape_chain_validated() {
        let conv = NetworkBuilder::new(chw(1, 4, 4))
            .conv2d(2, 3, Activation::Relu)
            .max_pool(2)
            .build()
            .unwrap();
        assert_eq!(conv.output_shape(), chw(2, 2, 2));
        assert_eq!(conv.layer_count(), 2);
        // Shapes must match exactly, not just in width: a dense layer
        // cannot read a map, nor a conv a flat row of the same length.
        let mut rng = StdRng::seed_from_u64(1);
        let dense = DenseLayer::new(8, 4, Activation::Identity, &mut rng).unwrap();
        let mut mixed = conv.layers().to_vec();
        mixed.push(Layer::Dense(dense));
        assert!(matches!(
            Network::from_parts(chw(1, 4, 4), mixed),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Network::from_parts(TensorShape::Flat(16), conv.layers().to_vec()),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new(TensorShape::Flat(16))
                .conv2d(2, 3, Activation::Relu)
                .build(),
            Err(NnError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn builder_reports_first_error() {
        let err = NetworkBuilder::new(chw(1, 4, 4))
            .conv2d(2, 2, Activation::Relu) // even kernel
            .max_pool(2)
            .build();
        assert!(matches!(err, Err(NnError::InvalidConfig { .. })));
    }

    #[test]
    fn encoder_decoder_round_trips_shape() {
        let net = NetworkBuilder::new(chw(2, 8, 8))
            .conv2d(4, 3, Activation::Relu)
            .max_pool(2)
            .conv2d(8, 3, Activation::Relu)
            .upsample(2)
            .conv2d(2, 3, Activation::Identity)
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(net.output_shape(), chw(2, 8, 8));
        let x = Matrix::from_fn(3, 2 * 64, |r, i| ((r + i) % 7) as f64 * 0.1);
        let out = net.predict(&x).unwrap();
        assert_eq!(out.shape(), (3, 2 * 64));
        assert!(out.all_finite());
    }

    /// A small encoder-decoder over `c×4×4` maps.
    fn encoder_decoder(c: usize, seed: u64) -> Network {
        NetworkBuilder::new(chw(c, 4, 4))
            .conv2d(3, 3, Activation::Tanh)
            .max_pool(2)
            .upsample(2)
            .conv2d(c, 3, Activation::Identity)
            .seed(seed)
            .build()
            .unwrap()
    }

    /// Each map's target: the map minus its own mean.
    fn centred(x: &Matrix) -> Matrix {
        Matrix::from_fn(x.rows(), x.cols(), |r, i| {
            let row = x.row(r);
            row[i] - row.iter().sum::<f64>() / row.len() as f64
        })
    }

    #[test]
    fn network_training_reduces_loss() {
        let mut net = encoder_decoder(1, 5);
        let x = Matrix::from_fn(64, 16, |r, i| ((r * 5 + i * 3) % 11) as f64 / 11.0);
        let y = centred(&x);
        let mut opt = Adam::new(5e-3).unwrap();
        let mut first = 0.0;
        let mut last = 0.0;
        for e in 0..150 {
            let l = net.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap();
            if e == 0 {
                first = l;
            }
            last = l;
        }
        assert!(
            last < first / 5.0,
            "training should reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn conv_training_is_bitwise_deterministic_across_thread_counts() {
        // 640 samples of 2x4x4 maps: above the 512-row threshold, so
        // training runs three 256-row chunks. Weights and losses must
        // be bitwise identical at 1 vs 4 threads.
        let run = || -> (Vec<f64>, Vec<f64>) {
            let mut net = encoder_decoder(2, 9);
            let x = Matrix::from_fn(640, 32, |r, i| ((r * 13 + i * 7) % 17) as f64 / 17.0 - 0.4);
            let y = centred(&x);
            let mut opt = Adam::new(1e-2).unwrap();
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(net.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap());
            }
            let mut weights = Vec::new();
            for layer in net.layers() {
                if let Layer::Conv2d(l) = layer {
                    weights.extend_from_slice(l.weights().as_slice());
                    weights.extend_from_slice(l.bias());
                }
            }
            (losses, weights)
        };
        ppdl_solver::set_threads(1);
        let (l1, w1) = run();
        ppdl_solver::set_threads(4);
        let (l4, w4) = run();
        ppdl_solver::set_threads(0);
        assert_eq!(l1, l4, "losses must be bitwise identical");
        assert_eq!(w1, w4, "weights must be bitwise identical");
    }

    /// One training step on `x_rows` inputs and `y_rows` targets.
    fn step(net: &mut Network, x_rows: usize, y_rows: usize) -> crate::Result<f64> {
        let x = Matrix::from_fn(x_rows, net.input_shape().len(), |r, c| {
            ((r * 5 + c * 3) % 7) as f64 / 7.0
        });
        let y = Matrix::zeros(y_rows, net.output_shape().len());
        net.train_batch(&x, &y, Loss::Mse, &mut Adam::new(1e-3).unwrap())
    }

    #[test]
    fn degenerate_batches_are_typed_errors_that_change_nothing() {
        // Both model families, on both sides of the 512-row chunking
        // threshold.
        let mlp = || {
            crate::MlpBuilder::new(3)
                .hidden(4, Activation::Tanh)
                .output(1)
                .seed(1)
                .build()
                .unwrap()
        };
        for build in [mlp, || encoder_decoder(1, 2)] {
            let mut net = build();
            let before = net.to_text();
            for rows in [10, 600] {
                for (x_rows, y_rows) in [(rows, rows - 1), (rows - 1, rows), (rows, 0), (0, rows)] {
                    let got = step(&mut net, x_rows, y_rows);
                    assert!(
                        matches!(got, Err(NnError::ShapeMismatch { .. })),
                        "x {x_rows} rows, y {y_rows} rows: {got:?}"
                    );
                }
            }
            let got = step(&mut net, 0, 0);
            assert!(matches!(got, Err(NnError::EmptyDataset)), "{got:?}");
            assert_eq!(net.to_text(), before, "a refused batch moved the weights");
        }
    }

    #[test]
    fn chunked_predict_matches_sequential_for_spatial_net() {
        let net = encoder_decoder(1, 2);
        let x = Matrix::from_fn(600, 16, |r, i| ((r * 3 + i) % 23) as f64 * 0.05);
        let chunked = net.predict(&x).unwrap();
        // Row-by-row sequential evaluation must agree bitwise.
        for r in (0..600).step_by(97) {
            let row = x.slice_rows(r, r + 1);
            let single = net.predict(&row).unwrap();
            assert_eq!(single.row(0), chunked.row(r), "row {r}");
        }
    }
}

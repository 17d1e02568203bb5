//! The layer-graph model: a sequential [`Network`] composing dense and
//! spatial layers behind one deterministic engine. The paper's MLP is
//! the dense-only case ([`MlpBuilder`](crate::MlpBuilder)).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::conv::{AvgPool2d, Conv2d, Flatten, MaxPool2d, Upsample2d};
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
    /// Average pooling (window = stride).
    AvgPool2d(AvgPool2d),
    /// Nearest-neighbour upsampling.
    Upsample2d(Upsample2d),
    /// Map-to-row marker (identity data path).
    Flatten(Flatten),
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
            Layer::AvgPool2d(l) => {
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
            Layer::Flatten(l) => {
                let (c, h, w) = l.shape();
                TensorShape::Chw { c, h, w }
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
            Layer::AvgPool2d(l) => {
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
            Layer::Flatten(l) => {
                let (c, h, w) = l.shape();
                TensorShape::Flat(c * h * w)
            }
        }
    }

    /// Trainable parameter count (zero for pools/upsample/flatten).
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.parameter_count(),
            Layer::Conv2d(l) => l.parameter_count(),
            _ => 0,
        }
    }

    /// Inference-only forward pass for a batch (no caching) — one
    /// step of [`Network::predict`]'s unchunked path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the batch width is wrong.
    pub fn forward_inference(&self, input: &Matrix) -> crate::Result<Matrix> {
        match self {
            Layer::Dense(l) => l.forward_inference(input),
            Layer::Conv2d(l) => l.forward_inference(input),
            Layer::MaxPool2d(l) => l.forward_inference(input),
            Layer::AvgPool2d(l) => l.forward_inference(input),
            Layer::Upsample2d(l) => l.forward_inference(input),
            Layer::Flatten(l) => l.forward_inference(input),
        }
    }

    // The engine's per-layer contract. Every kind exposes a stateful
    // path (whole-batch training), a side-effect-free pure path (the
    // per-chunk data-parallel kernels), and the parameter hooks the
    // optimizer protocol needs. Parameterless layers (pools, flatten,
    // upsample) return empty gradient tensors from `backward_pure` and
    // never invoke the `update_parameters` callback.

    /// Stateful forward pass, caching whatever `backward` needs.
    pub(crate) fn forward(&mut self, input: &Matrix) -> crate::Result<Matrix> {
        match self {
            Layer::Dense(l) => l.forward(input),
            Layer::Conv2d(l) => l.forward(input),
            Layer::MaxPool2d(l) => l.forward(input),
            Layer::AvgPool2d(l) => l.forward(input),
            Layer::Upsample2d(l) => l.forward(input),
            Layer::Flatten(l) => l.forward_inference(input),
        }
    }

    /// Stateful backward pass consuming the `forward` caches.
    pub(crate) fn backward(&mut self, grad_output: &Matrix) -> crate::Result<Matrix> {
        match self {
            Layer::Dense(l) => l.backward(grad_output),
            Layer::Conv2d(l) => l.backward(grad_output),
            Layer::MaxPool2d(l) => l.backward(grad_output),
            Layer::AvgPool2d(l) => l.backward(grad_output),
            Layer::Upsample2d(l) => l.backward(grad_output),
            Layer::Flatten(_) => Ok(grad_output.clone()),
        }
    }

    /// Side-effect-free forward returning `(pre_activation, output)`.
    pub(crate) fn forward_pure(&self, input: &Matrix) -> crate::Result<(Matrix, Matrix)> {
        match self {
            Layer::Dense(l) => l.forward_pure(input),
            Layer::Conv2d(l) => l.forward_pure(input),
            Layer::MaxPool2d(l) => l.forward_pure(input),
            Layer::AvgPool2d(l) => l.forward_pure(input),
            Layer::Upsample2d(l) => l.forward_pure(input),
            Layer::Flatten(l) => l.forward_pure(input),
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
            Layer::AvgPool2d(l) => l.backward_pure(input, pre, grad_output),
            Layer::Upsample2d(l) => l.backward_pure(input, pre, grad_output),
            Layer::Flatten(l) => l.backward_pure(input, pre, grad_output),
        }
    }

    /// Installs externally reduced gradients.
    pub(crate) fn set_gradients(&mut self, grad_weights: Matrix, grad_bias: Vec<f64>) {
        match self {
            Layer::Dense(l) => l.set_gradients(grad_weights, grad_bias),
            Layer::Conv2d(l) => l.set_gradients(grad_weights, grad_bias),
            _ => {}
        }
    }

    /// Applies `f` to each (parameters, gradients) tensor pair —
    /// weights first, then bias; never called for parameterless layers.
    pub(crate) fn update_parameters(&mut self, f: impl FnMut(&mut [f64], &[f64])) {
        match self {
            Layer::Dense(l) => l.update_parameters(f),
            Layer::Conv2d(l) => l.update_parameters(f),
            _ => {}
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
    /// input shape matches its predecessor's output shape.
    ///
    /// Pure shape reinterpretation is allowed where widths agree: a
    /// `Flat(n)` tensor feeds a spatial layer whose `c·h·w == n` and a
    /// `Chw` tensor feeds a dense layer of matching width, because rows
    /// are the storage for both.
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
            if expected.len() != shape.len() {
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

    /// Inference on a batch (`batch × input_shape.len()`), without
    /// touching the training caches.
    ///
    /// Large batches (≥ 512 rows) are evaluated as independent row
    /// chunks, in parallel when [`ppdl_solver::parallel`] is configured
    /// with more than one thread. Each row's output depends only on that
    /// row, so the result is bitwise identical to the sequential pass at
    /// every thread count.
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
    /// Propagates shape errors and optimizer errors.
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
    /// Batches of at least 512 rows run the data-parallel path: the
    /// batch splits into fixed 256-row chunks, each chunk's forward and
    /// backward pass runs through the side-effect-free layer kernels
    /// (concurrently when [`ppdl_solver::parallel`] allows), and chunk
    /// gradients are summed in ascending chunk order. Both the split
    /// and the reduction order are functions of the batch size alone,
    /// so the resulting weights are bitwise identical at every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates shape errors, optimizer errors, and
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

/// Builder for [`Network`], tracking the flowing shape so layer
/// geometry never has to be repeated.
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

    fn chw(&self, what: &str) -> Option<(usize, usize, usize)> {
        match self.shape {
            TensorShape::Chw { c, h, w } => Some((c, h, w)),
            TensorShape::Flat(n) => {
                let _ = (what, n);
                None
            }
        }
    }

    /// Appends a dense layer (requires a flat tensor — use
    /// [`flatten`](Self::flatten) after spatial layers).
    #[must_use]
    pub fn dense(mut self, width: usize, activation: Activation) -> Self {
        let shape = self.shape;
        let TensorShape::Flat(input_dim) = shape else {
            return self.fail(format!(
                "dense layer requires a flat input, found {shape}; insert flatten()"
            ));
        };
        if self.error.is_some() {
            return self;
        }
        // Derive a per-layer seed so inserting a layer doesn't shift
        // every later layer's weights.
        let li = self.layers.len() as u64;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(li.wrapping_mul(0x9e37_79b9)));
        match DenseLayer::new(input_dim, width, activation, &mut rng) {
            Ok(l) => self.push(Layer::Dense(l)),
            Err(e) => {
                self.error = Some(e);
                self
            }
        }
    }

    /// Appends a `k×k` convolution producing `out_c` channels
    /// (requires a `Chw` tensor).
    #[must_use]
    pub fn conv2d(mut self, out_c: usize, k: usize, activation: Activation) -> Self {
        let shape = self.shape;
        let Some((c, h, w)) = self.chw("conv2d") else {
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
        let Some((c, h, w)) = self.chw("max_pool") else {
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

    /// Appends an average-pooling layer with window `k`.
    #[must_use]
    pub fn avg_pool(mut self, k: usize) -> Self {
        let shape = self.shape;
        let Some((c, h, w)) = self.chw("avg_pool") else {
            return self.fail(format!("avg_pool requires a chw input, found {shape}"));
        };
        match AvgPool2d::new(c, h, w, k) {
            Ok(l) => self.push(Layer::AvgPool2d(l)),
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
        let Some((c, h, w)) = self.chw("upsample") else {
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

    /// Appends a flatten marker, switching the flowing shape from
    /// `Chw` to `Flat` so dense layers can follow.
    #[must_use]
    pub fn flatten(mut self) -> Self {
        let shape = self.shape;
        let Some((c, h, w)) = self.chw("flatten") else {
            return self.fail(format!("flatten requires a chw input, found {shape}"));
        };
        match Flatten::new(c, h, w) {
            Ok(l) => self.push(Layer::Flatten(l)),
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
        // Dense after Chw without flatten: widths must match to pass.
        let err = NetworkBuilder::new(chw(1, 4, 4))
            .conv2d(2, 3, Activation::Relu)
            .dense(4, Activation::Identity)
            .build();
        assert!(err.is_err());
        let ok = NetworkBuilder::new(chw(1, 4, 4))
            .conv2d(2, 3, Activation::Relu)
            .flatten()
            .dense(4, Activation::Identity)
            .build()
            .unwrap();
        assert_eq!(ok.output_shape(), TensorShape::Flat(4));
        assert_eq!(ok.layer_count(), 3);
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

    #[test]
    fn network_training_reduces_loss() {
        // Learn to predict the per-map mean current via conv + pool +
        // dense readout.
        let mut net = NetworkBuilder::new(chw(1, 4, 4))
            .conv2d(3, 3, Activation::Tanh)
            .avg_pool(2)
            .flatten()
            .dense(1, Activation::Identity)
            .seed(5)
            .build()
            .unwrap();
        let x = Matrix::from_fn(64, 16, |r, i| ((r * 5 + i * 3) % 11) as f64 / 11.0);
        let y = Matrix::from_fn(64, 1, |r, _| x.row(r).iter().sum::<f64>() / 16.0);
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
        // 640 samples of 2x4x4 maps: above the 512-row parallel
        // threshold, so training runs the chunked path. Weights and
        // losses must be bitwise identical at 1 vs 4 threads.
        let run = || -> (Vec<f64>, Vec<f64>) {
            let mut net = NetworkBuilder::new(chw(2, 4, 4))
                .conv2d(3, 3, Activation::Tanh)
                .max_pool(2)
                .flatten()
                .dense(2, Activation::Identity)
                .seed(9)
                .build()
                .unwrap();
            let x = Matrix::from_fn(640, 32, |r, i| ((r * 13 + i * 7) % 17) as f64 / 17.0 - 0.4);
            let y = Matrix::from_fn(640, 2, |r, c| {
                let row = x.row(r);
                let s: f64 = row.iter().sum();
                if c == 0 {
                    s / 32.0
                } else {
                    row[0] - row[31]
                }
            });
            let mut opt = Adam::new(1e-2).unwrap();
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(net.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap());
            }
            let mut weights = Vec::new();
            for layer in net.layers() {
                match layer {
                    Layer::Dense(l) => {
                        weights.extend_from_slice(l.weights().as_slice());
                        weights.extend_from_slice(l.bias());
                    }
                    Layer::Conv2d(l) => {
                        weights.extend_from_slice(l.weights().as_slice());
                        weights.extend_from_slice(l.bias());
                    }
                    _ => {}
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

    #[test]
    fn chunked_predict_matches_sequential_for_spatial_net() {
        let net = NetworkBuilder::new(chw(1, 4, 4))
            .conv2d(2, 3, Activation::Relu)
            .avg_pool(2)
            .flatten()
            .dense(3, Activation::Identity)
            .seed(2)
            .build()
            .unwrap();
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

//! A from-scratch dense neural-network library for multi-target
//! regression.
//!
//! The paper's model is a fully-connected multilayer perceptron (10
//! hidden layers, chosen by hyperparameter search) trained with the
//! Adam optimizer (paper ref. 13) on an MSE loss to regress power-grid interconnect
//! widths from `(X, Y, Id)` features. This crate implements everything
//! that requires, with no external ML dependency:
//!
//! * [`Matrix`] — row-major dense tensors with the linear-algebra ops
//!   backpropagation needs.
//! * [`Network`] — the one model type: a sequential layer graph over
//!   [`Layer`] kinds ([`DenseLayer`], [`Conv2d`], [`MaxPool2d`],
//!   [`Upsample2d`]) with manual forward/backward kernels on a
//!   bitwise-deterministic parallel minibatch engine, the one training
//!   path. [`MlpBuilder`] builds the paper's all-dense MLP;
//!   [`NetworkBuilder`] builds the all-spatial encoder-decoder
//!   surrogate.
//! * [`Activation`] — ReLU / LeakyReLU / Tanh / Sigmoid / Identity.
//! * [`Loss`] — MSE (the paper's choice), MAE, and Huber.
//! * [`Optimizer`] implementations — [`Sgd`], [`Momentum`], [`RmsProp`],
//!   and [`Adam`].
//! * [`Trainer`] — mini-batch training with shuffling, validation
//!   split, and early stopping.
//! * [`Dataset`] / [`StandardScaler`] — data handling and
//!   feature standardisation.
//! * [`metrics`] — MSE, MAE, and the r² score (Definition 1 of the
//!   paper).
//! * Model persistence in a versioned text format
//!   ([`Network::to_text`] / [`Network::from_text`]).
//!
//! # Example
//!
//! Learn `y = 2x₀ - x₁` from samples:
//!
//! ```
//! use ppdl_nn::{Activation, Dataset, Matrix, MlpBuilder, TrainConfig, Trainer};
//!
//! let x = Matrix::from_fn(64, 2, |r, c| ((r * 7 + c * 3) % 10) as f64 / 10.0);
//! let y = Matrix::from_fn(64, 1, |r, _| 2.0 * x.get(r, 0) - x.get(r, 1));
//! let data = Dataset::new(x, y).unwrap();
//!
//! let mut model = MlpBuilder::new(2)
//!     .hidden(16, Activation::Relu)
//!     .output(1)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let report = Trainer::new(TrainConfig {
//!     epochs: 200,
//!     learning_rate: 1e-2,
//!     ..TrainConfig::default()
//! })
//! .fit(&mut model, &data)
//! .unwrap();
//! assert!(*report.train_losses.last().unwrap() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod data;
mod engine;
mod error;
mod gemm;
mod layer;
mod loss;
pub mod metrics;
mod model;
mod net_persist;
mod network;
mod optimizer;
mod tensor;
mod trainer;

pub use activation::Activation;
pub use conv::{Conv2d, MaxPool2d, Upsample2d};
pub use data::{Dataset, StandardScaler};
pub use error::NnError;
pub use layer::DenseLayer;
pub use loss::Loss;
pub use model::MlpBuilder;
pub use network::{Layer, Network, NetworkBuilder, TensorShape};
pub use optimizer::{Adam, Momentum, Optimizer, RmsProp, Sgd};
pub use tensor::Matrix;
pub use trainer::{TrainConfig, TrainReport, Trainer};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;

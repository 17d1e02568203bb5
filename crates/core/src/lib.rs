//! PowerPlanningDL: reliability-aware power grid design using deep
//! learning (Dey, Nandi, Trivedi — DATE 2020).
//!
//! This crate assembles the paper's framework from the substrate
//! crates:
//!
//! * [`FeatureExtractor`] — §IV-B: builds the `(X, Y, Id)` training
//!   quadruples from a benchmark's segments and floorplan, with
//!   single-feature variants for the Table I / Fig. 4(b) ablation.
//! * [`ConventionalFlow`] — Fig. 1: the iterative baseline that sizes
//!   strap widths by repeated IR-drop/EM analysis until margins hold;
//!   its output widths are the *golden* labels the model learns.
//! * [`WidthPredictor`] — Problem 1 / Algorithm 1: the deep-learning
//!   width regressor (MLP + Adam, 10 hidden layers by default).
//! * [`SpatialPredictor`] / [`BackendModel`] — the encoder-decoder
//!   width surrogate regressing rasterised width maps, and the backend
//!   seam that lets the flow, bundles, and the serving registry swap it
//!   for the MLP.
//! * [`IrPredictor`] — Problem 2 / Algorithm 2: Kirchhoff-law IR-drop
//!   estimation from predicted widths and switching currents, *without*
//!   running a grid solve (eqs. 6–9) — the source of the speedup.
//! * [`Perturbation`] — §IV-D: the test-set generator perturbing node
//!   voltages and/or current workloads by γ.
//! * [`calibrate_to_worst_ir`] — scales a synthetic benchmark's loads
//!   so its conventional worst-case IR drop matches the Table III value
//!   of the IBM original.
//! * [`PowerPlanningDl`] — Fig. 2 / Fig. 6: the end-to-end flow with
//!   timing, reproducing the Table IV comparison.
//!
//! # Example
//!
//! ```
//! use ppdl_core::pipeline::BenchmarkSourceStage;
//! use ppdl_core::{DlFlowConfig, PowerPlanningDl};
//! use ppdl_netlist::IbmPgPreset;
//!
//! let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.006, 7);
//! let (outcome, _stages) = PowerPlanningDl::new(DlFlowConfig::fast())
//!     .run(source, None)
//!     .unwrap();
//! assert!(outcome.width_metrics.r2 > 0.4);
//! assert!(outcome.timing.speedup > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod calibrate;
mod conventional;
mod error;
pub mod experiment;
mod features;
mod flow;
mod irpredict;
mod perturb;
pub mod pipeline;
pub mod predict;
mod predictor;
mod predictor_persist;
mod spatial;
pub mod synth;

pub use backend::{BackendKind, BackendModel, InputSpec};
pub use calibrate::{calibrate_to_worst_ir, calibration_tolerance};
pub use conventional::{ConventionalConfig, ConventionalFlow, ConventionalResult};
pub use error::CoreError;
pub use features::{FeatureExtractor, FeatureSet, WidthDataset};
pub use flow::{DlFlowConfig, DlFlowConfigBuilder, DlOutcome, PowerPlanningDl, Timing};
pub use irpredict::{IrPredictor, PredictedIr};
pub use perturb::{run_perturbation_sweep, Perturbation, PerturbationKind};
pub use predict::{BundleMeta, PredictRequest, PredictResponse, Prediction, TrainedBundle};
pub use predictor::{segment_dataset, PredictorConfig, TrainSummary, WidthMetrics, WidthPredictor};
pub use spatial::{RasterMaps, SpatialPredictor};
pub use synth::{synthesize, SynthConfig, SynthResult};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

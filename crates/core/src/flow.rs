//! The end-to-end PowerPlanningDL flow (Fig. 2 / Fig. 6).
//!
//! Training phase: run the conventional iterative design once to obtain
//! golden widths, extract `(X, Y, Id, wᵢ)` quadruples, train the MLP.
//! Validation phase: perturb the design (§IV-D), predict widths with
//! the model, predict IR drop with Kirchhoff accumulation, and compare
//! quality and wall-clock time against a conventional analysis of the
//! same perturbed design — the Table III/IV/V measurements.
//!
//! [`PowerPlanningDl::run`] is the one way to run the whole flow: it
//! drives the five stages of [`crate::pipeline`] from a preset
//! [`BenchmarkSourceStage`], optionally against an [`ArtifactCache`] so
//! repeated runs skip sizing, training, and ground-truth solves.

use std::time::Duration;

use ppdl_analysis::IrDropReport;
use ppdl_netlist::SyntheticBenchmark;

use crate::pipeline::{
    run_stage, ArtifactCache, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx, PredictStage,
    Stage, StageRecord, TrainStage, ValidateStage,
};
use crate::{
    BackendKind, BackendModel, ConventionalConfig, CoreError, PerturbationKind, PredictedIr,
    PredictorConfig, WidthMetrics,
};

/// Configuration of the full flow.
#[derive(Debug, Clone)]
pub struct DlFlowConfig {
    /// The conventional baseline (golden-label generator and timing
    /// comparator).
    pub conventional: ConventionalConfig,
    /// The width-prediction model.
    pub predictor: PredictorConfig,
    /// Which surrogate backend the train stage fits (MLP rows vs
    /// spatial maps).
    pub backend: BackendKind,
    /// Perturbation size γ for the test design (the paper's headline
    /// value is 10 %).
    pub perturbation_gamma: f64,
    /// What the perturbation touches.
    pub perturbation_kind: PerturbationKind,
    /// Seed for the perturbation randomness.
    pub seed: u64,
    /// Segment-sampling stride for the timed width-inference path (a
    /// strap has one width, so predicting every n-th of its segments
    /// and averaging is design-equivalent at 1/n the inference cost).
    pub inference_stride: usize,
}

impl Default for DlFlowConfig {
    fn default() -> Self {
        Self {
            conventional: ConventionalConfig::default(),
            predictor: PredictorConfig::default(),
            backend: BackendKind::Mlp,
            perturbation_gamma: 0.10,
            perturbation_kind: PerturbationKind::Both,
            seed: 1,
            inference_stride: 4,
        }
    }
}

impl DlFlowConfig {
    /// A reduced configuration for tests and doc examples.
    #[must_use]
    pub fn fast() -> Self {
        Self::builder().fast().build()
    }

    /// A builder starting from the paper's configuration. Prefer this
    /// over struct-literal construction: new knobs get sensible
    /// defaults instead of breaking call sites, and the perturbation
    /// size is range-checked at build time.
    #[must_use]
    pub fn builder() -> DlFlowConfigBuilder {
        DlFlowConfigBuilder::default()
    }
}

/// Builder for [`DlFlowConfig`]; defaults are the paper configuration,
/// [`fast`](DlFlowConfigBuilder::fast) switches to the reduced preset.
///
/// # Example
///
/// ```
/// use ppdl_core::DlFlowConfig;
///
/// let config = DlFlowConfig::builder()
///     .fast()
///     .perturbation_gamma(0.2)
///     .seed(7)
///     .build();
/// assert_eq!(config.perturbation_gamma, 0.2);
/// assert_eq!(config.predictor.hidden_layers, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DlFlowConfigBuilder {
    config: DlFlowConfig,
}

impl DlFlowConfigBuilder {
    /// Switches every model/training knob to the reduced preset used
    /// by tests and doc examples.
    #[must_use]
    pub fn fast(mut self) -> Self {
        self.config.predictor = PredictorConfig::fast();
        self
    }

    /// Sets the per-iteration widening multiplier of the conventional
    /// sizing loop. Finer factors converge tighter margins at the price
    /// of more full-solve iterations — the trade the synthesis
    /// experiment measures.
    #[must_use]
    pub fn widen_factor(mut self, factor: f64) -> Self {
        self.config.conventional.widen_factor = factor;
        self
    }

    /// Selects the preconditioner for the conventional sizing's and the
    /// validation's analysis solves.
    #[must_use]
    pub fn preconditioner(mut self, kind: ppdl_solver::PrecondKind) -> Self {
        self.config.conventional.analysis.preconditioner = kind;
        self
    }

    /// Replaces the width-prediction model configuration.
    #[must_use]
    pub fn predictor(mut self, predictor: PredictorConfig) -> Self {
        self.config.predictor = predictor;
        self
    }

    /// Selects the surrogate backend the train stage fits.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Sets the perturbation size γ.
    #[must_use]
    pub fn perturbation_gamma(mut self, gamma: f64) -> Self {
        self.config.perturbation_gamma = gamma;
        self
    }

    /// Sets the perturbation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> DlFlowConfig {
        self.config
    }

    /// Finishes the builder, rejecting a perturbation size γ outside
    /// `(0, 1)` instead of failing later inside the flow.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`].
    pub fn try_build(self) -> crate::Result<DlFlowConfig> {
        let c = self.config;
        if !(c.perturbation_gamma > 0.0 && c.perturbation_gamma < 1.0) {
            return Err(CoreError::InvalidConfig {
                detail: format!("perturbation size {} outside (0, 1)", c.perturbation_gamma),
            });
        }
        Ok(c)
    }
}

/// Wall-clock comparison between the two approaches (Table IV).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Conventional convergence time: one full power-grid analysis of
    /// the test design (the paper's best-case, single-iteration cost).
    pub conventional: Duration,
    /// PowerPlanningDL time: width inference plus Kirchhoff IR-drop
    /// prediction.
    pub dl: Duration,
    /// `conventional / dl`.
    pub speedup: f64,
}

/// Everything the flow produces for one benchmark.
#[derive(Debug, Clone)]
pub struct DlOutcome {
    /// Golden per-strap widths from the conventional sizing.
    pub golden_widths: Vec<f64>,
    /// DL-predicted per-strap widths on the perturbed test design.
    pub predicted_widths: Vec<f64>,
    /// Width-prediction quality on the test design (Table V / Fig. 7).
    pub width_metrics: WidthMetrics,
    /// Worst-case IR drop of the test design under conventional
    /// analysis, in mV (Table III left column).
    pub conventional_worst_ir_mv: f64,
    /// Worst-case IR drop predicted by PowerPlanningDL, in mV
    /// (Table III right column).
    pub predicted_worst_ir_mv: f64,
    /// The timing comparison (Table IV).
    pub timing: Timing,
    /// The training run's loss history.
    pub train_report: crate::TrainSummary,
    /// The width model the flow trained (or restored from the cache).
    pub predictor: BackendModel,
    /// The sized (trained-on) benchmark.
    pub sized_bench: SyntheticBenchmark,
    /// The perturbed test benchmark.
    pub test_bench: SyntheticBenchmark,
    /// The conventional analysis report on the test design (for maps).
    pub test_report: IrDropReport,
    /// The Kirchhoff IR estimate on the test design (for maps).
    pub predicted_ir: PredictedIr,
    /// Design-loop iterations the conventional sizing needed.
    pub conventional_iterations: usize,
}

/// The PowerPlanningDL framework facade.
///
/// # Example
///
/// ```
/// use ppdl_core::pipeline::BenchmarkSourceStage;
/// use ppdl_core::{DlFlowConfig, PowerPlanningDl};
/// use ppdl_netlist::IbmPgPreset;
///
/// let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.006, 3);
/// let (outcome, records) = PowerPlanningDl::new(DlFlowConfig::fast())
///     .run(source, None)
///     .unwrap();
/// assert!(outcome.width_metrics.r2 > 0.4);
/// assert_eq!(records.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerPlanningDl {
    config: DlFlowConfig,
}

impl PowerPlanningDl {
    /// Creates the flow with the given configuration.
    #[must_use]
    pub fn new(config: DlFlowConfig) -> Self {
        Self { config }
    }

    /// Runs the full train-then-validate flow — the five pipeline
    /// stages, in order — on the benchmark `source` builds. With a
    /// cache, stages whose inputs are unchanged decode their artifacts
    /// from disk instead of recomputing, and the returned
    /// [`StageRecord`]s say which did.
    ///
    /// # Errors
    ///
    /// Propagates generation, calibration, sizing, training,
    /// prediction, and analysis errors. Cache decode errors never fail
    /// a run — the stage recomputes.
    pub fn run(
        &self,
        source: BenchmarkSourceStage,
        cache: Option<&ArtifactCache>,
    ) -> crate::Result<(DlOutcome, Vec<StageRecord>)> {
        let mut ctx = PipelineCtx::new(self.config.clone(), cache);
        let stages: [&dyn Stage; 5] = [
            &source,
            &FeatureExtractStage,
            &TrainStage,
            &PredictStage,
            &ValidateStage,
        ];
        for stage in stages {
            run_stage(stage, &mut ctx)?;
        }
        let PipelineCtx {
            sizing: Some(sizing),
            trained: Some(trained),
            predicted: Some(predicted),
            validated: Some(validated),
            records,
            ..
        } = ctx
        else {
            return Err(CoreError::InvalidConfig {
                detail: "pipeline stage ordering bug: a stage left its slot empty".into(),
            });
        };
        let outcome = DlOutcome {
            golden_widths: sizing.golden_widths,
            predicted_widths: predicted.predicted_widths,
            width_metrics: validated.metrics,
            conventional_worst_ir_mv: validated.report.worst_drop().map_or(0.0, |(_, d)| d) * 1e3,
            predicted_worst_ir_mv: predicted.predicted_ir.worst_mv(),
            timing: Timing {
                conventional: Duration::from_secs_f64(validated.conv_secs),
                dl: Duration::from_secs_f64(predicted.dl_secs),
                speedup: validated.conv_secs / predicted.dl_secs.max(f64::EPSILON),
            },
            train_report: trained.summary,
            predictor: trained.predictor,
            sized_bench: sizing.sized,
            test_bench: predicted.test_bench,
            test_report: validated.report,
            predicted_ir: predicted.predicted_ir,
            conventional_iterations: sizing.iterations,
        };
        Ok((outcome, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_netlist::IbmPgPreset;

    fn outcome() -> DlOutcome {
        let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.008, 13);
        PowerPlanningDl::new(DlFlowConfig::fast())
            .run(source, None)
            .unwrap()
            .0
    }

    #[test]
    fn full_flow_produces_consistent_outcome() {
        let o = outcome();
        assert_eq!(o.golden_widths.len(), o.predicted_widths.len());
        assert!(o.width_metrics.r2 > 0.5, "r2 = {}", o.width_metrics.r2);
        assert!(o.conventional_worst_ir_mv > 0.0);
        assert!(o.predicted_worst_ir_mv > 0.0);
        assert!(o.timing.speedup > 0.0);
        assert!(o.conventional_iterations >= 1);
        assert!(o.train_report.total_epochs() > 0);
    }

    #[test]
    fn predicted_ir_same_order_as_conventional() {
        let o = outcome();
        let ratio = o.predicted_worst_ir_mv / o.conventional_worst_ir_mv;
        assert!(
            (0.3..3.0).contains(&ratio),
            "predicted {} vs conventional {} mV",
            o.predicted_worst_ir_mv,
            o.conventional_worst_ir_mv
        );
    }

    #[test]
    fn test_bench_is_perturbed_copy() {
        let o = outcome();
        assert_ne!(
            o.test_bench.network().total_load_current(),
            o.sized_bench.network().total_load_current()
        );
        assert_eq!(
            o.test_bench.segments().len(),
            o.sized_bench.segments().len()
        );
    }

    #[test]
    fn maps_buildable_from_outcome() {
        use ppdl_analysis::IrDropMap;
        let o = outcome();
        let conv = IrDropMap::from_report(o.test_bench.network(), &o.test_report, 12).unwrap();
        let pred = o.predicted_ir.to_map(&o.test_bench, 12).unwrap();
        assert_eq!(conv.resolution(), pred.resolution());
        assert!(conv.max_mv() > 0.0 && pred.max_mv() > 0.0);
    }
}

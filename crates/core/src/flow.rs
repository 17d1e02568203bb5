//! The end-to-end PowerPlanningDL flow (Fig. 2 / Fig. 6).
//!
//! Training phase: run the conventional iterative design once to obtain
//! golden widths, extract `(X, Y, Id, wᵢ)` quadruples, train the MLP.
//! Validation phase: perturb the design (§IV-D), predict widths with
//! the model, predict IR drop with Kirchhoff accumulation, and compare
//! quality and wall-clock time against a conventional analysis of the
//! same perturbed design — the Table III/IV/V measurements.
//!
//! Since the pipeline refactor this module is a facade over the stage
//! engine in [`crate::pipeline`]: [`PowerPlanningDl::run`] is exactly
//! the five-stage standard pipeline, and the `*_cached` variants thread
//! an [`ArtifactCache`] through so repeated runs skip sizing, training,
//! and ground-truth solves.

use std::time::Duration;

use ppdl_analysis::IrDropReport;
use ppdl_netlist::SyntheticBenchmark;

use crate::pipeline::{ArtifactCache, BenchmarkSourceStage, Pipeline, PipelineCtx, StageRecord};
use crate::{
    BackendKind, ConventionalConfig, PerturbationKind, PredictedIr, PredictorConfig, WidthMetrics,
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

    /// Replaces the conventional-baseline configuration.
    #[must_use]
    pub fn conventional(mut self, conventional: ConventionalConfig) -> Self {
        self.config.conventional = conventional;
        self
    }

    /// Sets the IR margin the conventional sizing targets, as a
    /// fraction of Vdd (shorthand for the common case of
    /// [`conventional`](Self::conventional)).
    #[must_use]
    pub fn ir_margin_fraction(mut self, fraction: f64) -> Self {
        self.config.conventional.ir_margin_fraction = fraction;
        self
    }

    /// Sets the per-iteration widening multiplier of the conventional
    /// sizing loop (shorthand for the common case of
    /// [`conventional`](Self::conventional)). Finer factors converge
    /// tighter margins at the price of more full-solve iterations —
    /// the trade the synthesis experiment measures.
    #[must_use]
    pub fn widen_factor(mut self, factor: f64) -> Self {
        self.config.conventional.widen_factor = factor;
        self
    }

    /// Selects the preconditioner for the conventional sizing's
    /// analysis solves (shorthand for the common case of
    /// [`conventional`](Self::conventional)).
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

    /// Sets what the perturbation touches.
    #[must_use]
    pub fn perturbation_kind(mut self, kind: PerturbationKind) -> Self {
        self.config.perturbation_kind = kind;
        self
    }

    /// Sets the perturbation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the segment-sampling stride of the timed inference path.
    #[must_use]
    pub fn inference_stride(mut self, stride: usize) -> Self {
        self.config.inference_stride = stride;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> DlFlowConfig {
        self.config
    }

    /// Finishes the builder, rejecting out-of-range knobs (γ outside
    /// `(0, 1)`, zero stride) instead of failing later inside the flow.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`].
    pub fn try_build(self) -> crate::Result<DlFlowConfig> {
        let c = self.config;
        if !(c.perturbation_gamma > 0.0 && c.perturbation_gamma < 1.0) {
            return Err(crate::CoreError::InvalidConfig {
                detail: format!("perturbation size {} outside (0, 1)", c.perturbation_gamma),
            });
        }
        if c.inference_stride == 0 {
            return Err(crate::CoreError::InvalidConfig {
                detail: "inference stride must be at least 1".into(),
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
/// use ppdl_core::{experiment, PowerPlanningDl};
/// use ppdl_netlist::IbmPgPreset;
///
/// let prepared = experiment::prepare(IbmPgPreset::Ibmpg2, 0.006, 3, 2.5).unwrap();
/// let config = experiment::flow_config(&prepared, true);
/// let outcome = PowerPlanningDl::new(config).run(&prepared.bench).unwrap();
/// assert!(outcome.width_metrics.r2 > 0.4);
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

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DlFlowConfig {
        &self.config
    }

    /// Runs the full train-then-validate flow on `bench`.
    ///
    /// # Errors
    ///
    /// Propagates conventional-sizing, training, prediction, and
    /// analysis errors.
    pub fn run(&self, bench: &SyntheticBenchmark) -> crate::Result<DlOutcome> {
        Ok(self.run_cached(bench, None)?.0)
    }

    /// [`run`](Self::run) with an artifact cache: stages whose inputs
    /// are unchanged decode their artifacts from disk instead of
    /// recomputing, and the returned [`StageRecord`]s say which did.
    ///
    /// # Errors
    ///
    /// Propagates stage execution errors. Cache decode errors never
    /// fail a run — the stage recomputes.
    pub fn run_cached(
        &self,
        bench: &SyntheticBenchmark,
        cache: Option<&ArtifactCache>,
    ) -> crate::Result<(DlOutcome, Vec<StageRecord>)> {
        self.run_source_cached(BenchmarkSourceStage::provided(bench.clone()), cache)
    }

    /// Runs the standard five-stage pipeline from an arbitrary
    /// benchmark source (e.g. a cacheable preset source that also
    /// skips generation + calibration on warm runs).
    ///
    /// # Errors
    ///
    /// Propagates stage execution errors.
    pub fn run_source_cached(
        &self,
        source: BenchmarkSourceStage,
        cache: Option<&ArtifactCache>,
    ) -> crate::Result<(DlOutcome, Vec<StageRecord>)> {
        let mut ctx = PipelineCtx::new(self.config.clone(), cache);
        Pipeline::standard(source).run(&mut ctx)?;
        let outcome = Self::outcome_from_ctx(&ctx)?;
        Ok((outcome, ctx.records))
    }

    /// Assembles the legacy outcome struct from a completed context.
    fn outcome_from_ctx(ctx: &PipelineCtx) -> crate::Result<DlOutcome> {
        let sizing = ctx.sizing()?;
        let trained = ctx.trained()?;
        let predicted = ctx.predicted()?;
        let validated = ctx.validated()?;

        let conventional_time = Duration::from_secs_f64(validated.conv_secs);
        let dl_time = Duration::from_secs_f64(predicted.dl_secs);
        let speedup = validated.conv_secs / predicted.dl_secs.max(f64::EPSILON);
        let conventional_worst_ir_mv = validated.report.worst_drop().map_or(0.0, |(_, d)| d) * 1e3;

        Ok(DlOutcome {
            golden_widths: sizing.golden_widths.clone(),
            predicted_widths: predicted.predicted_widths.clone(),
            width_metrics: validated.metrics,
            conventional_worst_ir_mv,
            predicted_worst_ir_mv: predicted.predicted_ir.worst_mv(),
            timing: Timing {
                conventional: conventional_time,
                dl: dl_time,
                speedup,
            },
            train_report: trained.summary.clone(),
            sized_bench: sizing.sized.clone(),
            test_bench: predicted.test_bench.clone(),
            test_report: validated.report.clone(),
            predicted_ir: predicted.predicted_ir.clone(),
            conventional_iterations: sizing.iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_netlist::IbmPgPreset;

    fn outcome() -> DlOutcome {
        let prepared = crate::experiment::prepare(IbmPgPreset::Ibmpg2, 0.008, 13, 2.5).unwrap();
        let config = crate::experiment::flow_config(&prepared, true);
        PowerPlanningDl::new(config).run(&prepared.bench).unwrap()
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

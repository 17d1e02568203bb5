//! Staged experiment pipeline with content-addressed artifact caching.
//!
//! The paper's whole argument is *train once, predict many*; this
//! module makes the reproduction actually work that way. Every
//! experiment runs (a prefix of) the same five-stage pipeline,
//!
//! ```text
//! BenchmarkSource → FeatureExtract → Train → Predict → Validate
//!      │                  │            │        │          │
//!  calibrated         golden widths  trained  predicted  solver
//!  loads (artifact)   (artifact)     weights  widths+IR  voltages
//!                                    (artifact) (artifact) (artifact)
//! ```
//!
//! where each stage is a [`Stage`] that reads its inputs from the
//! shared [`PipelineCtx`], writes one typed artifact slot, and
//! exposes a stable [`CacheKey`] derived from every input that affects
//! its output (preset, scale, seed, hyperparameters, and the upstream
//! stage's key). Give the pipeline an [`ArtifactCache`] and a repeated
//! run with identical configuration decodes every artifact from disk —
//! bitwise-identically, because artifacts round-trip through Rust's
//! shortest-round-trip float formatting — instead of re-running
//! benchmark generation, conventional sizing, model training, and
//! ground-truth solves. A [`RunManifest`] records what happened:
//! per-stage timings, cache hits, metrics, `git describe`, and the
//! thread count.
//!
//! [`PowerPlanningDl::run`](crate::PowerPlanningDl::run) is the one
//! driver of all five stages. Experiments that need only the train
//! prefix (source → size → train) call [`run_stage`] stage by stage.
//!
//! The stage names map onto the paper as follows: `BenchmarkSource`
//! wraps generation plus
//! [`calibrate_to_worst_ir`](crate::calibrate_to_worst_ir);
//! `FeatureExtract` wraps the conventional sizing loop that
//! manufactures the golden labels the features are extracted against
//! (§IV-B); `Train` wraps [`BackendModel::train`]; `Predict` wraps
//! the perturb → width-inference → Kirchhoff-IR path (§IV-D,
//! Algorithm 2); `Validate` wraps the conventional ground-truth
//! analysis and the quality metrics.

mod cache;
mod manifest;
mod stages;

pub use cache::{ArtifactCache, CacheKey, CacheStats, StableHasher};
pub use manifest::{json_number, json_string, RunManifest, StageRecord};
pub use stages::{
    BenchmarkSourceStage, FeatureExtractStage, PredictStage, TrainStage, ValidateStage,
};

use std::time::Instant;

use ppdl_netlist::SyntheticBenchmark;

use crate::{BackendModel, DlFlowConfig, PredictedIr, TrainSummary, WidthMetrics};
use ppdl_analysis::IrDropReport;

/// The benchmark-source artifact slot: a calibrated benchmark plus the
/// margin the conventional flow should target.
#[derive(Debug, Clone)]
pub struct BenchSlot {
    /// The calibrated benchmark.
    pub bench: SyntheticBenchmark,
    /// IR margin as a fraction of Vdd.
    pub margin_fraction: f64,
    /// The margin in volts (the Table III target for a calibrated
    /// source).
    pub target_worst_ir: f64,
    /// Total load-scaling factor calibration applied (1.0 for an
    /// uncalibrated source).
    pub calibration_factor: f64,
}

/// The feature-extraction artifact slot: the conventionally sized
/// design and its golden widths (the training labels).
#[derive(Debug, Clone)]
pub struct SizingSlot {
    /// The sized benchmark (training substrate).
    pub sized: SyntheticBenchmark,
    /// Converged per-strap widths — the golden labels.
    pub golden_widths: Vec<f64>,
    /// Design-loop iterations the sizing needed.
    pub iterations: usize,
    /// Final worst-case IR drop (volts).
    pub worst_ir: f64,
    /// Seconds spent in power-grid analysis during sizing.
    pub analysis_secs: f64,
    /// Seconds of the final single analysis solve.
    pub single_secs: f64,
}

/// The train artifact slot: the fitted predictor and its report.
#[derive(Debug, Clone)]
pub struct TrainSlot {
    /// The trained width surrogate, of whichever backend the config
    /// selected.
    pub predictor: BackendModel,
    /// Per-direction training reports (spatial backends report in the
    /// `vertical` slot only).
    pub summary: TrainSummary,
}

/// The predict artifact slot: the perturbed test design and the DL
/// path's outputs on it.
#[derive(Debug, Clone)]
pub struct PredictSlot {
    /// The perturbed test benchmark (§IV-D).
    pub test_bench: SyntheticBenchmark,
    /// DL-predicted per-strap widths.
    pub predicted_widths: Vec<f64>,
    /// Kirchhoff IR-drop estimate.
    pub predicted_ir: PredictedIr,
    /// Seconds the width-inference + IR-prediction path took when it
    /// actually executed (restored from the artifact on a hit, so the
    /// Table IV numbers survive caching).
    pub dl_secs: f64,
}

/// The validate artifact slot: ground-truth analysis and metrics.
#[derive(Debug, Clone)]
pub struct ValidateSlot {
    /// Conventional analysis report of the test design.
    pub report: IrDropReport,
    /// Seconds the ground-truth solve took when it executed.
    pub conv_secs: f64,
    /// Width-prediction quality on the test design.
    pub metrics: WidthMetrics,
}

/// Shared state threaded through the stages: configuration in, one
/// typed artifact slot per stage out.
#[derive(Debug, Clone)]
pub struct PipelineCtx<'a> {
    /// The flow configuration (the bench-source stage may override the
    /// conventional margin with the preset's Table III target).
    pub config: DlFlowConfig,
    /// Artifact cache, if caching is enabled.
    pub cache: Option<&'a ArtifactCache>,
    /// Rolling key: each stage chains its own key onto its
    /// predecessor's, so downstream keys change whenever any upstream
    /// input does.
    pub chain: Option<CacheKey>,
    /// Benchmark-source output.
    pub bench: Option<BenchSlot>,
    /// Feature-extraction (conventional sizing) output.
    pub sizing: Option<SizingSlot>,
    /// Training output.
    pub trained: Option<TrainSlot>,
    /// Prediction output.
    pub predicted: Option<PredictSlot>,
    /// Validation output.
    pub validated: Option<ValidateSlot>,
    /// What happened to each stage, in execution order.
    pub records: Vec<StageRecord>,
}

impl<'a> PipelineCtx<'a> {
    /// Creates an empty context.
    #[must_use]
    pub fn new(config: DlFlowConfig, cache: Option<&'a ArtifactCache>) -> Self {
        Self {
            config,
            cache,
            chain: None,
            bench: None,
            sizing: None,
            trained: None,
            predicted: None,
            validated: None,
            records: Vec::new(),
        }
    }

    fn missing(slot: &str) -> crate::CoreError {
        crate::CoreError::InvalidConfig {
            detail: format!("pipeline stage ordering bug: {slot} slot not populated"),
        }
    }

    /// The benchmark slot, or a typed error if the source stage has not
    /// run.
    pub fn bench(&self) -> crate::Result<&BenchSlot> {
        self.bench.as_ref().ok_or_else(|| Self::missing("bench"))
    }

    /// The sizing slot.
    pub fn sizing(&self) -> crate::Result<&SizingSlot> {
        self.sizing.as_ref().ok_or_else(|| Self::missing("sizing"))
    }

    /// The train slot.
    pub fn trained(&self) -> crate::Result<&TrainSlot> {
        self.trained.as_ref().ok_or_else(|| Self::missing("train"))
    }

    /// The predict slot.
    pub fn predicted(&self) -> crate::Result<&PredictSlot> {
        self.predicted
            .as_ref()
            .ok_or_else(|| Self::missing("predict"))
    }

    /// The validate slot.
    pub fn validated(&self) -> crate::Result<&ValidateSlot> {
        self.validated
            .as_ref()
            .ok_or_else(|| Self::missing("validate"))
    }
}

/// One experiment stage: computes a cache key from its inputs, and
/// either decodes a cached artifact into its slot or executes and
/// encodes the slot for storage.
pub trait Stage {
    /// Stable stage name (used in manifests and artifact file names).
    fn name(&self) -> &'static str;

    /// The content-address of this stage's output given the context so
    /// far, or `None` when the context lacks an input the key needs
    /// (no upstream key yet); such a stage always executes.
    fn cache_key(&self, ctx: &PipelineCtx) -> Option<CacheKey>;

    /// Decodes a cached artifact into the context slot. Errors mean
    /// "artifact unusable, recompute" — they are counted as misses,
    /// not failures.
    fn decode(&self, ctx: &mut PipelineCtx, text: &str) -> crate::Result<()>;

    /// Computes the stage output from the context.
    fn execute(&self, ctx: &mut PipelineCtx) -> crate::Result<()>;

    /// Encodes the slot for cache storage (`None` = don't store).
    fn encode(&self, ctx: &PipelineCtx) -> Option<String>;
}

/// Runs a single stage against a context: key → cache probe → decode
/// or execute → store → record.
/// [`PowerPlanningDl::run`](crate::PowerPlanningDl::run) runs all five
/// stages through it; experiments that need only a prefix (source →
/// size → train) call it stage by stage.
///
/// # Errors
///
/// Propagates the stage's execution error. Cache *decode* errors never
/// fail a run — the stage recomputes instead.
pub fn run_stage(stage: &dyn Stage, ctx: &mut PipelineCtx) -> crate::Result<()> {
    // The span wraps the whole probe/decode/execute/store sequence, so
    // solver/NN spans opened inside a stage nest under
    // `pipeline/<stage>/…` in the telemetry snapshot.
    let _stage_span = ppdl_obs::span(&format!("pipeline/{}", stage.name()));
    let key = stage.cache_key(ctx);
    // ppdl-lint: allow(determinism/wall-clock) -- measures pipeline wall time for the manifest; artifacts and cache keys never depend on it
    let t0 = Instant::now();
    let mut hit = false;
    if let (Some(cache), Some(key)) = (ctx.cache, key) {
        if let Some(text) = cache.load(stage.name(), key) {
            hit = stage.decode(ctx, &text).is_ok();
        }
        if hit {
            cache.note_hit(stage.name());
        } else {
            cache.note_miss(stage.name());
        }
    }
    if !hit {
        stage.execute(ctx)?;
        if let (Some(cache), Some(key)) = (ctx.cache, key) {
            if let Some(text) = stage.encode(ctx) {
                // Failing to persist is not a pipeline failure; the
                // next run simply recomputes.
                let _ = cache.store(stage.name(), key, &text);
            }
        }
    }
    ppdl_obs::counter_add("pipeline/stages", 1);
    if hit {
        ppdl_obs::counter_add("pipeline/cache_hits", 1);
    }
    ctx.chain = key.or(ctx.chain);
    ctx.records.push(StageRecord {
        name: stage.name().to_string(),
        key,
        cache_hit: hit,
        wall: t0.elapsed(),
    });
    Ok(())
}

//! The redesigned prediction API: train once, predict many.
//!
//! The paper's economics only work if a trained model is an *asset*:
//! the conventional sizing loop and MLP training run once, and every
//! subsequent ECO question ("what widths / worst IR drop if these loads
//! change?") is answered by inference alone. This module is the single
//! inference entry point behind that idea:
//!
//! * [`TrainedBundle`] — the persisted asset: the trained
//!   [`BackendModel`] (of any backend kind — MLP rows, CNN or
//!   encoder-decoder maps — models + fitted scalers), the calibrated
//!   base design recipe, and the golden widths, serialised as one
//!   versioned text artifact tagged with its backend and input spec.
//! * [`PredictRequest`] / [`PredictResponse`] — the typed query pair
//!   shared by the pipeline's Predict stage, the `ppdl serve` CLI, and
//!   the batched `ppdl_service` registry sessions.
//! * [`predict`] — the one function that turns a request into a
//!   response; everything else routes through it.

use std::path::Path;
use std::time::Instant;

use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};

use crate::pipeline::{
    run_stage, ArtifactCache, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx, StableHasher,
    TrainStage,
};
use crate::{
    BackendKind, BackendModel, CoreError, DlFlowConfig, InputSpec, IrPredictor, Perturbation,
    PerturbationKind, PredictedIr,
};

// ---------------------------------------------------------------------
// Wire tags
// ---------------------------------------------------------------------

/// The wire tag of a perturbation kind (`voltages` / `loads` / `both`),
/// used by the bundle format and the service's NDJSON protocol.
#[must_use]
pub fn kind_tag(kind: PerturbationKind) -> &'static str {
    match kind {
        PerturbationKind::NodeVoltages => "voltages",
        PerturbationKind::CurrentWorkloads => "loads",
        PerturbationKind::Both => "both",
    }
}

/// Parses a [`kind_tag`] back into a [`PerturbationKind`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an unknown tag.
pub fn parse_kind(tag: &str) -> crate::Result<PerturbationKind> {
    match tag {
        "voltages" => Ok(PerturbationKind::NodeVoltages),
        "loads" => Ok(PerturbationKind::CurrentWorkloads),
        "both" => Ok(PerturbationKind::Both),
        other => Err(CoreError::InvalidConfig {
            detail: format!("unknown perturbation kind '{other}' (voltages|loads|both)"),
        }),
    }
}

// ---------------------------------------------------------------------
// Request / response
// ---------------------------------------------------------------------

/// One ECO query against a bundle's base design: an optional §IV-D
/// perturbation plus explicit per-load current overrides, answered by
/// width inference and Kirchhoff IR estimation — never a grid solve.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Caller-chosen identifier, echoed verbatim in the response so
    /// batched replies can be matched to their queries.
    pub id: String,
    /// Optional perturbation of the base design.
    pub perturbation: Option<Perturbation>,
    /// `(load index, amps)` overrides applied after the perturbation.
    pub load_overrides: Vec<(usize, f64)>,
    /// Explicit per-strap widths to evaluate instead of the model's
    /// inference (one entry per strap). When set, [`predict`] skips the
    /// width network and scores exactly these widths with the Kirchhoff
    /// IR estimator — the synthesis optimizer's cost-oracle mode.
    pub width_overrides: Option<Vec<f64>>,
    /// Segment-sampling stride override; `None` uses the bundle's
    /// configured stride.
    pub stride: Option<usize>,
}

impl PredictRequest {
    /// An identity request: predict on the unmodified base design.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            perturbation: None,
            load_overrides: Vec::new(),
            width_overrides: None,
            stride: None,
        }
    }

    /// Adds a perturbation.
    #[must_use]
    pub fn with_perturbation(mut self, perturbation: Perturbation) -> Self {
        self.perturbation = Some(perturbation);
        self
    }

    /// Adds one `(load index, amps)` override.
    #[must_use]
    pub fn with_load_override(mut self, index: usize, amps: f64) -> Self {
        self.load_overrides.push((index, amps));
        self
    }

    /// Overrides the inference stride.
    #[must_use]
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = Some(stride);
        self
    }

    /// Asks for these exact per-strap widths to be scored instead of
    /// running width inference (the synthesis oracle mode).
    #[must_use]
    pub fn with_widths(mut self, widths: Vec<f64>) -> Self {
        self.width_overrides = Some(widths);
        self
    }

    /// Validates the request's own fields (overrides finite and
    /// non-negative, stride non-zero when given).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the bad field.
    pub fn validate(&self) -> crate::Result<()> {
        for &(index, amps) in &self.load_overrides {
            if !(amps.is_finite() && amps >= 0.0) {
                return Err(CoreError::InvalidConfig {
                    detail: format!("load override ({index}, {amps}) must be finite and >= 0"),
                });
            }
        }
        if self.stride == Some(0) {
            return Err(CoreError::InvalidConfig {
                detail: "inference stride must be at least 1".into(),
            });
        }
        if let Some(widths) = &self.width_overrides {
            if widths.is_empty() {
                return Err(CoreError::InvalidConfig {
                    detail: "width overrides must name at least one strap".into(),
                });
            }
            for (i, &w) in widths.iter().enumerate() {
                if !(w.is_finite() && w > 0.0) {
                    return Err(CoreError::InvalidConfig {
                        detail: format!("width override [{i}] = {w} must be finite and > 0"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Materialises the test design this request describes: perturb a
    /// copy of `base`, then apply the explicit load overrides.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range override indices with
    /// [`CoreError::InvalidConfig`] and propagates netlist errors.
    pub fn apply(&self, base: &SyntheticBenchmark) -> crate::Result<SyntheticBenchmark> {
        let mut bench = match &self.perturbation {
            Some(p) => p.apply(base)?,
            None => base.clone(),
        };
        let n_loads = bench.network().current_loads().len();
        for &(index, amps) in &self.load_overrides {
            if index >= n_loads {
                return Err(CoreError::InvalidConfig {
                    detail: format!("load override index {index} out of range ({n_loads} loads)"),
                });
            }
            bench.set_load_current(index, amps)?;
        }
        if let Some(widths) = &self.width_overrides {
            // set_strap_widths enforces the one-entry-per-strap length
            // contract and re-derives every segment/via resistance.
            bench.set_strap_widths(widths)?;
        }
        Ok(bench)
    }

    /// Whether two requests ask the same question: every payload field
    /// compared, the `id` ignored — the equality the response cache
    /// verifies on a fingerprint hit, because a 64-bit
    /// [`fingerprint`](Self::fingerprint) can collide for distinct
    /// payloads. Floats compare by bit pattern (via `==` on finite
    /// values the validators admit), matching the fingerprint's own
    /// bit-level hashing.
    #[must_use]
    pub fn payload_eq(&self, other: &Self) -> bool {
        let perturbation_eq = match (&self.perturbation, &other.perturbation) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.gamma() == b.gamma() && a.kind() == b.kind() && a.seed() == b.seed()
            }
            _ => false,
        };
        perturbation_eq
            && self.load_overrides == other.load_overrides
            && self.width_overrides == other.width_overrides
            && self.stride == other.stride
    }

    /// A stable content fingerprint of the request *payload* (the `id`
    /// is excluded: two requests asking the same question share a
    /// fingerprint, which is what a response cache wants). Fingerprints
    /// are 64-bit hashes, so distinct payloads *can* collide — anything
    /// keyed by fingerprint must confirm with
    /// [`payload_eq`](Self::payload_eq) before trusting a hit.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new("predict-request");
        match &self.perturbation {
            Some(p) => {
                h.write_f64("gamma", p.gamma());
                h.write_str("kind", kind_tag(p.kind()));
                h.write_u64("perturbation_seed", p.seed());
            }
            None => h.write_str("perturbation", "none"),
        }
        h.write_u64("overrides", self.load_overrides.len() as u64);
        for &(index, amps) in &self.load_overrides {
            h.write_u64("index", index as u64);
            h.write_f64("amps", amps);
        }
        match &self.width_overrides {
            Some(widths) => {
                h.write_u64("widths", widths.len() as u64);
                for &w in widths {
                    h.write_f64("width", w);
                }
            }
            None => h.write_str("widths", "inferred"),
        }
        match self.stride {
            Some(s) => h.write_u64("stride", s as u64),
            None => h.write_str("stride", "default"),
        }
        h.finish().value()
    }
}

/// What a prediction query returns over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// The request's `id`, echoed.
    pub id: String,
    /// DL-predicted per-strap widths, in µm.
    pub widths: Vec<f64>,
    /// Kirchhoff-estimated worst-case IR drop, in mV.
    pub worst_ir_mv: f64,
    /// Milliseconds the inference path took.
    pub dl_ms: f64,
}

/// A full prediction: the wire response plus the in-process artifacts
/// (test design, per-node IR estimate) the pipeline stages consume.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The wire-friendly summary.
    pub response: PredictResponse,
    /// The materialised test design the request described.
    pub test_bench: SyntheticBenchmark,
    /// The full Kirchhoff IR estimate (Algorithm 2).
    pub ir: PredictedIr,
    /// Seconds the inference path took (the response carries the same
    /// figure in milliseconds).
    pub dl_secs: f64,
}

/// The one inference entry point: answers `request` against `base`
/// with `predictor` — perturb/override, infer strap widths, estimate
/// IR drop by Kirchhoff accumulation. The pipeline's Predict stage,
/// the `ppdl serve` CLI, and the batched service all call this.
///
/// `default_stride` is used when the request does not override the
/// segment-sampling stride.
///
/// # Errors
///
/// Propagates request validation, netlist, and inference errors.
pub fn predict(
    predictor: &BackendModel,
    base: &SyntheticBenchmark,
    request: &PredictRequest,
    default_stride: usize,
) -> crate::Result<Prediction> {
    let _span = ppdl_obs::span("core/predict");
    request.validate()?;
    let test_bench = {
        let _span = ppdl_obs::span("apply");
        request.apply(base)?
    };
    let stride = request.stride.unwrap_or(default_stride).max(1);
    // ppdl-lint: allow(determinism/wall-clock) -- reports dl_ms latency alongside the prediction; the widths themselves are deterministic
    let t0 = Instant::now();
    // Width overrides short-circuit inference: the request names the
    // exact widths to score (already applied to `test_bench` by
    // `apply`), so only the Kirchhoff IR estimate runs — the cheap
    // cost-oracle path the synthesis optimizer hammers.
    let widths = {
        let _span = ppdl_obs::span("widths");
        match &request.width_overrides {
            Some(w) => w.clone(),
            None => predictor.predict_strap_widths_sampled(&test_bench, stride)?,
        }
    };
    let ir = {
        let _span = ppdl_obs::span("kirchhoff");
        IrPredictor::new().predict(&test_bench, &widths)?
    };
    let dl_secs = t0.elapsed().as_secs_f64();
    Ok(Prediction {
        response: PredictResponse {
            id: request.id.clone(),
            widths,
            worst_ir_mv: ir.worst_mv(),
            dl_ms: dl_secs * 1e3,
        },
        test_bench,
        ir,
        dl_secs,
    })
}

// ---------------------------------------------------------------------
// TrainedBundle
// ---------------------------------------------------------------------

/// Provenance of a trained bundle: everything needed to regenerate the
/// calibrated base design deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleMeta {
    /// The IBM PG preset the model was trained on.
    pub preset: IbmPgPreset,
    /// Fraction of the published Table II size.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// IR margin (fraction of Vdd) the conventional sizing targeted.
    pub margin_fraction: f64,
    /// Default segment-sampling stride for inference.
    pub inference_stride: usize,
}

impl BundleMeta {
    /// A short human-readable provenance label
    /// (`preset@scale/seed/stride`), used by the serving registry's
    /// stats and log lines to tell resident bundles apart.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}@{}/s{}/k{}",
            self.preset.name(),
            self.scale,
            self.seed,
            self.inference_stride
        )
    }
}

/// The persisted prediction asset: a trained [`BackendModel`] (with
/// its fitted scalers), the provenance [`BundleMeta`], the calibrated
/// load currents, and the golden (conventionally sized) strap widths
/// of the base design.
///
/// The v2 text format tags the bundle with its [`BackendKind`] and
/// [`InputSpec`]; v1 bundles (which predate backend selection) still
/// load, as the MLP backend they always were.
///
/// A bundle is self-contained: [`instantiate_base`] regenerates the
/// exact sized benchmark the model was trained on — bit for bit,
/// because generation is deterministic in `(preset, scale, seed)` and
/// loads/widths round-trip through shortest-representation floats — so
/// a service process answers ECO queries without ever re-running the
/// conventional flow.
///
/// [`instantiate_base`]: TrainedBundle::instantiate_base
#[derive(Debug, Clone)]
pub struct TrainedBundle {
    /// The trained width surrogate, of any backend kind.
    pub predictor: BackendModel,
    /// Provenance: how to regenerate the base design.
    pub meta: BundleMeta,
    /// Calibrated load currents of the base design, in amps.
    pub loads: Vec<f64>,
    /// Golden per-strap widths from the conventional sizing, in µm.
    pub golden_widths: Vec<f64>,
}

impl TrainedBundle {
    /// The version header the encoder writes.
    pub const HEADER: &'static str = "ppdl-bundle v2";
    /// The legacy pre-backend header the loader still accepts (always
    /// an MLP body).
    pub const HEADER_V1: &'static str = "ppdl-bundle v1";

    /// The bundle's backend kind (derived from the model).
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.predictor.kind()
    }

    /// The input geometry the bundle's model consumes.
    #[must_use]
    pub fn input_spec(&self) -> InputSpec {
        self.predictor.input_spec()
    }

    /// Trains a bundle by running the pipeline's train prefix
    /// (benchmark source → conventional sizing → backend training) for the
    /// standard experiment recipe, optionally against an artifact cache
    /// so a repeated training run decodes everything from disk.
    ///
    /// # Errors
    ///
    /// Propagates generation, calibration, sizing, and training errors.
    pub fn train(
        preset: IbmPgPreset,
        scale: f64,
        seed: u64,
        config: DlFlowConfig,
        cache: Option<&ArtifactCache>,
    ) -> crate::Result<Self> {
        let mut ctx = PipelineCtx::new(config, cache);
        run_stage(&BenchmarkSourceStage::preset(preset, scale, seed), &mut ctx)?;
        run_stage(&FeatureExtractStage, &mut ctx)?;
        run_stage(&TrainStage, &mut ctx)?;
        let loads: Vec<f64> = ctx
            .bench()?
            .bench
            .network()
            .current_loads()
            .iter()
            .map(|l| l.amps)
            .collect();
        let bundle = Self {
            predictor: ctx.trained()?.predictor.clone(),
            meta: BundleMeta {
                preset,
                scale,
                seed,
                margin_fraction: ctx.bench()?.margin_fraction,
                inference_stride: ctx.config.inference_stride,
            },
            loads,
            golden_widths: ctx.sizing()?.golden_widths.clone(),
        };
        bundle.validate()?;
        Ok(bundle)
    }

    /// Validates internal consistency: model shapes against scalers and
    /// feature set, plus sane metadata.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BundleMismatch`].
    pub fn validate(&self) -> crate::Result<()> {
        self.predictor.validate_shapes()?;
        if !(self.meta.scale > 0.0 && self.meta.scale.is_finite()) {
            return Err(CoreError::BundleMismatch {
                detail: format!("scale {} must be positive and finite", self.meta.scale),
            });
        }
        if self.meta.inference_stride == 0 {
            return Err(CoreError::BundleMismatch {
                detail: "inference stride must be at least 1".into(),
            });
        }
        if self.golden_widths.is_empty() {
            return Err(CoreError::BundleMismatch {
                detail: "bundle carries no golden widths".into(),
            });
        }
        Ok(())
    }

    /// Regenerates the sized base design the bundle was trained on:
    /// deterministic grid generation, then the calibrated loads and
    /// golden widths are restored — the same recipe the pipeline's
    /// warm-cache path uses, so the result is bit-identical to the
    /// original sized benchmark. The Kirchhoff estimate's plan is built
    /// before it returns ([`IrPredictor::prepare`]), so every request
    /// against the base, whose test design is a clone, finds it ready.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BundleMismatch`] when the stored vectors do
    /// not fit the regenerated grid (e.g. a bundle from a different
    /// build of the generator).
    pub fn instantiate_base(&self) -> crate::Result<SyntheticBenchmark> {
        let mut bench =
            SyntheticBenchmark::from_preset(self.meta.preset, self.meta.scale, self.meta.seed)?;
        let n_loads = bench.network().current_loads().len();
        if n_loads != self.loads.len() {
            return Err(CoreError::BundleMismatch {
                detail: format!(
                    "bundle stores {} load currents for a grid with {n_loads}",
                    self.loads.len()
                ),
            });
        }
        if bench.straps().len() != self.golden_widths.len() {
            return Err(CoreError::BundleMismatch {
                detail: format!(
                    "bundle stores {} golden widths for a grid with {} straps",
                    self.golden_widths.len(),
                    bench.straps().len()
                ),
            });
        }
        bench.set_load_currents(&self.loads)?;
        bench.set_strap_widths(&self.golden_widths)?;
        IrPredictor::prepare(&bench)?;
        Ok(bench)
    }

    /// Answers one request against the bundle's base design, using the
    /// bundle's configured stride as the default.
    ///
    /// For a stream of requests, instantiate the base once and call
    /// [`predict`] directly (or serve it from a
    /// `ppdl_service::ModelRegistry` session, which also batches) —
    /// this convenience regenerates the base per call.
    ///
    /// # Errors
    ///
    /// Propagates [`instantiate_base`](Self::instantiate_base) and
    /// [`predict`] errors.
    pub fn predict(&self, request: &PredictRequest) -> crate::Result<Prediction> {
        let base = self.instantiate_base()?;
        predict(&self.predictor, &base, request, self.meta.inference_stride)
    }

    /// Serialises the bundle as one versioned text artifact.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let join = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut out = String::new();
        let _ = writeln!(out, "{}", Self::HEADER);
        let _ = writeln!(out, "backend {}", self.backend().tag());
        let _ = writeln!(out, "input_spec {}", self.input_spec().encode());
        let _ = writeln!(out, "preset {}", self.meta.preset.name());
        let _ = writeln!(out, "scale {}", self.meta.scale);
        let _ = writeln!(out, "seed {}", self.meta.seed);
        let _ = writeln!(out, "margin_fraction {}", self.meta.margin_fraction);
        let _ = writeln!(out, "inference_stride {}", self.meta.inference_stride);
        let _ = writeln!(out, "loads {}", self.loads.len());
        let _ = writeln!(out, "{}", join(&self.loads));
        let _ = writeln!(out, "golden_widths {}", self.golden_widths.len());
        let _ = writeln!(out, "{}", join(&self.golden_widths));
        out.push_str(&self.predictor.to_text());
        out.push_str("end-bundle\n");
        out
    }

    /// Reconstructs a bundle from [`to_text`](Self::to_text) output,
    /// validating the version header, the backend/input-spec tags, and
    /// every shape invariant before returning. Legacy
    /// [`HEADER_V1`](Self::HEADER_V1) bundles (which predate backend
    /// tagging) load as the MLP backend.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BundleSchema`] — reporting what was found
    /// versus what was expected — for an unknown version, backend tag,
    /// or input spec; [`CoreError::BundleMismatch`] for truncation or
    /// inconsistent shapes; and [`CoreError::InvalidConfig`] (via the
    /// model codecs) for malformed bodies.
    pub fn from_text(text: &str) -> crate::Result<Self> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| mismatch("empty bundle file"))?
            .trim();
        let legacy = header == Self::HEADER_V1;
        if !legacy && header != Self::HEADER {
            return Err(CoreError::BundleSchema {
                field: "version".into(),
                found: header.to_string(),
                expected: format!("{} or {}", Self::HEADER_V1, Self::HEADER),
            });
        }
        let declared = if legacy {
            None
        } else {
            let tag = tagged(&mut lines, "backend")?;
            let kind = BackendKind::parse(tag).map_err(|_| CoreError::BundleSchema {
                field: "backend".into(),
                found: tag.to_string(),
                expected: "mlp, cnn, or encdec".into(),
            })?;
            let spec_text = tagged(&mut lines, "input_spec")?;
            let spec = InputSpec::parse(spec_text).map_err(|_| CoreError::BundleSchema {
                field: "input_spec".into(),
                found: spec_text.to_string(),
                expected: "'rows <n>' or 'maps <c> <h> <w>'".into(),
            })?;
            Some((kind, spec))
        };
        let preset: IbmPgPreset = tagged(&mut lines, "preset")?
            .parse()
            .map_err(|e| mismatch(format!("bad preset: {e}")))?;
        let scale: f64 = tagged(&mut lines, "scale")?
            .parse()
            .map_err(|_| mismatch("bad scale"))?;
        let seed: u64 = tagged(&mut lines, "seed")?
            .parse()
            .map_err(|_| mismatch("bad seed"))?;
        let margin_fraction: f64 = tagged(&mut lines, "margin_fraction")?
            .parse()
            .map_err(|_| mismatch("bad margin_fraction"))?;
        let inference_stride: usize = tagged(&mut lines, "inference_stride")?
            .parse()
            .map_err(|_| mismatch("bad inference_stride"))?;
        let loads = vec_field(&mut lines, "loads")?;
        let golden_widths = vec_field(&mut lines, "golden_widths")?;
        let body_start = ["ppdl-width-predictor v1", "ppdl-spatial v1"]
            .iter()
            .filter_map(|h| text.find(h))
            .min()
            .ok_or_else(|| mismatch("bundle missing predictor body"))?;
        if !text.trim_end().ends_with("end-bundle") {
            return Err(mismatch("bundle missing end-bundle trailer"));
        }
        let predictor = BackendModel::from_text(&text[body_start..])?;
        match declared {
            Some((kind, spec)) => {
                if predictor.kind() != kind {
                    return Err(CoreError::BundleSchema {
                        field: "backend".into(),
                        found: predictor.kind().tag().to_string(),
                        expected: kind.tag().to_string(),
                    });
                }
                if predictor.input_spec() != spec {
                    return Err(CoreError::BundleSchema {
                        field: "input_spec".into(),
                        found: predictor.input_spec().to_string(),
                        expected: spec.to_string(),
                    });
                }
            }
            // v1 bundles predate spatial backends; a spatial body under
            // a v1 header is a hand-edited or corrupted file.
            None => {
                if predictor.kind() != BackendKind::Mlp {
                    return Err(CoreError::BundleSchema {
                        field: "backend".into(),
                        found: predictor.kind().tag().to_string(),
                        expected: BackendKind::Mlp.tag().to_string(),
                    });
                }
            }
        }
        let bundle = Self {
            predictor,
            meta: BundleMeta {
                preset,
                scale,
                seed,
                margin_fraction,
                inference_stride,
            },
            loads,
            golden_widths,
        };
        bundle.validate()?;
        Ok(bundle)
    }

    /// Writes the bundle to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> crate::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_text()).map_err(|e| CoreError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }

    /// Reads and validates a bundle from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failure and
    /// [`from_text`](Self::from_text) errors on bad content.
    pub fn load(path: impl AsRef<Path>) -> crate::Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| CoreError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::from_text(&text)
    }
}

fn mismatch(detail: impl Into<String>) -> CoreError {
    CoreError::BundleMismatch {
        detail: detail.into(),
    }
}

fn tagged<'a>(lines: &mut std::str::Lines<'a>, tag: &str) -> crate::Result<&'a str> {
    let line = lines
        .next()
        .ok_or_else(|| mismatch(format!("truncated bundle, wanted {tag}")))?;
    line.trim_end()
        .strip_prefix(tag)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| mismatch(format!("expected '{tag} <value>', found '{line}'")))
}

fn vec_field(lines: &mut std::str::Lines<'_>, tag: &str) -> crate::Result<Vec<f64>> {
    let n: usize = tagged(lines, tag)?
        .parse()
        .map_err(|_| mismatch(format!("bad {tag} count")))?;
    let row = lines
        .next()
        .ok_or_else(|| mismatch(format!("truncated bundle, wanted {tag} values")))?;
    let values: Vec<f64> = row
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| mismatch(format!("bad float '{t}' in {tag}")))
        })
        .collect::<crate::Result<_>>()?;
    if values.len() != n {
        return Err(mismatch(format!(
            "{tag} declared {n} values, found {}",
            values.len()
        )));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_bundle() -> TrainedBundle {
        TrainedBundle::train(IbmPgPreset::Ibmpg2, 0.006, 7, DlFlowConfig::fast(), None).unwrap()
    }

    #[test]
    fn bundle_round_trips_bitwise() {
        let bundle = fast_bundle();
        let text = bundle.to_text();
        let back = TrainedBundle::from_text(&text).unwrap();
        assert_eq!(back.to_text(), text, "re-encode must be bit-identical");
        assert_eq!(back.meta, bundle.meta);
        assert_eq!(back.loads, bundle.loads);
        assert_eq!(back.golden_widths, bundle.golden_widths);
    }

    #[test]
    fn base_instantiation_matches_training_substrate() {
        let bundle = fast_bundle();
        let base = bundle.instantiate_base().unwrap();
        assert_eq!(base.strap_widths(), bundle.golden_widths);
        let loads: Vec<f64> = base
            .network()
            .current_loads()
            .iter()
            .map(|l| l.amps)
            .collect();
        assert_eq!(loads, bundle.loads);
    }

    #[test]
    fn load_rejects_version_and_shape_mismatch() {
        let bundle = fast_bundle();
        let text = bundle.to_text();
        // Shrinking the declared feature set makes the 3-input models
        // inconsistent with it: a typed mismatch, not a panic.
        let narrowed = text.replace("feature_set combined", "feature_set x");
        let err = TrainedBundle::from_text(&narrowed).unwrap_err();
        assert_eq!(err.code(), "core/bundle_mismatch");
        // Truncation fails typed too.
        assert!(TrainedBundle::from_text(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn schema_error_reports_version_found_vs_expected() {
        let text = fast_bundle()
            .to_text()
            .replace("ppdl-bundle v2", "ppdl-bundle v9");
        match TrainedBundle::from_text(&text).unwrap_err() {
            CoreError::BundleSchema {
                field,
                found,
                expected,
            } => {
                assert_eq!(field, "version");
                assert_eq!(found, "ppdl-bundle v9");
                assert!(expected.contains("ppdl-bundle v1") && expected.contains("ppdl-bundle v2"));
            }
            other => panic!("wanted BundleSchema, got {other:?}"),
        }
    }

    #[test]
    fn schema_error_reports_backend_found_vs_expected() {
        let bundle = fast_bundle();
        // An unknown backend tag names the accepted set.
        let unknown = bundle
            .to_text()
            .replace("backend mlp", "backend transformer");
        match TrainedBundle::from_text(&unknown).unwrap_err() {
            CoreError::BundleSchema {
                field,
                found,
                expected,
            } => {
                assert_eq!(field, "backend");
                assert_eq!(found, "transformer");
                assert!(expected.contains("mlp"));
            }
            other => panic!("wanted BundleSchema, got {other:?}"),
        }
        // A known tag that disagrees with the model body reports both
        // sides (body says mlp, header says cnn).
        let lied = bundle.to_text().replace("backend mlp", "backend cnn");
        let lied = lied.replace("input_spec rows 3", "input_spec maps 2 8 8");
        match TrainedBundle::from_text(&lied).unwrap_err() {
            CoreError::BundleSchema {
                field,
                found,
                expected,
            } => {
                assert_eq!(field, "backend");
                assert_eq!(found, "mlp");
                assert_eq!(expected, "cnn");
            }
            other => panic!("wanted BundleSchema, got {other:?}"),
        }
    }

    #[test]
    fn schema_error_reports_input_spec_found_vs_expected() {
        let bundle = fast_bundle();
        // Unparseable spec text.
        let garbled = bundle
            .to_text()
            .replace("input_spec rows 3", "input_spec cols 3");
        match TrainedBundle::from_text(&garbled).unwrap_err() {
            CoreError::BundleSchema {
                field,
                found,
                expected,
            } => {
                assert_eq!(field, "input_spec");
                assert_eq!(found, "cols 3");
                assert!(expected.contains("rows") && expected.contains("maps"));
            }
            other => panic!("wanted BundleSchema, got {other:?}"),
        }
        // A well-formed spec that disagrees with the model body reports
        // found (the body's real geometry) vs expected (the declaration).
        let lied = bundle
            .to_text()
            .replace("input_spec rows 3", "input_spec rows 7");
        match TrainedBundle::from_text(&lied).unwrap_err() {
            CoreError::BundleSchema {
                field,
                found,
                expected,
            } => {
                assert_eq!(field, "input_spec");
                assert_eq!(found, "rows(3)");
                assert_eq!(expected, "rows(7)");
            }
            other => panic!("wanted BundleSchema, got {other:?}"),
        }
    }

    #[test]
    fn v1_text_loads_as_mlp_and_predicts_identically() {
        let bundle = fast_bundle();
        assert_eq!(bundle.backend(), BackendKind::Mlp);
        // Derive the legacy v1 encoding: old header, no backend or
        // input_spec lines.
        let v2 = bundle.to_text();
        let v1 = v2
            .replace("ppdl-bundle v2\n", "ppdl-bundle v1\n")
            .replace("backend mlp\n", "")
            .replace("input_spec rows 3\n", "");
        let legacy = TrainedBundle::from_text(&v1).unwrap();
        assert_eq!(legacy.backend(), BackendKind::Mlp);
        // Re-encoding a legacy bundle upgrades it to v2, bit-identically
        // to the original v2 encoding.
        assert_eq!(legacy.to_text(), v2);
        let p = Perturbation::new(0.1, PerturbationKind::Both, 5).unwrap();
        let request = PredictRequest::new("compat").with_perturbation(p);
        let a = bundle.predict(&request).unwrap();
        let b = legacy.predict(&request).unwrap();
        assert_eq!(a.response.widths, b.response.widths);
        assert_eq!(a.response.worst_ir_mv, b.response.worst_ir_mv);
        // A spatial body under a v1 header is rejected as malformed.
        let forged = v1.replace("ppdl-width-predictor v1", "ppdl-spatial v1");
        assert!(TrainedBundle::from_text(&forged).is_err());
    }

    #[test]
    fn bundle_predict_matches_direct_inference() {
        let bundle = fast_bundle();
        let base = bundle.instantiate_base().unwrap();
        let p = Perturbation::new(0.1, PerturbationKind::Both, 5).unwrap();
        let request = PredictRequest::new("q").with_perturbation(p);
        let via_bundle = bundle.predict(&request).unwrap();
        let direct = predict(
            &bundle.predictor,
            &base,
            &request,
            bundle.meta.inference_stride,
        )
        .unwrap();
        assert_eq!(via_bundle.response.widths, direct.response.widths);
        assert_eq!(via_bundle.response.worst_ir_mv, direct.response.worst_ir_mv);
        assert_eq!(via_bundle.ir.node_drops, direct.ir.node_drops);
    }

    #[test]
    fn request_apply_and_validation() {
        let bundle = fast_bundle();
        let base = bundle.instantiate_base().unwrap();
        let n_loads = base.network().current_loads().len();
        let modified = PredictRequest::new("eco")
            .with_load_override(0, 123e-6)
            .apply(&base)
            .unwrap();
        assert_eq!(modified.network().current_loads()[0].amps, 123e-6);
        assert_eq!(
            modified.network().current_loads()[1].amps,
            base.network().current_loads()[1].amps
        );
        assert!(PredictRequest::new("x")
            .with_load_override(n_loads, 1e-6)
            .apply(&base)
            .is_err());
        assert!(PredictRequest::new("x")
            .with_load_override(0, f64::NAN)
            .validate()
            .is_err());
        assert!(PredictRequest::new("x").with_stride(0).validate().is_err());
    }

    #[test]
    fn width_overrides_bypass_inference_and_score_exact_widths() {
        let bundle = fast_bundle();
        let base = bundle.instantiate_base().unwrap();
        let widths = vec![2.5; base.straps().len()];
        let request = PredictRequest::new("oracle").with_widths(widths.clone());
        let p = predict(
            &bundle.predictor,
            &base,
            &request,
            bundle.meta.inference_stride,
        )
        .unwrap();
        assert_eq!(p.response.widths, widths);
        assert_eq!(p.test_bench.strap_widths(), widths);
        // The score is the IR estimate for exactly those widths on the
        // overridden design.
        let direct = IrPredictor::new().predict(&p.test_bench, &widths).unwrap();
        assert_eq!(p.response.worst_ir_mv, direct.worst_mv());
        // Wrong length and non-positive widths are typed errors.
        assert!(PredictRequest::new("x")
            .with_widths(vec![1.0; 3])
            .apply(&base)
            .is_err());
        assert!(PredictRequest::new("x")
            .with_widths(vec![0.0])
            .validate()
            .is_err());
        assert!(PredictRequest::new("x")
            .with_widths(Vec::new())
            .validate()
            .is_err());
    }

    #[test]
    fn fingerprint_ignores_id_and_tracks_payload() {
        let p = Perturbation::new(0.1, PerturbationKind::Both, 5).unwrap();
        let a = PredictRequest::new("a").with_perturbation(p);
        let b = PredictRequest::new("b").with_perturbation(p);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other = Perturbation::new(0.2, PerturbationKind::Both, 5).unwrap();
        assert_ne!(
            a.fingerprint(),
            PredictRequest::new("a")
                .with_perturbation(other)
                .fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            PredictRequest::new("a")
                .with_perturbation(p)
                .with_stride(2)
                .fingerprint()
        );
        let widened = PredictRequest::new("a")
            .with_perturbation(p)
            .with_widths(vec![1.5, 2.0]);
        assert_ne!(a.fingerprint(), widened.fingerprint());
        assert!(!a.payload_eq(&widened));
        assert!(widened.payload_eq(&widened.clone()));
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in PerturbationKind::ALL {
            assert_eq!(parse_kind(kind_tag(kind)).unwrap(), kind);
        }
        assert!(parse_kind("sideways").is_err());
    }
}

//! The five standard pipeline stages and their artifact codecs.
//!
//! Artifacts are versioned, line-oriented text (the same format family
//! as [`ppdl_nn`]'s model persistence): floats are written with Rust's
//! shortest-round-trip formatting, so decode → re-encode is lossless
//! and a warm run reproduces the cold run's numbers bit for bit.

use std::time::Instant;

use ppdl_analysis::{AnalysisOptions, IrDropReport, StaticAnalysis};
use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
use ppdl_nn::TrainReport;

use super::cache::{CacheKey, StableHasher};
use super::{BenchSlot, PipelineCtx, PredictSlot, SizingSlot, Stage, TrainSlot, ValidateSlot};
use crate::experiment::STANDARD_OVERDRIVE;
use crate::{
    calibrate_to_worst_ir, BackendModel, ConventionalFlow, CoreError, Perturbation, PredictedIr,
    PredictorConfig, TrainSummary,
};

// ---------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------

fn decode_err(detail: impl Into<String>) -> CoreError {
    CoreError::InvalidConfig {
        detail: detail.into(),
    }
}

fn fmt_vec(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Line-oriented artifact reader with tagged fields.
struct Reader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str, header: &str) -> crate::Result<Self> {
        let mut r = Self {
            lines: text.lines(),
        };
        let first = r.line("header")?;
        if first != header {
            return Err(decode_err(format!("bad artifact header '{first}'")));
        }
        Ok(r)
    }

    fn line(&mut self, what: &str) -> crate::Result<&'a str> {
        self.lines
            .next()
            .map(str::trim_end)
            .ok_or_else(|| decode_err(format!("truncated artifact, wanted {what}")))
    }

    fn tagged(&mut self, tag: &str) -> crate::Result<&'a str> {
        let line = self.line(tag)?;
        line.strip_prefix(tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| decode_err(format!("expected '{tag} <value>', found '{line}'")))
    }

    fn tagged_f64(&mut self, tag: &str) -> crate::Result<f64> {
        let raw = self.tagged(tag)?;
        raw.parse()
            .map_err(|_| decode_err(format!("bad float '{raw}' for {tag}")))
    }

    fn tagged_usize(&mut self, tag: &str) -> crate::Result<usize> {
        let raw = self.tagged(tag)?;
        raw.parse()
            .map_err(|_| decode_err(format!("bad integer '{raw}' for {tag}")))
    }

    /// Reads `tag <n>` followed by one line of `n` floats.
    fn vec(&mut self, tag: &str) -> crate::Result<Vec<f64>> {
        let n = self.tagged_usize(tag)?;
        // Encoders always emit the values line, even when empty.
        let row = self.line(tag)?;
        let values: Vec<f64> = row
            .split_whitespace()
            .map(|t| {
                t.parse()
                    .map_err(|_| decode_err(format!("bad float '{t}' in {tag}")))
            })
            .collect::<crate::Result<_>>()?;
        if values.len() != n {
            return Err(decode_err(format!(
                "{tag} declared {n} values, found {}",
                values.len()
            )));
        }
        Ok(values)
    }

    fn expect_end(&mut self) -> crate::Result<()> {
        match self.line("end")? {
            "end" => Ok(()),
            other => Err(decode_err(format!("expected 'end', found '{other}'"))),
        }
    }
}

fn hash_analysis(h: &mut StableHasher, a: &AnalysisOptions) {
    h.write_f64("tolerance", a.tolerance);
    h.write_u64("max_iterations", a.max_iterations as u64);
    h.write_str("preconditioner", &format!("{:?}", a.preconditioner));
}

fn hash_predictor_config(h: &mut StableHasher, c: &PredictorConfig) {
    h.write_str("feature_set", &format!("{:?}", c.feature_set));
    h.write_u64("hidden_layers", c.hidden_layers as u64);
    h.write_u64("hidden_width", c.hidden_width as u64);
    h.write_str("activation", &format!("{:?}", c.activation));
    h.write_u64("epochs", c.train.epochs as u64);
    h.write_u64("batch_size", c.train.batch_size as u64);
    h.write_f64("learning_rate", c.train.learning_rate);
    h.write_str("loss", &format!("{:?}", c.train.loss));
    h.write_f64("weight_decay", c.train.weight_decay);
    h.write_u64("shuffle_seed", c.train.shuffle_seed);
    h.write_f64("validation_split", c.train.validation_split);
    h.write_u64("patience", c.train.patience as u64);
    h.write_u64("seed", c.seed);
    h.write_f64("min_width", c.min_width);
    h.write_u64("map_size", c.map_size as u64);
    h.write_u64("conv_channels", c.conv_channels as u64);
}

// ---------------------------------------------------------------------
// BenchmarkSource
// ---------------------------------------------------------------------

/// Stage 1: produce the (calibrated) benchmark under test.
///
/// The source generates an IBM PG preset at a scale/seed and — unless
/// it is [`uncalibrated`](Self::uncalibrated) — calibrates its loads so
/// the initial design violates the preset's Table III margin by
/// [`STANDARD_OVERDRIVE`], then overrides the conventional margin in
/// the context config with that target (the paper's §V-A recipe).
/// The cached artifact is the post-calibration load-current vector:
/// a warm run regenerates the deterministic grid and restores the
/// loads, skipping every calibration solve.
#[derive(Debug, Clone, Copy)]
pub struct BenchmarkSourceStage {
    preset: IbmPgPreset,
    scale: f64,
    seed: u64,
    calibrated: bool,
}

impl BenchmarkSourceStage {
    /// A calibrated preset source — the standard experiment recipe.
    #[must_use]
    pub fn preset(preset: IbmPgPreset, scale: f64, seed: u64) -> Self {
        Self {
            preset,
            scale,
            seed,
            calibrated: true,
        }
    }

    /// An uncalibrated preset source (generation-only experiments).
    #[must_use]
    pub fn uncalibrated(preset: IbmPgPreset, scale: f64, seed: u64) -> Self {
        Self {
            preset,
            scale,
            seed,
            calibrated: false,
        }
    }

    const HEADER: &'static str = "ppdl-art bench-source v1";
}

impl Stage for BenchmarkSourceStage {
    fn name(&self) -> &'static str {
        "bench-source"
    }

    fn cache_key(&self, _ctx: &PipelineCtx) -> Option<CacheKey> {
        let mut h = StableHasher::new("bench-source");
        h.write_str("preset", self.preset.name());
        h.write_f64("scale", self.scale);
        h.write_u64("seed", self.seed);
        if self.calibrated {
            h.write_f64("overdrive", STANDARD_OVERDRIVE);
        } else {
            h.write_str("overdrive", "none");
        }
        Some(h.finish())
    }

    fn decode(&self, ctx: &mut PipelineCtx, text: &str) -> crate::Result<()> {
        let mut r = Reader::new(text, Self::HEADER)?;
        let margin_fraction = r.tagged_f64("margin_fraction")?;
        let target = r.tagged_f64("target_worst_ir")?;
        let factor = r.tagged_f64("calibration_factor")?;
        let loads = r.vec("loads")?;
        r.expect_end()?;
        let mut bench = SyntheticBenchmark::from_preset(self.preset, self.scale, self.seed)?;
        if bench.network().current_loads().len() != loads.len() {
            return Err(decode_err("cached load vector does not match grid"));
        }
        bench.set_load_currents(&loads)?;
        if self.calibrated {
            ctx.config.conventional.ir_margin_fraction = margin_fraction;
        }
        ctx.bench = Some(BenchSlot {
            bench,
            margin_fraction,
            target_worst_ir: target,
            calibration_factor: factor,
        });
        Ok(())
    }

    fn execute(&self, ctx: &mut PipelineCtx) -> crate::Result<()> {
        let mut bench = SyntheticBenchmark::from_preset(self.preset, self.scale, self.seed)?;
        let target = self
            .calibrated
            .then(|| crate::experiment::target_worst_ir(self.preset));
        let factor = match target {
            Some(t) => calibrate_to_worst_ir(&mut bench, STANDARD_OVERDRIVE * t)?,
            None => 1.0,
        };
        let vdd = bench
            .network()
            .supply_voltage()
            .ok_or(CoreError::Analysis(ppdl_analysis::AnalysisError::NoSupply))?;
        let margin_fraction = match target {
            Some(t) => t / vdd,
            None => ctx.config.conventional.ir_margin_fraction,
        };
        if self.calibrated {
            ctx.config.conventional.ir_margin_fraction = margin_fraction;
        }
        ctx.bench = Some(BenchSlot {
            bench,
            margin_fraction,
            target_worst_ir: target.unwrap_or(margin_fraction * vdd),
            calibration_factor: factor,
        });
        Ok(())
    }

    fn encode(&self, ctx: &PipelineCtx) -> Option<String> {
        let slot = ctx.bench.as_ref()?;
        let loads: Vec<f64> = slot
            .bench
            .network()
            .current_loads()
            .iter()
            .map(|l| l.amps)
            .collect();
        let mut out = String::new();
        out.push_str(Self::HEADER);
        out.push('\n');
        out.push_str(&format!("margin_fraction {}\n", slot.margin_fraction));
        out.push_str(&format!("target_worst_ir {}\n", slot.target_worst_ir));
        out.push_str(&format!("calibration_factor {}\n", slot.calibration_factor));
        out.push_str(&format!("loads {}\n{}\n", loads.len(), fmt_vec(&loads)));
        out.push_str("end\n");
        Some(out)
    }
}

// ---------------------------------------------------------------------
// FeatureExtract
// ---------------------------------------------------------------------

/// Stage 2: manufacture the golden labels the features are extracted
/// against (§IV-B) by running the conventional iterative sizing loop.
///
/// The cached artifact is the converged width vector (plus the loop's
/// bookkeeping); a warm run applies the widths to the source benchmark
/// and skips every sizing-loop analysis solve — the single most
/// expensive part of a cold experiment.
#[derive(Debug, Clone, Copy)]
pub struct FeatureExtractStage;

impl FeatureExtractStage {
    const HEADER: &'static str = "ppdl-art feature-extract v1";
}

impl Stage for FeatureExtractStage {
    fn name(&self) -> &'static str {
        "feature-extract"
    }

    fn cache_key(&self, ctx: &PipelineCtx) -> Option<CacheKey> {
        let chain = ctx.chain?;
        let c = &ctx.config.conventional;
        let mut h = StableHasher::new("feature-extract");
        h.write_key("chain", chain);
        h.write_f64("ir_margin_fraction", c.ir_margin_fraction);
        h.write_f64("jmax", c.jmax);
        h.write_f64("widen_factor", c.widen_factor);
        h.write_u64("max_iterations", c.max_iterations as u64);
        h.write_f64("max_width", c.max_width);
        hash_analysis(&mut h, &c.analysis);
        Some(h.finish())
    }

    fn decode(&self, ctx: &mut PipelineCtx, text: &str) -> crate::Result<()> {
        let mut r = Reader::new(text, Self::HEADER)?;
        let iterations = r.tagged_usize("iterations")?;
        let worst_ir = r.tagged_f64("worst_ir")?;
        let analysis_secs = r.tagged_f64("analysis_secs")?;
        let single_secs = r.tagged_f64("single_secs")?;
        let widths = r.vec("widths")?;
        r.expect_end()?;
        let mut sized = ctx.bench()?.bench.clone();
        sized.set_strap_widths(&widths)?;
        ctx.sizing = Some(SizingSlot {
            sized,
            golden_widths: widths,
            iterations,
            worst_ir,
            analysis_secs,
            single_secs,
        });
        Ok(())
    }

    fn execute(&self, ctx: &mut PipelineCtx) -> crate::Result<()> {
        let flow = ConventionalFlow::new(ctx.config.conventional.clone());
        let (sized, result) = flow.run(&ctx.bench()?.bench)?;
        ctx.sizing = Some(SizingSlot {
            sized,
            golden_widths: result.widths,
            iterations: result.iterations,
            worst_ir: result.worst_ir,
            analysis_secs: result.analysis_time.as_secs_f64(),
            single_secs: result.single_analysis_time.as_secs_f64(),
        });
        Ok(())
    }

    fn encode(&self, ctx: &PipelineCtx) -> Option<String> {
        let s = ctx.sizing.as_ref()?;
        let mut out = String::new();
        out.push_str(Self::HEADER);
        out.push('\n');
        out.push_str(&format!("iterations {}\n", s.iterations));
        out.push_str(&format!("worst_ir {}\n", s.worst_ir));
        out.push_str(&format!("analysis_secs {}\n", s.analysis_secs));
        out.push_str(&format!("single_secs {}\n", s.single_secs));
        out.push_str(&format!(
            "widths {}\n{}\n",
            s.golden_widths.len(),
            fmt_vec(&s.golden_widths)
        ));
        out.push_str("end\n");
        Some(out)
    }
}

// ---------------------------------------------------------------------
// Train
// ---------------------------------------------------------------------

/// Stage 3: fit the configured surrogate backend on the sized design.
///
/// The cached artifact is the full model — tagged with its backend
/// kind, via the lossless [`ppdl_nn`]-family text persistence — plus
/// the training reports, so a warm run restores a bit-identical model
/// without touching the optimizer. The cache key covers the backend
/// selection, so switching backends never aliases artifacts.
#[derive(Debug, Clone, Copy)]
pub struct TrainStage;

impl TrainStage {
    const HEADER: &'static str = "ppdl-art train v2";

    fn encode_report(out: &mut String, tag: &str, r: &TrainReport) {
        out.push_str(&format!(
            "report {tag} {} {}\n",
            r.epochs_run,
            u8::from(r.early_stopped)
        ));
        out.push_str(&format!(
            "train_losses {}\n{}\n",
            r.train_losses.len(),
            fmt_vec(&r.train_losses)
        ));
        out.push_str(&format!(
            "val_losses {}\n{}\n",
            r.val_losses.len(),
            fmt_vec(&r.val_losses)
        ));
    }

    fn decode_report(r: &mut Reader, tag: &str) -> crate::Result<TrainReport> {
        let decl = r.tagged("report")?;
        let mut fields = decl.split_whitespace();
        if fields.next() != Some(tag) {
            return Err(decode_err(format!("expected report {tag}, found '{decl}'")));
        }
        let epochs_run: usize = fields
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| decode_err("bad epochs_run"))?;
        let early_stopped = fields.next() == Some("1");
        let train_losses = r.vec("train_losses")?;
        let val_losses = r.vec("val_losses")?;
        Ok(TrainReport {
            train_losses,
            val_losses,
            epochs_run,
            early_stopped,
        })
    }
}

impl Stage for TrainStage {
    fn name(&self) -> &'static str {
        "train"
    }

    fn cache_key(&self, ctx: &PipelineCtx) -> Option<CacheKey> {
        let chain = ctx.chain?;
        let mut h = StableHasher::new("train");
        h.write_key("chain", chain);
        h.write_str("backend", ctx.config.backend.tag());
        hash_predictor_config(&mut h, &ctx.config.predictor);
        Some(h.finish())
    }

    fn decode(&self, ctx: &mut PipelineCtx, text: &str) -> crate::Result<()> {
        let mut r = Reader::new(text, Self::HEADER)?;
        // A removed backend's tag (`cnn`) fails here, so the artifact
        // cache recomputes the stage.
        let backend = crate::BackendKind::parse(r.tagged("backend")?)?;
        let vertical = Self::decode_report(&mut r, "vertical")?;
        let horizontal = Self::decode_report(&mut r, "horizontal")?;
        // The model body follows the reports, starting at its own
        // versioned header.
        let body_header = match backend {
            crate::BackendKind::Mlp => "ppdl-width-predictor v1",
            crate::BackendKind::EncoderDecoder => "ppdl-spatial v1",
        };
        let body_start = text
            .find(body_header)
            .ok_or_else(|| decode_err("train artifact missing model body"))?;
        let predictor = BackendModel::from_text(&text[body_start..])?;
        if predictor.kind() != backend {
            return Err(decode_err(format!(
                "train artifact tagged {} but body decodes as {}",
                backend.tag(),
                predictor.kind().tag()
            )));
        }
        ctx.trained = Some(TrainSlot {
            predictor,
            summary: TrainSummary {
                vertical,
                horizontal,
            },
        });
        Ok(())
    }

    fn execute(&self, ctx: &mut PipelineCtx) -> crate::Result<()> {
        let sizing = ctx.sizing()?;
        let (predictor, summary) = BackendModel::train(
            &sizing.sized,
            &sizing.golden_widths,
            ctx.config.backend,
            &ctx.config.predictor,
        )?;
        ctx.trained = Some(TrainSlot { predictor, summary });
        Ok(())
    }

    fn encode(&self, ctx: &PipelineCtx) -> Option<String> {
        let t = ctx.trained.as_ref()?;
        let mut out = String::new();
        out.push_str(Self::HEADER);
        out.push('\n');
        out.push_str(&format!("backend {}\n", t.predictor.kind().tag()));
        Self::encode_report(&mut out, "vertical", &t.summary.vertical);
        Self::encode_report(&mut out, "horizontal", &t.summary.horizontal);
        out.push_str(&t.predictor.to_text());
        Some(out)
    }
}

// ---------------------------------------------------------------------
// Predict
// ---------------------------------------------------------------------

/// Stage 4: the PowerPlanningDL fast path — perturb the sized design
/// (§IV-D), infer widths with the trained model, and estimate IR drop
/// with Kirchhoff accumulation (Algorithm 2).
///
/// The perturbed test bench itself is *recomputed* on a warm run (it
/// is a cheap deterministic transform of the cached sized design);
/// the cached artifact carries the predicted widths, the IR estimate,
/// and the cold run's inference wall-time so Table IV survives caching.
///
/// The perturbation is the context's [`DlFlowConfig`](crate::DlFlowConfig)
/// point (`perturbation_gamma` / `perturbation_kind` / `seed`).
#[derive(Debug, Clone, Copy)]
pub struct PredictStage;

impl PredictStage {
    const HEADER: &'static str = "ppdl-art predict v1";

    fn perturbation(ctx: &PipelineCtx) -> crate::Result<Perturbation> {
        Perturbation::new(
            ctx.config.perturbation_gamma,
            ctx.config.perturbation_kind,
            ctx.config.seed,
        )
    }
}

impl Stage for PredictStage {
    fn name(&self) -> &'static str {
        "predict"
    }

    fn cache_key(&self, ctx: &PipelineCtx) -> Option<CacheKey> {
        let chain = ctx.chain?;
        let p = Self::perturbation(ctx).ok()?;
        let mut h = StableHasher::new("predict");
        h.write_key("chain", chain);
        h.write_f64("gamma", p.gamma());
        h.write_str("kind", &format!("{:?}", p.kind()));
        h.write_u64("seed", p.seed());
        h.write_u64("inference_stride", ctx.config.inference_stride as u64);
        Some(h.finish())
    }

    fn decode(&self, ctx: &mut PipelineCtx, text: &str) -> crate::Result<()> {
        let mut r = Reader::new(text, Self::HEADER)?;
        let dl_secs = r.tagged_f64("dl_secs")?;
        let worst = r.tagged_f64("ir_worst")?;
        let predicted_widths = r.vec("strap_widths")?;
        let node_drops = r.vec("node_drops")?;
        let segment_drops = r.vec("segment_drops")?;
        r.expect_end()?;
        let test_bench = Self::perturbation(ctx)?.apply(&ctx.sizing()?.sized)?;
        ctx.predicted = Some(PredictSlot {
            test_bench,
            predicted_widths,
            predicted_ir: PredictedIr {
                node_drops,
                worst,
                segment_drops,
            },
            dl_secs,
        });
        Ok(())
    }

    fn execute(&self, ctx: &mut PipelineCtx) -> crate::Result<()> {
        // The stage is a thin adapter over the shared inference entry
        // point, so the pipeline, the CLI, and the batched service all
        // answer queries through exactly the same code path.
        let request = crate::predict::PredictRequest::new("pipeline")
            .with_perturbation(Self::perturbation(ctx)?);
        let prediction = crate::predict::predict(
            &ctx.trained()?.predictor,
            &ctx.sizing()?.sized,
            &request,
            ctx.config.inference_stride,
        )?;
        ctx.predicted = Some(PredictSlot {
            test_bench: prediction.test_bench,
            predicted_widths: prediction.response.widths,
            predicted_ir: prediction.ir,
            dl_secs: prediction.dl_secs,
        });
        Ok(())
    }

    fn encode(&self, ctx: &PipelineCtx) -> Option<String> {
        let p = ctx.predicted.as_ref()?;
        let mut out = String::new();
        out.push_str(Self::HEADER);
        out.push('\n');
        out.push_str(&format!("dl_secs {}\n", p.dl_secs));
        out.push_str(&format!("ir_worst {}\n", p.predicted_ir.worst));
        out.push_str(&format!(
            "strap_widths {}\n{}\n",
            p.predicted_widths.len(),
            fmt_vec(&p.predicted_widths)
        ));
        out.push_str(&format!(
            "node_drops {}\n{}\n",
            p.predicted_ir.node_drops.len(),
            fmt_vec(&p.predicted_ir.node_drops)
        ));
        out.push_str(&format!(
            "segment_drops {}\n{}\n",
            p.predicted_ir.segment_drops.len(),
            fmt_vec(&p.predicted_ir.segment_drops)
        ));
        out.push_str("end\n");
        Some(out)
    }
}

// ---------------------------------------------------------------------
// Validate
// ---------------------------------------------------------------------

/// Stage 5: the conventional ground truth on the same test design — a
/// full power-grid analysis — plus the width-quality metrics
/// (Table III / IV / V).
///
/// The cached artifact is the solver's node-voltage vector; the width
/// metrics are recomputed from the (cached, bit-identical) predictor,
/// which is cheap and keeps a single source of truth.
#[derive(Debug, Clone, Copy)]
pub struct ValidateStage;

impl ValidateStage {
    const HEADER: &'static str = "ppdl-art validate v1";
}

impl Stage for ValidateStage {
    fn name(&self) -> &'static str {
        "validate"
    }

    fn cache_key(&self, ctx: &PipelineCtx) -> Option<CacheKey> {
        let chain = ctx.chain?;
        let mut h = StableHasher::new("validate");
        h.write_key("chain", chain);
        hash_analysis(&mut h, &ctx.config.conventional.analysis);
        Some(h.finish())
    }

    fn decode(&self, ctx: &mut PipelineCtx, text: &str) -> crate::Result<()> {
        let mut r = Reader::new(text, Self::HEADER)?;
        let conv_secs = r.tagged_f64("conv_secs")?;
        let vdd = r.tagged_f64("vdd")?;
        let unknowns = r.tagged_usize("unknowns")?;
        let iterations = r.tagged_usize("iterations")?;
        let voltages = r.vec("voltages")?;
        let ground_bits = r.vec("ground")?;
        r.expect_end()?;
        let is_ground: Vec<bool> = ground_bits.iter().map(|&b| b != 0.0).collect();
        let report = IrDropReport::from_parts(vdd, voltages, is_ground, unknowns, iterations)?;
        let metrics = ctx
            .trained()?
            .predictor
            .evaluate(&ctx.predicted()?.test_bench, &ctx.sizing()?.golden_widths)?;
        ctx.validated = Some(ValidateSlot {
            report,
            conv_secs,
            metrics,
        });
        Ok(())
    }

    fn execute(&self, ctx: &mut PipelineCtx) -> crate::Result<()> {
        let analyzer = StaticAnalysis::new(ctx.config.conventional.analysis.clone());
        let test_bench = &ctx.predicted()?.test_bench;
        // ppdl-lint: allow(determinism/wall-clock) -- stage wall-time goes to the run manifest and spans; stage outputs are pure functions of their inputs
        let t0 = Instant::now();
        let report = analyzer.solve(test_bench.network())?;
        let conv_secs = t0.elapsed().as_secs_f64();
        let metrics = ctx
            .trained()?
            .predictor
            .evaluate(test_bench, &ctx.sizing()?.golden_widths)?;
        ctx.validated = Some(ValidateSlot {
            report,
            conv_secs,
            metrics,
        });
        Ok(())
    }

    fn encode(&self, ctx: &PipelineCtx) -> Option<String> {
        let v = ctx.validated.as_ref()?;
        let ground: Vec<f64> = v
            .report
            .ground_mask()
            .iter()
            .map(|&g| f64::from(u8::from(g)))
            .collect();
        let mut out = String::new();
        out.push_str(Self::HEADER);
        out.push('\n');
        out.push_str(&format!("conv_secs {}\n", v.conv_secs));
        out.push_str(&format!("vdd {}\n", v.report.vdd()));
        out.push_str(&format!("unknowns {}\n", v.report.unknowns()));
        out.push_str(&format!("iterations {}\n", v.report.iterations()));
        out.push_str(&format!(
            "voltages {}\n{}\n",
            v.report.voltages().len(),
            fmt_vec(v.report.voltages())
        ));
        out.push_str(&format!("ground {}\n{}\n", ground.len(), fmt_vec(&ground)));
        out.push_str("end\n");
        Some(out)
    }
}

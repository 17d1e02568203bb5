//! Width-surrogate backends: MLP rows vs spatial maps behind one API.
//!
//! The paper's model is a per-segment MLP, but nothing downstream of
//! training cares how widths are produced — the flow, the bundle, and
//! the serving registry only need *predict widths for this benchmark*.
//! [`BackendModel`] is that seam: a closed enum over the row-oriented
//! [`WidthPredictor`] and the map-oriented [`SpatialPredictor`], tagged
//! with a versioned [`BackendKind`] and an [`InputSpec`] so persisted
//! artifacts can say exactly what they contain.

use ppdl_netlist::SyntheticBenchmark;
use ppdl_nn::TrainReport;

use crate::spatial::{SpatialArch, SpatialPredictor, FEATURE_CHANNELS};
use crate::{CoreError, PredictorConfig, TrainSummary, WidthMetrics, WidthPredictor};

/// Which surrogate architecture a model uses — the selectable backend
/// axis of the transfer-matrix experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The paper's per-segment MLP (one model per strap direction).
    #[default]
    Mlp,
    /// Full-resolution convolutional map regressor.
    Cnn,
    /// One-level convolutional encoder-decoder map regressor.
    EncoderDecoder,
}

impl BackendKind {
    /// All backends, in bundle-tag order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Mlp,
        BackendKind::Cnn,
        BackendKind::EncoderDecoder,
    ];

    /// Stable persistence / wire tag.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            BackendKind::Mlp => "mlp",
            BackendKind::Cnn => "cnn",
            BackendKind::EncoderDecoder => "encdec",
        }
    }

    /// Table-friendly label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Mlp => "MLP",
            BackendKind::Cnn => "CNN",
            BackendKind::EncoderDecoder => "Encoder-decoder",
        }
    }

    /// Parses a [`tag`](Self::tag).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown tag.
    pub fn parse(tag: &str) -> crate::Result<Self> {
        match tag {
            "mlp" => Ok(BackendKind::Mlp),
            "cnn" => Ok(BackendKind::Cnn),
            "encdec" => Ok(BackendKind::EncoderDecoder),
            other => Err(CoreError::InvalidConfig {
                detail: format!("unknown backend '{other}' (mlp|cnn|encdec)"),
            }),
        }
    }
}

/// What a backend consumes per benchmark: per-segment feature rows or
/// channel-major raster maps. Persisted alongside the backend tag so a
/// loader can reject a bundle whose payload does not match its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSpec {
    /// One row per segment, `features` columns wide.
    Rows {
        /// Feature columns per row.
        features: usize,
    },
    /// One channel-major `c × h × w` raster per benchmark.
    Maps {
        /// Channels.
        c: usize,
        /// Map height.
        h: usize,
        /// Map width.
        w: usize,
    },
}

impl InputSpec {
    /// The persistence encoding (`rows <n>` / `maps <c> <h> <w>`).
    #[must_use]
    pub fn encode(self) -> String {
        match self {
            InputSpec::Rows { features } => format!("rows {features}"),
            InputSpec::Maps { c, h, w } => format!("maps {c} {h} {w}"),
        }
    }

    /// Parses an [`encode`](Self::encode) string.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a malformed spec.
    pub fn parse(text: &str) -> crate::Result<Self> {
        let bad = || CoreError::InvalidConfig {
            detail: format!("invalid input spec '{text}' (rows <n> | maps <c> <h> <w>)"),
        };
        let fields: Vec<&str> = text.split_whitespace().collect();
        match fields.as_slice() {
            ["rows", n] => Ok(InputSpec::Rows {
                features: n.parse().map_err(|_| bad())?,
            }),
            ["maps", c, h, w] => Ok(InputSpec::Maps {
                c: c.parse().map_err(|_| bad())?,
                h: h.parse().map_err(|_| bad())?,
                w: w.parse().map_err(|_| bad())?,
            }),
            _ => Err(bad()),
        }
    }
}

impl std::fmt::Display for InputSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputSpec::Rows { features } => write!(f, "rows({features})"),
            InputSpec::Maps { c, h, w } => write!(f, "maps({c}x{h}x{w})"),
        }
    }
}

/// A trained width surrogate of any backend kind, behind the prediction
/// API the flow, bundle, and service consume.
#[derive(Debug, Clone)]
pub enum BackendModel {
    /// Row-oriented per-segment MLP (the paper's model).
    Rows(WidthPredictor),
    /// Map-oriented spatial surrogate (CNN or encoder-decoder).
    Spatial(SpatialPredictor),
}

impl BackendModel {
    /// Trains the selected backend on a benchmark and its golden
    /// widths.
    ///
    /// The spatial backends train one network (there is no per-direction
    /// split — directions are map channels), so their [`TrainSummary`]
    /// carries the single report in the `vertical` slot and an empty
    /// `horizontal` report.
    ///
    /// # Errors
    ///
    /// Propagates the backend's training errors.
    pub fn train(
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
        kind: BackendKind,
        config: &PredictorConfig,
    ) -> crate::Result<(Self, TrainSummary)> {
        match kind {
            BackendKind::Mlp => {
                let (p, summary) = WidthPredictor::train(bench, golden_widths, config.clone())?;
                Ok((BackendModel::Rows(p), summary))
            }
            BackendKind::Cnn | BackendKind::EncoderDecoder => {
                let arch = if kind == BackendKind::Cnn {
                    SpatialArch::Cnn
                } else {
                    SpatialArch::EncoderDecoder
                };
                let (p, report) = SpatialPredictor::train(bench, golden_widths, arch, config)?;
                Ok((
                    BackendModel::Spatial(p),
                    TrainSummary {
                        vertical: report,
                        horizontal: TrainReport {
                            train_losses: Vec::new(),
                            val_losses: Vec::new(),
                            epochs_run: 0,
                            early_stopped: false,
                        },
                    },
                ))
            }
        }
    }

    /// Which backend this model is.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendModel::Rows(_) => BackendKind::Mlp,
            BackendModel::Spatial(p) => match p.arch() {
                SpatialArch::Cnn => BackendKind::Cnn,
                SpatialArch::EncoderDecoder => BackendKind::EncoderDecoder,
            },
        }
    }

    /// The input geometry this model consumes.
    #[must_use]
    pub fn input_spec(&self) -> InputSpec {
        match self {
            BackendModel::Rows(p) => InputSpec::Rows {
                features: p.feature_set().width(),
            },
            BackendModel::Spatial(p) => InputSpec::Maps {
                c: FEATURE_CHANNELS,
                h: p.map_size(),
                w: p.map_size(),
            },
        }
    }

    /// The configured minimum width clamp (µm).
    #[must_use]
    pub fn min_width(&self) -> f64 {
        match self {
            BackendModel::Rows(p) => p.min_width(),
            BackendModel::Spatial(p) => p.min_width(),
        }
    }

    /// The row-oriented predictor, when this is the MLP backend.
    #[must_use]
    pub fn as_rows(&self) -> Option<&WidthPredictor> {
        match self {
            BackendModel::Rows(p) => Some(p),
            BackendModel::Spatial(_) => None,
        }
    }

    /// The spatial predictor, when this is a spatial backend.
    #[must_use]
    pub fn as_spatial(&self) -> Option<&SpatialPredictor> {
        match self {
            BackendModel::Rows(_) => None,
            BackendModel::Spatial(p) => Some(p),
        }
    }

    /// Checks the model's internal shape invariants.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BundleMismatch`].
    pub fn validate_shapes(&self) -> crate::Result<()> {
        match self {
            BackendModel::Rows(p) => p.validate_shapes(),
            BackendModel::Spatial(p) => p.validate_shapes(),
        }
    }

    /// Predicts a width for every segment of `bench`, in µm.
    ///
    /// # Errors
    ///
    /// Propagates the backend's prediction errors.
    pub fn predict_segments(&self, bench: &SyntheticBenchmark) -> crate::Result<Vec<f64>> {
        match self {
            BackendModel::Rows(p) => p.predict_segments(bench),
            BackendModel::Spatial(p) => p.predict_segments(bench),
        }
    }

    /// Predicts per-strap widths (segment mean per strap).
    ///
    /// # Errors
    ///
    /// Propagates the backend's prediction errors.
    pub fn predict_strap_widths(&self, bench: &SyntheticBenchmark) -> crate::Result<Vec<f64>> {
        self.predict_strap_widths_sampled(bench, 1)
    }

    /// Per-strap widths from every `stride`-th segment of each strap —
    /// the timed inference path's subsampling contract.
    ///
    /// # Errors
    ///
    /// Propagates the backend's prediction errors.
    pub fn predict_strap_widths_sampled(
        &self,
        bench: &SyntheticBenchmark,
        stride: usize,
    ) -> crate::Result<Vec<f64>> {
        match self {
            BackendModel::Rows(p) => p.predict_strap_widths_sampled(bench, stride),
            BackendModel::Spatial(p) => p.predict_strap_widths_sampled(bench, stride),
        }
    }

    /// Evaluates against golden widths at segment granularity.
    ///
    /// # Errors
    ///
    /// Propagates prediction and metric errors.
    pub fn evaluate(
        &self,
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
    ) -> crate::Result<WidthMetrics> {
        match self {
            BackendModel::Rows(p) => p.evaluate(bench, golden_widths),
            BackendModel::Spatial(p) => p.evaluate(bench, golden_widths),
        }
    }

    /// Paired (golden, predicted) segment widths — the Fig. 7 scatter
    /// data, for any backend.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors, and rejects a golden vector that
    /// does not have one entry per strap.
    pub fn scatter_data(
        &self,
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
    ) -> crate::Result<Vec<(f64, f64)>> {
        match self {
            BackendModel::Rows(p) => p.scatter_data(bench, golden_widths),
            BackendModel::Spatial(p) => {
                if golden_widths.len() != bench.straps().len() {
                    return Err(CoreError::InvalidConfig {
                        detail: format!(
                            "{} golden widths for {} straps",
                            golden_widths.len(),
                            bench.straps().len()
                        ),
                    });
                }
                let predicted = p.predict_segments(bench)?;
                Ok(bench
                    .segments()
                    .iter()
                    .zip(&predicted)
                    .map(|(seg, w)| (golden_widths[seg.strap], *w))
                    .collect())
            }
        }
    }

    /// Serialises the model in its backend's versioned text format
    /// (`ppdl-width-predictor v1` or `ppdl-spatial v1`).
    #[must_use]
    pub fn to_text(&self) -> String {
        match self {
            BackendModel::Rows(p) => p.to_text(),
            BackendModel::Spatial(p) => p.to_text(),
        }
    }

    /// Parses either backend text format, branching on the header line.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BundleMismatch`] for an unknown header and
    /// propagates the backend codec's errors.
    pub fn from_text(text: &str) -> crate::Result<Self> {
        let header = text.lines().next().unwrap_or_default().trim();
        match header {
            "ppdl-width-predictor v1" => Ok(BackendModel::Rows(WidthPredictor::from_text(text)?)),
            "ppdl-spatial v1" => Ok(BackendModel::Spatial(SpatialPredictor::from_text(text)?)),
            other => Err(CoreError::BundleMismatch {
                detail: format!("unknown model header '{other}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_stage, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx};
    use ppdl_netlist::IbmPgPreset;

    fn sized() -> (SyntheticBenchmark, Vec<f64>) {
        let mut ctx = PipelineCtx::new(crate::DlFlowConfig::default(), None);
        let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.008, 11);
        run_stage(&source, &mut ctx).unwrap();
        run_stage(&FeatureExtractStage, &mut ctx).unwrap();
        let sizing = ctx.sizing.take().unwrap();
        (sizing.sized, sizing.golden_widths)
    }

    #[test]
    fn tags_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.tag()).unwrap(), kind);
        }
        assert!(BackendKind::parse("transformer").is_err());
    }

    #[test]
    fn input_specs_round_trip() {
        for spec in [
            InputSpec::Rows { features: 3 },
            InputSpec::Maps { c: 2, h: 8, w: 8 },
        ] {
            assert_eq!(InputSpec::parse(&spec.encode()).unwrap(), spec);
        }
        assert!(InputSpec::parse("rows").is_err());
        assert!(InputSpec::parse("maps 2 8").is_err());
        assert!(InputSpec::parse("tensors 1 2 3").is_err());
    }

    #[test]
    fn every_backend_trains_and_round_trips() {
        let (bench, golden) = sized();
        let config = PredictorConfig::fast();
        for kind in BackendKind::ALL {
            let (model, summary) = BackendModel::train(&bench, &golden, kind, &config).unwrap();
            assert_eq!(model.kind(), kind);
            assert!(summary.total_epochs() > 0, "{kind:?} ran no epochs");
            model.validate_shapes().unwrap();
            let widths = model.predict_strap_widths(&bench).unwrap();
            assert_eq!(widths.len(), bench.straps().len());
            assert!(widths.iter().all(|w| *w >= config.min_width));
            let m = model.evaluate(&bench, &golden).unwrap();
            assert!(m.r2.is_finite(), "{kind:?} r2 not finite");
            let pairs = model.scatter_data(&bench, &golden).unwrap();
            assert_eq!(pairs.len(), bench.segments().len());

            let text = model.to_text();
            let back = BackendModel::from_text(&text).unwrap();
            assert_eq!(back.kind(), kind);
            assert_eq!(back.to_text(), text);
            assert_eq!(
                back.predict_segments(&bench).unwrap(),
                model.predict_segments(&bench).unwrap()
            );
            match kind {
                BackendKind::Mlp => {
                    assert!(model.as_rows().is_some());
                    assert!(matches!(
                        model.input_spec(),
                        InputSpec::Rows { features: 3 }
                    ));
                }
                _ => {
                    assert!(model.as_spatial().is_some());
                    assert_eq!(
                        model.input_spec(),
                        InputSpec::Maps {
                            c: FEATURE_CHANNELS,
                            h: config.map_size,
                            w: config.map_size
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_model_header_rejected() {
        assert!(matches!(
            BackendModel::from_text("ppdl-transformer v1\n"),
            Err(CoreError::BundleMismatch { .. })
        ));
    }
}

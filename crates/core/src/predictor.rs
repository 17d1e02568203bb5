//! Problem 1 / Algorithm 1: the deep-learning width predictor.
//!
//! One MLP regressor is trained per strap direction: a die location
//! `(X, Y)` is crossed by both a vertical and a horizontal strap whose
//! widths are set independently, so a single `(X, Y, Id) → w` model
//! would face two conflicting targets at the same input. Each
//! direction's model is exactly the paper's architecture (10 hidden
//! layers, Adam, MSE on standardised targets).

use ppdl_netlist::{Orientation, SyntheticBenchmark};
use ppdl_nn::{
    metrics, Activation, Dataset, Matrix, MlpBuilder, Network, StandardScaler, TrainConfig,
    TrainReport, Trainer,
};
use ppdl_solver::parallel::par_map_vec;

use crate::{CoreError, FeatureExtractor, FeatureSet};

/// Configuration of the width-prediction model.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorConfig {
    /// Which input features to use (§IV-B; `Combined` is the paper's
    /// choice).
    pub feature_set: FeatureSet,
    /// Number of hidden layers — 10 in the paper, found by
    /// hyperparameter optimisation.
    pub hidden_layers: usize,
    /// Width of each hidden layer.
    pub hidden_width: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// Training hyperparameters (Adam + MSE per the paper).
    pub train: TrainConfig,
    /// Weight-initialisation seed.
    pub seed: u64,
    /// Lower clamp on predicted widths (µm) so downstream geometry
    /// stays physical.
    pub min_width: f64,
    /// Side length of the S×S raster grid the spatial backends
    /// (CNN / encoder-decoder) see; ignored by the MLP backend.
    pub map_size: usize,
    /// Channel width of the spatial backends' convolution stacks;
    /// ignored by the MLP backend.
    pub conv_channels: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            feature_set: FeatureSet::Combined,
            hidden_layers: 10,
            hidden_width: 24,
            activation: Activation::Relu,
            // No validation split / early stopping by default: the
            // golden widths are deterministic labels, so the only risk
            // is underfitting — on small benchmarks a noisy few-sample
            // validation set stops training long before convergence.
            train: TrainConfig {
                epochs: 250,
                batch_size: 64,
                learning_rate: 2e-3,
                validation_split: 0.0,
                patience: 0,
                ..TrainConfig::default()
            },
            seed: 1,
            min_width: 0.1,
            map_size: 16,
            conv_channels: 8,
        }
    }
}

impl PredictorConfig {
    /// A reduced configuration (3 hidden layers, short training) for
    /// tests and doc examples.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            hidden_layers: 3,
            hidden_width: 16,
            train: TrainConfig {
                epochs: 100,
                batch_size: 64,
                learning_rate: 5e-3,
                validation_split: 0.0,
                patience: 0,
                ..TrainConfig::default()
            },
            map_size: 8,
            conv_channels: 4,
            ..Self::default()
        }
    }
}

/// Quality metrics of the width prediction — the Table V / Fig. 7
/// numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidthMetrics {
    /// r² score (Definition 1).
    pub r2: f64,
    /// Mean squared error on standardised targets (the dimensionless
    /// Table V column).
    pub mse_scaled: f64,
    /// Mean squared error in µm².
    pub mse_um2: f64,
    /// Pearson correlation of predicted vs golden widths (Fig. 7(a)).
    pub correlation: f64,
}

/// Per-direction training reports.
#[derive(Debug, Clone)]
pub struct TrainSummary {
    /// Report of the vertical-strap model.
    pub vertical: TrainReport,
    /// Report of the horizontal-strap model.
    pub horizontal: TrainReport,
}

impl TrainSummary {
    /// Total epochs run across both models.
    #[must_use]
    pub fn total_epochs(&self) -> usize {
        self.vertical.epochs_run + self.horizontal.epochs_run
    }

    /// The final training loss, averaged over the two models.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        let v = self.vertical.train_losses.last().copied().unwrap_or(0.0);
        let h = self.horizontal.train_losses.last().copied().unwrap_or(0.0);
        (v + h) / 2.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct DirectionModel {
    pub(crate) model: Network,
    pub(crate) feature_scaler: StandardScaler,
    pub(crate) target_scaler: StandardScaler,
}

impl DirectionModel {
    fn train(
        x: &Matrix,
        y: &Matrix,
        config: &PredictorConfig,
        seed_offset: u64,
    ) -> crate::Result<(Self, TrainReport)> {
        let feature_scaler = StandardScaler::fit(x)?;
        let target_scaler = StandardScaler::fit(y)?;
        let data = Dataset::new(feature_scaler.transform(x)?, target_scaler.transform(y)?)?;
        let mut model = MlpBuilder::new(config.feature_set.width())
            .hidden_stack(config.hidden_layers, config.hidden_width, config.activation)
            .output(1)
            .seed(config.seed.wrapping_add(seed_offset))
            .build()?;
        let report = Trainer::new(config.train.clone()).fit(&mut model, &data)?;
        Ok((
            Self {
                model,
                feature_scaler,
                target_scaler,
            },
            report,
        ))
    }

    fn predict(&self, x: &Matrix) -> crate::Result<Vec<f64>> {
        let scaled = self.model.predict(&self.feature_scaler.transform(x)?)?;
        Ok(self
            .target_scaler
            .inverse_transform(&scaled)?
            .as_slice()
            .to_vec())
    }
}

/// A trained width predictor: one MLP per strap direction, together
/// with the scalers that standardised inputs and targets.
///
/// # Example
///
/// ```
/// use ppdl_core::pipeline::{run_stage, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx};
/// use ppdl_core::{DlFlowConfig, PredictorConfig, WidthPredictor};
/// use ppdl_netlist::IbmPgPreset;
///
/// // Generate, calibrate, and conventionally size a preset: the
/// // pipeline's first two stages.
/// let mut ctx = PipelineCtx::new(DlFlowConfig::default(), None);
/// let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.006, 3);
/// run_stage(&source, &mut ctx).unwrap();
/// run_stage(&FeatureExtractStage, &mut ctx).unwrap();
/// let sizing = ctx.sizing().unwrap();
/// let (predictor, _report) =
///     WidthPredictor::train(&sizing.sized, &sizing.golden_widths, PredictorConfig::fast())
///         .unwrap();
/// let m = predictor.evaluate(&sizing.sized, &sizing.golden_widths).unwrap();
/// assert!(m.r2 > 0.5, "r2 = {}", m.r2);
/// ```
#[derive(Debug, Clone)]
pub struct WidthPredictor {
    vertical: DirectionModel,
    horizontal: DirectionModel,
    feature_set: FeatureSet,
    min_width: f64,
}

impl WidthPredictor {
    /// Trains a predictor on a benchmark and its golden widths.
    ///
    /// # Errors
    ///
    /// Propagates dataset construction and training errors, and
    /// [`CoreError::InvalidConfig`] for a zero-layer configuration.
    pub fn train(
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
        config: PredictorConfig,
    ) -> crate::Result<(Self, TrainSummary)> {
        if config.hidden_layers == 0 || config.hidden_width == 0 {
            return Err(CoreError::InvalidConfig {
                detail: "predictor needs at least one hidden unit".into(),
            });
        }
        let extractor = FeatureExtractor::new(config.feature_set);
        let raw_x = extractor.raw_features(bench);
        let raw_y = extractor.raw_targets(bench, golden_widths)?;

        let (vi, hi) = partition_by_orientation(bench);
        if vi.is_empty() || hi.is_empty() {
            return Err(CoreError::InvalidConfig {
                detail: "benchmark must have segments in both directions".into(),
            });
        }
        // The two directions are independent work items.
        // ppdl-lint: allow(determinism/tainted-parallel) -- each direction's trainer shuffles with its own StdRng, seeded from config.seed plus the direction's fixed offset, so neither depends on scheduling
        let mut trained = par_map_vec(&[(&vi, 0), (&hi, 0x5eed)], |_, &(rows, seed_offset)| {
            DirectionModel::train(
                &raw_x.gather_rows(rows),
                &raw_y.gather_rows(rows),
                &config,
                seed_offset,
            )
        })
        .into_iter();
        // One result per item; a typed error rather than a panic if that
        // ever changes (robustness/unwrap-in-lib).
        let (Some(v), Some(h)) = (trained.next(), trained.next()) else {
            return Err(CoreError::InvalidConfig {
                detail: "direction training returned fewer than two models".into(),
            });
        };
        let ((vertical, vrep), (horizontal, hrep)) = (v?, h?);
        Ok((
            Self {
                vertical,
                horizontal,
                feature_set: config.feature_set,
                min_width: config.min_width,
            },
            TrainSummary {
                vertical: vrep,
                horizontal: hrep,
            },
        ))
    }

    /// The trained per-direction networks, `(vertical, horizontal)`.
    #[must_use]
    pub fn models(&self) -> (&Network, &Network) {
        (&self.vertical.model, &self.horizontal.model)
    }

    /// The configured minimum width clamp (µm).
    #[must_use]
    pub fn min_width(&self) -> f64 {
        self.min_width
    }

    pub(crate) fn vertical_model(&self) -> &DirectionModel {
        &self.vertical
    }

    pub(crate) fn horizontal_model(&self) -> &DirectionModel {
        &self.horizontal
    }

    pub(crate) fn from_parts(
        vertical: DirectionModel,
        horizontal: DirectionModel,
        feature_set: FeatureSet,
        min_width: f64,
    ) -> Self {
        Self {
            vertical,
            horizontal,
            feature_set,
            min_width,
        }
    }

    /// The feature subset the models expect.
    #[must_use]
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// Checks that both direction models agree with the feature set and
    /// their scalers: each MLP's input layer must be as wide as the
    /// feature set, each feature scaler as long as that input layer, and
    /// each target scaler as long as the (single-width) output layer.
    ///
    /// Persistence calls this on load so a corrupted or mismatched model
    /// file fails with a typed error instead of panicking mid-inference.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BundleMismatch`] naming the offending
    /// direction and dimensions.
    pub fn validate_shapes(&self) -> crate::Result<()> {
        let want = self.feature_set.width();
        for (tag, m) in [
            ("vertical", &self.vertical),
            ("horizontal", &self.horizontal),
        ] {
            let input = m.model.input_shape().len();
            if input != want {
                return Err(CoreError::BundleMismatch {
                    detail: format!(
                        "{tag} model expects {input} inputs but feature set {:?} is {want} wide",
                        self.feature_set
                    ),
                });
            }
            let scaler_len = m.feature_scaler.means().len();
            if scaler_len != input {
                return Err(CoreError::BundleMismatch {
                    detail: format!(
                        "{tag} feature scaler covers {scaler_len} columns for a \
                         {input}-input model"
                    ),
                });
            }
            let output = m.model.output_shape().len();
            let target_len = m.target_scaler.means().len();
            if output != 1 || target_len != output {
                return Err(CoreError::BundleMismatch {
                    detail: format!(
                        "{tag} model emits {output} outputs with a {target_len}-column \
                         target scaler; widths need exactly 1 of each"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Predicts a width for every segment of `bench`, in µm, clamped
    /// to the configured minimum.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (e.g. the benchmark has no segments).
    pub fn predict_segments(&self, bench: &SyntheticBenchmark) -> crate::Result<Vec<f64>> {
        let raw = FeatureExtractor::new(self.feature_set).raw_features(bench);
        let (vi, hi) = partition_by_orientation(bench);
        let mut out = vec![self.min_width; bench.segments().len()];
        for (indices, model) in [(&vi, &self.vertical), (&hi, &self.horizontal)] {
            if indices.is_empty() {
                continue;
            }
            let pred = model.predict(&raw.gather_rows(indices))?;
            for (&idx, w) in indices.iter().zip(pred) {
                out[idx] = w.max(self.min_width);
            }
        }
        Ok(out)
    }

    /// Predicts per-strap widths: the mean of the strap's segment
    /// predictions (a strap has one physical width).
    ///
    /// # Errors
    ///
    /// Propagates [`predict_segments`](Self::predict_segments) errors.
    pub fn predict_strap_widths(&self, bench: &SyntheticBenchmark) -> crate::Result<Vec<f64>> {
        self.predict_strap_widths_sampled(bench, 1)
    }

    /// Like [`predict_strap_widths`](Self::predict_strap_widths) but
    /// running inference on every `stride`-th segment of each strap
    /// (at least one per strap). A strap has a single physical width,
    /// so subsampling its segments leaves the averaged prediction
    /// essentially unchanged while cutting inference cost by `stride` —
    /// this is what the timed design flow uses.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors; `stride` of `0` is treated as 1.
    pub fn predict_strap_widths_sampled(
        &self,
        bench: &SyntheticBenchmark,
        stride: usize,
    ) -> crate::Result<Vec<f64>> {
        let stride = stride.max(1);
        let raw = FeatureExtractor::new(self.feature_set);
        let n_straps = bench.straps().len();
        // Pick every stride-th segment within each strap.
        let mut picked: Vec<usize> = Vec::new();
        let mut counter = vec![0usize; n_straps];
        for (i, seg) in bench.segments().iter().enumerate() {
            if counter[seg.strap] % stride == 0 {
                picked.push(i);
            }
            counter[seg.strap] += 1;
        }
        let features = raw.raw_features_for(bench, &picked);
        let (vi, hi): (Vec<usize>, Vec<usize>) = {
            let mut v = Vec::new();
            let mut h = Vec::new();
            for (row, &si) in picked.iter().enumerate() {
                match bench.straps()[bench.segments()[si].strap].orientation {
                    Orientation::Vertical => v.push(row),
                    Orientation::Horizontal => h.push(row),
                }
            }
            (v, h)
        };
        let mut per_pick = vec![self.min_width; picked.len()];
        for (rows, model) in [(&vi, &self.vertical), (&hi, &self.horizontal)] {
            if rows.is_empty() {
                continue;
            }
            let pred = model.predict(&features.gather_rows(rows))?;
            for (&row, w) in rows.iter().zip(pred) {
                per_pick[row] = w.max(self.min_width);
            }
        }
        let mut sums = vec![0.0; n_straps];
        let mut counts = vec![0usize; n_straps];
        for (&si, w) in picked.iter().zip(&per_pick) {
            let strap = bench.segments()[si].strap;
            sums[strap] += w;
            counts[strap] += 1;
        }
        Ok(sums
            .iter()
            .zip(&counts)
            .zip(bench.straps())
            .map(|((s, c), strap)| {
                if *c > 0 {
                    (s / *c as f64).max(self.min_width)
                } else {
                    strap.width
                }
            })
            .collect())
    }

    /// Reliability-aware width prediction: the plain prediction
    /// projected onto the EM constraint of eq. 4, `I/w ≤ J_max`. Each
    /// strap's width is clamped from below by `I_strap / J_max`, where
    /// `I_strap` is the total current the strap delivers (an upper
    /// bound on any of its segment currents, so the constraint is
    /// guaranteed conservatively without an analysis).
    ///
    /// # Errors
    ///
    /// Propagates prediction errors, and rejects a non-positive
    /// `jmax`.
    pub fn predict_strap_widths_em_safe(
        &self,
        bench: &SyntheticBenchmark,
        jmax: f64,
    ) -> crate::Result<Vec<f64>> {
        if !(jmax.is_finite() && jmax > 0.0) {
            return Err(CoreError::InvalidConfig {
                detail: format!("jmax {jmax} must be positive"),
            });
        }
        let mut widths = self.predict_strap_widths(bench)?;
        // Total current per strap: loads indexed by coordinates so a
        // strap is charged for the current its vias inject regardless
        // of which layer the load card names.
        let net = bench.network();
        // BTreeMap/BTreeSet keep the float accumulations below in a
        // deterministic key order (determinism/hashmap-iter).
        let mut coord_load: std::collections::BTreeMap<(i64, i64), f64> =
            std::collections::BTreeMap::new();
        for l in net.current_loads() {
            if let Some(xy) = net.node_name(l.node).coordinates() {
                *coord_load.entry(xy).or_insert(0.0) += l.amps;
            }
        }
        let mut strap_current = vec![0.0; bench.straps().len()];
        let mut counted: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        for seg in bench.segments() {
            let r = &net.resistors()[seg.resistor];
            for id in [r.a.0, r.b.0] {
                if counted.insert((seg.strap, id)) {
                    if let Some(xy) = net.node_names()[id].coordinates() {
                        strap_current[seg.strap] += coord_load.get(&xy).copied().unwrap_or(0.0);
                    }
                }
            }
        }
        for (w, i_total) in widths.iter_mut().zip(&strap_current) {
            *w = w.max(i_total / jmax);
        }
        Ok(widths)
    }

    /// Evaluates the predictor against golden widths on (possibly
    /// perturbed) `bench`, at segment granularity.
    ///
    /// # Errors
    ///
    /// Propagates prediction and metric errors.
    pub fn evaluate(
        &self,
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
    ) -> crate::Result<WidthMetrics> {
        let predicted = self.predict_segments(bench)?;
        let golden = FeatureExtractor::new(self.feature_set).raw_targets(bench, golden_widths)?;
        let pred = Matrix::from_vec(predicted.len(), 1, predicted)?;
        let r2 = metrics::r2_score(&pred, &golden)?;
        let mse_um2 = metrics::mse(&pred, &golden)?;
        let correlation = metrics::pearson(&pred, &golden)?;
        // Scaled MSE: standardise both against the golden distribution
        // (the dimensionless error the paper's Table V reports).
        let golden_scaler = StandardScaler::fit(&golden)?;
        let mse_scaled = metrics::mse(
            &golden_scaler.transform(&pred)?,
            &golden_scaler.transform(&golden)?,
        )?;
        Ok(WidthMetrics {
            r2,
            mse_scaled,
            mse_um2,
            correlation,
        })
    }

    /// Paired (golden, predicted) segment widths — the Fig. 7 scatter
    /// and error-histogram data.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn scatter_data(
        &self,
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
    ) -> crate::Result<Vec<(f64, f64)>> {
        let predicted = self.predict_segments(bench)?;
        if golden_widths.len() != bench.straps().len() {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "{} golden widths for {} straps",
                    golden_widths.len(),
                    bench.straps().len()
                ),
            });
        }
        Ok(bench
            .segments()
            .iter()
            .zip(&predicted)
            .map(|(seg, p)| (golden_widths[seg.strap], *p))
            .collect())
    }
}

/// Segment indices split by strap orientation: `(vertical, horizontal)`.
fn partition_by_orientation(bench: &SyntheticBenchmark) -> (Vec<usize>, Vec<usize>) {
    let mut v = Vec::new();
    let mut h = Vec::new();
    for (i, seg) in bench.segments().iter().enumerate() {
        match bench.straps()[seg.strap].orientation {
            Orientation::Vertical => v.push(i),
            Orientation::Horizontal => h.push(i),
        }
    }
    (v, h)
}

/// Builds a plain (unscaled) dataset for external experimentation.
///
/// # Errors
///
/// Propagates dataset construction errors.
pub fn segment_dataset(
    bench: &SyntheticBenchmark,
    golden_widths: &[f64],
    feature_set: FeatureSet,
) -> crate::Result<Dataset> {
    let ex = FeatureExtractor::new(feature_set);
    Ok(Dataset::new(
        ex.raw_features(bench),
        ex.raw_targets(bench, golden_widths)?,
    )?)
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
    fn trains_and_fits_golden_widths() {
        let (bench, golden) = sized();
        let (p, summary) = WidthPredictor::train(&bench, &golden, PredictorConfig::fast()).unwrap();
        assert!(summary.total_epochs() > 0);
        let m = p.evaluate(&bench, &golden).unwrap();
        assert!(m.r2 > 0.7, "r2 = {}", m.r2);
        assert!(m.correlation > 0.8, "corr = {}", m.correlation);
        assert!(m.mse_um2 >= 0.0);
    }

    #[test]
    fn predictions_positive_and_one_per_segment() {
        let (bench, golden) = sized();
        let (p, _) = WidthPredictor::train(&bench, &golden, PredictorConfig::fast()).unwrap();
        let w = p.predict_segments(&bench).unwrap();
        assert_eq!(w.len(), bench.segments().len());
        assert!(w.iter().all(|v| *v >= 0.1));
    }

    #[test]
    fn strap_widths_average_segments() {
        let (bench, golden) = sized();
        let (p, _) = WidthPredictor::train(&bench, &golden, PredictorConfig::fast()).unwrap();
        let per_seg = p.predict_segments(&bench).unwrap();
        let per_strap = p.predict_strap_widths(&bench).unwrap();
        assert_eq!(per_strap.len(), bench.straps().len());
        // Manually average strap 0.
        let (mut sum, mut n) = (0.0, 0);
        for (seg, w) in bench.segments().iter().zip(&per_seg) {
            if seg.strap == 0 {
                sum += w;
                n += 1;
            }
        }
        assert!((per_strap[0] - sum / f64::from(n)).abs() < 1e-12);
    }

    #[test]
    fn scatter_pairs_golden_with_predicted() {
        let (bench, golden) = sized();
        let (p, _) = WidthPredictor::train(&bench, &golden, PredictorConfig::fast()).unwrap();
        let pts = p.scatter_data(&bench, &golden).unwrap();
        assert_eq!(pts.len(), bench.segments().len());
        for ((g, _), seg) in pts.iter().zip(bench.segments()) {
            assert_eq!(*g, golden[seg.strap]);
        }
    }

    #[test]
    fn em_safe_widths_satisfy_eq4_after_analysis() {
        use ppdl_analysis::{EmChecker, StaticAnalysis};
        let (bench, golden) = sized();
        let (p, _) = WidthPredictor::train(&bench, &golden, PredictorConfig::fast()).unwrap();
        let jmax = 0.02;
        let safe = p.predict_strap_widths_em_safe(&bench, jmax).unwrap();
        let plain = p.predict_strap_widths(&bench).unwrap();
        // Clamping only ever widens.
        for (s, q) in safe.iter().zip(&plain) {
            assert!(s >= q);
        }
        // Apply the safe widths and verify eq. 4 holds under a real
        // analysis.
        let mut sized = bench.clone();
        sized.set_strap_widths(&safe).unwrap();
        let report = StaticAnalysis::default().solve(sized.network()).unwrap();
        let em = EmChecker::new(jmax).check(&sized, &report).unwrap();
        assert!(
            em.passes(),
            "max density {} exceeds jmax {jmax}",
            em.max_density()
        );
    }

    #[test]
    fn em_safe_rejects_bad_jmax() {
        let (bench, golden) = sized();
        let (p, _) = WidthPredictor::train(&bench, &golden, PredictorConfig::fast()).unwrap();
        assert!(p.predict_strap_widths_em_safe(&bench, 0.0).is_err());
        assert!(p.predict_strap_widths_em_safe(&bench, f64::NAN).is_err());
    }

    #[test]
    fn combined_features_beat_single_features() {
        let (bench, golden) = sized();
        let mut r2s = Vec::new();
        for fs in FeatureSet::ALL {
            let cfg = PredictorConfig {
                feature_set: fs,
                ..PredictorConfig::fast()
            };
            let (p, _) = WidthPredictor::train(&bench, &golden, cfg).unwrap();
            r2s.push(p.evaluate(&bench, &golden).unwrap().r2);
        }
        let combined = r2s[3];
        // Combined should be at least as good as the best single feature
        // (Table I shows a large gap; allow slack for training noise).
        assert!(
            combined + 0.05 >= r2s[0].max(r2s[1]).max(r2s[2]),
            "r2s = {r2s:?}"
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let (bench, golden) = sized();
        let cfg = PredictorConfig {
            hidden_layers: 0,
            ..PredictorConfig::fast()
        };
        assert!(matches!(
            WidthPredictor::train(&bench, &golden, cfg),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn plain_dataset_shapes() {
        let (bench, golden) = sized();
        let ds = segment_dataset(&bench, &golden, FeatureSet::Combined).unwrap();
        assert_eq!(ds.len(), bench.segments().len());
        assert_eq!(ds.x().cols(), 3);
        assert_eq!(ds.y().cols(), 1);
    }
}

//! Spatial width surrogates: rasterised feature maps and the
//! convolutional predictors trained on them.
//!
//! The MLP backend sees one `(X, Y, Id)` row per segment; the spatial
//! backends instead see the whole die at once, rasterised onto an
//! `S × S` grid as two channels — per-cell switching-current density
//! and per-cell wiring resistance — and regress a two-channel width map
//! (vertical widths in channel 0, horizontal in channel 1). Segment
//! widths are then read back from the map cell covering the segment's
//! midpoint, so the spatial predictors plug into exactly the same
//! per-segment / per-strap prediction API as [`WidthPredictor`].
//!
//! [`WidthPredictor`]: crate::WidthPredictor

use ppdl_netlist::{Orientation, SyntheticBenchmark};
use ppdl_nn::{
    metrics, Activation, Dataset, Matrix, Network, NetworkBuilder, StandardScaler, TensorShape,
    TrainReport, Trainer,
};

use crate::{CoreError, FeatureExtractor, FeatureSet, PredictorConfig, WidthMetrics};

/// Number of raster feature channels (current density, resistance).
pub const FEATURE_CHANNELS: usize = 2;
/// Number of raster target channels (vertical widths, horizontal
/// widths).
pub const TARGET_CHANNELS: usize = 2;

/// Which spatial architecture a [`SpatialPredictor`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialArch {
    /// A plain convolution stack at full map resolution.
    Cnn,
    /// A one-level encoder-decoder: convolve, pool ×2, convolve,
    /// upsample ×2, convolve.
    EncoderDecoder,
}

impl SpatialArch {
    /// Stable persistence tag.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            SpatialArch::Cnn => "cnn",
            SpatialArch::EncoderDecoder => "encdec",
        }
    }

    /// Parses a persistence tag.
    #[must_use]
    pub fn parse(tag: &str) -> Option<Self> {
        match tag {
            "cnn" => Some(SpatialArch::Cnn),
            "encdec" => Some(SpatialArch::EncoderDecoder),
            _ => None,
        }
    }
}

/// The rasterised view of one benchmark: feature and target maps as
/// single channel-major rows (`idx = c·S² + y·S + x`), ready for the
/// layer-graph networks.
#[derive(Debug, Clone)]
pub struct RasterMaps {
    /// Raster side length `S`.
    pub map_size: usize,
    /// Feature row, [`FEATURE_CHANNELS`]`·S²` wide: channel 0 is the
    /// switching-current density sampled at each cell centre, channel 1
    /// the summed `sheet_resistance · length` of the segments whose
    /// midpoint falls in the cell.
    pub features: Vec<f64>,
}

impl RasterMaps {
    /// Rasterises `bench` onto an `S × S` grid.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a map size below 2.
    pub fn extract(bench: &SyntheticBenchmark, map_size: usize) -> crate::Result<Self> {
        if map_size < 2 {
            return Err(CoreError::InvalidConfig {
                detail: format!("raster map size {map_size} must be at least 2"),
            });
        }
        let s = map_size;
        let spec = bench.spec();
        let fp = bench.floorplan();
        let mut features = vec![0.0; FEATURE_CHANNELS * s * s];
        // Channel 0: switching-current density at each cell centre —
        // the spatial analogue of the paper's per-segment Id feature.
        for cy in 0..s {
            for cx in 0..s {
                let x = (cx as f64 + 0.5) / s as f64 * spec.die_width;
                let y = (cy as f64 + 0.5) / s as f64 * spec.die_height;
                features[cy * s + cx] = fp
                    .block_at(x, y)
                    .map_or(0.0, ppdl_floorplan::FunctionalBlock::switching_current);
            }
        }
        // Channel 1: wiring resistance. Deliberately width-independent
        // (sheet resistance × length, not the resolved resistor value):
        // the golden widths are the training target, so the input maps
        // must not leak them.
        for seg in bench.segments() {
            let orientation = bench.straps()[seg.strap].orientation;
            let cell = cell_index(spec.die_width, spec.die_height, s, seg.x, seg.y);
            features[s * s + cell] += spec.sheet_resistance(orientation) * seg.length;
        }
        Ok(Self {
            map_size: s,
            features,
        })
    }

    /// The target row for `bench`'s golden widths,
    /// [`TARGET_CHANNELS`]`·S²` wide: per-cell mean golden width of the
    /// vertical (channel 0) and horizontal (channel 1) segments whose
    /// midpoints fall in the cell; cells with no such segment take the
    /// orientation's global mean so the loss stays defined everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `golden_widths` does
    /// not have one entry per strap or a direction has no segments.
    pub fn targets(
        &self,
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
    ) -> crate::Result<Vec<f64>> {
        if golden_widths.len() != bench.straps().len() {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "{} golden widths for {} straps",
                    golden_widths.len(),
                    bench.straps().len()
                ),
            });
        }
        let s = self.map_size;
        let spec = bench.spec();
        let mut sums = vec![0.0; TARGET_CHANNELS * s * s];
        let mut counts = vec![0usize; TARGET_CHANNELS * s * s];
        let mut dir_sum = [0.0; TARGET_CHANNELS];
        let mut dir_count = [0usize; TARGET_CHANNELS];
        for seg in bench.segments() {
            let c = orientation_channel(bench.straps()[seg.strap].orientation);
            let cell = cell_index(spec.die_width, spec.die_height, s, seg.x, seg.y);
            let w = golden_widths[seg.strap];
            sums[c * s * s + cell] += w;
            counts[c * s * s + cell] += 1;
            dir_sum[c] += w;
            dir_count[c] += 1;
        }
        for (c, n) in dir_count.iter().enumerate() {
            if *n == 0 {
                return Err(CoreError::InvalidConfig {
                    detail: format!("benchmark has no segments for target channel {c}"),
                });
            }
        }
        Ok(sums
            .iter()
            .zip(&counts)
            .enumerate()
            .map(|(i, (sum, n))| {
                let c = i / (s * s);
                if *n > 0 {
                    sum / *n as f64
                } else {
                    dir_sum[c] / dir_count[c] as f64
                }
            })
            .collect())
    }
}

/// Flat cell index of the raster cell containing `(x, y)`.
fn cell_index(die_w: f64, die_h: f64, s: usize, x: f64, y: f64) -> usize {
    let clamp = |v: f64, extent: f64| -> usize {
        let cell = (v / extent * s as f64).floor();
        if cell.is_finite() && cell > 0.0 {
            (cell as usize).min(s - 1)
        } else {
            0
        }
    };
    clamp(y, die_h) * s + clamp(x, die_w)
}

/// Raster channel a strap orientation maps to.
fn orientation_channel(orientation: Orientation) -> usize {
    match orientation {
        Orientation::Vertical => 0,
        Orientation::Horizontal => 1,
    }
}

/// Per-channel standardisation of a channel-major row (a map has one
/// sample, so the statistics pool the `S²` cells of each channel —
/// a per-column [`StandardScaler`] would see a single value per
/// column and collapse).
#[derive(Debug, Clone, PartialEq)]
struct ChannelScale {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl ChannelScale {
    fn fit(row: &[f64], channels: usize) -> Self {
        let per = row.len() / channels.max(1);
        let mut means = Vec::with_capacity(channels);
        let mut stds = Vec::with_capacity(channels);
        for c in 0..channels {
            let slice = &row[c * per..(c + 1) * per];
            let mean = slice.iter().sum::<f64>() / per.max(1) as f64;
            let var =
                slice.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / per.max(1) as f64;
            let std = var.sqrt();
            means.push(mean);
            stds.push(if std > 1e-12 { std } else { 1.0 });
        }
        Self { means, stds }
    }

    fn transform(&self, row: &[f64]) -> Vec<f64> {
        let per = row.len() / self.means.len().max(1);
        row.iter()
            .enumerate()
            .map(|(i, v)| {
                let c = i / per;
                (v - self.means[c]) / self.stds[c]
            })
            .collect()
    }

    fn inverse_transform(&self, row: &[f64]) -> Vec<f64> {
        let per = row.len() / self.means.len().max(1);
        row.iter()
            .enumerate()
            .map(|(i, v)| {
                let c = i / per;
                v * self.stds[c] + self.means[c]
            })
            .collect()
    }
}

/// A trained spatial surrogate: a convolutional [`Network`] regressing
/// the two-channel width map from the two-channel raster features, plus
/// the per-channel standardisation it was trained under.
///
/// Mirrors the [`WidthPredictor`](crate::WidthPredictor) prediction
/// API (per-segment, per-strap sampled, evaluate) so the two slot into
/// the same flow interchangeably.
#[derive(Debug, Clone)]
pub struct SpatialPredictor {
    model: Network,
    arch: SpatialArch,
    map_size: usize,
    feature_scale: ChannelScale,
    target_scale: ChannelScale,
    min_width: f64,
}

impl SpatialPredictor {
    /// Trains a spatial predictor on a benchmark and its golden widths.
    ///
    /// The training set is the benchmark's own raster pair — one
    /// sample — so training amounts to fitting the width map given the
    /// density/resistance maps; generalisation is what the
    /// cross-preset transfer matrix measures.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a degenerate map size
    /// (below 2, or odd for the encoder-decoder) or zero convolution
    /// channels; propagates training errors.
    pub fn train(
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
        arch: SpatialArch,
        config: &PredictorConfig,
    ) -> crate::Result<(Self, TrainReport)> {
        let s = config.map_size;
        let f = config.conv_channels;
        if f == 0 {
            return Err(CoreError::InvalidConfig {
                detail: "spatial predictor needs at least one convolution channel".into(),
            });
        }
        if arch == SpatialArch::EncoderDecoder && s % 2 != 0 {
            return Err(CoreError::InvalidConfig {
                detail: format!("encoder-decoder needs an even map size, got {s}"),
            });
        }
        let raster = RasterMaps::extract(bench, s)?;
        let targets = raster.targets(bench, golden_widths)?;
        let feature_scale = ChannelScale::fit(&raster.features, FEATURE_CHANNELS);
        let target_scale = ChannelScale::fit(&targets, TARGET_CHANNELS);

        let input = TensorShape::Chw {
            c: FEATURE_CHANNELS,
            h: s,
            w: s,
        };
        let builder = NetworkBuilder::new(input).seed(config.seed);
        let builder = match arch {
            SpatialArch::Cnn => builder
                .conv2d(f, 3, Activation::Relu)
                .conv2d(f, 3, Activation::Relu)
                .conv2d(TARGET_CHANNELS, 3, Activation::Identity),
            SpatialArch::EncoderDecoder => builder
                .conv2d(f, 3, Activation::Relu)
                .max_pool(2)
                .conv2d(2 * f, 3, Activation::Relu)
                .upsample(2)
                .conv2d(TARGET_CHANNELS, 3, Activation::Identity),
        };
        let mut model = builder.build()?;

        let x = Matrix::from_vec(
            1,
            raster.features.len(),
            feature_scale.transform(&raster.features),
        )?;
        let y = Matrix::from_vec(1, targets.len(), target_scale.transform(&targets))?;
        let data = Dataset::new(x, y)?;
        let report = Trainer::new(config.train.clone()).fit(&mut model, &data)?;
        Ok((
            Self {
                model,
                arch,
                map_size: s,
                feature_scale,
                target_scale,
                min_width: config.min_width,
            },
            report,
        ))
    }

    /// The architecture this predictor was built with.
    #[must_use]
    pub fn arch(&self) -> SpatialArch {
        self.arch
    }

    /// The raster side length `S`.
    #[must_use]
    pub fn map_size(&self) -> usize {
        self.map_size
    }

    /// The configured minimum width clamp (µm).
    #[must_use]
    pub fn min_width(&self) -> f64 {
        self.min_width
    }

    /// The underlying layer-graph network.
    #[must_use]
    pub fn model(&self) -> &Network {
        &self.model
    }

    /// Checks the model against the raster geometry: the network must
    /// map a [`FEATURE_CHANNELS`]`×S×S` input to a
    /// [`TARGET_CHANNELS`]`·S²` output, and the channel scalers must
    /// cover exactly the channel counts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BundleMismatch`] naming the offending
    /// dimensions.
    pub fn validate_shapes(&self) -> crate::Result<()> {
        let s = self.map_size;
        let want_in = FEATURE_CHANNELS * s * s;
        let got_in = self.model.input_shape().len();
        if got_in != want_in {
            return Err(CoreError::BundleMismatch {
                detail: format!(
                    "spatial model expects {got_in} inputs but a {FEATURE_CHANNELS}x{s}x{s} \
                     raster is {want_in} wide"
                ),
            });
        }
        let want_out = TARGET_CHANNELS * s * s;
        let got_out = self.model.output_shape().len();
        if got_out != want_out {
            return Err(CoreError::BundleMismatch {
                detail: format!(
                    "spatial model emits {got_out} outputs but a {TARGET_CHANNELS}x{s}x{s} \
                     width map is {want_out} wide"
                ),
            });
        }
        if self.feature_scale.means.len() != FEATURE_CHANNELS
            || self.target_scale.means.len() != TARGET_CHANNELS
        {
            return Err(CoreError::BundleMismatch {
                detail: format!(
                    "spatial channel scalers cover {}/{} channels; need \
                     {FEATURE_CHANNELS}/{TARGET_CHANNELS}",
                    self.feature_scale.means.len(),
                    self.target_scale.means.len()
                ),
            });
        }
        Ok(())
    }

    /// Predicts the unscaled two-channel width map for `bench`.
    fn predict_map(&self, bench: &SyntheticBenchmark) -> crate::Result<Vec<f64>> {
        let raster = RasterMaps::extract(bench, self.map_size)?;
        let scaled = self.feature_scale.transform(&raster.features);
        let x = Matrix::from_vec(1, scaled.len(), scaled)?;
        let out = self.model.predict(&x)?;
        Ok(self.target_scale.inverse_transform(out.row(0)))
    }

    /// Predicts a width for every segment of `bench`, in µm, clamped to
    /// the configured minimum: each segment reads the map cell covering
    /// its midpoint, in its strap's orientation channel.
    ///
    /// # Errors
    ///
    /// Propagates raster and network shape errors.
    pub fn predict_segments(&self, bench: &SyntheticBenchmark) -> crate::Result<Vec<f64>> {
        let map = self.predict_map(bench)?;
        let s = self.map_size;
        let spec = bench.spec();
        Ok(bench
            .segments()
            .iter()
            .map(|seg| {
                let c = orientation_channel(bench.straps()[seg.strap].orientation);
                let cell = cell_index(spec.die_width, spec.die_height, s, seg.x, seg.y);
                map[c * s * s + cell].max(self.min_width)
            })
            .collect())
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

    /// Per-strap widths from every `stride`-th segment of each strap —
    /// the same subsampling contract as
    /// [`WidthPredictor::predict_strap_widths_sampled`]; straps with no
    /// sampled segment keep their current width.
    ///
    /// [`WidthPredictor::predict_strap_widths_sampled`]:
    /// crate::WidthPredictor::predict_strap_widths_sampled
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
        let map = self.predict_map(bench)?;
        let s = self.map_size;
        let spec = bench.spec();
        let n_straps = bench.straps().len();
        let mut sums = vec![0.0; n_straps];
        let mut counts = vec![0usize; n_straps];
        let mut seen = vec![0usize; n_straps];
        for seg in bench.segments() {
            let si = seg.strap;
            if seen[si] % stride == 0 {
                let c = orientation_channel(bench.straps()[si].orientation);
                let cell = cell_index(spec.die_width, spec.die_height, s, seg.x, seg.y);
                sums[si] += map[c * s * s + cell].max(self.min_width);
                counts[si] += 1;
            }
            seen[si] += 1;
        }
        Ok(sums
            .iter()
            .zip(&counts)
            .zip(bench.straps())
            .map(|((sum, n), strap)| {
                if *n > 0 {
                    (sum / *n as f64).max(self.min_width)
                } else {
                    strap.width
                }
            })
            .collect())
    }

    /// Evaluates the predictor against golden widths at segment
    /// granularity — the same [`WidthMetrics`] contract as
    /// [`WidthPredictor::evaluate`](crate::WidthPredictor::evaluate).
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
        let golden =
            FeatureExtractor::new(FeatureSet::Combined).raw_targets(bench, golden_widths)?;
        let pred = Matrix::from_vec(predicted.len(), 1, predicted)?;
        let r2 = metrics::r2_score(&pred, &golden)?;
        let mse_um2 = metrics::mse(&pred, &golden)?;
        let correlation = metrics::pearson(&pred, &golden)?;
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

    /// Serialises the predictor in the `ppdl-spatial v1` text format
    /// (header fields, channel scales, then the embedded
    /// `ppdl-net v1` network).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from("ppdl-spatial v1\n");
        out.push_str(&format!("arch {}\n", self.arch.tag()));
        out.push_str(&format!("map_size {}\n", self.map_size));
        out.push_str(&format!("min_width {}\n", self.min_width));
        for (tag, scale) in [
            ("feature_scale", &self.feature_scale),
            ("target_scale", &self.target_scale),
        ] {
            let mut line = String::from(tag);
            for (m, sd) in scale.means.iter().zip(&scale.stds) {
                line.push_str(&format!(" {m} {sd}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&self.model.to_text());
        out.push_str("end-spatial\n");
        out
    }

    /// Parses the `ppdl-spatial v1` text format and validates the
    /// decoded shapes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BundleMismatch`] for a malformed or
    /// truncated text, and propagates network decode errors.
    pub fn from_text(text: &str) -> crate::Result<Self> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default().trim();
        if header != "ppdl-spatial v1" {
            return Err(CoreError::BundleMismatch {
                detail: format!("expected header 'ppdl-spatial v1', found '{header}'"),
            });
        }
        let arch_tag = tagged_value(&mut lines, "arch")?;
        let arch = SpatialArch::parse(&arch_tag).ok_or_else(|| CoreError::BundleMismatch {
            detail: format!("unknown spatial architecture '{arch_tag}'"),
        })?;
        let map_size: usize = parse_num(&tagged_value(&mut lines, "map_size")?, "map_size")?;
        let min_width: f64 = parse_num(&tagged_value(&mut lines, "min_width")?, "min_width")?;
        let feature_scale = parse_scale(
            &tagged_rest(&mut lines, "feature_scale")?,
            FEATURE_CHANNELS,
            "feature_scale",
        )?;
        let target_scale = parse_scale(
            &tagged_rest(&mut lines, "target_scale")?,
            TARGET_CHANNELS,
            "target_scale",
        )?;
        let mut body = String::new();
        let mut terminated = false;
        for line in lines.by_ref() {
            if line.trim() == "end-spatial" {
                terminated = true;
                break;
            }
            body.push_str(line);
            body.push('\n');
        }
        if !terminated {
            return Err(CoreError::BundleMismatch {
                detail: "spatial text missing end-spatial terminator".into(),
            });
        }
        let model = Network::from_text(&body)?;
        let decoded = Self {
            model,
            arch,
            map_size,
            feature_scale,
            target_scale,
            min_width,
        };
        decoded.validate_shapes()?;
        Ok(decoded)
    }
}

/// Reads a `tag value` line, returning the single value.
fn tagged_value(lines: &mut std::str::Lines<'_>, tag: &str) -> crate::Result<String> {
    let rest = tagged_rest(lines, tag)?;
    let mut fields = rest.split_whitespace();
    let value = fields.next().unwrap_or_default().to_string();
    if value.is_empty() || fields.next().is_some() {
        return Err(CoreError::BundleMismatch {
            detail: format!("'{tag}' line needs exactly one value"),
        });
    }
    Ok(value)
}

/// Reads a `tag ...` line, returning everything after the tag.
fn tagged_rest(lines: &mut std::str::Lines<'_>, tag: &str) -> crate::Result<String> {
    let line = lines.next().ok_or_else(|| CoreError::BundleMismatch {
        detail: format!("spatial text ends before '{tag}' line"),
    })?;
    line.strip_prefix(tag)
        .map(|rest| rest.trim().to_string())
        .ok_or_else(|| CoreError::BundleMismatch {
            detail: format!("expected '{tag}' line, found '{}'", line.trim()),
        })
}

/// Parses a number, mapping failures to a bundle mismatch naming the
/// field.
fn parse_num<T: std::str::FromStr>(token: &str, field: &str) -> crate::Result<T> {
    token.parse().map_err(|_| CoreError::BundleMismatch {
        detail: format!("invalid {field} value '{token}'"),
    })
}

/// Parses `mean std` pairs for `channels` channels.
fn parse_scale(rest: &str, channels: usize, field: &str) -> crate::Result<ChannelScale> {
    let values: Vec<f64> = rest
        .split_whitespace()
        .map(|t| parse_num(t, field))
        .collect::<crate::Result<_>>()?;
    if values.len() != 2 * channels {
        return Err(CoreError::BundleMismatch {
            detail: format!(
                "'{field}' line has {} values; {channels} channels need {}",
                values.len(),
                2 * channels
            ),
        });
    }
    let means = values.iter().step_by(2).copied().collect();
    let stds = values.iter().skip(1).step_by(2).copied().collect();
    Ok(ChannelScale { means, stds })
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
    fn raster_has_expected_geometry() {
        let (bench, golden) = sized();
        let raster = RasterMaps::extract(&bench, 8).unwrap();
        assert_eq!(raster.features.len(), FEATURE_CHANNELS * 64);
        // The resistance channel accounts for every segment exactly
        // once.
        let spec = bench.spec();
        let total: f64 = bench
            .segments()
            .iter()
            .map(|seg| spec.sheet_resistance(bench.straps()[seg.strap].orientation) * seg.length)
            .sum();
        let channel: f64 = raster.features[64..].iter().sum();
        assert!((total - channel).abs() < 1e-9 * total.max(1.0));
        let targets = raster.targets(&bench, &golden).unwrap();
        assert_eq!(targets.len(), TARGET_CHANNELS * 64);
        assert!(targets.iter().all(|w| *w > 0.0));
    }

    #[test]
    fn raster_rejects_degenerate_inputs() {
        let (bench, golden) = sized();
        assert!(matches!(
            RasterMaps::extract(&bench, 1),
            Err(CoreError::InvalidConfig { .. })
        ));
        let raster = RasterMaps::extract(&bench, 4).unwrap();
        assert!(matches!(
            raster.targets(&bench, &golden[..2]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn cnn_trains_and_predicts_physical_widths() {
        let (bench, golden) = sized();
        let config = PredictorConfig::fast();
        let (p, report) =
            SpatialPredictor::train(&bench, &golden, SpatialArch::Cnn, &config).unwrap();
        assert!(report.epochs_run > 0);
        let first = report.train_losses.first().copied().unwrap();
        let last = report.train_losses.last().copied().unwrap();
        assert!(last < first, "loss did not drop: {first} -> {last}");
        let per_seg = p.predict_segments(&bench).unwrap();
        assert_eq!(per_seg.len(), bench.segments().len());
        assert!(per_seg.iter().all(|w| *w >= config.min_width));
        let m = p.evaluate(&bench, &golden).unwrap();
        assert!(m.r2.is_finite());
        assert!(
            m.r2 > 0.0,
            "on-preset raster fit should be positive: {}",
            m.r2
        );
    }

    #[test]
    fn encoder_decoder_round_trips_geometry() {
        let (bench, golden) = sized();
        let config = PredictorConfig::fast();
        let (p, _) =
            SpatialPredictor::train(&bench, &golden, SpatialArch::EncoderDecoder, &config).unwrap();
        assert_eq!(p.arch(), SpatialArch::EncoderDecoder);
        let w = p.predict_strap_widths(&bench).unwrap();
        assert_eq!(w.len(), bench.straps().len());
        assert!(w.iter().all(|v| *v >= config.min_width));
    }

    #[test]
    fn encoder_decoder_needs_even_map() {
        let (bench, golden) = sized();
        let config = PredictorConfig {
            map_size: 7,
            ..PredictorConfig::fast()
        };
        assert!(matches!(
            SpatialPredictor::train(&bench, &golden, SpatialArch::EncoderDecoder, &config),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn sampled_strap_widths_match_full_at_stride_one() {
        let (bench, golden) = sized();
        let (p, _) =
            SpatialPredictor::train(&bench, &golden, SpatialArch::Cnn, &PredictorConfig::fast())
                .unwrap();
        let full = p.predict_strap_widths(&bench).unwrap();
        let sampled = p.predict_strap_widths_sampled(&bench, 1).unwrap();
        assert_eq!(full, sampled);
        let strided = p.predict_strap_widths_sampled(&bench, 4).unwrap();
        assert_eq!(strided.len(), full.len());
        assert!(strided.iter().all(|w| *w >= p.min_width()));
    }

    #[test]
    fn persistence_round_trips_bitwise() {
        let (bench, golden) = sized();
        let (p, _) =
            SpatialPredictor::train(&bench, &golden, SpatialArch::Cnn, &PredictorConfig::fast())
                .unwrap();
        let text = p.to_text();
        let back = SpatialPredictor::from_text(&text).unwrap();
        assert_eq!(back.to_text(), text);
        assert_eq!(
            back.predict_segments(&bench).unwrap(),
            p.predict_segments(&bench).unwrap()
        );
    }

    #[test]
    fn malformed_texts_rejected() {
        let (bench, golden) = sized();
        let (p, _) =
            SpatialPredictor::train(&bench, &golden, SpatialArch::Cnn, &PredictorConfig::fast())
                .unwrap();
        let text = p.to_text();
        for broken in [
            text.replace("ppdl-spatial v1", "ppdl-spatial v9"),
            text.replace("arch cnn", "arch transformer"),
            text.replace("end-spatial\n", ""),
        ] {
            assert!(matches!(
                SpatialPredictor::from_text(&broken),
                Err(CoreError::BundleMismatch { .. }) | Err(CoreError::Nn(_))
            ));
        }
    }
}

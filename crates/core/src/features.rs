//! Feature extraction (§IV-B of the paper).
//!
//! Each power-grid interconnect (wire segment) contributes one training
//! sample: the quadruple `(X, Y, Id, wᵢ)` where `(X, Y)` is the
//! segment's location on the floorplan, `Id` is the switching current
//! of the functional block under it (from the front-end activity data),
//! and `wᵢ` is the golden width produced by the conventional flow.

use ppdl_netlist::{SegmentInfo, SyntheticBenchmark};
use ppdl_nn::{Dataset, Matrix, StandardScaler};

use crate::CoreError;

/// Which input features the model sees — the Table I / Fig. 4(b)
/// ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeatureSet {
    /// X coordinate only.
    X,
    /// Y coordinate only.
    Y,
    /// Switching current only.
    Id,
    /// All three (the paper's choice: highest r²).
    #[default]
    Combined,
}

impl FeatureSet {
    /// All variants, in Table I column order.
    pub const ALL: [FeatureSet; 4] = [
        FeatureSet::X,
        FeatureSet::Y,
        FeatureSet::Id,
        FeatureSet::Combined,
    ];

    /// Number of feature columns.
    #[must_use]
    pub fn width(self) -> usize {
        match self {
            FeatureSet::Combined => 3,
            _ => 1,
        }
    }

    /// Table-friendly label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FeatureSet::X => "X coordinate",
            FeatureSet::Y => "Y coordinate",
            FeatureSet::Id => "Id",
            FeatureSet::Combined => "Combined",
        }
    }
}

/// A prepared width-regression dataset: standardised features and
/// targets plus the scalers needed to undo the standardisation at
/// prediction time.
#[derive(Debug, Clone)]
pub struct WidthDataset {
    /// The standardised (features, widths) pairs.
    pub data: Dataset,
    /// Scaler fitted on the raw features.
    pub feature_scaler: StandardScaler,
    /// Scaler fitted on the raw widths.
    pub target_scaler: StandardScaler,
    /// Which features the columns hold.
    pub feature_set: FeatureSet,
}

/// Extracts `(X, Y, Id)` features from a benchmark's segments.
///
/// # Example
///
/// ```
/// use ppdl_core::{FeatureExtractor, FeatureSet};
/// use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
///
/// let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 3).unwrap();
/// let raw = FeatureExtractor::new(FeatureSet::Combined).raw_features(&bench);
/// assert_eq!(raw.rows(), bench.segments().len());
/// assert_eq!(raw.cols(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FeatureExtractor {
    feature_set: FeatureSet,
}

impl FeatureExtractor {
    /// Creates an extractor for the given feature subset.
    #[must_use]
    pub fn new(feature_set: FeatureSet) -> Self {
        Self { feature_set }
    }

    /// The configured feature subset.
    #[must_use]
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// The raw (unscaled) feature matrix, one row per segment.
    ///
    /// `Id` for a segment is the switching current of the functional
    /// block covering its midpoint, `0` over whitespace — exactly the
    /// per-location activity the paper reads from the VCD file.
    #[must_use]
    pub fn raw_features(&self, bench: &SyntheticBenchmark) -> Matrix {
        let segs = bench.segments();
        self.rows(bench, segs.len(), |r| &segs[r])
    }

    /// Raw features for a subset of segments (by index), one row per
    /// entry of `indices`, in order.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn raw_features_for(&self, bench: &SyntheticBenchmark, indices: &[usize]) -> Matrix {
        let segs = bench.segments();
        self.rows(bench, indices.len(), |r| &segs[indices[r]])
    }

    /// One feature row per segment `seg(0..rows)`. `Id` needs a
    /// floorplan lookup, made once per row rather than once per column.
    fn rows<'a>(
        &self,
        bench: &SyntheticBenchmark,
        rows: usize,
        seg: impl Fn(usize) -> &'a SegmentInfo,
    ) -> Matrix {
        let fp = bench.floorplan();
        let fs = self.feature_set;
        let id_current: Vec<f64> = match fs {
            FeatureSet::Id | FeatureSet::Combined => (0..rows)
                .map(|r| {
                    let s = seg(r);
                    fp.block_at(s.x, s.y)
                        .map_or(0.0, ppdl_floorplan::FunctionalBlock::switching_current)
                })
                .collect(),
            FeatureSet::X | FeatureSet::Y => Vec::new(),
        };
        Matrix::from_fn(rows, fs.width(), |r, c| match (fs, c) {
            (FeatureSet::X | FeatureSet::Combined, 0) => seg(r).x,
            (FeatureSet::Y, 0) | (FeatureSet::Combined, 1) => seg(r).y,
            (FeatureSet::Id, 0) | (FeatureSet::Combined, 2) => id_current[r],
            // ppdl-lint: allow(robustness/panic-reachable) -- Matrix::from_fn only passes c < fs.width(), and every (set, column) pair below that bound is matched above; this arm cannot execute for any request
            _ => unreachable!("feature width bounded by FeatureSet::width"),
        })
    }

    /// The raw width-target column: each segment's golden strap width.
    /// `golden_widths` is indexed by strap id (as produced by the
    /// conventional flow).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `golden_widths` does not
    /// have one entry per strap.
    pub fn raw_targets(
        &self,
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
    ) -> crate::Result<Matrix> {
        if golden_widths.len() != bench.straps().len() {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "{} golden widths for {} straps",
                    golden_widths.len(),
                    bench.straps().len()
                ),
            });
        }
        let segs = bench.segments();
        Ok(Matrix::from_fn(segs.len(), 1, |r, _| {
            golden_widths[segs[r].strap]
        }))
    }

    /// Builds the standardised training dataset (features and targets
    /// scaled to zero mean / unit variance).
    ///
    /// # Errors
    ///
    /// Propagates dataset/scaler construction errors, e.g. for a
    /// benchmark with no segments.
    pub fn dataset(
        &self,
        bench: &SyntheticBenchmark,
        golden_widths: &[f64],
    ) -> crate::Result<WidthDataset> {
        let raw_x = self.raw_features(bench);
        let raw_y = self.raw_targets(bench, golden_widths)?;
        let feature_scaler = StandardScaler::fit(&raw_x)?;
        let target_scaler = StandardScaler::fit(&raw_y)?;
        let data = Dataset::new(
            feature_scaler.transform(&raw_x)?,
            target_scaler.transform(&raw_y)?,
        )?;
        Ok(WidthDataset {
            data,
            feature_scaler,
            target_scaler,
            feature_set: self.feature_set,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_netlist::{GridSpec, IbmPgPreset};

    fn bench() -> SyntheticBenchmark {
        SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 5).unwrap()
    }

    #[test]
    fn feature_widths() {
        assert_eq!(FeatureSet::X.width(), 1);
        assert_eq!(FeatureSet::Combined.width(), 3);
        assert_eq!(FeatureSet::ALL.len(), 4);
    }

    #[test]
    fn combined_columns_are_x_y_id() {
        let b = bench();
        let combined = FeatureExtractor::new(FeatureSet::Combined).raw_features(&b);
        let x = FeatureExtractor::new(FeatureSet::X).raw_features(&b);
        let y = FeatureExtractor::new(FeatureSet::Y).raw_features(&b);
        let id = FeatureExtractor::new(FeatureSet::Id).raw_features(&b);
        for r in 0..combined.rows() {
            assert_eq!(combined.get(r, 0), x.get(r, 0));
            assert_eq!(combined.get(r, 1), y.get(r, 0));
            assert_eq!(combined.get(r, 2), id.get(r, 0));
        }
    }

    #[test]
    fn features_match_segment_midpoints() {
        let b = bench();
        let m = FeatureExtractor::new(FeatureSet::Combined).raw_features(&b);
        for (r, seg) in b.segments().iter().enumerate() {
            assert_eq!(m.get(r, 0), seg.x);
            assert_eq!(m.get(r, 1), seg.y);
        }
    }

    #[test]
    fn id_zero_over_whitespace() {
        // A floorplan with a single small block: most segments see Id=0.
        let spec = GridSpec {
            die_width: 400.0,
            die_height: 400.0,
            v_straps: 8,
            h_straps: 8,
            ..GridSpec::default()
        };
        let mut fp = ppdl_floorplan::Floorplan::new(400.0, 400.0).unwrap();
        fp.add_block(ppdl_floorplan::FunctionalBlock::new("b", 0.0, 0.0, 60.0, 60.0, 0.7).unwrap())
            .unwrap();
        let b = SyntheticBenchmark::generate("t", spec, fp).unwrap();
        let id = FeatureExtractor::new(FeatureSet::Id).raw_features(&b);
        let nonzero = id.as_slice().iter().filter(|v| **v > 0.0).count();
        assert!(nonzero > 0);
        assert!(nonzero < id.rows() / 2);
        // Non-zero entries equal the block current exactly.
        for v in id.as_slice() {
            assert!(*v == 0.0 || (*v - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn targets_follow_strap_ids() {
        let b = bench();
        let widths: Vec<f64> = (0..b.straps().len()).map(|i| 1.0 + i as f64).collect();
        let t = FeatureExtractor::default()
            .raw_targets(&b, &widths)
            .unwrap();
        for (r, seg) in b.segments().iter().enumerate() {
            assert_eq!(t.get(r, 0), widths[seg.strap]);
        }
    }

    #[test]
    fn wrong_width_count_rejected() {
        let b = bench();
        let err = FeatureExtractor::default()
            .raw_targets(&b, &[1.0, 2.0])
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn dataset_is_standardised() {
        let b = bench();
        let widths: Vec<f64> = b.strap_widths().iter().map(|w| w * 1.3).collect();
        let ds = FeatureExtractor::default().dataset(&b, &widths).unwrap();
        assert_eq!(ds.data.len(), b.segments().len());
        // Standardised features: overall mean near zero.
        assert!(ds.data.x().mean().abs() < 1e-9);
        // Scalers invert.
        let back = ds.target_scaler.inverse_transform(ds.data.y()).unwrap();
        for (v, seg) in back.as_slice().iter().zip(b.segments()) {
            assert!((v - widths[seg.strap]).abs() < 1e-9);
        }
    }
}

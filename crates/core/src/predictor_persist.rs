//! Persistence for trained [`WidthPredictor`]s.
//!
//! A production flow trains once on a signed-off design and reuses the
//! model across design revisions (the incremental use case the paper
//! recommends), so the whole predictor — both direction models and all
//! four scalers — serialises to one versioned text blob.

use ppdl_nn::{Network, StandardScaler};

use crate::predictor::DirectionModel;
use crate::{CoreError, FeatureSet, WidthPredictor};

impl WidthPredictor {
    /// Serialises the predictor (models + scalers + configuration).
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ppdl-width-predictor v1");
        let _ = writeln!(out, "feature_set {}", feature_tag(self.feature_set()));
        let _ = writeln!(out, "min_width {}", self.min_width());
        for (tag, model) in [
            ("vertical", self.vertical_model()),
            ("horizontal", self.horizontal_model()),
        ] {
            let _ = writeln!(out, "direction {tag}");
            write_scaler(&mut out, "features", &model.feature_scaler);
            write_scaler(&mut out, "targets", &model.target_scaler);
            out.push_str(&model.model.to_text());
        }
        out.push_str("end-predictor\n");
        out
    }

    /// Reconstructs a predictor from [`to_text`](Self::to_text) output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] (with a description) for any
    /// malformed input, and propagates model-decoding errors.
    pub fn from_text(text: &str) -> crate::Result<Self> {
        let mut lines = text.lines().peekable();
        let expect = |line: Option<&str>, what: &str| -> crate::Result<String> {
            line.map(str::to_string)
                .ok_or_else(|| CoreError::InvalidConfig {
                    detail: format!("unexpected end of predictor file, wanted {what}"),
                })
        };
        let header = expect(lines.next(), "header")?;
        if header.trim() != "ppdl-width-predictor v1" {
            return Err(CoreError::InvalidConfig {
                detail: format!("bad predictor header '{header}'"),
            });
        }
        let fs_line = expect(lines.next(), "feature_set")?;
        let feature_set =
            parse_feature_tag(fs_line.trim().strip_prefix("feature_set ").ok_or_else(|| {
                CoreError::InvalidConfig {
                    detail: format!("bad feature_set line '{fs_line}'"),
                }
            })?)?;
        let mw_line = expect(lines.next(), "min_width")?;
        let min_width: f64 = mw_line
            .trim()
            .strip_prefix("min_width ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CoreError::InvalidConfig {
                detail: format!("bad min_width line '{mw_line}'"),
            })?;

        let mut models: Vec<(String, DirectionModel)> = Vec::new();
        loop {
            let line = expect(lines.next(), "direction or end-predictor")?;
            let line = line.trim();
            if line == "end-predictor" {
                break;
            }
            let tag = line
                .strip_prefix("direction ")
                .ok_or_else(|| CoreError::InvalidConfig {
                    detail: format!("expected 'direction <tag>', found '{line}'"),
                })?
                .to_string();
            let feature_scaler = read_scaler(&mut lines, "features")?;
            let target_scaler = read_scaler(&mut lines, "targets")?;
            // The embedded model runs until its own "end" line.
            let mut model_text = String::new();
            loop {
                let l = expect(lines.next(), "model body")?;
                model_text.push_str(&l);
                model_text.push('\n');
                if l.trim() == "end" {
                    break;
                }
            }
            let model = Network::from_text(&model_text)?;
            models.push((
                tag,
                DirectionModel {
                    model,
                    feature_scaler,
                    target_scaler,
                },
            ));
        }
        let mut vertical = None;
        let mut horizontal = None;
        for (tag, m) in models {
            match tag.as_str() {
                "vertical" => vertical = Some(m),
                "horizontal" => horizontal = Some(m),
                other => {
                    return Err(CoreError::InvalidConfig {
                        detail: format!("unknown direction tag '{other}'"),
                    })
                }
            }
        }
        let (Some(vertical), Some(horizontal)) = (vertical, horizontal) else {
            return Err(CoreError::InvalidConfig {
                detail: "predictor file must contain both directions".into(),
            });
        };
        let predictor = WidthPredictor::from_parts(vertical, horizontal, feature_set, min_width);
        // Loading is the trust boundary: a hand-edited or mixed-version
        // file must fail typed here, not panic rows-vs-cols later.
        predictor.validate_shapes()?;
        Ok(predictor)
    }
}

fn feature_tag(fs: FeatureSet) -> &'static str {
    match fs {
        FeatureSet::X => "x",
        FeatureSet::Y => "y",
        FeatureSet::Id => "id",
        FeatureSet::Combined => "combined",
    }
}

fn parse_feature_tag(tag: &str) -> crate::Result<FeatureSet> {
    match tag {
        "x" => Ok(FeatureSet::X),
        "y" => Ok(FeatureSet::Y),
        "id" => Ok(FeatureSet::Id),
        "combined" => Ok(FeatureSet::Combined),
        other => Err(CoreError::InvalidConfig {
            detail: format!("unknown feature set '{other}'"),
        }),
    }
}

fn write_scaler(out: &mut String, tag: &str, scaler: &StandardScaler) {
    use std::fmt::Write as _;
    let join = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(out, "scaler {tag} {}", scaler.means().len());
    let _ = writeln!(out, "{}", join(scaler.means()));
    let _ = writeln!(out, "{}", join(scaler.stds()));
}

fn read_scaler<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    tag: &str,
) -> crate::Result<StandardScaler> {
    let header = lines.next().ok_or_else(|| CoreError::InvalidConfig {
        detail: format!("missing scaler {tag} header"),
    })?;
    let expected_prefix = format!("scaler {tag} ");
    if !header.trim_start().starts_with(&expected_prefix) {
        return Err(CoreError::InvalidConfig {
            detail: format!("expected '{expected_prefix}<n>', found '{header}'"),
        });
    }
    let parse_row = |line: Option<&str>| -> crate::Result<Vec<f64>> {
        line.ok_or_else(|| CoreError::InvalidConfig {
            detail: format!("missing scaler {tag} row"),
        })?
        .split_whitespace()
        .map(|t| {
            t.parse().map_err(|_| CoreError::InvalidConfig {
                detail: format!("bad scaler value '{t}'"),
            })
        })
        .collect()
    };
    let means = parse_row(lines.next())?;
    let stds = parse_row(lines.next())?;
    Ok(StandardScaler::from_parts(means, stds)?)
}

#[cfg(test)]
mod tests {
    use crate::pipeline::{run_stage, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx};
    use crate::{DlFlowConfig, PredictorConfig, WidthPredictor};
    use ppdl_netlist::IbmPgPreset;

    fn trained() -> (ppdl_netlist::SyntheticBenchmark, Vec<f64>, WidthPredictor) {
        let mut ctx = PipelineCtx::new(DlFlowConfig::default(), None);
        let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.005, 41);
        run_stage(&source, &mut ctx).unwrap();
        run_stage(&FeatureExtractStage, &mut ctx).unwrap();
        let sizing = ctx.sizing.take().unwrap();
        let (p, _) = WidthPredictor::train(
            &sizing.sized,
            &sizing.golden_widths,
            PredictorConfig::fast(),
        )
        .unwrap();
        (sizing.sized, sizing.golden_widths, p)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (bench, _, p) = trained();
        let text = p.to_text();
        let back = WidthPredictor::from_text(&text).unwrap();
        assert_eq!(
            back.predict_segments(&bench).unwrap(),
            p.predict_segments(&bench).unwrap()
        );
        assert_eq!(back.feature_set(), p.feature_set());
    }

    #[test]
    fn round_trip_preserves_metrics() {
        let (bench, golden, p) = trained();
        let back = WidthPredictor::from_text(&p.to_text()).unwrap();
        let m1 = p.evaluate(&bench, &golden).unwrap();
        let m2 = back.evaluate(&bench, &golden).unwrap();
        assert_eq!(m1.r2, m2.r2);
        assert_eq!(m1.mse_um2, m2.mse_um2);
    }

    #[test]
    fn bad_inputs_rejected() {
        let (_, _, p) = trained();
        let text = p.to_text();
        assert!(WidthPredictor::from_text("nonsense").is_err());
        assert!(WidthPredictor::from_text(&text.replace("v1", "v7")).is_err());
        assert!(WidthPredictor::from_text(&text[..text.len() / 2]).is_err());
        let one_dir = text.replace("direction horizontal", "direction sideways");
        assert!(WidthPredictor::from_text(&one_dir).is_err());
    }
}

//! The DL path: one ECO answer through `predict`, and its replay as
//! the phases `predict` runs internally, each timed from outside by
//! calling the layer's public functions in the same order.

use std::time::Instant;

use ppdl_core::predict::{predict, PredictRequest, Prediction};
use ppdl_core::{FeatureExtractor, IrPredictor};
use ppdl_netlist::{Orientation, SyntheticBenchmark};
use ppdl_nn::Matrix;

use crate::fixture::Fixture;
use crate::ledger::NN_LAYERS;
use crate::Error;

/// One timed answer.
pub fn answer(fx: &Fixture, request: &PredictRequest) -> Result<(f64, Prediction), Error> {
    let t0 = Instant::now();
    let p = predict(
        &fx.bundle.predictor,
        &fx.base,
        request,
        fx.bundle.meta.inference_stride,
    )?;
    Ok((ms(t0), p))
}

/// Milliseconds since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Reads a counter of the global `ppdl-obs` registry.
pub fn counter(name: &str) -> u64 {
    ppdl_obs::global().counter(name).get()
}

/// The phases of one answer, in milliseconds (counts as counts).
#[derive(Debug, Clone, Default)]
pub struct DlPhases {
    pub apply: f64,
    pub features: f64,
    pub forward: f64,
    pub layers: [f64; NN_LAYERS],
    pub gemm_fmas: f64,
    pub coarse: f64,
    pub sweeps: f64,
    pub cg_iters: f64,
}

impl DlPhases {
    /// The phases that partition `predict` (the per-layer times are a
    /// breakdown of `forward`, not an addend).
    pub fn parts(&self) -> [f64; 5] {
        [
            self.apply,
            self.features,
            self.forward,
            self.coarse,
            self.sweeps,
        ]
    }
}

/// Replays `predict(request)` as its phases. `widths` are the answer's
/// widths, which the Kirchhoff phases score. A width-override request
/// skips inference, as `predict` does, and leaves the NN phases at 0.
///
/// The NN forward runs on the raw feature rows: the fitted scalers are
/// private to the predictor, and a dense forward pass costs the same
/// whatever the values.
pub fn replay(fx: &Fixture, request: &PredictRequest, widths: &[f64]) -> Result<DlPhases, Error> {
    let mut ph = DlPhases::default();
    let t0 = Instant::now();
    request.validate()?;
    let test = request.apply(&fx.base)?;
    ph.apply = ms(t0);

    if request.width_overrides.is_none() {
        let stride = request
            .stride
            .unwrap_or(fx.bundle.meta.inference_stride)
            .max(1);
        let rows = fx
            .bundle
            .predictor
            .as_rows()
            .ok_or("the benchmark's bundles use the MLP backend")?;
        let t0 = Instant::now();
        let (xv, xh) = sampled_features(&test, rows.feature_set(), stride);
        ph.features = ms(t0);

        let (mv, mh) = rows.models();
        let fmas0 = counter("nn/gemm/fmas");
        let t0 = Instant::now();
        std::hint::black_box(mv.predict(&xv)?);
        std::hint::black_box(mh.predict(&xh)?);
        ph.forward = ms(t0);
        ph.gemm_fmas = (counter("nn/gemm/fmas") - fmas0) as f64;

        for (model, x) in [(mv, xv), (mh, xh)] {
            if model.layers().len() != NN_LAYERS {
                return Err(format!(
                    "model has {} dense layers, the ledger names {NN_LAYERS}",
                    model.layers().len()
                )
                .into());
            }
            let mut a = x;
            for (slot, layer) in ph.layers.iter_mut().zip(model.layers()) {
                let t0 = Instant::now();
                a = layer.forward_inference(&a)?;
                *slot += ms(t0);
            }
        }
    }

    let iters0 = counter("solver/cg/iterations_total");
    let t0 = Instant::now();
    std::hint::black_box(IrPredictor::with_budget(0, 0).predict(&test, widths)?);
    ph.coarse = ms(t0);
    ph.cg_iters = (counter("solver/cg/iterations_total") - iters0) as f64;
    let t0 = Instant::now();
    std::hint::black_box(IrPredictor::new().predict(&test, widths)?);
    ph.sweeps = ms(t0) - ph.coarse;
    Ok(ph)
}

/// Every `stride`-th segment of each strap, featurised and split by
/// strap direction: the rows `predict` hands each direction's network.
fn sampled_features(
    bench: &SyntheticBenchmark,
    feature_set: ppdl_core::FeatureSet,
    stride: usize,
) -> (Matrix, Matrix) {
    let mut picked = Vec::new();
    let mut seen = vec![0usize; bench.straps().len()];
    for (i, seg) in bench.segments().iter().enumerate() {
        if seen[seg.strap] % stride == 0 {
            picked.push(i);
        }
        seen[seg.strap] += 1;
    }
    let features = FeatureExtractor::new(feature_set).raw_features_for(bench, &picked);
    let (mut v, mut h) = (Vec::new(), Vec::new());
    for (row, &si) in picked.iter().enumerate() {
        match bench.straps()[bench.segments()[si].strap].orientation {
            Orientation::Vertical => v.push(row),
            Orientation::Horizontal => h.push(row),
        }
    }
    (features.gather_rows(&v), features.gather_rows(&h))
}

/// The synthesis oracle: `predict` in width-override mode.
pub fn oracle(fx: &Fixture, widths: &[f64]) -> Result<(f64, Prediction), Error> {
    answer(
        fx,
        &PredictRequest::new("synth-oracle").with_widths(widths.to_vec()),
    )
}

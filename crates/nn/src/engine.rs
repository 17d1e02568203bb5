//! The minibatch engine behind [`Network`](crate::Network). Every
//! batch runs through the side-effect-free layer kernels in fixed row
//! chunks ([`row_chunks`]): below `2 * PAR_ROW_CHUNK` rows the whole
//! batch is one chunk, above it the chunks hold [`PAR_ROW_CHUNK`] rows,
//! evaluated concurrently with training gradients reduced in ascending
//! chunk order. The decomposition depends only on the batch size —
//! never on the thread count — so training and inference are bitwise
//! deterministic at any `PPDL_THREADS` setting.
//!
//! Inference hands each run of consecutive dense layers (all eleven
//! of the paper's MLP) to one `gemm::dense_forward` call, which takes
//! every block of rows through the whole run while it is in cache;
//! other layers run one at a time.

use std::borrow::Cow;
use std::ops::Range;

use ppdl_solver::parallel::par_map_vec;

use crate::{DenseLayer, Layer, Loss, Matrix, NnError, Optimizer};

/// Row-chunk size of batches with at least `2 * PAR_ROW_CHUNK` rows.
pub(crate) const PAR_ROW_CHUNK: usize = 256;

/// The `[start, end)` row chunks a batch of `rows` runs in: the whole
/// batch below `2 * PAR_ROW_CHUNK` rows, otherwise `PAR_ROW_CHUNK`
/// rows each (last chunk shorter).
pub(crate) fn row_chunks(rows: usize) -> Vec<Range<usize>> {
    let size = if rows < 2 * PAR_ROW_CHUNK {
        rows.max(1)
    } else {
        PAR_ROW_CHUNK
    };
    (0..rows)
        .step_by(size)
        .map(|start| start..(start + size).min(rows))
        .collect()
}

/// Inference over `layers`, chunking large batches through the pure
/// kernels (row-independent, so chunking is invisible in the output).
pub(crate) fn predict(layers: &[Layer], x: &Matrix) -> crate::Result<Matrix> {
    let _span = ppdl_obs::span("nn/forward");
    if x.rows() >= 2 * PAR_ROW_CHUNK {
        return predict_chunked(layers, x);
    }
    forward(layers, x)
}

/// One batch through `layers` on the calling thread.
fn forward(layers: &[Layer], x: &Matrix) -> crate::Result<Matrix> {
    let mut a = Cow::Borrowed(x);
    let mut rest = layers;
    while let Some(first) = rest.first() {
        let dense: Vec<&DenseLayer> = rest
            .iter()
            .map_while(|layer| match layer {
                Layer::Dense(l) => Some(l),
                _ => None,
            })
            .collect();
        if dense.is_empty() {
            a = Cow::Owned(first.forward_inference(&a)?);
            rest = &rest[1..];
        } else {
            a = Cow::Owned(crate::gemm::dense_forward(&dense, &a)?);
            rest = &rest[dense.len()..];
        }
    }
    Ok(a.into_owned())
}

fn predict_chunked(layers: &[Layer], x: &Matrix) -> crate::Result<Matrix> {
    let chunks = row_chunks(x.rows());
    // ppdl-lint: allow(determinism/tainted-parallel) -- over-approximated edge: the untyped `act.apply(v)` in conv.rs resolves to Perturbation::apply by name; activation functions draw no RNG
    let parts = par_map_vec(&chunks, |_, r| {
        forward(layers, &x.slice_rows(r.start, r.end))
    });
    let mut out: Option<Matrix> = None;
    for (r, part) in chunks.iter().zip(parts) {
        let part = part?;
        let out = out.get_or_insert_with(|| Matrix::zeros(x.rows(), part.cols()));
        for (k, row) in (r.start..r.end).enumerate() {
            out.row_mut(row).copy_from_slice(part.row(k));
        }
    }
    out.ok_or(NnError::InvalidConfig {
        detail: "predict called with an empty batch".into(),
    })
}

/// Per-layer `(weight, bias)` gradients of one training step, in
/// layer order (empty tensors for parameterless layers).
pub(crate) type Gradients = Vec<(Matrix, Vec<f64>)>;

/// One optimisation step with an optional L2 weight penalty: checks
/// the batch, runs [`train_step`] over its [`row_chunks`], then walks
/// the parameter-group protocol — per layer index `li`, weights are
/// group `2 * li` (decayed) and bias `2 * li + 1` — and ends the
/// optimizer step. Returns the pre-update batch loss (excluding the
/// penalty).
pub(crate) fn train_batch_regularized<O: Optimizer>(
    layers: &mut [Layer],
    x: &Matrix,
    y: &Matrix,
    loss: Loss,
    weight_decay: f64,
    optimizer: &mut O,
) -> crate::Result<f64> {
    if !(weight_decay.is_finite() && weight_decay >= 0.0) {
        return Err(NnError::InvalidConfig {
            detail: format!("weight decay {weight_decay} must be non-negative"),
        });
    }
    // Checked before any chunk is sliced: `Matrix::slice_rows` asserts.
    if x.rows() != y.rows() {
        return Err(NnError::ShapeMismatch {
            detail: format!(
                "batch has {} input rows but {} target rows",
                x.rows(),
                y.rows()
            ),
        });
    }
    if x.rows() == 0 {
        return Err(NnError::EmptyDataset);
    }
    let (value, grads) = train_step(layers, x, y, loss, &row_chunks(x.rows()))?;
    for (li, (layer, (gw, gb))) in layers.iter_mut().zip(grads).enumerate() {
        let Some((weights, bias)) = layer.parameters_mut() else {
            continue;
        };
        if weight_decay > 0.0 {
            let decayed: Vec<f64> = weights
                .iter()
                .zip(gw.as_slice())
                .map(|(p, g)| g + 2.0 * weight_decay * p)
                .collect();
            optimizer.step(2 * li, weights, &decayed)?;
        } else {
            optimizer.step(2 * li, weights, gw.as_slice())?;
        }
        optimizer.step(2 * li + 1, bias, &gb)?;
    }
    optimizer.end_step();
    Ok(value)
}

/// Forward and backward over `chunks` of the batch through the
/// side-effect-free layer kernels, concurrently when
/// [`ppdl_solver::parallel`] allows. Returns the batch loss (the
/// chunk-weighted mean) and each layer's gradients, summed in
/// ascending chunk order. `chunks` must tile `0..x.rows()`, and `x`
/// and `y` must have that many rows.
pub(crate) fn train_step(
    layers: &[Layer],
    x: &Matrix,
    y: &Matrix,
    loss: Loss,
    chunks: &[Range<usize>],
) -> crate::Result<(f64, Gradients)> {
    let total_rows = x.rows() as f64;
    // ppdl-lint: allow(determinism/tainted-parallel) -- over-approximated edge: the untyped `act.apply(v)` in conv.rs resolves to Perturbation::apply by name; activation functions draw no RNG
    let results = par_map_vec(chunks, |_, r| -> crate::Result<(f64, Gradients)> {
        let weight = (r.end - r.start) as f64 / total_rows;
        let xc = x.slice_rows(r.start, r.end);
        let yc = y.slice_rows(r.start, r.end);
        // Forward, keeping each layer's (input, pre-activation).
        let mut saved = Vec::with_capacity(layers.len());
        let mut a = xc;
        for layer in layers {
            let (pre, out) = layer.forward_pure(&a)?;
            saved.push((a, pre));
            a = out;
        }
        let value = loss.value(&a, &yc)?;
        // The loss gradient normalises by the chunk size; rescale so
        // the chunk contributes its share of the whole-batch mean (a
        // lone chunk's weight is exactly 1.0).
        let mut grad = loss.gradient(&a, &yc)?.scale(weight);
        let mut grads_rev = Vec::with_capacity(layers.len());
        for (layer, (input, pre)) in layers.iter().zip(&saved).rev() {
            let (gx, gw, gb) = layer.backward_pure(input, pre, &grad)?;
            grads_rev.push((gw, gb));
            grad = gx;
        }
        grads_rev.reverse();
        Ok((value * weight, grads_rev))
    });
    // Reduce in ascending chunk order — the order is fixed by the
    // decomposition, so the sums are thread-count independent.
    let mut results = results.into_iter();
    let (mut value, mut acc) = results.next().ok_or(NnError::EmptyDataset)??;
    for res in results {
        let (v, grads) = res?;
        value += v;
        for ((aw, ab), (gw, gb)) in acc.iter_mut().zip(grads) {
            *aw = aw.add(&gw)?;
            for (s, g) in ab.iter_mut().zip(&gb) {
                *s += g;
            }
        }
    }
    Ok((value, acc))
}

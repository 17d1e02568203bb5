//! The data-parallel minibatch engine behind
//! [`Network`](crate::Network): batches with at least
//! `2 * PAR_ROW_CHUNK` rows are decomposed into fixed
//! [`PAR_ROW_CHUNK`]-row chunks and evaluated through the
//! side-effect-free layer kernels, with chunk gradients reduced in
//! ascending chunk order. The decomposition depends only on the batch
//! size — never on the thread count — so training and inference are
//! bitwise deterministic at any `PPDL_THREADS` setting.

use ppdl_solver::parallel::par_map_vec;

use crate::{Layer, Loss, Matrix, NnError, Optimizer};

/// Fixed row-chunk size for the data-parallel minibatch path.
pub(crate) const PAR_ROW_CHUNK: usize = 256;

/// Splits `rows` into `[start, end)` ranges of `PAR_ROW_CHUNK` rows
/// (last chunk shorter).
pub(crate) fn row_chunks(rows: usize) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::with_capacity(rows.div_ceil(PAR_ROW_CHUNK));
    let mut start = 0;
    while start < rows {
        let end = (start + PAR_ROW_CHUNK).min(rows);
        out.push(start..end);
        start = end;
    }
    out
}

/// Inference over `layers`, chunking large batches through the pure
/// kernels (row-independent, so chunking is invisible in the output).
pub(crate) fn predict(layers: &[Layer], x: &Matrix) -> crate::Result<Matrix> {
    if x.rows() >= 2 * PAR_ROW_CHUNK {
        return predict_chunked(layers, x);
    }
    let mut a = x.clone();
    for layer in layers {
        a = layer.forward_inference(&a)?;
    }
    Ok(a)
}

fn predict_chunked(layers: &[Layer], x: &Matrix) -> crate::Result<Matrix> {
    let chunks = row_chunks(x.rows());
    // ppdl-lint: allow(determinism/tainted-parallel) -- over-approximated edge: the untyped `act.apply(v)` in conv.rs resolves to Perturbation::apply by name; activation functions draw no RNG
    let parts = par_map_vec(&chunks, |_, r| -> crate::Result<Matrix> {
        let mut a = x.slice_rows(r.start, r.end);
        for layer in layers {
            a = layer.forward_inference(&a)?;
        }
        Ok(a)
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

/// One optimisation step with an optional L2 weight penalty: runs the
/// forward/backward step (chunked for large batches), then walks the
/// parameter-group protocol — per layer index `li`, weights are group
/// `2 * li` (decayed) and bias `2 * li + 1` — and ends the optimizer
/// step. Returns the pre-update batch loss (excluding the penalty).
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
    let value = if x.rows() >= 2 * PAR_ROW_CHUNK && x.rows() == y.rows() {
        train_step_chunked(layers, x, y, loss)?
    } else {
        train_step_full(layers, x, y, loss)?
    };
    let mut result = Ok(());
    for (li, layer) in layers.iter_mut().enumerate() {
        let mut group = 2 * li;
        layer.update_parameters(|params, grads| {
            if result.is_ok() {
                result = if weight_decay > 0.0 && group % 2 == 0 {
                    let decayed: Vec<f64> = params
                        .iter()
                        .zip(grads)
                        .map(|(p, g)| g + 2.0 * weight_decay * p)
                        .collect();
                    optimizer.step(group, params, &decayed)
                } else {
                    optimizer.step(group, params, grads)
                };
            }
            group += 1;
        });
    }
    result?;
    optimizer.end_step();
    Ok(value)
}

/// Classic whole-batch forward/backward, leaving gradients in the
/// layers' caches. Returns the batch loss.
pub(crate) fn train_step_full(
    layers: &mut [Layer],
    x: &Matrix,
    y: &Matrix,
    loss: Loss,
) -> crate::Result<f64> {
    let mut a = x.clone();
    for layer in layers.iter_mut() {
        a = layer.forward(&a)?;
    }
    let value = loss.value(&a, y)?;
    let mut grad = loss.gradient(&a, y)?;
    for layer in layers.iter_mut().rev() {
        grad = layer.backward(&grad)?;
    }
    Ok(value)
}

/// Data-parallel forward/backward over fixed row chunks; installs the
/// chunk-order-summed gradients into the layers and returns the batch
/// loss (the chunk-weighted mean).
pub(crate) fn train_step_chunked(
    layers: &mut [Layer],
    x: &Matrix,
    y: &Matrix,
    loss: Loss,
) -> crate::Result<f64> {
    let chunks = row_chunks(x.rows());
    let total_rows = x.rows() as f64;
    let shared = &*layers;
    type ChunkResult = (f64, Vec<(Matrix, Vec<f64>)>);
    // ppdl-lint: allow(determinism/tainted-parallel) -- over-approximated edge: the untyped `act.apply(v)` in conv.rs resolves to Perturbation::apply by name; activation functions draw no RNG
    let results = par_map_vec(&chunks, |_, r| -> crate::Result<ChunkResult> {
        let weight = (r.end - r.start) as f64 / total_rows;
        let xc = x.slice_rows(r.start, r.end);
        let yc = y.slice_rows(r.start, r.end);
        // Forward, keeping each layer's (input, pre-activation).
        let mut caches = Vec::with_capacity(shared.len());
        let mut a = xc;
        for layer in shared {
            let (pre, out) = layer.forward_pure(&a)?;
            caches.push((a, pre));
            a = out;
        }
        let value = loss.value(&a, &yc)?;
        // The loss gradient normalises by the chunk size; rescale so
        // the chunk contributes its share of the whole-batch mean.
        let mut grad = loss.gradient(&a, &yc)?.scale(weight);
        let mut grads_rev = Vec::with_capacity(shared.len());
        for (li, layer) in shared.iter().enumerate().rev() {
            let (input, pre) = &caches[li];
            let (gx, gw, gb) = layer.backward_pure(input, pre, &grad)?;
            grads_rev.push((gw, gb));
            grad = gx;
        }
        grads_rev.reverse();
        Ok((value * weight, grads_rev))
    });
    // Reduce in ascending chunk order — the order is fixed by the
    // decomposition, so the sums are thread-count independent.
    let mut value = 0.0;
    let mut acc: Option<Vec<(Matrix, Vec<f64>)>> = None;
    for res in results {
        let (v, grads) = res?;
        value += v;
        acc = Some(match acc {
            None => grads,
            Some(mut a) => {
                for ((aw, ab), (gw, gb)) in a.iter_mut().zip(grads) {
                    *aw = aw.add(&gw)?;
                    for (s, g) in ab.iter_mut().zip(&gb) {
                        *s += g;
                    }
                }
                a
            }
        });
    }
    // A non-empty batch always yields at least one chunk; surface a
    // typed error instead of panicking if the chunking ever changes
    // (robustness/unwrap-in-lib).
    let acc = acc.ok_or(NnError::InvalidConfig {
        detail: "backward_batch called with an empty batch".into(),
    })?;
    for (layer, (gw, gb)) in layers.iter_mut().zip(acc) {
        layer.set_gradients(gw, gb);
    }
    Ok(value)
}

//! Workspace-wide parallel execution layer: the thread count and one
//! fork primitive.
//!
//! Parallelism runs at one level. [`par_map_vec`] maps a slice of
//! independent, coarse work items across scoped threads; the items are
//! the requests of a service batch, synthesis templates, γ scenarios,
//! the width predictor's two direction models and the NN engine's
//! fixed 256-row chunks. A `par_map_vec` called on
//! one of its own workers runs inline, so a batch request's NN forward
//! (say) never forks a second time. The element-level kernels — CSR
//! SpMV and the BLAS-1 kernels in `ppdl-solver`, GEMM in `ppdl-nn` —
//! are sequential loops: a CG solve runs hundreds of them, and a
//! thread spawn per call costs more than a whole kernel at the sizes
//! the workloads run.
//!
//! The thread count comes from the `PPDL_THREADS` env override
//! (sampled once, at the first fork — see [`current_threads`]), else
//! the hardware parallelism; [`set_threads`] overrides at runtime (`0`
//! resets). A call runs on at most `min(threads, items)` threads, the
//! caller's included.
//!
//! # Determinism guarantee
//!
//! Results are **bit-stable across thread counts**: each item is
//! computed by the same code whichever thread runs it, and results come
//! back in item order, so a caller that folds them does so in a fixed
//! order. Thread counts therefore change only *where* items execute,
//! never what is computed — `PPDL_THREADS=1` and `PPDL_THREADS=64`
//! produce bitwise-identical solver output and identical trained-model
//! weights.
//!
//! The engine is hand-rolled on [`std::thread::scope`] rather than a
//! `rayon` pool because the build environment vendors no external
//! crates.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Sentinel meaning "no runtime override installed".
const UNSET: usize = usize::MAX;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(UNSET);
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set on [`par_map_vec`]'s workers, so a call made on one runs
    /// inline instead of forking again.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn hardware_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn env_or_hardware_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("PPDL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(hardware_threads)
    })
}

/// The number of worker threads [`par_map_vec`] may use.
///
/// Resolution order: [`set_threads`] override → `PPDL_THREADS` env
/// variable (read once, first use) → hardware parallelism.
///
/// # Read-once semantics
///
/// `PPDL_THREADS` is sampled into a `OnceLock` the **first** time this
/// function runs (every [`par_map_vec`] call does), and that sample is
/// final: mutating the env var afterwards — from a test, or from code
/// that runs after the first fork — is silently ignored. Two
/// consequences for callers:
///
/// * Set `PPDL_THREADS` in the *environment of the process*, before
///   any parallel work executes, never via `std::env::set_var` mid-run.
/// * Anything that wants to change the count at runtime must go
///   through [`set_threads`], which always wins over the cached env
///   value. The `ppdl` CLI and `ppdl-bench` both route their
///   `--threads` flags through [`set_threads`] before the first fork
///   for exactly this reason.
#[must_use]
pub fn current_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        UNSET => env_or_hardware_threads(),
        n => n,
    }
}

/// Overrides the worker-thread count at runtime; `0` removes the
/// override, restoring the `PPDL_THREADS`/hardware default.
///
/// Takes effect for subsequent [`par_map_vec`] calls process-wide (the
/// determinism guarantee means results do not change, only speed).
pub fn set_threads(threads: usize) {
    let v = if threads == 0 { UNSET } else { threads };
    THREAD_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Splits `0..len` into `parts` near-equal contiguous ranges (never
/// more ranges than elements).
fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Index-preserving parallel map: `out[i] = f(i, &items[i])`.
///
/// Splits `items` into `min(current_threads(), items.len())`
/// contiguous spans when that is at least two and the caller is not
/// itself one of this function's workers; the calling thread works the
/// first span and a scoped thread each of the others. Otherwise every
/// item runs on the calling thread. Each item is computed
/// independently, so results never depend on the split. With telemetry
/// on, a span an item opens on a worker nests under the caller's open
/// spans, as it would on the calling thread.
pub fn par_map_vec<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run = |span: Range<usize>| span.map(|i| f(i, &items[i])).collect::<Vec<R>>();
    let threads = current_threads();
    if threads <= 1 || items.len() < 2 || IN_WORKER.with(Cell::get) {
        return run(0..items.len());
    }
    let mut spans = split_ranges(items.len(), threads).into_iter();
    let first = spans.next().unwrap_or_default();
    // Workers record their spans under the caller's path.
    let context = ppdl_obs::SpanContext::capture();
    thread::scope(|scope| {
        let handles: Vec<_> = spans
            .map(|span| {
                let (run, context) = (&run, &context);
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    context.run(|| run(span))
                })
            })
            .collect();
        // The calling thread works the first span itself. With a spawn
        // per span, a 2-thread width-model forward of about 2,100 rows
        // ran slower than 1 thread.
        IN_WORKER.with(|w| w.set(true));
        let mut out = run(first);
        IN_WORKER.with(|w| w.set(false));
        for h in handles {
            // Re-raise a worker panic on the calling thread instead of
            // replacing it with a second panic message
            // (robustness/unwrap-in-lib).
            out.extend(
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that mutate the global thread count.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn split_ranges_cover_everything() {
        for len in [0usize, 1, 5, 17, 4096, 4097] {
            for parts in [1usize, 2, 3, 8] {
                let ranges = split_ranges(len, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                assert_eq!(expect, len);
            }
        }
    }

    #[test]
    fn config_roundtrip() {
        let _g = LOCK.lock().unwrap();
        set_threads(3);
        assert_eq!(current_threads(), 3);
        set_threads(0);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn par_map_vec_preserves_order() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let items: Vec<usize> = (0..97).collect();
        let out = par_map_vec(&items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        set_threads(0);
        assert_eq!(out, (0..97).map(|v| v * 2).collect::<Vec<_>>());
    }

    /// One level of parallelism: every inner item of a nested call runs
    /// on the outer worker that made the call.
    #[test]
    fn nested_par_map_vec_runs_inline_on_the_outer_worker() {
        let _g = LOCK.lock().unwrap();
        set_threads(2);
        let items: Vec<usize> = (0..4).collect();
        let runs = par_map_vec(&items, |_, _| {
            let inner = par_map_vec(&items, |_, _| thread::current().id());
            (thread::current().id(), inner)
        });
        set_threads(0);
        for (outer, inner) in runs {
            assert!(inner.iter().all(|&id| id == outer), "inner item forked");
        }
        assert!(!IN_WORKER.with(Cell::get), "the caller stays a worker");
    }
}

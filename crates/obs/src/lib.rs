//! Workspace-wide telemetry: hierarchical spans, monotonic counters,
//! and fixed-bucket histograms, collected into thread-safe registries
//! with a JSON snapshot that is deterministic in *structure* (keys and
//! their order never vary; values may).
//!
//! The crate sits below every other workspace crate (it depends on
//! nothing but `std`), so the solver, NN trainer, pipeline, and service
//! all report through the same vocabulary:
//!
//! * [`Counter`] — a monotonic `u64` (`solver/spmv/elements`).
//! * [`HistogramHandle`] — fixed-bucket distribution with lock-free
//!   recording and p50/p95/p99 estimates interpolated inside the
//!   winning bucket, within that bucket's width of the exact quantile
//!   (`service/batch_ms`).
//! * Spans — wall-time accumulators keyed by a hierarchical `a/b/c`
//!   path built from a thread-local stack of open [`Span`]s
//!   (`pipeline/train/nn/fit`). Work handed to another thread carries
//!   its caller's path in a [`SpanContext`].
//!
//! # Global vs. per-instance collection
//!
//! Fine-grained instrumentation in hot paths (SpMV element counts, CG
//! iterations, per-epoch losses, per-stage spans) records into the
//! process-wide [`global`] registry and is **off by default**: every
//! such site is guarded by [`enabled`], a single relaxed atomic load.
//! DESIGN.md §11 gives the measured cost of enabled collection
//! (perfbench's `trace.overhead_pct`). [`set_enabled`] turns collection on —
//! `ppdl serve --telemetry` and `ppdl-bench run --telemetry` do.
//!
//! Long-lived components that already pay per-batch bookkeeping (the
//! prediction service) own a private [`Registry`] instead, which is
//! always on and isolated per instance.
//!
//! # Snapshot format
//!
//! [`Registry::snapshot_json`] emits one compact line:
//!
//! ```json
//! {"counters":{"name":123},
//!  "histograms":{"name":{"count":2,"sum":3.5,"min":1.0,"max":2.5,
//!                        "p50":2.0,"p95":4.0,"p99":4.0,
//!                        "buckets":[[1.0,1],[2.0,0],[4.0,1]]}},
//!  "spans":{"a/b":{"count":1,"wall_ms":0.42}}}
//! ```
//!
//! Maps are `BTreeMap`s, so keys appear in sorted order; non-finite
//! values serialise as `null`, never as invalid JSON tokens.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns process-wide collection into the [`global`] registry on or
/// off. Disabled (the default) reduces every global instrumentation
/// site to one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global collection is on. Instrumentation sites check this
/// before touching the registry.
#[must_use]
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry fine-grained instrumentation records into
/// (when [`enabled`]).
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A monotonic counter handle; cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Atomic f64 accumulator cell (bit-cast through `AtomicU64`).
#[derive(Debug)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn update(&self, f: impl Fn(f64) -> Option<f64>) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                f(f64::from_bits(bits)).map(f64::to_bits)
            });
    }

    fn add(&self, v: f64) {
        self.update(|cur| Some(cur + v));
    }

    fn min(&self, v: f64) {
        self.update(|cur| if v < cur { Some(v) } else { None });
    }

    fn max(&self, v: f64) {
        self.update(|cur| if v > cur { Some(v) } else { None });
    }
}

/// A fixed-bucket histogram: `bounds` are the inclusive upper edges of
/// the first `bounds.len()` buckets, plus one overflow bucket.
#[derive(Debug)]
struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }

    fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
        self.min.min(v);
        self.max.max(v);
    }

    /// Quantile estimate: finds the winning bucket, the first whose
    /// cumulative count reaches rank `⌈q·count⌉`, and interpolates
    /// linearly by rank between its edges. The first bucket's lower
    /// edge is the observed minimum and the overflow bucket's upper
    /// edge the observed maximum; the estimate is clamped to
    /// `[min, max]`. The exact sample of that rank lies in the winning
    /// bucket too, so the estimate is within the bucket's width of it.
    /// `None` when empty.
    fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let (min, max) = (self.min.get(), self.max.get());
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if cum + in_bucket >= rank {
                let lo = if i == 0 { min } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(max);
                let frac = (rank - cum) as f64 / in_bucket as f64;
                // max/min rather than clamp: a reader racing the first
                // `record` can see min > max, and clamp would panic.
                return Some((lo + (hi - lo) * frac).max(min).min(max));
            }
            cum += in_bucket;
        }
        Some(max)
    }
}

/// A histogram handle; cloning shares the underlying buckets.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Histogram>);

impl HistogramHandle {
    /// Records one sample. Non-finite samples are ignored (they carry
    /// no latency/size information and would poison `sum`).
    pub fn record(&self, v: f64) {
        self.0.record(v);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.0.sum.get()
    }

    /// Quantile estimate for `q` in `[0,1]`, interpolated linearly by
    /// rank inside the winning bucket and clamped to the observed
    /// `[min, max]`. It is within the winning bucket's width of the
    /// exact sorted-sample quantile (the sample of rank `⌈q·count⌉`).
    /// With [`latency_buckets_ms`], where each edge is √2 times the
    /// one before, that width is at most (√2 − 1) ≈ 41% of the exact
    /// value whenever the value lies between the first and last edges.
    /// `None` before the first sample.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.0.quantile(q)
    }
}

/// Exponential bucket upper bounds: `start`, `start·factor`, … (`n`
/// bounds). The standard shape for latency histograms.
#[must_use]
pub fn exponential_buckets(start: f64, factor: f64, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut edge = start;
    for _ in 0..n {
        out.push(edge);
        edge *= factor;
    }
    out
}

/// The default latency bucket edges in milliseconds: 0.25 ms to ~4.1 s,
/// each edge √2 times the one before (29 edges), so no bucket between
/// the first and last edges is wider than a factor of √2.
#[must_use]
pub fn latency_buckets_ms() -> Vec<f64> {
    exponential_buckets(0.25, std::f64::consts::SQRT_2, 29)
}

/// Wall-time accumulator for one span path.
#[derive(Debug, Default)]
struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
}

thread_local! {
    /// The open global-span names on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open span against the [`global`] registry; records its wall time
/// at its hierarchical path on drop. A no-op when collection was
/// disabled at creation. Create with [`span`].
#[derive(Debug)]
pub struct Span {
    inner: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    path: String,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.inner.take() {
            let wall = active.start.elapsed();
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            global().record_span(&active.path, wall.as_secs_f64());
        }
    }
}

/// Opens a span named `name` against the [`global`] registry. Its path
/// is the `/`-joined chain of spans currently open on this thread, so
/// nested phases read as `pipeline/train/nn/fit`. Bind the result
/// (`let _span = obs::span("…")`) — dropping it records the elapsed
/// wall time. No-op (and no allocation) when collection is disabled.
#[must_use]
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = if stack.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", stack.join("/"), name)
        };
        stack.push(name.to_string());
        path
    });
    Span {
        inner: Some(ActiveSpan {
            path,
            start: Instant::now(),
        }),
    }
}

/// The open global-span path of one thread, captured so that work it
/// hands to other threads records its spans under the same path.
#[derive(Debug, Clone, Default)]
pub struct SpanContext {
    path: Vec<String>,
}

impl SpanContext {
    /// Captures the calling thread's open spans; empty (and free) when
    /// collection is disabled.
    #[must_use]
    pub fn capture() -> Self {
        if !enabled() {
            return Self::default();
        }
        Self {
            path: SPAN_STACK.with(|stack| stack.borrow().clone()),
        }
    }

    /// Runs `f` with the captured spans open on the calling thread, then
    /// restores the thread's own. An empty context runs `f` as is.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.path.is_empty() {
            return f();
        }
        struct Restore(Vec<String>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let own = std::mem::take(&mut self.0);
                SPAN_STACK.with(|stack| *stack.borrow_mut() = own);
            }
        }
        let _restore = Restore(SPAN_STACK.with(|stack| stack.replace(self.path.clone())));
        f()
    }
}

/// Adds `n` to the global counter `name` when collection is enabled.
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        global().counter(name).add(n);
    }
}

/// Records `v` into the global histogram `name` (created with `bounds`
/// on first use) when collection is enabled.
pub fn observe(name: &str, bounds: &[f64], v: f64) {
    if enabled() {
        global().histogram(name, bounds).record(v);
    }
}

/// A thread-safe collection of counters, histograms, and span stats.
///
/// The process-wide instance is [`global`]; components needing isolated
/// metrics (one per service instance, say) own their own.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    spans: RwLock<BTreeMap<String, Arc<SpanStat>>>,
}

// Telemetry must never take the process down: the registry maps hold
// only monotonic counters with no cross-entry invariant, so if a
// panicking thread poisoned a lock we recover the guard and keep
// serving (robustness/unwrap-in-lib).
fn read_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created at zero on first
    /// use. The returned handle is cheap to clone and cache.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        // Probe under the read lock and *drop the guard* before taking
        // the write lock — upgrading in place would self-deadlock.
        let existing = read_recover(&self.counters).get(name).map(Arc::clone);
        let cell = existing.unwrap_or_else(|| {
            let mut map = write_recover(&self.counters);
            Arc::clone(
                map.entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        });
        Counter(cell)
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use (later calls keep the original bounds). The returned
    /// handle is cheap to clone and cache.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> HistogramHandle {
        let existing = read_recover(&self.histograms).get(name).map(Arc::clone);
        let hist = existing.unwrap_or_else(|| {
            let mut map = write_recover(&self.histograms);
            Arc::clone(
                map.entry(name.to_string())
                    .or_insert_with(|| Arc::new(Histogram::new(bounds))),
            )
        });
        HistogramHandle(hist)
    }

    /// Accumulates `secs` of wall time (one invocation) at span `path`.
    pub fn record_span(&self, path: &str, secs: f64) {
        let existing = read_recover(&self.spans).get(path).map(Arc::clone);
        let stat = existing.unwrap_or_else(|| {
            let mut map = write_recover(&self.spans);
            Arc::clone(map.entry(path.to_string()).or_default())
        });
        stat.count.fetch_add(1, Ordering::Relaxed);
        let ns = if secs.is_finite() && secs > 0.0 {
            (secs * 1e9) as u64
        } else {
            0
        };
        stat.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Accumulated (count, wall seconds) for span `path`, if recorded.
    #[must_use]
    pub fn span_stats(&self, path: &str) -> Option<(u64, f64)> {
        let spans = read_recover(&self.spans);
        spans.get(path).map(|s| {
            (
                s.count.load(Ordering::Relaxed),
                s.total_ns.load(Ordering::Relaxed) as f64 / 1e9,
            )
        })
    }

    /// One compact JSON line with every counter, histogram, and span.
    /// Structure is deterministic: the three top-level keys always
    /// appear, maps are key-sorted, and each histogram/span object has
    /// a fixed field order. Values serialise through [`json_f64`] so a
    /// non-finite value becomes `null`, never an invalid token.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        {
            let counters = read_recover(&self.counters);
            for (i, (name, cell)) in counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{}:{}",
                    json_escape(name),
                    cell.load(Ordering::Relaxed)
                );
            }
        }
        out.push_str("},\"histograms\":{");
        {
            let histograms = read_recover(&self.histograms);
            for (i, (name, hist)) in histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let count = hist.count.load(Ordering::Relaxed);
                let _ = write!(
                    out,
                    "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                     \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                    json_escape(name),
                    count,
                    json_f64(hist.sum.get()),
                    opt_json_f64((count > 0).then(|| hist.min.get())),
                    opt_json_f64((count > 0).then(|| hist.max.get())),
                    opt_json_f64(hist.quantile(0.50)),
                    opt_json_f64(hist.quantile(0.95)),
                    opt_json_f64(hist.quantile(0.99)),
                );
                for (j, bucket) in hist.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let bound = hist
                        .bounds
                        .get(j)
                        .copied()
                        .map_or_else(|| "null".to_string(), json_f64);
                    let _ = write!(out, "[{},{}]", bound, bucket.load(Ordering::Relaxed));
                }
                out.push_str("]}");
            }
        }
        out.push_str("},\"spans\":{");
        {
            let spans = read_recover(&self.spans);
            for (i, (path, stat)) in spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{}:{{\"count\":{},\"wall_ms\":{}}}",
                    json_escape(path),
                    stat.count.load(Ordering::Relaxed),
                    json_f64(stat.total_ns.load(Ordering::Relaxed) as f64 / 1e6),
                );
            }
        }
        out.push_str("}}");
        out
    }
}

/// Serialises an `f64` as a JSON token: shortest round-trip form for
/// finite values, `null` for NaN/infinities (JSON has no tokens for
/// them, and emitting `NaN` would corrupt the stream).
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep the token
        // unambiguously a number for readers that care.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn opt_json_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_f64)
}

/// Escapes a string as a JSON string token (metric names are plain
/// ASCII paths, but the writer must never emit invalid JSON).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        let a = reg.counter("x/calls");
        let b = reg.counter("x/calls");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
    }

    #[test]
    fn histogram_quantiles_and_stats() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(h.quantile(0.5), None);
        for v in [0.5, 1.5, 1.6, 3.0, 100.0] {
            h.record(v);
        }
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.6).abs() < 1e-9);
        // rank(0.5·5)=3 → cumulative hits 3 in the (1,2] bucket.
        assert_eq!(h.quantile(0.5), Some(2.0));
        // p99 rank 5 lands in the overflow bucket → observed max.
        assert_eq!(h.quantile(0.99), Some(100.0));
    }

    #[test]
    fn quantile_interpolates_inside_the_winning_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &latency_buckets_ms());
        for _ in 0..100 {
            h.record(33.0);
        }
        // Interpolating inside (32, 45.3] alone gives 45.3; the clamp to
        // the observed range gives the only value ever recorded.
        assert_eq!(h.quantile(0.5), Some(33.0));
    }

    #[test]
    fn quantile_error_is_within_the_winning_bucket_width() {
        let bounds = latency_buckets_ms();
        let reg = Registry::new();
        let h = reg.histogram("lat", &bounds);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        for &v in &samples {
            h.record(v);
        }
        for q in [0.5, 0.95, 0.99] {
            let rank = (q * samples.len() as f64).ceil() as usize;
            let exact = samples[rank - 1];
            let i = bounds.iter().position(|&b| exact <= b).unwrap();
            let width = bounds[i] - bounds[i - 1];
            let est = h.quantile(q).unwrap();
            assert!((est - exact).abs() <= width, "q {q}: {est} vs {exact}");
        }
    }

    /// Seeded property test: over generated sample sets, every quantile
    /// is within its winning bucket's width of the exact sample of rank
    /// `⌈q·n⌉`, and within (√2 − 1) × that sample between the first and
    /// last latency edges.
    #[test]
    fn quantiles_track_exact_sorted_samples() {
        // splitmix64: a std-only seeded generator.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut uniform = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let bounds = latency_buckets_ms();
        let (first, last) = (bounds[0], bounds[bounds.len() - 1]);
        let quantiles = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        for set in 0..300 {
            let n = 1 + (uniform() * 400.0) as usize;
            // Log-uniform over 2⁻⁸..2¹⁴ ms, past both ends of the
            // edges; every third set repeats a few values many times.
            let mut samples: Vec<f64> =
                (0..n).map(|_| 2f64.powf(-8.0 + 22.0 * uniform())).collect();
            if set % 3 == 0 {
                for i in 0..n {
                    samples[i] = samples[i % 4];
                }
            }
            let reg = Registry::new();
            let h = reg.histogram("lat", &bounds);
            for &v in &samples {
                h.record(v);
            }
            samples.sort_by(f64::total_cmp);
            let (min, max) = (samples[0], samples[n - 1]);
            for q in quantiles {
                let rank = ((q * n as f64).ceil() as usize).max(1);
                let exact = samples[rank - 1];
                let i = bounds.iter().position(|&b| exact <= b);
                let lo = match i {
                    Some(0) => min,
                    Some(i) => bounds[i - 1],
                    None => last,
                };
                let hi = i.map_or(max, |i| bounds[i]);
                let err = (h.quantile(q).unwrap() - exact).abs();
                let what = format!("set {set}, n {n}, q {q}: exact {exact}, error {err}");
                assert!(err <= hi - lo, "{what} exceeds bucket ({lo}, {hi}]");
                if exact > first && exact <= last {
                    let bound = (std::f64::consts::SQRT_2 - 1.0) * exact;
                    assert!(err <= bound * (1.0 + 1e-12), "{what} exceeds {bound}");
                }
            }
        }
    }

    #[test]
    fn span_paths_nest_per_thread() {
        set_enabled(true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_enabled(false);
        let (count, secs) = global().span_stats("outer/inner").expect("nested path");
        assert!(count >= 1);
        assert!(secs >= 0.0);
        assert!(global().span_stats("outer").is_some());
    }

    #[test]
    fn disabled_span_records_nothing() {
        set_enabled(false);
        let before = global().span_stats("ghost").map(|(c, _)| c).unwrap_or(0);
        {
            let _g = span("ghost");
        }
        let after = global().span_stats("ghost").map(|(c, _)| c).unwrap_or(0);
        assert_eq!(before, after);
    }

    #[test]
    fn snapshot_is_valid_and_structurally_stable() {
        let reg = Registry::new();
        reg.counter("b/two").add(2);
        reg.counter("a/one").inc();
        reg.histogram("h", &[1.0, 10.0]).record(3.0);
        reg.record_span("x/y", 0.001);
        let snap = reg.snapshot_json();
        // Sorted keys, fixed field order, single line.
        assert!(snap.starts_with("{\"counters\":{\"a/one\":1,\"b/two\":2}"));
        assert!(snap.contains("\"h\":{\"count\":1,\"sum\":3.0,"));
        assert!(snap.contains("\"buckets\":[[1.0,0],[10.0,1],[null,0]]"));
        assert!(snap.contains("\"spans\":{\"x/y\":{\"count\":1,\"wall_ms\":1.0}}"));
        assert!(!snap.contains('\n'));
        // An empty registry still has all three sections.
        assert_eq!(
            Registry::new().snapshot_json(),
            "{\"counters\":{},\"histograms\":{},\"spans\":{}}"
        );
    }

    #[test]
    fn json_f64_never_emits_invalid_tokens() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.1), "0.1");
    }

    #[test]
    fn exponential_bucket_shape() {
        assert_eq!(exponential_buckets(1.0, 2.0, 4), vec![1.0, 2.0, 4.0, 8.0]);
        let latency = latency_buckets_ms();
        assert_eq!(latency.len(), 29);
        assert!((latency[28] - 4096.0).abs() < 1e-9);
    }
}

//! The batched prediction service: load trained bundles once, answer
//! many ECO queries — over stdin/stdout or a real network listener.
//!
//! The paper's speedup (Table IV) pays off operationally when the
//! trained model is a long-lived asset shared by many clients. The
//! crate is layered accordingly:
//!
//! * [`ServiceCore`] — one resident bundle: the validated
//!   [`TrainedBundle`], the regenerated base design, the shared
//!   response cache, per-bundle telemetry, and the admission gauge.
//!   Thread-safe; every batch executes against a core.
//! * [`ModelRegistry`] / [`Session`] — many cores resident at once,
//!   requests routed by a `bundle` id, atomic hot-swap of a bundle
//!   without dropping in-flight batches, and typed `service/overloaded`
//!   admission control when a bundle's pending work saturates. A
//!   session's bounded queue is the crate's only request queue.
//! * [`proto`] — the NDJSON protocol and its one command loop, which
//!   runs one session per stream: stdin/stdout ([`serve_ndjson`]) and
//!   every [`net`] connection alike.
//! * [`net`] — a hand-rolled multi-threaded TCP (and Unix-socket)
//!   listener, one session per connection, all feeding the shared
//!   cores.
//!
//! Framing is the robust byte-level line reader in `line.rs`: a final
//! request line without a trailing newline, a mid-line disconnect, an
//! invalid-UTF-8 line, or an oversized line all produce a reply or a
//! typed `service/json` error — never a silent drop. Malformed request
//! lines yield typed error responses; the process never dies on bad
//! input.
//!
//! ```text
//!   TCP/Unix clients ──▶ net listener ─┐
//!                                      ├─▶ command loop ──▶ Session ──▶ ServiceCore (per bundle)
//!   NDJSON stdin ──────────────────────┘    (proto.rs)     route by      cache probe → par_map batch
//!                                                          bundle id     admission + telemetry
//!   {"cmd":"load"} ────▶ ModelRegistry hot-swap
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
pub(crate) mod line;
pub mod net;
pub mod proto;
pub mod registry;

pub use json::{Json, JsonError, MAX_DEPTH};
pub use net::{serve_tcp, serve_unix, NetConfig};
pub use proto::{parse_line, render_reply, serve_ndjson, Command};
pub use registry::{ModelRegistry, Session};

use std::collections::{btree_map, BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use ppdl_core::predict::{predict, PredictRequest, PredictResponse, TrainedBundle};
use ppdl_core::CoreError;
use ppdl_netlist::SyntheticBenchmark;

/// Locks a mutex, recovering the guard from a poisoned lock: every
/// protected structure here (cache, last-batch pair) stays internally
/// consistent even if a panic unwound mid-update, and a wedged serving
/// process is strictly worse than a possibly-stale cache entry.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of a [`ModelRegistry`]'s sessions and cores.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum requests one session's inbound queue holds before
    /// [`Session::enqueue`] reports backpressure.
    pub queue_capacity: usize,
    /// Maximum requests one parallel batch executes; a flush of a
    /// longer queue runs several batches back to back.
    pub max_batch: usize,
    /// Entries the FIFO response cache retains (0 disables caching).
    pub cache_capacity: usize,
    /// Admission-control bound: maximum requests a bundle's core
    /// accepts across *all* sessions (queued plus executing) before new
    /// arrivals are refused with a typed `service/overloaded` reply.
    /// Single-session backpressure (`queue_capacity`) triggers first on
    /// one pipe; this bound is what saturating concurrent network
    /// clients hit.
    pub max_pending: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            max_batch: 64,
            cache_capacity: 1024,
            max_pending: 1024,
        }
    }
}

/// Errors a service interaction can produce. `code()` values extend the
/// stable `layer/kind` registry of [`CoreError::code`].
#[derive(Debug)]
pub enum ServiceError {
    /// The inbound queue is at capacity; flush before enqueueing more.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// Admission control refused the request: the bundle's pending work
    /// (across every session) is at [`ServiceConfig::max_pending`], or
    /// the listener is at its connection limit. Retry after the backlog
    /// drains.
    Overloaded {
        /// Pending requests when admission was refused.
        pending: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
    /// A request named a bundle the registry does not hold.
    UnknownBundle {
        /// The bundle id that failed to resolve.
        bundle: String,
    },
    /// A protocol line could not be understood.
    Malformed {
        /// What was wrong with it.
        detail: String,
    },
    /// The JSON reader refused a line before protocol interpretation —
    /// containers nested beyond [`MAX_DEPTH`], an oversized line, or
    /// bytes that are not UTF-8. Distinct from
    /// [`Malformed`](Self::Malformed) so operators can tell hostile
    /// input shapes from ordinary typos.
    Json {
        /// What the reader refused.
        detail: String,
    },
    /// A framework error from the inference path.
    Core(CoreError),
}

impl ServiceError {
    /// The stable machine-readable error code carried by wire
    /// responses.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::QueueFull { .. } => "service/queue_full",
            ServiceError::Overloaded { .. } => "service/overloaded",
            ServiceError::UnknownBundle { .. } => "service/unknown_bundle",
            ServiceError::Malformed { .. } => "service/malformed",
            ServiceError::Json { .. } => "service/json",
            ServiceError::Core(e) => e.code(),
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "request queue full ({capacity} pending); flush first")
            }
            ServiceError::Overloaded { pending, capacity } => {
                write!(
                    f,
                    "service overloaded ({pending} of {capacity} pending requests); retry later"
                )
            }
            ServiceError::UnknownBundle { bundle } => {
                write!(f, "no bundle '{bundle}' is registered")
            }
            ServiceError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            ServiceError::Json { detail } => write!(f, "unacceptable JSON: {detail}"),
            ServiceError::Core(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

/// One answered request: the echoed `id`, whether the response came
/// from the cache, and the response or its typed error.
#[derive(Debug)]
pub struct ServiceReply {
    /// The request's `id`.
    pub id: String,
    /// `true` when served from the response cache without inference.
    pub cached: bool,
    /// The response, or the typed error this request produced.
    pub result: Result<PredictResponse, ServiceError>,
}

/// A point-in-time snapshot of a core's monotonic counters,
/// reconstructed from the per-bundle [`ppdl_obs::Registry`] by
/// [`ServiceCore::stats`] and serialised by
/// [`ModelRegistry::stats_json`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests accepted (admitted) for this bundle.
    pub requests: u64,
    /// Successful responses emitted (cache hits included).
    pub ok: u64,
    /// Error responses emitted.
    pub errors: u64,
    /// Responses served from the cache.
    pub cache_hits: u64,
    /// Fingerprint hits whose stored payload did NOT match the probing
    /// request — 64-bit collisions, served by inference instead of the
    /// wrong cached response.
    pub cache_collisions: u64,
    /// Parallel batches executed.
    pub batches: u64,
    /// Requests admitted but not yet answered, across all sessions.
    pub pending: usize,
    /// Total seconds spent flushing batches.
    pub busy_secs: f64,
    /// Size of the most recent batch.
    pub last_batch_size: usize,
    /// Wall seconds of the most recent batch.
    pub last_batch_secs: f64,
}

impl ServiceStats {
    /// Replies per busy second across the service lifetime (0 before
    /// the first flush).
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.busy_secs > 0.0 {
            (self.ok + self.errors) as f64 / self.busy_secs
        } else {
            0.0
        }
    }
}

/// What a cache probe found.
enum CacheProbe {
    /// Fingerprint present and the stored payload matches: a true hit.
    Hit(PredictResponse),
    /// Fingerprint present but the stored payload differs — a 64-bit
    /// collision. Must be answered by inference, never from the cache.
    Collision,
    /// Fingerprint absent.
    Miss,
}

/// FIFO response cache keyed by request fingerprint, with the full
/// request payload stored alongside so a hit is *verified*: two
/// distinct payloads whose 64-bit fingerprints collide must never be
/// served each other's response.
///
/// Eviction order is carried entirely by the `order` queue — insertion
/// order, never map iteration order — and the map itself is a
/// `BTreeMap` so no code path (present or future drain/debug-dump) can
/// observe hash-seeded ordering (determinism/hashmap-iter).
#[derive(Debug, Default)]
struct ResponseCache {
    capacity: usize,
    map: BTreeMap<u64, CacheEntry>,
    order: VecDeque<u64>,
}

#[derive(Debug)]
struct CacheEntry {
    request: PredictRequest,
    response: PredictResponse,
}

impl ResponseCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }

    fn probe(&self, fingerprint: u64, request: &PredictRequest) -> CacheProbe {
        match self.map.get(&fingerprint) {
            None => CacheProbe::Miss,
            Some(entry) if entry.request.payload_eq(request) => {
                CacheProbe::Hit(entry.response.clone())
            }
            Some(_) => CacheProbe::Collision,
        }
    }

    fn insert(&mut self, fingerprint: u64, request: &PredictRequest, response: PredictResponse) {
        if self.capacity == 0 {
            return;
        }
        let entry = CacheEntry {
            request: request.clone(),
            response,
        };
        match self.map.entry(fingerprint) {
            // Same fingerprint already cached: refresh in place (for a
            // collision, the newest payload wins the slot). The order
            // queue is untouched — the slot keeps its eviction age.
            btree_map::Entry::Occupied(mut o) => {
                o.insert(entry);
            }
            btree_map::Entry::Vacant(v) => {
                v.insert(entry);
                self.order.push_back(fingerprint);
                if self.order.len() > self.capacity {
                    if let Some(evicted) = self.order.pop_front() {
                        self.map.remove(&evicted);
                    }
                }
            }
        }
    }
}

/// The shared, thread-safe heart of one resident bundle: the validated
/// [`TrainedBundle`], the regenerated base design, the verified
/// response cache, the per-bundle telemetry registry, and the
/// admission gauge. A core is immutable except behind its own locks,
/// so any number of sessions (stdin, TCP connections) batch against it
/// concurrently; the [`ModelRegistry`] hot-swaps a bundle by replacing
/// the `Arc<ServiceCore>` in its slot — an in-flight batch keeps its
/// clone of the old core and completes bitwise-identically.
#[derive(Debug)]
pub struct ServiceCore {
    bundle: TrainedBundle,
    base: SyntheticBenchmark,
    config: ServiceConfig,
    cache: Mutex<ResponseCache>,
    /// Per-bundle telemetry registry — always on, isolated from the
    /// [`ppdl_obs::global`] registry. Counters and the batch-latency
    /// histogram below are cached handles into it.
    obs: ppdl_obs::Registry,
    requests: ppdl_obs::Counter,
    ok: ppdl_obs::Counter,
    errors: ppdl_obs::Counter,
    cache_hits: ppdl_obs::Counter,
    cache_collisions: ppdl_obs::Counter,
    batches: ppdl_obs::Counter,
    /// One sample per executed batch (milliseconds), the source of the
    /// `busy_ms` total and the p50/p95/p99 fields in
    /// [`ModelRegistry::stats_json`].
    batch_ms: ppdl_obs::HistogramHandle,
    /// Requests admitted and not yet answered, across every session on
    /// this core — the admission-control gauge.
    pending: AtomicUsize,
    last_batch: Mutex<(usize, f64)>,
}

impl ServiceCore {
    /// Builds a core from a validated bundle: the base design is
    /// regenerated once here and kept resident, so serving never
    /// re-runs generation, calibration, sizing, or training.
    ///
    /// # Errors
    ///
    /// Propagates bundle validation and base-instantiation errors.
    pub(crate) fn new(bundle: TrainedBundle, config: ServiceConfig) -> Result<Self, ServiceError> {
        bundle.validate()?;
        let base = bundle.instantiate_base()?;
        let cache = Mutex::new(ResponseCache::new(config.cache_capacity));
        let obs = ppdl_obs::Registry::new();
        let requests = obs.counter("service/requests");
        let ok = obs.counter("service/ok");
        let errors = obs.counter("service/errors");
        let cache_hits = obs.counter("service/cache_hits");
        let cache_collisions = obs.counter("service/cache_collisions");
        let batches = obs.counter("service/batches");
        let batch_ms = obs.histogram("service/batch_ms", &ppdl_obs::latency_buckets_ms());
        Ok(Self {
            bundle,
            base,
            config,
            cache,
            obs,
            requests,
            ok,
            errors,
            cache_hits,
            cache_collisions,
            batches,
            batch_ms,
            pending: AtomicUsize::new(0),
            last_batch: Mutex::new((0, 0.0)),
        })
    }

    /// The resident bundle.
    #[must_use]
    pub fn bundle(&self) -> &TrainedBundle {
        &self.bundle
    }

    /// The resident base design queries are answered against.
    #[must_use]
    pub fn base(&self) -> &SyntheticBenchmark {
        &self.base
    }

    /// The configuration the core was built with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The per-bundle telemetry registry backing the stats.
    #[must_use]
    pub fn obs(&self) -> &ppdl_obs::Registry {
        &self.obs
    }

    /// Requests admitted and not yet answered, across all sessions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Counter snapshot, reconstructed from the telemetry registry.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let (last_batch_size, last_batch_secs) = *lock(&self.last_batch);
        ServiceStats {
            requests: self.requests.get(),
            ok: self.ok.get(),
            errors: self.errors.get(),
            cache_hits: self.cache_hits.get(),
            cache_collisions: self.cache_collisions.get(),
            batches: self.batches.get(),
            pending: self.pending(),
            busy_secs: self.batch_ms.sum() / 1e3,
            last_batch_size,
            last_batch_secs,
        }
    }

    /// Admission control: reserves one pending slot and counts the
    /// request, or refuses with [`ServiceError::Overloaded`] when the
    /// core already has [`ServiceConfig::max_pending`] requests queued
    /// or executing across its sessions.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Overloaded`]; nothing is reserved then.
    pub(crate) fn admit(&self) -> Result<(), ServiceError> {
        let capacity = self.config.max_pending.max(1);
        let mut current = self.pending.load(Ordering::Relaxed);
        loop {
            if current >= capacity {
                return Err(ServiceError::Overloaded {
                    pending: current,
                    capacity,
                });
            }
            match self.pending.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.requests.inc();
                    return Ok(());
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Releases `n` admission slots reserved by [`admit`](Self::admit)
    /// — called once the requests are answered, or when a session is
    /// dropped with requests still queued.
    pub(crate) fn release(&self, n: usize) {
        if n > 0 {
            self.pending.fetch_sub(n, Ordering::AcqRel);
        }
    }

    /// Executes one batch against this core: verified cache probe,
    /// parallel inference for the misses, cache fill, and telemetry.
    /// Returns one reply per request in input order. Admission slots
    /// are *not* released here — the session that reserved them does
    /// that, because a hot-swap can retire a core between reservation
    /// and execution.
    pub(crate) fn run_batch(&self, batch: &[PredictRequest]) -> Vec<ServiceReply> {
        if batch.is_empty() {
            return Vec::new();
        }
        // ppdl-lint: allow(determinism/wall-clock) -- per-batch latency telemetry only
        let t0 = Instant::now();
        let mut slots: Vec<Option<ServiceReply>> = (0..batch.len()).map(|_| None).collect();
        let mut miss_indices = Vec::new();
        {
            let cache = lock(&self.cache);
            for (i, request) in batch.iter().enumerate() {
                match cache.probe(request.fingerprint(), request) {
                    CacheProbe::Hit(mut response) => {
                        response.id.clone_from(&request.id);
                        self.cache_hits.inc();
                        slots[i] = Some(ServiceReply {
                            id: request.id.clone(),
                            cached: true,
                            result: Ok(response),
                        });
                    }
                    CacheProbe::Collision => {
                        self.cache_collisions.inc();
                        miss_indices.push(i);
                    }
                    CacheProbe::Miss => miss_indices.push(i),
                }
            }
        }
        let misses: Vec<&PredictRequest> = miss_indices.iter().map(|&i| &batch[i]).collect();
        let predictor = &self.bundle.predictor;
        let base = &self.base;
        let stride = self.bundle.meta.inference_stride;
        // Only the wire response outlives its request: the test design
        // and per-node estimate of each prediction are dropped at once
        // rather than held until the whole batch is done.
        // ppdl-lint: allow(determinism/tainted-parallel) -- predict reaches Perturbation::apply (StdRng seeded per perturbation) and its clock read is latency telemetry under its own wall-clock allow; replies are bitwise deterministic per request
        let computed = ppdl_solver::parallel::par_map_vec(&misses, |_, request| {
            predict(predictor, base, request, stride).map(|prediction| prediction.response)
        });
        {
            let mut cache = lock(&self.cache);
            for (&i, outcome) in miss_indices.iter().zip(computed) {
                let request = &batch[i];
                let result = match outcome {
                    Ok(response) => {
                        cache.insert(request.fingerprint(), request, response.clone());
                        Ok(response)
                    }
                    Err(e) => Err(ServiceError::Core(e)),
                };
                slots[i] = Some(ServiceReply {
                    id: request.id.clone(),
                    cached: false,
                    result,
                });
            }
        }
        let batch_secs = t0.elapsed().as_secs_f64();
        self.batches.inc();
        // One latency sample per *batch* — request-level latency is the
        // batch's latency, so per-request samples would only skew the
        // quantiles toward large batches.
        self.batch_ms.record(batch_secs * 1e3);
        *lock(&self.last_batch) = (batch.len(), batch_secs);
        let replies: Vec<ServiceReply> = slots.into_iter().flatten().collect();
        for reply in &replies {
            match reply.result {
                Ok(_) => self.ok.inc(),
                Err(_) => self.errors.inc(),
            }
        }
        replies
    }

    /// The body of one bundle's stats JSON object (everything after
    /// the status tag), shared by the registry snapshot's top level
    /// (the default bundle) and its per-bundle map. `queue_depth`
    /// reports the core-wide pending count, which for a lone session is
    /// its queue length.
    pub(crate) fn stats_body(&self) -> String {
        use ppdl_core::pipeline::{json_number, json_string};
        let s = self.stats();
        let quantile = |q: f64| {
            self.batch_ms
                .quantile(q)
                .map_or_else(|| "null".to_string(), json_number)
        };
        format!(
            concat!(
                "\"preset\":{},\"requests\":{},\"ok\":{},",
                "\"errors\":{},\"cache_hits\":{},\"batches\":{},\"queue_depth\":{},",
                "\"busy_ms\":{},\"last_batch_size\":{},\"last_batch_ms\":{},",
                "\"throughput_rps\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},",
                "\"cache_collisions\":{},\"pending\":{}"
            ),
            json_string(self.bundle.meta.preset.name()),
            s.requests,
            s.ok,
            s.errors,
            s.cache_hits,
            s.batches,
            s.pending,
            json_number(s.busy_secs * 1e3),
            s.last_batch_size,
            json_number(s.last_batch_secs * 1e3),
            json_number(s.throughput_rps()),
            quantile(0.50),
            quantile(0.95),
            quantile(0.99),
            s.cache_collisions,
            s.pending,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_core::{DlFlowConfig, Perturbation, PerturbationKind};
    use ppdl_netlist::IbmPgPreset;
    use std::sync::Arc;

    /// A one-bundle registry, a session on it (the shape `ppdl serve`
    /// runs on stdio), and the core whose counters the assertions read.
    fn service_with(config: ServiceConfig) -> (Arc<ModelRegistry>, Session, Arc<ServiceCore>) {
        let bundle =
            TrainedBundle::train(IbmPgPreset::Ibmpg1, 0.01, 3, DlFlowConfig::fast(), None).unwrap();
        let registry = Arc::new(ModelRegistry::new(config));
        registry.install("m", bundle).unwrap();
        let core = registry.get("m").unwrap();
        let session = registry.session();
        (registry, session, core)
    }

    fn service() -> (Arc<ModelRegistry>, Session, Arc<ServiceCore>) {
        service_with(ServiceConfig::default())
    }

    fn request(id: &str, seed: u64) -> PredictRequest {
        PredictRequest::new(id)
            .with_perturbation(Perturbation::new(0.1, PerturbationKind::Both, seed).unwrap())
    }

    #[test]
    fn batch_replies_in_order_and_counted() {
        let (_, mut s, core) = service();
        for i in 0..5 {
            s.enqueue(None, request(&format!("q{i}"), i)).unwrap();
        }
        let replies = s.flush();
        assert_eq!(replies.len(), 5);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.id, format!("q{i}"));
            let resp = r.result.as_ref().unwrap();
            assert!(resp.worst_ir_mv > 0.0);
            assert!(!resp.widths.is_empty());
        }
        let st = core.stats();
        assert_eq!(st.requests, 5);
        assert_eq!(st.ok, 5);
        assert_eq!(st.errors, 0);
        assert_eq!(st.pending, 0);
        assert!(st.busy_secs > 0.0);
        assert!(st.throughput_rps() > 0.0);
        assert_eq!(st.last_batch_size, 5);
    }

    #[test]
    fn batch_matches_sequential_inference() {
        let (_, mut s, core) = service();
        let reqs: Vec<PredictRequest> =
            (0..4).map(|i| request(&format!("q{i}"), 100 + i)).collect();
        for r in &reqs {
            s.enqueue(None, r.clone()).unwrap();
        }
        let replies = s.flush();
        for (reply, req) in replies.iter().zip(&reqs) {
            let direct = predict(
                &core.bundle().predictor,
                core.base(),
                req,
                core.bundle().meta.inference_stride,
            )
            .unwrap();
            let got = reply.result.as_ref().unwrap();
            assert_eq!(got.widths, direct.response.widths);
            assert_eq!(got.worst_ir_mv, direct.response.worst_ir_mv);
        }
    }

    #[test]
    fn cache_hits_repeat_payloads() {
        let (_, mut s, core) = service();
        s.enqueue(None, request("first", 9)).unwrap();
        let a = s.flush();
        // Same payload, different id: must be a cache hit with the new id.
        s.enqueue(None, request("second", 9)).unwrap();
        let b = s.flush();
        assert!(!a[0].cached);
        assert!(b[0].cached);
        assert_eq!(b[0].result.as_ref().unwrap().id, "second");
        assert_eq!(
            a[0].result.as_ref().unwrap().widths,
            b[0].result.as_ref().unwrap().widths
        );
        assert_eq!(core.stats().cache_hits, 1);
        assert_eq!(core.stats().cache_collisions, 0);
    }

    #[test]
    fn backpressure_and_recovery() {
        let (_, mut s, core) = service_with(ServiceConfig {
            queue_capacity: 2,
            max_batch: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        s.enqueue(None, request("a", 1)).unwrap();
        s.enqueue(None, request("b", 2)).unwrap();
        let err = s.enqueue(None, request("c", 3)).unwrap_err();
        assert_eq!(err.code(), "service/queue_full");
        // max_batch=1 still drains the whole queue across two batches.
        let replies = s.flush();
        assert_eq!(replies.len(), 2);
        assert_eq!(core.stats().batches, 2);
        // After flushing there is room again.
        s.enqueue(None, request("c", 3)).unwrap();
        assert_eq!(s.queue_depth(), 1);
    }

    #[test]
    fn admission_control_refuses_past_max_pending() {
        let (_, mut s, core) = service_with(ServiceConfig {
            queue_capacity: 64,
            max_pending: 3,
            ..ServiceConfig::default()
        });
        for i in 0..3 {
            s.enqueue(None, request(&format!("q{i}"), i)).unwrap();
        }
        let err = s.enqueue(None, request("q3", 3)).unwrap_err();
        assert_eq!(err.code(), "service/overloaded");
        assert_eq!(core.stats().pending, 3);
        // The refused request was not counted as admitted.
        assert_eq!(core.stats().requests, 3);
        // Flushing drains the gauge and admission recovers.
        let replies = s.flush();
        assert_eq!(replies.len(), 3);
        assert_eq!(core.stats().pending, 0);
        s.enqueue(None, request("q4", 4)).unwrap();
    }

    #[test]
    fn per_request_errors_are_typed_not_fatal() {
        let (_, mut s, core) = service();
        let n_loads = core.base().network().current_loads().len();
        s.enqueue(
            None,
            PredictRequest::new("bad").with_load_override(n_loads + 7, 1e-6),
        )
        .unwrap();
        s.enqueue(None, request("good", 4)).unwrap();
        let replies = s.flush();
        assert_eq!(replies.len(), 2);
        let bad = replies[0].result.as_ref().unwrap_err();
        assert_eq!(bad.code(), "core/invalid_config");
        assert!(replies[1].result.is_ok());
        assert_eq!(core.stats().errors, 1);
        assert_eq!(core.stats().ok, 1);
    }

    #[test]
    fn burst_flush_on_full_keeps_accounting_consistent() {
        // Enqueue more requests than the queue holds in one loop,
        // flushing on backpressure exactly as the serve loop does, and
        // check every counter adds up afterwards. Seeds repeat (i % 5)
        // so the second half of the burst is served from the cache.
        let (registry, mut s, core) = service_with(ServiceConfig {
            queue_capacity: 4,
            max_batch: 2,
            cache_capacity: 16,
            ..ServiceConfig::default()
        });
        let mut replies = Vec::new();
        for i in 0..10u64 {
            if s.queue_depth() >= registry.config().queue_capacity {
                replies.extend(s.flush());
            }
            s.enqueue(None, request(&format!("r{i}"), i % 5)).unwrap();
        }
        replies.extend(s.flush());

        assert_eq!(replies.len(), 10);
        assert_eq!(s.queue_depth(), 0);
        let st = core.stats();
        assert_eq!(st.requests, 10);
        assert_eq!(st.ok, 10);
        assert_eq!(st.errors, 0);
        assert_eq!(st.cache_hits, 5);
        assert_eq!(st.pending, 0);
        // 10 requests drained in batches of ≤2 → exactly 5 batches.
        assert_eq!(st.batches, 5);
        // The latency histogram records one sample per *batch*, never
        // per request.
        let telemetry = Json::parse(&registry.telemetry_json()).unwrap();
        let batch_ms = telemetry
            .get("service")
            .and_then(|v| v.get("histograms"))
            .and_then(|v| v.get("service/batch_ms"))
            .expect("batch_ms histogram in snapshot");
        assert_eq!(batch_ms.get("count").unwrap().as_u64(), Some(st.batches));
    }

    #[test]
    fn cache_eviction_is_insertion_ordered() {
        // The FIFO cache must evict in *insertion* order under
        // capacity pressure — never in map-iteration order. With the
        // old HashMap backing this held only because eviction reads the
        // VecDeque; this pins the behaviour against the BTreeMap
        // rewrite and any future drain-based implementation. The
        // fingerprints are chosen out of numeric order so
        // insertion-order and key-order eviction disagree.
        let mut cache = ResponseCache::new(2);
        let resp = |id: &str| PredictResponse {
            id: id.to_string(),
            widths: vec![1.0],
            worst_ir_mv: 1.0,
            dl_ms: 0.0,
        };
        let req = |seed: u64| {
            PredictRequest::new("r")
                .with_perturbation(Perturbation::new(0.1, PerturbationKind::Both, seed).unwrap())
        };
        cache.insert(9, &req(9), resp("a"));
        cache.insert(1, &req(1), resp("b"));
        cache.insert(5, &req(5), resp("c")); // evicts fingerprint 9 (oldest), not 1 (smallest)
        assert!(
            matches!(cache.probe(9, &req(9)), CacheProbe::Miss),
            "oldest entry must be evicted"
        );
        assert!(matches!(cache.probe(1, &req(1)), CacheProbe::Hit(_)));
        assert!(matches!(cache.probe(5, &req(5)), CacheProbe::Hit(_)));
        // Re-inserting an existing key does not grow the queue or evict.
        cache.insert(1, &req(1), resp("b2"));
        assert!(matches!(cache.probe(5, &req(5)), CacheProbe::Hit(_)));
        assert_eq!(cache.order.len(), 2);
    }

    #[test]
    fn forced_fingerprint_collision_never_returns_wrong_response() {
        // Regression for the bare-u64 cache key: two requests with
        // *different* payloads stored under the same fingerprint (as a
        // real 64-bit collision would produce) must not be served each
        // other's response. Before the payload-verified cache, probe()
        // keyed by the bare fingerprint and returned request A's
        // response for request B.
        let mut cache = ResponseCache::new(8);
        let req_a = PredictRequest::new("a")
            .with_perturbation(Perturbation::new(0.1, PerturbationKind::Both, 1).unwrap());
        let req_b = PredictRequest::new("b")
            .with_perturbation(Perturbation::new(0.2, PerturbationKind::Both, 2).unwrap());
        assert!(!req_a.payload_eq(&req_b));
        let resp_a = PredictResponse {
            id: "a".to_string(),
            widths: vec![1.0, 2.0],
            worst_ir_mv: 3.0,
            dl_ms: 0.0,
        };
        const COLLIDING_FINGERPRINT: u64 = 0xDEAD_BEEF;
        cache.insert(COLLIDING_FINGERPRINT, &req_a, resp_a.clone());
        // The colliding probe must be a typed Collision (answered by
        // inference), never a Hit carrying request A's response.
        assert!(matches!(
            cache.probe(COLLIDING_FINGERPRINT, &req_b),
            CacheProbe::Collision
        ));
        // The true owner still hits.
        match cache.probe(COLLIDING_FINGERPRINT, &req_a) {
            CacheProbe::Hit(r) => assert_eq!(r.widths, resp_a.widths),
            _ => panic!("verified probe must hit for the owning payload"),
        }
        // A colliding insert takes the slot over; the old payload now
        // misses by verification instead of hitting the wrong entry.
        let resp_b = PredictResponse {
            id: "b".to_string(),
            widths: vec![9.0],
            worst_ir_mv: 1.0,
            dl_ms: 0.0,
        };
        cache.insert(COLLIDING_FINGERPRINT, &req_b, resp_b.clone());
        assert!(matches!(
            cache.probe(COLLIDING_FINGERPRINT, &req_a),
            CacheProbe::Collision
        ));
        match cache.probe(COLLIDING_FINGERPRINT, &req_b) {
            CacheProbe::Hit(r) => assert_eq!(r.widths, resp_b.widths),
            _ => panic!("newest payload owns the collided slot"),
        }
    }

    #[test]
    fn collision_counter_reaches_the_stats() {
        // End-to-end through a service: same gamma/kind/seed payloads
        // hit, and the collision counter surfaces in the stats JSON.
        let (registry, _, _) = service();
        let v = Json::parse(&registry.stats_json()).unwrap();
        assert_eq!(v.get("cache_collisions").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("pending").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn stats_json_is_parseable() {
        let (registry, mut s, _) = service();
        s.enqueue(None, request("q", 5)).unwrap();
        let _ = s.flush();
        let v = Json::parse(&registry.stats_json()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("stats"));
        assert_eq!(v.get("ok").unwrap().as_u64(), Some(1));
        assert!(v.get("throughput_rps").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("last_batch_ms").unwrap().as_f64().unwrap() > 0.0);
        // The percentile estimates ride along after the legacy keys.
        for key in ["p50_ms", "p95_ms", "p99_ms"] {
            assert!(v.get(key).unwrap().as_f64().unwrap() > 0.0, "{key}");
        }
    }

    #[test]
    fn percentiles_are_null_before_first_batch() {
        let (registry, _, _) = service();
        let v = Json::parse(&registry.stats_json()).unwrap();
        assert_eq!(v.get("p50_ms"), Some(&Json::Null));
        assert_eq!(v.get("p99_ms"), Some(&Json::Null));
    }
}

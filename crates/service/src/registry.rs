//! The resident model registry: many [`TrainedBundle`]s loaded at
//! once, requests routed by a `bundle` id, and atomic hot-swap.
//!
//! PowerNet and OpeNPDN both frame a trained IR-drop model as a
//! *shared* artifact reused across designs; operationally that means
//! one serving process holding several bundles (one per preset/scale,
//! or an old and a new revision side by side) with clients naming the
//! one they want. Every transport serves through it — stdin/stdout is
//! one session over the same registry a listener shares between its
//! connections. The registry is a `name → Arc<ServiceCore>` map:
//!
//! * **Routing** — [`Session::enqueue`] resolves the bundle name to
//!   its current core *at enqueue time* and pins that `Arc`. A request
//!   without a name routes to the default bundle (the first installed).
//! * **Hot-swap** — [`ModelRegistry::install`] builds the replacement
//!   core off to the side (validate, regenerate the base — the slow
//!   part) and then swaps the map slot under a brief write lock.
//!   Requests already enqueued keep their pinned `Arc` and complete
//!   bitwise-identically on the old bundle; requests enqueued after the
//!   swap run on the new one. The old core is freed when its last
//!   in-flight batch drops the reference.
//! * **Admission control** — enqueueing reserves a slot on the pinned
//!   core (its `max_pending` gauge); saturation yields a typed
//!   `service/overloaded` error instead of unbounded queueing, and the
//!   reservation is released even if the session dies before flushing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use ppdl_core::pipeline::json_string;
use ppdl_core::predict::{PredictRequest, TrainedBundle};

use crate::{ServiceConfig, ServiceCore, ServiceError, ServiceReply};

/// Recovering read/write locks: the maps hold only independent
/// `Arc` slots, so a guard from a poisoned lock is still consistent.
fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A resident map of named serving cores; see the module docs.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use ppdl_core::{DlFlowConfig, PredictRequest, TrainedBundle};
/// use ppdl_netlist::IbmPgPreset;
/// use ppdl_service::{ModelRegistry, ServiceConfig};
///
/// let bundle = TrainedBundle::train(
///     IbmPgPreset::Ibmpg1,
///     0.01,
///     3,
///     DlFlowConfig::fast(),
///     None,
/// )
/// .unwrap();
/// let registry = Arc::new(ModelRegistry::new(ServiceConfig::default()));
/// registry.install("m", bundle).unwrap();
/// let mut session = registry.session();
/// session.enqueue(None, PredictRequest::new("q1")).unwrap();
/// let replies = session.flush();
/// assert_eq!(replies.len(), 1);
/// assert!(replies[0].result.is_ok());
/// ```
#[derive(Debug, Default)]
pub struct ModelRegistry {
    config: ServiceConfig,
    cores: RwLock<BTreeMap<String, Arc<ServiceCore>>>,
    /// The bundle unrouted requests go to: the first one installed.
    default_name: RwLock<Option<String>>,
}

impl ModelRegistry {
    /// An empty registry; every installed bundle gets a core built
    /// with this configuration.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            config,
            cores: RwLock::new(BTreeMap::new()),
            default_name: RwLock::new(None),
        }
    }

    /// The configuration shared by every core.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Installs (or hot-swaps) `bundle` under `name`. All the heavy
    /// work — validation, regenerating the base design — happens
    /// before the map lock is touched, so concurrent sessions never
    /// stall behind a load; the swap itself is one map insert.
    ///
    /// # Errors
    ///
    /// Propagates bundle validation / base-instantiation errors; the
    /// registry is unchanged then (the old bundle keeps serving).
    pub fn install(&self, name: &str, bundle: TrainedBundle) -> Result<(), ServiceError> {
        let core = Arc::new(ServiceCore::new(bundle, self.config.clone())?);
        write(&self.cores).insert(name.to_string(), core);
        let mut default = write(&self.default_name);
        if default.is_none() {
            *default = Some(name.to_string());
        }
        Ok(())
    }

    /// Installs (or hot-swaps) the bundle saved at `path` under `name`
    /// — the `{"cmd":"load",...}` implementation.
    ///
    /// # Errors
    ///
    /// Propagates load/validation errors; the registry is unchanged.
    pub fn install_path(&self, name: &str, path: impl AsRef<Path>) -> Result<(), ServiceError> {
        let bundle = TrainedBundle::load(path)?;
        self.install(name, bundle)
    }

    /// The current core registered under `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<ServiceCore>> {
        read(&self.cores).get(name).map(Arc::clone)
    }

    /// Resolves an optional route to its current core: a named bundle,
    /// or the default bundle for unrouted requests. An empty registry
    /// has no default, so `None` then fails as `<default>`.
    fn resolve(&self, name: Option<&str>) -> Result<Arc<ServiceCore>, ServiceError> {
        let name = match name {
            Some(n) => n.to_string(),
            None => read(&self.default_name)
                .clone()
                .unwrap_or_else(|| "<default>".to_string()),
        };
        self.get(&name)
            .ok_or(ServiceError::UnknownBundle { bundle: name })
    }

    /// Opens a routing session (one per client connection).
    #[must_use]
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            registry: Arc::clone(self),
            queue: Vec::new(),
        }
    }

    /// The `{"cmd":"bundles"}` reply: every resident bundle with its
    /// identity label and live pending count, plus the default route.
    #[must_use]
    pub fn bundles_json(&self) -> String {
        let cores = read(&self.cores);
        let default = read(&self.default_name).clone();
        let map = render_map(&cores, |core| {
            let meta = &core.bundle().meta;
            format!(
                "{{\"label\":{},\"preset\":{},\"backend\":{},\"straps\":{},\"pending\":{}}}",
                json_string(&meta.label()),
                json_string(meta.preset.name()),
                json_string(core.bundle().backend().tag()),
                core.bundle().golden_widths.len(),
                core.pending(),
            )
        });
        format!(
            "{{\"status\":\"bundles\",\"default\":{},\"bundles\":{map}}}",
            default.map_or_else(|| "null".to_string(), |n| json_string(&n))
        )
    }

    /// The `{"cmd":"stats"}` reply: the default bundle's stats body at
    /// the top level (the fields a one-bundle client reads), then one
    /// body per resident bundle under `bundles`.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let cores = read(&self.cores);
        let mut out = String::from("{\"status\":\"stats\",");
        if let Some(core) = self.default_core(&cores) {
            let _ = write!(out, "{},", core.stats_body());
        }
        let map = render_map(&cores, |core| format!("{{{}}}", core.stats_body()));
        let _ = write!(out, "\"bundles\":{map}}}");
        out
    }

    /// The `{"cmd":"stats","spans":true}` reply: the default bundle's
    /// [`ppdl_obs::Registry`] dump under `service`, one dump per
    /// resident bundle under `bundles`, then the global registry.
    #[must_use]
    pub fn telemetry_json(&self) -> String {
        let cores = read(&self.cores);
        let mut out = String::from("{\"status\":\"telemetry\",");
        if let Some(core) = self.default_core(&cores) {
            let _ = write!(out, "\"service\":{},", core.obs().snapshot_json());
        }
        let map = render_map(&cores, |core| core.obs().snapshot_json());
        let _ = write!(
            out,
            "\"bundles\":{map},\"global\":{}}}",
            ppdl_obs::global().snapshot_json()
        );
        out
    }

    /// The default bundle's core, looked up in an already-locked map so
    /// a snapshot's top level and its `bundles` entry read one core.
    fn default_core<'a>(
        &self,
        cores: &'a BTreeMap<String, Arc<ServiceCore>>,
    ) -> Option<&'a Arc<ServiceCore>> {
        read(&self.default_name)
            .as_deref()
            .and_then(|name| cores.get(name))
    }
}

/// Renders `{"<name>":<render(core)>,…}` over the resident cores, in
/// name order.
fn render_map(
    cores: &BTreeMap<String, Arc<ServiceCore>>,
    render: impl Fn(&ServiceCore) -> String,
) -> String {
    let mut out = String::from("{");
    for (i, (name, core)) in cores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(name), render(core));
    }
    out.push('}');
    out
}

/// One client's routed view of the registry: a bounded queue of
/// `(pinned core, request)` pairs. Pinning at enqueue is what makes
/// hot-swap safe — see the module docs.
#[derive(Debug)]
pub struct Session {
    registry: Arc<ModelRegistry>,
    queue: Vec<(Arc<ServiceCore>, PredictRequest)>,
}

impl Session {
    /// Requests currently queued in this session.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Routes and admits one request: resolves `bundle` to its current
    /// core, reserves an admission slot on it, and queues the pair.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] when this session's queue is at
    /// capacity (flush first), [`ServiceError::UnknownBundle`] for an
    /// unroutable name, and [`ServiceError::Overloaded`] when the
    /// target core's admission bound is hit. Nothing is queued or
    /// reserved on error.
    pub fn enqueue(
        &mut self,
        bundle: Option<&str>,
        request: PredictRequest,
    ) -> Result<(), ServiceError> {
        let capacity = self.registry.config().queue_capacity;
        if self.queue.len() >= capacity {
            return Err(ServiceError::QueueFull { capacity });
        }
        let core = self.registry.resolve(bundle)?;
        core.admit()?;
        self.queue.push((core, request));
        Ok(())
    }

    /// Drains the queue: consecutive requests pinned to the same core
    /// run together in batches of at most `max_batch`, in enqueue
    /// order, and every admission slot is released on the core that
    /// granted it. Each core that ran a batch records one
    /// `service/flush` span: the wall time of its batches in this
    /// flush. Replies come back in enqueue order; per-request failures
    /// are typed error replies, flush itself never fails.
    pub fn flush(&mut self) -> Vec<ServiceReply> {
        let drained = std::mem::take(&mut self.queue);
        let mut replies = Vec::with_capacity(drained.len());
        let mut spent: Vec<(&Arc<ServiceCore>, f64)> = Vec::new();
        let mut i = 0;
        while i < drained.len() {
            // ppdl-lint: allow(determinism/wall-clock) -- feeds only the flush span; never touches prediction values
            let t0 = Instant::now();
            let core = &drained[i].0;
            let max_batch = core.config().max_batch.max(1);
            let mut j = i + 1;
            while j < drained.len() && j - i < max_batch && Arc::ptr_eq(&drained[j].0, core) {
                j += 1;
            }
            let batch: Vec<PredictRequest> = drained[i..j].iter().map(|(_, r)| r.clone()).collect();
            replies.extend(core.run_batch(&batch));
            core.release(batch.len());
            let secs = t0.elapsed().as_secs_f64();
            match spent.iter_mut().find(|(c, _)| Arc::ptr_eq(c, core)) {
                Some((_, total)) => *total += secs,
                None => spent.push((core, secs)),
            }
            i = j;
        }
        for (core, secs) in spent {
            core.obs().record_span("service/flush", secs);
        }
        replies
    }
}

impl Drop for Session {
    /// A session dropped with requests still queued (client
    /// disconnected between enqueue and flush) returns its admission
    /// slots so the cores do not leak capacity.
    fn drop(&mut self) {
        for (core, _) in &self.queue {
            core.release(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;
    use ppdl_core::predict::predict;
    use ppdl_core::{DlFlowConfig, Perturbation, PerturbationKind};
    use ppdl_netlist::IbmPgPreset;

    fn bundle(seed: u64) -> TrainedBundle {
        TrainedBundle::train(IbmPgPreset::Ibmpg1, 0.01, seed, DlFlowConfig::fast(), None).unwrap()
    }

    fn request(id: &str, seed: u64) -> PredictRequest {
        PredictRequest::new(id)
            .with_perturbation(Perturbation::new(0.1, PerturbationKind::Both, seed).unwrap())
    }

    fn registry_with(names_seeds: &[(&str, u64)]) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new(ServiceConfig::default()));
        for &(name, seed) in names_seeds {
            registry.install(name, bundle(seed)).unwrap();
        }
        registry
    }

    #[test]
    fn routes_by_bundle_name_and_defaults_to_first_installed() {
        let registry = registry_with(&[("a", 3), ("b", 5)]);
        let mut session = registry.session();
        session.enqueue(Some("b"), request("to-b", 1)).unwrap();
        session.enqueue(None, request("to-default", 2)).unwrap();
        session.enqueue(Some("a"), request("to-a", 3)).unwrap();
        let replies = session.flush();
        assert_eq!(replies.len(), 3);
        // Reply order is enqueue order even across different cores.
        assert_eq!(replies[0].id, "to-b");
        assert_eq!(replies[1].id, "to-default");
        assert_eq!(replies[2].id, "to-a");
        // Routed replies match direct inference on the named core.
        let core_b = registry.get("b").unwrap();
        let direct = predict(
            &core_b.bundle().predictor,
            core_b.base(),
            &request("to-b", 1),
            core_b.bundle().meta.inference_stride,
        )
        .unwrap();
        assert_eq!(
            replies[0].result.as_ref().unwrap().widths,
            direct.response.widths
        );
        // Unknown names are typed errors, nothing reserved.
        let err = session.enqueue(Some("ghost"), request("x", 9)).unwrap_err();
        assert_eq!(err.code(), "service/unknown_bundle");
        assert_eq!(registry.get("a").unwrap().pending(), 0);
    }

    #[test]
    fn hot_swap_completes_pinned_batch_on_old_bundle_and_routes_next_to_new() {
        let registry = registry_with(&[("m", 3)]);
        let old_core = registry.get("m").unwrap();
        let old_direct = predict(
            &old_core.bundle().predictor,
            old_core.base(),
            &request("inflight", 7),
            old_core.bundle().meta.inference_stride,
        )
        .unwrap();

        // A batch is enqueued (pinned to the old core), then the swap
        // lands before it flushes — exactly the mid-flight window.
        let mut session = registry.session();
        session.enqueue(Some("m"), request("inflight", 7)).unwrap();
        registry.install("m", bundle(11)).unwrap();

        let replies = session.flush();
        assert_eq!(replies.len(), 1);
        // Bitwise-identical to the old bundle's direct answer.
        assert_eq!(
            replies[0].result.as_ref().unwrap().widths,
            old_direct.response.widths
        );
        assert_eq!(
            replies[0].result.as_ref().unwrap().worst_ir_mv,
            old_direct.response.worst_ir_mv
        );
        // The old core's gauge drained even though the slot was swapped.
        assert_eq!(old_core.pending(), 0);

        // The next enqueue resolves to the new core and answers with
        // the new bundle (trained at a different seed → different base).
        let new_core = registry.get("m").unwrap();
        assert!(!Arc::ptr_eq(&old_core, &new_core));
        session.enqueue(Some("m"), request("next", 7)).unwrap();
        let replies = session.flush();
        let new_direct = predict(
            &new_core.bundle().predictor,
            new_core.base(),
            &request("next", 7),
            new_core.bundle().meta.inference_stride,
        )
        .unwrap();
        assert_eq!(
            replies[0].result.as_ref().unwrap().widths,
            new_direct.response.widths
        );
        assert_ne!(
            new_direct.response.widths, old_direct.response.widths,
            "swap must actually change the serving bundle"
        );
    }

    #[test]
    fn admission_is_shared_across_sessions_and_released_on_drop() {
        let registry = Arc::new(ModelRegistry::new(ServiceConfig {
            max_pending: 2,
            ..ServiceConfig::default()
        }));
        registry.install("m", bundle(3)).unwrap();
        let mut s1 = registry.session();
        let mut s2 = registry.session();
        s1.enqueue(None, request("a", 1)).unwrap();
        s2.enqueue(None, request("b", 2)).unwrap();
        // The *other* session hits the shared core-wide bound.
        let err = s1.enqueue(None, request("c", 3)).unwrap_err();
        assert_eq!(err.code(), "service/overloaded");
        assert!(matches!(
            err,
            ServiceError::Overloaded {
                pending: 2,
                capacity: 2
            }
        ));
        // Dropping an unflushed session returns its slot.
        drop(s2);
        assert_eq!(registry.get("m").unwrap().pending(), 1);
        s1.enqueue(None, request("c", 3)).unwrap();
        let replies = s1.flush();
        assert_eq!(replies.len(), 2);
        assert_eq!(registry.get("m").unwrap().pending(), 0);
    }

    #[test]
    fn registry_snapshots_are_parseable_and_complete() {
        let registry = registry_with(&[("a", 3), ("b", 5)]);
        let mut session = registry.session();
        session.enqueue(Some("a"), request("q", 1)).unwrap();
        let _ = session.flush();

        let bundles = Json::parse(&registry.bundles_json()).unwrap();
        assert_eq!(bundles.get("status").unwrap().as_str(), Some("bundles"));
        assert_eq!(bundles.get("default").unwrap().as_str(), Some("a"));
        let map = bundles.get("bundles").unwrap();
        for name in ["a", "b"] {
            assert_eq!(
                map.get(name).unwrap().get("preset").unwrap().as_str(),
                Some("ibmpg1")
            );
            assert_eq!(
                map.get(name).unwrap().get("backend").unwrap().as_str(),
                Some("mlp")
            );
        }

        let stats = Json::parse(&registry.stats_json()).unwrap();
        let a = stats.get("bundles").unwrap().get("a").unwrap();
        assert_eq!(a.get("ok").unwrap().as_u64(), Some(1));
        let b = stats.get("bundles").unwrap().get("b").unwrap();
        assert_eq!(b.get("ok").unwrap().as_u64(), Some(0));
        // The top level is the default bundle's body, key for key, so a
        // one-bundle client reads `preset`/`ok`/`p50_ms` where it always
        // did; the per-bundle map follows it.
        let Json::Obj(top) = &stats else {
            panic!("stats is an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.first(), Some(&"status"));
        assert_eq!(keys.last(), Some(&"bundles"));
        let Json::Obj(a_body) = a else {
            panic!("bundle body is an object")
        };
        assert_eq!(&top[1..top.len() - 1], &a_body[..]);
        assert_eq!(stats.get("preset").unwrap().as_str(), Some("ibmpg1"));

        let telemetry = Json::parse(&registry.telemetry_json()).unwrap();
        assert!(telemetry
            .get("bundles")
            .unwrap()
            .get("a")
            .unwrap()
            .get("counters")
            .is_some());
        assert!(telemetry.get("global").is_some());
        // `service` is the default bundle's snapshot, flush span included.
        let service = telemetry.get("service").unwrap();
        let batches = service.get("counters").unwrap().get("service/batches");
        assert_eq!(batches.unwrap().as_u64(), Some(1));
        assert!(service.get("spans").unwrap().get("service/flush").is_some());
        let Json::Obj(sections) = &telemetry else {
            panic!("telemetry is an object")
        };
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["status", "service", "bundles", "global"]);
    }

    #[test]
    fn routes_across_backend_kinds() {
        use ppdl_core::BackendKind;
        let registry = Arc::new(ModelRegistry::new(ServiceConfig::default()));
        registry.install("mlp", bundle(3)).unwrap();
        let encdec = TrainedBundle::train(
            IbmPgPreset::Ibmpg1,
            0.01,
            3,
            DlFlowConfig::builder()
                .fast()
                .backend(BackendKind::EncoderDecoder)
                .build(),
            None,
        )
        .unwrap();
        assert_eq!(encdec.backend(), BackendKind::EncoderDecoder);
        registry.install("encdec", encdec).unwrap();

        let mut session = registry.session();
        session
            .enqueue(Some("encdec"), request("via-encdec", 1))
            .unwrap();
        session.enqueue(Some("mlp"), request("via-mlp", 1)).unwrap();
        let replies = session.flush();
        assert_eq!(replies.len(), 2);
        // Each request runs on the backend it was routed to, and the
        // two surrogates genuinely differ.
        for (reply, name) in replies.iter().zip(["encdec", "mlp"]) {
            let core = registry.get(name).unwrap();
            let direct = predict(
                &core.bundle().predictor,
                core.base(),
                &request(&reply.id, 1),
                core.bundle().meta.inference_stride,
            )
            .unwrap();
            assert_eq!(
                reply.result.as_ref().unwrap().widths,
                direct.response.widths
            );
        }
        assert_ne!(
            replies[0].result.as_ref().unwrap().widths,
            replies[1].result.as_ref().unwrap().widths
        );
        // The bundles snapshot reports each core's backend kind.
        let bundles = Json::parse(&registry.bundles_json()).unwrap();
        let map = bundles.get("bundles").unwrap();
        assert_eq!(
            map.get("encdec").unwrap().get("backend").unwrap().as_str(),
            Some("encdec")
        );
        assert_eq!(
            map.get("mlp").unwrap().get("backend").unwrap().as_str(),
            Some("mlp")
        );
    }
}

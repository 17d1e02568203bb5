//! Batched prediction-service throughput vs batch size.
//!
//! The paper's headline use case is incremental (ECO) redesign: a model
//! trained once on a signed-off grid answers streams of small-change
//! queries. This experiment measures that serving path end to end: a
//! [`TrainedBundle`] is trained once (through the cached pipeline
//! stages), installed as the one bundle of a [`ModelRegistry`] (what
//! `ppdl serve --bundle` builds), and a fixed stream of perturbation
//! requests is replayed through one [`Session`](ppdl_service::Session)
//! at increasing `max_batch` settings — the knob that bounds how many
//! requests one `par_map_vec` batch executes in parallel. A final pass
//! replays the same stream against a warm response cache to show the
//! cache-hit fast path.
//!
//! In-process, with the cache off, so only `max_batch` varies; the
//! `serve_saturation` experiment instead varies the client count over
//! real TCP.

use std::fmt::Write as _;
use std::sync::Arc;

use ppdl_core::pipeline::ArtifactCache;
use ppdl_core::predict::{PredictRequest, TrainedBundle};
use ppdl_core::{Perturbation, PerturbationKind};
use ppdl_netlist::IbmPgPreset;
use ppdl_service::{ModelRegistry, ServiceConfig, ServiceCore, Session};

use super::{base_builder, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

/// Requests per replay; enough to fill every batch size evenly.
const REQUESTS: usize = 64;

/// A one-bundle registry session and the core whose counters it feeds.
fn one_bundle(
    bundle: &TrainedBundle,
    config: ServiceConfig,
) -> Result<(Session, Arc<ServiceCore>), DynError> {
    let registry = Arc::new(ModelRegistry::new(config));
    registry.install("bench", bundle.clone())?;
    let core = registry
        .get("bench")
        .ok_or("bundle missing after install")?;
    Ok((registry.session(), core))
}

fn request_stream(seed: u64) -> Result<Vec<PredictRequest>, DynError> {
    let kinds = [
        PerturbationKind::NodeVoltages,
        PerturbationKind::CurrentWorkloads,
        PerturbationKind::Both,
    ];
    (0..REQUESTS)
        .map(|i| {
            let gamma = 0.05 + 0.20 * (i as f64) / (REQUESTS - 1) as f64;
            let kind = kinds[i % kinds.len()];
            let p = Perturbation::new(gamma, kind, seed + i as u64)?;
            Ok(PredictRequest::new(format!("q{i}")).with_perturbation(p))
        })
        .collect()
}

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("serve_throughput", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Prediction-service throughput on ibmpg2 (scale {}, seed {}, {REQUESTS} requests)\n",
        opts.scale, opts.seed
    );

    let bundle = TrainedBundle::train(
        IbmPgPreset::Ibmpg2,
        opts.scale,
        opts.seed,
        base_builder(opts).build(),
        cache,
    )?;
    manifest.set_config("straps", bundle.golden_widths.len());
    manifest.set_config("inference_stride", bundle.meta.inference_stride);

    let mut rows = Vec::new();
    for max_batch in [1usize, 2, 4, 8, 16, 32, 64] {
        // A fresh service per point: cold response cache (disabled, so
        // the numbers measure inference, not memoization) and zeroed
        // counters.
        let (mut session, core) = one_bundle(
            &bundle,
            ServiceConfig {
                queue_capacity: REQUESTS,
                max_batch,
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        )?;
        for request in request_stream(opts.seed)? {
            session.enqueue(None, request)?;
        }
        let replies = session.flush();
        let failed = replies.iter().filter(|r| r.result.is_err()).count();
        if failed > 0 {
            return Err(format!("{failed} requests failed in batch sweep").into());
        }
        let stats = core.stats();
        manifest.add_metric(&format!("batch{max_batch}_rps"), stats.throughput_rps());
        rows.push(vec![
            max_batch.to_string(),
            stats.batches.to_string(),
            format!("{:.1}", stats.busy_secs * 1e3),
            format!("{:.1}", stats.throughput_rps()),
        ]);
    }
    let header = ["max batch", "batches", "busy (ms)", "throughput (req/s)"];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    let path = write_primary_csv(opts, "serve_throughput.csv", &header, &rows)?;
    manifest.add_output(&path);

    // Warm-cache replay: same payload stream twice through one service
    // with the response cache on — the second pass must be all hits.
    let (mut session, core) = one_bundle(
        &bundle,
        ServiceConfig {
            queue_capacity: REQUESTS,
            max_batch: 64,
            cache_capacity: REQUESTS,
            ..ServiceConfig::default()
        },
    )?;
    for pass in 0..2 {
        for mut request in request_stream(opts.seed)? {
            request.id = format!("p{pass}-{}", request.id);
            session.enqueue(None, request)?;
        }
        session.flush();
    }
    let stats = core.stats();
    manifest.add_metric("warm_cache_hits", stats.cache_hits as f64);
    let _ = writeln!(
        report,
        "warm-cache replay: {} of {} repeat requests answered from cache",
        stats.cache_hits, REQUESTS
    );
    if stats.cache_hits as usize != REQUESTS {
        return Err(format!(
            "expected {REQUESTS} cache hits on the warm replay, saw {}",
            stats.cache_hits
        )
        .into());
    }
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

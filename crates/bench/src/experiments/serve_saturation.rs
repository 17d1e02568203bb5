//! Networked serving under concurrent load: client count vs batch
//! latency percentiles.
//!
//! `serve_throughput` measures the in-process batching engine; this
//! experiment measures the whole networked path the registry listener
//! adds — TCP framing, per-connection sessions, routed admission —
//! under increasing client concurrency. One [`TrainedBundle`] is
//! trained once (cached pipeline), installed into a [`ModelRegistry`],
//! and served on a loopback TCP port; each round spawns N concurrent
//! clients that stream flush-delimited request batches and verify
//! every reply. The reported p50/p95/p99 come from the per-bundle
//! `service/batch_ms` telemetry histogram — the same numbers a
//! production operator would scrape — alongside lifetime throughput.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use ppdl_core::pipeline::ArtifactCache;
use ppdl_core::predict::TrainedBundle;
use ppdl_netlist::IbmPgPreset;
use ppdl_service::{serve_tcp, Json, ModelRegistry, NetConfig, ServiceConfig};

use super::{base_builder, manifest_for, DynError, RunOutput};
use crate::harness::{format_table, write_primary_csv, Options};

/// Flush-delimited batches each client sends per round.
const BATCHES_PER_CLIENT: usize = 3;
/// Requests per batch; small enough that every client count finishes
/// quickly, large enough that batches actually form.
const REQUESTS_PER_BATCH: usize = 8;
/// The concurrency sweep.
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One client's workload: unique payloads (no cross-client cache
/// hits), every reply verified. Returns the ok-reply count.
fn run_client(addr: SocketAddr, client: usize) -> Result<usize, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut ok = 0usize;
    let mut line = String::new();
    for batch in 0..BATCHES_PER_CLIENT {
        for i in 0..REQUESTS_PER_BATCH {
            let seed = 1 + (client * 10_000 + batch * 100 + i) as u64;
            let gamma = 0.05 + 0.002 * (i as f64);
            writeln!(
                writer,
                "{{\"id\":\"c{client}-b{batch}-{i}\",\"gamma\":{gamma},\"seed\":{seed}}}"
            )
            .map_err(|e| e.to_string())?;
        }
        writeln!(writer, "{{\"cmd\":\"flush\"}}").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        for _ in 0..REQUESTS_PER_BATCH {
            line.clear();
            let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection mid-batch".to_string());
            }
            let reply = Json::parse(line.trim()).map_err(|e| e.to_string())?;
            match reply.get("status").and_then(Json::as_str) {
                Some("ok") => ok += 1,
                _ => return Err(format!("unexpected reply: {}", line.trim())),
            }
        }
    }
    let _ = writeln!(writer, "{{\"cmd\":\"quit\"}}");
    Ok(ok)
}

pub(super) fn run(opts: &Options, cache: Option<&ArtifactCache>) -> Result<RunOutput, DynError> {
    let mut manifest = manifest_for("serve_saturation", opts);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Networked serving saturation on ibmpg2 (scale {}, seed {}, \
         {BATCHES_PER_CLIENT}x{REQUESTS_PER_BATCH} requests/client)\n",
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

    let mut rows = Vec::new();
    for clients in CLIENT_COUNTS {
        // Fresh registry and listener per point: zeroed counters, a
        // cold (disabled) cache so latency measures inference, and a
        // client-count-independent admission bound.
        let registry = Arc::new(ModelRegistry::new(ServiceConfig {
            queue_capacity: REQUESTS_PER_BATCH * BATCHES_PER_CLIENT,
            max_batch: REQUESTS_PER_BATCH,
            cache_capacity: 0,
            max_pending: 4096,
        }));
        registry.install("m", bundle.clone())?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let net = NetConfig {
            max_clients: clients + 1,
        };
        let server = {
            let registry = Arc::clone(&registry);
            // ppdl-lint: allow(parallel/raw-spawn) -- the listener must run beside the clients this harness drives; its compute still goes through par_map_vec
            std::thread::spawn(move || serve_tcp(&registry, &listener, &net))
        };

        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                // ppdl-lint: allow(parallel/raw-spawn) -- concurrent load generators blocking on socket I/O are the experiment's independent variable
                std::thread::spawn(move || run_client(addr, client))
            })
            .collect();
        let mut ok = 0usize;
        for handle in handles {
            ok += handle
                .join()
                .map_err(|_| "client thread panicked")?
                .map_err(DynError::from)?;
        }
        let wall = t0.elapsed().as_secs_f64();
        let expected = clients * BATCHES_PER_CLIENT * REQUESTS_PER_BATCH;
        if ok != expected {
            return Err(format!("{ok} ok replies, expected {expected}").into());
        }

        let mut shutdown = TcpStream::connect(addr)?;
        shutdown.write_all(b"{\"cmd\":\"shutdown\"}\n")?;
        drop(shutdown);
        server.join().map_err(|_| "server thread panicked")??;

        let core = registry
            .get("m")
            .ok_or("bundle 'm' missing after the round")?;
        let batch_ms = core
            .obs()
            .histogram("service/batch_ms", &ppdl_obs::latency_buckets_ms());
        let quantile = |q: f64| {
            batch_ms
                .quantile(q)
                .ok_or("no batch latency samples recorded")
        };
        let (p50, p95, p99) = (quantile(0.50)?, quantile(0.95)?, quantile(0.99)?);
        let stats = core.stats();
        let rps = ok as f64 / wall;
        manifest.add_metric(&format!("c{clients}_p50_ms"), p50);
        manifest.add_metric(&format!("c{clients}_p95_ms"), p95);
        manifest.add_metric(&format!("c{clients}_p99_ms"), p99);
        manifest.add_metric(&format!("c{clients}_rps"), rps);
        rows.push(vec![
            clients.to_string(),
            ok.to_string(),
            stats.batches.to_string(),
            format!("{p50:.2}"),
            format!("{p95:.2}"),
            format!("{p99:.2}"),
            format!("{rps:.1}"),
        ]);
    }

    let header = [
        "clients",
        "replies",
        "batches",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "throughput (req/s)",
    ];
    let _ = writeln!(report, "{}", format_table(&header, &rows));
    let path = write_primary_csv(opts, "serve_saturation.csv", &header, &rows)?;
    manifest.add_output(&path);
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(RunOutput { manifest, report })
}

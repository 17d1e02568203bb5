//! The serving workload: networked ECO queries against `serve_tcp`
//! running in-process on loopback, from a closed-loop load generator.
//!
//! Each client connection writes a batch of requests and a flush line
//! as one buffered write on a TCP_NODELAY socket, then waits for every
//! reply before sending the next batch. Latency is the time from that
//! write to each reply line, and percentiles come from the exact
//! sorted samples.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppdl_core::predict::{PredictRequest, Prediction};
use ppdl_service::{serve_tcp, Json, ModelRegistry, NetConfig, ServiceConfig};

use crate::dl::{answer, ms};
use crate::fixture::{
    area_ratio, build_fixture, ir_err_pct, repeat_setup, signoff, Fixture, Recipe, Scenario,
    QUALITY_SET,
};
use crate::ledger::Report;
use crate::replay;
use crate::samples::{heap_growth, heap_mark, Samples, REPLAYS};
use crate::speed::Probe;
use crate::table4::{replay_registry, trace_answer, Traced};
use crate::Error;

/// Requests per flush-delimited batch.
pub const BATCH: usize = 8;

/// One reply as the client saw it.
#[derive(Debug)]
struct Served {
    index: usize,
    latency_ms: f64,
    /// `latency_ms` scaled to the reference host by the client's probe
    /// right after its batch.
    ref_ms: f64,
    /// Digest of the reply's widths and worst IR bits; the error code
    /// when the reply was not ok.
    outcome: Result<u64, String>,
}

struct ClientLog {
    replies: Vec<Served>,
    batch_rtt_ms: Vec<f64>,
    probe: Probe,
}

pub fn run(
    recipe: &Recipe,
    seed: u64,
    budget: Duration,
    clients: usize,
    report: &mut Report,
) -> Result<Samples, Error> {
    let ((fx, registry, listener), setup) = repeat_setup(recipe, || {
        let (fx, mut times) = build_fixture(recipe)?;
        let t0 = Instant::now();
        let registry = Arc::new(ModelRegistry::new(ServiceConfig::default()));
        registry.install("bench", fx.bundle.clone())?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        times.total_s += t0.elapsed().as_secs_f64();
        Ok(((fx, registry, listener), times))
    })?;
    let addr = listener.local_addr()?;
    let mut s = Samples {
        setup,
        ..Samples::default()
    };

    let session_replay = report.trace().then(|| replay_registry(&fx)).transpose()?;
    let probes: Vec<Probe> = (0..clients).map(|_| Probe::new()).collect();
    let heap = heap_mark();
    let next = AtomicUsize::new(0);
    let (logs, wall_s, served) = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(&registry, &listener, &NetConfig::default()));
        let t_start = Instant::now();
        let deadline = t_start + budget;
        let handles: Vec<_> = probes
            .into_iter()
            .map(|probe| {
                let next = &next;
                scope.spawn(move || client(addr, seed, next, deadline, probe))
            })
            .collect();
        let logs: Vec<io::Result<ClientLog>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect();
        let wall_s = t_start.elapsed().as_secs_f64();
        let served = shutdown(addr).and_then(|()| {
            server
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
        });
        (logs, wall_s, served)
    });
    s.peak_heap_bytes = heap_growth(heap);
    s.wall_s = wall_s;
    report.check("serve_tcp", served);

    // Clients probe the host after each batch; each probe scales its
    // batch's latencies.
    let mut probe = Probe::new();
    let mut replies = Vec::new();
    let mut rtts = Vec::new();
    for log in logs {
        if let Some(log) = report.check("client connection", log) {
            replies.extend(log.replies);
            rtts.extend(log.batch_rtt_ms);
            probe.merge(log.probe);
        }
    }
    replies.sort_by_key(|r| r.index);
    s.answer_ms = replies.iter().map(|r| r.latency_ms).collect();
    s.answer_ref_ms = replies.iter().map(|r| r.ref_ms).collect();
    probe.describe("served requests");
    if let Some(core) = registry.get("bench") {
        let st = core.stats();
        s.busy_frac = Some(st.busy_secs / wall_s);
        s.cache_hit_ratio = st.cache_hits as f64 / st.requests.max(1) as f64;
        // Means on both sides: the server reports only its total busy
        // time, and a median round trip less a mean batch time can go
        // negative when batch times are skewed.
        let busy_per_batch_ms = st.busy_secs * 1e3 / st.batches.max(1) as f64;
        let mean_rtt_ms = rtts.iter().sum::<f64>() / rtts.len().max(1) as f64;
        s.outside_batch_ms = Some(mean_rtt_ms - busy_per_batch_ms);
    }
    drop(registry);

    // Every ok reply must equal an in-process `predict` bit for bit. The
    // quality set's replies are signed off with their in-process answers
    // during this pass, spread across it, so their timings sample the
    // host over seconds rather than at one moment.
    for r in &replies {
        report.check(
            "served reply",
            r.outcome
                .as_ref()
                .map(|_| ())
                .map_err(|c| format!("r{}: {c}", r.index)),
        );
    }
    let ok: Vec<(usize, u64)> = replies
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|d| (r.index, *d)))
        .collect();
    s.answered_ok = ok.len();
    let every = (ok.len() / QUALITY_SET).max(1);
    let (mut quality, mut rest) = (
        ok.iter().filter(|r| r.0 < QUALITY_SET),
        ok.iter().filter(|r| r.0 >= QUALITY_SET),
    );
    let mut probe = Probe::new();
    let mut signed = [false; QUALITY_SET];
    for pos in 0..ok.len() {
        let next = if pos % every == 0 {
            quality.next().or_else(|| rest.next())
        } else {
            rest.next().or_else(|| quality.next())
        };
        let Some(&(index, digest)) = next else { break };
        let Some(request) = report.check("scenario", Scenario::nth(seed, index).request()) else {
            continue;
        };
        let Some((dl_ms, p)) = report.check("in-process predict", answer(&fx, &request)) else {
            continue;
        };
        let r = &p.response;
        report.expect(
            &format!("r{index} matches in-process predict bitwise"),
            reply_digest(&r.widths, r.worst_ir_mv) == digest,
        );
        if index < QUALITY_SET {
            signed[index] = true;
            sign_off_served(&fx, &request, dl_ms, p, &mut probe, &mut s, report);
        }
    }
    // A short run may not have served the whole quality set.
    for index in (0..QUALITY_SET).filter(|&i| !signed[i]) {
        let Some(request) = report.check("scenario", Scenario::nth(seed, index).request()) else {
            continue;
        };
        if let Some((dl_ms, p)) = report.check("predict", answer(&fx, &request)) {
            sign_off_served(&fx, &request, dl_ms, p, &mut probe, &mut s, report);
        }
    }
    probe.describe("sign-offs");
    // The same request stream, batch by batch, through a registry
    // session in-process.
    if let Some(registry) = &session_replay {
        let batches: Vec<Vec<String>> = (0..REPLAYS)
            .map(|b| {
                (b * BATCH..(b + 1) * BATCH)
                    .map(|i| Scenario::nth(seed, i).line())
                    .collect()
            })
            .collect();
        replay::service(registry, &batches, &mut s.service, report);
    }
    Ok(s)
}

/// Signs off an in-process answer to a served request and, when
/// tracing, replays it as phases.
fn sign_off_served(
    fx: &Fixture,
    request: &PredictRequest,
    dl_ms: f64,
    p: Prediction,
    probe: &mut Probe,
    s: &mut Samples,
    report: &mut Report,
) {
    let widths = p.response.widths;
    let mut design = p.test_bench;
    let before_resize = report.trace().then(|| design.clone());
    let Some(so) = report.check("sign-off", signoff(fx, &mut design, &widths)) else {
        return;
    };
    s.signoff_ms.push(so.secs * 1e3);
    s.signoff_ref_ms.push(so.secs * 1e3 * probe.factor());
    s.ir_err_pct
        .push(ir_err_pct(p.response.worst_ir_mv, so.worst_mv()));
    s.area_ratio.push(area_ratio(fx, &design));
    if let Some(before_resize) = before_resize.filter(|_| s.dl.len() < REPLAYS) {
        let traced = Traced {
            request,
            widths: &widths,
            before_resize: &before_resize,
            answer_ms: dl_ms,
            signoff_ms: so.secs * 1e3,
        };
        trace_answer(fx, &traced, s, report);
    }
}

const FLUSH: &[u8] = b"{\"cmd\":\"flush\"}\n";

/// One closed-loop connection: batches until `deadline`, at least one.
fn client(
    addr: SocketAddr,
    seed: u64,
    next: &AtomicUsize,
    deadline: Instant,
    probe: Probe,
) -> io::Result<ClientLog> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut log = ClientLog {
        replies: Vec::new(),
        batch_rtt_ms: Vec::new(),
        probe,
    };
    let mut frame = Vec::new();
    let mut lines = vec![String::new(); BATCH];
    let mut stamps = [0.0; BATCH];
    loop {
        let first = next.fetch_add(BATCH, Ordering::Relaxed);
        frame.clear();
        for i in first..first + BATCH {
            frame.extend_from_slice(Scenario::nth(seed, i).line().as_bytes());
            frame.push(b'\n');
        }
        frame.extend_from_slice(FLUSH);
        let t0 = Instant::now();
        writer.write_all(&frame)?;
        for (line, stamp) in lines.iter_mut().zip(&mut stamps) {
            line.clear();
            if reader.read_line(line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            *stamp = ms(t0);
        }
        log.batch_rtt_ms.push(ms(t0));
        let k = log.probe.factor();
        for (line, &latency_ms) in lines.iter().zip(&stamps) {
            let (index, outcome) = parse_reply(line);
            log.replies.push(Served {
                index: index.unwrap_or(usize::MAX),
                latency_ms,
                ref_ms: latency_ms * k,
                outcome,
            });
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    writer.write_all(b"{\"cmd\":\"quit\"}\n")?;
    Ok(log)
}

/// Stops the listener: its accept loop exits once a client asks.
fn shutdown(addr: SocketAddr) -> io::Result<()> {
    let mut control = TcpStream::connect(addr)?;
    control.write_all(b"{\"cmd\":\"shutdown\"}\n")
}

/// The request index a reply answers, and its digest or error code.
fn parse_reply(line: &str) -> (Option<usize>, Result<u64, String>) {
    let Ok(json) = Json::parse(line.trim_end()) else {
        return (None, Err(format!("unparseable reply {line:?}")));
    };
    let index = json
        .get("id")
        .and_then(Json::as_str)
        .and_then(|id| id.strip_prefix('r'))
        .and_then(|n| n.parse().ok());
    if json.get("status").and_then(Json::as_str) != Some("ok") {
        let code = json.get("code").and_then(Json::as_str).unwrap_or("no code");
        return (index, Err(code.to_string()));
    }
    let widths: Option<Vec<f64>> = json
        .get("widths")
        .and_then(Json::as_array)
        .and_then(|ws| ws.iter().map(Json::as_f64).collect());
    match (widths, json.get("worst_ir_mv").and_then(Json::as_f64)) {
        (Some(w), Some(worst)) => (index, Ok(reply_digest(&w, worst))),
        _ => (index, Err("ok reply without widths or worst_ir_mv".into())),
    }
}

/// FNV-1a over the bit patterns of the widths and the worst IR: equal
/// digests mean bitwise-equal answers.
fn reply_digest(widths: &[f64], worst_ir_mv: f64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in widths.iter().chain(std::iter::once(&worst_ir_mv)) {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_to_index_and_digest() {
        let ok = r#"{"id":"r17","status":"ok","worst_ir_mv":12.5,"dl_ms":3,"cached":false,"widths":[1.5,0.25]}"#;
        assert_eq!(
            parse_reply(ok),
            (Some(17), Ok(reply_digest(&[1.5, 0.25], 12.5)))
        );
        let err = r#"{"id":"r3","status":"error","code":"service/overloaded","detail":"x"}"#;
        assert_eq!(
            parse_reply(err),
            (Some(3), Err("service/overloaded".into()))
        );
        assert!(parse_reply("not json").1.is_err());
        assert_ne!(
            reply_digest(&[1.5, 0.25], 12.5),
            reply_digest(&[0.25, 1.5], 12.5)
        );
    }
}

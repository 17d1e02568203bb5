//! The newline-delimited JSON wire protocol.
//!
//! One JSON object per line, one line per reply. Request lines:
//!
//! ```json
//! {"id":"q1","gamma":0.1,"kind":"both","seed":5}
//! {"id":"q2","loads":[[0,0.0012],[17,0.0009]],"stride":2}
//! {"id":"q3","bundle":"ibmpg2","gamma":0.1}
//! {"cmd":"flush"}
//! {"cmd":"stats"}
//! {"cmd":"stats","spans":true}
//! {"cmd":"load","bundle":"ibmpg2","path":"new.bundle"}
//! {"cmd":"bundles"}
//! {"cmd":"quit"}
//! {"cmd":"shutdown"}
//! ```
//!
//! * `id` (required, string) — echoed in the reply.
//! * `bundle` (optional, string) — which registered bundle answers the
//!   request; without it the request goes to the default bundle (the
//!   first installed). An unknown name is a typed
//!   `service/unknown_bundle` reply carrying the request's `id`.
//! * `gamma` (optional, number in `(0,1)`) — §IV-D perturbation size;
//!   `kind` (`voltages`|`loads`|`both`, default `both`) and `seed`
//!   (integer, default 1) refine it.
//! * `loads` (optional, array of `[index, amps]` pairs) — explicit ECO
//!   current overrides applied after the perturbation.
//! * `stride` (optional, integer ≥ 1) — inference stride override.
//!
//! Replies are `{"id":…,"status":"ok","worst_ir_mv":…,"dl_ms":…,
//! "cached":…,"widths":[…]}` or `{"id":…,"status":"error","code":…,
//! "detail":…}`; `{"cmd":"stats"}` answers with the registry's
//! [`stats_json`](crate::ModelRegistry::stats_json) snapshot
//! (`"status":"stats"`: the default bundle's counters at the top level,
//! every bundle's under `bundles`), and `{"cmd":"stats","spans":true}`
//! with the full [`telemetry_json`](crate::ModelRegistry::telemetry_json)
//! span/histogram dump (`"status":"telemetry"`). Requests accumulate
//! in the session's bounded queue and execute as parallel batches on
//! `flush`, on `quit`, at end of input, or when the queue reaches
//! capacity (backpressure flushes rather than drops).
//! `{"cmd":"load"}` hot-swaps (or adds) a bundle for every session on
//! the registry, `{"cmd":"bundles"}` lists the resident ones, `quit`
//! ends this stream, and `{"cmd":"shutdown"}` also stops the listener
//! that accepted it (on stdin/stdout the two are the same).
//!
//! Every transport runs the one command loop here — [`serve_ndjson`]
//! over stdin/stdout and each [`net`](crate::net) connection — with one
//! registry [`Session`](crate::Session) per stream.
//!
//! Malformed lines produce an error reply and the loop keeps serving;
//! lines nesting JSON containers beyond [`MAX_DEPTH`](crate::MAX_DEPTH)
//! levels are rejected with code `service/json` before the reader
//! recurses into them, so a `[[[[…` bomb cannot overflow the stack.
//! Framing is byte-level (see `line.rs`): a final request line without
//! a trailing newline is parsed at EOF, an invalid-UTF-8 or oversized
//! line yields one typed `service/json` error and the stream continues,
//! and a transport error still flushes everything already queued before
//! surfacing — no accepted request is ever silently dropped.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ppdl_core::pipeline::{json_number, json_string};
use ppdl_core::predict::{parse_kind, PredictRequest};
use ppdl_core::Perturbation;

use crate::json::{Json, JsonError};
use crate::line::{LineEvent, LineReader, DEFAULT_MAX_LINE_BYTES};
use crate::registry::ModelRegistry;
use crate::{ServiceError, ServiceReply};

/// One parsed protocol line.
#[derive(Debug, Clone)]
pub enum Command {
    /// A prediction request to enqueue.
    Request {
        /// The registry bundle that should answer (`None` routes to
        /// the default bundle / the single loaded bundle).
        bundle: Option<String>,
        /// The request itself.
        request: PredictRequest,
    },
    /// Execute everything queued and emit the replies.
    Flush,
    /// Emit the stats snapshot (the full telemetry dump when `spans`).
    Stats {
        /// `true` requests the span/histogram telemetry snapshot
        /// instead of the flat stats object.
        spans: bool,
    },
    /// Hot-swap (or add) a registry bundle from a saved bundle file.
    Load {
        /// Registry name the bundle is installed under.
        bundle: String,
        /// Filesystem path of the saved bundle.
        path: String,
    },
    /// List the resident registry bundles.
    Bundles,
    /// Flush, then stop serving this connection.
    Quit,
    /// Flush, then stop the whole listener (all connections drain).
    Shutdown,
}

fn malformed(detail: impl Into<String>) -> ServiceError {
    ServiceError::Malformed {
        detail: detail.into(),
    }
}

/// Parses one protocol line into a [`Command`].
///
/// # Errors
///
/// Returns [`ServiceError::Malformed`] for JSON syntax/shape problems,
/// [`ServiceError::Json`] when the reader refuses the line outright
/// (nesting beyond the depth limit), and [`ServiceError::Core`] for
/// semantically invalid values (e.g. γ out of range), so wire replies
/// carry the precise error code.
pub fn parse_line(line: &str) -> Result<Command, ServiceError> {
    let value = Json::parse(line).map_err(|e| match e {
        JsonError::TooDeep { .. } => ServiceError::Json {
            detail: e.to_string(),
        },
        JsonError::Syntax(detail) => malformed(detail),
    })?;
    if !matches!(value, Json::Obj(_)) {
        return Err(malformed("request line must be a JSON object"));
    }
    if let Some(cmd) = value.get("cmd") {
        let cmd = cmd
            .as_str()
            .ok_or_else(|| malformed("\"cmd\" must be a string"))?;
        return match cmd {
            "flush" => Ok(Command::Flush),
            "stats" => {
                let spans = match value.get("spans") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err(malformed("\"spans\" must be a boolean")),
                };
                Ok(Command::Stats { spans })
            }
            "load" => {
                let bundle = value
                    .get("bundle")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed("\"load\" needs a string \"bundle\" name"))?;
                let path = value
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed("\"load\" needs a string \"path\""))?;
                Ok(Command::Load {
                    bundle: bundle.to_string(),
                    path: path.to_string(),
                })
            }
            "bundles" => Ok(Command::Bundles),
            "quit" => Ok(Command::Quit),
            "shutdown" => Ok(Command::Shutdown),
            other => Err(malformed(format!(
                "unknown command '{other}' (flush|stats|load|bundles|quit|shutdown)"
            ))),
        };
    }
    let id = value
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("request needs a string \"id\""))?;
    let bundle = match value.get("bundle") {
        None => None,
        Some(b) => Some(
            b.as_str()
                .ok_or_else(|| malformed("\"bundle\" must be a string"))?
                .to_string(),
        ),
    };
    let mut request = PredictRequest::new(id);
    if let Some(gamma) = value.get("gamma") {
        let gamma = gamma
            .as_f64()
            .ok_or_else(|| malformed("\"gamma\" must be a number"))?;
        let kind = match value.get("kind") {
            Some(k) => parse_kind(
                k.as_str()
                    .ok_or_else(|| malformed("\"kind\" must be a string"))?,
            )
            .map_err(ServiceError::Core)?,
            None => ppdl_core::PerturbationKind::Both,
        };
        let seed = match value.get("seed") {
            Some(s) => s
                .as_u64()
                .ok_or_else(|| malformed("\"seed\" must be a non-negative integer"))?,
            None => 1,
        };
        request = request
            .with_perturbation(Perturbation::new(gamma, kind, seed).map_err(ServiceError::Core)?);
    } else if value.get("kind").is_some() || value.get("seed").is_some() {
        return Err(malformed("\"kind\"/\"seed\" need a \"gamma\""));
    }
    if let Some(loads) = value.get("loads") {
        let loads = loads
            .as_array()
            .ok_or_else(|| malformed("\"loads\" must be an array of [index, amps] pairs"))?;
        for pair in loads {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| malformed("each load override must be an [index, amps] pair"))?;
            let index = pair[0]
                .as_u64()
                .ok_or_else(|| malformed("load override index must be a non-negative integer"))?;
            let amps = pair[1]
                .as_f64()
                .ok_or_else(|| malformed("load override amps must be a number"))?;
            request = request.with_load_override(index as usize, amps);
        }
    }
    if let Some(stride) = value.get("stride") {
        let stride = stride
            .as_u64()
            .ok_or_else(|| malformed("\"stride\" must be a non-negative integer"))?;
        request = request.with_stride(stride as usize);
    }
    request.validate().map_err(ServiceError::Core)?;
    Ok(Command::Request { bundle, request })
}

/// Renders one reply as a protocol line (no trailing newline).
#[must_use]
pub fn render_reply(reply: &ServiceReply) -> String {
    match &reply.result {
        Ok(response) => {
            let widths: Vec<String> = response.widths.iter().map(|w| json_number(*w)).collect();
            format!(
                "{{\"id\":{},\"status\":\"ok\",\"worst_ir_mv\":{},\"dl_ms\":{},\"cached\":{},\"widths\":[{}]}}",
                json_string(&response.id),
                json_number(response.worst_ir_mv),
                json_number(response.dl_ms),
                reply.cached,
                widths.join(",")
            )
        }
        Err(e) => render_error(&reply.id, e),
    }
}

/// Renders an error reply line for `id` (no trailing newline).
#[must_use]
pub fn render_error(id: &str, error: &ServiceError) -> String {
    format!(
        "{{\"id\":{},\"status\":\"error\",\"code\":{},\"detail\":{}}}",
        json_string(id),
        json_string(error.code()),
        json_string(&error.to_string())
    )
}

/// Writes reply lines, then flushes, so a client waiting line by line
/// never stalls on a buffered response.
fn emit(out: &mut impl Write, lines: impl IntoIterator<Item = String>) -> io::Result<()> {
    for line in lines {
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Extracts the `id` of a line that failed to parse as a command, so
/// the typed error reply can still be correlated by the client.
fn salvage_id(line: &str) -> String {
    Json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// Serves the NDJSON protocol over stdin/stdout-style streams: one
/// session on `registry` until `{"cmd":"quit"}`/`{"cmd":"shutdown"}`
/// or end of input; pending requests are flushed at both. Malformed or
/// failing requests yield `"status":"error"` lines — this loop itself
/// only fails on transport I/O errors, and even then it flushes
/// everything already queued before surfacing the error, so no
/// accepted request is dropped.
///
/// # Errors
///
/// Propagates I/O errors from `input`/`output`.
pub fn serve_ndjson(
    registry: &Arc<ModelRegistry>,
    input: impl Read,
    output: &mut impl Write,
) -> io::Result<()> {
    serve_session(registry, input, output, &AtomicBool::new(false))
}

/// The crate's one command loop, run by [`serve_ndjson`] and by every
/// listener connection: one [`Session`](crate::Session) on `registry`
/// for the whole stream. It stops at `quit`, end of input, or once
/// `stop` is set; `shutdown` sets `stop` first, which a listener shares
/// between its connections. A `Pending` read (a socket read timeout)
/// just re-checks `stop`.
pub(crate) fn serve_session(
    registry: &Arc<ModelRegistry>,
    input: impl Read,
    out: &mut impl Write,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut session = registry.session();
    let mut reader = LineReader::new(input, DEFAULT_MAX_LINE_BYTES);
    while !stop.load(Ordering::Acquire) {
        let line = match reader.next_event() {
            LineEvent::Line(line) => line,
            LineEvent::Refused { detail } => {
                emit(out, [render_error("", &ServiceError::Json { detail })])?;
                continue;
            }
            LineEvent::Pending => continue,
            LineEvent::Eof => break,
            LineEvent::Io(e) => {
                // Answer what was accepted before surfacing the
                // transport error (the write may fail too — the
                // session's Drop still releases the admission slots).
                let _ = emit(out, session.flush().iter().map(render_reply));
                return Err(e);
            }
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(Command::Request { bundle, request }) => {
                // Backpressure: a full queue flushes (emitting replies
                // in arrival order) instead of dropping the request.
                if session.queue_depth() >= registry.config().queue_capacity {
                    emit(out, session.flush().iter().map(render_reply))?;
                }
                let id = request.id.clone();
                if let Err(e) = session.enqueue(bundle.as_deref(), request) {
                    // service/unknown_bundle and service/overloaded
                    // land here as typed replies carrying the id.
                    emit(out, [render_error(&id, &e)])?;
                }
            }
            Ok(Command::Flush) => emit(out, session.flush().iter().map(render_reply))?,
            Ok(Command::Stats { spans }) => {
                let snapshot = if spans {
                    registry.telemetry_json()
                } else {
                    registry.stats_json()
                };
                emit(out, [snapshot])?;
            }
            Ok(Command::Load { bundle, path }) => {
                let reply = match registry.install_path(&bundle, &path) {
                    Ok(()) => format!(
                        "{{\"status\":\"loaded\",\"bundle\":{}}}",
                        json_string(&bundle)
                    ),
                    Err(e) => render_error("", &e),
                };
                emit(out, [reply])?;
            }
            Ok(Command::Bundles) => emit(out, [registry.bundles_json()])?,
            Ok(Command::Quit) => break,
            Ok(Command::Shutdown) => {
                stop.store(true, Ordering::Release);
                break;
            }
            Err(e) => emit(out, [render_error(&salvage_id(line), &e)])?,
        }
    }
    emit(out, session.flush().iter().map(render_reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use ppdl_core::predict::{predict, TrainedBundle};
    use ppdl_core::{DlFlowConfig, PerturbationKind};
    use ppdl_netlist::IbmPgPreset;

    /// A registry holding one bundle named `m`, as `ppdl serve --bundle
    /// m.bundle` builds it.
    fn one_bundle(config: ServiceConfig) -> Arc<ModelRegistry> {
        let bundle =
            TrainedBundle::train(IbmPgPreset::Ibmpg1, 0.01, 3, DlFlowConfig::fast(), None).unwrap();
        let registry = Arc::new(ModelRegistry::new(config));
        registry.install("m", bundle).unwrap();
        registry
    }

    fn serve_on(registry: &Arc<ModelRegistry>, input: &str) -> Vec<Json> {
        let mut out = Vec::new();
        serve_ndjson(registry, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    fn serve(input: &str) -> Vec<Json> {
        serve_on(&one_bundle(ServiceConfig::default()), input)
    }

    #[test]
    fn parse_line_shapes() {
        assert!(matches!(
            parse_line("{\"cmd\":\"flush\"}"),
            Ok(Command::Flush)
        ));
        assert!(matches!(
            parse_line("{\"cmd\":\"stats\"}"),
            Ok(Command::Stats { spans: false })
        ));
        assert!(matches!(
            parse_line("{\"cmd\":\"stats\",\"spans\":true}"),
            Ok(Command::Stats { spans: true })
        ));
        assert!(matches!(
            parse_line("{\"cmd\":\"stats\",\"spans\":1}"),
            Err(ServiceError::Malformed { .. })
        ));
        assert!(matches!(
            parse_line("{\"cmd\":\"quit\"}"),
            Ok(Command::Quit)
        ));
        let Ok(Command::Request { bundle, request: r }) = parse_line(
            r#"{"id":"a","gamma":0.1,"kind":"loads","seed":9,"stride":2,"loads":[[3,1e-4]]}"#,
        ) else {
            panic!("expected request");
        };
        assert_eq!(bundle, None);
        assert_eq!(r.id, "a");
        let p = r.perturbation.unwrap();
        assert_eq!(p.gamma(), 0.1);
        assert_eq!(p.seed(), 9);
        assert_eq!(r.load_overrides, vec![(3, 1e-4)]);
        assert_eq!(r.stride, Some(2));
    }

    #[test]
    fn parse_line_registry_shapes() {
        let Ok(Command::Request { bundle, request }) =
            parse_line(r#"{"id":"q","bundle":"ibmpg2","gamma":0.1}"#)
        else {
            panic!("expected routed request");
        };
        assert_eq!(bundle.as_deref(), Some("ibmpg2"));
        assert_eq!(request.id, "q");
        let Ok(Command::Load { bundle, path }) =
            parse_line(r#"{"cmd":"load","bundle":"b2","path":"new.bundle"}"#)
        else {
            panic!("expected load");
        };
        assert_eq!(bundle, "b2");
        assert_eq!(path, "new.bundle");
        assert!(matches!(
            parse_line("{\"cmd\":\"bundles\"}"),
            Ok(Command::Bundles)
        ));
        assert!(matches!(
            parse_line("{\"cmd\":\"shutdown\"}"),
            Ok(Command::Shutdown)
        ));
        assert_eq!(
            parse_line("{\"cmd\":\"load\",\"bundle\":\"x\"}")
                .unwrap_err()
                .code(),
            "service/malformed"
        );
        assert_eq!(
            parse_line("{\"id\":\"q\",\"bundle\":7}")
                .unwrap_err()
                .code(),
            "service/malformed"
        );
    }

    #[test]
    fn parse_line_rejections_carry_codes() {
        assert_eq!(
            parse_line("not json").unwrap_err().code(),
            "service/malformed"
        );
        assert_eq!(
            parse_line("{\"gamma\":0.1}").unwrap_err().code(),
            "service/malformed"
        );
        assert_eq!(
            parse_line("{\"cmd\":\"dance\"}").unwrap_err().code(),
            "service/malformed"
        );
        assert_eq!(
            parse_line("{\"id\":\"a\",\"gamma\":7}").unwrap_err().code(),
            "core/invalid_config"
        );
        assert_eq!(
            parse_line("{\"id\":\"a\",\"kind\":\"both\"}")
                .unwrap_err()
                .code(),
            "service/malformed"
        );
        // Depth-bomb lines get their own code, distinct from typos.
        assert_eq!(
            parse_line(&"[".repeat(100_000)).unwrap_err().code(),
            "service/json"
        );
    }

    #[test]
    fn serves_batch_and_stats() {
        let replies = serve(concat!(
            "{\"id\":\"q1\",\"gamma\":0.1,\"seed\":5}\n",
            "{\"id\":\"q2\",\"gamma\":0.1,\"seed\":6}\n",
            "{\"cmd\":\"flush\"}\n",
            "{\"cmd\":\"stats\"}\n",
        ));
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0].get("id").unwrap().as_str(), Some("q1"));
        assert_eq!(replies[0].get("status").unwrap().as_str(), Some("ok"));
        assert!(replies[0].get("worst_ir_mv").unwrap().as_f64().unwrap() > 0.0);
        assert!(!replies[0]
            .get("widths")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        assert_eq!(replies[1].get("id").unwrap().as_str(), Some("q2"));
        let stats = &replies[2];
        assert_eq!(stats.get("status").unwrap().as_str(), Some("stats"));
        assert_eq!(stats.get("ok").unwrap().as_u64(), Some(2));
        assert!(stats.get("throughput_rps").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn malformed_lines_do_not_kill_the_loop() {
        // Includes the 100k-deep nesting bomb: before the depth limit
        // it overflowed the parser's stack and killed the process.
        let input = format!(
            concat!(
                "this is not json\n",
                "{{\"id\":\"bad\",\"gamma\":42}}\n",
                "{}\n",
                "{{\"id\":\"ok\",\"gamma\":0.1,\"seed\":2}}\n",
            ),
            "[".repeat(100_000)
        );
        let replies = serve(&input);
        assert_eq!(replies.len(), 4);
        assert_eq!(replies[0].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(
            replies[0].get("code").unwrap().as_str(),
            Some("service/malformed")
        );
        assert_eq!(replies[1].get("id").unwrap().as_str(), Some("bad"));
        assert_eq!(
            replies[1].get("code").unwrap().as_str(),
            Some("core/invalid_config")
        );
        assert_eq!(replies[2].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(
            replies[2].get("code").unwrap().as_str(),
            Some("service/json")
        );
        // The surviving request is answered by the end-of-input flush.
        assert_eq!(replies[3].get("id").unwrap().as_str(), Some("ok"));
        assert_eq!(replies[3].get("status").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn stats_spans_returns_telemetry_snapshot() {
        let replies = serve(concat!(
            "{\"id\":\"q1\",\"gamma\":0.1,\"seed\":5}\n",
            "{\"cmd\":\"flush\"}\n",
            "{\"cmd\":\"stats\",\"spans\":true}\n",
        ));
        assert_eq!(replies.len(), 2);
        let telemetry = &replies[1];
        assert_eq!(telemetry.get("status").unwrap().as_str(), Some("telemetry"));
        let service = telemetry.get("service").unwrap();
        let counters = service.get("counters").unwrap();
        assert_eq!(counters.get("service/ok").unwrap().as_u64(), Some(1));
        let batch_ms = service.get("histograms").unwrap().get("service/batch_ms");
        assert_eq!(batch_ms.unwrap().get("count").unwrap().as_u64(), Some(1));
        assert!(service.get("spans").unwrap().get("service/flush").is_some());
        // The global registry section is present even when disabled.
        assert!(telemetry.get("global").unwrap().get("counters").is_some());
    }

    #[test]
    fn final_line_without_trailing_newline_is_answered() {
        // Regression: a client that writes its last request and closes
        // the pipe without a newline must still get a reply at EOF.
        let replies = serve("{\"id\":\"tail\",\"gamma\":0.1,\"seed\":3}");
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].get("id").unwrap().as_str(), Some("tail"));
        assert_eq!(replies[0].get("status").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn invalid_utf8_line_gets_typed_error_and_queued_work_survives() {
        // Regression: with the old `BufRead::lines()` loop an invalid
        // UTF-8 line was an I/O error — the loop died, the queued
        // request was silently dropped, and no error line was written.
        let mut input: Vec<u8> = b"{\"id\":\"before\",\"gamma\":0.1,\"seed\":3}\n".to_vec();
        input.extend_from_slice(&[0xff, 0xfe, b'\n']);
        input.extend_from_slice(b"{\"id\":\"after\",\"gamma\":0.1,\"seed\":4}\n");
        let registry = one_bundle(ServiceConfig::default());
        let mut out = Vec::new();
        serve_ndjson(&registry, &input[..], &mut out).unwrap();
        let replies: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(
            replies[0].get("code").unwrap().as_str(),
            Some("service/json")
        );
        assert_eq!(replies[1].get("id").unwrap().as_str(), Some("before"));
        assert_eq!(replies[1].get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(replies[2].get("id").unwrap().as_str(), Some("after"));
    }

    #[test]
    fn transport_error_flushes_accepted_requests_before_surfacing() {
        // A connection reset mid-stream must not eat the requests that
        // were already accepted: they are answered, then the error
        // propagates to the transport owner.
        struct Reset {
            payload: std::io::Cursor<Vec<u8>>,
            done: bool,
        }
        impl std::io::Read for Reset {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.payload.read(buf)?;
                if n == 0 {
                    if self.done {
                        return Err(io::Error::new(io::ErrorKind::ConnectionReset, "peer reset"));
                    }
                    self.done = true;
                    return Err(io::Error::new(io::ErrorKind::ConnectionReset, "peer reset"));
                }
                Ok(n)
            }
        }
        let reader = std::io::BufReader::new(Reset {
            payload: std::io::Cursor::new(
                b"{\"id\":\"queued\",\"gamma\":0.1,\"seed\":3}\n".to_vec(),
            ),
            done: false,
        });
        let registry = one_bundle(ServiceConfig::default());
        let mut out = Vec::new();
        let err = serve_ndjson(&registry, reader, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let replies: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].get("id").unwrap().as_str(), Some("queued"));
        assert_eq!(replies[0].get("status").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn registry_commands_work_on_a_one_bundle_stdio_session() {
        let registry = one_bundle(ServiceConfig::default());
        let core = registry.get("m").unwrap();
        let dir = std::env::temp_dir().join(format!("ppdl_proto_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let saved = dir.join("m2.bundle");
        core.bundle().save(&saved).unwrap();
        let input = format!(
            concat!(
                "{{\"cmd\":\"bundles\"}}\n",
                "{{\"id\":\"routed\",\"bundle\":\"m\",\"gamma\":0.1,\"seed\":5}}\n",
                "{{\"id\":\"ghost\",\"bundle\":\"other\",\"gamma\":0.1}}\n",
                "{{\"cmd\":\"flush\"}}\n",
                "{{\"cmd\":\"load\",\"bundle\":\"m2\",\"path\":{}}}\n",
                "{{\"cmd\":\"load\",\"bundle\":\"m3\",\"path\":{}}}\n",
                "{{\"cmd\":\"shutdown\"}}\n",
            ),
            json_string(saved.to_str().unwrap()),
            json_string(dir.join("missing.bundle").to_str().unwrap()),
        );
        let replies = serve_on(&registry, &input);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(replies.len(), 5);

        // `bundles` lists the one bundle as the default.
        assert_eq!(replies[0].get("status").unwrap().as_str(), Some("bundles"));
        assert_eq!(replies[0].get("default").unwrap().as_str(), Some("m"));
        let listed = replies[0].get("bundles").unwrap();
        assert!(matches!(listed, Json::Obj(entries) if entries.len() == 1));
        assert!(listed.get("m").is_some());

        // An unknown name is refused at once, carrying its id.
        assert_eq!(replies[1].get("id").unwrap().as_str(), Some("ghost"));
        assert_eq!(
            replies[1].get("code").unwrap().as_str(),
            Some("service/unknown_bundle")
        );

        // The routed request is answered bit-equal to a direct predict.
        assert_eq!(replies[2].get("id").unwrap().as_str(), Some("routed"));
        let request = PredictRequest::new("routed")
            .with_perturbation(Perturbation::new(0.1, PerturbationKind::Both, 5).unwrap());
        let direct = predict(
            &core.bundle().predictor,
            core.base(),
            &request,
            core.bundle().meta.inference_stride,
        )
        .unwrap();
        let widths: Vec<f64> = replies[2]
            .get("widths")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.as_f64().unwrap())
            .collect();
        assert_eq!(widths, direct.response.widths);
        assert_eq!(
            replies[2].get("worst_ir_mv").unwrap().as_f64(),
            Some(direct.response.worst_ir_mv)
        );

        // `load` installs a saved bundle, and a missing file is a typed
        // core error rather than a dead process.
        assert_eq!(replies[3].get("status").unwrap().as_str(), Some("loaded"));
        assert_eq!(replies[3].get("bundle").unwrap().as_str(), Some("m2"));
        assert!(registry.get("m2").is_some());
        assert_eq!(replies[4].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(replies[4].get("code").unwrap().as_str(), Some("core/io"));
        assert!(registry.get("m3").is_none());
    }

    #[test]
    fn admission_refusal_carries_the_request_id() {
        // Regression: the stdio loop rendered an admission refusal with
        // an empty id, so the client could not tell which request failed.
        let registry = one_bundle(ServiceConfig {
            max_pending: 2,
            ..ServiceConfig::default()
        });
        let replies = serve_on(
            &registry,
            concat!(
                "{\"id\":\"q1\",\"gamma\":0.1,\"seed\":1}\n",
                "{\"id\":\"q2\",\"gamma\":0.1,\"seed\":2}\n",
                "{\"id\":\"q3\",\"gamma\":0.1,\"seed\":3}\n",
            ),
        );
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0].get("id").unwrap().as_str(), Some("q3"));
        assert_eq!(
            replies[0].get("code").unwrap().as_str(),
            Some("service/overloaded")
        );
        // The admitted two are answered at end of input, in order.
        assert_eq!(replies[1].get("id").unwrap().as_str(), Some("q1"));
        assert_eq!(replies[2].get("id").unwrap().as_str(), Some("q2"));
    }

    #[test]
    fn eof_flushes_and_quit_stops() {
        // No explicit flush: EOF answers the pending request.
        let replies = serve("{\"id\":\"pending\",\"gamma\":0.1,\"seed\":3}\n");
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].get("status").unwrap().as_str(), Some("ok"));
        // Lines after quit are not served.
        let replies = serve(concat!(
            "{\"id\":\"before\",\"gamma\":0.1,\"seed\":3}\n",
            "{\"cmd\":\"quit\"}\n",
            "{\"id\":\"after\",\"gamma\":0.1,\"seed\":4}\n",
        ));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].get("id").unwrap().as_str(), Some("before"));
    }
}

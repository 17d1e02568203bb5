//! Hand-rolled multi-threaded TCP / Unix-socket listener speaking the
//! NDJSON protocol against a [`ModelRegistry`].
//!
//! One OS thread per connection (scoped, so the listener owns their
//! lifetime), each running the crate's one command loop (the same one
//! [`serve_ndjson`](crate::serve_ndjson) runs on stdin/stdout) with its
//! own registry [`Session`](crate::Session): requests may name a
//! `bundle`, `{"cmd":"load",...}` hot-swaps a bundle for *every*
//! client, and `{"cmd":"shutdown"}` stops the whole listener after the
//! in-flight work drains. Admission is enforced twice: per-connection
//! at `max_clients` (excess connections get one typed
//! `service/overloaded` line and are closed) and per-bundle by the
//! core's admission gauge (`max_pending`; saturated bundles answer
//! `service/overloaded` per request).
//!
//! Shutdown is cooperative: the accept loop runs the listener in
//! non-blocking mode and polls a shared flag; connection threads give
//! their socket a short read timeout, so the byte-level line reader
//! yields `Pending` between frames and the command loop re-checks the
//! flag — no thread blocks forever on a dead peer.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::{render_error, serve_session};
use crate::registry::ModelRegistry;
use crate::ServiceError;

/// Listener tuning knobs, separate from the per-bundle
/// [`ServiceConfig`](crate::ServiceConfig).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Concurrent connections served; further ones get one typed
    /// `service/overloaded` line and are closed.
    pub max_clients: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { max_clients: 32 }
    }
}

/// How often blocked reads and the accept loop wake up to re-check the
/// shutdown flag. Latency of the *flag*, not of requests — data-ready
/// sockets never wait on this.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The two transports, unified behind one accept/handle loop.
trait NetListener {
    type Stream: Read + Write + Send + 'static;

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// Accepts one connection; `WouldBlock` means none is waiting.
    fn accept_stream(&self) -> io::Result<Self::Stream>;
    /// An independently-readable clone of the stream (sockets are
    /// full-duplex; the handler reads via the clone, writes via the
    /// original).
    fn clone_stream(stream: &Self::Stream) -> io::Result<Self::Stream>;
    fn set_read_timeout(stream: &Self::Stream, timeout: Option<Duration>) -> io::Result<()>;
}

impl NetListener for TcpListener {
    type Stream = TcpStream;

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpListener::set_nonblocking(self, nonblocking)
    }

    fn accept_stream(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        // Request lines are latency-sensitive and tiny; never Nagle.
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(false)?;
        Ok(stream)
    }

    fn clone_stream(stream: &TcpStream) -> io::Result<TcpStream> {
        stream.try_clone()
    }

    fn set_read_timeout(stream: &TcpStream, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(stream, timeout)
    }
}

impl NetListener for UnixListener {
    type Stream = UnixStream;

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixListener::set_nonblocking(self, nonblocking)
    }

    fn accept_stream(&self) -> io::Result<UnixStream> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(false)?;
        Ok(stream)
    }

    fn clone_stream(stream: &UnixStream) -> io::Result<UnixStream> {
        stream.try_clone()
    }

    fn set_read_timeout(stream: &UnixStream, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(stream, timeout)
    }
}

/// Serves the registry over a bound TCP listener until a client sends
/// `{"cmd":"shutdown"}`. Blocks the calling thread; connection handler
/// threads are scoped inside, so returning means everything drained.
///
/// # Errors
///
/// Propagates listener-level I/O errors (per-connection errors only
/// terminate that connection).
pub fn serve_tcp(
    registry: &Arc<ModelRegistry>,
    listener: &TcpListener,
    config: &NetConfig,
) -> io::Result<()> {
    serve_listener(registry, listener, config)
}

/// [`serve_tcp`], over a Unix domain socket. The caller owns the
/// socket path (bind before, unlink after).
///
/// # Errors
///
/// Propagates listener-level I/O errors.
pub fn serve_unix(
    registry: &Arc<ModelRegistry>,
    listener: &UnixListener,
    config: &NetConfig,
) -> io::Result<()> {
    serve_listener(registry, listener, config)
}

fn serve_listener<L: NetListener>(
    registry: &Arc<ModelRegistry>,
    listener: &L,
    config: &NetConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let shutdown = AtomicBool::new(false);
    let active = AtomicUsize::new(0);
    // One scoped thread per connection: the scope joins them all
    // before serve_listener returns, so shutdown is always clean and
    // no handler outlives the registry borrow.
    // ppdl-lint: allow(parallel/raw-spawn) -- connection handlers block on socket I/O, which the par_map_vec compute pool must not; scoped threads keep their lifetime tied to the listener
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if shutdown.load(Ordering::Acquire) {
                return Ok(());
            }
            match listener.accept_stream() {
                Ok(mut stream) => {
                    if active.load(Ordering::Acquire) >= config.max_clients.max(1) {
                        // Typed refusal, then close: the client learns
                        // *why* instead of seeing a hangup.
                        let err = ServiceError::Overloaded {
                            pending: active.load(Ordering::Relaxed),
                            capacity: config.max_clients,
                        };
                        let _ = writeln!(stream, "{}", render_error("", &err));
                        continue;
                    }
                    active.fetch_add(1, Ordering::AcqRel);
                    let (shutdown, active) = (&shutdown, &active);
                    scope.spawn(move || {
                        let _ = handle_connection::<L>(registry, stream, shutdown);
                        active.fetch_sub(1, Ordering::AcqRel);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    })
}

/// One connection: reads through a clone of the stream with a short
/// timeout (so the loop can poll `shutdown`) and writes replies to the
/// original.
fn handle_connection<L: NetListener>(
    registry: &Arc<ModelRegistry>,
    mut stream: L::Stream,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    L::set_read_timeout(&stream, Some(POLL_INTERVAL))?;
    let input = L::clone_stream(&stream)?;
    serve_session(registry, input, &mut stream, shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Json, ServiceConfig};
    use ppdl_core::predict::TrainedBundle;
    use ppdl_core::DlFlowConfig;
    use ppdl_netlist::IbmPgPreset;
    use std::io::{BufRead, BufReader};

    fn registry() -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new(ServiceConfig::default()));
        let bundle =
            TrainedBundle::train(IbmPgPreset::Ibmpg1, 0.01, 3, DlFlowConfig::fast(), None).unwrap();
        registry.install("m", bundle).unwrap();
        registry
    }

    /// Starts a TCP listener on a loopback port, returns its address;
    /// the server thread exits on `{"cmd":"shutdown"}`.
    fn spawn_server(
        registry: Arc<ModelRegistry>,
        config: NetConfig,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            serve_tcp(&registry, &listener, &config).unwrap();
        });
        (addr, handle)
    }

    fn roundtrip(addr: std::net::SocketAddr, input: &str, expect_lines: usize) -> Vec<Json> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(input.as_bytes()).unwrap();
        // Half-close: the server sees EOF after the input and flushes,
        // while this end keeps reading the replies.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = Vec::new();
        let mut line = String::new();
        while out.len() < expect_lines {
            line.clear();
            let n = reader.read_line(&mut line).unwrap();
            if n == 0 {
                break;
            }
            out.push(Json::parse(line.trim()).unwrap());
        }
        out
    }

    #[test]
    fn tcp_roundtrip_with_concurrent_clients_and_shutdown() {
        let registry = registry();
        let (addr, handle) = spawn_server(Arc::clone(&registry), NetConfig::default());

        // Concurrent clients, each with its own stream of requests.
        let clients: Vec<_> = (0..4)
            .map(|c| {
                std::thread::spawn(move || {
                    let input = format!(
                        "{{\"id\":\"c{c}-a\",\"gamma\":0.1,\"seed\":{}}}\n{{\"cmd\":\"flush\"}}\n{{\"id\":\"c{c}-b\",\"gamma\":0.1,\"seed\":{}}}\n{{\"cmd\":\"quit\"}}\n",
                        10 + c,
                        20 + c
                    );
                    roundtrip(addr, &input, 2)
                })
            })
            .collect();
        for (c, client) in clients.into_iter().enumerate() {
            let replies = client.join().unwrap();
            assert_eq!(replies.len(), 2);
            assert_eq!(
                replies[0].get("id").unwrap().as_str(),
                Some(format!("c{c}-a").as_str())
            );
            assert_eq!(replies[0].get("status").unwrap().as_str(), Some("ok"));
            assert_eq!(
                replies[1].get("id").unwrap().as_str(),
                Some(format!("c{c}-b").as_str())
            );
        }

        // Malformed + oversized + unknown-bundle lines produce typed
        // errors on a live connection.
        let big = "x".repeat(2 * crate::line::DEFAULT_MAX_LINE_BYTES);
        let input = format!(
            "not json\n{big}\n{{\"id\":\"ghost\",\"bundle\":\"nope\",\"gamma\":0.1}}\n{{\"cmd\":\"quit\"}}\n"
        );
        let replies = roundtrip(addr, &input, 3);
        assert_eq!(
            replies[0].get("code").unwrap().as_str(),
            Some("service/malformed")
        );
        assert_eq!(
            replies[1].get("code").unwrap().as_str(),
            Some("service/json")
        );
        assert_eq!(
            replies[2].get("code").unwrap().as_str(),
            Some("service/unknown_bundle")
        );
        assert_eq!(replies[2].get("id").unwrap().as_str(), Some("ghost"));

        // A request with no trailing newline before the half-close is
        // still answered — the mid-frame-disconnect regression.
        let replies = roundtrip(addr, "{\"id\":\"tail\",\"gamma\":0.1,\"seed\":42}", 1);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].get("id").unwrap().as_str(), Some("tail"));
        assert_eq!(replies[0].get("status").unwrap().as_str(), Some("ok"));

        let _ = roundtrip(addr, "{\"cmd\":\"shutdown\"}\n", 0);
        handle.join().unwrap();
    }

    #[test]
    fn unix_socket_serves_the_same_protocol() {
        let registry = registry();
        let dir = std::env::temp_dir().join(format!("ppdl_net_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let server = {
            let registry = Arc::clone(&registry);
            let config = NetConfig::default();
            std::thread::spawn(move || serve_unix(&registry, &listener, &config).unwrap())
        };
        let mut stream = UnixStream::connect(&path).unwrap();
        stream
            .write_all(b"{\"id\":\"u1\",\"gamma\":0.1,\"seed\":5}\n{\"cmd\":\"bundles\"}\n{\"cmd\":\"quit\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let bundles = Json::parse(line.trim()).unwrap();
        assert_eq!(bundles.get("status").unwrap().as_str(), Some("bundles"));
        assert_eq!(bundles.get("default").unwrap().as_str(), Some("m"));
        line.clear();
        reader.read_line(&mut line).unwrap();
        let reply = Json::parse(line.trim()).unwrap();
        assert_eq!(reply.get("id").unwrap().as_str(), Some("u1"));
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));

        let mut stream = UnixStream::connect(&path).unwrap();
        stream.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn connection_limit_refuses_with_typed_error() {
        let registry = registry();
        let (addr, handle) = spawn_server(Arc::clone(&registry), NetConfig { max_clients: 1 });
        // Occupy the only slot with an idle connection.
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(b"{\"cmd\":\"bundles\"}\n").unwrap();
        let mut reader = BufReader::new(first.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"bundles\""));

        // The second connection is refused with one typed line.
        let second = TcpStream::connect(addr).unwrap();
        let mut refused = String::new();
        BufReader::new(second.try_clone().unwrap())
            .read_line(&mut refused)
            .unwrap();
        let reply = Json::parse(refused.trim()).unwrap();
        assert_eq!(
            reply.get("code").unwrap().as_str(),
            Some("service/overloaded")
        );
        drop(second);

        first.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
        drop(first);
        handle.join().unwrap();
    }
}

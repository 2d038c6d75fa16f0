//! The live introspection endpoint: a hand-rolled HTTP/1.1 responder
//! over [`std::net::TcpListener`].
//!
//! The build environment vendors its few dependencies as minimal shims
//! (no `tokio`, no `hyper`), and an introspection endpoint serving a
//! scrape every few seconds does not need an async runtime: one
//! accept-loop thread answering one small GET at a time is the whole
//! design. Routes:
//!
//! | Path             | Body                                               |
//! |------------------|----------------------------------------------------|
//! | `/metrics`       | Prometheus text exposition of the metrics snapshot |
//! | `/metrics.json`  | The same snapshot as metrics-schema-v1 JSON        |
//! | `/traces/recent` | Recent sampled traces (see [`Tracer::traces_json`])|
//! | `/traces/slow`   | The slow-query log (see [`Tracer::slow_json`])     |
//! | `/healthz`       | `ok`                                               |
//!
//! Shutdown is cooperative: [`Introspection::shutdown`] (also run on
//! drop) raises a flag and pokes the listener with a loopback connect
//! so the accept call returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;
use crate::prom::prometheus_text;
use crate::registry::MetricsSnapshot;
use crate::trace::Tracer;

/// How the endpoint obtains a fresh metrics snapshot per scrape — a
/// closure, so servers can refresh gauges on the way out.
pub type SnapshotFn = Arc<dyn Fn() -> MetricsSnapshot + Send + Sync>;

/// How many traces `/traces/recent` returns.
const RECENT_TRACES: usize = 32;

/// Builder for [`Introspection`]; its sources become the running
/// endpoint's routes.
pub struct IntrospectionBuilder {
    metrics: Option<SnapshotFn>,
    tracer: Option<Arc<Tracer>>,
}

impl IntrospectionBuilder {
    /// Wires the `/metrics` + `/metrics.json` snapshot source.
    pub fn metrics(mut self, snapshot: SnapshotFn) -> Self {
        self.metrics = Some(snapshot);
        self
    }

    /// Wires the `/traces/*` source. Without one, the trace endpoints
    /// answer empty documents.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Binds (use port 0 for an OS-assigned port — read it back from
    /// [`Introspection::addr`]) and spawns the accept loop.
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<Introspection> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("fastbn-introspect".to_string())
            .spawn(move || accept_loop(listener, &self, &flag))?;
        Ok(Introspection {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }
}

/// A running introspection endpoint. Shuts down on drop.
pub struct Introspection {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Introspection {
    /// A builder with no sources wired yet.
    pub fn builder() -> IntrospectionBuilder {
        IntrospectionBuilder {
            metrics: None,
            tracer: None,
        }
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        // ORDERING: the flag store must be visible to the accept loop
        // before the wake-up connect below lands; SeqCst pairs with the
        // loads in `accept_loop`.
        self.shutdown.store(true, Ordering::SeqCst);
        let Some(handle) = self.handle.take() else {
            return;
        };
        // Poke the blocking accept so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for Introspection {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Introspection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Introspection")
            .field("addr", &self.addr)
            .finish()
    }
}

fn accept_loop(listener: TcpListener, routes: &IntrospectionBuilder, shutdown: &AtomicBool) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // ORDERING: pairs with the SeqCst store in `shutdown` — the
            // wake-up connect happens after the flag store, so a woken
            // accept observes it.
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Transient accept failure (EMFILE, aborted handshake):
            // back off instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // ORDERING: pairs with the SeqCst store in `shutdown` (the
        // wake-up connect is itself a successful accept landing here).
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // One small response per connection; a hung client can stall a
        // scrape, not the server — timeouts bound every read/write.
        let _ = serve_connection(stream, routes);
    }
}

fn serve_connection(mut stream: TcpStream, routes: &IntrospectionBuilder) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let Some(path) = read_request_path(&mut stream)? else {
        return respond(&mut stream, 400, "text/plain", "bad request\n");
    };
    match path.as_str() {
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/metrics" => match &routes.metrics {
            Some(snapshot) => respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &prometheus_text(&snapshot()),
            ),
            None => respond(&mut stream, 404, "text/plain", "no metrics source\n"),
        },
        "/metrics.json" => match &routes.metrics {
            Some(snapshot) => respond(
                &mut stream,
                200,
                "application/json",
                &snapshot().to_json().to_pretty(),
            ),
            None => respond(&mut stream, 404, "text/plain", "no metrics source\n"),
        },
        "/traces/recent" => {
            let doc = match &routes.tracer {
                Some(tracer) => tracer.traces_json(RECENT_TRACES),
                None => Json::obj().set("traces", Json::Arr(Vec::new())),
            };
            respond(&mut stream, 200, "application/json", &doc.to_pretty())
        }
        "/traces/slow" => {
            let doc = match &routes.tracer {
                Some(tracer) => tracer.slow_json(),
                None => Json::obj()
                    .set("total", 0u64)
                    .set("threshold_ns", 0u64)
                    .set("entries", Json::Arr(Vec::new())),
            };
            respond(&mut stream, 200, "application/json", &doc.to_pretty())
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Reads the request head (capped at 8 KiB) and returns the GET path,
/// or `None` when the request line is not a plausible `GET`.
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = [0u8; 8192];
    let mut len = 0usize;
    loop {
        if len == buf.len() {
            return Ok(None);
        }
        let n = match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) => return Err(e),
        };
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(None),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::trace::{SpanRecord, TraceConfig, SPAN_REQUEST};

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_traces_and_health() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("serve.completed").add(3);
        registry.histogram("lat_ns").record(1000);
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let span = tracer.next_span();
        tracer.record(&SpanRecord {
            trace: 1,
            span,
            parent: 0,
            name: SPAN_REQUEST,
            start_ns: 0,
            dur_ns: 9,
            tag: 0,
            aux: 0,
        });

        let snapshot_registry = Arc::clone(&registry);
        let endpoint = Introspection::builder()
            .metrics(Arc::new(move || snapshot_registry.snapshot()))
            .tracer(Arc::clone(&tracer))
            .bind("127.0.0.1:0")
            .unwrap();
        let addr = endpoint.addr();

        let (status, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("serve_completed 3"));
        assert!(body.contains("lat_ns_sum 1000"));
        assert!(body.contains("lat_ns_count 1"));

        let (status, body) = get(addr, "/metrics.json");
        assert_eq!(status, 200);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("serve.completed")
                .unwrap()
                .as_u64(),
            Some(3)
        );

        let (status, body) = get(addr, "/traces/recent");
        assert_eq!(status, 200);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("traces").unwrap().as_arr().unwrap().len(), 1);

        let (status, body) = get(addr, "/traces/slow");
        assert_eq!(status, 200);
        assert!(Json::parse(&body).is_ok());

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
    }

    #[test]
    fn shutdown_joins_and_port_closes() {
        let mut endpoint = Introspection::builder().bind("127.0.0.1:0").unwrap();
        let addr = endpoint.addr();
        let (status, _) = get(addr, "/traces/slow");
        assert_eq!(status, 200);
        endpoint.shutdown();
        // After shutdown, the accept thread is gone: a fresh connect
        // either fails outright or gets no response.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(!out.contains("200 OK"));
        }
    }

    #[test]
    fn endpoints_answer_empty_without_sources() {
        let endpoint = Introspection::builder().bind("127.0.0.1:0").unwrap();
        let (status, _) = get(endpoint.addr(), "/metrics");
        assert_eq!(status, 404);
        let (status, body) = get(endpoint.addr(), "/traces/recent");
        assert_eq!(status, 200);
        let parsed = Json::parse(&body).unwrap();
        assert!(parsed.get("traces").unwrap().as_arr().unwrap().is_empty());
    }
}

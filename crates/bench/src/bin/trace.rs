//! Trace replay and live-introspection smoke — the human-facing (and
//! CI-facing) end of the request-tracing pipeline.
//!
//! Drives a workload through a [`Server`] with a request tracer
//! sampling **every** request, then:
//!
//! 1. renders the most recent trace trees as indented text, one line
//!    per span with its start offset, duration, and **self time**
//!    (duration minus the direct children's durations — where a stage
//!    actually spent its time rather than waited on a child);
//! 2. starts the live [`Introspection`] endpoint over the server's
//!    metrics and tracer, scrapes its own `/healthz`, `/metrics`,
//!    `/metrics.json`, `/traces/recent`, and `/traces/slow`, and
//!    validates each response — Prometheus text exposition for
//!    `/metrics`, well-formed JSON with the documented fields for the
//!    trace endpoints.
//!
//! Any validation failure panics (non-zero exit), so `--quick` doubles
//! as the CI smoke step for the whole tracing + introspection stack.
//!
//! Usage:
//! ```text
//! cargo run --release -p fastbn-bench --bin trace -- \
//!     [--network hailfinder] [--engine hybrid] [--cases N] [--threads T] \
//!     [--workers W] [--width B] [--delay-us D] [--sample N] [--traces K] \
//!     [--quick]
//! ```
//! Defaults: 64 cases of hailfinder through the hybrid engine (2
//! threads, 2 serving workers), 1-in-1 sampling, 3 trees rendered. The
//! slow threshold is pinned to zero so every request lands in the
//! slow-query log — `/traces/slow` then has content to validate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fastbn_bench::measure::{prepare, solver_for};
use fastbn_bench::workloads::workload_by_name;
use fastbn_inference::{EngineKind, Query};
use fastbn_registry::Server;
use fastbn_telemetry::trace::{NameId, SpanRecord, TraceView, SPAN_REQUEST};
use fastbn_telemetry::{Introspection, Json, TraceConfig, Tracer};

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The span-kind-specific annotation for one rendered line.
fn annotate(tracer: &Tracer, span: &SpanRecord) -> String {
    match span.name {
        SPAN_REQUEST => format!(
            "  batch={} model={}",
            span.tag,
            tracer.name(NameId(span.aux as u32))
        ),
        _ if span.tag != 0 => format!("  n={}", span.tag),
        _ => String::new(),
    }
}

/// Renders one trace as an indented tree. Spans are already
/// start-ordered; children attach by parent id, and orphans (parent
/// overwritten out of the ring) print at the root level.
fn render_trace(tracer: &Tracer, view: &TraceView) {
    println!("trace {}", view.trace);
    let t0 = view.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let known: Vec<u64> = view.spans.iter().map(|s| s.span).collect();
    let roots: Vec<&SpanRecord> = view
        .spans
        .iter()
        .filter(|s| s.parent == 0 || !known.contains(&s.parent))
        .collect();
    for root in roots {
        render_span(tracer, view, root, t0, 1);
    }
}

fn render_span(tracer: &Tracer, view: &TraceView, span: &SpanRecord, t0: u64, depth: usize) {
    let children: Vec<&SpanRecord> = view
        .spans
        .iter()
        .filter(|s| s.parent == span.span)
        .collect();
    let child_ns: u64 = children.iter().map(|c| c.dur_ns).sum();
    let self_ns = span.dur_ns.saturating_sub(child_ns);
    println!(
        "{:indent$}{:<12} +{:>8.3} ms  dur {:>8.3} ms  self {:>8.3} ms{}",
        "",
        tracer.name(span.name),
        ms(span.start_ns.saturating_sub(t0)),
        ms(span.dur_ns),
        ms(self_ns),
        annotate(tracer, span),
        indent = depth * 2,
    );
    for child in children {
        render_span(tracer, view, child, t0, depth + 1);
    }
}

/// One blocking GET against the introspection endpoint; returns
/// (status, body).
fn scrape(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("endpoint reachable");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn main() {
    let mut network = "hailfinder".to_string();
    let mut engine = EngineKind::Hybrid;
    let mut cases_n = 64usize;
    let mut threads = 2usize;
    let mut workers = 2usize;
    let mut width: Option<usize> = None;
    let mut delay = Duration::from_micros(200);
    let mut sample = 1u64;
    let mut traces_max = 3usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => {
                cases_n = 32;
                traces_max = 2;
            }
            "--network" => network = it.next().expect("--network NAME"),
            "--engine" => {
                engine = it
                    .next()
                    .expect("--engine KIND")
                    .parse()
                    .unwrap_or_else(|err| panic!("{err}"))
            }
            "--cases" => cases_n = it.next().and_then(|v| v.parse().ok()).expect("--cases N"),
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).expect("--threads T"),
            "--workers" => workers = it.next().and_then(|v| v.parse().ok()).expect("--workers W"),
            "--width" => width = Some(it.next().and_then(|v| v.parse().ok()).expect("--width B")),
            "--delay-us" => {
                delay = Duration::from_micros(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--delay-us D"),
                )
            }
            "--sample" => sample = it.next().and_then(|v| v.parse().ok()).expect("--sample N"),
            "--traces" => traces_max = it.next().and_then(|v| v.parse().ok()).expect("--traces K"),
            other => panic!("unknown flag {other:?}"),
        }
    }
    let width = width.unwrap_or(threads).max(1);

    let w = workload_by_name(&network).unwrap_or_else(|| panic!("unknown network {network:?}"));
    let net = w.build();
    let cases = w.cases(&net, cases_n);
    // Slow threshold zero: every completed request enters the slow log,
    // so the scrape below validates a *populated* document.
    let tracer = Arc::new(Tracer::new(TraceConfig {
        sample_every: sample,
        slow_threshold: Duration::ZERO,
        ring_capacity: 4096,
        slow_capacity: 64,
    }));
    let solver = Arc::new(solver_for(engine, prepare(&net), threads));
    let server = Server::builder(solver)
        .workers(workers)
        .max_batch(width)
        .max_delay(delay)
        .tracer(Arc::clone(&tracer))
        .build();
    println!(
        "replaying {} cases of {network} through {} (t={threads}, {workers} workers, \
         width {width}, 1-in-{sample} sampling)\n",
        cases.len(),
        engine.id(),
    );
    let pending: Vec<_> = cases
        .iter()
        .map(|ev| {
            server
                .submit(Query::new().evidence(ev.clone()))
                .expect("server accepting")
        })
        .collect();
    for p in pending {
        p.wait().expect("workload evidence has P(e) > 0");
    }

    // Render the most recent trace trees with per-stage self-times.
    let views = tracer.recent_traces(traces_max);
    assert!(
        sample != 1 || !views.is_empty(),
        "1-in-1 sampling must leave rendered traces"
    );
    for view in &views {
        render_trace(&tracer, view);
        println!();
    }

    // Live introspection: serve the real metrics + tracer, scrape
    // ourselves, and validate both exposition formats.
    let snapshot_server = Arc::new(server);
    let endpoint_server = Arc::clone(&snapshot_server);
    let endpoint = Introspection::builder()
        .metrics(Arc::new(move || {
            endpoint_server.routed().metrics_snapshot()
        }))
        .tracer(Arc::clone(&tracer))
        .bind("127.0.0.1:0")
        .expect("loopback bind");
    let addr = endpoint.addr();
    println!("introspection endpoint at http://{addr}/ — self-scraping:");

    let (status, body) = scrape(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"), "/healthz");
    println!("  /healthz        ok");

    let (status, body) = scrape(addr, "/metrics");
    assert_eq!(status, 200, "/metrics status");
    assert!(body.contains("# TYPE"), "/metrics lacks TYPE comments");
    assert!(
        body.contains("serve_completed"),
        "/metrics lacks the traffic counters"
    );
    assert!(
        body.lines().any(|l| l.ends_with("_count")
            || l.split_whitespace()
                .next()
                .is_some_and(|n| n.ends_with("_count"))),
        "/metrics lacks histogram _count series"
    );
    println!(
        "  /metrics        ok ({} lines of Prometheus text)",
        body.lines().count()
    );

    let (status, body) = scrape(addr, "/metrics.json");
    assert_eq!(status, 200, "/metrics.json status");
    let parsed = Json::parse(&body).expect("/metrics.json parses");
    assert!(parsed.get("counters").is_some(), "/metrics.json counters");
    println!("  /metrics.json   ok");

    let (status, body) = scrape(addr, "/traces/recent");
    assert_eq!(status, 200, "/traces/recent status");
    let parsed = Json::parse(&body).expect("/traces/recent parses");
    let traces = parsed
        .get("traces")
        .and_then(Json::as_arr)
        .expect("/traces/recent has a traces array");
    if sample == 1 {
        assert!(!traces.is_empty(), "sampled run must expose traces");
        let spans = traces[0]
            .get("spans")
            .and_then(Json::as_arr)
            .expect("trace has spans");
        assert!(!spans.is_empty());
        assert!(
            spans.iter().all(|s| s.get("name").is_some()
                && s.get("start_ns").is_some()
                && s.get("dur_ns").is_some()),
            "span fields present"
        );
    }
    println!("  /traces/recent  ok ({} traces)", traces.len());

    let (status, body) = scrape(addr, "/traces/slow");
    assert_eq!(status, 200, "/traces/slow status");
    let parsed = Json::parse(&body).expect("/traces/slow parses");
    let total = parsed
        .get("total")
        .and_then(Json::as_u64)
        .expect("/traces/slow has a total");
    let entries = parsed
        .get("entries")
        .and_then(Json::as_arr)
        .expect("/traces/slow has entries");
    // Zero threshold: every completed request (warmup-free here) is a
    // slow entry, and the retained window carries the documented fields.
    assert!(total >= cases.len() as u64, "slow log counts every request");
    assert!(!entries.is_empty());
    assert!(
        entries.iter().all(|e| e.get("model").is_some()
            && e.get("total_ns").is_some()
            && e.get("queue_ns").is_some()
            && e.get("compute_ns").is_some()),
        "slow entry fields present"
    );
    println!(
        "  /traces/slow    ok (total {total}, {} retained)",
        entries.len()
    );

    snapshot_server.shutdown();
    println!("\nPASS: tracing + introspection smoke");
}

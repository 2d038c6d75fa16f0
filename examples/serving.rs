//! End-to-end serving: concurrent clients submit single queries to a
//! `Server`, which coalesces them into deadline-bounded micro-batches
//! behind a bounded queue — the serving shape that `batch_serving.rs`
//! hand-rolls with an explicit `QueryBatch`.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::bayesnet::{datasets, sampler};
use fastbn::{EngineKind, Query, Server, Solver, SubmitErrorKind};

fn main() {
    let net = datasets::asia();
    let threads = fastbn::parallel::available_threads().max(2);
    let solver = Arc::new(
        Solver::builder(&net)
            .engine(EngineKind::Hybrid) // Fast-BNI-par
            .threads(threads)
            .build(),
    );

    // The serving front end: 2 workers, micro-batches of up to
    // `threads` requests (the width where the outer-parallel batch path
    // kicks in), each window held open at most 300µs.
    let server = Server::builder(Arc::clone(&solver))
        .workers(2)
        .max_batch(threads)
        .max_delay(Duration::from_micros(300))
        .build();
    let routed = server.routed();
    println!(
        "serving {} ({} variables) with {} workers, micro-batch {} × {}µs window, queue {}\n",
        net.name(),
        net.num_vars(),
        routed.workers(),
        routed.max_batch(),
        routed.max_delay().as_micros(),
        routed.queue_capacity(),
    );

    // Concurrent clients, each firing its own little request stream —
    // the traffic pattern a web tier would generate. Every client keeps
    // its per-request latencies.
    let dysp = net.var_id("Dyspnea").unwrap();
    let lung = net.var_id("LungCancer").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let clients = 8;
    let per_client = 25;
    let start = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = &server;
                let cases = sampler::generate_cases(&net, per_client, 0.25, c as u64);
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(per_client);
                    for (i, case) in cases.into_iter().enumerate() {
                        // A mixed stream: marginals, one targeted query,
                        // one MPE, like batch_serving's hand-built batch.
                        let query = match i % 8 {
                            0 => Query::new().observe(dysp, 0).targets([lung]),
                            1 => Query::new().observe(dysp, 0).mpe(),
                            2 => Query::new().likelihood(xray, vec![0.8, 0.2]),
                            _ => Query::new().evidence(case.evidence),
                        };
                        let begin = Instant::now();
                        let pending = server.submit(query).expect("server accepting");
                        pending.wait().expect("well-formed request");
                        latencies.push(begin.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();

    let count = latencies.len();
    latencies.sort_unstable();
    // Nearest-rank percentile over the sorted round trips.
    let percentile = |p: usize| latencies[(p * count).div_ceil(100).max(1) - 1];
    let stats = routed.stats();
    println!(
        "{count} requests from {clients} clients in {:.1} ms  ({:.0} req/s)",
        wall.as_secs_f64() * 1e3,
        count as f64 / wall.as_secs_f64(),
    );
    println!(
        "latency p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        percentile(50).as_secs_f64() * 1e3,
        percentile(99).as_secs_f64() * 1e3,
        latencies[count - 1].as_secs_f64() * 1e3,
    );
    println!(
        "micro-batching: {} requests coalesced into {} batches ({:.1} per dispatch, \
         {} answered by in-window dedup)\n",
        stats.dequeued,
        stats.batches,
        stats.dequeued as f64 / stats.batches.max(1) as f64,
        stats.dedups,
    );

    // Backpressure is part of the contract: a fail-fast submitter sees
    // QueueFull (and gets its query back) instead of unbounded buffering.
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    let mut pending = Vec::new();
    for _ in 0..4 * routed.queue_capacity() {
        match server.try_submit(Query::new()) {
            Ok(p) => {
                accepted += 1;
                pending.push(p);
            }
            Err(e) if e.kind() == SubmitErrorKind::QueueFull => rejected += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    for p in pending {
        let _ = p.wait();
    }
    println!("fail-fast burst: {accepted} accepted, {rejected} rejected by the bounded queue");

    // Graceful shutdown: accepted work is drained, then intake closes.
    server.shutdown();
    assert!(server.submit(Query::new()).is_err(), "intake closed");
    println!("shut down cleanly: {:?}", routed.stats());
}

//! The serving front end's contract, per the acceptance criteria:
//!
//! * results delivered through [`Server`] under **concurrent
//!   multi-threaded submitters** are bit-identical to the sequential
//!   per-query oracle (a lone `Session` running the same queries one at
//!   a time), for every engine family — batching, windows, and worker
//!   scheduling must be invisible;
//! * the **bounded queue** pushes back as configured: `try_submit`
//!   rejects with `QueueFull` under a burst, blocking `submit` parks and
//!   then completes;
//! * **dropping a `Pending` handle cancels** the request cleanly — the
//!   work is skipped, neighbours are unaffected, and the counters say
//!   so;
//! * **shutdown drains**: every accepted request is answered before the
//!   workers exit, later submissions are rejected, and plain `drop`
//!   behaves the same.

use std::sync::Arc;
use std::time::Duration;

use fastbn::bayesnet::analogues;
use fastbn::bayesnet::{datasets, sampler};
use fastbn::{
    EngineKind, InferenceError, Prepared, Query, QueryResult, ServeError, Server, Solver,
    SubmitErrorKind,
};

/// A mixed query stream over Asia, failing slots included.
fn mixed_queries(net: &fastbn::BayesianNetwork, n_sampled: usize) -> Vec<Query> {
    let dysp = net.var_id("Dyspnea").unwrap();
    let lung = net.var_id("LungCancer").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let tub = net.var_id("Tuberculosis").unwrap();
    let either = net.var_id("TbOrCa").unwrap();
    let mut queries: Vec<Query> = sampler::generate_cases(net, n_sampled, 0.25, 23)
        .into_iter()
        .map(|c| Query::new().evidence(c.evidence))
        .collect();
    queries.push(Query::new().observe(dysp, 0).targets([lung, tub]));
    queries.push(Query::new().likelihood(xray, vec![0.8, 0.2]));
    queries.push(Query::new().observe(dysp, 0).mpe());
    queries.push(Query::new().observe(tub, 0).observe(either, 1)); // P(e) = 0
    queries.push(Query::new().likelihood(xray, vec![0.0, 0.0])); // malformed
    queries
}

/// The sequential per-query oracle: one borrowed session, one query at a
/// time, in input order.
fn oracle(solver: &Solver, queries: &[Query]) -> Vec<Result<QueryResult, InferenceError>> {
    let mut session = solver.session();
    queries.iter().map(|q| session.run(q)).collect()
}

/// Server results must match the oracle slot by slot: same `Ok` payloads
/// (bitwise, for marginals), same typed errors.
fn assert_matches_oracle(
    expected: &[Result<QueryResult, InferenceError>],
    got: &[Result<QueryResult, ServeError>],
    label: &str,
) {
    assert_eq!(expected.len(), got.len(), "{label}: length mismatch");
    for (i, (want, have)) in expected.iter().zip(got).enumerate() {
        match (want, have) {
            (Ok(w), Ok(h)) => {
                assert_eq!(w, h, "{label}: slot {i} differs");
                if let (QueryResult::Marginals(p), QueryResult::Marginals(q)) = (w, h) {
                    assert_eq!(p.max_abs_diff(q), 0.0, "{label}: slot {i} not bitwise");
                    assert_eq!(p.prob_evidence.to_bits(), q.prob_evidence.to_bits());
                }
            }
            (Err(w), Err(ServeError::Inference(h))) => {
                assert_eq!(w, h, "{label}: slot {i} error differs");
            }
            _ => panic!("{label}: slot {i} Ok/Err shape differs: {want:?} vs {have:?}"),
        }
    }
}

#[test]
fn concurrent_submitters_match_sequential_oracle_for_every_engine() {
    let net = datasets::asia();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let queries = mixed_queries(&net, 19); // 24 queries, failing slots included
    let submitters = 4;
    for kind in EngineKind::all() {
        let solver = Arc::new(
            Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(2)
                .build(),
        );
        let expected = oracle(&solver, &queries);
        let server = Server::builder(Arc::clone(&solver))
            .workers(2)
            .max_batch(3)
            .max_delay(Duration::from_micros(100))
            .build();
        // Multi-threaded submitters, each owning a strided share of the
        // stream; per-slot results are reassembled in input order.
        let mut got: Vec<Option<Result<QueryResult, ServeError>>> = vec![None; queries.len()];
        let collected: Vec<(usize, Result<QueryResult, ServeError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..submitters)
                    .map(|s| {
                        let server = &server;
                        let queries = &queries;
                        scope.spawn(move || {
                            let mut mine = Vec::new();
                            for (idx, query) in
                                queries.iter().enumerate().skip(s).step_by(submitters)
                            {
                                let pending =
                                    server.submit(query.clone()).expect("server accepting");
                                mine.push((idx, pending.wait()));
                            }
                            mine
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("submitter panicked"))
                    .collect()
            });
        for (idx, result) in collected {
            got[idx] = Some(result);
        }
        let got: Vec<_> = got
            .into_iter()
            .map(|slot| slot.expect("every slot answered"))
            .collect();
        assert_matches_oracle(&expected, &got, &format!("{kind:?}"));
        // Counters are bumped by workers *after* each reply is
        // delivered; shutdown joins them, making the totals final.
        server.shutdown();
        let stats = server.routed().stats();
        assert_eq!(stats.submitted, queries.len() as u64);
        assert_eq!(stats.completed, queries.len() as u64);
        assert_eq!(stats.cancelled, 0);
        assert!(stats.batches <= stats.submitted, "windows coalesce");
    }
}

/// A solver whose individual queries take several milliseconds, so the
/// tests below can deterministically observe a busy worker.
fn slow_solver() -> Arc<Solver> {
    let w = analogues::by_name("diabetes").expect("paper analogue exists");
    Arc::new(Solver::new(&w.build()))
}

#[test]
fn bounded_queue_rejects_bursts_and_blocking_submit_parks() {
    let solver = slow_solver();
    let server = Server::builder(Arc::clone(&solver))
        .workers(1)
        .max_batch(1)
        .max_delay(Duration::ZERO)
        .queue_capacity(2)
        .build();
    // Burst: each query runs for milliseconds while try_submit returns
    // in microseconds, so the 2-slot queue must fill within a handful of
    // fail-fast submissions.
    let query = Query::new(); // all marginals, no evidence: the slow path
    let mut accepted = Vec::new();
    let mut saw_full = false;
    for _ in 0..16 {
        match server.try_submit(query.clone()) {
            Ok(pending) => accepted.push(pending),
            Err(e) => {
                assert_eq!(e.kind(), SubmitErrorKind::QueueFull);
                // The rejected query comes back intact for a retry.
                assert_eq!(e.into_query(), query);
                saw_full = true;
                break;
            }
        }
    }
    assert!(
        saw_full,
        "a 16-shot burst against capacity 2 must hit QueueFull"
    );
    assert!(server.routed().stats().rejected >= 1);
    // Blocking submit parks on the full queue instead of rejecting, and
    // completes once the worker drains.
    let blocking = {
        let server = &server;
        let query = query.clone();
        std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    server
                        .submit(query)
                        .expect("blocking submit succeeds")
                        .wait()
                })
                .join()
                .expect("blocked submitter panicked")
        })
    };
    assert!(blocking.is_ok(), "parked request still gets its result");
    for pending in accepted {
        assert!(pending.wait().is_ok(), "burst survivors all answered");
    }
    server.shutdown();
}

#[test]
fn dropped_pending_cancels_cleanly_without_touching_neighbours() {
    let solver = slow_solver();
    let expected = {
        let mut session = solver.session();
        session.run(&Query::new()).unwrap()
    };
    let server = Server::builder(Arc::clone(&solver))
        .workers(1)
        .max_batch(1)
        .max_delay(Duration::ZERO)
        .queue_capacity(8)
        .build();
    // Occupy the single worker for ~10ms, then line up: keep, cancel,
    // keep. The cancelled request is dropped while still queued.
    let q0 = server.submit(Query::new()).unwrap();
    let q1 = server.submit(Query::new()).unwrap();
    let q2 = server.submit(Query::new()).unwrap();
    let q3 = server.submit(Query::new()).unwrap();
    drop(q2); // cancel while queued behind the busy worker
    for (name, pending) in [("q0", q0), ("q1", q1), ("q3", q3)] {
        let got = pending
            .wait()
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(
            got, expected,
            "{name}: neighbours unaffected, bit-identical"
        );
    }
    // Joining the worker (shutdown) makes the counters final: it must
    // have observed the dead handle and skipped the work.
    server.shutdown();
    let stats = server.routed().stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(
        stats.batches, 3,
        "the cancelled request never became a batch"
    );
}

#[test]
fn wait_timeout_hands_the_request_back_then_completes() {
    let solver = slow_solver();
    let server = Server::builder(Arc::clone(&solver))
        .workers(1)
        .max_batch(1)
        .max_delay(Duration::ZERO)
        .build();
    let first = server.submit(Query::new()).unwrap();
    let second = server.submit(Query::new()).unwrap();
    // `second` is queued behind ~10ms of work; a 100µs wait must expire
    // and return the handle rather than cancel it.
    let second = match second.wait_timeout(Duration::from_micros(100)) {
        Err(pending) => pending,
        Ok(result) => panic!("a queued request cannot be done in 100µs: {result:?}"),
    };
    assert!(first.wait().is_ok());
    assert!(second.wait().is_ok(), "handed-back handle still completes");
    server.shutdown();
}

#[test]
fn shutdown_drains_accepted_requests_then_rejects() {
    let net = datasets::asia();
    let solver = Arc::new(Solver::new(&net));
    let queries = mixed_queries(&net, 15); // 20 queries
    let expected = oracle(&solver, &queries);
    let server = Server::builder(Arc::clone(&solver))
        .workers(2)
        .max_batch(4)
        .max_delay(Duration::from_millis(1))
        .queue_capacity(64)
        .build();
    let pending: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.clone()).expect("accepting before shutdown"))
        .collect();
    // Shut down while requests are still queued/in flight: intake closes
    // but every accepted request is drained, not discarded.
    server.shutdown();
    assert!(server.routed().is_shut_down());
    let got: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
    assert_matches_oracle(&expected, &got, "drained through shutdown");
    let rejected = server.submit(Query::new()).expect_err("intake closed");
    assert_eq!(rejected.kind(), SubmitErrorKind::ShutDown);
    let rejected = server.try_submit(Query::new()).expect_err("intake closed");
    assert_eq!(rejected.kind(), SubmitErrorKind::ShutDown);
    server.shutdown(); // idempotent
    let stats = server.routed().stats();
    assert_eq!(stats.completed, queries.len() as u64);
}

#[test]
fn dropping_the_server_drains_like_shutdown() {
    let net = datasets::sprinkler();
    let solver = Arc::new(Solver::new(&net));
    let wet = net.var_id("WetGrass").unwrap();
    let server = Server::new(Arc::clone(&solver));
    let pending: Vec<_> = (0..8)
        .map(|i| server.submit(Query::new().observe(wet, i % 2)).unwrap())
        .collect();
    drop(server); // joins workers after the backlog is drained
    for p in pending {
        assert!(p.wait().is_ok(), "results survive the server");
    }
}

#[test]
fn unbounded_window_delay_means_wait_for_a_full_batch() {
    // `max_delay: Duration::MAX` is the legitimate "never dispatch a
    // partial window" configuration; it must saturate, not panic the
    // worker on `Instant` overflow.
    let net = datasets::sprinkler();
    let solver = Arc::new(Solver::new(&net));
    let server = Server::builder(Arc::clone(&solver))
        .workers(1)
        .max_batch(2)
        .max_delay(Duration::MAX)
        .build();
    let a = server.submit(Query::new()).unwrap();
    let b = server.submit(Query::new()).unwrap(); // window full → dispatch
    assert!(a.wait().is_ok());
    assert!(b.wait().is_ok());
    // An oversized client timeout saturates the same way.
    let c = server.submit(Query::new()).unwrap();
    let d = server.submit(Query::new()).unwrap();
    assert!(matches!(c.wait_timeout(Duration::MAX), Ok(Ok(_))));
    assert!(d.wait().is_ok());
    server.shutdown();
    assert_eq!(server.routed().stats().worker_panics, 0);
}

#[test]
fn window_dedup_fans_one_computation_out_to_identical_requests() {
    // A full window of 9: one distinct query plus 8 requests that all
    // canonicalize to the same key (two scale variants of one likelihood
    // vector). `max_delay: MAX` + `max_batch: 9` makes the window
    // deterministic; dedup must compute 2 queries, answer 9 clients, and
    // stay bit-identical to the sequential oracle.
    let net = datasets::asia();
    let solver = Arc::new(Solver::new(&net));
    let xray = net.var_id("XRay").unwrap();
    let dysp = net.var_id("Dyspnea").unwrap();
    let blocker = Query::new().observe(dysp, 1);
    let soft_a = Query::new().likelihood(xray, vec![0.8, 0.2]);
    let soft_b = Query::new().likelihood(xray, vec![1.6, 0.4]); // same key: scale canonicalized
    assert_eq!(soft_a.key(), soft_b.key());
    let expected = oracle(&solver, &[blocker.clone(), soft_a.clone()]);

    let server = Server::builder(Arc::clone(&solver))
        .workers(1)
        .max_batch(9)
        .max_delay(Duration::MAX)
        .build();
    let first = server.submit(blocker).unwrap();
    let softs: Vec<_> = (0..8)
        .map(|i| {
            let q = if i % 2 == 0 { &soft_a } else { &soft_b };
            server.submit(q.clone()).unwrap()
        })
        .collect();
    let got_first = first.wait();
    assert_matches_oracle(&expected[..1], &[got_first], "dedup blocker");
    for (i, pending) in softs.into_iter().enumerate() {
        let got = pending.wait();
        assert_matches_oracle(&expected[1..], &[got], &format!("dedup waiter {i}"));
    }
    server.shutdown();
    let stats = server.routed().stats();
    assert_eq!(stats.submitted, 9);
    assert_eq!(stats.completed, 9, "every client answered");
    assert_eq!(stats.dedups, 7, "8 identical requests, 1 computed");
    assert_eq!(stats.batches, 1, "one full window");
}

#[test]
fn stats_invariant_holds_under_concurrent_submit_cancel_shutdown() {
    // The ServerStats accounting contract: every accepted request is
    // counted exactly once as completed or cancelled — including
    // requests whose handle is dropped *between* dequeue and delivery —
    // and `completed + cancelled ≤ dequeued ≤ submitted` is observable
    // from concurrent snapshots while the pipeline churns.
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let net = datasets::asia();
    let solver = Arc::new(Solver::new(&net));
    let dysp = net.var_id("Dyspnea").unwrap();
    let server = Server::builder(Arc::clone(&solver))
        .workers(2)
        .max_batch(4)
        .max_delay(Duration::from_micros(100))
        .queue_capacity(8)
        .build();
    let accepted = AtomicU64::new(0);
    let waited = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let stop_sampling = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // A sampler hammering the snapshot while requests race through.
        let sampler = {
            let server = &server;
            let stop = &stop_sampling;
            scope.spawn(move || {
                let mut samples = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = server.routed().stats();
                    assert!(
                        s.completed + s.cancelled <= s.dequeued,
                        "resolution cannot lead dequeue: {s:?}"
                    );
                    assert!(
                        s.dequeued <= s.submitted,
                        "dequeue cannot lead submit: {s:?}"
                    );
                    samples += 1;
                }
                samples
            })
        };
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let server = &server;
                let (accepted, waited, dropped) = (&accepted, &waited, &dropped);
                scope.spawn(move || {
                    for i in 0..200usize {
                        let query = Query::new().observe(dysp, (t + i) % 2);
                        let pending = match server.submit(query) {
                            Ok(p) => p,
                            Err(_) => break, // only possible post-shutdown
                        };
                        accepted.fetch_add(1, Ordering::Relaxed);
                        match (t + i) % 5 {
                            // Drop immediately: usually cancelled while
                            // queued, sometimes after dequeue.
                            0 => {
                                dropped.fetch_add(1, Ordering::Relaxed);
                                drop(pending);
                            }
                            // Drop after a beat: often lands between
                            // dequeue and delivery.
                            1 => {
                                std::thread::yield_now();
                                dropped.fetch_add(1, Ordering::Relaxed);
                                drop(pending);
                            }
                            _ => {
                                waited.fetch_add(1, Ordering::Relaxed);
                                pending.wait().expect("well-formed query completes");
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in submitters {
            handle.join().expect("submitter panicked");
        }
        // Shut down while cancellations may still be in flight; the
        // drain resolves every accepted request.
        server.shutdown();
        stop_sampling.store(true, Ordering::Relaxed);
        assert!(sampler.join().expect("sampler panicked") > 0);
    });
    let stats = server.routed().stats();
    let accepted = accepted.load(Ordering::Relaxed);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(
        stats.submitted, accepted,
        "rejections never counted as submitted"
    );
    assert_eq!(
        stats.completed + stats.cancelled,
        stats.submitted,
        "after the drain every request resolved exactly once: {stats:?}"
    );
    assert_eq!(
        stats.dequeued, stats.submitted,
        "the drain dequeues everything"
    );
    assert!(
        stats.completed >= waited.load(Ordering::Relaxed),
        "every awaited request completed (dropped ones may too)"
    );
    assert!(
        stats.cancelled <= dropped.load(Ordering::Relaxed),
        "only dropped handles can cancel"
    );
}

#[test]
fn server_stats_start_at_zero() {
    let solver = Arc::new(Solver::new(&datasets::sprinkler()));
    let server = Server::new(solver);
    assert_eq!(server.routed().stats(), fastbn::ServerStats::default());
    assert_eq!(server.routed().workers(), 1);
    assert!(!server.routed().is_shut_down());
}

#[test]
fn unbounded_max_batch_still_answers() {
    // A window limit of `usize::MAX` means "take whatever is queued":
    // neither the default queue capacity nor the window buffer may be
    // sized from it.
    let solver = Arc::new(Solver::new(&datasets::sprinkler()));
    let server = Server::builder(solver)
        .max_batch(usize::MAX)
        .max_delay(Duration::ZERO)
        .build();
    let pending = server.submit(Query::new()).expect("server accepting");
    assert!(pending.wait().is_ok());
    server.shutdown();
    let stats = server.routed().stats();
    assert_eq!((stats.completed, stats.worker_panics), (1, 0));
}

//! The multi-model registry's contract, per the acceptance criteria:
//!
//! * **bit-identity** — every query routed through
//!   `Registry`/`RoutedServer` (models sharing one worker pool, mixed
//!   windows, concurrent submitters) is bitwise equal to the same
//!   query on a standalone single-model `Solver` of the same engine
//!   and width, across all engines × threads {1, 4, 8} on three
//!   networks;
//! * **hot unload isolation** — removing (or evicting) one model
//!   mid-traffic never perturbs in-flight or subsequent queries on the
//!   surviving models, and the removed model's in-flight queries still
//!   complete (they co-own the solver);
//! * **typed routing errors** — submitting to an unknown model id
//!   returns `SubmitErrorKind::UnknownModel` with the query handed
//!   back;
//! * **capacity bounds** — LRU eviction touches only *idle* models;
//!   busy ones refuse with `RegistryError::Full`;
//! * **per-model stats** — the `model_stats` rows each satisfy the
//!   drain invariant `submitted == completed + cancelled` and sum to
//!   the global counters.

use std::sync::Arc;
use std::time::Duration;

use fastbn::bayesnet::analogues;
use fastbn::bayesnet::{datasets, sampler};
use fastbn::{
    BayesianNetwork, EngineKind, InferenceError, ModelStats, Prepared, Query, QueryResult,
    Registry, RegistryError, RoutedServer, ServeError, Server, Solver, SubmitErrorKind,
};

/// A mixed query stream for any network: sampled hard evidence plus a
/// targeted marginal and an MPE request.
fn mixed_queries(net: &BayesianNetwork, n_sampled: usize, seed: u64) -> Vec<Query> {
    let mut queries: Vec<Query> = sampler::generate_cases(net, n_sampled, 0.2, seed)
        .into_iter()
        .map(|c| Query::new().evidence(c.evidence))
        .collect();
    let first = fastbn::VarId(0);
    queries.push(Query::new().targets([first]));
    queries.push(Query::new().mpe());
    queries
}

/// The standalone oracle: one borrowed session on a private solver,
/// one query at a time, in input order.
fn oracle(solver: &Solver, queries: &[Query]) -> Vec<Result<QueryResult, InferenceError>> {
    let mut session = solver.session();
    queries.iter().map(|q| session.run(q)).collect()
}

/// Routed results must match the oracle slot by slot: same `Ok`
/// payloads (bitwise, for marginals), same typed errors.
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

/// The three test networks with shared `Prepared` structures and their
/// per-model query streams.
fn fixtures() -> Vec<(&'static str, Arc<Prepared>, Vec<Query>)> {
    let asia = datasets::asia();
    let sprinkler = datasets::sprinkler();
    let hailfinder = analogues::by_name("hailfinder")
        .expect("paper analogue exists")
        .build();
    let mut fixtures = Vec::new();
    for (name, net, sampled, seed) in [
        ("asia", &asia, 6usize, 11u64),
        ("sprinkler", &sprinkler, 6, 12),
        ("hailfinder", &hailfinder, 3, 13),
    ] {
        let prepared = Arc::new(Prepared::new(net, &Default::default()));
        let queries = mixed_queries(net, sampled, seed);
        fixtures.push((name, prepared, queries));
    }
    fixtures
}

/// Registers one solver per fixture, all compiled onto the registry's
/// shared pool.
fn fill_registry(
    registry: &Registry,
    fixtures: &[(&'static str, Arc<Prepared>, Vec<Query>)],
    kind: EngineKind,
) {
    for (name, prepared, _) in fixtures {
        let solver = Solver::from_prepared(Arc::clone(prepared))
            .engine(kind)
            .pool(registry.pool_handle())
            .build();
        registry
            .insert(*name, Arc::new(solver))
            .expect("unbounded registry always has room");
    }
}

#[test]
fn routed_traffic_matches_standalone_solvers_for_every_engine_and_width() {
    let fixtures = fixtures();
    // The interleaved mixed-traffic stream: (model, query index) pairs
    // round-robin across the models so every window sees several.
    let stream: Vec<(usize, usize)> = {
        let mut stream = Vec::new();
        let longest = fixtures.iter().map(|(_, _, q)| q.len()).max().unwrap();
        for qi in 0..longest {
            for (mi, (_, _, queries)) in fixtures.iter().enumerate() {
                if qi < queries.len() {
                    stream.push((mi, qi));
                }
            }
        }
        stream
    };
    let submitters = 3;
    for kind in EngineKind::all() {
        for threads in [1usize, 4, 8] {
            // The standalone oracle: each model alone on a private
            // solver of the same engine and width.
            let expected: Vec<Vec<Result<QueryResult, InferenceError>>> = fixtures
                .iter()
                .map(|(_, prepared, queries)| {
                    let solo = Solver::from_prepared(Arc::clone(prepared))
                        .engine(kind)
                        .threads(threads)
                        .build();
                    oracle(&solo, queries)
                })
                .collect();
            // The routed stack: one shared pool of the same width.
            let registry = Arc::new(Registry::builder().threads(threads).build());
            fill_registry(&registry, &fixtures, kind);
            let server = RoutedServer::builder(Arc::clone(&registry))
                .workers(2)
                .max_batch(4)
                .max_delay(Duration::from_micros(100))
                .build();
            let label = format!("{kind:?} t={threads}");
            let mut got: Vec<Vec<Option<Result<QueryResult, ServeError>>>> = fixtures
                .iter()
                .map(|(_, _, queries)| vec![None; queries.len()])
                .collect();
            let collected: Vec<(usize, usize, Result<QueryResult, ServeError>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..submitters)
                        .map(|s| {
                            let server = &server;
                            let stream = &stream;
                            let fixtures = &fixtures;
                            scope.spawn(move || {
                                let mut mine = Vec::new();
                                for &(mi, qi) in stream.iter().skip(s).step_by(submitters) {
                                    let (name, _, queries) = &fixtures[mi];
                                    let pending = server
                                        .submit(name, queries[qi].clone())
                                        .expect("model resident, server accepting");
                                    mine.push((mi, qi, pending.wait()));
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
            for (mi, qi, result) in collected {
                got[mi][qi] = Some(result);
            }
            for (mi, (name, _, _)) in fixtures.iter().enumerate() {
                let answers: Vec<_> = got[mi]
                    .drain(..)
                    .map(|slot| slot.expect("every slot answered"))
                    .collect();
                assert_matches_oracle(&expected[mi], &answers, &format!("{label} {name}"));
            }
            server.shutdown();
            let stats = server.stats();
            assert_eq!(stats.submitted, stream.len() as u64, "{label}");
            assert_eq!(stats.completed, stream.len() as u64, "{label}");
            assert_eq!(stats.cancelled, 0, "{label}");
            assert_eq!(stats.worker_panics, 0, "{label}");
            // Per-model accounting sums to the global counters.
            let per_model = server.model_stats();
            assert_eq!(per_model.len(), fixtures.len(), "{label}");
            for row in &per_model {
                assert_eq!(row.submitted, row.completed + row.cancelled, "{label}");
            }
            let summed: u64 = per_model.iter().map(|m| m.submitted).sum();
            assert_eq!(summed, stats.submitted, "{label}");
        }
    }
}

#[test]
fn hot_unload_mid_traffic_never_perturbs_survivors() {
    // A slow model (diabetes: several ms per query) next to fast ones,
    // one worker — so the removal below lands while the slow model's
    // queries are queued or in flight.
    let diabetes = analogues::by_name("diabetes")
        .expect("paper analogue exists")
        .build();
    let asia = datasets::asia();
    let slow = Arc::new(Solver::new(&diabetes));
    let fast = Arc::new(Solver::new(&asia));
    let slow_queries = vec![Query::new(), Query::new().mpe()];
    let fast_queries = mixed_queries(&asia, 6, 7);
    let expected_slow = oracle(&slow, &slow_queries);
    let expected_fast = oracle(&fast, &fast_queries);

    let registry = Arc::new(Registry::new());
    registry.insert("diabetes", Arc::clone(&slow)).unwrap();
    registry.insert("asia", Arc::clone(&fast)).unwrap();
    drop((slow, fast)); // registry + traffic hold the only references
    let server = RoutedServer::builder(Arc::clone(&registry))
        .workers(1)
        .max_batch(2)
        .max_delay(Duration::ZERO)
        .queue_capacity(32)
        .build();

    // Accept slow-model traffic first, then unload it while those
    // requests are still queued behind / inside the single worker.
    let slow_pending: Vec<_> = slow_queries
        .iter()
        .map(|q| server.submit("diabetes", q.clone()).expect("accepting"))
        .collect();
    let removed = registry.remove("diabetes").expect("was resident");
    assert!(!registry.contains("diabetes"));

    // Subsequent submissions to the removed id: typed error, query
    // handed back — while the survivors keep accepting.
    let rejected = server
        .submit("diabetes", slow_queries[0].clone())
        .expect_err("unloaded model must reject");
    assert_eq!(rejected.kind(), SubmitErrorKind::UnknownModel);
    assert_eq!(rejected.model(), "diabetes");
    assert_eq!(rejected.into_query(), slow_queries[0]);

    let fast_pending: Vec<_> = fast_queries
        .iter()
        .map(|q| {
            server
                .submit("asia", q.clone())
                .expect("survivor accepting")
        })
        .collect();

    // Every request accepted before the unload completes, bitwise.
    let got_slow: Vec<_> = slow_pending.into_iter().map(|p| p.wait()).collect();
    assert_matches_oracle(&expected_slow, &got_slow, "unloaded model's in-flight");
    let got_fast: Vec<_> = fast_pending.into_iter().map(|p| p.wait()).collect();
    assert_matches_oracle(&expected_fast, &got_fast, "survivor");

    server.shutdown();
    // With the traffic drained and the registry entry gone, our handle
    // is the last reference — the unloaded model's memory is actually
    // reclaimable (nothing in the serving stack squirreled it away).
    assert_eq!(Arc::strong_count(&removed), 1, "no lingering references");
    let stats = server.stats();
    assert_eq!(stats.submitted, stats.completed, "all accepted work done");
}

#[test]
fn unknown_model_submissions_fail_typed_with_query_returned() {
    let registry = Arc::new(Registry::new());
    registry
        .insert("known", Arc::new(Solver::new(&datasets::sprinkler())))
        .unwrap();
    let server = RoutedServer::new(Arc::clone(&registry));
    let query = Query::new().observe(fastbn::VarId(0), 1);
    for attempt in 0..2 {
        let err = if attempt == 0 {
            server.submit("never-loaded", query.clone()).unwrap_err()
        } else {
            server
                .try_submit("never-loaded", query.clone())
                .unwrap_err()
        };
        assert_eq!(err.kind(), SubmitErrorKind::UnknownModel);
        assert_eq!(err.model(), "never-loaded");
        assert!(err.to_string().contains("never-loaded"));
        assert_eq!(err.into_query(), query, "query handed back intact");
    }
    // Unroutable submissions are never accepted, so they must not
    // appear in the accounting.
    assert_eq!(server.stats().submitted, 0);
    assert!(server.model_stats().is_empty());
    assert!(server.submit("known", Query::new()).is_ok());
    server.shutdown();
}

#[test]
fn eviction_only_touches_idle_models() {
    let diabetes = analogues::by_name("diabetes")
        .expect("paper analogue exists")
        .build();
    let registry = Arc::new(Registry::builder().capacity(2).build());
    registry
        .insert("slow", Arc::new(Solver::new(&diabetes)))
        .unwrap();
    registry
        .insert("idle", Arc::new(Solver::new(&datasets::asia())))
        .unwrap();
    let server = RoutedServer::builder(Arc::clone(&registry))
        .workers(1)
        .max_batch(1)
        .max_delay(Duration::ZERO)
        .build();
    // The accepted request co-owns "slow" from admission on, so the
    // capacity-pressured insert below must evict "idle" instead —
    // LRU order alone would pick "slow" (inserted first, never got).
    let pending = server.submit("slow", Query::new()).expect("accepting");
    registry
        .insert("newcomer", Arc::new(Solver::new(&datasets::cancer())))
        .expect("an idle model is evictable");
    assert!(registry.contains("slow"), "busy model survives");
    assert!(registry.contains("newcomer"));
    assert!(!registry.contains("idle"), "idle LRU model evicted");
    assert!(pending.wait().is_ok(), "in-flight work unaffected");

    // Pin both residents: nothing is idle, inserts must refuse rather
    // than evict work out from under a holder.
    let _slow = registry.get("slow").unwrap();
    let _newcomer = registry.get("newcomer").unwrap();
    let err = registry
        .insert("fourth", Arc::new(Solver::new(&datasets::student())))
        .unwrap_err();
    assert_eq!(err, RegistryError::Full { capacity: 2 });
    server.shutdown();
}

#[test]
fn per_model_stats_hold_the_drain_invariant_under_cancellation() {
    let registry = Arc::new(Registry::new());
    for (id, net) in [
        ("asia", datasets::asia()),
        ("sprinkler", datasets::sprinkler()),
        ("cancer", datasets::cancer()),
    ] {
        registry.insert(id, Arc::new(Solver::new(&net))).unwrap();
    }
    let server = RoutedServer::builder(Arc::clone(&registry))
        .workers(2)
        .max_batch(4)
        .max_delay(Duration::from_micros(100))
        .queue_capacity(8)
        .build();
    let models = ["asia", "sprinkler", "cancer"];
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let server = &server;
            scope.spawn(move || {
                for i in 0..120usize {
                    let model = models[(t + i) % models.len()];
                    let pending = match server.submit(model, Query::new()) {
                        Ok(p) => p,
                        Err(_) => break, // only possible post-shutdown
                    };
                    match (t + i) % 4 {
                        0 => drop(pending), // cancel, often while queued
                        1 => {
                            std::thread::yield_now();
                            drop(pending); // often between dequeue and delivery
                        }
                        _ => {
                            pending.wait().expect("empty query completes");
                        }
                    }
                }
            });
        }
    });
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(
        stats.completed + stats.cancelled,
        stats.submitted,
        "global drain invariant: {stats:?}"
    );
    let per_model = server.model_stats();
    assert_eq!(per_model.len(), models.len());
    for row in &per_model {
        assert!(row.submitted > 0, "every model saw traffic: {row:?}");
        assert_eq!(
            row.completed + row.cancelled,
            row.submitted,
            "per-model drain invariant: {row:?}"
        );
        assert_eq!(server.model_stats_for(&row.model).as_ref(), Some(row));
    }
    let sum = |f: fn(&ModelStats) -> u64| per_model.iter().map(f).sum::<u64>();
    assert_eq!(sum(|m| m.submitted), stats.submitted, "rows sum to global");
    assert_eq!(sum(|m| m.completed), stats.completed);
    assert_eq!(sum(|m| m.cancelled), stats.cancelled);
    assert_eq!(sum(|m| m.dedups), stats.dedups);
    assert_eq!(sum(|m| m.batches), stats.batches);
}

#[test]
fn in_window_dedup_never_crosses_models() {
    // Two models, identical canonical queries (`Query::new()` on both):
    // a full window must compute one slot per *model*, never share
    // across them, even though the keys are equal.
    let registry = Arc::new(Registry::new());
    registry
        .insert("a", Arc::new(Solver::new(&datasets::asia())))
        .unwrap();
    registry
        .insert("b", Arc::new(Solver::new(&datasets::sprinkler())))
        .unwrap();
    let expected_a = registry.get("a").unwrap().query(&Query::new()).unwrap();
    let expected_b = registry.get("b").unwrap().query(&Query::new()).unwrap();
    assert_ne!(expected_a, expected_b, "the models genuinely differ");
    let server = RoutedServer::builder(Arc::clone(&registry))
        .workers(1)
        .max_batch(6)
        .max_delay(Duration::MAX)
        .build();
    let pending: Vec<_> = (0..6)
        .map(|i| {
            let model = if i % 2 == 0 { "a" } else { "b" };
            (model, server.submit(model, Query::new()).unwrap())
        })
        .collect();
    for (model, p) in pending {
        let got = p.wait().expect("window dispatched");
        let want = if model == "a" {
            &expected_a
        } else {
            &expected_b
        };
        assert_eq!(&got, want, "model {model} answered with its own bits");
    }
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.dedups, 4, "2 computed, 4 fanned out within models");
    assert_eq!(stats.batches, 2, "one batch per model in the mixed window");
    let per_model = server.model_stats();
    assert!(per_model.iter().all(|m| m.dedups == 2 && m.batches == 1));
}

#[test]
fn aliased_ids_sharing_one_solver_keep_exact_per_model_stats() {
    // One solver registered under two ids (a routing alias): requests
    // for both land in the same window, but windows group by
    // (id, solver instance), so each id's counters — and its batches —
    // stay its own, preserving the per-row drain invariant.
    let solver = Arc::new(Solver::new(&datasets::asia()));
    let registry = Arc::new(Registry::new());
    registry.insert("prod", Arc::clone(&solver)).unwrap();
    registry.insert("canary", Arc::clone(&solver)).unwrap();
    let server = RoutedServer::builder(Arc::clone(&registry))
        .workers(1)
        .max_batch(4)
        .max_delay(Duration::MAX)
        .build();
    // A full deterministic window: 2 requests per alias, identical
    // queries — dedup must collapse within each alias, never across.
    let pending: Vec<_> = (0..4)
        .map(|i| {
            let model = if i % 2 == 0 { "prod" } else { "canary" };
            server.submit(model, Query::new()).unwrap()
        })
        .collect();
    for p in pending {
        assert!(p.wait().is_ok());
    }
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.completed, 4);
    for row in server.model_stats() {
        assert_eq!(row.submitted, 2, "{row:?}");
        assert_eq!(row.completed, 2, "{row:?}");
        assert_eq!(row.cancelled, 0, "{row:?}");
        assert_eq!(row.batches, 1, "each alias dispatches its own batch");
        assert_eq!(row.dedups, 1, "dedup collapses within the alias only");
    }
}

#[test]
fn single_model_server_is_a_one_entry_registry() {
    // The compatibility shim: same machinery, routing pinned to
    // SINGLE_MODEL_ID — visible through the per-model breakdown.
    let server = Server::new(Arc::new(Solver::new(&datasets::sprinkler())));
    let pending = server.submit(Query::new()).unwrap();
    assert!(pending.wait().is_ok());
    server.shutdown();
    let rows = server.routed().model_stats();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].model, fastbn::SINGLE_MODEL_ID);
    assert_eq!(rows[0].submitted, 1);
    assert_eq!(rows[0].completed, 1);
}

#[test]
fn unbounded_max_batch_still_answers() {
    // A window limit of `usize::MAX` must not size the default queue
    // capacity (overflow) or the window buffer (capacity overflow).
    let registry = Arc::new(Registry::new());
    registry
        .insert("sprinkler", Arc::new(Solver::new(&datasets::sprinkler())))
        .unwrap();
    let server = RoutedServer::builder(registry)
        .max_batch(usize::MAX)
        .max_delay(Duration::ZERO)
        .build();
    assert_eq!(server.queue_capacity(), usize::MAX);
    let pending = server.submit("sprinkler", Query::new()).unwrap();
    assert!(pending.wait().is_ok());
    server.shutdown();
    assert_eq!(server.stats().completed, 1);
    assert_eq!(server.stats().worker_panics, 0);
}

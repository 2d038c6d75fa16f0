//! The query-result cache's contract, per the acceptance criteria:
//!
//! * **cache-on results are bit-identical to cache-off** across every
//!   engine × threads {1, 4, 8} × execution path (single queries through
//!   a session, `run_batch` on both its strategies, and the serve front
//!   end), for mixed workloads including targeted marginals, virtual
//!   evidence (scale variants included), MPE, and failing slots;
//! * hits and misses are counted per query — including **per slot**
//!   inside a batch — and repeated traffic actually hits;
//! * canonicalization folds `-0.0` and likelihood scale into one entry,
//!   while malformed queries fail validation **before** key derivation
//!   can touch the cache.

use std::sync::Arc;

use fastbn::bayesnet::{datasets, sampler};
use fastbn::{
    CacheConfig, EngineKind, InferenceError, Prepared, Query, QueryBatch, QueryResult, Solver,
};

/// A mixed stream over Asia with deliberate repeats: plain marginals,
/// targeted, virtual evidence (plus a scaled twin), MPE, and two
/// failing slots.
fn mixed_queries(net: &fastbn::BayesianNetwork) -> Vec<Query> {
    let dysp = net.var_id("Dyspnea").unwrap();
    let lung = net.var_id("LungCancer").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let tub = net.var_id("Tuberculosis").unwrap();
    let either = net.var_id("TbOrCa").unwrap();
    let mut queries: Vec<Query> = sampler::generate_cases(net, 8, 0.25, 41)
        .into_iter()
        .map(|c| Query::new().evidence(c.evidence))
        .collect();
    queries.push(Query::new().observe(dysp, 0).targets([lung, tub]));
    queries.push(Query::new().likelihood(xray, vec![0.8, 0.2]));
    queries.push(Query::new().likelihood(xray, vec![1.6, 0.4])); // same key as above
    queries.push(Query::new().observe(dysp, 0).mpe());
    queries.push(Query::new().observe(tub, 0).observe(either, 1)); // P(e) = 0
    queries.push(Query::new().likelihood(xray, vec![0.0, 0.0])); // malformed
                                                                 // Repeat the whole stream so the second half hits the cache.
    let repeats: Vec<Query> = queries.clone();
    queries.extend(repeats);
    queries
}

/// Slot-by-slot bitwise comparison (marginals via `to_bits` on
/// `prob_evidence` and exact equality elsewhere).
fn assert_bitwise(
    expected: &[Result<QueryResult, InferenceError>],
    got: &[Result<QueryResult, InferenceError>],
    label: &str,
) {
    assert_eq!(expected.len(), got.len(), "{label}: length");
    for (i, (want, have)) in expected.iter().zip(got).enumerate() {
        assert_eq!(want, have, "{label}: slot {i}");
        if let (Ok(QueryResult::Marginals(p)), Ok(QueryResult::Marginals(q))) = (want, have) {
            assert_eq!(p.max_abs_diff(q), 0.0, "{label}: slot {i} not bitwise");
            assert_eq!(p.prob_evidence.to_bits(), q.prob_evidence.to_bits());
        }
    }
}

#[test]
fn cache_on_is_bit_identical_to_cache_off_across_engines_threads_and_paths() {
    let net = datasets::asia();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let queries = mixed_queries(&net);
    let batch = QueryBatch::from(queries.clone());
    for kind in EngineKind::all() {
        for threads in [1usize, 4, 8] {
            let label = format!("{kind:?} t={threads}");
            let plain = Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(threads)
                .build();
            let cached = Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(threads)
                .cache(CacheConfig::default())
                .build();
            // The cache-off oracle: one session, one query at a time.
            let mut plain_session = plain.session();
            let expected: Vec<_> = queries.iter().map(|q| plain_session.run(q)).collect();
            // Single-query path, cold then warm.
            let mut session = cached.session();
            let cold: Vec<_> = queries.iter().map(|q| session.run(q)).collect();
            assert_bitwise(&expected, &cold, &format!("{label} single cold"));
            let warm: Vec<_> = queries.iter().map(|q| session.run(q)).collect();
            assert_bitwise(&expected, &warm, &format!("{label} single warm"));
            // Batch path (wide enough for the outer-parallel strategy at
            // every thread count here).
            let batched = cached.query_batch(&batch);
            assert_bitwise(&expected, &batched, &format!("{label} batch"));
            let stats = cached.cache_stats().unwrap();
            assert!(
                stats.hits > stats.misses,
                "{label}: repeated traffic must hit ({stats:?})"
            );
            assert!(stats.evictions == 0, "{label}: default budget fits Asia");
        }
    }
}

#[test]
fn cached_batches_count_hits_per_slot() {
    let net = datasets::asia();
    let solver = Solver::builder(&net)
        .engine(EngineKind::Hybrid)
        .threads(4)
        .cache(CacheConfig::default())
        .build();
    let dysp = net.var_id("Dyspnea").unwrap();
    // 8 slots, 2 distinct keys, wide enough for the outer-parallel path.
    let batch: QueryBatch = (0..8).map(|i| Query::new().observe(dysp, i % 2)).collect();
    let first = solver.query_batch(&batch);
    assert!(first.iter().all(Result::is_ok));
    let after_first = solver.cache_stats().unwrap();
    // Every slot consulted the cache; concurrent chunks may race the
    // same key to a miss, but at most one insertion per key survives.
    assert_eq!(after_first.hits + after_first.misses, 8);
    assert!(after_first.misses >= 2);
    assert_eq!(after_first.entries, 2);
    let second = solver.query_batch(&batch);
    assert_bitwise(&first, &second, "second pass");
    let after_second = solver.cache_stats().unwrap();
    assert_eq!(
        after_second.hits - after_first.hits,
        8,
        "a warm batch hits on every slot"
    );
    assert_eq!(after_second.misses, after_first.misses);
}

#[test]
fn cached_solver_through_the_server_matches_the_uncached_oracle() {
    use fastbn::{ServeError, Server};
    use std::time::Duration;

    let net = datasets::asia();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let queries = mixed_queries(&net);
    let plain = Solver::from_prepared(prepared.clone()).build();
    let mut plain_session = plain.session();
    let expected: Vec<_> = queries.iter().map(|q| plain_session.run(q)).collect();

    let cached = Arc::new(
        Solver::from_prepared(prepared)
            .engine(EngineKind::Hybrid)
            .threads(2)
            .cache(CacheConfig::default())
            .build(),
    );
    let server = Server::builder(Arc::clone(&cached))
        .workers(2)
        .max_batch(4)
        .max_delay(Duration::from_micros(100))
        .build();
    // Concurrent submitters, strided shares, reassembled in order.
    let submitters = 4;
    let mut got: Vec<Option<Result<QueryResult, ServeError>>> = vec![None; queries.len()];
    let collected: Vec<(usize, Result<QueryResult, ServeError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let server = &server;
                let queries = &queries;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (idx, query) in queries.iter().enumerate().skip(s).step_by(submitters) {
                        let pending = server.submit(query.clone()).expect("accepting");
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
    for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
        match (want, have.as_ref().expect("every slot answered")) {
            (Ok(w), Ok(h)) => {
                assert_eq!(w, h, "slot {i}");
                if let (QueryResult::Marginals(p), QueryResult::Marginals(q)) = (w, h) {
                    assert_eq!(p.max_abs_diff(q), 0.0, "slot {i} not bitwise");
                    assert_eq!(p.prob_evidence.to_bits(), q.prob_evidence.to_bits());
                }
            }
            (Err(w), Err(ServeError::Inference(h))) => assert_eq!(w, h, "slot {i}"),
            (w, h) => panic!("slot {i}: {w:?} vs {h:?}"),
        }
    }
    server.shutdown();
    let cache_stats = cached.cache_stats().unwrap();
    let server_stats = server.routed().stats();
    assert!(
        cache_stats.hits + server_stats.dedups > 0,
        "repeated stream: some repeats cache-hit or dedup ({cache_stats:?}, {server_stats:?})"
    );
    assert_eq!(server_stats.completed, queries.len() as u64);
}

#[test]
fn negative_zero_and_scale_share_one_cache_entry() {
    let net = datasets::asia();
    let solver = Solver::builder(&net).cache(CacheConfig::default()).build();
    let xray = net.var_id("XRay").unwrap();
    let variants = [
        Query::new().likelihood(xray, vec![1.0, 0.0]),
        Query::new().likelihood(xray, vec![1.0, -0.0]),
        Query::new().likelihood(xray, vec![2.5, 0.0]),
        Query::new().likelihood(xray, vec![0.125, -0.0]),
    ];
    let results: Vec<_> = variants.iter().map(|q| solver.query(q).unwrap()).collect();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r, &results[0], "variant {i} bit-identical");
    }
    let stats = solver.cache_stats().unwrap();
    assert_eq!(stats.misses, 1, "first variant computed");
    assert_eq!(stats.hits, 3, "all other variants hit its entry");
    assert_eq!(stats.entries, 1);
}

#[test]
fn nan_and_inf_fail_validation_before_key_derivation_reaches_the_cache() {
    let net = datasets::asia();
    let solver = Solver::builder(&net).cache(CacheConfig::default()).build();
    let xray = net.var_id("XRay").unwrap();
    for bad in [
        vec![f64::NAN, 1.0],
        vec![1.0, f64::NEG_INFINITY],
        vec![f64::INFINITY, f64::INFINITY],
    ] {
        let err = solver
            .query(&Query::new().likelihood(xray, bad.clone()))
            .unwrap_err();
        assert!(
            matches!(err, InferenceError::MalformedLikelihood { .. }),
            "{bad:?} → {err:?}"
        );
    }
    let stats = solver.cache_stats().unwrap();
    assert_eq!(
        stats,
        fastbn::CacheStats::default(),
        "no lookup, no insert, nothing cached"
    );
}

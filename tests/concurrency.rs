//! The session API's headline guarantee: one `Solver` shared by many
//! concurrently querying OS threads returns **bit-identical** posteriors
//! to the sequential Fast-BNI-seq baseline, for every engine family.

use std::sync::Arc;

use fastbn::bayesnet::{datasets, generators, sampler};
use fastbn::{
    EngineKind, Evidence, InferenceError, Posteriors, Prepared, Query, QueryBatch, QueryResult,
    Solver,
};

const QUERY_THREADS: usize = 8;
const ROUNDS: usize = 10;

/// Sequential ground truth: `Seq`, one thread, one session.
fn baseline(prepared: &Arc<Prepared>, cases: &[Evidence]) -> Vec<Posteriors> {
    let seq = Solver::from_prepared(prepared.clone())
        .engine(EngineKind::Seq)
        .build();
    let mut session = seq.session();
    cases
        .iter()
        .map(|ev| session.posteriors(ev).unwrap())
        .collect()
}

/// Hammers one shared solver from `QUERY_THREADS` OS threads, comparing
/// every result bitwise against the sequential baseline.
fn assert_concurrent_bitwise(solver: &Solver, cases: &[Evidence], expected: &[Posteriors]) {
    std::thread::scope(|scope| {
        for worker in 0..QUERY_THREADS {
            scope.spawn(move || {
                let mut session = solver.session();
                for round in 0..ROUNDS {
                    // Stagger the order per worker so interleavings vary.
                    for i in 0..cases.len() {
                        let i = (i + worker + round) % cases.len();
                        let got = session.posteriors(&cases[i]).unwrap();
                        assert_eq!(
                            expected[i].max_abs_diff(&got),
                            0.0,
                            "worker {worker} round {round} case {i}: {} differs",
                            solver.engine_name()
                        );
                        assert_eq!(
                            expected[i].prob_evidence.to_bits(),
                            got.prob_evidence.to_bits()
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn eight_threads_one_hybrid_solver_match_seq_baseline() {
    // The acceptance setup: Fast-BNI-par (itself running 2-thread
    // parallel regions) shared by 8 querying threads.
    let net = datasets::asia();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let cases: Vec<Evidence> = sampler::generate_cases(&net, 12, 0.25, 2024)
        .into_iter()
        .map(|c| c.evidence)
        .collect();
    let expected = baseline(&prepared, &cases);
    let solver = Solver::from_prepared(prepared.clone())
        .engine(EngineKind::Hybrid)
        .threads(2)
        .build();
    assert_concurrent_bitwise(&solver, &cases, &expected);
    assert!(
        solver.pooled_states() <= QUERY_THREADS,
        "scratch pool must not exceed peak concurrency: {}",
        solver.pooled_states()
    );
}

#[test]
fn every_engine_family_is_concurrency_safe() {
    // Smaller workload, all six engines: sequential engines interleave
    // across sessions, parallel engines additionally share their pool.
    let net = datasets::sprinkler();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let cases: Vec<Evidence> = sampler::generate_cases(&net, 6, 0.3, 7)
        .into_iter()
        .map(|c| c.evidence)
        .collect();
    let expected = baseline(&prepared, &cases);
    for kind in EngineKind::all() {
        let solver = Solver::from_prepared(prepared.clone())
            .engine(kind)
            .threads(2)
            .build();
        assert_concurrent_bitwise(&solver, &cases, &expected);
    }
}

#[test]
fn concurrent_threads_on_a_paper_style_network() {
    // A larger random DAG: layered schedules, multi-child parents, bigger
    // cliques — closer to the paper's workloads than the toy networks.
    let spec = generators::WindowedDagSpec {
        nodes: 60,
        target_arcs: 80,
        max_parents: 3,
        window: 6,
        seed: 12,
        ..generators::WindowedDagSpec::new("concurrency", 60)
    };
    let net = generators::windowed_dag(&spec);
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let cases: Vec<Evidence> = sampler::generate_cases(&net, 6, 0.2, 99)
        .into_iter()
        .map(|c| c.evidence)
        .collect();
    let expected = baseline(&prepared, &cases);
    let solver = Solver::from_prepared(prepared.clone())
        .engine(EngineKind::Hybrid)
        .threads(3)
        .build();
    assert_concurrent_bitwise(&solver, &cases, &expected);
}

#[test]
fn mixed_query_kinds_interleave_concurrently() {
    // Marginal, targeted, virtual-evidence and MPE queries hammering one
    // solver at once; each thread checks its own kind against a
    // quiescent reference.
    let net = datasets::asia();
    let solver = Solver::builder(&net)
        .engine(EngineKind::Hybrid)
        .threads(2)
        .build();
    let dysp = net.var_id("Dyspnea").unwrap();
    let lung = net.var_id("LungCancer").unwrap();
    let xray = net.var_id("XRay").unwrap();

    let marginal_q = Query::new().observe(dysp, 0);
    let targeted_q = Query::new().observe(dysp, 0).targets([lung]);
    let virtual_q = Query::new().likelihood(xray, vec![0.8, 0.2]);
    let mpe_q = Query::new().observe(dysp, 0).mpe();
    let queries = [&marginal_q, &targeted_q, &virtual_q, &mpe_q];
    let reference: Vec<_> = queries.iter().map(|q| solver.query(q).unwrap()).collect();

    std::thread::scope(|scope| {
        for worker in 0..QUERY_THREADS {
            let reference = &reference;
            let queries = &queries;
            let solver = &solver;
            scope.spawn(move || {
                let mut session = solver.session();
                for round in 0..ROUNDS {
                    let i = (worker + round) % queries.len();
                    let got = session.run(queries[i]).unwrap();
                    assert_eq!(&got, &reference[i], "worker {worker} query {i}");
                }
            });
        }
    });
}

/// A mixed query set over Asia: sampled-evidence marginals, a targeted
/// query, virtual evidence, MPE, and two failing requests (impossible
/// evidence; malformed likelihood).
fn mixed_queries(net: &fastbn::BayesianNetwork) -> Vec<Query> {
    let dysp = net.var_id("Dyspnea").unwrap();
    let lung = net.var_id("LungCancer").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let tub = net.var_id("Tuberculosis").unwrap();
    let either = net.var_id("TbOrCa").unwrap();
    let mut queries: Vec<Query> = sampler::generate_cases(net, 12, 0.25, 11)
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

fn assert_identical(
    a: &[Result<QueryResult, InferenceError>],
    b: &[Result<QueryResult, InferenceError>],
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{label}: slot {i} differs");
        if let (Ok(QueryResult::Marginals(p)), Ok(QueryResult::Marginals(q))) = (x, y) {
            assert_eq!(p.max_abs_diff(q), 0.0, "{label}: slot {i} not bitwise");
            assert_eq!(p.prob_evidence.to_bits(), q.prob_evidence.to_bits());
        }
    }
}

#[test]
fn session_on_a_spawned_thread_matches_this_thread_for_every_engine() {
    // A detached thread shares the model through an `Arc<Solver>` and
    // opens its own session inside the closure.
    let net = datasets::asia();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let queries = mixed_queries(&net);
    for kind in EngineKind::all() {
        let solver = Arc::new(
            Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(2)
                .build(),
        );
        // Oracle: a session on this thread, one query at a time.
        let mut session = solver.session();
        let expected: Vec<_> = queries.iter().map(|q| session.run(q)).collect();
        drop(session);
        let shared = Arc::clone(&solver);
        let thread_queries = queries.clone();
        let got = std::thread::spawn(move || {
            let mut session = shared.session();
            thread_queries
                .iter()
                .map(|q| session.run(q))
                .collect::<Vec<_>>()
        })
        .join()
        .expect("spawned session thread panicked");
        assert_identical(&expected, &got, &format!("{kind:?} run"));
        // And the batch entry point, also from a spawned thread.
        let batch = QueryBatch::from(queries.clone());
        let shared = Arc::clone(&solver);
        let got_batch = std::thread::spawn(move || shared.session().run_batch(&batch))
            .join()
            .expect("spawned batch thread panicked");
        assert_identical(&expected, &got_batch, &format!("{kind:?} run_batch"));
    }
}

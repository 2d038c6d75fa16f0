//! The tracing layer's contract, per the acceptance criteria:
//!
//! * tracing is a **pure observer**: serving with a tracer installed
//!   (every request sampled) returns bit-identical results to serving
//!   without one, for all six engines × inner widths {1, 4, 8}, and the
//!   outer-parallel batch path is bitwise too;
//! * sampled traces form a well-formed tree — one root request span,
//!   every other span parented inside the same trace, engine
//!   collect/distribute phases nested under the compute stage;
//! * a flattened layer records one span per phase under its
//!   collect/distribute span, tagged with the layer's index and the
//!   phase's entry count, and a parallel extraction one span of its own;
//! * head sampling is 1-in-N by trace id (0 turns it off), the
//!   slow-query log stays **exact** either way (one entry counted per
//!   delivered request over the threshold), and the drain invariant
//!   `submitted == completed + cancelled` holds under stress with
//!   tracing on.

use std::sync::Arc;
use std::time::Duration;

use fastbn::bayesnet::{datasets, sampler};
use fastbn::telemetry::trace::{
    SPAN_COLLECT, SPAN_COMPUTE, SPAN_DELIVERY, SPAN_DISTRIBUTE, SPAN_EXTRACT, SPAN_QUEUE_WAIT,
    SPAN_RECV_PHASE, SPAN_REQUEST, SPAN_SEP_PHASE, SPAN_WINDOW,
};
use fastbn::{
    EngineKind, Prepared, Query, QueryBatch, QueryResult, ServeError, Server, Solver, TraceConfig,
    TraceContext, Tracer,
};

/// A tracer that samples every request and slow-logs every request
/// (zero threshold), so one pass exercises the whole recording surface.
fn trace_everything() -> Arc<Tracer> {
    Arc::new(Tracer::new(TraceConfig {
        sample_every: 1,
        slow_threshold: Duration::ZERO,
        ..TraceConfig::default()
    }))
}

/// A mixed query stream over Asia: sampled evidence, targeted,
/// likelihood, MPE, and failing slots.
fn mixed_queries(net: &fastbn::BayesianNetwork, n_sampled: usize) -> Vec<Query> {
    let dysp = net.var_id("Dyspnea").unwrap();
    let lung = net.var_id("LungCancer").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let tub = net.var_id("Tuberculosis").unwrap();
    let either = net.var_id("TbOrCa").unwrap();
    let mut queries: Vec<Query> = sampler::generate_cases(net, n_sampled, 0.25, 61)
        .into_iter()
        .map(|c| Query::new().evidence(c.evidence))
        .collect();
    queries.push(Query::new().observe(dysp, 0).targets([lung, tub]));
    queries.push(Query::new().likelihood(xray, vec![0.8, 0.2]));
    queries.push(Query::new().observe(dysp, 0).mpe());
    queries.push(Query::new().observe(tub, 0).observe(either, 1)); // P(e) = 0
    queries
}

/// Both runs must agree slot by slot, bitwise for marginals.
fn assert_bitwise(
    off: &[Result<QueryResult, ServeError>],
    on: &[Result<QueryResult, ServeError>],
    label: &str,
) {
    assert_eq!(off.len(), on.len(), "{label}: length mismatch");
    for (i, (want, have)) in off.iter().zip(on).enumerate() {
        match (want, have) {
            (Ok(w), Ok(h)) => {
                assert_eq!(w, h, "{label}: slot {i} differs");
                if let (QueryResult::Marginals(p), QueryResult::Marginals(q)) = (w, h) {
                    assert_eq!(p.max_abs_diff(q), 0.0, "{label}: slot {i} not bitwise");
                    assert_eq!(p.prob_evidence.to_bits(), q.prob_evidence.to_bits());
                }
            }
            (Err(w), Err(h)) => assert_eq!(w, h, "{label}: slot {i} error differs"),
            _ => panic!("{label}: slot {i} Ok/Err shape differs"),
        }
    }
}

/// Serves `queries` in input order through a fresh server over
/// `solver`, optionally traced, and returns the per-slot results.
fn serve_all(
    solver: &Arc<Solver>,
    queries: &[Query],
    tracer: Option<Arc<Tracer>>,
) -> Vec<Result<QueryResult, ServeError>> {
    let mut builder = Server::builder(Arc::clone(solver))
        .workers(2)
        .max_batch(4)
        .max_delay(Duration::from_micros(100));
    if let Some(tracer) = tracer {
        builder = builder.tracer(tracer);
    }
    let server = builder.build();
    let pending: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.clone()).expect("server accepting"))
        .collect();
    let got = pending.into_iter().map(|p| p.wait()).collect();
    server.shutdown();
    got
}

#[test]
fn traced_serving_is_bitwise_identical_for_every_engine_and_width() {
    let net = datasets::asia();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let queries = mixed_queries(&net, 16); // 20 queries, failing slot included
    for kind in EngineKind::all() {
        for threads in [1usize, 4, 8] {
            let solver = Arc::new(
                Solver::from_prepared(prepared.clone())
                    .engine(kind)
                    .threads(threads)
                    .build(),
            );
            let label = format!("{kind:?} × {threads}");
            let off = serve_all(&solver, &queries, None);
            let tracer = trace_everything();
            let on = serve_all(&solver, &queries, Some(Arc::clone(&tracer)));
            assert_bitwise(&off, &on, &label);
            assert!(
                tracer.spans_recorded() > 0,
                "{label}: tracing on but nothing recorded"
            );
            assert_eq!(
                tracer.slow_total(),
                queries.len() as u64, // errors are deliveries too
                "{label}: slow log must count every delivered request at threshold zero"
            );
        }
    }
}

#[test]
fn traced_outer_batch_path_is_bitwise_identical() {
    let net = datasets::asia();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let queries = mixed_queries(&net, 28); // 32 queries ≥ any pool width below
    let batch = QueryBatch::from(queries);
    for kind in EngineKind::all() {
        for threads in [1usize, 4, 8] {
            let solver = Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(threads)
                .build();
            let label = format!("{kind:?} × {threads}");
            let plain = solver.query_batch(&batch);
            let tracer = trace_everything();
            let ctxs: Vec<Option<TraceContext>> = (0..batch.len())
                .map(|_| {
                    let token = tracer.begin_trace();
                    Some(TraceContext {
                        tracer: Arc::clone(&tracer),
                        trace: token.trace,
                        parent: tracer.next_span(),
                    })
                })
                .collect();
            let traced = solver.query_batch_traced(&batch, &ctxs);
            assert_eq!(plain.len(), traced.len());
            for (i, (want, have)) in plain.iter().zip(&traced).enumerate() {
                match (want, have) {
                    (Ok(w), Ok(h)) => {
                        assert_eq!(w, h, "{label}: slot {i} differs");
                        if let (QueryResult::Marginals(p), QueryResult::Marginals(q)) = (w, h) {
                            assert_eq!(p.max_abs_diff(q), 0.0, "{label}: slot {i} not bitwise");
                        }
                    }
                    (Err(w), Err(h)) => assert_eq!(w, h, "{label}: slot {i} error differs"),
                    _ => panic!("{label}: slot {i} Ok/Err shape differs"),
                }
            }
            // Every successful query recorded its two phase spans.
            let ok = plain.iter().filter(|r| r.is_ok()).count() as u64;
            assert!(
                tracer.spans_recorded() >= 2 * ok,
                "{label}: expected ≥ {} phase spans, saw {}",
                2 * ok,
                tracer.spans_recorded()
            );
        }
    }
}

#[test]
fn sampled_traces_form_well_formed_trees() {
    let net = datasets::asia();
    let solver = Arc::new(
        Solver::builder(&net)
            .engine(EngineKind::Hybrid)
            .threads(2)
            .build(),
    );
    let tracer = trace_everything();
    let queries = mixed_queries(&net, 8);
    serve_all(&solver, &queries, Some(Arc::clone(&tracer)));

    let traces = tracer.recent_traces(16);
    assert!(!traces.is_empty(), "sampling everything must retain traces");
    let mut saw_engine_phase = false;
    for view in &traces {
        let roots: Vec<_> = view.spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(
            roots.len(),
            1,
            "trace {} must have exactly one root, got {roots:?}",
            view.trace
        );
        assert_eq!(roots[0].name, SPAN_REQUEST);
        for span in &view.spans {
            assert_eq!(span.trace, view.trace);
            if span.parent != 0 {
                assert!(
                    view.spans.iter().any(|s| s.span == span.parent),
                    "trace {}: span {} orphaned (parent {} missing)",
                    view.trace,
                    span.span,
                    span.parent
                );
            }
        }
        // Stage spans hang off the root; engine phases hang off compute.
        let root = roots[0].span;
        for stage in [SPAN_QUEUE_WAIT, SPAN_WINDOW, SPAN_DELIVERY] {
            if let Some(s) = view.spans.iter().find(|s| s.name == stage) {
                assert_eq!(s.parent, root, "stage spans parent to the request span");
            }
        }
        if let Some(compute) = view.spans.iter().find(|s| s.name == SPAN_COMPUTE) {
            assert_eq!(compute.parent, root);
            for phase in view
                .spans
                .iter()
                .filter(|s| s.name == SPAN_COLLECT || s.name == SPAN_DISTRIBUTE)
            {
                assert_eq!(
                    phase.parent, compute.span,
                    "engine phases nest under compute"
                );
                saw_engine_phase = true;
            }
        }
    }
    assert!(
        saw_engine_phase,
        "at least one retained trace must reach into the engine"
    );
}

/// On `few-large-cliques` every layer of a two-thread hybrid query is
/// phased: each records a separator-phase and a receiver-phase span under
/// its pass's span, `tag` = the layer's index in the pass, `aux` = the
/// receiver entries its receiver phase writes; the extraction region
/// records one span beside the passes.
#[test]
fn flattened_layers_record_one_span_per_phase() {
    let (_, net) = fastbn::bayesnet::analogues::adaptivity()
        .into_iter()
        .find(|(name, _)| *name == "few-large-cliques")
        .unwrap();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let solver = Solver::from_prepared(prepared.clone())
        .engine(EngineKind::Hybrid)
        .threads(2)
        .build();
    let case = &sampler::generate_cases(&net, 1, 0.2, 3)[0];
    let batch = QueryBatch::from(vec![Query::new().evidence(case.evidence.clone())]);
    let tracer = trace_everything();
    let ctx = TraceContext {
        tracer: Arc::clone(&tracer),
        trace: tracer.begin_trace().trace,
        parent: tracer.next_span(),
    };
    let traced = solver.query_batch_traced(&batch, &[Some(ctx.clone())]);
    assert!(traced[0].is_ok());

    let spans = tracer.recent_spans();
    let schedule = &prepared.built.schedule;
    let size = |c: usize| prepared.clique_domains[c].size() as u64;
    for (pass, layers, collect) in [
        (SPAN_COLLECT, &schedule.collect_layers, true),
        (SPAN_DISTRIBUTE, &schedule.distribute_layers, false),
    ] {
        let pass = spans.iter().find(|s| s.name == pass).expect("a pass span");
        assert_eq!(pass.parent, ctx.parent);
        for phase in [SPAN_SEP_PHASE, SPAN_RECV_PHASE] {
            let mut tags: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.name == phase && s.parent == pass.span)
                .map(|s| (s.tag, s.aux))
                .collect();
            tags.sort_unstable();
            let want: Vec<u64> = (0..layers.len() as u64).collect();
            assert_eq!(tags.iter().map(|t| t.0).collect::<Vec<_>>(), want);
            if phase == SPAN_RECV_PHASE {
                for (&(layer, aux), ids) in tags.iter().zip(layers) {
                    let written: u64 = ids
                        .iter()
                        .map(|&id| schedule.messages[id])
                        .map(|m| size(if collect { m.parent } else { m.child }))
                        .sum();
                    assert_eq!(aux, written, "receiver entries of layer {layer}");
                }
            }
        }
    }
    let extract: Vec<_> = spans.iter().filter(|s| s.name == SPAN_EXTRACT).collect();
    assert_eq!(extract.len(), 1);
    assert_eq!(extract[0].parent, ctx.parent);
    assert!(extract[0].aux > 0);
}

#[test]
fn sampling_off_records_no_spans_but_slow_log_stays_exact() {
    let net = datasets::asia();
    let solver = Arc::new(Solver::new(&net));
    let tracer = Arc::new(Tracer::new(TraceConfig {
        sample_every: 0,
        slow_threshold: Duration::ZERO,
        ..TraceConfig::default()
    }));
    let server = Server::builder(Arc::clone(&solver))
        .tracer(Arc::clone(&tracer))
        .build();
    let pending: Vec<_> = (0..48)
        .map(|_| server.submit(Query::new()).unwrap())
        .collect();
    for p in pending {
        p.wait().unwrap();
    }
    server.shutdown();

    let stats = server.routed().stats();
    assert_eq!(stats.submitted, 48);
    assert_eq!(stats.submitted, stats.completed + stats.cancelled);
    assert_eq!(tracer.spans_recorded(), 0, "sampling off records no spans");
    assert!(tracer.recent_traces(64).is_empty());
    assert_eq!(
        tracer.slow_total(),
        stats.completed,
        "slow-query log is exact with sampling off"
    );
    for entry in tracer.slow_entries() {
        assert!(!entry.sampled, "no entry can claim a span tree exists");
        assert!(entry.total_ns > 0);
        assert_eq!(entry.model, fastbn::SINGLE_MODEL_ID);
    }
}

#[test]
fn head_sampling_is_one_in_n_and_stress_keeps_the_drain_invariant() {
    let net = datasets::asia();
    let solver = Arc::new(
        Solver::builder(&net)
            .engine(EngineKind::Hybrid)
            .threads(2)
            .build(),
    );
    let tracer = Arc::new(Tracer::new(TraceConfig {
        sample_every: 4,
        slow_threshold: Duration::ZERO,
        ..TraceConfig::default()
    }));
    let server = Server::builder(Arc::clone(&solver))
        .workers(2)
        .max_batch(4)
        .max_delay(Duration::from_micros(50))
        .tracer(Arc::clone(&tracer))
        .build();
    let submitters = 4;
    let per_thread = 32;
    std::thread::scope(|scope| {
        for s in 0..submitters {
            let server = &server;
            let net = &net;
            scope.spawn(move || {
                let dysp = net.var_id("Dyspnea").unwrap();
                for i in 0..per_thread {
                    let pending = server
                        .submit(Query::new().observe(dysp, (s + i) % 2))
                        .unwrap();
                    if i % 5 == 0 {
                        drop(pending); // cancel a slice of the traffic
                    } else {
                        let _ = pending.wait();
                    }
                }
            });
        }
    });
    server.shutdown();

    let stats = server.routed().stats();
    let total = (submitters * per_thread) as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled,
        "drain invariant under tracing + cancellation stress"
    );
    // Head sampling: trace ids are minted 1..=total, sampled iff
    // id % 4 == 0 — so at most total/4 traces can ever carry spans.
    let sampled_traces: std::collections::BTreeSet<u64> =
        tracer.recent_spans().iter().map(|s| s.trace).collect();
    assert!(
        sampled_traces.len() as u64 <= total / 4,
        "1-in-4 sampling retained {} traces of {total}",
        sampled_traces.len()
    );
    assert!(
        !sampled_traces.is_empty(),
        "some sampled requests must have completed"
    );
    // The slow log never samples: one entry counted per delivery.
    assert_eq!(tracer.slow_total(), stats.completed);
}

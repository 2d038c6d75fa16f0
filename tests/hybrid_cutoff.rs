//! The hybrid engine's per-phase decision — run a layer phase as a pool
//! region, or inline and un-chunked on the caller — seen from outside:
//!
//! * it never changes a bit: on generated networks whose phases straddle
//!   the break-even, `Hybrid` at every pool width equals `Seq` on every
//!   marginal and on `prob_evidence`, through `Session::run`,
//!   `run_batch` and a `LiveSession` edit stream;
//! * it is visible in the pool's existing counters: small models open no
//!   region at all, a large one does, width 1 never does, and neither
//!   does a phase whose tables all run compiled run programs, however
//!   many entries it holds;
//! * the other configurations of the same driver — `Direct`, `Primitive`,
//!   `Element` — equal `Seq` on the same networks, whose cliques also sit
//!   on both sides of the run-program constant.

use std::sync::Arc;

use fastbn::bayesnet::analogues;
use fastbn::bayesnet::generators::{self, ArityDist, WindowedDagSpec};
use fastbn::bayesnet::{datasets, sampler};
use fastbn::{
    BayesianNetwork, EngineKind, EvidenceDelta, Posteriors, Prepared, Query, QueryBatch,
    QueryResult, Solver,
};

mod common;
use common::{straddling_networks, Regions};

/// The largest table the kernels run as a compiled run program
/// (`fastbn_potential::plan`'s private constant).
const PROGRAM_MAX_ENTRIES: usize = 32_768;

/// The break-even work of a hybrid phase (the driver's private constant).
const PARALLEL_MIN_ENTRIES: usize = 16_384;

fn solver(prepared: &Arc<Prepared>, kind: EngineKind, threads: usize) -> Solver {
    Solver::from_prepared(prepared.clone())
        .engine(kind)
        .threads(threads)
        .build()
}

fn hybrid(prepared: &Arc<Prepared>, threads: usize) -> Solver {
    solver(prepared, EngineKind::Hybrid, threads)
}

/// The extraction regions an all-marginals query opens at width
/// `threads` (the driver's rule, mirrored): one when the distinct home
/// cliques above the program constant hold at least the break-even.
fn extraction_regions(prepared: &Prepared, threads: usize) -> u64 {
    let mut homes = prepared.home.clone();
    homes.sort_unstable();
    homes.dedup();
    let large: usize = homes
        .iter()
        .map(|&c| prepared.clique_domains[c].size())
        .filter(|&size| size > PROGRAM_MAX_ENTRIES)
        .sum();
    (threads > 1 && large >= PARALLEL_MIN_ENTRIES) as u64
}

/// Pool regions `solver` opens for one all-marginals query per case,
/// from `PoolStats::regions_started` deltas.
fn regions_opened(solver: &Solver, queries: &[Query]) -> u64 {
    let pool = solver.pool_handle().expect("hybrid solvers own a pool");
    let mut session = solver.session();
    let before = pool.stats().regions_started;
    for query in queries {
        session.run(query).unwrap();
    }
    pool.stats().regions_started - before
}

fn queries_for(net: &BayesianNetwork, n: usize, seed: u64) -> Vec<Query> {
    sampler::generate_cases(net, n, 0.2, seed)
        .into_iter()
        .map(|c| Query::new().evidence(c.evidence))
        .collect()
}

fn assert_bitwise(label: &str, a: &Posteriors, b: &Posteriors) {
    assert_eq!(
        a.prob_evidence.to_bits(),
        b.prob_evidence.to_bits(),
        "{label}: P(e)"
    );
    for (v, (x, y)) in a.marginals().iter().zip(b.marginals()).enumerate() {
        let same = x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same, "{label}: marginal of var {v}: {x:?} vs {y:?}");
    }
}

/// `solver` answers `queries` with exactly `expected`'s bits through
/// `Session::run` and `run_batch`.
fn assert_run_and_batch_match(
    label: &str,
    solver: &Solver,
    queries: &[Query],
    expected: &[Posteriors],
) {
    let mut session = solver.session();
    for (i, query) in queries.iter().enumerate() {
        let got = session.run(query).unwrap().into_posteriors().unwrap();
        assert_bitwise(&format!("{label} run {i}"), &got, &expected[i]);
    }
    let batch: QueryBatch = queries.iter().cloned().collect();
    for (i, result) in session.run_batch(&batch).into_iter().enumerate() {
        let Ok(QueryResult::Marginals(got)) = result else {
            panic!("{label} batch slot {i}: {result:?}");
        };
        assert_bitwise(&format!("{label} batch {i}"), &got, &expected[i]);
    }
}

/// [`assert_run_and_batch_match`], and the same bits again through a
/// `LiveSession` edit stream.
fn assert_paths_match(
    label: &str,
    solver: &Arc<Solver>,
    queries: &[Query],
    expected: &[Posteriors],
) {
    assert_run_and_batch_match(label, solver, queries, expected);

    // An edit stream: each case's findings arrive one at a time,
    // then are retracted again.
    let mut live = solver.live_session();
    for (i, query) in queries.iter().enumerate() {
        let findings: Vec<_> = query.get_evidence().iter().collect();
        for &(var, state) in &findings {
            live.apply(EvidenceDelta::observe(var, state)).unwrap();
        }
        let got = live.posteriors().unwrap();
        assert_bitwise(&format!("{label} live {i}"), &got, &expected[i]);
        for &(var, _) in &findings {
            live.apply(EvidenceDelta::retract(var)).unwrap();
        }
    }
}

#[test]
fn decision_boundary_is_bitwise_safe() {
    for (net, expect) in straddling_networks() {
        let name = format!("{} ({} vars)", net.name(), net.num_vars());
        let prepared = Arc::new(Prepared::new(&net, &Default::default()));
        let schedule = &prepared.built.schedule;
        let phases = 2 * (schedule.collect_layers.len() + schedule.distribute_layers.len()) as u64;
        let queries = queries_for(&net, 6, 0xC07);

        let seq = Solver::from_prepared(prepared.clone()).build();
        let mut seq_session = seq.session();
        let expected: Vec<Posteriors> = queries
            .iter()
            .map(|q| seq_session.run(q).unwrap().into_posteriors().unwrap())
            .collect();

        for threads in [1usize, 2, 4, 8] {
            let label = format!("{name} t={threads}");
            let solver = Arc::new(hybrid(&prepared, threads));

            // The phases really fall where the network was built to put
            // them (and nowhere but inline at width 1); the query's
            // extraction region, if the rule gives it one, comes on top.
            let regions =
                regions_opened(&solver, &queries[..1]) - extraction_regions(&prepared, threads);
            let as_expected = match expect {
                _ if threads == 1 => regions == 0,
                Regions::None => regions == 0,
                Regions::Some => 0 < regions && regions < phases,
                Regions::All => regions == phases,
            };
            assert!(as_expected, "{label}: {regions}/{phases}, want {expect:?}");

            assert_paths_match(&label, &solver, &queries, &expected);
        }
    }
}

/// The paper's baselines are configurations of the same driver as
/// `Hybrid` and `Seq`. On the networks above — phases on both sides of
/// the break-even, cliques on both sides of the run-program constant —
/// each of them, at every pool width, equals `Seq` on every marginal and
/// on `prob_evidence`.
#[test]
fn baseline_configurations_match_seq_across_the_boundary() {
    for (net, _) in straddling_networks() {
        let prepared = Arc::new(Prepared::new(&net, &Default::default()));
        let queries = queries_for(&net, 3, 0xBA5E);
        let seq = Solver::from_prepared(prepared.clone()).build();
        let mut seq_session = seq.session();
        let expected: Vec<Posteriors> = queries
            .iter()
            .map(|q| seq_session.run(q).unwrap().into_posteriors().unwrap())
            .collect();

        for kind in [
            EngineKind::Direct,
            EngineKind::Primitive,
            EngineKind::Element,
        ] {
            for threads in [1usize, 2, 4] {
                let label = format!("{} {kind} t={threads}", net.name());
                let solver = solver(&prepared, kind, threads);
                assert_run_and_batch_match(&label, &solver, &queries, &expected);
            }
        }
    }
}

/// Tables of at most 32 768 entries execute compiled run programs and
/// fully inline layers run the sequential engine's per-message routine
/// with deferred ratios; larger tables keep the layout kernels and
/// parallel phases read cliques directly. On trees that have all four
/// combinations the engines must still agree to the bit — with each
/// other and with `Reference`, which decodes every index per entry and
/// shares none of that machinery.
#[test]
fn program_boundary_is_bitwise_safe() {
    for (window, seed) in [(5, 3), (5, 4), (6, 4)] {
        let net = generators::windowed_dag(&WindowedDagSpec {
            target_arcs: 60,
            max_parents: 3,
            window,
            arity: ArityDist::Fixed(6),
            seed,
            ..WindowedDagSpec::new(format!("program-{window}-{seed}"), 30)
        });
        let name = net.name().to_string();
        let prepared = Arc::new(Prepared::new(&net, &Default::default()));
        let sizes: Vec<usize> = prepared.clique_domains.iter().map(|d| d.size()).collect();
        let programmed = sizes.iter().filter(|&&n| n <= PROGRAM_MAX_ENTRIES).count();
        assert!(
            0 < programmed && programmed < sizes.len(),
            "{name}: {programmed} of {} cliques under the constant",
            sizes.len()
        );
        let schedule = &prepared.built.schedule;
        let phases = 2 * (schedule.collect_layers.len() + schedule.distribute_layers.len()) as u64;
        let queries = queries_for(&net, 4, 0xB17);

        let reference = Solver::from_prepared(prepared.clone())
            .engine(EngineKind::Reference)
            .build();
        let mut reference_session = reference.session();
        let expected: Vec<Posteriors> = queries
            .iter()
            .map(|q| reference_session.run(q).unwrap().into_posteriors().unwrap())
            .collect();

        let seq = Arc::new(Solver::from_prepared(prepared.clone()).build());
        assert_paths_match(&format!("{name} seq"), &seq, &queries, &expected);
        for threads in [1usize, 2, 4] {
            let solver = Arc::new(hybrid(&prepared, threads));
            let regions =
                regions_opened(&solver, &queries[..1]) - extraction_regions(&prepared, threads);
            if threads == 1 {
                assert_eq!(regions, 0, "{name}: width 1 runs inline");
            } else {
                assert!(
                    0 < regions && regions < phases,
                    "{name}: {regions}/{phases}"
                );
            }
            assert_paths_match(&format!("{name} t={threads}"), &solver, &queries, &expected);
        }
    }
}

/// Entries of the largest phase of either pass, counting every table: a
/// separator phase scans its senders, a receiver phase its receivers.
fn largest_phase(prepared: &Prepared) -> usize {
    let schedule = &prepared.built.schedule;
    let size = |c: usize| prepared.clique_domains[c].size();
    let passes = [&schedule.collect_layers, &schedule.distribute_layers];
    passes
        .into_iter()
        .flatten()
        .flat_map(|ids| {
            let edges = ids.iter().map(|&id| &schedule.messages[id]);
            let children: usize = edges.clone().map(|m| size(m.child)).sum();
            let parents: usize = edges.map(|m| size(m.parent)).sum();
            [children, parents]
        })
        .max()
        .unwrap_or(0)
}

/// A phase whose tables all run compiled run programs stays on the
/// caller however many entries it holds: split across a two- or
/// four-thread pool through the chunked layout kernels it would run
/// slower than whole. Windowed DAGs with the pathfinder analogue's arity
/// mix have every clique under the program constant and phases past the
/// break-even; the hybrid engine opens no region on them and still
/// equals `Seq` and `Reference` to the bit on every path.
#[test]
fn programmed_tables_never_open_a_region() {
    let arity = ArityDist::Weighted(vec![
        (2, 0.50),
        (3, 0.22),
        (4, 0.18),
        (8, 0.06),
        (32, 0.02),
        (63, 0.02),
    ]);
    for (nodes, seed) in [(40, 9), (60, 1)] {
        let net = generators::windowed_dag(&WindowedDagSpec {
            target_arcs: nodes * 9 / 5,
            max_parents: 5,
            window: 6,
            arity: arity.clone(),
            seed,
            ..WindowedDagSpec::new(format!("programmed-{nodes}-{seed}"), nodes)
        });
        let name = net.name().to_string();
        let prepared = Arc::new(Prepared::new(&net, &Default::default()));
        let largest = prepared.clique_domains.iter().map(|d| d.size()).max();
        assert!(largest <= Some(PROGRAM_MAX_ENTRIES), "{name}: {largest:?}");
        let phase = largest_phase(&prepared);
        assert!(
            phase >= PARALLEL_MIN_ENTRIES,
            "{name}: largest phase {phase}"
        );
        let queries = queries_for(&net, 4, 0x9A7);

        let reference = Solver::from_prepared(prepared.clone())
            .engine(EngineKind::Reference)
            .build();
        let mut reference_session = reference.session();
        let expected: Vec<Posteriors> = queries
            .iter()
            .map(|q| reference_session.run(q).unwrap().into_posteriors().unwrap())
            .collect();

        let seq = Arc::new(Solver::from_prepared(prepared.clone()).build());
        assert_paths_match(&format!("{name} seq"), &seq, &queries, &expected);
        for threads in [2usize, 4] {
            let solver = Arc::new(hybrid(&prepared, threads));
            let regions = regions_opened(&solver, &queries);
            assert_eq!(regions, 0, "{name} t={threads}: every phase is inline");
            assert_paths_match(&format!("{name} t={threads}"), &solver, &queries, &expected);
        }
    }
}

#[test]
fn small_models_open_no_region_and_large_ones_do() {
    let pigs = analogues::by_name("pigs").unwrap().build();
    let asia = datasets::asia();
    let (_, few_large) = analogues::adaptivity()
        .into_iter()
        .find(|(name, _)| *name == "few-large-cliques")
        .unwrap();

    for (net, expect_regions) in [(&pigs, false), (&asia, false), (&few_large, true)] {
        let prepared = Arc::new(Prepared::new(net, &Default::default()));
        let queries = queries_for(net, 2, 5);
        let per_query = |threads| regions_opened(&hybrid(&prepared, threads), &queries) / 2;
        assert_eq!(per_query(1), 0, "{}: width 1 runs inline", net.name());
        let at_two = per_query(2);
        if expect_regions {
            assert!(at_two >= 1, "{}: {at_two} regions per query", net.name());
        } else {
            assert_eq!(at_two, 0, "{}: every phase is inline", net.name());
        }
    }
}

//! End-to-end checks on the paper-scale workload analogues: structure
//! statistics, engine agreement, determinism across repeated preparation,
//! and the root-selection layer reduction on real benchmark structures.

use std::sync::Arc;

use fastbn::bayesnet::analogues;
use fastbn::bayesnet::sampler;
use fastbn::inference::validate::assert_engines_agree;
use fastbn::jtree::{root_tree, LayerSchedule, RootStrategy};
use fastbn::{
    EngineKind, EvidenceDelta, Posteriors, Prepared, Query, QueryBatch, QueryResult, Solver,
};

#[test]
fn workload_structures_are_tractable() {
    for w in analogues::all() {
        let net = w.build();
        let prepared = Prepared::new(&net, &Default::default());
        let stats = fastbn::jtree::tree_stats(&net, &prepared.built);
        assert!(
            stats.max_clique_entries < 1 << 22,
            "{}: max clique {} entries",
            w.name,
            stats.max_clique_entries
        );
        assert!(
            prepared.built.tree.verify_running_intersection(),
            "{}",
            w.name
        );
    }
}

#[test]
fn engines_agree_on_hailfinder_analogue() {
    let w = analogues::by_name("hailfinder").unwrap();
    let net = w.build();
    let cases = w.cases(&net, 3);
    assert_engines_agree(&net, &cases, &[2], 1e-7);
}

#[test]
fn parallel_engines_agree_with_seq_on_large_analogues() {
    // VE is too slow on the big nets; bitwise JT-vs-JT agreement is the
    // meaningful check here (VE agreement is covered on smaller nets).
    for name in ["pigs", "munin2"] {
        let w = analogues::by_name(name).unwrap();
        let net = w.build();
        let prepared = Arc::new(Prepared::new(&net, &Default::default()));
        let cases = w.cases(&net, 2);
        let seq = Solver::from_prepared(prepared.clone()).build();
        let mut seq_session = seq.session();
        for kind in EngineKind::parallel() {
            let solver = Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(2)
                .build();
            let mut session = solver.session();
            for ev in &cases {
                let a = seq_session.posteriors(ev).unwrap();
                let b = session.posteriors(ev).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0, "{name}/{kind}");
            }
        }
    }
}

/// `a` and `b` carry the same bits: every marginal and `P(e)`.
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

/// The pigs and munin2 analogues above have every table under the
/// run-program constant; `few-large-cliques` (14 cliques, the largest
/// 390 625 entries) is the one whose kernels walk their groups and whose
/// hybrid layers run as pool regions — separator tasks by slot ranges,
/// receiver tasks sending the next layer's separators ahead, extraction
/// as a region over the variables. Every parallel configuration at
/// t ∈ {2, 3}, and `Reference`, must equal `Seq` bit for bit through
/// `Session::run`, `run_batch` and a `LiveSession` edit stream. One case
/// in debug builds, six under `--release`.
#[test]
fn engines_match_seq_bitwise_on_few_large_cliques() {
    let (_, net) = analogues::adaptivity()
        .into_iter()
        .find(|(name, _)| *name == "few-large-cliques")
        .unwrap();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let cases = if cfg!(debug_assertions) { 1 } else { 6 };
    let queries: Vec<Query> = sampler::generate_cases(&net, cases, 0.2, 0xF1C)
        .into_iter()
        .map(|c| Query::new().evidence(c.evidence))
        .collect();
    let seq = Solver::from_prepared(prepared.clone()).build();
    let mut seq_session = seq.session();
    let expected: Vec<Posteriors> = queries
        .iter()
        .map(|q| seq_session.run(q).unwrap().into_posteriors().unwrap())
        .collect();

    let configurations = EngineKind::parallel()
        .into_iter()
        .flat_map(|kind| [(kind, 2), (kind, 3)])
        .chain([(EngineKind::Reference, 1)]);
    for (kind, threads) in configurations {
        let label = format!("{kind} t={threads}");
        let solver = Arc::new(
            Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(threads)
                .build(),
        );
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
        // Each case's findings arrive one at a time, then are retracted.
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
}

#[test]
fn preparation_is_deterministic() {
    let w = analogues::by_name("pathfinder").unwrap();
    let net1 = w.build();
    let net2 = w.build();
    let p1 = Prepared::new(&net1, &Default::default());
    let p2 = Prepared::new(&net2, &Default::default());
    assert_eq!(p1.num_cliques(), p2.num_cliques());
    for c in 0..p1.num_cliques() {
        assert_eq!(p1.initial_clique(c), p2.initial_clique(c));
    }
    assert_eq!(p1.assignment, p2.assignment);
}

#[test]
fn center_rooting_reduces_layers_on_benchmark_structures() {
    // The root-selection claim on the actual evaluation structures: the
    // center root must (roughly) halve the deepest-rooted layer count.
    for w in analogues::all() {
        let net = w.build();
        let built = fastbn::jtree::build_junction_tree(&net, &Default::default());
        let center = built.schedule.num_layers();
        let worst = LayerSchedule::new(&built.tree, &root_tree(&built.tree, RootStrategy::Worst))
            .num_layers();
        assert!(
            center <= worst / 2 + 1,
            "{}: center {center} vs worst {worst}",
            w.name
        );
    }
}

#[test]
fn query_throughput_smoke() {
    // Ensure a full 10-case batch on a large analogue completes and every
    // posterior is a distribution (guards against silent NaN creep).
    let w = analogues::by_name("munin2").unwrap();
    let net = w.build();
    let solver = Solver::builder(&net)
        .engine(EngineKind::Hybrid)
        .threads(2)
        .build();
    let mut session = solver.session();
    for ev in w.cases(&net, 10) {
        let post = session.posteriors(&ev).unwrap();
        assert!(post.prob_evidence.is_finite() && post.prob_evidence > 0.0);
        for v in 0..net.num_vars() {
            let m = post.marginal(fastbn::VarId::from_index(v));
            let sum: f64 = m.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "var {v} marginal sums to {sum}");
        }
    }
}

//! Underflow across junction-tree components is not impossibility.
//!
//! `P(e)` of a junction forest is the product of one factor per component.
//! 1 100 independent binary findings at ½ each give `P(e) = 2^-1100`,
//! which is positive but rounds to `0.0`. Every component is possible on
//! its own, and every marginal is normalised within its own component, so
//! every read must succeed on every path — scratch, batch, served and
//! live — and each unobserved marginal must carry the exact bits of the
//! same query with its evidence restricted to that node's own component.
//! The reported `P(e)` is the underflowed product, `0.0`.

use std::sync::Arc;
use std::time::Duration;

use fastbn::{
    BayesianNetwork, EngineKind, EvidenceDelta, NetworkBuilder, Posteriors, Query, QueryBatch,
    Server, Solver, VarId,
};

/// Independent observed binary nodes, each at ½.
const OBSERVED: usize = 1_100;

/// The forest: `OBSERVED` binary roots `O*` with prior ½, and three
/// unobserved children `U0..U2` hanging off `O0..O2`. Returns the network,
/// the unobserved nodes with their observed parents, and the full query.
fn forest() -> (BayesianNetwork, Vec<(VarId, VarId)>, Query) {
    let mut b = NetworkBuilder::new();
    let observed: Vec<VarId> = (0..OBSERVED)
        .map(|i| {
            let v = b.add_var(&format!("O{i:04}"), &["a", "b"]);
            b.set_cpt(v, vec![], vec![0.5, 0.5]).unwrap();
            v
        })
        .collect();
    let pairs: Vec<(VarId, VarId)> = (0..3)
        .map(|i| {
            let u = b.add_var(&format!("U{i}"), &["x", "y", "z"]);
            b.set_cpt(u, vec![observed[i]], vec![0.2, 0.3, 0.5, 0.6, 0.3, 0.1])
                .unwrap();
            (u, observed[i])
        })
        .collect();
    let query = observed
        .iter()
        .enumerate()
        .fold(Query::new(), |q, (i, &v)| q.observe(v, i % 2));
    (b.build().unwrap(), pairs, query)
}

/// Each unobserved node's marginal, from the same query restricted to its
/// own component: its parent's finding only.
fn restricted_marginals(solver: &Solver, query: &Query, pairs: &[(VarId, VarId)]) -> Vec<Vec<f64>> {
    let mut session = solver.session();
    pairs
        .iter()
        .map(|&(u, parent)| {
            let state = query.get_evidence().get(parent).unwrap();
            let p = session
                .run(&Query::new().observe(parent, state))
                .unwrap()
                .into_posteriors()
                .unwrap();
            assert!(p.prob_evidence > 0.0);
            p.marginal(u).to_vec()
        })
        .collect()
}

fn assert_marginals(path: &str, got: &Posteriors, pairs: &[(VarId, VarId)], expected: &[Vec<f64>]) {
    assert_eq!(
        got.prob_evidence, 0.0,
        "{path}: P(e) is the underflowed product"
    );
    for (&(u, _), want) in pairs.iter().zip(expected) {
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.marginal(u)), bits(want), "{path}: {u:?}");
    }
}

#[test]
fn underflowed_forest_reads_succeed_through_sessions_and_batches() {
    let (net, pairs, query) = forest();
    let unobserved: Vec<VarId> = pairs.iter().map(|&(u, _)| u).collect();
    for kind in [EngineKind::Seq, EngineKind::Hybrid] {
        let solver = Solver::builder(&net).engine(kind).threads(2).build();
        let expected = restricted_marginals(&solver, &query, &pairs);
        let mut session = solver.session();
        let full = session.run(&query).unwrap().into_posteriors().unwrap();
        assert_marginals(&format!("{kind} run"), &full, &pairs, &expected);
        let targeted = query.clone().targets(unobserved.iter().copied());
        let part = session.run(&targeted).unwrap().into_posteriors().unwrap();
        assert_marginals(&format!("{kind} targeted"), &part, &pairs, &expected);

        let batch: QueryBatch = vec![query.clone(), targeted].into();
        for (i, result) in session.run_batch(&batch).into_iter().enumerate() {
            let p = result.unwrap().into_posteriors().unwrap();
            assert_marginals(&format!("{kind} batch[{i}]"), &p, &pairs, &expected);
        }
    }
}

#[test]
fn underflowed_forest_reads_succeed_through_a_server() {
    let (net, pairs, query) = forest();
    let solver = Arc::new(Solver::new(&net));
    let expected = restricted_marginals(&solver, &query, &pairs);
    let server = Server::builder(Arc::clone(&solver))
        .workers(2)
        .max_delay(Duration::from_micros(100))
        .build();
    let pending: Vec<_> = (0..4)
        .map(|_| server.submit(query.clone()).expect("server accepting"))
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let result = p.wait().unwrap();
        let posteriors = result.posteriors().unwrap();
        assert_marginals(&format!("served[{i}]"), posteriors, &pairs, &expected);
    }
    server.shutdown();
}

#[test]
fn underflowed_forest_reads_succeed_through_a_live_session() {
    let (net, pairs, query) = forest();
    let solver = Arc::new(Solver::new(&net));
    let expected = restricted_marginals(&solver, &query, &pairs);
    let mut live = solver.live_session();
    live.apply_all(
        query
            .get_evidence()
            .iter()
            .map(|(var, state)| EvidenceDelta::observe(var, state)),
    )
    .unwrap();
    assert_eq!(live.prob_evidence(), 0.0);
    assert_marginals("live full", &live.posteriors().unwrap(), &pairs, &expected);
    let unobserved: Vec<VarId> = pairs.iter().map(|&(u, _)| u).collect();
    let part = live.posteriors_for(&unobserved).unwrap();
    assert_marginals("live targeted", &part, &pairs, &expected);
    for (&(u, _), want) in pairs.iter().zip(&expected) {
        let mut buf = [0.0; 3];
        live.marginal_into(u, &mut buf).unwrap();
        for (x, y) in buf.iter().zip(want) {
            assert_eq!(x.to_bits(), y.to_bits(), "live marginal_into {u:?}");
        }
    }
}

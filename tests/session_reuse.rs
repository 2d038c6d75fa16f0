//! A session whose query fails — impossible evidence, bogus evidence, a
//! malformed likelihood, a failing MPE — must be as good as new for its
//! next query: no stale scratch may leak from the error into later
//! results, for any engine family. Nor may a lazily reset state, whose
//! stale clique regions are rebuilt from the initial slab at their first
//! write, let the previous query's values through.

use std::sync::Arc;

use fastbn::bayesnet::{datasets, sampler};
use fastbn::{
    BayesianNetwork, EngineKind, Evidence, InferenceError, LikelihoodDefect, Prepared, Query,
    QueryBatch, QueryResult, Session, Solver, VarId,
};

mod common;

/// Asia evidence with `P(e) = 0`: tuberculosis present but the or-gate
/// `TbOrCa` reporting false.
fn impossible(net: &fastbn::BayesianNetwork) -> Evidence {
    let tub = net.var_id("Tuberculosis").unwrap();
    let either = net.var_id("TbOrCa").unwrap();
    Evidence::from_pairs([(tub, 0), (either, 1)])
}

#[test]
fn error_then_success_on_one_session_for_every_engine() {
    let net = datasets::asia();
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    let dysp = net.var_id("Dyspnea").unwrap();
    let bad_ev = impossible(&net);
    let good_ev = Evidence::from_pairs([(dysp, 0)]);

    for kind in EngineKind::all() {
        let solver = Solver::from_prepared(prepared.clone())
            .engine(kind)
            .threads(2)
            .build();
        // Ground truth from fresh sessions that have never errored.
        let expected_good = solver.posteriors(&good_ev).unwrap();
        let expected_empty = solver.posteriors(&Evidence::empty()).unwrap();
        let expected_mpe = solver.session().mpe(&good_ev).unwrap();

        let mut session = solver.session();
        for round in 0..3 {
            // Impossible evidence: detected at extraction, after the
            // scratch has been fully propagated into a dead end.
            assert_eq!(
                session.posteriors(&bad_ev).unwrap_err(),
                InferenceError::ImpossibleEvidence,
                "{kind} round {round}"
            );
            let got = session.posteriors(&good_ev).unwrap();
            assert_eq!(
                expected_good.max_abs_diff(&got),
                0.0,
                "{kind} round {round}: stale scratch after ImpossibleEvidence"
            );

            // Validation errors: rejected before touching scratch.
            assert!(session
                .posteriors(&Evidence::from_pairs([(VarId(999), 0)]))
                .is_err());
            assert_eq!(
                session
                    .run(&Query::new().likelihood(dysp, vec![0.0, 0.0]))
                    .unwrap_err(),
                InferenceError::MalformedLikelihood {
                    var: dysp.index(),
                    defect: LikelihoodDefect::AllZero,
                }
            );
            let got = session.posteriors(&Evidence::empty()).unwrap();
            assert_eq!(
                expected_empty.max_abs_diff(&got),
                0.0,
                "{kind} round {round}: stale scratch after validation error"
            );

            // A failing max-product pass, then a succeeding one.
            assert_eq!(
                session.mpe(&bad_ev).unwrap_err(),
                InferenceError::ImpossibleEvidence
            );
            assert_eq!(session.mpe(&good_ev).unwrap(), expected_mpe, "{kind}");

            // And a failing MPE must not corrupt a following marginal
            // query either (the passes share clique scratch).
            assert_eq!(
                session.mpe(&bad_ev).unwrap_err(),
                InferenceError::ImpossibleEvidence
            );
            let got = session.posteriors(&good_ev).unwrap();
            assert_eq!(expected_good.max_abs_diff(&got), 0.0, "{kind}");
        }
    }
}

#[test]
fn errored_scratch_recycled_through_the_pool_is_clean() {
    // The scratch of a dropped, errored session goes back to the solver's
    // pool; the next session draws it and must see no residue.
    let net = datasets::asia();
    let solver = Solver::builder(&net)
        .engine(EngineKind::Hybrid)
        .threads(2)
        .build();
    let bad_ev = impossible(&net);
    let expected = solver.posteriors(&Evidence::empty()).unwrap();
    {
        let mut session = solver.session();
        assert!(session.posteriors(&bad_ev).is_err());
    } // dirty scratch parked here
    assert_eq!(solver.pooled_states(), 1);
    let mut session = solver.session();
    assert_eq!(solver.pooled_states(), 0, "the dirty state was reused");
    let got = session.posteriors(&Evidence::empty()).unwrap();
    assert_eq!(expected.max_abs_diff(&got), 0.0);
}

#[test]
fn error_then_success_with_virtual_evidence_and_targets() {
    // Mixed query kinds around the failure, exercising the targeted and
    // virtual-evidence extraction paths on reused scratch.
    let net = datasets::asia();
    let solver = Solver::new(&net);
    let dysp = net.var_id("Dyspnea").unwrap();
    let lung = net.var_id("LungCancer").unwrap();
    let targeted = Query::new().observe(dysp, 0).targets([lung]);
    let virt = Query::new().likelihood(dysp, vec![0.7, 0.3]);
    let expected_targeted = solver.query(&targeted).unwrap();
    let expected_virt = solver.query(&virt).unwrap();

    let mut session = solver.session();
    assert!(session.posteriors(&impossible(&net)).is_err());
    assert_eq!(session.run(&targeted).unwrap(), expected_targeted);
    assert!(session.mpe(&impossible(&net)).is_err());
    assert_eq!(session.run(&virt).unwrap(), expected_virt);
}

/// One call of the reuse script.
enum Step {
    Run(Query),
    Joint(Evidence, Vec<VarId>),
    Batch(QueryBatch),
}

/// Every bit of one answer, so that `==` is bitwise.
fn result_bits(result: &Result<QueryResult, InferenceError>) -> Vec<u64> {
    match result.as_ref().expect("every scripted query is possible") {
        QueryResult::Marginals(p) => {
            std::iter::once(p.prob_evidence.to_bits())
                .chain(p.marginals().iter().flat_map(|m| {
                    std::iter::once(m.len() as u64).chain(m.iter().map(|x| x.to_bits()))
                }))
                .collect()
        }
        QueryResult::Mpe(m) => (m.assignment.iter().map(|&s| s as u64))
            .chain([m.probability.to_bits()])
            .collect(),
    }
}

fn step_bits(session: &mut Session<'_>, step: &Step) -> Vec<u64> {
    match step {
        Step::Run(query) => result_bits(&session.run(query)),
        Step::Joint(evidence, vars) => {
            let joint = session.joint_posterior(evidence, vars).unwrap();
            let table = joint.expect("the variables share a clique");
            table.values().iter().map(|x| x.to_bits()).collect()
        }
        Step::Batch(batch) => session
            .run_batch(batch)
            .iter()
            .flat_map(result_bits)
            .collect(),
    }
}

/// The reuse script on `net`: a finding homed in the largest clique, an
/// empty query, a likelihood, a targeted query, an MPE, a joint
/// posterior inside the largest clique, and a batch — every kind of
/// first write a clique can get (a finding, a ratio, a likelihood, a max
/// message), each after a query that left different values behind.
fn reuse_script(net: &BayesianNetwork, prepared: &Prepared) -> Vec<Step> {
    let size = |c: usize| prepared.clique_domains[c].size();
    let num_vars = net.num_vars();
    let big = (0..num_vars)
        .max_by_key(|&v| size(prepared.home[v]))
        .map(VarId::from_index)
        .unwrap();
    let other = VarId::from_index(if big.index() == 0 { 1 } else { 0 });
    let last = VarId::from_index(num_vars - 1);
    // Every finding comes from one sampled assignment, so each is possible.
    let full = &sampler::generate_cases(net, 1, 1.0, 0x5E55)[0].full_assignment;
    let seen = |v: VarId| (v, full[v.index()]);
    let card = net.cardinality(other);
    let likelihood = (0..card).map(|s| 0.25 + s as f64 / card as f64).collect();
    let targeted = Query::new()
        .observe(other, full[other.index()])
        .observe(last, full[last.index()])
        .targets([big, other]);
    let largest = (0..prepared.num_cliques())
        .max_by_key(|&c| size(c))
        .unwrap();
    let joint_vars = prepared.built.tree.cliques[largest].vars[..2].to_vec();
    let mut batch: QueryBatch = sampler::generate_cases(net, 3, 0.2, 0xBA7)
        .into_iter()
        .map(|case| Query::new().evidence(case.evidence))
        .collect();
    batch.push(targeted.clone());
    vec![
        Step::Run(Query::new().observe(big, full[big.index()])),
        Step::Run(Query::new()),
        Step::Run(Query::new().likelihood(other, likelihood)),
        Step::Run(targeted),
        Step::Run(Query::new().observe(big, full[big.index()]).mpe()),
        Step::Joint(Evidence::from_pairs([seen(last)]), joint_vars),
        Step::Batch(batch),
    ]
}

/// One session per engine kind × pool width, in reset mode `lazy`
/// (forced whatever the slab's size), runs the reuse script on every
/// network straddling the hybrid driver's constants; each answer must
/// equal, bit for bit, the answer of a fresh `Seq` session on a fresh
/// solver that copies the whole slab.
fn reused_sessions_match_fresh_ones(lazy: bool) {
    for (net, _) in common::straddling_networks() {
        let base = Prepared::new(&net, &Default::default());
        let script = reuse_script(&net, &base);
        let eager = Arc::new(base.clone().with_lazy_reset(false));
        let expected: Vec<Vec<u64>> = script
            .iter()
            .map(|step| {
                let fresh = |query: &Query| {
                    let solver = Solver::from_prepared(eager.clone()).build();
                    let answer = result_bits(&solver.session().run(query));
                    answer
                };
                match step {
                    Step::Batch(batch) => batch.iter().flat_map(fresh).collect(),
                    Step::Run(query) => fresh(query),
                    joint => {
                        let solver = Solver::from_prepared(eager.clone()).build();
                        let answer = step_bits(&mut solver.session(), joint);
                        answer
                    }
                }
            })
            .collect();

        let prepared = Arc::new(base.with_lazy_reset(lazy));
        for kind in EngineKind::all() {
            for threads in [1, 2] {
                let solver = Solver::from_prepared(prepared.clone())
                    .engine(kind)
                    .threads(threads)
                    .build();
                let mut session = solver.session();
                for (i, (step, want)) in script.iter().zip(&expected).enumerate() {
                    let got = step_bits(&mut session, step);
                    assert!(
                        got == *want,
                        "{} {kind} t={threads} lazy={lazy}: step {i} differs from a fresh session",
                        net.name()
                    );
                }
            }
        }
    }
}

#[test]
fn reused_sessions_match_fresh_ones_with_lazy_reset() {
    reused_sessions_match_fresh_ones(true);
}

#[test]
fn reused_sessions_match_fresh_ones_with_eager_reset() {
    reused_sessions_match_fresh_ones(false);
}

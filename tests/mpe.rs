//! Integration tests of the MPE extension: max-product results are
//! consistent with posterior inference and stable across networks, both
//! through the standalone function and the MPE-mode Query.

use fastbn::bayesnet::analogues;
use fastbn::bayesnet::{datasets, sampler};
use fastbn::inference::mpe::most_probable_explanation;
use fastbn::{Evidence, Query, Solver, VarId};

#[test]
fn mpe_probability_never_exceeds_evidence_probability() {
    // P(x*, e) ≤ P(e) with equality iff the conditional is degenerate.
    let net = datasets::asia();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    for case in sampler::generate_cases(&net, 10, 0.25, 77) {
        let posterior = session.posteriors(&case.evidence).unwrap();
        let mpe = session.mpe(&case.evidence).unwrap();
        assert!(
            mpe.probability <= posterior.prob_evidence + 1e-12,
            "P(x*, e) = {} > P(e) = {}",
            mpe.probability,
            posterior.prob_evidence
        );
        assert!(mpe.probability > 0.0);
    }
}

#[test]
fn mpe_states_have_positive_posterior() {
    // Every MPE state must be possible under the posterior marginals.
    let net = datasets::student();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    for case in sampler::generate_cases(&net, 10, 0.3, 13) {
        let posterior = session.posteriors(&case.evidence).unwrap();
        let mpe = session
            .run(&Query::new().evidence(case.evidence.clone()).mpe())
            .unwrap()
            .into_mpe()
            .unwrap();
        for v in 0..net.num_vars() {
            let state = mpe.assignment[v];
            assert!(
                posterior.marginal(VarId::from_index(v))[state] > 0.0,
                "var {v} state {state} has zero posterior"
            );
        }
    }
}

#[test]
fn query_mpe_matches_standalone_function() {
    // The Query::mpe() path and the standalone helper must agree exactly
    // (same scratch-backed max-product underneath).
    let net = datasets::asia();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    for case in sampler::generate_cases(&net, 8, 0.3, 41) {
        let via_query = session.mpe(&case.evidence).unwrap();
        let standalone = most_probable_explanation(solver.prepared(), &case.evidence).unwrap();
        assert_eq!(via_query, standalone);
    }
}

#[test]
fn mpe_on_paper_scale_network() {
    // Smoke test on the Pigs analogue: runs, satisfies evidence, yields a
    // positive probability matching a direct chain-rule evaluation.
    let w = analogues::by_name("pigs").unwrap();
    let net = w.build();
    let solver = Solver::new(&net);
    let case = &sampler::generate_cases(&net, 1, 0.2, 5)[0];
    let mpe = solver
        .query(&Query::new().evidence(case.evidence.clone()).mpe())
        .unwrap()
        .into_mpe()
        .unwrap();
    for (var, state) in case.evidence.iter() {
        assert_eq!(mpe.assignment[var.index()], state);
    }
    let mut direct = 1.0f64;
    for v in 0..net.num_vars() {
        let id = VarId::from_index(v);
        let cpt = net.cpt(id);
        let parents: Vec<usize> = cpt
            .parents()
            .iter()
            .map(|p| mpe.assignment[p.index()])
            .collect();
        direct *= cpt.probability(mpe.assignment[v], &parents);
    }
    let rel = (mpe.probability - direct).abs() / direct.max(f64::MIN_POSITIVE);
    assert!(
        rel < 1e-6,
        "reported {} vs chain rule {}",
        mpe.probability,
        direct
    );
}

#[test]
fn unconditional_mpe_beats_forward_samples() {
    // The unconditional MPE is at least as probable as any sampled
    // assignment.
    let net = datasets::cancer();
    let solver = Solver::new(&net);
    let mpe = solver.session().mpe(&Evidence::empty()).unwrap();
    let joint = |assignment: &[usize]| -> f64 {
        (0..net.num_vars())
            .map(|v| {
                let cpt = net.cpt(VarId::from_index(v));
                let parents: Vec<usize> = cpt
                    .parents()
                    .iter()
                    .map(|p| assignment[p.index()])
                    .collect();
                cpt.probability(assignment[v], &parents)
            })
            .product()
    };
    for case in sampler::generate_cases(&net, 50, 0.0, 3) {
        assert!(joint(&case.full_assignment) <= mpe.probability + 1e-12);
    }
}

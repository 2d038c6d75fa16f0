//! Integration tests of virtual (soft) evidence and evidence validation
//! working together with the inference pipeline.

use fastbn::bayesnet::datasets;
use fastbn::{Evidence, Query, Solver, VarId};

#[test]
fn virtual_evidence_interpolates_between_prior_and_hard() {
    // Increasingly confident likelihoods must move the posterior
    // monotonically from the prior toward the hard-evidence posterior.
    let net = datasets::asia();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    let xray = net.var_id("XRay").unwrap();
    let lung = net.var_id("LungCancer").unwrap();

    let prior = session
        .posteriors(&Evidence::empty())
        .unwrap()
        .marginal(lung)[0];
    let hard = session
        .posteriors(&Evidence::from_pairs([(xray, 0)]))
        .unwrap()
        .marginal(lung)[0];
    let mut last = prior;
    for confidence in [0.55, 0.7, 0.85, 0.99] {
        let post = session
            .run(&Query::new().likelihood(xray, vec![confidence, 1.0 - confidence]))
            .unwrap()
            .into_posteriors()
            .unwrap()
            .marginal(lung)[0];
        assert!(
            post >= last - 1e-12,
            "posterior must rise with confidence: {post} < {last}"
        );
        assert!(post <= hard + 1e-12);
        last = post;
    }
}

#[test]
fn virtual_evidence_combines_with_hard_evidence() {
    let net = datasets::asia();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    let dysp = net.var_id("Dyspnea").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let bronc = net.var_id("Bronchitis").unwrap();

    let hard_only = session
        .posteriors(&Evidence::from_pairs([(dysp, 0)]))
        .unwrap();
    let with_soft = session
        .run(
            &Query::new()
                .observe(dysp, 0)
                .likelihood(xray, vec![0.9, 0.1]),
        )
        .unwrap()
        .into_posteriors()
        .unwrap();
    // The soft x-ray shifts mass toward TbOrCa explanations, away from
    // bronchitis-only explanations.
    assert!(with_soft.marginal(bronc)[0] < hard_only.marginal(bronc)[0] + 1e-12);
    // P(e) shrinks when more (soft) findings are added.
    assert!(with_soft.prob_evidence <= hard_only.prob_evidence + 1e-12);
    // Hard evidence still reported as a point mass.
    assert_eq!(with_soft.marginal(dysp), &[1.0, 0.0]);
}

#[test]
fn malformed_virtual_evidence_is_a_typed_error() {
    use fastbn::bayesnet::evidence::EvidenceError;
    use fastbn::{InferenceError, VirtualEvidence};
    let net = datasets::cancer();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    // Likelihood on an unknown variable.
    let err = session
        .run(
            &Query::new()
                .virtual_evidence(VirtualEvidence::empty().with(VarId(99), vec![0.5, 0.5])),
        )
        .unwrap_err();
    assert_eq!(
        err,
        InferenceError::InvalidEvidence(EvidenceError::UnknownVariable(VarId(99)))
    );
    // Wrong-length likelihood for a binary variable.
    let cancer = net.var_id("Cancer").unwrap();
    let err = session
        .run(&Query::new().likelihood(cancer, vec![0.5, 0.3, 0.2]))
        .unwrap_err();
    assert_eq!(
        err,
        InferenceError::InvalidLikelihood {
            var: cancer.index(),
            expected: 2,
            got: 3
        }
    );
    // Session still healthy.
    assert!(session.posteriors(&Evidence::empty()).is_ok());
}

#[test]
fn joint_posterior_rejects_invalid_evidence_before_clique_lookup() {
    use fastbn::bayesnet::evidence::EvidenceError;
    use fastbn::InferenceError;
    let net = datasets::asia();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    // VisitAsia and Smoker never share a clique, so without up-front
    // validation this would be masked as Ok(None).
    let a = net.var_id("VisitAsia").unwrap();
    let s = net.var_id("Smoker").unwrap();
    let err = session
        .joint_posterior(&Evidence::from_pairs([(VarId(99), 0)]), &[a, s])
        .unwrap_err();
    assert_eq!(
        err,
        InferenceError::InvalidEvidence(EvidenceError::UnknownVariable(VarId(99)))
    );
}

#[test]
fn joint_posterior_rejects_unknown_variables_as_invalid_targets() {
    use fastbn::InferenceError;
    let net = datasets::asia();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    let a = net.var_id("VisitAsia").unwrap();
    // No clique holds VarId(99), but that is not why there is no joint:
    // the variable is not in the network, as `Query::targets` reports.
    let expected = InferenceError::InvalidTarget {
        var: 99,
        num_vars: net.num_vars(),
    };
    let err = session
        .joint_posterior(&Evidence::empty(), &[a, VarId(99)])
        .unwrap_err();
    assert_eq!(err, expected);
    let via_targets = session.run(&Query::new().targets([VarId(99)])).unwrap_err();
    assert_eq!(via_targets, expected);
}

//! Query validation (the typed-error gate every query passes before it
//! may touch scratch) and cross-engine agreement checks shared by the
//! integration tests and the benchmark harness's self-check mode.

use std::sync::Arc;

use fastbn_bayesnet::{BayesianNetwork, Evidence};
use fastbn_jtree::JtreeOptions;

use crate::engines::EngineKind;
use crate::error::{InferenceError, LikelihoodDefect};
use crate::oracle::variable_elimination;
use crate::prepared::Prepared;
use crate::solver::Solver;
use crate::virtual_evidence::VirtualEvidence;

/// Rejects evidence naming unknown variables or out-of-range states
/// with a typed error, before it can corrupt scratch or panic on an
/// index (the network is not available here, so the check runs against
/// the compiled cardinalities).
pub(crate) fn validate_evidence(
    prepared: &Prepared,
    evidence: &Evidence,
) -> Result<(), InferenceError> {
    for (var, state) in evidence.iter() {
        validate_finding(prepared, var, state)?;
    }
    Ok(())
}

/// The single-finding core of [`validate_evidence`], shared with the
/// incremental edit path (a delta edit carries one finding, validated
/// before any slab region is touched).
pub(crate) fn validate_finding(
    prepared: &Prepared,
    var: fastbn_bayesnet::VarId,
    state: usize,
) -> Result<(), InferenceError> {
    if var.index() >= prepared.num_vars() {
        return Err(InferenceError::InvalidEvidence(
            fastbn_bayesnet::evidence::EvidenceError::UnknownVariable(var),
        ));
    }
    let cardinality = prepared.cards[var.index()];
    if state >= cardinality {
        return Err(InferenceError::InvalidEvidence(
            fastbn_bayesnet::evidence::EvidenceError::StateOutOfRange {
                var,
                state,
                cardinality,
            },
        ));
    }
    Ok(())
}

/// Rejects virtual findings that would corrupt a query if multiplied in:
/// unknown variables, likelihood vectors whose length disagrees with the
/// variable's cardinality (which would silently mis-multiply in release
/// builds), and malformed entries — negative values, NaN/infinities, or
/// all-zero vectors, each of which would surface later as NaN or
/// all-zero posteriors instead of a typed error.
pub(crate) fn validate_virtual(
    prepared: &Prepared,
    virtual_evidence: &VirtualEvidence,
) -> Result<(), InferenceError> {
    for (var, likelihood) in virtual_evidence.iter() {
        validate_likelihood(prepared, var, likelihood)?;
    }
    Ok(())
}

/// The single-finding core of [`validate_virtual`], shared with the
/// incremental edit path.
pub(crate) fn validate_likelihood(
    prepared: &Prepared,
    var: fastbn_bayesnet::VarId,
    likelihood: &[f64],
) -> Result<(), InferenceError> {
    if var.index() >= prepared.num_vars() {
        return Err(InferenceError::InvalidEvidence(
            fastbn_bayesnet::evidence::EvidenceError::UnknownVariable(var),
        ));
    }
    let expected = prepared.cards[var.index()];
    if likelihood.len() != expected {
        return Err(InferenceError::InvalidLikelihood {
            var: var.index(),
            expected,
            got: likelihood.len(),
        });
    }
    let mut any_positive = false;
    for &p in likelihood {
        if !p.is_finite() {
            return Err(InferenceError::MalformedLikelihood {
                var: var.index(),
                defect: LikelihoodDefect::NonFinite,
            });
        }
        if p < 0.0 {
            return Err(InferenceError::MalformedLikelihood {
                var: var.index(),
                defect: LikelihoodDefect::Negative,
            });
        }
        any_positive |= p > 0.0;
    }
    if !any_positive {
        return Err(InferenceError::MalformedLikelihood {
            var: var.index(),
            defect: LikelihoodDefect::AllZero,
        });
    }
    Ok(())
}

/// Runs every engine (at each thread count) and the VE oracle on each
/// evidence case, asserting:
///
/// * all junction-tree engines agree **bitwise** with `Seq`;
/// * `Seq` agrees with variable elimination within `tol`.
///
/// All solvers share one `Prepared`; each engine/thread combination gets
/// its own [`Solver`] and queries through a session, exactly as a caller
/// of the public API would.
///
/// Returns the worst JT-vs-VE deviation observed.
pub fn assert_engines_agree(
    net: &BayesianNetwork,
    cases: &[Evidence],
    thread_counts: &[usize],
    tol: f64,
) -> f64 {
    let prepared = Arc::new(Prepared::new(net, &JtreeOptions::default()));
    let seq = Solver::from_prepared(prepared.clone()).build();
    let mut seq_session = seq.session();
    let mut worst = 0.0f64;

    // One solver per (kind, threads), reused across cases.
    let others: Vec<Solver> = [
        EngineKind::Reference,
        EngineKind::Direct,
        EngineKind::Primitive,
        EngineKind::Element,
        EngineKind::Hybrid,
    ]
    .into_iter()
    .flat_map(|kind| {
        let prepared = &prepared;
        thread_counts.iter().map(move |&t| {
            Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(t)
                .build()
        })
    })
    .collect();
    let mut sessions: Vec<_> = others.iter().map(Solver::session).collect();

    for (i, evidence) in cases.iter().enumerate() {
        let expected = seq_session.posteriors(evidence);
        let oracle = variable_elimination::all_posteriors(net, evidence);
        match (&expected, &oracle) {
            (Ok(a), Ok(b)) => {
                let d = a.max_abs_diff(b);
                assert!(
                    d <= tol,
                    "case {i}: Seq deviates from VE by {d} (tol {tol})"
                );
                let rel = (a.prob_evidence - b.prob_evidence).abs()
                    / b.prob_evidence.max(f64::MIN_POSITIVE);
                assert!(rel <= tol.max(1e-9), "case {i}: P(e) relative error {rel}");
                worst = worst.max(d);
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "case {i}: error mismatch"),
            (a, b) => panic!("case {i}: Seq {a:?} but VE {b:?}"),
        }

        for session in &mut sessions {
            let label = format!(
                "{} (t={})",
                session.solver().engine_name(),
                session.solver().threads()
            );
            let got = session.posteriors(evidence);
            match (&expected, &got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.max_abs_diff(b), 0.0, "case {i}: {label} differs from Seq");
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, eb, "case {i}: {label} error mismatch")
                }
                (a, b) => panic!("case {i}: Seq {a:?} but {label} {b:?}"),
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use fastbn_bayesnet::{datasets, sampler, VarId};

    /// Each malformed-likelihood shape must surface as its typed error —
    /// never a panic, never NaN posteriors — from both the dedicated
    /// validator and a full query run.
    #[test]
    fn malformed_likelihoods_yield_typed_errors() {
        let net = datasets::sprinkler();
        let solver = Solver::new(&net);
        let rain = net.var_id("Rain").unwrap();
        let cases: Vec<(Vec<f64>, InferenceError)> = vec![
            (
                vec![0.0, 0.0],
                InferenceError::MalformedLikelihood {
                    var: rain.index(),
                    defect: LikelihoodDefect::AllZero,
                },
            ),
            (
                vec![0.5, -0.1],
                InferenceError::MalformedLikelihood {
                    var: rain.index(),
                    defect: LikelihoodDefect::Negative,
                },
            ),
            (
                vec![f64::NAN, 1.0],
                InferenceError::MalformedLikelihood {
                    var: rain.index(),
                    defect: LikelihoodDefect::NonFinite,
                },
            ),
            (
                vec![0.2, f64::INFINITY],
                InferenceError::MalformedLikelihood {
                    var: rain.index(),
                    defect: LikelihoodDefect::NonFinite,
                },
            ),
            (
                vec![0.3, 0.3, 0.4],
                InferenceError::InvalidLikelihood {
                    var: rain.index(),
                    expected: 2,
                    got: 3,
                },
            ),
            (
                vec![],
                InferenceError::InvalidLikelihood {
                    var: rain.index(),
                    expected: 2,
                    got: 0,
                },
            ),
        ];
        for (likelihood, expected_err) in cases {
            let virt = VirtualEvidence::empty().with(rain, likelihood.clone());
            assert_eq!(
                validate_virtual(solver.prepared(), &virt).unwrap_err(),
                expected_err,
                "validator on {likelihood:?}"
            );
            let got = solver.query(&Query::new().likelihood(rain, likelihood.clone()));
            assert_eq!(got.unwrap_err(), expected_err, "query on {likelihood:?}");
        }
    }

    #[test]
    fn negative_entry_reported_before_all_zero_check() {
        // A vector that is both negative-bearing and positive-free reports
        // the entry defect, which points at the actual bad datum.
        let net = datasets::sprinkler();
        let solver = Solver::new(&net);
        let rain = net.var_id("Rain").unwrap();
        let err = solver
            .query(&Query::new().likelihood(rain, vec![-1.0, 0.0]))
            .unwrap_err();
        assert_eq!(
            err,
            InferenceError::MalformedLikelihood {
                var: rain.index(),
                defect: LikelihoodDefect::Negative,
            }
        );
    }

    #[test]
    fn virtual_finding_on_unknown_variable_is_rejected() {
        let net = datasets::sprinkler();
        let solver = Solver::new(&net);
        let err = solver
            .query(&Query::new().likelihood(VarId(99), vec![1.0, 1.0]))
            .unwrap_err();
        assert!(matches!(err, InferenceError::InvalidEvidence(_)));
    }

    #[test]
    fn well_formed_likelihood_passes_validation() {
        let net = datasets::sprinkler();
        let solver = Solver::new(&net);
        let rain = net.var_id("Rain").unwrap();
        let virt = VirtualEvidence::empty().with(rain, vec![0.0, 0.4]);
        assert_eq!(validate_virtual(solver.prepared(), &virt), Ok(()));
        assert!(solver
            .query(&Query::new().likelihood(rain, vec![0.0, 0.4]))
            .is_ok());
    }

    #[test]
    fn full_agreement_on_asia() {
        let net = datasets::asia();
        let cases: Vec<Evidence> = sampler::generate_cases(&net, 6, 0.25, 3)
            .into_iter()
            .map(|c| c.evidence)
            .collect();
        let worst = assert_engines_agree(&net, &cases, &[1, 3], 1e-9);
        assert!(worst <= 1e-9);
    }
}

//! `SeqJt` — Fast-BNI-seq: the optimized sequential engine.
//!
//! All three bottleneck operations run as single plan-driven linear scans
//! (no per-entry decoding, no per-message allocation — the plans are
//! precompiled in [`Prepared`]); this is the sequential baseline that
//! beats UnBBayes by the Table-1 "seq speedup" column.
//!
//! On top of the plans, this engine **defers ratio extension**: instead of
//! eagerly multiplying each incoming ratio into the receiver, it records
//! the separator in the state's per-clique pending slot, and fuses the
//! multiplication into the receiver's *next outgoing marginalization* via
//! [`multiply_marginalize`](fastbn_potential::multiply_marginalize) — one
//! pass over the clique instead of two. The whole of that is one
//! per-message routine, `WorkState::send_deferred`, which `HybridJt` also
//! runs for every layer it executes inline; this engine is the loop
//! around it.
//! Bit-identity is preserved: if a second message arrives before the
//! clique sends, the older ratio is flushed first (so ratios multiply in
//! the same ascending message order the eager path uses), the fused pass
//! forms the same per-element products and the same ascending-source
//! sums, and every remaining pending ratio is flushed before `propagate`
//! returns. A ratio region is never overwritten between deferral and
//! fusion — each separator carries exactly one message per phase, and in
//! the one same-separator corner (a root whose last collect edge is also
//! its first distribute edge) the fused read consumes `ratio` before
//! `sep_update` rewrites it.
//!
//! fastbn: deny-hot-alloc

use std::sync::Arc;

use crate::engines::InferenceEngine;
use crate::prepared::Prepared;
use crate::state::WorkState;

/// The optimized sequential junction-tree engine (Fast-BNI-seq).
///
/// Stateless: holds only the shared [`Prepared`]; per-query scratch is
/// passed in by the caller (normally a
/// [`Session`](crate::solver::Session)).
pub struct SeqJt {
    prepared: Arc<Prepared>,
}

impl SeqJt {
    /// Creates an engine over prepared structures.
    pub fn new(prepared: Arc<Prepared>) -> Self {
        SeqJt { prepared }
    }
}

impl InferenceEngine for SeqJt {
    fn name(&self) -> &'static str {
        "Fast-BNI-seq"
    }

    fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }

    fn propagate(&self, state: &mut WorkState) {
        let prepared = &*self.prepared;
        let schedule = &prepared.built.schedule;
        crate::trace::collect(|| {
            for layer in &schedule.collect_layers {
                for &id in layer {
                    let m = schedule.messages[id];
                    state.send_deferred(prepared, m.child, m.parent, m.sep);
                }
            }
        });
        crate::trace::distribute(|| {
            for layer in &schedule.distribute_layers {
                for &id in layer {
                    let m = schedule.messages[id];
                    state.send_deferred(prepared, m.parent, m.child, m.sep);
                }
            }
            state.flush_all_pending(prepared);
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::error::InferenceError;
    use crate::solver::Solver;
    use fastbn_bayesnet::{datasets, Evidence, VarId};

    fn solver_for(net: &fastbn_bayesnet::BayesianNetwork) -> Solver {
        Solver::new(net) // defaults to SeqJt
    }

    #[test]
    fn asia_prior_marginals_match_published_values() {
        let net = datasets::asia();
        let solver = solver_for(&net);
        let post = solver.posteriors(&Evidence::empty()).unwrap();
        let get = |name: &str| post.marginal(net.var_id(name).unwrap())[0];
        assert!((get("Tuberculosis") - 0.0104).abs() < 1e-6);
        assert!((get("LungCancer") - 0.055).abs() < 1e-6);
        assert!((get("Bronchitis") - 0.45).abs() < 1e-6);
        assert!((get("TbOrCa") - 0.064828).abs() < 1e-6);
        assert!((get("XRay") - 0.11029).abs() < 1e-5);
        assert!((get("Dyspnea") - 0.4359706).abs() < 1e-6);
        assert!((post.prob_evidence - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sprinkler_posterior_given_wet_grass() {
        // Classic Russell & Norvig result:
        // P(Rain | Wet) = 0.4581/0.6471 ≈ 0.70793, P(Sprinkler | Wet) ≈ 0.42976.
        let net = datasets::sprinkler();
        let solver = solver_for(&net);
        let wet = net.var_id("WetGrass").unwrap();
        let post = solver
            .posteriors(&Evidence::from_pairs([(wet, 0)]))
            .unwrap();
        let rain = post.marginal(net.var_id("Rain").unwrap())[0];
        let spr = post.marginal(net.var_id("Sprinkler").unwrap())[0];
        assert!((rain - 0.70793).abs() < 1e-4, "rain {rain}");
        assert!((spr - 0.42976).abs() < 1e-4, "sprinkler {spr}");
        assert!(
            (post.prob_evidence - 0.6471).abs() < 1e-9,
            "P(Wet) = 0.6471"
        );
    }

    #[test]
    fn evidence_marginal_is_point_mass() {
        let net = datasets::cancer();
        let solver = solver_for(&net);
        let smoker = net.var_id("Smoker").unwrap();
        let post = solver
            .posteriors(&Evidence::from_pairs([(smoker, 1)]))
            .unwrap();
        assert_eq!(post.marginal(smoker), &[0.0, 1.0]);
    }

    #[test]
    fn explaining_away_in_cancer_network() {
        let net = datasets::cancer();
        let solver = solver_for(&net);
        let mut session = solver.session();
        let cancer = net.var_id("Cancer").unwrap();
        let xray = net.var_id("XRay").unwrap();
        let prior = session
            .posteriors(&Evidence::empty())
            .unwrap()
            .marginal(cancer)[0];
        let with_xray = session
            .posteriors(&Evidence::from_pairs([(xray, 0)]))
            .unwrap()
            .marginal(cancer)[0];
        assert!(
            with_xray > prior * 3.0,
            "positive x-ray must sharply raise P(cancer): {prior} -> {with_xray}"
        );
    }

    #[test]
    fn repeated_queries_are_independent() {
        // Session state must fully reset between queries.
        let net = datasets::asia();
        let solver = solver_for(&net);
        let mut session = solver.session();
        let dysp = net.var_id("Dyspnea").unwrap();
        let baseline = session.posteriors(&Evidence::empty()).unwrap();
        let _ = session
            .posteriors(&Evidence::from_pairs([(dysp, 0)]))
            .unwrap();
        let again = session.posteriors(&Evidence::empty()).unwrap();
        assert_eq!(baseline.max_abs_diff(&again), 0.0, "bitwise reset");
    }

    #[test]
    fn impossible_evidence_reported() {
        let net = datasets::asia();
        let solver = solver_for(&net);
        let mut session = solver.session();
        // TbOrCa is a deterministic OR: tub=yes & either=no is impossible.
        let tub = net.var_id("Tuberculosis").unwrap();
        let either = net.var_id("TbOrCa").unwrap();
        let err = session
            .posteriors(&Evidence::from_pairs([(tub, 0), (either, 1)]))
            .unwrap_err();
        assert_eq!(err, InferenceError::ImpossibleEvidence);
        // And the session still works afterwards.
        assert!(session.posteriors(&Evidence::empty()).is_ok());
    }

    #[test]
    fn joint_posterior_within_a_clique() {
        // Sprinkler & Rain share a clique; their joint given WetGrass must
        // match brute-force enumeration and its marginals must match the
        // per-variable posteriors.
        let net = datasets::sprinkler();
        let solver = solver_for(&net);
        let mut session = solver.session();
        let wet = net.var_id("WetGrass").unwrap();
        let spr = net.var_id("Sprinkler").unwrap();
        let rain = net.var_id("Rain").unwrap();
        let ev = Evidence::from_pairs([(wet, 0)]);
        let joint = session
            .joint_posterior(&ev, &[rain, spr])
            .unwrap()
            .expect("S and R share a clique");
        assert!((joint.sum() - 1.0).abs() < 1e-12);
        // Marginals of the joint equal the single-variable posteriors.
        let post = session.posteriors(&ev).unwrap();
        let spr_marginal = fastbn_potential::ops::marginal_of_var(&joint, spr);
        for (a, b) in spr_marginal.iter().zip(post.marginal(spr)) {
            assert!((a - b).abs() < 1e-12);
        }
        // Exact joint value: P(S=t, R=t | W=t) = 0.5*(0.1*0.8*0.99 + 0.5*0.2*0.99)/0.6471.
        let expected = 0.5 * (0.1 * 0.8 * 0.99 + 0.5 * 0.2 * 0.99) / 0.6471;
        let got = joint.value_at(&[0, 0]); // sorted order: (Sprinkler, Rain)
        assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    }

    #[test]
    fn joint_posterior_out_of_clique_is_none() {
        // VisitAsia and Smoker never co-occur in a clique of the Asia tree.
        let net = datasets::asia();
        let solver = solver_for(&net);
        let mut session = solver.session();
        let a = net.var_id("VisitAsia").unwrap();
        let s = net.var_id("Smoker").unwrap();
        assert!(session
            .joint_posterior(&Evidence::empty(), &[a, s])
            .unwrap()
            .is_none());
    }

    #[test]
    fn all_variables_observed() {
        let net = datasets::student();
        let solver = solver_for(&net);
        let ev = Evidence::from_pairs((0..net.num_vars()).map(|v| (VarId::from_index(v), 0)));
        let post = solver.posteriors(&ev).unwrap();
        for v in 0..net.num_vars() {
            assert_eq!(post.marginal(VarId::from_index(v))[0], 1.0);
        }
        assert!(post.prob_evidence > 0.0 && post.prob_evidence < 1.0);
    }
}

//! Virtual (likelihood) evidence — Pearl's "soft findings".
//!
//! A virtual finding attaches a likelihood vector `L(v)` to a variable
//! instead of a hard observation: the posterior is conditioned on an
//! imaginary sensor whose report has likelihood `L(v)[s]` given `v = s`.
//! Junction trees absorb such findings by multiplying the likelihood into
//! any clique containing the variable — a single-variable *extension*,
//! i.e. the same primitive the paper already parallelizes.
//!
//! Hard evidence is the special case of a one-hot likelihood; the tests
//! verify that equivalence, plus agreement with a likelihood-weighted
//! variable-elimination oracle.

use fastbn_bayesnet::VarId;

use crate::prepared::Prepared;
use crate::state::WorkState;

/// A set of likelihood findings, sorted by variable id. Multiple findings
/// on the same variable **multiply together** (independent sensors) —
/// unlike hard evidence, where re-observing a variable replaces the
/// earlier finding. Both behaviors are part of the API contract (see
/// [`Query::likelihood`](crate::query::Query::likelihood) and
/// [`Query::observe`](crate::query::Query::observe)) and both are
/// reflected faithfully in the canonical
/// [`QueryKey`](crate::query::QueryKey) the result cache is keyed by.
///
/// # Scale canonicalization
///
/// Only the *ratios* within a likelihood vector are meaningful: `L(v)`
/// and `c · L(v)` describe the same soft finding. The engine therefore
/// canonicalizes every vector before absorbing it — each entry is
/// divided by the vector's maximum (so the largest entry becomes exactly
/// `1.0`) and negative zeros become positive zeros. Consequences:
///
/// * posteriors and `prob_evidence` are **bit-identical** for
///   proportional vectors (`[0.8, 0.2]` vs `[1.6, 0.4]` vs `[4.0, 1.0]`),
///   which is what lets the query-result cache treat them as one query;
/// * `prob_evidence` under virtual findings is reported against the
///   canonical (max = 1) vectors, so it never exceeds the hard-evidence
///   `P(e)` of the same query — adding a soft finding can only shrink it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VirtualEvidence {
    entries: Vec<(VarId, Vec<f64>)>,
}

impl VirtualEvidence {
    /// No virtual findings.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds a likelihood vector for `var`.
    ///
    /// The vector is accepted as-is; validation happens when the finding
    /// is *used*: running a query rejects vectors that are mis-sized for
    /// the variable ([`InferenceError::InvalidLikelihood`]) or malformed —
    /// negative, NaN/infinite, or all-zero entries
    /// ([`InferenceError::MalformedLikelihood`]) — with a typed error
    /// instead of a panic, so one bad finding in a batch fails only its
    /// own slot.
    ///
    /// [`InferenceError::InvalidLikelihood`]: crate::error::InferenceError::InvalidLikelihood
    /// [`InferenceError::MalformedLikelihood`]: crate::error::InferenceError::MalformedLikelihood
    pub fn add(&mut self, var: VarId, likelihood: Vec<f64>) {
        self.entries.push((var, likelihood));
        self.entries.sort_by_key(|e| e.0);
    }

    /// Builder-style [`VirtualEvidence::add`].
    pub fn with(mut self, var: VarId, likelihood: Vec<f64>) -> Self {
        self.add(var, likelihood);
        self
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no findings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates findings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &[f64])> + '_ {
        self.entries.iter().map(|(v, l)| (*v, l.as_slice()))
    }
}

/// The canonical form of one likelihood vector: every entry divided by
/// the vector's maximum (so the largest entry is exactly `1.0`) and
/// `-0.0` replaced by `+0.0`. This is what the engine actually absorbs
/// and what [`QueryKey`](crate::query::QueryKey) hashes, so two queries
/// with the same key perform the exact same arithmetic — the foundation
/// of the cache's bit-identity guarantee.
///
/// Total on malformed input: vectors containing non-finite entries, or
/// without a positive maximum (all-zero / negative-only), are returned
/// unchanged — validation rejects them with a typed error before they
/// can reach the engine, and key derivation (which runs pre-validation
/// in the serve dedup path) still distinguishes them.
pub(crate) fn canonical_likelihood(likelihood: &[f64]) -> Vec<f64> {
    let mut max = 0.0f64;
    for &p in likelihood {
        if !p.is_finite() {
            return likelihood.to_vec();
        }
        if p > max {
            max = p;
        }
    }
    if max <= 0.0 {
        return likelihood.to_vec();
    }
    likelihood
        .iter()
        .map(|&p| if p == 0.0 { 0.0 } else { p / max })
        .collect()
}

/// In-place form of [`canonical_likelihood`] for pre-validated vectors
/// (finite entries, positive maximum): divides by the maximum and maps
/// `-0.0` to `+0.0`, producing bit-identical values to the allocating
/// form. The incremental edit path canonicalizes the caller's vector at
/// edit time so the steady-state replay multiplies stored canonical
/// entries without allocating.
pub(crate) fn canonicalize_likelihood(likelihood: &mut [f64]) {
    let mut max = 0.0f64;
    for &p in likelihood.iter() {
        debug_assert!(p.is_finite());
        if p > max {
            max = p;
        }
    }
    debug_assert!(
        max > 0.0,
        "canonicalize_likelihood needs a validated vector"
    );
    for p in likelihood {
        *p = if *p == 0.0 { 0.0 } else { *p / max };
    }
}

/// Absorbs virtual findings into a work state (after hard evidence,
/// before propagation): each finding scales its variable's home clique
/// through the single-variable kernel ([`VarAxis::scale`]), so the only
/// allocation is the vector's [`canonical_likelihood`] form — which is
/// what makes proportional findings perform identical arithmetic.
///
/// [`VarAxis::scale`]: fastbn_potential::ops::VarAxis::scale
pub(crate) fn absorb_virtual(
    state: &mut WorkState,
    prepared: &Prepared,
    virtual_evidence: &VirtualEvidence,
) {
    for (var, likelihood) in virtual_evidence.iter() {
        let v = var.index();
        debug_assert_eq!(likelihood.len(), prepared.cards[v]);
        let msg = canonical_likelihood(likelihood);
        prepared.axes[v].scale(state.clique_mut(prepared.home[v]), &msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::variable_elimination as ve;
    use crate::posterior::Posteriors;
    use crate::query::Query;
    use crate::solver::Solver;
    use fastbn_bayesnet::{datasets, BayesianNetwork, Evidence};

    /// Oracle: VE over CPT factors with likelihood factors appended.
    fn ve_with_virtual(
        net: &BayesianNetwork,
        evidence: &Evidence,
        virt: &VirtualEvidence,
    ) -> Posteriors {
        // Build an equivalent network trick is messy; instead reuse the
        // public VE on an augmented factor list by monkey-approach:
        // represent each likelihood as an extra "sensor" child variable
        // with the likelihood as its CPT row, observed in state 0 —
        // mathematically identical to virtual evidence (Pearl's
        // construction).
        let mut b = fastbn_bayesnet::NetworkBuilder::new();
        for var in net.variables() {
            b.add_variable(var.clone());
        }
        let mut sensor_ids = Vec::new();
        for (i, (var, likelihood)) in virt.iter().enumerate() {
            // Sensor with 2 states; P(sensor = 0 | v = s) ∝ likelihood[s].
            // Scale so probabilities stay in [0, 1].
            let max = likelihood.iter().cloned().fold(0.0f64, f64::max);
            let id = b.add_variable(fastbn_bayesnet::Variable::with_cardinality(
                format!("sensor{i}"),
                2,
            ));
            let mut values = Vec::new();
            for &l in likelihood {
                let p = l / (max * 2.0); // headroom keeps rows valid
                values.extend([p, 1.0 - p]);
            }
            sensor_ids.push((id, var));
            b.set_cpt(id, vec![var], values).unwrap();
        }
        for v in 0..net.num_vars() {
            let id = VarId::from_index(v);
            let cpt = net.cpt(id);
            b.set_cpt(id, cpt.parents().to_vec(), cpt.values().to_vec())
                .unwrap();
        }
        let augmented = b.build().unwrap();
        let mut ev = evidence.clone();
        for (sensor, _) in &sensor_ids {
            ev.set(*sensor, 0);
        }
        let post = ve::all_posteriors(&augmented, &ev).unwrap();
        // Truncate to the original variables.
        Posteriors::new(
            (0..net.num_vars())
                .map(|v| post.marginal(VarId::from_index(v)).to_vec())
                .collect(),
            post.prob_evidence, // scaled, compared only up to normalization
        )
    }

    #[test]
    fn one_hot_virtual_equals_hard_evidence() {
        let net = datasets::asia();
        let solver = Solver::new(&net);
        let mut session = solver.session();
        let dysp = net.var_id("Dyspnea").unwrap();
        let hard = session
            .posteriors(&Evidence::from_pairs([(dysp, 0)]))
            .unwrap();
        let virt = session
            .run(&Query::new().likelihood(dysp, vec![1.0, 0.0]))
            .unwrap()
            .into_posteriors()
            .unwrap();
        for v in 0..net.num_vars() {
            let id = VarId::from_index(v);
            if id == dysp {
                continue; // hard query reports a point mass there
            }
            for (a, b) in hard.marginal(id).iter().zip(virt.marginal(id)) {
                assert!((a - b).abs() < 1e-12, "var {v}: {a} vs {b}");
            }
        }
        assert!((hard.prob_evidence - virt.prob_evidence).abs() < 1e-12);
    }

    #[test]
    fn virtual_evidence_matches_sensor_construction_oracle() {
        let net = datasets::cancer();
        let solver = Solver::new(&net);
        let xray = net.var_id("XRay").unwrap();
        let smoker = net.var_id("Smoker").unwrap();
        // A blurry x-ray: 3:1 likelihood toward "positive".
        let virt = VirtualEvidence::empty().with(xray, vec![0.75, 0.25]);
        let hard = Evidence::from_pairs([(smoker, 0)]);
        let got = solver
            .query(
                &Query::new()
                    .evidence(hard.clone())
                    .virtual_evidence(virt.clone()),
            )
            .unwrap()
            .into_posteriors()
            .unwrap();
        let oracle = ve_with_virtual(&net, &hard, &virt);
        for v in 0..net.num_vars() {
            let id = VarId::from_index(v);
            for (a, b) in got.marginal(id).iter().zip(oracle.marginal(id)) {
                assert!((a - b).abs() < 1e-9, "var {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn uniform_likelihood_is_a_noop() {
        let net = datasets::student();
        let solver = Solver::new(&net);
        let mut session = solver.session();
        let grade = net.var_id("Grade").unwrap();
        let base = session.posteriors(&Evidence::empty()).unwrap();
        let flat = session
            .run(&Query::new().likelihood(grade, vec![1.0, 1.0, 1.0]))
            .unwrap()
            .into_posteriors()
            .unwrap();
        assert!(base.max_abs_diff(&flat) < 1e-12);
    }

    #[test]
    fn repeated_findings_multiply() {
        // Two independent noisy sensors on the same variable.
        let net = datasets::cancer();
        let solver = Solver::new(&net);
        let mut session = solver.session();
        let cancer = net.var_id("Cancer").unwrap();
        let a = session
            .run(&Query::new().likelihood(cancer, vec![0.8 * 0.8, 0.2 * 0.2]))
            .unwrap()
            .into_posteriors()
            .unwrap();
        let b = session
            .run(
                &Query::new()
                    .likelihood(cancer, vec![0.8, 0.2])
                    .likelihood(cancer, vec![0.8, 0.2]),
            )
            .unwrap()
            .into_posteriors()
            .unwrap();
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn proportional_likelihoods_are_bit_identical() {
        // Only the ratios of a likelihood vector are meaningful; the
        // engine canonicalizes scale away, so proportional vectors give
        // bitwise-equal posteriors *and* prob_evidence. This is what the
        // query-result cache's key relies on.
        let net = datasets::cancer();
        let solver = Solver::new(&net);
        let mut session = solver.session();
        let xray = net.var_id("XRay").unwrap();
        let base = session
            .run(&Query::new().likelihood(xray, vec![0.75, 0.25]))
            .unwrap()
            .into_posteriors()
            .unwrap();
        for scale in [2.0, 0.5, 1e6, 1e-6] {
            let scaled = session
                .run(&Query::new().likelihood(xray, vec![0.75 * scale, 0.25 * scale]))
                .unwrap()
                .into_posteriors()
                .unwrap();
            assert_eq!(base.max_abs_diff(&scaled), 0.0, "scale {scale}");
            assert_eq!(
                base.prob_evidence.to_bits(),
                scaled.prob_evidence.to_bits(),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn negative_zero_likelihood_entry_is_canonicalized() {
        // -0.0 passes validation (it is not negative in the IEEE
        // comparison sense) and must behave exactly like +0.0 — bit for
        // bit — so the two cannot alias distinct cache entries with
        // different payloads.
        let net = datasets::asia();
        let solver = Solver::new(&net);
        let mut session = solver.session();
        let dysp = net.var_id("Dyspnea").unwrap();
        let pos = session
            .run(&Query::new().likelihood(dysp, vec![1.0, 0.0]))
            .unwrap()
            .into_posteriors()
            .unwrap();
        let neg = session
            .run(&Query::new().likelihood(dysp, vec![1.0, -0.0]))
            .unwrap()
            .into_posteriors()
            .unwrap();
        assert_eq!(pos.max_abs_diff(&neg), 0.0);
        assert_eq!(pos.prob_evidence.to_bits(), neg.prob_evidence.to_bits());
        for v in 0..net.num_vars() {
            let id = VarId::from_index(v);
            for (a, b) in pos.marginal(id).iter().zip(neg.marginal(id)) {
                assert_eq!(a.to_bits(), b.to_bits(), "var {v}");
            }
        }
    }

    #[test]
    fn canonical_likelihood_normalizes_by_max_and_fixes_negative_zero() {
        assert_eq!(
            canonical_likelihood(&[0.5, 1.0, 0.25]),
            vec![0.5, 1.0, 0.25]
        );
        assert_eq!(canonical_likelihood(&[1.0, 2.0, 0.5]), vec![0.5, 1.0, 0.25]);
        let canon = canonical_likelihood(&[-0.0, 2.0]);
        assert_eq!(canon, vec![0.0, 1.0]);
        assert_eq!(canon[0].to_bits(), 0.0f64.to_bits(), "-0.0 becomes +0.0");
        // Malformed vectors pass through untouched (validation rejects
        // them before the engine ever sees them).
        assert!(canonical_likelihood(&[f64::NAN, 1.0])[0].is_nan());
        assert_eq!(
            canonical_likelihood(&[f64::INFINITY, 1.0]),
            vec![f64::INFINITY, 1.0]
        );
        assert_eq!(canonical_likelihood(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(canonical_likelihood(&[-1.0, -2.0]), vec![-1.0, -2.0]);
        assert_eq!(canonical_likelihood(&[]), Vec::<f64>::new());
    }

    #[test]
    fn all_zero_likelihood_rejected_at_query_time() {
        // Construction accepts the vector (builders stay infallible);
        // running it returns the typed error.
        let virt = VirtualEvidence::empty().with(VarId(0), vec![0.0, 0.0]);
        assert_eq!(virt.len(), 1);
        let net = datasets::sprinkler();
        let solver = Solver::new(&net);
        let err = solver
            .query(&Query::new().virtual_evidence(virt))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::InferenceError::MalformedLikelihood { .. }
        ));
    }
}

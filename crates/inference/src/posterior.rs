//! Query results: normalized marginals per variable, for all variables
//! or a requested subset.

use fastbn_bayesnet::VarId;

/// Posterior marginals given the entered evidence, plus the evidence
/// probability.
///
/// Covers either **every** network variable (the default) or only the
/// **targets** a [`Query`](crate::query::Query) asked for — targeted
/// results skip the extraction work (and memory) for everything else.
/// Observed variables get a point-mass marginal (1 on the observed
/// state), which keeps cross-engine and cross-oracle comparisons uniform.
#[derive(Debug, Clone, PartialEq)]
pub struct Posteriors {
    /// Dense by variable id; an empty inner vector marks a variable whose
    /// marginal was not requested (cardinality ≥ 1 always, so empty is
    /// unambiguous).
    marginals: Vec<Vec<f64>>,
    /// `P(evidence)` under the model (1.0 for an empty query): the product
    /// of one factor per junction-tree component. Across many components
    /// it can underflow to `0.0` while every marginal stays well defined;
    /// impossible evidence is an error, never a result.
    pub prob_evidence: f64,
}

impl Posteriors {
    /// Assembles a full result; `marginals[v]` must already be normalized
    /// and non-empty for every variable.
    pub fn new(marginals: Vec<Vec<f64>>, prob_evidence: f64) -> Self {
        debug_assert!(marginals.iter().all(|m| !m.is_empty()));
        Posteriors {
            marginals,
            prob_evidence,
        }
    }

    /// Assembles a targeted result over `num_vars` network variables with
    /// marginals only for the `(var, distribution)` pairs given.
    pub fn targeted(
        num_vars: usize,
        entries: impl IntoIterator<Item = (VarId, Vec<f64>)>,
        prob_evidence: f64,
    ) -> Self {
        let mut marginals = vec![Vec::new(); num_vars];
        for (var, m) in entries {
            debug_assert!(!m.is_empty());
            marginals[var.index()] = m;
        }
        Posteriors {
            marginals,
            prob_evidence,
        }
    }

    /// The marginal distribution of `var`.
    ///
    /// # Panics
    /// If `var`'s marginal was not computed (it was outside the query's
    /// target set). Use [`Posteriors::try_marginal`] to probe.
    pub fn marginal(&self, var: VarId) -> &[f64] {
        let m = &self.marginals[var.index()];
        assert!(
            !m.is_empty(),
            "marginal of variable {} was not requested by this query \
             (targeted result); add it to Query::targets",
            var.index()
        );
        m
    }

    /// The marginal of `var`, or `None` if this is a targeted result that
    /// did not include it.
    pub fn try_marginal(&self, var: VarId) -> Option<&[f64]> {
        let m = &self.marginals[var.index()];
        (!m.is_empty()).then_some(m.as_slice())
    }

    /// Whether `var`'s marginal was computed.
    pub fn has_marginal(&self, var: VarId) -> bool {
        !self.marginals[var.index()].is_empty()
    }

    /// Variables whose marginals were computed, ascending.
    pub fn computed_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.marginals
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(v, _)| VarId::from_index(v))
    }

    /// All marginal slots, indexed by variable id (empty slots for
    /// variables outside a targeted query).
    pub fn marginals(&self) -> &[Vec<f64>] {
        &self.marginals
    }

    /// Number of network variables covered by the result's index space.
    pub fn num_vars(&self) -> usize {
        self.marginals.len()
    }

    /// Largest absolute difference between two results over all marginals
    /// — the metric used by the cross-engine agreement tests. Both
    /// results must cover the same variables.
    pub fn max_abs_diff(&self, other: &Posteriors) -> f64 {
        assert_eq!(self.num_vars(), other.num_vars());
        let mut worst: f64 = 0.0;
        for (a, b) in self.marginals.iter().zip(&other.marginals) {
            assert_eq!(a.len(), b.len(), "results cover different variables");
            for (x, y) in a.iter().zip(b) {
                worst = worst.max((x - y).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Posteriors::new(vec![vec![0.25, 0.75], vec![1.0]], 0.5);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.marginal(VarId(0)), &[0.25, 0.75]);
    }

    #[test]
    fn max_abs_diff_finds_worst_entry() {
        let a = Posteriors::new(vec![vec![0.2, 0.8], vec![0.5, 0.5]], 1.0);
        let b = Posteriors::new(vec![vec![0.2, 0.8], vec![0.4, 0.6]], 1.0);
        assert!((a.max_abs_diff(&b) - 0.1).abs() < 1e-15);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn targeted_results_expose_only_requested_vars() {
        let p = Posteriors::targeted(3, [(VarId(1), vec![0.4, 0.6])], 0.9);
        assert_eq!(p.num_vars(), 3);
        assert!(p.has_marginal(VarId(1)));
        assert!(!p.has_marginal(VarId(0)));
        assert_eq!(p.try_marginal(VarId(1)), Some(&[0.4, 0.6][..]));
        assert_eq!(p.try_marginal(VarId(2)), None);
        assert_eq!(p.computed_vars().collect::<Vec<_>>(), vec![VarId(1)]);
    }

    #[test]
    #[should_panic(expected = "not requested")]
    fn targeted_marginal_panics_for_uncomputed_var() {
        let p = Posteriors::targeted(2, [(VarId(0), vec![1.0])], 1.0);
        let _ = p.marginal(VarId(1));
    }
}

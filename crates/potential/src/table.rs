//! Potential tables: a domain plus one `f64` weight per assignment.

use std::sync::Arc;

use fastbn_bayesnet::Cpt;

use crate::domain::Domain;

/// A non-negative real-valued function over the assignments of a
/// [`Domain`] — clique potentials, separator potentials, messages and CPT
/// factors are all `PotentialTable`s.
///
/// The domain is shared via [`Arc`] because inference clones potentials on
/// every query reset; cloning the table then costs one `memcpy` of the
/// values and two refcount bumps.
#[derive(Debug, Clone)]
pub struct PotentialTable {
    domain: Arc<Domain>,
    values: Vec<f64>,
}

/// Error when normalizing a table whose entries sum to zero — in Hugin
/// propagation this means the entered evidence has probability zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroSumError;

impl std::fmt::Display for ZeroSumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "potential table sums to zero (evidence has probability 0)"
        )
    }
}

impl std::error::Error for ZeroSumError {}

impl PotentialTable {
    /// The multiplicative identity: all entries 1.
    pub fn ones(domain: Arc<Domain>) -> Self {
        let size = domain.size();
        PotentialTable {
            domain,
            values: vec![1.0; size],
        }
    }

    /// All entries 0 (additive identity, used as a marginalization target).
    pub fn zeros(domain: Arc<Domain>) -> Self {
        let size = domain.size();
        PotentialTable {
            domain,
            values: vec![0.0; size],
        }
    }

    /// Wraps explicit values; panics if the length does not match the
    /// domain size.
    pub fn from_values(domain: Arc<Domain>, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            domain.size(),
            "value vector must match domain size"
        );
        PotentialTable { domain, values }
    }

    /// Converts a CPT into a potential table over its **sorted** scope.
    ///
    /// The CPT layout (first parent slowest, child fastest) generally
    /// differs from the canonical sorted-domain layout, so entries are
    /// re-indexed through the domain's strides.
    pub fn from_cpt(cpt: &Cpt, cards_by_id: &[usize]) -> Self {
        let scope = cpt.scope_sorted();
        let domain = Arc::new(Domain::from_vars(&scope, cards_by_id));
        let child_stride = domain.stride_of(cpt.child());
        let parent_strides: Vec<usize> =
            cpt.parents().iter().map(|&p| domain.stride_of(p)).collect();
        let parent_cards = cpt.parent_cardinalities();

        let mut values = vec![0.0; domain.size()];
        let mut digits = vec![0usize; parent_cards.len()];
        let mut base = 0usize;
        for row in 0..cpt.num_rows() {
            let row_values = cpt.row(row);
            for (state, &p) in row_values.iter().enumerate() {
                values[base + state * child_stride] = p;
            }
            // Mixed-radix increment over parents (last parent fastest,
            // matching `Cpt::row_index`), updating `base` incrementally.
            let mut i = digits.len();
            while i > 0 {
                i -= 1;
                digits[i] += 1;
                base += parent_strides[i];
                if digits[i] < parent_cards[i] {
                    break;
                }
                base -= parent_strides[i] * parent_cards[i];
                digits[i] = 0;
            }
        }
        PotentialTable { domain, values }
    }

    /// The table's domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the table has a single (scalar) entry.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Entry values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable entry values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Scales every entry by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        self.values.fill(value);
    }

    /// Normalizes entries to sum to 1; returns the pre-normalization sum
    /// (the probability of the entered evidence, in Hugin propagation).
    pub fn normalize(&mut self) -> Result<f64, ZeroSumError> {
        let sum = self.sum();
        if sum <= 0.0 || !sum.is_finite() {
            return Err(ZeroSumError);
        }
        self.scale(1.0 / sum);
        Ok(sum)
    }

    /// Value at the assignment given by `states` (aligned with
    /// `domain().vars()`).
    pub fn value_at(&self, states: &[usize]) -> f64 {
        self.values[self.domain.index_of(states)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_bayesnet::VarId;

    fn domain_ab() -> Arc<Domain> {
        Arc::new(Domain::new(vec![(VarId(0), 2), (VarId(1), 3)]))
    }

    #[test]
    fn constructors() {
        let d = domain_ab();
        assert_eq!(PotentialTable::ones(d.clone()).values(), &[1.0; 6]);
        assert_eq!(PotentialTable::zeros(d.clone()).values(), &[0.0; 6]);
        let t = PotentialTable::from_values(d, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.value_at(&[1, 2]), 5.0);
    }

    #[test]
    #[should_panic(expected = "must match domain size")]
    fn wrong_length_rejected() {
        PotentialTable::from_values(domain_ab(), vec![1.0]);
    }

    #[test]
    fn sum_scale_normalize() {
        let mut t = PotentialTable::from_values(domain_ab(), vec![1.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
        assert_eq!(t.sum(), 4.0);
        let z = t.normalize().unwrap();
        assert_eq!(z, 4.0);
        assert!((t.sum() - 1.0).abs() < 1e-12);
        assert_eq!(t.values()[2], 0.5);

        t.fill(0.0);
        assert_eq!(t.normalize(), Err(ZeroSumError));
    }

    #[test]
    fn from_cpt_root_node() {
        // Root CPT: P(A) over card 3.
        let cpt = Cpt::new(VarId(1), vec![], 3, vec![], vec![0.2, 0.3, 0.5]).unwrap();
        let cards = vec![2, 3];
        let t = PotentialTable::from_cpt(&cpt, &cards);
        assert_eq!(t.domain().vars(), &[VarId(1)]);
        assert_eq!(t.values(), &[0.2, 0.3, 0.5]);
    }

    #[test]
    fn from_cpt_reorders_unsorted_parents() {
        // Child VarId(1) card 2 with parents [VarId(2), VarId(0)] (CPT
        // order), cards 2 and 3. Sorted scope: (0,1,2) cards (3,2,2).
        let mut values = Vec::new();
        for p2 in 0..2 {
            for p0 in 0..3 {
                let p = 0.05 * (1 + p2 * 3 + p0) as f64;
                values.extend([p, 1.0 - p]);
            }
        }
        let cpt = Cpt::new(VarId(1), vec![VarId(2), VarId(0)], 2, vec![2, 3], values).unwrap();
        let cards = vec![3, 2, 2];
        let t = PotentialTable::from_cpt(&cpt, &cards);
        assert_eq!(t.domain().vars(), &[VarId(0), VarId(1), VarId(2)]);
        // Check every entry against the CPT lookup.
        for s0 in 0..3 {
            for s1 in 0..2 {
                for s2 in 0..2 {
                    let expected = cpt.probability(s1, &[s2, s0]);
                    assert_eq!(
                        t.value_at(&[s0, s1, s2]),
                        expected,
                        "states ({s0},{s1},{s2})"
                    );
                }
            }
        }
    }

    #[test]
    fn from_cpt_rows_marginalize_to_one() {
        // Σ_child P(child | parents) = 1 for every parent config.
        let cpt = Cpt::new(
            VarId(0),
            vec![VarId(3)],
            2,
            vec![2],
            vec![0.7, 0.3, 0.1, 0.9],
        )
        .unwrap();
        let mut cards = vec![2, 0, 0, 2];
        cards[1] = 1;
        cards[2] = 1;
        let t = PotentialTable::from_cpt(&cpt, &cards);
        // Scope sorted: (0, 3); child 0 is the *slower* variable here.
        assert_eq!(t.domain().vars(), &[VarId(0), VarId(3)]);
        for s3 in 0..2 {
            let total: f64 = (0..2).map(|s0| t.value_at(&[s0, s3])).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }
}

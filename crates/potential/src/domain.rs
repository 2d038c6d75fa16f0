//! Ordered discrete domains: the variable scope of one potential table.

use fastbn_bayesnet::VarId;

/// The scope of a potential table: a strictly ascending list of variables
/// with their cardinalities, plus precomputed row-major strides (last
/// variable fastest).
///
/// Keeping every domain sorted by `VarId` gives a canonical ordering, so
/// any two tables over intersecting scopes agree on how shared variables
/// are laid out — which is what makes the index mappings of a
/// [`KernelPlan`](crate::KernelPlan) pure stride arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    vars: Box<[VarId]>,
    cards: Box<[usize]>,
    strides: Box<[usize]>,
    size: usize,
}

impl Domain {
    /// The empty (scalar) domain: no variables, table size 1.
    pub fn scalar() -> Self {
        Domain {
            vars: Box::new([]),
            cards: Box::new([]),
            strides: Box::new([]),
            size: 1,
        }
    }

    /// Builds a domain from `(variable, cardinality)` pairs; sorts them by
    /// variable id. Panics on duplicates or zero cardinalities.
    pub fn new(mut pairs: Vec<(VarId, usize)>) -> Self {
        pairs.sort_unstable_by_key(|&(v, _)| v);
        Self::from_sorted(pairs)
    }

    /// Builds a domain from pairs already sorted by ascending id. Panics if
    /// unsorted, duplicated, or any cardinality is zero.
    pub fn from_sorted(pairs: Vec<(VarId, usize)>) -> Self {
        let mut size = 1usize;
        for (i, &(v, card)) in pairs.iter().enumerate() {
            assert!(card > 0, "variable {v} has zero cardinality");
            if i > 0 {
                assert!(
                    pairs[i - 1].0 < v,
                    "domain variables must be strictly ascending"
                );
            }
            size = size
                .checked_mul(card)
                .expect("potential table size overflows usize");
        }
        let vars: Box<[VarId]> = pairs.iter().map(|&(v, _)| v).collect();
        let cards: Box<[usize]> = pairs.iter().map(|&(_, c)| c).collect();
        let mut strides = vec![0usize; pairs.len()].into_boxed_slice();
        let mut stride = 1usize;
        for i in (0..pairs.len()).rev() {
            strides[i] = stride;
            stride *= cards[i];
        }
        Domain {
            vars,
            cards,
            strides,
            size,
        }
    }

    /// Builds the domain of `vars` using a per-network cardinality lookup
    /// (`cards_by_id[v.index()]`).
    pub fn from_vars(vars: &[VarId], cards_by_id: &[usize]) -> Self {
        Self::new(vars.iter().map(|&v| (v, cards_by_id[v.index()])).collect())
    }

    /// Number of variables in scope.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Table size: the product of all cardinalities.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Variables in ascending id order.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Cardinalities, aligned with [`Domain::vars`].
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// Row-major strides, aligned with [`Domain::vars`].
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Position of `var` within this domain, if present (binary search).
    pub fn position_of(&self, var: VarId) -> Option<usize> {
        self.vars.binary_search(&var).ok()
    }

    /// Whether `var` is in scope.
    pub fn contains(&self, var: VarId) -> bool {
        self.position_of(var).is_some()
    }

    /// Stride of `var`; panics if absent.
    pub fn stride_of(&self, var: VarId) -> usize {
        self.strides[self.position_of(var).expect("variable in domain")]
    }

    /// Cardinality of `var`; panics if absent.
    pub fn card_of(&self, var: VarId) -> usize {
        self.cards[self.position_of(var).expect("variable in domain")]
    }

    /// Whether every variable of `self` appears in `other`.
    pub fn is_subdomain_of(&self, other: &Domain) -> bool {
        self.vars.iter().all(|&v| other.contains(v))
    }

    /// Flat index of an assignment (`states[i]` is the state of
    /// `vars()[i]`).
    pub fn index_of(&self, states: &[usize]) -> usize {
        debug_assert_eq!(states.len(), self.vars.len());
        states
            .iter()
            .zip(self.strides.iter())
            .map(|(&s, &st)| s * st)
            .sum()
    }

    /// Decodes flat index `idx` into `out` (one state per variable).
    pub fn decode(&self, idx: usize, out: &mut [usize]) {
        debug_assert!(idx < self.size);
        debug_assert_eq!(out.len(), self.vars.len());
        let mut rest = idx;
        for i in (0..self.vars.len()).rev() {
            out[i] = rest % self.cards[i];
            rest /= self.cards[i];
        }
        debug_assert_eq!(rest, 0);
    }

    /// State of `var` within flat index `idx` (no full decode).
    pub fn state_of(&self, idx: usize, var: VarId) -> usize {
        let pos = self.position_of(var).expect("variable in domain");
        (idx / self.strides[pos]) % self.cards[pos]
    }

    /// Union of two domains (cardinalities must agree on shared vars).
    pub fn union(&self, other: &Domain) -> Domain {
        let mut pairs = Vec::with_capacity(self.vars.len() + other.vars.len());
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() || j < other.vars.len() {
            match (self.vars.get(i), other.vars.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    assert_eq!(
                        self.cards[i], other.cards[j],
                        "cardinality mismatch for {a} in union"
                    );
                    pairs.push((a, self.cards[i]));
                    i += 1;
                    j += 1;
                }
                (Some(&a), Some(&b)) if a < b => {
                    pairs.push((a, self.cards[i]));
                    i += 1;
                }
                (Some(_), Some(&b)) => {
                    pairs.push((b, other.cards[j]));
                    j += 1;
                }
                (Some(&a), None) => {
                    pairs.push((a, self.cards[i]));
                    i += 1;
                }
                (None, Some(&b)) => {
                    pairs.push((b, other.cards[j]));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        Domain::from_sorted(pairs)
    }

    /// Intersection of two domains.
    pub fn intersection(&self, other: &Domain) -> Domain {
        let pairs = self
            .vars
            .iter()
            .zip(self.cards.iter())
            .filter(|(v, _)| other.contains(**v))
            .map(|(&v, &c)| (v, c))
            .collect();
        Domain::from_sorted(pairs)
    }

    /// Variables of `self` not in `other` (with cardinalities).
    pub fn minus(&self, other: &Domain) -> Domain {
        let pairs = self
            .vars
            .iter()
            .zip(self.cards.iter())
            .filter(|(v, _)| !other.contains(**v))
            .map(|(&v, &c)| (v, c))
            .collect();
        Domain::from_sorted(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Domain {
        // A (card 2), B (card 3), C (card 4); strides: A=12, B=4, C=1.
        Domain::new(vec![(VarId(2), 4), (VarId(0), 2), (VarId(1), 3)])
    }

    #[test]
    fn construction_sorts_and_strides() {
        let d = abc();
        assert_eq!(d.vars(), &[VarId(0), VarId(1), VarId(2)]);
        assert_eq!(d.cards(), &[2, 3, 4]);
        assert_eq!(d.strides(), &[12, 4, 1]);
        assert_eq!(d.size(), 24);
        assert_eq!(d.num_vars(), 3);
    }

    #[test]
    fn scalar_domain() {
        let d = Domain::scalar();
        assert_eq!(d.size(), 1);
        assert_eq!(d.num_vars(), 0);
        assert_eq!(d.index_of(&[]), 0);
    }

    #[test]
    fn index_decode_roundtrip_exhaustive() {
        let d = abc();
        let mut states = [0usize; 3];
        for idx in 0..d.size() {
            d.decode(idx, &mut states);
            assert_eq!(d.index_of(&states), idx);
            for (pos, &v) in d.vars().iter().enumerate() {
                assert_eq!(d.state_of(idx, v), states[pos]);
            }
        }
    }

    #[test]
    fn lookups() {
        let d = abc();
        assert_eq!(d.position_of(VarId(1)), Some(1));
        assert_eq!(d.position_of(VarId(9)), None);
        assert!(d.contains(VarId(2)));
        assert_eq!(d.stride_of(VarId(0)), 12);
        assert_eq!(d.card_of(VarId(2)), 4);
    }

    #[test]
    fn set_algebra() {
        let d = abc();
        let sub = Domain::new(vec![(VarId(0), 2), (VarId(2), 4)]);
        assert!(sub.is_subdomain_of(&d));
        assert!(!d.is_subdomain_of(&sub));
        assert_eq!(d.intersection(&sub), sub);
        assert_eq!(d.minus(&sub), Domain::new(vec![(VarId(1), 3)]));
        let other = Domain::new(vec![(VarId(1), 3), (VarId(5), 2)]);
        let u = d.union(&other);
        assert_eq!(u.vars(), &[VarId(0), VarId(1), VarId(2), VarId(5)]);
        assert_eq!(u.size(), 48);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_vars_rejected() {
        Domain::from_sorted(vec![(VarId(0), 2), (VarId(0), 2)]);
    }

    #[test]
    #[should_panic(expected = "zero cardinality")]
    fn zero_cardinality_rejected() {
        Domain::new(vec![(VarId(0), 0)]);
    }

    #[test]
    #[should_panic(expected = "cardinality mismatch")]
    fn union_checks_cardinalities() {
        let a = Domain::new(vec![(VarId(0), 2)]);
        let b = Domain::new(vec![(VarId(0), 3)]);
        a.union(&b);
    }

    #[test]
    fn from_vars_uses_lookup() {
        let cards = vec![2, 3, 4, 5];
        let d = Domain::from_vars(&[VarId(3), VarId(1)], &cards);
        assert_eq!(d.vars(), &[VarId(1), VarId(3)]);
        assert_eq!(d.cards(), &[3, 5]);
    }
}

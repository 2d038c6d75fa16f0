//! Index mappings between related potential tables.
//!
//! This module is the paper's central primitive: every table operation
//! reduces to walking one table's flat indices while computing the
//! corresponding index in another table. Three forms are provided:
//!
//! * [`embedding_strides`] — per-variable stride contributions for mapping
//!   a superdomain index onto a subdomain index (used by extension and by
//!   the per-entry side of marginalization);
//! * [`fiber_offsets`] — the source offsets of all completions of a target
//!   assignment (used to sum a marginalization "fiber" in ascending source
//!   order);
//! * [`Odometer`] — an incremental mixed-radix counter that maintains the
//!   mapped index in O(1) amortized per step, seedable at any position so
//!   parallel chunks pay exactly one full decode each; the plan kernels'
//!   walks step it once per run.

use crate::domain::Domain;
use crate::plan::MAX_PLAN_VARS;

/// For each variable of `iter_domain` (the domain being enumerated), the
/// stride of that variable in `target` — or 0 if the variable is absent
/// from `target`.
///
/// With these strides, `target_index(i) = Σ_v digit_v(i) * strides[v]`,
/// which is exactly the "index mapping" of the paper's extension and
/// marginalization primitives.
pub(crate) fn embedding_strides(iter_domain: &Domain, target: &Domain) -> Vec<usize> {
    iter_domain
        .vars()
        .iter()
        .map(|&v| target.position_of(v).map_or(0, |p| target.strides()[p]))
        .collect()
}

/// Offsets (in `source` index units) of every assignment of the variables
/// `source ∖ target`, in ascending order.
///
/// A marginalization target entry's value is the sum of
/// `source[base + off]` over these offsets; enumerating them in mixed-radix
/// order makes that sum ascend in source index, which keeps sequential and
/// parallel summation orders identical.
pub(crate) fn fiber_offsets(source: &Domain, target: &Domain) -> Vec<usize> {
    let summed = source.minus(target);
    let mut offsets = Vec::with_capacity(summed.size());
    // Strides of the summed variables inside the *source* table.
    let strides: Vec<usize> = summed.vars().iter().map(|&v| source.stride_of(v)).collect();
    let cards = summed.cards();
    let mut digits = vec![0usize; cards.len()];
    let mut offset = 0usize;
    loop {
        offsets.push(offset);
        // Mixed-radix increment, last variable fastest.
        let mut i = cards.len();
        loop {
            if i == 0 {
                return offsets;
            }
            i -= 1;
            digits[i] += 1;
            offset += strides[i];
            if digits[i] < cards[i] {
                break;
            }
            offset -= strides[i] * cards[i];
            digits[i] = 0;
        }
    }
}

/// Incremental enumerator of a domain's assignments that maintains the
/// corresponding flat index in a target domain.
///
/// `advance` is O(1) amortized (a digit increment plus occasional carries);
/// `seek` costs one full mixed-radix decode and is how a parallel chunk
/// starts mid-range. Cards and strides are *borrowed* and the digits are
/// stored inline (capacity [`MAX_PLAN_VARS`], which plan construction
/// enforces), so spinning up one odometer per chunk, run or fold block
/// allocates nothing.
pub(crate) struct Odometer<'a> {
    cards: &'a [usize],
    /// Stride of each iterated variable in the *target* table (0 if the
    /// variable is not part of the target), e.g. from
    /// [`embedding_strides`].
    strides: &'a [usize],
    digits: [usize; MAX_PLAN_VARS],
    mapped: usize,
}

impl<'a> Odometer<'a> {
    /// Builds an odometer over the given cardinalities with explicit
    /// per-variable target strides (same length), starting at position 0.
    #[inline]
    pub fn new(cards: &'a [usize], strides: &'a [usize]) -> Self {
        debug_assert_eq!(cards.len(), strides.len());
        debug_assert!(cards.len() <= MAX_PLAN_VARS);
        Odometer {
            cards,
            strides,
            digits: [0; MAX_PLAN_VARS],
            mapped: 0,
        }
    }

    /// Jumps to flat position `idx` of the iterated domain (one decode).
    #[inline]
    pub fn seek(&mut self, idx: usize) {
        let mut rest = idx;
        self.mapped = 0;
        for i in (0..self.cards.len()).rev() {
            self.digits[i] = rest % self.cards[i];
            rest /= self.cards[i];
            self.mapped += self.digits[i] * self.strides[i];
        }
        debug_assert_eq!(rest, 0, "seek past end of domain");
    }

    /// The target index for the current position.
    #[inline]
    pub fn mapped(&self) -> usize {
        self.mapped
    }

    /// Steps to the next assignment (wraps to 0 past the end).
    #[inline]
    pub fn advance(&mut self) {
        let mut i = self.cards.len();
        loop {
            if i == 0 {
                return; // wrapped past the last assignment
            }
            i -= 1;
            self.digits[i] += 1;
            self.mapped += self.strides[i];
            if self.digits[i] < self.cards[i] {
                return;
            }
            self.mapped -= self.strides[i] * self.cards[i];
            self.digits[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_bayesnet::VarId;

    fn source() -> Domain {
        // A(2) B(3) C(2) D(2): size 24.
        Domain::new(vec![
            (VarId(0), 2),
            (VarId(1), 3),
            (VarId(2), 2),
            (VarId(3), 2),
        ])
    }

    fn target() -> Domain {
        // B(3) D(2): size 6.
        Domain::new(vec![(VarId(1), 3), (VarId(3), 2)])
    }

    /// Brute-force reference: decode in source, re-encode kept vars in
    /// target.
    fn reference_map(src: &Domain, tgt: &Domain, idx: usize) -> usize {
        let mut states = vec![0usize; src.num_vars()];
        src.decode(idx, &mut states);
        tgt.vars()
            .iter()
            .map(|&v| {
                let pos = src.position_of(v).unwrap();
                states[pos] * tgt.stride_of(v)
            })
            .sum()
    }

    #[test]
    fn embedding_strides_match_reference() {
        let (src, tgt) = (source(), target());
        let strides = embedding_strides(&src, &tgt);
        assert_eq!(strides, vec![0, 2, 0, 1]); // B stride 2, D stride 1 in target
        let mut states = vec![0usize; src.num_vars()];
        for idx in 0..src.size() {
            src.decode(idx, &mut states);
            let mapped: usize = states.iter().zip(&strides).map(|(&s, &st)| s * st).sum();
            assert_eq!(mapped, reference_map(&src, &tgt, idx));
        }
    }

    #[test]
    fn odometer_agrees_with_decode_everywhere() {
        let (src, tgt) = (source(), target());
        let strides = embedding_strides(&src, &tgt);
        let mut odo = Odometer::new(src.cards(), &strides);
        for idx in 0..src.size() {
            assert_eq!(odo.mapped(), reference_map(&src, &tgt, idx), "idx {idx}");
            odo.advance();
        }
        // After wrapping, the odometer is back at 0.
        assert_eq!(odo.mapped(), 0);
    }

    #[test]
    fn odometer_seek_matches_sequential_advance() {
        let (src, tgt) = (source(), target());
        let strides = embedding_strides(&src, &tgt);
        for start in [0usize, 1, 5, 11, 23] {
            let mut seeker = Odometer::new(src.cards(), &strides);
            seeker.seek(start);
            assert_eq!(seeker.mapped(), reference_map(&src, &tgt, start));
            seeker.advance();
            if start + 1 < src.size() {
                assert_eq!(seeker.mapped(), reference_map(&src, &tgt, start + 1));
            }
        }
    }

    #[test]
    fn fiber_offsets_cover_each_source_entry_once() {
        let (src, tgt) = (source(), target());
        let offsets = fiber_offsets(&src, &tgt);
        // |A| * |C| completions.
        assert_eq!(offsets.len(), 4);
        // Ascending order is the determinism contract.
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));

        // base(t) + offsets must partition 0..src.size().
        let base_strides = embedding_strides(&tgt, &src);
        let mut seen = vec![false; src.size()];
        let mut digits = vec![0usize; tgt.num_vars()];
        for t in 0..tgt.size() {
            tgt.decode(t, &mut digits);
            let base: usize = digits.iter().zip(&base_strides).map(|(&d, &s)| d * s).sum();
            for &off in &offsets {
                assert!(!seen[base + off], "source index hit twice");
                seen[base + off] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn fiber_offsets_of_identity_projection_is_zero() {
        let src = source();
        let offsets = fiber_offsets(&src, &src);
        assert_eq!(offsets, vec![0]);
    }

    #[test]
    fn fiber_offsets_to_scalar_enumerates_everything() {
        let src = source();
        let offsets = fiber_offsets(&src, &Domain::scalar());
        assert_eq!(offsets, (0..src.size()).collect::<Vec<_>>());
    }

    #[test]
    fn odometer_on_scalar_iter_domain() {
        let scalar = Domain::scalar();
        let tgt = target();
        let strides = embedding_strides(&scalar, &tgt);
        let mut odo = Odometer::new(scalar.cards(), &strides);
        assert_eq!(odo.mapped(), 0);
        odo.advance(); // no digits: stays at 0 without panicking
        assert_eq!(odo.mapped(), 0);
    }
}

//! Sequential potential-table operations: what propagation needs beside
//! the [`KernelPlan`] kernels.
//!
//! Three groups remain here. The **slice helpers** run on slab regions in
//! the hot path and have no index mapping to compile: the fused separator
//! update ([`sep_update`], [`sep_ratio`], both through [`safe_div`]). The
//! **single-variable kernels** of [`VarAxis`] — `select` / `select_from`
//! (a hard finding, in place or as a table's first write), `marginal` (a
//! posterior read) and `scale` (a likelihood) — walk a
//! table as `blocks × card × stride` from one variable's stride and
//! cardinality, which the inference layer stores once per variable: every
//! finding a query enters and every marginal it reads goes through them,
//! with no plan and no index decoding. The **table-level forms**
//! ([`marginalize`], [`extend_multiply`], [`reduce_evidence`],
//! [`marginal_of_var`]) compile a transient plan (or axis) per call and
//! execute it — the convenience layer for one-shot callers (preparation,
//! oracles, tests). Propagation itself holds precompiled plans and calls
//! their kernels directly.
//!
//! fastbn: deny-hot-alloc

use crate::domain::Domain;
use crate::plan::KernelPlan;
use crate::table::PotentialTable;
use fastbn_bayesnet::VarId;

/// Marginalizes `src` onto `out`'s (sub)domain, overwriting `out`:
/// `out[m(i)] += src[i]` starting from zeros.
///
/// For each output entry, contributions arrive in ascending source index —
/// the same order the parallel fiber sums use, so results are bit-identical
/// across all engines.
pub fn marginalize_into(src: &PotentialTable, out: &mut PotentialTable) {
    debug_assert!(out.domain().is_subdomain_of(src.domain()));
    let plan = KernelPlan::new(src.domain(), out.domain());
    plan.marginalize(src.values(), out.values_mut());
}

/// Allocating variant of [`marginalize_into`].
pub fn marginalize(src: &PotentialTable, target: std::sync::Arc<Domain>) -> PotentialTable {
    let mut out = PotentialTable::zeros(target);
    marginalize_into(src, &mut out);
    out
}

/// The paper's **extension** primitive: multiplies a smaller-domain
/// message into a larger-domain table, `table[i] *= msg[m(i)]`.
pub fn extend_multiply(table: &mut PotentialTable, msg: &PotentialTable) {
    debug_assert!(msg.domain().is_subdomain_of(table.domain()));
    // The plan borrows the domain only during compilation, so no `Arc`
    // refcount bump is needed to appease the borrow checker.
    let plan = KernelPlan::new(table.domain(), msg.domain());
    plan.extend_multiply(table.values_mut(), msg.values());
}

/// The fused Hugin separator update: given the freshly marginalized
/// message, computes the `new/old` ratio and installs the new separator in
/// one pass — `ratio[t] = fresh[t] / sep[t]` (with `0/0 = 0`), then
/// `sep[t] = fresh[t]`. Values are bitwise identical to the historical
/// divide-then-swap sequence; only the table shuffling is gone.
pub fn sep_update(fresh: &[f64], sep: &mut [f64], ratio: &mut [f64]) {
    debug_assert_eq!(fresh.len(), sep.len());
    debug_assert_eq!(fresh.len(), ratio.len());
    for ((&f, s), r) in fresh.iter().zip(sep).zip(ratio) {
        *r = safe_div(f, *s);
        *s = f;
    }
}

/// The ratio-forming half of [`sep_update`] against a **saved** separator:
/// `msg[t] = msg[t] / saved[t]` in place (with `0/0 = 0`), leaving `saved`
/// untouched. Incremental re-propagation keeps each separator's collect
/// message in a saved slab region that later delta updates still need, so
/// the distribute ratio must fold into the fresh message rather than
/// overwrite the divisor. The quotient bits are identical to
/// [`sep_update`]'s `ratio` output — same [`safe_div`], same operands —
/// only the destination differs.
pub fn sep_ratio(msg: &mut [f64], saved: &[f64]) {
    debug_assert_eq!(msg.len(), saved.len());
    for (m, &s) in msg.iter_mut().zip(saved) {
        *m = safe_div(*m, s);
    }
}

/// The paper's **reduction** primitive on a table: zeroes every entry
/// inconsistent with the observation `var = state`, leaving the table
/// size unchanged (as in FastBN). [`VarAxis::select`] is the kernel.
pub fn reduce_evidence(table: &mut PotentialTable, var: VarId, state: usize) {
    VarAxis::of(table.domain(), var).select(table.values_mut(), state);
}

/// Single-variable marginal of a table: sums all entries by the state of
/// `var`. Returns a vector of length `card(var)` (unnormalized).
/// [`VarAxis::marginal`] is the kernel.
// fastbn: allow(hot-alloc): allocating convenience form for one-shot
// callers.
pub fn marginal_of_var(table: &PotentialTable, var: VarId) -> Vec<f64> {
    let axis = VarAxis::of(table.domain(), var);
    let mut out = vec![0.0; axis.card];
    axis.marginal(table.values(), &mut out);
    out
}

/// One variable's place in a row-major table: the table is
/// `blocks × card × stride` entries, and entry `i` holds state
/// `(i / stride) % card` of the variable. The **single-variable
/// kernels** — [`VarAxis::select`] (a hard finding), [`VarAxis::marginal`]
/// (a posterior read) and [`VarAxis::scale`] (a likelihood) — walk that
/// shape directly, without decoding an index or compiling a plan: a
/// stride-1 arm when the variable is the table's fastest (each block is
/// `card` consecutive entries) and a strided arm, over contiguous stride
/// segments, otherwise.
///
/// Bit-identity: `select` writes `+0.0` to exactly the inconsistent
/// entries and leaves the rest untouched, and `select_from` — the same
/// finding as a table's first write, reading another copy of its values
/// — leaves the same bits; `marginal` starts each state's
/// sum at `0.0` and adds its entries in ascending index, the chain of a
/// flat scan; `scale` forms each product `values[i] · factors[s]` once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarAxis {
    /// Entries between consecutive states of the variable.
    pub stride: usize,
    /// The variable's cardinality.
    pub card: usize,
}

impl VarAxis {
    /// `var`'s axis in tables over `domain` (which must contain it).
    pub fn of(domain: &Domain, var: VarId) -> Self {
        VarAxis {
            stride: domain.stride_of(var),
            card: domain.card_of(var),
        }
    }

    /// Hard finding: zeroes every entry whose state is not `state`.
    pub fn select(self, values: &mut [f64], state: usize) {
        debug_assert!(state < self.card);
        if self.stride == 1 {
            for block in values.chunks_exact_mut(self.card) {
                for (s, v) in block.iter_mut().enumerate() {
                    if s != state {
                        *v = 0.0;
                    }
                }
            }
        } else {
            let (keep, stride) = (state * self.stride, self.stride);
            for block in values.chunks_exact_mut(stride * self.card) {
                block[..keep].fill(0.0);
                block[keep + stride..].fill(0.0);
            }
        }
    }

    /// Hard finding as a table's first write: `dst` becomes `src` with
    /// every entry whose state is not `state` zeroed, in one pass —
    /// bitwise what copying `src` into `dst` and then
    /// [`VarAxis::select`] leaves (the kept entries copied, `+0.0`
    /// everywhere else).
    pub fn select_from(self, src: &[f64], dst: &mut [f64], state: usize) {
        debug_assert!(state < self.card);
        debug_assert_eq!(src.len(), dst.len());
        if self.stride == 1 {
            let blocks = dst
                .chunks_exact_mut(self.card)
                .zip(src.chunks_exact(self.card));
            for (out, from) in blocks {
                for (s, (d, &v)) in out.iter_mut().zip(from).enumerate() {
                    *d = if s == state { v } else { 0.0 };
                }
            }
        } else {
            let (keep, stride) = (state * self.stride, self.stride);
            let block = stride * self.card;
            for (out, from) in dst.chunks_exact_mut(block).zip(src.chunks_exact(block)) {
                out[..keep].fill(0.0);
                out[keep..keep + stride].copy_from_slice(&from[keep..keep + stride]);
                out[keep + stride..].fill(0.0);
            }
        }
    }

    /// Unnormalized marginal: `out[s]` (overwritten) is the sum of the
    /// entries in state `s`, in ascending index.
    ///
    /// The states' sums are independent chains, so they advance side by
    /// side — entry `e` of every state's segment, then entry `e + 1` —
    /// with the sums in registers for cardinalities 2 to 8: a clique's
    /// outermost variable no longer waits on one state's whole segment
    /// before the next state's starts.
    pub fn marginal(self, values: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.card);
        out.fill(0.0);
        match self.card {
            2 => marginal_side::<2>(values, self.stride, out),
            3 => marginal_side::<3>(values, self.stride, out),
            4 => marginal_side::<4>(values, self.stride, out),
            5 => marginal_side::<5>(values, self.stride, out),
            6 => marginal_side::<6>(values, self.stride, out),
            7 => marginal_side::<7>(values, self.stride, out),
            8 => marginal_side::<8>(values, self.stride, out),
            card => {
                for block in values.chunks_exact(self.stride * card) {
                    for e in 0..self.stride {
                        for (s, slot) in out.iter_mut().enumerate() {
                            *slot += block[s * self.stride + e];
                        }
                    }
                }
            }
        }
    }

    /// Likelihood: multiplies every entry in state `s` by `factors[s]`.
    pub fn scale(self, values: &mut [f64], factors: &[f64]) {
        debug_assert_eq!(factors.len(), self.card);
        if self.stride == 1 {
            for block in values.chunks_exact_mut(self.card) {
                for (v, &f) in block.iter_mut().zip(factors) {
                    *v *= f;
                }
            }
        } else {
            for block in values.chunks_exact_mut(self.stride * self.card) {
                for (seg, &f) in block.chunks_exact_mut(self.stride).zip(factors) {
                    for v in seg {
                        *v *= f;
                    }
                }
            }
        }
    }
}

/// [`VarAxis::marginal`] for a variable of `N` states: per block, each
/// state's segment of `stride` entries, all `N` segments in lockstep.
// The entry index walks all `N` segments in lockstep.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn marginal_side<const N: usize>(values: &[f64], stride: usize, out: &mut [f64]) {
    let mut acc = [0.0; N];
    for block in values.chunks_exact(stride * N) {
        let segs: [&[f64]; N] = std::array::from_fn(|s| &block[s * stride..(s + 1) * stride]);
        for e in 0..stride {
            for s in 0..N {
                acc[s] += segs[s][e];
            }
        }
    }
    out.copy_from_slice(&acc);
}

/// Division with the Hugin `0/0 = 0` convention.
#[inline]
pub fn safe_div(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        debug_assert_eq!(n, 0.0, "nonzero / zero encountered in propagation");
        0.0
    } else {
        n / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn dom(pairs: &[(u32, usize)]) -> Arc<Domain> {
        Arc::new(Domain::new(
            pairs.iter().map(|&(v, c)| (VarId(v), c)).collect(),
        ))
    }

    /// Brute-force marginalization via full decode, for cross-checking.
    fn marginalize_reference(src: &PotentialTable, target: &Arc<Domain>) -> Vec<f64> {
        let mut out = vec![0.0; target.size()];
        let mut states = vec![0usize; src.domain().num_vars()];
        for i in 0..src.len() {
            src.domain().decode(i, &mut states);
            let t: usize = target
                .vars()
                .iter()
                .map(|&v| {
                    let pos = src.domain().position_of(v).unwrap();
                    states[pos] * target.stride_of(v)
                })
                .sum();
            out[t] += src.values()[i];
        }
        out
    }

    fn ramp_table(domain: Arc<Domain>) -> PotentialTable {
        let values: Vec<f64> = (0..domain.size()).map(|i| (i + 1) as f64).collect();
        PotentialTable::from_values(domain, values)
    }

    #[test]
    fn marginalize_matches_reference() {
        let src_dom = dom(&[(0, 2), (1, 3), (2, 2), (4, 2)]);
        let src = ramp_table(src_dom);
        for target_vars in [vec![(1u32, 3usize)], vec![(0, 2), (2, 2)], vec![(4, 2)]] {
            let tgt = dom(&target_vars);
            let got = marginalize(&src, tgt.clone());
            assert_eq!(got.values(), marginalize_reference(&src, &tgt).as_slice());
        }
    }

    #[test]
    fn marginalize_to_same_domain_is_identity() {
        let d = dom(&[(0, 2), (1, 2)]);
        let src = ramp_table(d.clone());
        let got = marginalize(&src, d);
        assert_eq!(got.values(), src.values());
    }

    #[test]
    fn marginalize_to_scalar_is_total_sum() {
        let src = ramp_table(dom(&[(0, 3), (1, 4)]));
        let got = marginalize(&src, Arc::new(Domain::scalar()));
        assert_eq!(got.values(), &[src.sum()]);
    }

    #[test]
    fn marginalization_order_independence() {
        // Summing out B then C equals summing out {B, C} directly.
        let src = ramp_table(dom(&[(0, 2), (1, 3), (2, 4)]));
        let mid = marginalize(&src, dom(&[(0, 2), (2, 4)]));
        let two_step = marginalize(&mid, dom(&[(0, 2)]));
        let one_step = marginalize(&src, dom(&[(0, 2)]));
        for (a, b) in two_step.values().iter().zip(one_step.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn extend_multiply_matches_pointwise_definition() {
        let cd = dom(&[(0, 2), (1, 3)]);
        let md = dom(&[(1, 3)]);
        let mut clique = ramp_table(cd.clone());
        let msg = PotentialTable::from_values(md, vec![2.0, 0.5, 1.0]);
        extend_multiply(&mut clique, &msg);
        for s0 in 0..2 {
            for s1 in 0..3 {
                let original = (cd.index_of(&[s0, s1]) + 1) as f64;
                assert_eq!(clique.value_at(&[s0, s1]), original * msg.values()[s1]);
            }
        }
    }

    #[test]
    fn extend_then_marginalize_roundtrip() {
        // ones(sup) *= msg, then marginalize back to msg's domain:
        // every msg entry is multiplied by |sup| / |msg| (the fiber size).
        let sup = dom(&[(0, 2), (1, 3), (2, 2)]);
        let sub = dom(&[(1, 3)]);
        let msg = PotentialTable::from_values(sub.clone(), vec![0.2, 0.3, 0.5]);
        let mut table = PotentialTable::ones(sup.clone());
        extend_multiply(&mut table, &msg);
        let back = marginalize(&table, sub);
        let fiber = (sup.size() / 3) as f64;
        for (b, m) in back.values().iter().zip(msg.values()) {
            assert!((b - m * fiber).abs() < 1e-12);
        }
    }

    #[test]
    fn divide_handles_zero_over_zero() {
        // Both separator-division forms share `safe_div`: 0/0 = 0.
        let fresh = [0.0, 0.6];
        let mut sep = [0.0, 0.3];
        let mut ratio = [f64::NAN; 2];
        sep_update(&fresh, &mut sep, &mut ratio);
        assert_eq!(ratio[0], 0.0);
        assert!((ratio[1] - 2.0).abs() < 1e-12);
        assert_eq!(sep, fresh);

        let mut msg = [0.0, 0.6];
        sep_ratio(&mut msg, &[0.0, 0.3]);
        assert_eq!(msg.map(f64::to_bits), ratio.map(f64::to_bits));
    }

    #[test]
    fn reduce_evidence_zeroes_inconsistent_entries() {
        let d = dom(&[(0, 2), (1, 3)]);
        let mut t = ramp_table(d.clone());
        reduce_evidence(&mut t, VarId(1), 2);
        for s0 in 0..2 {
            for s1 in 0..3 {
                let v = t.value_at(&[s0, s1]);
                if s1 == 2 {
                    assert_eq!(v, (d.index_of(&[s0, s1]) + 1) as f64);
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        }
        // Reduction then marginalization = slicing.
        let m = marginal_of_var(&t, VarId(1));
        assert_eq!(m[0], 0.0);
        assert_eq!(m[1], 0.0);
        assert!(m[2] > 0.0);
    }

    #[test]
    fn reduce_on_fastest_and_slowest_vars() {
        let d = dom(&[(0, 3), (1, 2)]);
        let mut slow = ramp_table(d.clone());
        reduce_evidence(&mut slow, VarId(0), 1); // slowest (stride 2)
        for s0 in 0..3 {
            for s1 in 0..2 {
                assert_eq!(slow.value_at(&[s0, s1]) != 0.0, s0 == 1);
            }
        }
        let mut fast = ramp_table(d);
        reduce_evidence(&mut fast, VarId(1), 0); // fastest (stride 1)
        for s0 in 0..3 {
            assert!(fast.value_at(&[s0, 0]) != 0.0);
            assert_eq!(fast.value_at(&[s0, 1]), 0.0);
        }
    }

    #[test]
    fn marginal_of_var_matches_full_marginalize() {
        let src = ramp_table(dom(&[(0, 2), (1, 3), (2, 2)]));
        let quick = marginal_of_var(&src, VarId(1));
        let full = marginalize(&src, dom(&[(1, 3)]));
        assert_eq!(quick.as_slice(), full.values());
    }

    #[test]
    fn multiply_into_same_domain() {
        // Same scope on both sides: the identity plan, element-wise.
        let d = dom(&[(0, 2)]);
        let mut a = PotentialTable::from_values(d.clone(), vec![2.0, 3.0]);
        let b = PotentialTable::from_values(d, vec![0.5, 2.0]);
        extend_multiply(&mut a, &b);
        assert_eq!(a.values(), &[1.0, 6.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nonzero / zero")]
    fn nonzero_over_zero_asserts_in_debug() {
        safe_div(1.0, 0.0);
    }
}

//! Parallel potential-table operations: one pool region per call.
//!
//! These are the seven entry points the fine-grained baseline
//! configurations of the inference driver run — `Primitive` the
//! plan-based ones, `Element` the mapped ones — one region per table
//! operation, which is the cost shape those baselines exist to show. (The
//! hybrid configuration does not come through here: it packs a whole
//! layer into one region and calls the chunkable plan kernels itself.)
//!
//! Every operation parallelizes over **output** entries, so no two tasks
//! ever write the same slot and no atomics are needed on the value arrays.
//! All take raw `f64` slices (slab regions) and allocate nothing per call.
//!
//! * [`marginalize_plan_par`], [`extend_multiply_plan_par`] execute a
//!   precompiled [`KernelPlan`] chunk by chunk: each chunk pays one `seek`
//!   (a single mixed-radix decode) and then streams incrementally — the
//!   paper's "parallelize the index mapping computations of different
//!   potential table entries".
//! * [`sep_update_par`], [`reduce_evidence_slice_par`] need no mapping.
//! * [`materialize_map_par`] and the two `*_mapped_slice_par` functions are
//!   the two-pass GPU style: pass one materializes a whole index-mapping
//!   array (once per network), pass two applies it. Identical results with
//!   more memory traffic — the overhead the paper's hybrid design avoids.
//!
//! fastbn: audited-raw-ptr
//! fastbn: deny-hot-alloc

use fastbn_parallel::{Schedule, ThreadPool};

use crate::domain::Domain;
use crate::index_map::{embedding_strides, Odometer};
use crate::ops::safe_div;
use crate::plan::KernelPlan;

/// Raw-pointer wrapper allowing disjoint chunks to write a shared output
/// slice. Soundness: callers only ever hand each chunk the sub-slice
/// `[start, end)` it owns, and chunks are disjoint by construction.
struct SharedMut<T>(*mut T);
// SAFETY: sending/sharing the pointer is sound because each chunk
// closure only touches the disjoint `[start, end)` range it is handed
// (see `SharedMut::range`).
unsafe impl<T: Send> Send for SharedMut<T> {}
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }

    /// # Safety
    /// `[start, end)` must be in bounds and disjoint from every other
    /// concurrently handed-out range (which is why a `&self` receiver can
    /// soundly produce a `&mut` here — exclusivity is established by the
    /// chunk schedule, not the borrow checker).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn range(&self, start: usize, end: usize) -> &mut [T] {
        // SAFETY: in-bounds and disjoint per the caller contract above.
        unsafe { std::slice::from_raw_parts_mut(self.get().add(start), end - start) }
    }
}

/// Parallel plan-based marginalization over raw slices: for each target
/// entry, sums its source fiber in ascending source order (bit-identical
/// to the sequential scan). Allocation-free.
pub fn marginalize_plan_par(
    pool: &ThreadPool,
    sched: Schedule,
    plan: &KernelPlan,
    src: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(src.len(), plan.sup_size());
    debug_assert_eq!(out.len(), plan.sub_size());
    let out_ptr = SharedMut(out.as_mut_ptr());
    pool.parallel_for_chunks(0..plan.sub_size(), sched, |start, end| {
        // SAFETY: chunks are disjoint sub-ranges of the output.
        let chunk = unsafe { out_ptr.range(start, end) };
        plan.marginalize_fold(src, start, end, |t, v| chunk[t - start] = v);
    });
}

/// Parallel plan-based extension over raw slices: `table[i] *= msg[m(i)]`.
/// Allocation-free.
pub fn extend_multiply_plan_par(
    pool: &ThreadPool,
    sched: Schedule,
    plan: &KernelPlan,
    table: &mut [f64],
    msg: &[f64],
) {
    debug_assert_eq!(table.len(), plan.sup_size());
    debug_assert_eq!(msg.len(), plan.sub_size());
    let ptr = SharedMut(table.as_mut_ptr());
    pool.parallel_for_chunks(0..plan.sup_size(), sched, |start, end| {
        // SAFETY: chunks are disjoint sub-ranges of the table.
        let chunk = unsafe { ptr.range(start, end) };
        plan.extend_multiply_range(chunk, msg, start);
    });
}

/// Parallel fused separator update: `ratio[t] = fresh[t] / sep[t]`
/// (`0/0 = 0`) then `sep[t] = fresh[t]` — the parallel twin of
/// [`crate::ops::sep_update`], bitwise identical to it (every entry is
/// independent and written exactly once).
pub fn sep_update_par(
    pool: &ThreadPool,
    sched: Schedule,
    fresh: &[f64],
    sep: &mut [f64],
    ratio: &mut [f64],
) {
    debug_assert_eq!(fresh.len(), sep.len());
    debug_assert_eq!(fresh.len(), ratio.len());
    let sep_ptr = SharedMut(sep.as_mut_ptr());
    let ratio_ptr = SharedMut(ratio.as_mut_ptr());
    pool.parallel_for_chunks(0..fresh.len(), sched, |start, end| {
        // SAFETY: chunks are disjoint sub-ranges of the sep output.
        let sep_chunk = unsafe { sep_ptr.range(start, end) };
        // SAFETY: likewise disjoint sub-ranges of the ratio output.
        let ratio_chunk = unsafe { ratio_ptr.range(start, end) };
        for ((&f, s), r) in fresh[start..end].iter().zip(sep_chunk).zip(ratio_chunk) {
            *r = safe_div(f, *s);
            *s = f;
        }
    });
}

/// Parallel slice-form reduction: zeroes entries inconsistent with
/// `var = state`, given the variable's stride and cardinality in the
/// slice's domain. One integer division per stride segment, not per
/// entry. Allocation-free.
pub fn reduce_evidence_slice_par(
    pool: &ThreadPool,
    sched: Schedule,
    values: &mut [f64],
    stride: usize,
    card: usize,
    state: usize,
) {
    debug_assert!(state < card);
    let len = values.len();
    let ptr = SharedMut(values.as_mut_ptr());
    pool.parallel_for_chunks(0..len, sched, |start, end| {
        let mut i = start;
        while i < end {
            let seg = i / stride; // which stride segment we are in
            let seg_state = seg % card;
            let seg_end = ((seg + 1) * stride).min(end);
            if seg_state != state {
                // SAFETY: [i, seg_end) ⊆ [start, end), this chunk's range.
                unsafe { ptr.range(i, seg_end) }.fill(0.0);
            }
            i = seg_end;
        }
    });
}

/// Element-engine pass 1: materializes the full `iter_domain → target`
/// index-mapping array in parallel.
// fastbn: allow(hot-alloc): pass-one map materialization — the Element
// engine's per-network precompute, not a per-query path.
pub fn materialize_map_par(
    pool: &ThreadPool,
    sched: Schedule,
    iter_domain: &Domain,
    target: &Domain,
) -> Vec<u32> {
    assert!(
        target.size() <= u32::MAX as usize,
        "mapping table exceeds u32 index range"
    );
    let strides = embedding_strides(iter_domain, target);
    let mut map = vec![0u32; iter_domain.size()];
    let ptr = SharedMut(map.as_mut_ptr());
    pool.parallel_for_chunks(0..iter_domain.size(), sched, |start, end| {
        let mut odo = Odometer::new(iter_domain.cards(), &strides);
        odo.seek(start);
        // SAFETY: chunks are disjoint sub-ranges of the map.
        let chunk = unsafe { ptr.range(start, end) };
        for slot in chunk {
            *slot = odo.mapped() as u32;
            odo.advance();
        }
    });
    map
}

/// Element-engine pass 2 (extension) over raw slices:
/// `table[i] *= msg[map[i]]`. Allocation-free.
pub fn extend_multiply_mapped_slice_par(
    pool: &ThreadPool,
    sched: Schedule,
    table: &mut [f64],
    msg: &[f64],
    map: &[u32],
) {
    debug_assert_eq!(map.len(), table.len());
    let len = table.len();
    let ptr = SharedMut(table.as_mut_ptr());
    pool.parallel_for_chunks(0..len, sched, |start, end| {
        // SAFETY: chunks are disjoint sub-ranges of the table.
        let chunk = unsafe { ptr.range(start, end) };
        for (i, v) in (start..end).zip(chunk) {
            *v *= msg[map[i] as usize];
        }
    });
}

/// Element-engine pass 2 (marginalization) over raw slices:
/// `out[t] = Σ_f src[bases[t] + fibers[f]]`, with `bases` produced by
/// [`materialize_map_par`] over `(target → source)`. Allocation-free.
pub fn marginalize_mapped_slice_par(
    pool: &ThreadPool,
    sched: Schedule,
    src: &[f64],
    out: &mut [f64],
    bases: &[u32],
    fibers: &[usize],
) {
    debug_assert_eq!(bases.len(), out.len());
    let len = out.len();
    let ptr = SharedMut(out.as_mut_ptr());
    pool.parallel_for_chunks(0..len, sched, |start, end| {
        // SAFETY: chunks are disjoint sub-ranges of the output.
        let chunk = unsafe { ptr.range(start, end) };
        for (t, slot) in (start..end).zip(chunk) {
            let base = bases[t] as usize;
            let mut acc = 0.0;
            for &off in fibers {
                acc += src[base + off];
            }
            *slot = acc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::table::PotentialTable;
    use fastbn_bayesnet::VarId;
    use std::sync::Arc;

    fn dom(pairs: &[(u32, usize)]) -> Arc<Domain> {
        Arc::new(Domain::new(
            pairs.iter().map(|&(v, c)| (VarId(v), c)).collect(),
        ))
    }

    fn pseudo_random_table(domain: Arc<Domain>, seed: u64) -> PotentialTable {
        // Tiny xorshift so this test has no RNG dependency.
        let mut state = seed.wrapping_mul(2685821657736338717).max(1);
        let values: Vec<f64> = (0..domain.size())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 1000.0
            })
            .collect();
        PotentialTable::from_values(domain, values)
    }

    fn pools() -> Vec<ThreadPool> {
        vec![ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(4)]
    }

    fn schedules() -> Vec<Schedule> {
        vec![
            Schedule::Static,
            Schedule::Dynamic { grain: 1 },
            Schedule::Dynamic { grain: 7 },
            Schedule::Dynamic { grain: 4096 },
        ]
    }

    #[test]
    fn marginalize_par_is_bit_identical_to_seq() {
        let src = pseudo_random_table(dom(&[(0, 3), (1, 2), (2, 4), (3, 2)]), 1);
        let tgt = dom(&[(1, 2), (3, 2)]);
        let plan = KernelPlan::new(src.domain(), &tgt);
        let expected = ops::marginalize(&src, tgt.clone());
        for pool in pools() {
            for sched in schedules() {
                let mut got = vec![f64::NAN; tgt.size()];
                marginalize_plan_par(&pool, sched, &plan, src.values(), &mut got);
                assert_eq!(&got[..], expected.values(), "{sched:?}");
            }
        }
    }

    #[test]
    fn extend_multiply_par_is_bit_identical_to_seq() {
        let base = pseudo_random_table(dom(&[(0, 2), (1, 3), (2, 2)]), 2);
        let msg = pseudo_random_table(dom(&[(1, 3)]), 3);
        let plan = KernelPlan::new(base.domain(), msg.domain());
        let mut expected = base.clone();
        ops::extend_multiply(&mut expected, &msg);
        for pool in pools() {
            for sched in schedules() {
                let mut got = base.values().to_vec();
                extend_multiply_plan_par(&pool, sched, &plan, &mut got, msg.values());
                assert_eq!(&got[..], expected.values(), "{sched:?}");
            }
        }
    }

    #[test]
    fn sep_update_par_matches_seq() {
        let n = 37usize;
        let fresh: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 0 { 0.0 } else { i as f64 })
            .collect();
        let sep0: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 0 { 0.0 } else { (i + 2) as f64 })
            .collect();
        let mut seq_sep = sep0.clone();
        let mut seq_ratio = vec![f64::NAN; n];
        ops::sep_update(&fresh, &mut seq_sep, &mut seq_ratio);
        for pool in pools() {
            for sched in schedules() {
                let mut sep = sep0.clone();
                let mut ratio = vec![f64::NAN; n];
                sep_update_par(&pool, sched, &fresh, &mut sep, &mut ratio);
                assert_eq!(sep, seq_sep, "{sched:?}");
                assert_eq!(ratio, seq_ratio, "{sched:?}");
            }
        }
    }

    #[test]
    fn reduce_evidence_par_matches_seq() {
        for (var, state) in [(VarId(0), 1usize), (VarId(1), 0), (VarId(2), 3)] {
            let d = dom(&[(0, 2), (1, 3), (2, 4)]);
            let (stride, card) = (d.stride_of(var), d.card_of(var));
            let base = pseudo_random_table(d, 6);
            let mut expected = base.clone();
            ops::reduce_evidence(&mut expected, var, state);
            for pool in pools() {
                for sched in schedules() {
                    let mut got = base.values().to_vec();
                    reduce_evidence_slice_par(&pool, sched, &mut got, stride, card, state);
                    assert_eq!(&got[..], expected.values(), "{var} {sched:?}");
                }
            }
        }
    }

    /// `iter → target` entry by entry: full decode, then re-encode the
    /// variables `target` keeps.
    fn decoded_map(iter_domain: &Domain, target: &Domain) -> Vec<u32> {
        let mut states = vec![0usize; iter_domain.num_vars()];
        (0..iter_domain.size())
            .map(|i| {
                iter_domain.decode(i, &mut states);
                let mapped: usize = target
                    .vars()
                    .iter()
                    .filter_map(|&v| {
                        Some(states[iter_domain.position_of(v)?] * target.stride_of(v))
                    })
                    .sum();
                mapped as u32
            })
            .collect()
    }

    #[test]
    fn materialize_map_par_matches_seq() {
        let sup = dom(&[(0, 3), (1, 2), (2, 2)]);
        let sub = dom(&[(0, 3), (2, 2)]);
        for pool in pools() {
            let sched = Schedule::Dynamic { grain: 2 };
            // Both directions: clique entry → separator slot, and
            // separator slot → base index in the clique.
            assert_eq!(
                materialize_map_par(&pool, sched, &sup, &sub),
                decoded_map(&sup, &sub)
            );
            assert_eq!(
                materialize_map_par(&pool, sched, &sub, &sup),
                decoded_map(&sub, &sup)
            );
        }
    }

    #[test]
    fn mapped_extension_and_marginalization_match_direct() {
        let sup = dom(&[(0, 2), (1, 3), (2, 2), (3, 2)]);
        let sub = dom(&[(1, 3), (3, 2)]);
        let src = pseudo_random_table(sup.clone(), 8);
        let msg = pseudo_random_table(sub.clone(), 9);
        let pool = ThreadPool::new(4);
        let sched = Schedule::Dynamic { grain: 5 };

        // Extension via mapping table.
        let mut direct = src.clone();
        ops::extend_multiply(&mut direct, &msg);
        let map = materialize_map_par(&pool, sched, &sup, &sub);
        let mut mapped = src.values().to_vec();
        extend_multiply_mapped_slice_par(&pool, sched, &mut mapped, msg.values(), &map);
        assert_eq!(&mapped[..], direct.values());

        // Marginalization via base mapping + the plan's fibers.
        let expect = ops::marginalize(&src, sub.clone());
        let bases = materialize_map_par(&pool, sched, &sub, &sup);
        let plan = KernelPlan::new(&sup, &sub);
        let mut got = vec![f64::NAN; sub.size()];
        marginalize_mapped_slice_par(&pool, sched, src.values(), &mut got, &bases, plan.fibers());
        assert_eq!(&got[..], expect.values());
    }

    #[test]
    fn plan_par_entry_points_match_table_forms() {
        let sup = dom(&[(0, 3), (1, 2), (2, 2), (3, 3)]);
        let sub = dom(&[(1, 2), (2, 2)]);
        let plan = KernelPlan::new(&sup, &sub);
        let src = pseudo_random_table(sup.clone(), 10);
        let msg = pseudo_random_table(sub.clone(), 11);
        let pool = ThreadPool::new(4);
        let sched = Schedule::Dynamic { grain: 3 };

        let mut expect_marg = PotentialTable::zeros(sub.clone());
        ops::marginalize_into(&src, &mut expect_marg);
        let mut got = vec![f64::NAN; sub.size()];
        marginalize_plan_par(&pool, sched, &plan, src.values(), &mut got);
        assert_eq!(&got[..], expect_marg.values());

        let mut expect_mul = src.clone();
        ops::extend_multiply(&mut expect_mul, &msg);
        let mut table = src.values().to_vec();
        extend_multiply_plan_par(&pool, sched, &plan, &mut table, msg.values());
        assert_eq!(&table[..], expect_mul.values());
    }
}

//! Precompiled kernel plans: everything the table ops of [`crate::ops`]
//! used to re-derive per call — embedding strides, fiber offsets, and a
//! layout classification — computed **once** per (source domain, target
//! domain) pair and replayed allocation-free ever after.
//!
//! A [`KernelPlan`] is directional: it maps a *superdomain* table (the
//! clique) onto a *subdomain* table (the separator or message). One plan
//! serves every op over that pair — marginalization, max-marginalization,
//! extension-multiply, and the fused collect kernel
//! [`multiply_marginalize`].
//!
//! # Two executions of one mapping
//!
//! Domains are row-major with the **last** (highest-id) variable fastest,
//! and variable lists are strictly ascending. A plan's mapping
//! `m(i) = Σ digit_v(i) · stride_sub(v)` is coalesced into runs of
//! consecutive entries and executed in one of two ways, chosen once, at
//! plan-compile time, from the superdomain's size alone:
//!
//! ## L2-resident tables: run programs
//!
//! A non-identity plan whose superdomain has at most
//! `RUN_PROGRAM_MAX_ENTRIES` = 32 768 entries is compiled into a **run
//! program** ([`KernelPlan::is_programmed`] says whether it was).
//! Cardinality-1 variables are dropped (they move neither
//! index), neighbouring variables with the same membership in the
//! subdomain are merged into one mixed-radix digit, and the innermost
//! merged group becomes a *run* of `r` consecutive source entries that
//! maps either onto `r` consecutive subdomain slots (the group belongs to
//! the subdomain) or onto one slot (it is summed out). The subdomain
//! index every run starts at is materialised: `bases[k]`, `u32`,
//! `sup_size / r` of them. The whole-table kernels — [`marginalize`],
//! [`extend_multiply`], [`max_marginalize`], the one-pass rebuild
//! [`extend_multiply_from`] and the two passes of
//! [`multiply_marginalize`] — are then
//! `for (run, base) in table.chunks_exact(r).zip(bases)` around a
//! stride-1 inner loop: no odometer, no digit array, no carry branch, no
//! layout `match`. A suffix separator compiles to all-zero bases (the
//! `InnerBlock` loop), a prefix separator to `bases = 0, 1, 2, …` (the
//! `OuterBlock` loop), a scattered one to whatever the mapping is; the
//! program replaces all three.
//!
//! The constant keeps a table and its program in the L2 cache: 32 768 ×
//! 8 B = 256 KiB of `f64`, plus at most 64 KiB of bases (a run holds at
//! least two entries, so there are at most 16 384 `u32`), against 2 MiB
//! of L2 per core on the machine the numbers below come from. A table
//! under it is cache-resident while a kernel runs, so the cost there is
//! instructions per entry, which is what the program removes. On the
//! 376-clique pigs analogue (tables of at most 729 entries, 55 % of
//! entries in `Generic` plans whose odometer carried — and mispredicted —
//! every third entry) the benchmark's kernel pass
//! (`potential.kernel_pass_us`) fell from 386 µs to 89 µs, 2.3 → 0.54 ns
//! per entry; a prototype of the same coalesced walk that stepped an
//! odometer over the merged groups instead of reading materialised bases
//! measured 110 µs. The same holds above one L1 (4 096 entries, where
//! the cut first sat). Whole-table `marginalize` / `extend_multiply` in
//! ns per entry over every plan of 4 097–32 768 entries (best of seven
//! passes, 2-core VM):
//!
//! | tables | blocked / per-entry odometer kernels | run program |
//! |---|---|---|
//! | pathfinder analogue (4 plans, 41 472 entries) | 0.98 / 0.90 | 0.36 / 0.22 |
//! | munin2 analogue (24 plans, 182 252 entries) | 1.23 / 1.07 | 0.38 / 0.29 |
//! | `few-large-cliques` (its 15 625-entry cliques) | 1.20 / 1.13 | 0.54 / 0.34 |
//!
//! ### Fixed-arity run loops
//!
//! With the mapping gone, what a small table still pays is the run loop
//! itself: per run, a trip count, a loop exit and a short inner loop that
//! cannot vectorize. Most runs are short — a binary or ternary innermost
//! variable, or two binary ones merged — so every program kernel
//! dispatches once per call on `(spread, run_len)`: run lengths 2, 3 and
//! 4 take a const-generic arm over `[f64; N]` runs whose inner loop
//! unrolls completely; every other length keeps the generic loop. The arm
//! is chosen by `run_len`, a property of the compiled plan; nothing else
//! selects it. Each arm visits runs and slots in the generic loop's order
//! and folds each slot from its current value, so the arm never changes
//! a bit. Whole-table `marginalize` / `extend_multiply` in ns per entry
//! over every programmed plan (best of fifteen passes, 2-core VM):
//!
//! | tables | generic run loop | fixed-arity arms |
//! |---|---|---|
//! | pigs analogue (702 plans, 87 012 entries, 44 % in 3-runs) | 0.73 / 0.87 | 0.51 / 0.44 |
//! | pathfinder analogue (128 plans, 88 296 entries, 24 % in 2- to 4-runs) | 0.47 / 0.49 | 0.38 / 0.31 |
//! | munin2 analogue (1 250 plans, 514 898 entries, 18 % in 2- to 4-runs) | 0.87 / 0.88 | 0.62 / 0.58 |
//!
//! On the benchmark's `small-cliques` workload (the pigs analogue) the
//! traced kernel pass (`potential.kernel_pass_us`) fell from 121–140 µs
//! to 67–69 µs with them (two traced runs each), 0.64–0.74 / 0.80–0.92
//! → 0.47–0.49 / 0.36–0.38 ns per entry.
//!
//! ## Larger tables, and every chunk: group walks
//!
//! Above the constant, and in every chunked kernel at any size, a plan
//! executes its **walk**: the same coalesced groups, with the run bases
//! stepped rather than materialised. The innermost group is a stride-1
//! run; the outer groups are a mixed-radix odometer whose innermost digit
//! is a plain loop, so a *row* of runs — up to that digit's cardinality —
//! is one call of a two-dimensional kernel and the odometer carries once
//! per row, never per entry. Rows of 2- to 8-entry runs take
//! const-generic arms that keep a spread run's slots in registers across
//! the row, or fold eight summed runs side by side; longer runs are
//! stride-1 loops. What the walk costs per entry over the 17 unprogrammed
//! plans of `few-large-cliques` (390 625- and 78 125-entry cliques, five
//! states per variable), entry-weighted ns per entry, one thread, best of
//! nine passes, 2-vCPU VM:
//!
//! | kernel | per-entry odometer | walk |
//! |---|---|---|
//! | [`marginalize`] | 2.67 | 0.44 |
//! | [`extend_multiply`] | 2.53 | 0.43 |
//! | [`extend_multiply_range`] (8 chunks) | 3.13 | 0.50 |
//! | [`multiply_marginalize`] | 4.65 | 0.91 |
//!
//! The chunked forms are cut where a parallel caller cuts:
//!
//! * [`extend_multiply_range`] / [`extend_multiply_range_from`] take any
//!   entry range: a run cut by either end is a row of one piece.
//! * [`marginalize_range`] takes a range of separator slots in whole
//!   digits of the separator's outermost variables
//!   ([`KernelPlan::slot_unit`]). Those slots read one contiguous
//!   stretch of the clique per digit of the (at most one) summed group
//!   outside them ([`KernelPlan::footprint`]), which the row kernels
//!   stream front to back; where those variables are the clique's
//!   outermost too ([`KernelPlan::block_entries`]), an entry range cut at
//!   their digits is the whole source of its slots, and a caller that has
//!   just written it folds it on the spot ([`KernelPlan::marginalize_add`]).
//! * [`marginalize_fold`], the per-slot form, folds up to 32 slots of the
//!   separator's innermost group side by side — adjacent entries of each
//!   fiber when that group is the clique's fastest, adjacent summed runs
//!   (eight at a time) when it is not — each lane its own slot's chain.
//!
//! [`KernelPlan::layout`] still reports the [`Layout`] classification of
//! every plan; only `Identity` (copy / element-wise) changes what runs.
//!
//! Why a cut at all, when both sides are coalesced: the program's bases
//! cost memory and a stream of their own — one `u32` per run, which on a
//! table of five-entry runs is a tenth of the table's own bytes — and
//! under the constant they sit in L2 beside the table, above it they
//! would not. The walk needs no bases and reaches the rates above
//! without them, so tables past the L2 compile nothing per entry and a
//! model's set-up time and footprint do not grow with its tables.
//! An earlier version of this note kept large tables on per-entry
//! odometers because "one core saturates the shared cache's bandwidth, so
//! a faster kernel leaves the second core nothing to add". Measured since:
//! a 10 MB scale pass takes 521 µs on one warm thread and 339 µs split
//! over two, and two concurrent single-thread `Seq` processes each
//! propagated in 5.3–5.7 ms against 5.3 ms alone while the kernels were
//! odometers. With the walks the bandwidth is shared, not saturated: two
//! concurrent `Seq` processes slow from 4.3–4.9 ms to 5.5–6.2 ms per
//! `few-large-cliques` query each, so
//! the hybrid engine keeps its second core's share by moving less memory
//! than `Seq` (one pass per receiver for all its ratios, separators sent
//! one layer ahead from cache — `fastbn-inference`'s driver), not by
//! running slower kernels. Tables under the cut are still the ones the
//! hybrid engine never splits across a pool region (the driver counts
//! only unprogrammed entries toward a region).
//!
//! # Bit-identity
//!
//! Every execution preserves the repo-wide determinism contract: each
//! output slot's f64 addition chain starts from `0.0` and visits its
//! source entries in ascending source index. A run program and a walk
//! both go through the source front to back and fold each run into its
//! slot(s), continuing from what earlier runs left there; the fixed
//! arms and the side-by-side folds only keep independent slots' chains
//! in registers, each in its own order; a ranged or per-slot form owns
//! whole slots and folds each slot's entries — all in its range or its
//! footprint — in ascending order. So every slot sees the same chain,
//! whichever side of the constant a table falls on and however a caller
//! cuts it. Max-marginalization keeps the first of equal maxima under
//! the same visiting order. Extension writes each entry exactly once, so
//! only the product's operands matter, and they are identical across
//! paths — and for the one-pass rebuild, which forms the same products
//! from a source table into a destination instead of in place.
//!
//! [`marginalize`]: KernelPlan::marginalize
//! [`extend_multiply`]: KernelPlan::extend_multiply
//! [`extend_multiply_from`]: KernelPlan::extend_multiply_from
//! [`max_marginalize`]: KernelPlan::max_marginalize
//! [`marginalize_fold`]: KernelPlan::marginalize_fold
//! [`extend_multiply_range`]: KernelPlan::extend_multiply_range
//! [`extend_multiply_range_from`]: KernelPlan::extend_multiply_range_from
//! [`marginalize_range`]: KernelPlan::marginalize_range
//!
//! fastbn: deny-hot-alloc

use std::ops::Range;

use crate::domain::Domain;
use crate::index_map::{embedding_strides, fiber_offsets};

/// Upper bound on superdomain variables for the inline odometer digits.
/// A table over more than 32 discrete variables has at least 2³³ entries
/// (≥ 64 GiB of f64), far beyond anything this engine targets, so the
/// bound is enforced with a hard assert rather than a heap fallback.
pub const MAX_PLAN_VARS: usize = 32;

/// Largest superdomain, in entries, that is compiled into a run program:
/// 32 768 `f64` = 256 KiB plus at most 64 KiB of bases, so the table and
/// its program are both L2-resident while a kernel runs (see the module
/// header for why larger tables walk their groups instead).
pub const RUN_PROGRAM_MAX_ENTRIES: usize = 32_768;

/// The shortest source stretch a [`KernelPlan::slot_unit`] may read: 512
/// `f64` = 4 KiB. Each stretch of a ranged kernel starts with a
/// mixed-radix seek of the walk, which this keeps to a few percent of
/// the stretch, and two ranges then share at most the cache lines at
/// their ends.
const STRETCH_MIN: usize = 512;

/// Summed runs folded side by side, each into its own slot: eight chains
/// keep the adder busy, and eight scalar accumulators stay in registers.
const SIDE: usize = 8;

/// Output slots [`KernelPlan::marginalize_fold`] folds side by side: 32
/// independent addition chains, each a separate slot's, so a fold is
/// bound by load throughput rather than by the latency of one chain.
const LANES: usize = 32;

/// How the subdomain's variables sit inside the superdomain's memory
/// layout — a report of the mapping's shape (the kernels execute the
/// plan's walk or run program whatever it says, except that an
/// `Identity` plan copies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Sub and sup are the same domain: marginalize = copy, extend =
    /// element-wise.
    Identity,
    /// Sub is the fastest-varying (suffix) block: `mapped(i) = i % sub`.
    InnerBlock,
    /// Sub is the slowest-varying (prefix) block: `mapped(i) = i / fiber`,
    /// with `fiber = sup_size / sub_size` consecutive entries per slot.
    OuterBlock {
        /// Number of consecutive superdomain entries sharing one
        /// subdomain slot.
        fiber_len: usize,
    },
    /// Scattered variables.
    Generic,
}

/// A precompiled (superdomain → subdomain) index mapping with all derived
/// arrays and the layout classification. Build once (allocates), execute
/// forever (allocation-free).
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// Ascending source offsets of the summed-out completions; each output
    /// slot's value is `Σ src[base + fibers[k]]`.
    fibers: Box<[usize]>,
    sup_size: usize,
    sub_size: usize,
    layout: Layout,
    /// The coalesced walk every kernel of a non-identity plan runs, except
    /// the whole-table kernels of a programmed one.
    walk: Walk,
    /// The compiled run program of a small, non-identity plan (see the
    /// module header); when present the whole-table kernels execute it
    /// instead of the walk.
    program: Option<RunProgram>,
}

impl KernelPlan {
    /// Compiles the plan for mapping `sup` tables onto `sub` tables.
    /// `sub` must be a subdomain of `sup`.
    pub fn new(sup: &Domain, sub: &Domain) -> Self {
        assert!(
            sub.is_subdomain_of(sup),
            "kernel plan target must be a subdomain of the source"
        );
        assert!(
            sup.num_vars() <= MAX_PLAN_VARS,
            "table scope exceeds {MAX_PLAN_VARS} variables (≥ 2^33 entries)"
        );
        let layout = classify(sup, sub);
        let ext_strides = embedding_strides(sup, sub);
        let base_strides = embedding_strides(sub, sup);
        let program = (layout != Layout::Identity && sup.size() <= RUN_PROGRAM_MAX_ENTRIES)
            .then(|| RunProgram::compile(sup.cards(), &ext_strides, sub.size()));
        KernelPlan {
            fibers: fiber_offsets(sup, sub).into(),
            sup_size: sup.size(),
            sub_size: sub.size(),
            layout,
            walk: Walk::compile(sup.cards(), &ext_strides, sub.cards(), &base_strides),
            program,
        }
    }

    /// Superdomain table size.
    #[inline]
    pub fn sup_size(&self) -> usize {
        self.sup_size
    }

    /// Subdomain table size.
    #[inline]
    pub fn sub_size(&self) -> usize {
        self.sub_size
    }

    /// The layout classification of this plan's mapping (reported for
    /// every plan; only `Identity` changes what the kernels execute).
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Whether the whole-table kernels of this plan execute a compiled
    /// run program: `true` for a non-identity plan whose superdomain has
    /// at most [`RUN_PROGRAM_MAX_ENTRIES`] entries. The chunked forms
    /// ([`KernelPlan::marginalize_fold`],
    /// [`KernelPlan::extend_multiply_range`]) walk the plan's groups
    /// either way, so a caller that could split the table across workers
    /// learns here what running it whole costs.
    #[inline]
    pub fn is_programmed(&self) -> bool {
        self.program.is_some()
    }

    /// Ascending source offsets of the summed-out completions.
    #[inline]
    pub fn fibers(&self) -> &[usize] {
        &self.fibers
    }

    /// Where a caller cutting this plan's separator into
    /// [`KernelPlan::marginalize_range`] ranges should cut: at multiples
    /// of this many slots. A range is whole digits of the subdomain's
    /// outermost member variables, and reads one contiguous stretch of
    /// the source per digit of the summed variables outside them; the
    /// unit is the fewest digits whose stretch holds 512 entries. Where
    /// even all digits fall short — say a single variable that is the
    /// clique's fastest, whose every slot reads one entry of each cache
    /// line — the unit is the whole subdomain.
    #[inline]
    pub fn slot_unit(&self) -> usize {
        if self.layout == Layout::Identity {
            return 1;
        }
        let (card, inner) = self.walk.head;
        let digits = STRETCH_MIN.div_ceil(inner);
        if digits >= card {
            return self.sub_size;
        }
        digits * (self.sub_size / card)
    }

    /// Marginalization onto the slots `[lo, lo + out.len())`, whose ends
    /// must fall on digits of the subdomain's outermost member variables
    /// (multiples of [`KernelPlan::slot_unit`], or the subdomain's end):
    /// `out[t - lo]` is slot `t` of [`KernelPlan::marginalize`], bit for
    /// bit. It streams only the source stretches those slots read, through
    /// the same row kernels as the whole-table walk, in ascending source
    /// order — the chunked form the hybrid engine's separator tasks run.
    pub fn marginalize_range(&self, src: &[f64], lo: usize, out: &mut [f64]) {
        debug_assert_eq!(src.len(), self.sup_size);
        debug_assert!(lo + out.len() <= self.sub_size);
        if out.len() == self.sub_size {
            return self.marginalize(src, out);
        }
        if self.layout == Layout::Identity {
            return out.copy_from_slice(&src[lo..lo + out.len()]);
        }
        out.fill(0.0);
        for stretch in self.footprint(lo, lo + out.len()) {
            let start = stretch.start;
            self.marginalize_add(&src[stretch], start, out, lo);
        }
    }

    /// The source stretches, ascending, that the slots `[lo, hi)` read —
    /// ends on digits of the subdomain's outermost member variables, as
    /// for [`KernelPlan::marginalize_range`]: one per digit of the summed
    /// variables outside them (a single stretch when they are the table's
    /// outermost, see [`KernelPlan::block_entries`]).
    pub fn footprint(&self, lo: usize, hi: usize) -> impl Iterator<Item = Range<usize>> {
        let (card, inner) = self.walk.head;
        let digit = (self.sub_size / card).max(1);
        debug_assert!(
            lo.is_multiple_of(digit) && hi.is_multiple_of(digit),
            "cut inside a digit"
        );
        let (first, len) = (lo / digit * inner, (hi - lo) / digit * inner);
        (first..self.sup_size)
            .step_by(card * inner)
            .map(move |start| start..start + len)
    }

    /// Folds the source entries `[lo, lo + part.len())` — `part` — into
    /// their slots, slot `t` at `out[t - first]`, continuing each slot's
    /// sum in ascending source order: `out` zeroed, then the stretches of
    /// [`KernelPlan::footprint`] in order, give those slots of
    /// [`KernelPlan::marginalize`] bit for bit. Every slot `part` feeds
    /// must lie in `out`.
    pub fn marginalize_add(&self, part: &[f64], lo: usize, out: &mut [f64], first: usize) {
        debug_assert!(lo + part.len() <= self.sup_size);
        if self.layout == Layout::Identity {
            return out[lo - first..][..part.len()].copy_from_slice(part);
        }
        self.walk
            .accumulate(part, lo, out, first, &|acc, v| acc + v);
    }

    /// Source entries per digit of the subdomain's outermost member
    /// variables when those are the table's outermost (non-unit)
    /// variables too — `Some(inner)`: then the entries of one digit,
    /// `[g · inner, (g + 1) · inner)`, are the whole source of that
    /// digit's slots, and a caller that has just written an entry range
    /// cut at multiples of `inner` can marginalize it on the spot
    /// ([`KernelPlan::marginalize_add`]). `None` when a summed-out
    /// variable is outermost (every slot then reads every stretch), for a
    /// scalar subdomain, and for an `Identity` plan.
    #[inline]
    pub fn block_entries(&self) -> Option<usize> {
        let (card, inner) = self.walk.head;
        let owns = self.layout != Layout::Identity && card > 1 && card * inner == self.sup_size;
        owns.then_some(inner)
    }

    /// Source entries per digit of the subdomain's outermost member
    /// variables: every stretch of [`KernelPlan::footprint`] starts and
    /// ends at a multiple of it.
    #[inline]
    pub fn digit_entries(&self) -> usize {
        self.walk.head.1
    }

    /// The first slot fed by source entry `entry`, a multiple of
    /// [`KernelPlan::block_entries`] (or the table's end).
    #[inline]
    pub fn block_slot(&self, entry: usize) -> usize {
        let (card, inner) = self.walk.head;
        entry / inner * (self.sub_size / card)
    }

    /// Marginalization: `out[m(i)] += src[i]`, `out` overwritten. Each
    /// output slot accumulates its fiber in ascending source order.
    pub fn marginalize(&self, src: &[f64], out: &mut [f64]) {
        debug_assert_eq!(src.len(), self.sup_size);
        debug_assert_eq!(out.len(), self.sub_size);
        if let Some(program) = &self.program {
            return program.reduce(src, out, 0.0, |acc, v| acc + v);
        }
        if self.layout == Layout::Identity {
            return out.copy_from_slice(src);
        }
        self.reduce(src, out, 0.0, |acc, v| acc + v);
    }

    /// Per-output-slot marginalization over the slot range `[lo, hi)`:
    /// calls `f(t, value)` for each target slot `t`, in ascending `t`.
    /// Bit-identical to [`KernelPlan::marginalize`] (each slot sums its
    /// fiber in ascending source order); this is the chunkable form the
    /// parallel kernels and the hybrid engine's flattened sep phase
    /// consume.
    #[inline]
    pub fn marginalize_fold(&self, src: &[f64], lo: usize, hi: usize, f: impl FnMut(usize, f64)) {
        debug_assert!(hi <= self.sub_size);
        if self.layout == Layout::Identity {
            let mut f = f;
            for (t, &v) in src.iter().enumerate().take(hi).skip(lo) {
                f(t, v);
            }
            return;
        }
        self.walk
            .fold(src, &self.fibers, lo, hi, 0.0, |acc, v| acc + v, f);
    }

    /// Max-marginalization: `out[m(i)] = max(out[m(i)], src[i])`, `out`
    /// overwritten (initialized to `-inf`).
    pub fn max_marginalize(&self, src: &[f64], out: &mut [f64]) {
        debug_assert_eq!(src.len(), self.sup_size);
        debug_assert_eq!(out.len(), self.sub_size);
        let max = |acc, v| if v > acc { v } else { acc };
        if let Some(program) = &self.program {
            return program.reduce(src, out, f64::NEG_INFINITY, max);
        }
        if self.layout == Layout::Identity {
            return out.copy_from_slice(src);
        }
        self.reduce(src, out, f64::NEG_INFINITY, max);
    }

    /// The walk's whole-table reduction: every slot folds its entries
    /// from `init` in ascending source order ([`Walk::accumulate`]).
    #[inline]
    fn reduce(&self, src: &[f64], out: &mut [f64], init: f64, fold: impl Fn(f64, f64) -> f64) {
        out.fill(init);
        self.walk.accumulate(src, 0, out, 0, &fold);
    }

    /// One-pass rebuild: `dst[i] = src[i] · msg[m(i)]`, `dst` overwritten
    /// — the first write of a table whose current values live elsewhere:
    /// a live session's saved snapshot, or a query's initial slab. Bitwise
    /// equal to copying `src` into `dst` and then
    /// [`KernelPlan::extend_multiply`] (the same products, each entry
    /// written once), in one pass over the table: the run program on a
    /// programmed plan, the walk otherwise.
    pub fn extend_multiply_from(&self, src: &[f64], dst: &mut [f64], msg: &[f64]) {
        debug_assert_eq!(src.len(), self.sup_size);
        debug_assert_eq!(dst.len(), self.sup_size);
        debug_assert_eq!(msg.len(), self.sub_size);
        if let Some(program) = &self.program {
            return program.multiply_from(src, dst, msg);
        }
        self.extend_multiply_range_from(src, dst, msg, 0);
    }

    /// `(spread, run_len)` of this plan's run program, or `None` without
    /// one: which arm of the run loops the whole-table kernels take.
    /// Exposed for the kernel sweeps, which count plans per arm.
    #[doc(hidden)]
    pub fn run_shape(&self) -> Option<(bool, usize)> {
        self.program.as_ref().map(|p| (p.spread, p.run_len))
    }

    /// Test hook: this plan with its run program executed by the generic
    /// run loop even where a fixed-arity arm applies — the reference the
    /// kernel sweeps hold every fixed-arity arm to.
    #[doc(hidden)]
    // fastbn: allow(hot-alloc): test hook, never on a query path.
    pub fn with_generic_run_loop(&self) -> KernelPlan {
        let mut plan = self.clone();
        if let Some(program) = &mut plan.program {
            program.fixed_arity = false;
        }
        plan
    }

    /// Extension-multiply: `table[i] *= msg[m(i)]`.
    pub fn extend_multiply(&self, table: &mut [f64], msg: &[f64]) {
        debug_assert_eq!(table.len(), self.sup_size);
        debug_assert_eq!(msg.len(), self.sub_size);
        if let Some(program) = &self.program {
            return program.multiply(table, msg);
        }
        self.extend_multiply_range(table, msg, 0);
    }

    /// Chunked extension-multiply: applies `table[lo + j] *= msg[m(lo + j)]`
    /// to `chunk = &mut table[lo..hi]`. Parallel callers hand each worker a
    /// disjoint chunk; results are bitwise equal to the full-table form
    /// because each entry is written exactly once.
    #[inline]
    pub fn extend_multiply_range(&self, chunk: &mut [f64], msg: &[f64], lo: usize) {
        debug_assert!(lo + chunk.len() <= self.sup_size);
        if self.layout == Layout::Identity {
            for (v, &m) in chunk.iter_mut().zip(&msg[lo..]) {
                *v *= m;
            }
            return;
        }
        let walk = &self.walk;
        if walk.spread {
            walk.each_row(lo, chunk.len(), |at, n, count, base, _| {
                let (runs, factors) = (&mut chunk[at..at + count * n], &msg[base..base + n]);
                by_width!(n, scale_row(runs, factors), {
                    for run in runs.chunks_exact_mut(n) {
                        for (v, &m) in run.iter_mut().zip(factors) {
                            *v *= m;
                        }
                    }
                })
            });
        } else {
            walk.each_row(lo, chunk.len(), |at, n, count, base, step| {
                let runs = &mut chunk[at..at + count * n];
                by_width!(n, broadcast_row(runs, msg, base, step), {
                    for (k, run) in runs.chunks_exact_mut(n).enumerate() {
                        let m = msg[base + k * step];
                        for v in run {
                            *v *= m;
                        }
                    }
                })
            });
        }
    }

    /// Chunked one-pass rebuild: `chunk[j] = src[j] · msg[m(lo + j)]`,
    /// where `src` and `chunk` are entries `[lo, lo + chunk.len())` of the
    /// source and destination tables. What
    /// [`KernelPlan::extend_multiply_from`] is to
    /// [`KernelPlan::extend_multiply`], this is to
    /// [`KernelPlan::extend_multiply_range`]: the same products, so any
    /// tiling of the table gives the whole-table bits.
    #[inline]
    pub fn extend_multiply_range_from(
        &self,
        src: &[f64],
        chunk: &mut [f64],
        msg: &[f64],
        lo: usize,
    ) {
        debug_assert_eq!(src.len(), chunk.len());
        debug_assert!(lo + chunk.len() <= self.sup_size);
        if self.layout == Layout::Identity {
            for ((d, &v), &m) in chunk.iter_mut().zip(src).zip(&msg[lo..]) {
                *d = v * m;
            }
            return;
        }
        let walk = &self.walk;
        if walk.spread {
            walk.each_row(lo, chunk.len(), |at, n, count, base, _| {
                let factors = &msg[base..base + n];
                let (dst, src) = (&mut chunk[at..at + count * n], &src[at..at + count * n]);
                by_width!(n, scale_row_from(src, dst, factors), {
                    for (out, run) in dst.chunks_exact_mut(n).zip(src.chunks_exact(n)) {
                        for ((d, &v), &m) in out.iter_mut().zip(run).zip(factors) {
                            *d = v * m;
                        }
                    }
                })
            });
        } else {
            walk.each_row(lo, chunk.len(), |at, n, count, base, step| {
                let (dst, src) = (&mut chunk[at..at + count * n], &src[at..at + count * n]);
                by_width!(n, broadcast_row_from(src, dst, msg, base, step), {
                    let runs = dst.chunks_exact_mut(n).zip(src.chunks_exact(n));
                    for (k, (out, run)) in runs.enumerate() {
                        let m = msg[base + k * step];
                        for (d, &v) in out.iter_mut().zip(run) {
                            *d = v * m;
                        }
                    }
                })
            });
        }
    }
}

/// The fused collect kernel: `table[i] *= msg[mul(i)]` and
/// `out[marg(i)] += table[i]` — the extension of a pending separator ratio
/// folded into the next outgoing marginalization, so the caller issues one
/// call where it would issue two.
///
/// `mul` and `marg` must be plans over the **same superdomain** (the
/// clique); `msg` lives on `mul`'s subdomain, `out` (overwritten) on
/// `marg`'s.
///
/// It runs the two passes, each through its plan's run program or walk:
/// both are stride-1 over the clique, and two such passes beat one pass
/// that steps two mappings per entry. Bit-identity with the unfused pair
/// is therefore by construction, for the updated clique and the outgoing
/// message alike.
pub fn multiply_marginalize(
    mul: &KernelPlan,
    marg: &KernelPlan,
    table: &mut [f64],
    msg: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(mul.sup_size, marg.sup_size, "plans must share a clique");
    mul.extend_multiply(table, msg);
    marg.marginalize(table, out);
}

/// [`multiply_marginalize`] for a clique whose current values live in
/// `src` rather than in `table`: `table[i] = src[i] · msg[mul(i)]` and
/// `out[marg(i)] += table[i]`, `table` and `out` overwritten — the
/// one-pass rebuild ([`KernelPlan::extend_multiply_from`]), then
/// [`KernelPlan::marginalize`]. Bitwise equal to copying `src` into
/// `table` and then [`multiply_marginalize`].
pub fn multiply_marginalize_from(
    mul: &KernelPlan,
    marg: &KernelPlan,
    src: &[f64],
    table: &mut [f64],
    msg: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(mul.sup_size, marg.sup_size, "plans must share a clique");
    mul.extend_multiply_from(src, table, msg);
    marg.marginalize(table, out);
}

/// Dispatches a spread row fold on the run length: the const-generic
/// arm `$fixed::<N>` for runs of 2 to 8 entries, whose slots then stay in
/// registers across the row, the in-place loop `$generic` otherwise.
macro_rules! by_width {
    ($n:expr, $fixed:ident($($arg:expr),*), $generic:expr) => {
        match $n {
            2 => $fixed::<2>($($arg),*),
            3 => $fixed::<3>($($arg),*),
            4 => $fixed::<4>($($arg),*),
            5 => $fixed::<5>($($arg),*),
            6 => $fixed::<6>($($arg),*),
            7 => $fixed::<7>($($arg),*),
            8 => $fixed::<8>($($arg),*),
            _ => $generic,
        }
    };
}
use by_width;

/// Folds a row of spread runs of `N` entries into their `N` slots, run
/// after run — the generic loop's order, with the slots held in
/// registers.
#[inline(always)]
fn fold_row<const N: usize>(runs: &[f64], slots: &mut [f64], fold: &impl Fn(f64, f64) -> f64) {
    let slots: &mut [f64; N] = slots.try_into().expect("N slots");
    let mut acc = *slots;
    for run in runs.as_chunks::<N>().0 {
        for k in 0..N {
            acc[k] = fold(acc[k], run[k]);
        }
    }
    *slots = acc;
}

/// Folds summed runs of `n` entries, run `k` into slot `base + k · step`,
/// each from the slot's current value in ascending source order: runs of
/// 2 to 8 entries eight at a time ([`fold_runs_side`]), longer ones one
/// after another, where each run's own chain is long enough to overlap
/// the next.
#[inline(always)]
fn fold_runs(
    runs: &[f64],
    n: usize,
    out: &mut [f64],
    base: usize,
    step: usize,
    fold: &impl Fn(f64, f64) -> f64,
) {
    by_width!(n, fold_runs_side(runs, out, base, step, fold), {
        let mut slot = base;
        for run in runs.chunks_exact(n) {
            let acc = &mut out[slot];
            *acc = run.iter().fold(*acc, |acc, &v| fold(acc, v));
            slot += step;
        }
    })
}

/// [`fold_runs`] for runs of `N` entries: eight runs side by side, their
/// slots distinct, so the eight chains are independent.
// The entry index walks all eight runs in lockstep.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn fold_runs_side<const N: usize>(
    runs: &[f64],
    out: &mut [f64],
    base: usize,
    step: usize,
    fold: &impl Fn(f64, f64) -> f64,
) {
    let (runs, _) = runs.as_chunks::<N>();
    let mut slot = base;
    let mut blocks = runs.chunks_exact(SIDE);
    for block in &mut blocks {
        let mut acc = [0.0; SIDE];
        for (k, a) in acc.iter_mut().enumerate() {
            *a = out[slot + k * step];
        }
        for e in 0..N {
            for k in 0..SIDE {
                acc[k] = fold(acc[k], block[k][e]);
            }
        }
        for (k, &a) in acc.iter().enumerate() {
            out[slot + k * step] = a;
        }
        slot += SIDE * step;
    }
    for run in blocks.remainder() {
        let acc = &mut out[slot];
        *acc = run.iter().fold(*acc, |acc, &v| fold(acc, v));
        slot += step;
    }
}

/// `v[k] *= factors[k]` over a row of spread runs of `N` entries.
#[inline(always)]
fn scale_row<const N: usize>(runs: &mut [f64], factors: &[f64]) {
    let factors: &[f64; N] = factors.try_into().expect("N factors");
    for run in runs.as_chunks_mut::<N>().0 {
        for k in 0..N {
            run[k] *= factors[k];
        }
    }
}

/// `d[k] = v[k] · factors[k]` over a row of spread runs of `N` entries.
#[inline(always)]
fn scale_row_from<const N: usize>(src: &[f64], dst: &mut [f64], factors: &[f64]) {
    let factors: &[f64; N] = factors.try_into().expect("N factors");
    let runs = src
        .as_chunks::<N>()
        .0
        .iter()
        .zip(dst.as_chunks_mut::<N>().0);
    for (run, out) in runs {
        for k in 0..N {
            out[k] = run[k] * factors[k];
        }
    }
}

/// Run `k` of `N` entries times `msg[base + k · step]`, over a row of
/// summed runs.
#[inline(always)]
fn broadcast_row<const N: usize>(runs: &mut [f64], msg: &[f64], base: usize, step: usize) {
    for (k, run) in runs.as_chunks_mut::<N>().0.iter_mut().enumerate() {
        let m = msg[base + k * step];
        for v in run {
            *v *= m;
        }
    }
}

/// [`broadcast_row`] from `src` into `dst`.
#[inline(always)]
fn broadcast_row_from<const N: usize>(
    src: &[f64],
    dst: &mut [f64],
    msg: &[f64],
    base: usize,
    step: usize,
) {
    let runs = src
        .as_chunks::<N>()
        .0
        .iter()
        .zip(dst.as_chunks_mut::<N>().0);
    for (k, (run, out)) in runs.enumerate() {
        let m = msg[base + k * step];
        for j in 0..N {
            out[j] = run[j] * m;
        }
    }
}

/// The coalesced mapping of a plan, by groups: the superdomain with its
/// cardinality-1 variables dropped and every run of neighbouring
/// variables with the same membership in the subdomain merged into one
/// mixed-radix digit, outermost first, as `(cardinality, subdomain
/// stride)` pairs (stride 0 = summed out). Between two surviving member
/// neighbours the subdomain holds nothing but unit variables, so the
/// inner one's stride is the merged group's stride.
// fastbn: allow(hot-alloc): plan construction
fn coalesce(sup_cards: &[usize], ext_strides: &[usize]) -> Vec<(usize, usize)> {
    let mut groups: Vec<(usize, usize)> = Vec::with_capacity(sup_cards.len());
    for (&card, &stride) in sup_cards.iter().zip(ext_strides) {
        if card == 1 {
            continue;
        }
        match groups.last_mut() {
            Some(last) if (last.1 != 0) == (stride != 0) => *last = (last.0 * card, stride),
            _ => groups.push((card, stride)),
        }
    }
    groups
}

/// The walk of a plan's groups that every kernel of a non-identity plan
/// executes unless a run program replaces it (see the module header).
///
/// Source side: the innermost group is a *run* of `run_len` consecutive
/// entries; the outer groups step once per run, through an odometer
/// whose innermost digit is a plain loop (a carry only once per
/// `cards[last]` runs). Subdomain side, for the per-slot fold: the
/// subdomain's variables merged where they are adjacent in the
/// superdomain too, as `(cardinality, superdomain stride)` groups; the
/// innermost is the *lane group*, whose consecutive slots start
/// `lane_stride` source entries apart.
#[derive(Debug, Clone)]
struct Walk {
    /// Source entries per run: the innermost group's cardinality.
    run_len: usize,
    /// `true`: the innermost group belongs to the subdomain, so a run maps
    /// onto `run_len` consecutive slots. `false`: it is summed out, so the
    /// whole run maps onto one slot.
    spread: bool,
    /// Cardinalities and subdomain strides of the groups outside the run,
    /// outermost first.
    run_cards: Box<[usize]>,
    run_strides: Box<[usize]>,
    /// Cardinalities and superdomain strides of the subdomain's groups,
    /// outermost first (empty for a scalar subdomain).
    slot_cards: Box<[usize]>,
    slot_strides: Box<[usize]>,
    /// The outermost member group: its cardinality and the superdomain
    /// entries inside one of its digits. Its digit is the most
    /// significant part of a slot index, so a range of its digits owns a
    /// range of slots and reads one contiguous stretch of the source per
    /// digit of the (at most one) summed group outside it. `(1, sup)`
    /// without a member group.
    head: (usize, usize),
}

impl Walk {
    // fastbn: allow(hot-alloc): plan construction
    fn compile(
        sup_cards: &[usize],
        ext_strides: &[usize],
        sub_cards: &[usize],
        base_strides: &[usize],
    ) -> Self {
        let mut groups = coalesce(sup_cards, ext_strides);
        let head = match groups.iter().position(|g| g.1 != 0) {
            Some(g) => (groups[g].0, groups[g + 1..].iter().map(|g| g.0).product()),
            None => (1, sup_cards.iter().product()),
        };
        let (run_len, run_stride) = groups.pop().unwrap_or((1, 0));
        let spread = run_stride != 0;
        debug_assert!(!spread || run_stride == 1, "innermost member is stride-1");

        // Subdomain variables that sit next to each other in the
        // superdomain, too, are one group: the outer one's superdomain
        // stride is then the inner one's times the inner cardinality.
        let mut slots: Vec<(usize, usize)> = Vec::with_capacity(sub_cards.len());
        for (&card, &stride) in sub_cards.iter().zip(base_strides) {
            if card == 1 {
                continue;
            }
            match slots.last_mut() {
                Some(last) if last.1 == card * stride => *last = (last.0 * card, stride),
                _ => slots.push((card, stride)),
            }
        }
        let unzip = |groups: &[(usize, usize)]| -> (Box<[usize]>, Box<[usize]>) {
            let (cards, strides): (Vec<usize>, Vec<usize>) = groups.iter().copied().unzip();
            (cards.into(), strides.into())
        };
        let (run_cards, run_strides) = unzip(&groups);
        let (slot_cards, slot_strides) = unzip(&slots);
        Walk {
            run_len,
            spread,
            run_cards,
            run_strides,
            slot_cards,
            slot_strides,
            head,
        }
    }

    /// Folds source entries `[lo, lo + part.len())` — `part` — into their
    /// slots, slot `t` at `out[t - shift]`, each from its current value in
    /// ascending source order: a spread row into its `n` slots run after
    /// run, a summed one run by run into one slot each, eight side by
    /// side ([`fold_runs`]).
    #[inline(always)]
    fn accumulate(
        &self,
        part: &[f64],
        lo: usize,
        out: &mut [f64],
        shift: usize,
        fold: &impl Fn(f64, f64) -> f64,
    ) {
        if self.spread {
            self.each_row(lo, part.len(), |at, n, count, base, _| {
                let slots = &mut out[base - shift..][..n];
                let runs = &part[at..at + count * n];
                by_width!(n, fold_row(runs, slots, fold), {
                    for run in runs.chunks_exact(n) {
                        for (slot, &v) in slots.iter_mut().zip(run) {
                            *slot = fold(*slot, v);
                        }
                    }
                })
            });
        } else {
            self.each_row(lo, part.len(), |at, n, count, base, step| {
                fold_runs(&part[at..at + count * n], n, out, base - shift, step, fold);
            });
        }
    }

    /// Cuts source entries `[lo, lo + len)` into rows and calls
    /// `body(at, n, count, base, step)` for each, in order: `count`
    /// consecutive pieces of `n` entries from entry `lo + at`, piece `k`
    /// mapping onto subdomain index `base + k · step` (a spread piece onto
    /// the `n` slots from there). A row is up to `cards[last]` whole runs —
    /// the innermost outer digit, a plain loop — and a run cut by `lo` or
    /// by the end of the range is a row of one piece.
    #[inline(always)]
    fn each_row(
        &self,
        lo: usize,
        len: usize,
        mut body: impl FnMut(usize, usize, usize, usize, usize),
    ) {
        if len == 0 {
            return;
        }
        let n = self.run_len;
        let (row, step, outer) = match self.run_cards.len() {
            0 => (1, 0, 0),
            k => (self.run_cards[k - 1], self.run_strides[k - 1], k - 1),
        };
        let mut odo = InlineOdometer::new(&self.run_cards[..outer], &self.run_strides[..outer]);
        odo.seek(lo / n / row);
        let (mut digit, mut skip, mut at) = (lo / n % row, lo % n, 0);
        while at < len {
            let base = odo.mapped() + digit * step;
            if skip != 0 || len - at < n {
                let take = (n - skip).min(len - at);
                body(
                    at,
                    take,
                    1,
                    if self.spread { base + skip } else { base },
                    step,
                );
                (at, skip, digit) = (at + take, 0, digit + 1);
            } else {
                let count = ((len - at) / n).min(row - digit);
                body(at, n, count, base, step);
                (at, digit) = (at + count * n, digit + count);
            }
            if digit == row {
                digit = 0;
                odo.advance();
            }
        }
    }

    /// Folds every slot `t` of `[lo, hi)` from `init` over its source
    /// entries `src[base(t) + off]`, `off` ascending through `fibers`, and
    /// calls `emit(t, acc)` in ascending `t`. Consecutive slots of the
    /// lane group are folded side by side, each lane its own slot's
    /// chain, so the order within a slot is exactly the per-slot loop's.
    /// A spread plan's lanes read adjacent entries: up to [`LANES`] of
    /// them step through the fibers together. A summed plan's lanes read
    /// adjacent runs of its innermost group: eight at a time each fold
    /// their run of every fiber.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn fold(
        &self,
        src: &[f64],
        fibers: &[usize],
        lo: usize,
        hi: usize,
        init: f64,
        fold: impl Fn(f64, f64) -> f64,
        mut emit: impl FnMut(usize, f64),
    ) {
        if lo >= hi {
            return;
        }
        let (lanes, stride, outer) = match self.slot_cards.len() {
            0 => (1, 1, 0),
            n => (self.slot_cards[n - 1], self.slot_strides[n - 1], n - 1),
        };
        // A summed run is the innermost part of every fiber, and the lane
        // group sits right outside it: lanes `run_len` entries apart.
        let runs = !self.spread && stride != 1;
        debug_assert!(!runs || stride == self.run_len);
        let side = if runs { SIDE } else { LANES };
        let mut odo = InlineOdometer::new(&self.slot_cards[..outer], &self.slot_strides[..outer]);
        odo.seek(lo / lanes);
        let mut digit = lo % lanes;
        let mut t = lo;
        let mut acc = [init; LANES];
        while t < hi {
            let width = (lanes - digit).min(hi - t).min(side);
            let base = odo.mapped() + digit * stride;
            let acc = &mut acc[..width];
            acc.fill(init);
            if runs {
                let n = self.run_len;
                let fibers = fibers.iter().step_by(n);
                match <&mut [f64; SIDE]>::try_from(&mut *acc) {
                    Ok(acc) => by_width!(n, fold_side(src, fibers, base, acc, &fold), {
                        for &off in fibers {
                            let block = &src[base + off..][..SIDE * n];
                            for (a, run) in acc.iter_mut().zip(block.chunks_exact(n)) {
                                *a = run.iter().fold(*a, |a, &v| fold(a, v));
                            }
                        }
                    }),
                    Err(_) => {
                        for &off in fibers {
                            let block = &src[base + off..][..width * n];
                            for (a, run) in acc.iter_mut().zip(block.chunks_exact(n)) {
                                *a = run.iter().fold(*a, |a, &v| fold(a, v));
                            }
                        }
                    }
                }
            } else if let Ok(acc) = <&mut [f64; LANES]>::try_from(&mut *acc) {
                for &off in fibers {
                    let row: &[f64; LANES] = src[base + off..][..LANES]
                        .try_into()
                        .expect("LANES entries");
                    for k in 0..LANES {
                        acc[k] = fold(acc[k], row[k]);
                    }
                }
            } else {
                by_width!(width, fold_lanes(src, fibers, base, acc, &fold), {
                    for &off in fibers {
                        for (a, &v) in acc.iter_mut().zip(&src[base + off..][..width]) {
                            *a = fold(*a, v);
                        }
                    }
                })
            }
            for (k, &a) in acc.iter().enumerate() {
                emit(t + k, a);
            }
            t += width;
            digit += width;
            if digit == lanes {
                digit = 0;
                odo.advance();
            }
        }
    }
}

/// [`Walk::fold`]'s spread lanes when a block holds only `N` of them (2
/// to 8): the accumulators then stay in registers.
#[inline(always)]
fn fold_lanes<const N: usize>(
    src: &[f64],
    fibers: &[usize],
    base: usize,
    acc: &mut [f64],
    fold: &impl Fn(f64, f64) -> f64,
) {
    let acc: &mut [f64; N] = acc.try_into().expect("N lanes");
    for &off in fibers {
        let row: &[f64; N] = src[base + off..][..N].try_into().expect("N entries");
        for k in 0..N {
            acc[k] = fold(acc[k], row[k]);
        }
    }
}

/// [`Walk::fold`]'s eight summed lanes for runs of `N` entries: per fiber,
/// the eight runs from `base + off` are folded entry by entry, side by
/// side.
// The entry index walks all eight runs in lockstep.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn fold_side<'a, const N: usize>(
    src: &[f64],
    fibers: impl Iterator<Item = &'a usize>,
    base: usize,
    acc: &mut [f64; SIDE],
    fold: &impl Fn(f64, f64) -> f64,
) {
    for &off in fibers {
        let block: &[[f64; N]] = src[base + off..][..SIDE * N].as_chunks::<N>().0;
        for e in 0..N {
            for k in 0..SIDE {
                acc[k] = fold(acc[k], block[k][e]);
            }
        }
    }
}

/// The coalesced index mapping of one small plan, fully resolved at
/// compile time: the superdomain is cut into runs of `run_len`
/// consecutive entries, and `bases[k]` is the subdomain index run `k`
/// starts at.
#[derive(Debug, Clone)]
struct RunProgram {
    /// Source entries per run: the innermost merged group's cardinality.
    run_len: usize,
    /// `true`: the innermost group belongs to the subdomain, so a run maps
    /// onto `run_len` consecutive slots. `false`: it is summed out, so the
    /// whole run maps onto the single slot `bases[k]`.
    spread: bool,
    /// Subdomain index of each run's first entry (`sup_size / run_len`).
    bases: Box<[u32]>,
    /// Whether a run length of 2, 3 or 4 takes its fixed-arity arm;
    /// `false` only in a plan made by
    /// [`KernelPlan::with_generic_run_loop`].
    fixed_arity: bool,
}

/// Dispatches one run-program kernel on its arity: the const-generic arm
/// `$fixed::<N>` for run lengths 2, 3 and 4, the generic run loop
/// `$generic` for every other length.
macro_rules! by_arity {
    ($arity:expr, $fixed:ident($($arg:expr),*), $generic:expr) => {
        match $arity {
            2 => $fixed::<2>($($arg),*),
            3 => $fixed::<3>($($arg),*),
            4 => $fixed::<4>($($arg),*),
            _ => $generic,
        }
    };
}

impl RunProgram {
    /// Compiles the program from the superdomain's radices and their
    /// strides in the subdomain (0 = summed out).
    // fastbn: allow(hot-alloc): plan construction
    fn compile(sup_cards: &[usize], ext_strides: &[usize], sub_size: usize) -> Self {
        // The innermost group is the run; a one-entry table has none.
        let mut groups = coalesce(sup_cards, ext_strides);
        let (run_len, run_stride) = groups.pop().unwrap_or((1, 0));
        let spread = run_stride != 0;
        debug_assert!(!spread || run_stride == 1, "innermost member is stride-1");

        // One base per assignment of the outer groups, in row-major
        // order, built in place by replication: the bases of the groups
        // inside `g` repeat `card(g)` times, shifted by `g`'s stride.
        let mut bases = vec![0u32; groups.iter().map(|g| g.0).product()];
        let mut filled = 1;
        for &(card, stride) in groups.iter().rev() {
            for digit in 1..card {
                let (done, rest) = bases.split_at_mut(digit * filled);
                let shift = (digit * stride) as u32;
                for (base, &inner) in rest[..filled].iter_mut().zip(&done[..filled]) {
                    *base = inner + shift;
                }
            }
            filled *= card;
        }
        debug_assert!(sub_size <= u32::MAX as usize);
        let span = if spread { run_len } else { 1 };
        debug_assert!(bases.iter().all(|&b| b as usize + span <= sub_size));
        RunProgram {
            run_len,
            spread,
            bases: bases.into(),
            fixed_arity: true,
        }
    }

    /// The arm that executes this program: `run_len` for the fixed-arity
    /// arms (2, 3 and 4), 0 for the generic run loop.
    #[inline]
    fn arity(&self) -> usize {
        match self.run_len {
            2..=4 if self.fixed_arity => self.run_len,
            _ => 0,
        }
    }

    /// `out[m(i)] = fold(out[m(i)], src[i])` from `init`, visiting the
    /// source in ascending index — per output slot exactly the order of
    /// a front-to-back scan, so a sum's addition chain is unchanged.
    #[inline]
    fn reduce(&self, src: &[f64], out: &mut [f64], init: f64, fold: impl Fn(f64, f64) -> f64) {
        out.fill(init);
        let (n, bases) = (self.run_len, &*self.bases);
        if self.spread {
            by_arity!(self.arity(), reduce_spread(src, bases, out, fold), {
                for (run, &base) in src.chunks_exact(n).zip(bases) {
                    let slots = &mut out[base as usize..][..n];
                    for (slot, &v) in slots.iter_mut().zip(run) {
                        *slot = fold(*slot, v);
                    }
                }
            })
        } else {
            by_arity!(self.arity(), reduce_summed(src, bases, out, fold), {
                for (run, &base) in src.chunks_exact(n).zip(bases) {
                    let slot = &mut out[base as usize];
                    *slot = run.iter().fold(*slot, |acc, &v| fold(acc, v));
                }
            })
        }
    }

    /// `table[i] *= msg[m(i)]` for every entry.
    #[inline]
    fn multiply(&self, table: &mut [f64], msg: &[f64]) {
        let (n, bases) = (self.run_len, &*self.bases);
        if self.spread {
            by_arity!(self.arity(), multiply_spread(table, bases, msg), {
                for (run, &base) in table.chunks_exact_mut(n).zip(bases) {
                    let factors = &msg[base as usize..][..n];
                    for (v, &m) in run.iter_mut().zip(factors) {
                        *v *= m;
                    }
                }
            })
        } else {
            by_arity!(self.arity(), multiply_summed(table, bases, msg), {
                for (run, &base) in table.chunks_exact_mut(n).zip(bases) {
                    let m = msg[base as usize];
                    for v in run {
                        *v *= m;
                    }
                }
            })
        }
    }

    /// `dst[i] = src[i] · msg[m(i)]` for every entry.
    #[inline]
    fn multiply_from(&self, src: &[f64], dst: &mut [f64], msg: &[f64]) {
        let (n, bases) = (self.run_len, &*self.bases);
        if self.spread {
            by_arity!(self.arity(), multiply_from_spread(src, dst, bases, msg), {
                let runs = src.chunks_exact(n).zip(dst.chunks_exact_mut(n));
                for ((run, out), &base) in runs.zip(bases) {
                    let factors = &msg[base as usize..][..n];
                    for ((d, &v), &m) in out.iter_mut().zip(run).zip(factors) {
                        *d = v * m;
                    }
                }
            })
        } else {
            by_arity!(self.arity(), multiply_from_summed(src, dst, bases, msg), {
                let runs = src.chunks_exact(n).zip(dst.chunks_exact_mut(n));
                for ((run, out), &base) in runs.zip(bases) {
                    let m = msg[base as usize];
                    for (d, &v) in out.iter_mut().zip(run) {
                        *d = v * m;
                    }
                }
            })
        }
    }
}

// The fixed-arity arms: the generic run loops above with the run length a
// constant, so every run is one `[f64; N]` and its inner loop unrolls —
// no trip count, no per-run loop overhead. Each folds and multiplies in
// the generic loop's order, hence the same bits.

#[inline(always)]
fn reduce_spread<const N: usize>(
    src: &[f64],
    bases: &[u32],
    out: &mut [f64],
    fold: impl Fn(f64, f64) -> f64,
) {
    for (run, &base) in src.as_chunks::<N>().0.iter().zip(bases) {
        let base = base as usize;
        let slots: &mut [f64; N] = (&mut out[base..base + N]).try_into().expect("N slots");
        for k in 0..N {
            slots[k] = fold(slots[k], run[k]);
        }
    }
}

#[inline(always)]
fn reduce_summed<const N: usize>(
    src: &[f64],
    bases: &[u32],
    out: &mut [f64],
    fold: impl Fn(f64, f64) -> f64,
) {
    for (run, &base) in src.as_chunks::<N>().0.iter().zip(bases) {
        let slot = &mut out[base as usize];
        *slot = run.iter().fold(*slot, |acc, &v| fold(acc, v));
    }
}

#[inline(always)]
fn multiply_spread<const N: usize>(table: &mut [f64], bases: &[u32], msg: &[f64]) {
    for (run, &base) in table.as_chunks_mut::<N>().0.iter_mut().zip(bases) {
        let base = base as usize;
        let factors: &[f64; N] = msg[base..base + N].try_into().expect("N factors");
        for k in 0..N {
            run[k] *= factors[k];
        }
    }
}

#[inline(always)]
fn multiply_summed<const N: usize>(table: &mut [f64], bases: &[u32], msg: &[f64]) {
    for (run, &base) in table.as_chunks_mut::<N>().0.iter_mut().zip(bases) {
        let m = msg[base as usize];
        for v in run {
            *v *= m;
        }
    }
}

#[inline(always)]
fn multiply_from_spread<const N: usize>(src: &[f64], dst: &mut [f64], bases: &[u32], msg: &[f64]) {
    let runs = src.as_chunks::<N>().0.iter();
    for ((run, out), &base) in runs.zip(dst.as_chunks_mut::<N>().0).zip(bases) {
        let base = base as usize;
        let factors: &[f64; N] = msg[base..base + N].try_into().expect("N factors");
        for k in 0..N {
            out[k] = run[k] * factors[k];
        }
    }
}

#[inline(always)]
fn multiply_from_summed<const N: usize>(src: &[f64], dst: &mut [f64], bases: &[u32], msg: &[f64]) {
    let runs = src.as_chunks::<N>().0.iter();
    for ((run, out), &base) in runs.zip(dst.as_chunks_mut::<N>().0).zip(bases) {
        let m = msg[base as usize];
        for k in 0..N {
            out[k] = run[k] * m;
        }
    }
}

/// Mixed-radix odometer with **inline** digit storage — the allocation-free
/// twin of [`crate::index_map::Odometer`] that the walks step once per run
/// or per fold block, over merged groups.
/// Capacity is [`MAX_PLAN_VARS`]; plan construction enforces the bound.
struct InlineOdometer<'a> {
    cards: &'a [usize],
    strides: &'a [usize],
    digits: [usize; MAX_PLAN_VARS],
    mapped: usize,
}

impl<'a> InlineOdometer<'a> {
    #[inline]
    fn new(cards: &'a [usize], strides: &'a [usize]) -> Self {
        debug_assert_eq!(cards.len(), strides.len());
        debug_assert!(cards.len() <= MAX_PLAN_VARS);
        InlineOdometer {
            cards,
            strides,
            digits: [0; MAX_PLAN_VARS],
            mapped: 0,
        }
    }

    /// Jumps to flat position `idx` (one mixed-radix decode).
    #[inline]
    fn seek(&mut self, idx: usize) {
        let mut rest = idx;
        self.mapped = 0;
        for i in (0..self.cards.len()).rev() {
            self.digits[i] = rest % self.cards[i];
            rest /= self.cards[i];
            self.mapped += self.digits[i] * self.strides[i];
        }
        debug_assert_eq!(rest, 0, "seek past end of domain");
    }

    #[inline]
    fn mapped(&self) -> usize {
        self.mapped
    }

    #[inline]
    fn advance(&mut self) {
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

/// Classifies how `sub`'s variables sit inside `sup`'s layout. Both
/// variable lists are strictly ascending, so a subset that forms a
/// contiguous suffix (prefix) of the list is automatically in matching
/// order — position comparison suffices.
fn classify(sup: &Domain, sub: &Domain) -> Layout {
    let (sv, bv) = (sup.vars(), sub.vars());
    if sv == bv {
        return Layout::Identity;
    }
    if sv[sv.len() - bv.len()..] == *bv {
        return Layout::InnerBlock;
    }
    if sv[..bv.len()] == *bv {
        return Layout::OuterBlock {
            fiber_len: sup.size() / sub.size(),
        };
    }
    Layout::Generic
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_bayesnet::VarId;

    fn dom(pairs: &[(u32, usize)]) -> Domain {
        Domain::new(pairs.iter().map(|&(v, c)| (VarId(v), c)).collect())
    }

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn classification_covers_all_cases() {
        let sup = dom(&[(0, 2), (1, 3), (2, 2), (3, 2)]);
        let same = KernelPlan::new(&sup, &sup);
        assert_eq!(same.layout(), Layout::Identity);
        let inner = KernelPlan::new(&sup, &dom(&[(2, 2), (3, 2)]));
        assert_eq!(inner.layout(), Layout::InnerBlock);
        let outer = KernelPlan::new(&sup, &dom(&[(0, 2), (1, 3)]));
        assert_eq!(outer.layout(), Layout::OuterBlock { fiber_len: 4 });
        let scattered = KernelPlan::new(&sup, &dom(&[(1, 3), (3, 2)]));
        assert_eq!(scattered.layout(), Layout::Generic);
        // Scalar target: the empty suffix rule wins, block size 1.
        let scalar = KernelPlan::new(&sup, &Domain::scalar());
        assert_eq!(scalar.layout(), Layout::InnerBlock);
        assert_eq!(scalar.sub_size(), 1);
    }

    /// `plan` as a table above the program constant would run it: the
    /// walk alone.
    fn without_program(plan: &KernelPlan) -> KernelPlan {
        let mut stripped = plan.clone();
        stripped.program = None;
        stripped
    }

    /// The per-entry mapping `i → m(i)` of `sup → sub`, one odometer step
    /// per entry: the reference every walk and program is held to.
    fn per_entry_map(sup: &Domain, sub: &Domain) -> Vec<usize> {
        let strides = embedding_strides(sup, sub);
        let mut odo = InlineOdometer::new(sup.cards(), &strides);
        (0..sup.size())
            .map(|_| {
                let m = odo.mapped();
                odo.advance();
                m
            })
            .collect()
    }

    /// Values whose sums depend on the order of addition.
    fn uneven(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (1 + i % 7) as f64 / (3 + i) as f64)
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every kernel of `sup → sub`, executed by `plan`'s own dispatch (the
    /// run program on a small table) and by its walk, equals the
    /// per-entry reference bit for bit — whole-table, and chunked at a
    /// third of the table.
    fn assert_matches_per_entry(sup: &Domain, sub: &Domain) {
        let plan = KernelPlan::new(sup, sub);
        let map = per_entry_map(sup, sub);
        let what = format!("{:?} -> {:?}", sup.cards(), sub.cards());
        let src = uneven(sup.size());
        let msg: Vec<f64> = uneven(sub.size()).iter().map(|v| v + 0.5).collect();

        let mut sum = vec![0.0; sub.size()];
        let mut max = vec![f64::NEG_INFINITY; sub.size()];
        for (i, &v) in src.iter().enumerate() {
            sum[map[i]] += v;
            if v > max[map[i]] {
                max[map[i]] = v;
            }
        }
        if plan.layout() == Layout::Identity {
            sum.copy_from_slice(&src);
        }
        let product: Vec<f64> = src.iter().zip(&map).map(|(&v, &m)| v * msg[m]).collect();

        for run in [plan.clone(), without_program(&plan)] {
            let mut got = vec![f64::NAN; sub.size()];
            run.marginalize(&src, &mut got);
            assert_eq!(bits(&got), bits(&sum), "marginalize {what}");
            run.max_marginalize(&src, &mut got);
            assert_eq!(bits(&got), bits(&max), "max_marginalize {what}");
            let mut folded = vec![f64::NAN; sub.size()];
            let mid = sub.size() / 3;
            run.marginalize_fold(&src, 0, mid, |t, v| folded[t] = v);
            run.marginalize_fold(&src, mid, sub.size(), |t, v| folded[t] = v);
            assert_eq!(bits(&folded), bits(&sum), "marginalize_fold {what}");

            // Block by block, where the outermost variables are members.
            if let Some(inner) = run.block_entries() {
                let mut blocks = vec![f64::NAN; sub.size()];
                for (k, part) in src.chunks(inner).enumerate() {
                    let (s0, s1) = (run.block_slot(k * inner), run.block_slot((k + 1) * inner));
                    blocks[s0..s1].fill(0.0);
                    run.marginalize_add(part, k * inner, &mut blocks[s0..s1], s0);
                }
                assert_eq!(bits(&blocks), bits(&sum), "marginalize_block {what}");
            }

            // Ranged: unit by unit, and in two ranges split at the middle
            // unit boundary.
            let unit = run.slot_unit();
            let mut ranged = vec![f64::NAN; sub.size()];
            for (k, part) in ranged.chunks_mut(unit).enumerate() {
                run.marginalize_range(&src, k * unit, part);
            }
            assert_eq!(bits(&ranged), bits(&sum), "marginalize_range {what}");
            let mid = sub.size() / unit / 2 * unit;
            let (left, right) = ranged.split_at_mut(mid);
            run.marginalize_range(&src, 0, left);
            run.marginalize_range(&src, mid, right);
            assert_eq!(bits(&ranged), bits(&sum), "marginalize_range halves {what}");

            let mut got = src.clone();
            run.extend_multiply(&mut got, &msg);
            assert_eq!(bits(&got), bits(&product), "extend_multiply {what}");
            let mut got = vec![f64::NAN; sup.size()];
            run.extend_multiply_from(&src, &mut got, &msg);
            assert_eq!(bits(&got), bits(&product), "extend_multiply_from {what}");
            let mut got = src.clone();
            let mid = sup.size() / 3;
            let (left, right) = got.split_at_mut(mid);
            run.extend_multiply_range(left, &msg, 0);
            run.extend_multiply_range(right, &msg, mid);
            assert_eq!(bits(&got), bits(&product), "extend_multiply_range {what}");
        }
    }

    #[test]
    fn fast_paths_match_generic_bitwise() {
        // Three executions of one mapping — the run program, the walk a
        // larger table would use, and the per-entry reference — agree,
        // for every layout.
        let sup = dom(&[(0, 2), (1, 3), (2, 2), (3, 2)]);
        for sub in [
            dom(&[(2, 2), (3, 2)]),
            dom(&[(0, 2), (1, 3)]),
            dom(&[(0, 2), (3, 2)]),
            dom(&[(1, 3), (2, 2)]),
            sup.clone(),
            Domain::scalar(),
        ] {
            assert_matches_per_entry(&sup, &sub);
            let plan = KernelPlan::new(&sup, &sub);
            assert_eq!(plan.program.is_some(), plan.layout() != Layout::Identity);
        }
    }

    #[test]
    fn program_drops_unit_variables_before_merging() {
        // `b` is a unit variable between two members: once it is dropped,
        // `a` and `c` are neighbours and the whole table is one run that
        // spreads over the whole separator.
        let sup = dom(&[(0, 2), (1, 1), (2, 2)]);
        let sub = dom(&[(0, 2), (2, 2)]);
        let program = KernelPlan::new(&sup, &sub).program.unwrap();
        assert_eq!((program.run_len, program.spread), (4, true));
        assert_eq!(&*program.bases, &[0]);
        assert_matches_per_entry(&sup, &sub);

        // A unit variable between a member and a summed-out variable
        // joins neither: `a` stays its own group, `c` is the run.
        let sub = dom(&[(0, 2)]);
        let program = KernelPlan::new(&sup, &sub).program.unwrap();
        assert_eq!((program.run_len, program.spread), (2, false));
        assert_eq!(&*program.bases, &[0, 1]);
        assert_matches_per_entry(&sup, &sub);

        // Unit variables first, last, in the separator only by name, and
        // as the separator's fastest variable.
        let sup = dom(&[(0, 1), (1, 3), (2, 1), (3, 2), (4, 5), (5, 1)]);
        for sub in [
            dom(&[(0, 1), (3, 2)]),
            dom(&[(1, 3), (2, 1), (4, 5)]),
            dom(&[(3, 2), (5, 1)]),
            dom(&[(0, 1), (2, 1), (5, 1)]),
            dom(&[(1, 3), (3, 2), (4, 5)]),
        ] {
            assert_matches_per_entry(&sup, &sub);
        }
        // Differing from the clique by unit variables only: not the
        // `Identity` copy (the scopes differ), one run over every slot,
        // and ranges cut every cache line of slots.
        let plan = KernelPlan::new(&sup, &dom(&[(1, 3), (3, 2), (4, 5)]));
        let program = plan.program.as_ref().unwrap();
        assert_eq!((program.run_len, program.bases.len()), (30, 1));
        assert_eq!(plan.slot_unit(), 30);
    }

    #[test]
    fn program_shapes_at_the_edges() {
        // Scalar separator: one run, one slot.
        let sup = dom(&[(0, 2), (1, 3), (2, 2)]);
        let program = KernelPlan::new(&sup, &Domain::scalar()).program.unwrap();
        assert_eq!((program.run_len, program.spread), (12, false));
        assert_eq!(&*program.bases, &[0]);
        assert_matches_per_entry(&sup, &Domain::scalar());

        // Single-variable clique: onto the scalar it is one summed run;
        // onto itself it is the `Identity` copy, which has no program.
        let single = dom(&[(4, 3)]);
        let program = KernelPlan::new(&single, &Domain::scalar()).program.unwrap();
        assert_eq!((program.run_len, program.bases.len()), (3, 1));
        assert_matches_per_entry(&single, &Domain::scalar());
        for same in [&single, &sup] {
            let plan = KernelPlan::new(same, same);
            assert_eq!(plan.layout(), Layout::Identity);
            assert!(plan.program.is_none());
            assert_matches_per_entry(same, same);
        }

        // A one-entry clique has no group at all.
        let unit = dom(&[(0, 1), (1, 1)]);
        let program = KernelPlan::new(&unit, &dom(&[(1, 1)])).program.unwrap();
        assert_eq!((program.run_len, program.bases.len()), (1, 1));
        assert_matches_per_entry(&unit, &dom(&[(1, 1)]));

        // Scattered: runs of the innermost summed-out variable, bases
        // stepping through the separator in row-major order.
        let program = KernelPlan::new(&sup, &dom(&[(1, 3)])).program.unwrap();
        assert_eq!((program.run_len, program.spread), (2, false));
        assert_eq!(&*program.bases, &[0, 1, 2, 0, 1, 2]);
        let program = KernelPlan::new(&sup, &dom(&[(0, 2), (2, 2)]))
            .program
            .unwrap();
        assert_eq!((program.run_len, program.spread), (2, true));
        assert_eq!(&*program.bases, &[0, 0, 0, 2, 2, 2]);
    }

    #[test]
    fn program_boundary_picks_different_paths_that_agree() {
        // 128 × 256 = 32 768 entries is the largest programmed table;
        // 99 × 331 = 32 769 runs the walk. Both equal the per-entry
        // reference on every kernel, for each way the separator can sit.
        let at = dom(&[(0, 128), (1, 256)]);
        let above = dom(&[(0, 99), (1, 331)]);
        assert_eq!(at.size(), RUN_PROGRAM_MAX_ENTRIES);
        assert_eq!(above.size(), RUN_PROGRAM_MAX_ENTRIES + 1);
        for (sup, programmed) in [(&at, true), (&above, false)] {
            for keep in [0usize, 1] {
                let sub = dom(&[(keep as u32, sup.cards()[keep])]);
                let plan = KernelPlan::new(sup, &sub);
                assert_eq!(plan.is_programmed(), programmed);
                assert_matches_per_entry(sup, &sub);
            }
            let plan = KernelPlan::new(sup, &Domain::scalar());
            assert_eq!(plan.is_programmed(), programmed);
            assert_matches_per_entry(sup, &Domain::scalar());
        }
        // Scattered separators on both sides of the constant.
        let at = dom(&[(0, 32), (1, 32), (2, 32)]);
        let above = dom(&[(0, 33), (1, 32), (2, 32)]);
        for sup in [&at, &above] {
            let sub = dom(&[(0, sup.cards()[0]), (2, 32)]);
            let plan = KernelPlan::new(sup, &sub);
            assert_eq!(plan.layout(), Layout::Generic);
            assert_eq!(plan.is_programmed(), sup.size() <= RUN_PROGRAM_MAX_ENTRIES);
            assert_matches_per_entry(sup, &sub);
        }
    }

    #[test]
    fn walk_groups_and_slot_units() {
        // `a b c d e` with `b d e` kept: runs of `d e` (spread, 16 slots),
        // stepping `c` (summed) inside `b` (kept) inside `a` (summed); on
        // the separator side `d e` is the lane group (adjacent in the
        // clique too), `b` the outer one — and `b`, whose digit reads 800
        // contiguous entries per digit of `a`, the slot unit's.
        let sup = dom(&[(0, 3), (1, 4), (2, 50), (3, 4), (4, 4)]);
        let plan = KernelPlan::new(&sup, &dom(&[(1, 4), (3, 4), (4, 4)]));
        let walk = &plan.walk;
        assert_eq!((walk.run_len, walk.spread), (16, true));
        assert_eq!(
            (&*walk.run_cards, &*walk.run_strides),
            (&[3, 4, 50][..], &[0, 16, 0][..])
        );
        assert_eq!(
            (&*walk.slot_cards, &*walk.slot_strides),
            (&[4, 16][..], &[800, 1][..])
        );
        assert_eq!(
            (walk.head, plan.slot_unit(), plan.block_entries()),
            ((4, 800), 16, None)
        );
        // The clique's fastest variable alone reads one entry of every
        // line per slot: one unit, the whole separator.
        let plan = KernelPlan::new(&sup, &dom(&[(4, 4)]));
        assert_eq!((plan.slot_unit(), plan.sub_size()), (4, 4));
        // Summed innermost: lanes step over whole fibers; the two
        // outermost variables are one member group that owns its blocks.
        let plan = KernelPlan::new(&sup, &dom(&[(0, 3), (1, 4)]));
        assert_eq!(
            (&*plan.walk.slot_cards, &*plan.walk.slot_strides),
            (&[12][..], &[800][..])
        );
        assert_eq!((plan.slot_unit(), plan.block_entries()), (1, Some(800)));
        for sub in [
            dom(&[(1, 4), (3, 4), (4, 4)]),
            dom(&[(4, 4)]),
            dom(&[(0, 3), (1, 4)]),
            dom(&[(1, 4), (2, 50)]),
            dom(&[(0, 3), (2, 50), (4, 4)]),
        ] {
            assert_matches_per_entry(&sup, &sub);
        }
        let wide = dom(&[(0, 40), (1, 1000)]);
        assert_eq!(KernelPlan::new(&wide, &dom(&[(1, 1000)])).slot_unit(), 512);
        assert_eq!(KernelPlan::new(&wide, &dom(&[(0, 40)])).slot_unit(), 1);
        assert_matches_per_entry(&wide, &dom(&[(1, 1000)]));
        assert_matches_per_entry(&wide, &dom(&[(0, 40)]));
    }

    #[test]
    fn fused_kernel_equals_two_pass() {
        let sup = dom(&[(0, 2), (1, 3), (2, 2)]);
        let mul_sub = dom(&[(1, 3)]);
        let marg_sub = dom(&[(0, 2), (2, 2)]);
        let mul = KernelPlan::new(&sup, &mul_sub);
        let marg = KernelPlan::new(&sup, &marg_sub);
        let msg = [2.0, 0.5, 1.5];

        let mut two_pass = ramp(sup.size());
        mul.extend_multiply(&mut two_pass, &msg);
        let mut out = vec![f64::NAN; marg_sub.size()];
        marg.marginalize(&two_pass, &mut out);

        // Through the programs, and through the walks a pair above the
        // program constant runs: same bits.
        for (mul, marg) in [
            (mul.clone(), marg.clone()),
            (without_program(&mul), without_program(&marg)),
        ] {
            let mut fused_table = ramp(sup.size());
            let mut fused_out = vec![f64::NAN; marg_sub.size()];
            multiply_marginalize(&mul, &marg, &mut fused_table, &msg, &mut fused_out);
            assert_eq!(fused_table, two_pass);
            assert_eq!(fused_out, out);
        }
    }

    #[test]
    fn max_marginalize_matches_reference() {
        let sup = dom(&[(0, 2), (1, 3), (2, 2)]);
        let sub = dom(&[(1, 3)]);
        let plan = KernelPlan::new(&sup, &sub);
        let src: Vec<f64> = (0..sup.size()).map(|i| ((i * 7) % 11) as f64).collect();
        let mut want = vec![f64::NEG_INFINITY; sub.size()];
        for (&v, m) in src.iter().zip(per_entry_map(&sup, &sub)) {
            if v > want[m] {
                want[m] = v;
            }
        }
        for run in [plan.clone(), without_program(&plan)] {
            let mut got = vec![0.0; sub.size()];
            run.max_marginalize(&src, &mut got);
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "subdomain")]
    fn non_subdomain_target_rejected() {
        let sup = dom(&[(0, 2), (1, 2)]);
        let other = dom(&[(5, 2)]);
        KernelPlan::new(&sup, &other);
    }
}

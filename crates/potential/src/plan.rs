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
//! `m(i) = Σ digit_v(i) · stride_sub(v)` is executed in one of two ways,
//! chosen once, at plan-compile time, from the superdomain's size alone:
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
//! [`extend_multiply_from`] and the two-pass arm of
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
//! | tables | layout kernels | run program |
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
//! ## Larger tables: layout kernels
//!
//! Above the constant a plan dispatches on its [`Layout`]
//! classification, detectable from the variable lists alone:
//!
//! * [`Layout::InnerBlock`] — the subdomain's variables are exactly the
//!   *suffix* (fastest block) of the superdomain. The mapped index is
//!   `i % sub_size`, so marginalization is a blocked stride-1 sum
//!   (`out[t] += src[b·sub + t]`, autovectorizable) and extension is a
//!   per-block element-wise multiply.
//! * [`Layout::OuterBlock`] — the subdomain's variables are exactly the
//!   *prefix* (slowest block). The mapped index is `i / fiber_len`, so
//!   marginalization sums contiguous slices and extension broadcasts one
//!   scalar per slice.
//! * [`Layout::Identity`] — same domain: copy / element-wise (at every
//!   size; an identity plan never has a program).
//! * [`Layout::Generic`] — scattered variables: incremental odometer
//!   stepping, with the digit array held **inline on the stack** so the
//!   generic path allocates nothing either.
//!
//! [`KernelPlan::layout`] reports this classification for every plan,
//! programmed or not, and the chunked forms ([`marginalize_fold`],
//! [`extend_multiply_range`], [`extend_multiply_range_from`]) that
//! parallel callers split across workers always dispatch on it.
//!
//! Why the cut, and not the coalesced walk for every size: it was
//! measured. Past the L2 a table streams from the shared L3 (105 MiB on
//! the recording VM, which holds the 10 MB `large-cliques` slab and its
//! initial copy together), and there the program makes the sequential
//! engine fast without making the parallel one faster. With the constant
//! lifted to `usize::MAX` the 1.21 M-entry
//! `large-cliques` kernel pass goes from 10.4 ms to 2.5 ms and the
//! sequential engine from 77 to 227 queries/s — but the two-thread
//! hybrid engine, whose parallel phases run the chunked kernels, stays at
//! 135, so its speed-up over sequential falls from 1.66 to 0.60. Giving
//! the chunked kernels the same walk does not rescue it: the prototype
//! that did reached 237 queries/s against 196 sequential (1.21). Even a
//! cut of 262 144 entries (2 MiB, the whole L2) already takes
//! `large-cliques`' `par_speedup` from 1.82 to 1.64 over four benchmark
//! pairs: the sequential engine gains 21 %, the two-thread one 8 %. On
//! the 2-core machine all of this is recorded on, one core already
//! saturates the shared cache's bandwidth (a scale pass over 10 MB, L3
//! resident: 531 µs on one thread, 506 µs split over two), so a
//! bandwidth-efficient kernel for large tables leaves the second core
//! nothing to add. Large tables need a design that moves less
//! memory (cache-blocked, collect/distribute fused) and a machine with
//! more cores to show it on; until then they keep the kernels above, bit
//! for bit. Tables under the cut are the ones the hybrid engine no longer
//! splits across a pool region at all (`fastbn-inference`'s driver counts
//! only unprogrammed entries toward a region), so their program is never
//! traded against a second core.
//!
//! # Bit-identity
//!
//! Every execution preserves the repo-wide determinism contract: each
//! output slot's f64 addition chain starts from `0.0` and visits its
//! source entries in ascending source index. For `InnerBlock`, the
//! blocked loop adds `src[b·sub + t]` to `out[t]` in ascending `b` —
//! exactly the ascending fiber order of the generic path. For
//! `OuterBlock`, the contiguous slice sum is literally the
//! ascending-source scan. A run program walks the source front to back
//! and adds each run into its slot(s), continuing from what earlier runs
//! left there, so every slot again sees its entries in ascending index —
//! the same chain, whichever side of the constant a table falls on.
//! Max-marginalization keeps the first of equal maxima under the same
//! visiting order. Extension writes each entry exactly once, so only the
//! product's operands matter, and they are identical across paths — and
//! for the one-pass rebuild, which forms the same products from a source
//! table into a destination instead of in place.
//!
//! [`marginalize`]: KernelPlan::marginalize
//! [`extend_multiply`]: KernelPlan::extend_multiply
//! [`extend_multiply_from`]: KernelPlan::extend_multiply_from
//! [`max_marginalize`]: KernelPlan::max_marginalize
//! [`marginalize_fold`]: KernelPlan::marginalize_fold
//! [`extend_multiply_range`]: KernelPlan::extend_multiply_range
//! [`extend_multiply_range_from`]: KernelPlan::extend_multiply_range_from
//!
//! fastbn: deny-hot-alloc

use crate::domain::Domain;
use crate::index_map::{embedding_strides, fiber_offsets};

/// Upper bound on superdomain variables for the inline odometer digits.
/// A table over more than 32 discrete variables has at least 2³³ entries
/// (≥ 64 GiB of f64), far beyond anything this engine targets, so the
/// bound is enforced with a hard assert rather than a heap fallback.
pub const MAX_PLAN_VARS: usize = 32;

/// How the subdomain's variables sit inside the superdomain's memory
/// layout — selects the kernel of a table above the run-program constant
/// and of every chunked call.
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
    /// Scattered variables: incremental mixed-radix odometer stepping.
    Generic,
}

/// A precompiled (superdomain → subdomain) index mapping with all derived
/// arrays and the layout classification. Build once (allocates), execute
/// forever (allocation-free).
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// Cardinalities of the superdomain (odometer radices).
    sup_cards: Box<[usize]>,
    /// Cardinalities of the subdomain (output-walk radices).
    sub_cards: Box<[usize]>,
    /// Per-sup-variable stride in the subdomain (0 if absent): walking the
    /// sup with these yields `mapped(i)` — the extension mapping.
    ext_strides: Box<[usize]>,
    /// Per-sub-variable stride in the superdomain: walking the sub with
    /// these yields each output slot's base source index.
    base_strides: Box<[usize]>,
    /// Ascending source offsets of the summed-out completions; each output
    /// slot's value is `Σ src[base + fibers[k]]`.
    fibers: Box<[usize]>,
    sup_size: usize,
    sub_size: usize,
    layout: Layout,
    /// The compiled run program of a small, non-identity plan (see the
    /// module header); when present the whole-table kernels execute it
    /// instead of dispatching on `layout`.
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
        let ext_strides: Box<[usize]> = embedding_strides(sup, sub).into();
        let program = (layout != Layout::Identity && sup.size() <= RUN_PROGRAM_MAX_ENTRIES)
            .then(|| RunProgram::compile(sup.cards(), &ext_strides, sub.size()));
        KernelPlan {
            sup_cards: sup.cards().into(),
            sub_cards: sub.cards().into(),
            ext_strides,
            base_strides: embedding_strides(sub, sup).into(),
            fibers: fiber_offsets(sup, sub).into(),
            sup_size: sup.size(),
            sub_size: sub.size(),
            layout,
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
    /// every plan; programmed plans execute their run program instead of
    /// dispatching on it).
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Whether the whole-table kernels of this plan execute a compiled
    /// run program: `true` for a non-identity plan whose superdomain has
    /// at most `RUN_PROGRAM_MAX_ENTRIES` (32 768) entries. The chunked
    /// forms ([`KernelPlan::marginalize_fold`],
    /// [`KernelPlan::extend_multiply_range`]) dispatch on
    /// [`KernelPlan::layout`] either way, so a caller that could split
    /// the table across workers learns here what running it whole costs.
    #[inline]
    pub fn is_programmed(&self) -> bool {
        self.program.is_some()
    }

    /// Ascending source offsets of the summed-out completions.
    #[inline]
    pub fn fibers(&self) -> &[usize] {
        &self.fibers
    }

    /// Marginalization: `out[m(i)] += src[i]`, `out` overwritten. Each
    /// output slot accumulates its fiber in ascending source order.
    pub fn marginalize(&self, src: &[f64], out: &mut [f64]) {
        debug_assert_eq!(src.len(), self.sup_size);
        debug_assert_eq!(out.len(), self.sub_size);
        if let Some(program) = &self.program {
            return program.reduce(src, out, 0.0, |acc, v| acc + v);
        }
        match self.layout {
            Layout::Identity => out.copy_from_slice(src),
            Layout::InnerBlock => {
                out.fill(0.0);
                let sub = self.sub_size;
                for block in src.chunks_exact(sub) {
                    // Stride-1 over both operands: autovectorizes. Ascending
                    // blocks = ascending source order per output slot.
                    for (slot, &v) in out.iter_mut().zip(block) {
                        *slot += v;
                    }
                }
            }
            Layout::OuterBlock { fiber_len } => {
                for (slot, fiber) in out.iter_mut().zip(src.chunks_exact(fiber_len)) {
                    let mut acc = 0.0;
                    for &v in fiber {
                        acc += v;
                    }
                    *slot = acc;
                }
            }
            Layout::Generic => {
                out.fill(0.0);
                let mut odo = InlineOdometer::new(&self.sup_cards, &self.ext_strides);
                for &v in src {
                    out[odo.mapped()] += v;
                    odo.advance();
                }
            }
        }
    }

    /// Per-output-slot marginalization over the slot range `[lo, hi)`:
    /// calls `f(t, value)` for each target slot `t`. Bit-identical to
    /// [`KernelPlan::marginalize`] (each slot sums its fiber in ascending
    /// source order); this is the chunkable form the parallel kernels and
    /// the hybrid engine's flattened sep phase consume.
    #[inline]
    pub fn marginalize_fold(
        &self,
        src: &[f64],
        lo: usize,
        hi: usize,
        mut f: impl FnMut(usize, f64),
    ) {
        debug_assert!(hi <= self.sub_size);
        match self.layout {
            Layout::Identity => {
                for (t, &v) in src.iter().enumerate().take(hi).skip(lo) {
                    f(t, v);
                }
            }
            Layout::OuterBlock { fiber_len } => {
                for t in lo..hi {
                    let fiber = &src[t * fiber_len..(t + 1) * fiber_len];
                    let mut acc = 0.0;
                    for &v in fiber {
                        acc += v;
                    }
                    f(t, acc);
                }
            }
            _ => {
                let mut odo = InlineOdometer::new(&self.sub_cards, &self.base_strides);
                odo.seek(lo);
                for t in lo..hi {
                    let base = odo.mapped();
                    let mut acc = 0.0;
                    for &off in self.fibers.iter() {
                        acc += src[base + off];
                    }
                    f(t, acc);
                    odo.advance();
                }
            }
        }
    }

    /// Max-marginalization: `out[m(i)] = max(out[m(i)], src[i])`, `out`
    /// overwritten (initialized to `-inf`).
    pub fn max_marginalize(&self, src: &[f64], out: &mut [f64]) {
        debug_assert_eq!(src.len(), self.sup_size);
        debug_assert_eq!(out.len(), self.sub_size);
        if let Some(program) = &self.program {
            let max = |acc, v| if v > acc { v } else { acc };
            return program.reduce(src, out, f64::NEG_INFINITY, max);
        }
        if self.layout == Layout::Identity {
            out.copy_from_slice(src);
            return;
        }
        out.fill(f64::NEG_INFINITY);
        let mut odo = InlineOdometer::new(&self.sup_cards, &self.ext_strides);
        for &v in src {
            let slot = &mut out[odo.mapped()];
            if v > *slot {
                *slot = v;
            }
            odo.advance();
        }
    }

    /// One-pass rebuild: `dst[i] = src[i] · msg[m(i)]`, `dst` overwritten
    /// — the first write of a table whose current values live elsewhere:
    /// a live session's saved snapshot, or a query's initial slab. Bitwise
    /// equal to copying `src` into `dst` and then
    /// [`KernelPlan::extend_multiply`] (the same products, each entry
    /// written once), in one pass over the table: the run program on a
    /// programmed plan, the layout kernel of [`KernelPlan::layout`]
    /// otherwise.
    pub fn extend_multiply_from(&self, src: &[f64], dst: &mut [f64], msg: &[f64]) {
        debug_assert_eq!(src.len(), self.sup_size);
        debug_assert_eq!(dst.len(), self.sup_size);
        debug_assert_eq!(msg.len(), self.sub_size);
        if let Some(program) = &self.program {
            return program.multiply_from(src, dst, msg);
        }
        match self.layout {
            Layout::Identity => {
                for ((d, &v), &m) in dst.iter_mut().zip(src).zip(msg) {
                    *d = v * m;
                }
            }
            Layout::InnerBlock => {
                let sub = self.sub_size;
                for (out, block) in dst.chunks_exact_mut(sub).zip(src.chunks_exact(sub)) {
                    for ((d, &v), &m) in out.iter_mut().zip(block).zip(msg) {
                        *d = v * m;
                    }
                }
            }
            Layout::OuterBlock { fiber_len } => {
                let fibers = dst
                    .chunks_exact_mut(fiber_len)
                    .zip(src.chunks_exact(fiber_len));
                for ((out, fiber), &m) in fibers.zip(msg) {
                    for (d, &v) in out.iter_mut().zip(fiber) {
                        *d = v * m;
                    }
                }
            }
            Layout::Generic => {
                let mut odo = InlineOdometer::new(&self.sup_cards, &self.ext_strides);
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = v * msg[odo.mapped()];
                    odo.advance();
                }
            }
        }
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
        match self.layout {
            Layout::Identity => {
                for (v, &m) in table.iter_mut().zip(msg) {
                    *v *= m;
                }
            }
            Layout::InnerBlock => {
                for block in table.chunks_exact_mut(self.sub_size) {
                    for (v, &m) in block.iter_mut().zip(msg) {
                        *v *= m;
                    }
                }
            }
            Layout::OuterBlock { fiber_len } => {
                for (fiber, &m) in table.chunks_exact_mut(fiber_len).zip(msg) {
                    for v in fiber {
                        *v *= m;
                    }
                }
            }
            Layout::Generic => {
                let mut odo = InlineOdometer::new(&self.sup_cards, &self.ext_strides);
                for v in table {
                    *v *= msg[odo.mapped()];
                    odo.advance();
                }
            }
        }
    }

    /// Chunked extension-multiply: applies `table[lo + j] *= msg[m(lo + j)]`
    /// to `chunk = &mut table[lo..hi]`. Parallel callers hand each worker a
    /// disjoint chunk; results are bitwise equal to the full-table form
    /// because each entry is written exactly once.
    #[inline]
    pub fn extend_multiply_range(&self, chunk: &mut [f64], msg: &[f64], lo: usize) {
        debug_assert!(lo + chunk.len() <= self.sup_size);
        match self.layout {
            Layout::Identity => {
                for (v, &m) in chunk.iter_mut().zip(&msg[lo..]) {
                    *v *= m;
                }
            }
            Layout::InnerBlock => {
                let sub = self.sub_size;
                let mut m = lo % sub;
                for v in chunk {
                    *v *= msg[m];
                    m += 1;
                    if m == sub {
                        m = 0;
                    }
                }
            }
            Layout::OuterBlock { fiber_len } => {
                let mut t = lo / fiber_len;
                let mut left = fiber_len - lo % fiber_len;
                for v in chunk {
                    *v *= msg[t];
                    left -= 1;
                    if left == 0 {
                        t += 1;
                        left = fiber_len;
                    }
                }
            }
            Layout::Generic => {
                let mut odo = InlineOdometer::new(&self.sup_cards, &self.ext_strides);
                odo.seek(lo);
                for v in chunk {
                    *v *= msg[odo.mapped()];
                    odo.advance();
                }
            }
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
        let entries = chunk.iter_mut().zip(src);
        match self.layout {
            Layout::Identity => {
                for ((d, &v), &m) in entries.zip(&msg[lo..]) {
                    *d = v * m;
                }
            }
            Layout::InnerBlock => {
                let sub = self.sub_size;
                let mut m = lo % sub;
                for (d, &v) in entries {
                    *d = v * msg[m];
                    m += 1;
                    if m == sub {
                        m = 0;
                    }
                }
            }
            Layout::OuterBlock { fiber_len } => {
                let mut t = lo / fiber_len;
                let mut left = fiber_len - lo % fiber_len;
                for (d, &v) in entries {
                    *d = v * msg[t];
                    left -= 1;
                    if left == 0 {
                        t += 1;
                        left = fiber_len;
                    }
                }
            }
            Layout::Generic => {
                let mut odo = InlineOdometer::new(&self.sup_cards, &self.ext_strides);
                odo.seek(lo);
                for (d, &v) in entries {
                    *d = v * msg[odo.mapped()];
                    odo.advance();
                }
            }
        }
    }
}

/// The fused collect kernel: in one pass over the clique,
/// `table[i] *= msg[mul(i)]` and `out[marg(i)] += table[i]` — the
/// extension of a pending separator ratio folded into the next outgoing
/// marginalization, so the fully-extended clique is never materialized in
/// a separate sweep.
///
/// `mul` and `marg` must be plans over the **same superdomain** (the
/// clique); `msg` lives on `mul`'s subdomain, `out` (overwritten) on
/// `marg`'s.
///
/// Bit-identity: the products `table[i] · msg[mul(i)]` are exactly the
/// values the unfused `extend_multiply`-then-`marginalize` pair computes,
/// and each output slot still accumulates them in ascending source index
/// — so the fused result is bitwise equal to the two-pass result, for both
/// the updated clique and the outgoing message. That equality is also
/// what licenses the internal dispatch. Small tables (both plans carry a
/// run program, or one is the identity) run the two passes through their
/// programs. Above the program constant, when either plan has a blocked
/// (non-[`Layout::Generic`]) layout the two vectorizable passes beat one
/// fused double-odometer walk, so this function runs them instead; the
/// single fused pass is kept for large generic/generic pairs, where
/// saving a full clique traversal is what wins (1.36× over two odometer
/// passes when it landed).
pub fn multiply_marginalize(
    mul: &KernelPlan,
    marg: &KernelPlan,
    table: &mut [f64],
    msg: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(mul.sup_size, marg.sup_size, "plans must share a clique");
    debug_assert_eq!(table.len(), mul.sup_size);
    debug_assert_eq!(msg.len(), mul.sub_size);
    debug_assert_eq!(out.len(), marg.sub_size);
    if !walks_fused(mul, marg) {
        mul.extend_multiply(table, msg);
        marg.marginalize(table, out);
        return;
    }
    out.fill(0.0);
    let mut mul_odo = InlineOdometer::new(&mul.sup_cards, &mul.ext_strides);
    let mut marg_odo = InlineOdometer::new(&marg.sup_cards, &marg.ext_strides);
    for v in table {
        *v *= msg[mul_odo.mapped()];
        out[marg_odo.mapped()] += *v;
        mul_odo.advance();
        marg_odo.advance();
    }
}

/// [`multiply_marginalize`] for a clique whose current values live in
/// `src` rather than in `table`: `table[i] = src[i] · msg[mul(i)]` and
/// `out[marg(i)] += table[i]`, `table` and `out` overwritten. Bitwise
/// equal to copying `src` into `table` and then [`multiply_marginalize`],
/// under the same dispatch: the two passes
/// ([`KernelPlan::extend_multiply_from`], then
/// [`KernelPlan::marginalize`]) wherever that function runs two, the one
/// fused walk on a large generic/generic pair.
pub fn multiply_marginalize_from(
    mul: &KernelPlan,
    marg: &KernelPlan,
    src: &[f64],
    table: &mut [f64],
    msg: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(mul.sup_size, marg.sup_size, "plans must share a clique");
    debug_assert_eq!(src.len(), mul.sup_size);
    debug_assert_eq!(table.len(), mul.sup_size);
    debug_assert_eq!(msg.len(), mul.sub_size);
    debug_assert_eq!(out.len(), marg.sub_size);
    if !walks_fused(mul, marg) {
        mul.extend_multiply_from(src, table, msg);
        marg.marginalize(table, out);
        return;
    }
    out.fill(0.0);
    let mut mul_odo = InlineOdometer::new(&mul.sup_cards, &mul.ext_strides);
    let mut marg_odo = InlineOdometer::new(&marg.sup_cards, &marg.ext_strides);
    for (v, &s) in table.iter_mut().zip(src) {
        *v = s * msg[mul_odo.mapped()];
        out[marg_odo.mapped()] += *v;
        mul_odo.advance();
        marg_odo.advance();
    }
}

/// Whether the fused kernels take their single double-odometer walk:
/// only for a pair without run programs whose layouts are both
/// [`Layout::Generic`] (see [`multiply_marginalize`]).
fn walks_fused(mul: &KernelPlan, marg: &KernelPlan) -> bool {
    let programmed = mul.program.is_some() || marg.program.is_some();
    !programmed && mul.layout == Layout::Generic && marg.layout == Layout::Generic
}

/// Largest superdomain, in entries, that is compiled into a run program:
/// 32 768 `f64` = 256 KiB plus at most 64 KiB of bases, so the table and
/// its program are both L2-resident while a kernel runs (see the module
/// header for why larger tables keep the layout kernels).
const RUN_PROGRAM_MAX_ENTRIES: usize = 32_768;

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
        // Merge neighbouring variables with the same membership into
        // (cardinality, subdomain stride) groups, outermost first.
        // Cardinality-1 variables are dropped *before* looking for
        // neighbours: they move neither index, and one sitting between
        // two members must not keep them apart (nor join two groups of
        // different membership). Between two surviving member neighbours
        // the subdomain holds nothing but such unit variables, so the
        // inner one's stride is the merged group's stride.
        let mut groups = [(0usize, 0usize); MAX_PLAN_VARS];
        let mut len = 0;
        for (&card, &stride) in sup_cards.iter().zip(ext_strides) {
            if card == 1 {
                continue;
            }
            match groups[..len].last_mut() {
                Some(last) if (last.1 != 0) == (stride != 0) => *last = (last.0 * card, stride),
                _ => {
                    groups[len] = (card, stride);
                    len += 1;
                }
            }
        }
        // The innermost group is the run; a one-entry table has none.
        let (outer, (run_len, run_stride)) = match groups[..len].split_last() {
            Some((&inner, outer)) => (outer, inner),
            None => (&groups[..0], (1, 0)),
        };
        let spread = run_stride != 0;
        debug_assert!(!spread || run_stride == 1, "innermost member is stride-1");

        // One base per assignment of the outer groups, in row-major
        // order, built in place by replication: the bases of the groups
        // inside `g` repeat `card(g)` times, shifted by `g`'s stride.
        let mut bases = vec![0u32; outer.iter().map(|g| g.0).product()];
        let mut filled = 1;
        for &(card, stride) in outer.iter().rev() {
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
    /// the layout kernels, so a sum's addition chain is unchanged.
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
/// twin of [`crate::index_map::Odometer`] used inside plan execution.
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
    /// layout kernels alone.
    fn without_program(plan: &KernelPlan) -> KernelPlan {
        let mut stripped = plan.clone();
        stripped.program = None;
        stripped
    }

    /// `plan` forced through the per-entry odometer: no program, and the
    /// classification overridden.
    fn odometer_only(plan: &KernelPlan) -> KernelPlan {
        let mut generic = without_program(plan);
        generic.layout = Layout::Generic;
        generic
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

    /// Every whole-table kernel of `sup → sub`, executed by `plan`'s own
    /// dispatch (the run program on a small table), equals the odometer
    /// walk bit for bit.
    fn assert_matches_odometer(sup: &Domain, sub: &Domain) {
        let plan = KernelPlan::new(sup, sub);
        let odometer = odometer_only(&plan);
        let what = format!("{:?} -> {:?}", sup.cards(), sub.cards());
        let src = uneven(sup.size());
        let msg: Vec<f64> = uneven(sub.size()).iter().map(|v| v + 0.5).collect();

        let (mut got, mut want) = (vec![f64::NAN; sub.size()], vec![f64::NAN; sub.size()]);
        plan.marginalize(&src, &mut got);
        odometer.marginalize(&src, &mut want);
        assert_eq!(bits(&got), bits(&want), "marginalize {what}");

        plan.max_marginalize(&src, &mut got);
        odometer.max_marginalize(&src, &mut want);
        assert_eq!(bits(&got), bits(&want), "max_marginalize {what}");

        let (mut a, mut b) = (src.clone(), src.clone());
        plan.extend_multiply(&mut a, &msg);
        odometer.extend_multiply(&mut b, &msg);
        assert_eq!(bits(&a), bits(&b), "extend_multiply {what}");
    }

    #[test]
    fn fast_paths_match_generic_bitwise() {
        // Three executions of one mapping — the run program, the layout
        // kernels a larger table would use, and the odometer every layout
        // is forced through by overriding the classification — agree.
        let sup = dom(&[(0, 2), (1, 3), (2, 2), (3, 2)]);
        for sub in [
            dom(&[(2, 2), (3, 2)]),
            dom(&[(0, 2), (1, 3)]),
            dom(&[(0, 2), (3, 2)]),
            sup.clone(),
            Domain::scalar(),
        ] {
            assert_matches_odometer(&sup, &sub);
            let plan = KernelPlan::new(&sup, &sub);
            assert_eq!(plan.program.is_some(), plan.layout() != Layout::Identity);
            let blocked = without_program(&plan);
            let generic = odometer_only(&plan);

            let src = uneven(sup.size());
            let msg: Vec<f64> = (0..sub.size()).map(|i| 0.25 * (i + 1) as f64).collect();

            let mut fast = vec![f64::NAN; sub.size()];
            let mut slow = vec![f64::NAN; sub.size()];
            blocked.marginalize(&src, &mut fast);
            generic.marginalize(&src, &mut slow);
            assert_eq!(fast, slow, "marginalize {:?}", plan.layout());

            let mut folded = vec![f64::NAN; sub.size()];
            plan.marginalize_fold(&src, 0, sub.size(), |t, v| folded[t] = v);
            assert_eq!(folded, slow, "fold {:?}", plan.layout());

            let mut a = src.clone();
            let mut b = src.clone();
            blocked.extend_multiply(&mut a, &msg);
            generic.extend_multiply(&mut b, &msg);
            assert_eq!(a, b, "extend {:?}", plan.layout());

            // Range form, split at an awkward boundary.
            let mut c = src.clone();
            let mid = sup.size() / 3;
            let (left, right) = c.split_at_mut(mid);
            plan.extend_multiply_range(left, &msg, 0);
            plan.extend_multiply_range(right, &msg, mid);
            assert_eq!(c, b, "extend range {:?}", plan.layout());
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
        assert_matches_odometer(&sup, &sub);

        // A unit variable between a member and a summed-out variable
        // joins neither: `a` stays its own group, `c` is the run.
        let sub = dom(&[(0, 2)]);
        let program = KernelPlan::new(&sup, &sub).program.unwrap();
        assert_eq!((program.run_len, program.spread), (2, false));
        assert_eq!(&*program.bases, &[0, 1]);
        assert_matches_odometer(&sup, &sub);

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
            assert_matches_odometer(&sup, &sub);
        }
        // Differing from the clique by unit variables only: not the
        // `Identity` copy (the scopes differ), one run over every slot.
        let program = KernelPlan::new(&sup, &dom(&[(1, 3), (3, 2), (4, 5)]))
            .program
            .unwrap();
        assert_eq!((program.run_len, program.bases.len()), (30, 1));
    }

    #[test]
    fn program_shapes_at_the_edges() {
        // Scalar separator: one run, one slot.
        let sup = dom(&[(0, 2), (1, 3), (2, 2)]);
        let program = KernelPlan::new(&sup, &Domain::scalar()).program.unwrap();
        assert_eq!((program.run_len, program.spread), (12, false));
        assert_eq!(&*program.bases, &[0]);
        assert_matches_odometer(&sup, &Domain::scalar());

        // Single-variable clique: onto the scalar it is one summed run;
        // onto itself it is the `Identity` copy, which has no program.
        let single = dom(&[(4, 3)]);
        let program = KernelPlan::new(&single, &Domain::scalar()).program.unwrap();
        assert_eq!((program.run_len, program.bases.len()), (3, 1));
        assert_matches_odometer(&single, &Domain::scalar());
        for same in [&single, &sup] {
            let plan = KernelPlan::new(same, same);
            assert_eq!(plan.layout(), Layout::Identity);
            assert!(plan.program.is_none());
            assert_matches_odometer(same, same);
        }

        // A one-entry clique has no group at all.
        let unit = dom(&[(0, 1), (1, 1)]);
        let program = KernelPlan::new(&unit, &dom(&[(1, 1)])).program.unwrap();
        assert_eq!((program.run_len, program.bases.len()), (1, 1));
        assert_matches_odometer(&unit, &dom(&[(1, 1)]));

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
        // 99 × 331 = 32 769 keeps the layout kernels. Both equal the
        // odometer on every kernel, for each way the separator can sit.
        let at = dom(&[(0, 128), (1, 256)]);
        let above = dom(&[(0, 99), (1, 331)]);
        assert_eq!(at.size(), RUN_PROGRAM_MAX_ENTRIES);
        assert_eq!(above.size(), RUN_PROGRAM_MAX_ENTRIES + 1);
        for (sup, programmed) in [(&at, true), (&above, false)] {
            for keep in [0usize, 1] {
                let sub = dom(&[(keep as u32, sup.cards()[keep])]);
                let plan = KernelPlan::new(sup, &sub);
                assert_eq!(plan.is_programmed(), programmed);
                assert_matches_odometer(sup, &sub);
            }
            let plan = KernelPlan::new(sup, &Domain::scalar());
            assert_eq!(plan.is_programmed(), programmed);
            assert_matches_odometer(sup, &Domain::scalar());
        }
        // Scattered separators on both sides of the constant.
        let at = dom(&[(0, 32), (1, 32), (2, 32)]);
        let above = dom(&[(0, 33), (1, 32), (2, 32)]);
        for sup in [&at, &above] {
            let sub = dom(&[(0, sup.cards()[0]), (2, 32)]);
            let plan = KernelPlan::new(sup, &sub);
            assert_eq!(plan.layout(), Layout::Generic);
            assert_eq!(plan.is_programmed(), sup.size() <= RUN_PROGRAM_MAX_ENTRIES);
            assert_matches_odometer(sup, &sub);
        }
    }

    #[test]
    fn fused_kernel_equals_two_pass() {
        let sup = dom(&[(0, 2), (1, 3), (2, 2)]);
        let mul_sub = dom(&[(1, 3)]);
        let marg_sub = dom(&[(0, 2), (2, 2)]);
        let mul = KernelPlan::new(&sup, &mul_sub);
        let marg = KernelPlan::new(&sup, &marg_sub);
        let msg = [2.0, 0.5, 1.5];

        let mut fused_table = ramp(sup.size());
        let mut fused_out = vec![f64::NAN; marg_sub.size()];
        multiply_marginalize(&mul, &marg, &mut fused_table, &msg, &mut fused_out);

        let mut two_pass = ramp(sup.size());
        mul.extend_multiply(&mut two_pass, &msg);
        let mut out = vec![f64::NAN; marg_sub.size()];
        marg.marginalize(&two_pass, &mut out);

        assert_eq!(fused_table, two_pass);
        assert_eq!(fused_out, out);

        // The same pair above the program constant runs the single fused
        // odometer walk (both layouts are generic): same bits.
        let mut walked_table = ramp(sup.size());
        let mut walked_out = vec![f64::NAN; marg_sub.size()];
        multiply_marginalize(
            &without_program(&mul),
            &without_program(&marg),
            &mut walked_table,
            &msg,
            &mut walked_out,
        );
        assert_eq!(walked_table, two_pass);
        assert_eq!(walked_out, out);
    }

    #[test]
    fn max_marginalize_matches_reference() {
        let sup = dom(&[(0, 2), (1, 3), (2, 2)]);
        let sub = dom(&[(1, 3)]);
        let plan = KernelPlan::new(&sup, &sub);
        let src: Vec<f64> = (0..sup.size()).map(|i| ((i * 7) % 11) as f64).collect();
        let mut got = vec![0.0; sub.size()];
        plan.max_marginalize(&src, &mut got);
        let mut want = vec![f64::NEG_INFINITY; sub.size()];
        let mut odo = InlineOdometer::new(&plan.sup_cards, &plan.ext_strides);
        for &v in &src {
            if v > want[odo.mapped()] {
                want[odo.mapped()] = v;
            }
            odo.advance();
        }
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "subdomain")]
    fn non_subdomain_target_rejected() {
        let sup = dom(&[(0, 2), (1, 2)]);
        let other = dom(&[(5, 2)]);
        KernelPlan::new(&sup, &other);
    }
}

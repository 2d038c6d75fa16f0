//! Per-query mutable state (one contiguous slab) and the shared pieces of
//! Hugin propagation.
//!
//! # Lazy reset
//!
//! A query starts from `Prepared`'s initial slab. On a slab of at most
//! `LAZY_RESET_MIN_ENTRIES` entries, [`WorkState::reset`] copies it in
//! whole. Above that it refills only the separator region and marks every
//! clique **pristine**: its values are its initial values, read from the
//! shared initial slab, not from the state's own. A pristine clique is
//! never copied on its own; the first kernel that writes it reads the
//! initial values in the same pass — a finding through
//! `VarAxis::select_from`, a ratio through
//! `KernelPlan::extend_multiply_from` (or its chunked and fused forms) —
//! and a pristine sender is marginalized straight from the initial slab.
//! Each of those forms the same products and sums from bitwise-equal
//! operands, so the mode never changes a bit. Only this module knows the
//! rule: readers go through [`WorkState::clique`] (initial values while
//! pristine), callers that write by hand through
//! `WorkState::clique_mut` or `WorkState::message_slices` (which copy
//! first), and the propagation driver asks for a sender's values and for
//! the initial values a receiver's first write reads.
//!
//! fastbn: audited-raw-ptr
//! fastbn: deny-hot-alloc

use std::sync::{Arc, OnceLock};

use fastbn_bayesnet::{Evidence, VarId};
use fastbn_parallel::{Schedule, ThreadPool};
use fastbn_potential::{multiply_marginalize, multiply_marginalize_from, ops};

use crate::error::InferenceError;
use crate::posterior::Posteriors;
use crate::prepared::{Prepared, SlabLayout};
use crate::slab_track;

/// Sentinel for "no deferred message" in the pending array.
const NO_PENDING: u32 = u32::MAX;

/// Active slab size, in entries, above which a reset leaves the cliques
/// pristine instead of copying them: 262 144 `f64` = 2 MiB, one core's
/// L2. Above it the copy streams through the shared cache, and the first
/// kernels then read the same values again: on the benchmark's
/// `large-cliques` (10 MB slab, 2-core VM) it took 1.31–1.39 ms, about a
/// fifth of a two-thread query, and reading the initial values in the
/// first-write kernels instead raised `qps` by 22 %. At or below it the
/// copy is L2-resident and cheap: lazy at every size, `small-cliques`
/// (the pigs analogue) saved 12 µs of reset but its propagation grew by
/// 2–18 µs, and `qps` moved by −6.7 … +1.9 % over three pairs — no gain,
/// so small slabs keep the one copy (which a live state needs anyway).
const LAZY_RESET_MIN_ENTRIES: usize = 262_144;

/// Whether a state over an active slab of `total` entries resets lazily
/// (see [`LAZY_RESET_MIN_ENTRIES`]).
pub(crate) fn resets_lazily(total: usize) -> bool {
    total > LAZY_RESET_MIN_ENTRIES
}

/// The mutable tables of one in-flight query — clique potentials,
/// separator potentials, plus two per-separator scratch buffers (the
/// freshly marginalized message and the `new/old` ratio) — packed into a
/// **single contiguous `f64` slab** laid out by [`SlabLayout`].
///
/// A `WorkState` is the unit of scratch a [`Session`](crate::solver::Session)
/// holds: allocated once (one slab allocation, not 4×N table `Vec`s),
/// reset per query — by one `copy_from_slice`, or above
/// `LAZY_RESET_MIN_ENTRIES` by refilling the separators and leaving each
/// clique to be rebuilt from the initial slab at its first write (see the
/// module header) — and recycled through the solver's scratch pool when
/// the session drops. Steady-state propagation touches only slab regions
/// through precompiled [`KernelPlan`](fastbn_potential::KernelPlan)s, so
/// it performs **zero heap allocations**.
#[derive(Debug, Clone)]
pub struct WorkState {
    /// All tables, contiguously: cliques, seps, fresh, ratio.
    slab: Box<[f64]>,
    /// `Prepared`'s initial slab: a pristine clique's values.
    initial: Arc<[f64]>,
    /// Per clique: its values are its initial values, and its slab region
    /// is stale (set by a lazy reset, cleared by the first write).
    pristine: Box<[bool]>,
    /// Per-clique deferred-ratio slot of deferred layers' fused
    /// collect/distribute path: the separator whose ratio still has to be
    /// multiplied into this clique, or [`NO_PENDING`].
    pending: Box<[u32]>,
    /// Offsets into the slab (shared with the `Prepared`).
    layout: Arc<SlabLayout>,
}

impl WorkState {
    /// Allocates a working slab shaped like `prepared`'s and initializes
    /// it from the initial slab (one allocation for all tables).
    // fastbn: allow(hot-alloc): constructor — the one slab allocation a
    // query pays (then recycled through the solver's scratch pool).
    pub fn new(prepared: &Prepared) -> Self {
        WorkState {
            slab: Box::from(&*prepared.initial_slab),
            initial: Arc::clone(&prepared.initial_slab),
            pristine: vec![false; prepared.num_cliques()].into_boxed_slice(),
            pending: vec![NO_PENDING; prepared.num_cliques()].into_boxed_slice(),
            layout: prepared.layout.clone(),
        }
    }

    /// Allocates a **live** slab: the four active regions plus the
    /// saved-message regions ([`SlabLayout::saved_clique_off`] /
    /// [`SlabLayout::saved_col_off`]) that incremental re-propagation
    /// keeps current between evidence-delta edits. Same allocation count
    /// as [`WorkState::new`], one slab — just a longer one.
    // fastbn: allow(hot-alloc): constructor (live-session slab).
    pub(crate) fn with_saved(prepared: &Prepared) -> Self {
        let layout = prepared.layout.clone();
        let mut slab = vec![1.0f64; layout.live_total].into_boxed_slice();
        slab[..prepared.initial_slab.len()].copy_from_slice(&prepared.initial_slab);
        WorkState {
            slab,
            initial: Arc::clone(&prepared.initial_slab),
            pristine: vec![false; prepared.num_cliques()].into_boxed_slice(),
            pending: vec![NO_PENDING; prepared.num_cliques()].into_boxed_slice(),
            layout,
        }
    }

    /// Whether this state carries the saved-message regions (allocated by
    /// [`WorkState::with_saved`]).
    #[inline]
    pub(crate) fn has_saved(&self) -> bool {
        self.slab.len() == self.layout.live_total
    }

    /// Restores the pre-evidence state, reusing the allocation.
    /// `prepared` must be the preparation this state was built from.
    ///
    /// On an active slab above `LAZY_RESET_MIN_ENTRIES` entries it
    /// refills only the separator region and marks every clique pristine
    /// (module header); `fresh` and `ratio` scratch is always written
    /// before it is read, so it is left as it is. Otherwise — and always
    /// on a live state (`WorkState::with_saved`) — it is one bulk copy
    /// of the active prefix; the saved-message regions are owned by the
    /// incremental bookkeeping that rewrites them.
    pub fn reset(&mut self, prepared: &Prepared) {
        debug_assert!(Arc::ptr_eq(&self.initial, &prepared.initial_slab));
        let lazy = prepared.lazy_reset && !self.has_saved();
        if lazy {
            // The separator region: from the first separator to the first
            // `fresh` scratch (empty on a one-clique tree).
            let layout = &*self.layout;
            let (start, end) = match (layout.sep_off.first(), layout.fresh_off.first()) {
                (Some(&start), Some(&end)) => (start, end),
                _ => (0, 0),
            };
            self.slab[start..end].copy_from_slice(&self.initial[start..end]);
        } else {
            self.slab[..self.initial.len()].copy_from_slice(&self.initial);
        }
        self.pristine.fill(lazy);
        self.pending.fill(NO_PENDING);
    }

    /// Clique `c`'s values (its initial values while it is pristine).
    #[inline]
    pub fn clique(&self, c: usize) -> &[f64] {
        let off = self.layout.clique_off[c];
        let values: &[f64] = if self.pristine[c] {
            &self.initial
        } else {
            &self.slab
        };
        &values[off..off + self.layout.clique_len[c]]
    }

    /// Clique `c`'s values, mutably (copied in from the initial slab
    /// first if it is pristine).
    #[inline]
    pub(crate) fn clique_mut(&mut self, c: usize) -> &mut [f64] {
        self.copy_pristine(c);
        let off = self.layout.clique_off[c];
        &mut self.slab[off..off + self.layout.clique_len[c]]
    }

    /// Clique `c`'s initial values if it is pristine: what the first
    /// write of its slab region must read instead of the region.
    #[inline]
    pub(crate) fn pristine_values(&self, c: usize) -> Option<&[f64]> {
        self.pristine[c].then(|| self.initial_values(c))
    }

    /// Clique `c`'s region of the initial slab.
    #[inline]
    fn initial_values(&self, c: usize) -> &[f64] {
        let off = self.layout.clique_off[c];
        &self.initial[off..off + self.layout.clique_len[c]]
    }

    /// Copies clique `c`'s initial values into its slab region if it is
    /// pristine — for writers that update a region in place.
    pub(crate) fn copy_pristine(&mut self, c: usize) {
        if std::mem::take(&mut self.pristine[c]) {
            let (off, len) = (self.layout.clique_off[c], self.layout.clique_len[c]);
            self.slab[off..off + len].copy_from_slice(&self.initial[off..off + len]);
        }
    }

    /// Records that clique `c`'s whole slab region was written from its
    /// [`pristine_values`](WorkState::pristine_values).
    #[inline]
    pub(crate) fn mark_written(&mut self, c: usize) {
        self.pristine[c] = false;
    }

    /// Clique `c`'s values for a read through `raw` while other regions
    /// are written: its initial values while it is pristine.
    ///
    /// # Safety
    /// As [`SlabRaw::slice`]: `raw` views this state's slab, and `c`'s
    /// region is not concurrently written.
    #[inline]
    #[track_caller]
    pub(crate) unsafe fn sender_values<'a>(&'a self, raw: &'a SlabRaw, c: usize) -> &'a [f64] {
        match self.pristine_values(c) {
            Some(initial) => initial,
            // SAFETY: forwarded from this function's contract.
            None => unsafe { raw.slice(self.layout.clique_off[c], self.layout.clique_len[c]) },
        }
    }

    /// Separator `s`'s current values.
    #[inline]
    pub fn sep(&self, s: usize) -> &[f64] {
        let off = self.layout.sep_off[s];
        &self.slab[off..off + self.layout.sep_len[s]]
    }

    /// Separator `s`'s fresh-message scratch. Scratch is written before it
    /// is read, and a lazy reset leaves it as the last query did.
    #[inline]
    pub fn fresh(&self, s: usize) -> &[f64] {
        let off = self.layout.fresh_off[s];
        &self.slab[off..off + self.layout.sep_len[s]]
    }

    /// Separator `s`'s ratio scratch (left stale by a lazy reset, like
    /// [`WorkState::fresh`]).
    #[inline]
    pub fn ratio(&self, s: usize) -> &[f64] {
        let off = self.layout.ratio_off[s];
        &self.slab[off..off + self.layout.sep_len[s]]
    }

    /// The separator whose ratio is still pending multiplication into
    /// clique `c`, if any (deferred-layer fusion bookkeeping).
    #[inline]
    pub fn pending(&self, c: usize) -> Option<usize> {
        let p = self.pending[c];
        (p != NO_PENDING).then_some(p as usize)
    }

    /// Records that separator `sep`'s ratio must later be multiplied into
    /// clique `c`.
    #[inline]
    pub(crate) fn set_pending(&mut self, c: usize, sep: usize) {
        self.pending[c] = sep as u32;
    }

    /// Clears and returns clique `c`'s pending separator, if any.
    #[inline]
    pub(crate) fn take_pending(&mut self, c: usize) -> Option<usize> {
        let p = self.pending[c];
        self.pending[c] = NO_PENDING;
        (p != NO_PENDING).then_some(p as usize)
    }

    /// Multiplies clique `c`'s deferred ratio (if any) into the clique —
    /// the flush half of the deferred-ratio fusion.
    /// Allocation-free.
    pub(crate) fn flush_pending(&mut self, prepared: &Prepared, c: usize) {
        if let Some(sep) = self.take_pending(c) {
            self.apply_ratio(prepared, c, sep);
        }
    }

    /// Multiplies separator `sep`'s ratio into clique `c` — a pristine
    /// clique is rebuilt from its initial values in the same pass.
    /// Allocation-free.
    pub(crate) fn apply_ratio(&mut self, prepared: &Prepared, c: usize, sep: usize) {
        let plan = prepared.plan_for(c, sep);
        let pristine = std::mem::take(&mut self.pristine[c]);
        let raw = self.raw();
        // SAFETY: the clique and ratio regions are disjoint slab ranges,
        // and `&mut self` guarantees exclusivity (the initial slab is not
        // part of the slab).
        unsafe {
            let clique = raw.slice_mut(self.layout.clique_off[c], self.layout.clique_len[c]);
            let ratio = raw.slice(self.layout.ratio_off[sep], self.layout.sep_len[sep]);
            if pristine {
                plan.extend_multiply_from(self.initial_values(c), clique, ratio);
            } else {
                plan.extend_multiply(clique, ratio);
            }
        }
    }

    /// Applies every deferred ratio still outstanding — the end of a
    /// propagation built on [`WorkState::send_deferred`]: leaves (and any
    /// clique that never sent again) must hold their final values before
    /// extraction reads them.
    pub(crate) fn flush_all_pending(&mut self, prepared: &Prepared) {
        for c in 0..self.pending.len() {
            self.flush_pending(prepared, c);
        }
    }

    /// One whole message `sender → receiver` over `sep` on the calling
    /// thread, with **deferred ratio extension** — the per-message routine
    /// of the propagation driver's deferred layers (every layer of `Seq`,
    /// every region-less layer of `Hybrid`): marginalize the
    /// sender onto `fresh` (fusing the sender's own pending ratio, if any,
    /// through [`multiply_marginalize`]), update the separator
    /// ([`ops::sep_update`]), and record — not apply — the ratio for the
    /// receiver. An older ratio pending on the receiver is applied first,
    /// so a clique's ratios multiply in arrival order, exactly as an eager
    /// `extend_multiply` per message would. A pristine sender is read from
    /// the initial slab: marginalized straight from it, or rebuilt from it
    /// by the fused pass ([`multiply_marginalize_from`]) when a ratio is
    /// pending. Allocation-free.
    ///
    /// Whoever reads or writes a clique by other means (a parallel phase,
    /// extraction) must [`flush_pending`](WorkState::flush_pending) it
    /// first.
    pub(crate) fn send_deferred(
        &mut self,
        prepared: &Prepared,
        sender: usize,
        receiver: usize,
        sep: usize,
    ) {
        self.flush_pending(prepared, receiver);
        let pending = self.take_pending(sender);
        // A pending ratio is multiplied into the sender: that writes it.
        let pristine = self.pristine[sender];
        if pending.is_some() {
            self.pristine[sender] = false;
        }
        let marg_plan = prepared.plan_for(sender, sep);
        let layout = &*prepared.layout;
        let raw = self.raw();
        let initial = pristine.then(|| self.initial_values(sender));
        // SAFETY: every slice below is a distinct slab region (clique,
        // sep, fresh and ratio regions are pairwise disjoint by layout
        // construction; `ratio[p]` vs `fresh[sep]` are distinct regions
        // even when `p == sep`), and `&mut self` is exclusive.
        unsafe {
            let fresh = raw.slice_mut(layout.fresh_off[sep], layout.sep_len[sep]);
            match pending {
                Some(p) => {
                    let mul_plan = prepared.plan_for(sender, p);
                    let clique =
                        raw.slice_mut(layout.clique_off[sender], layout.clique_len[sender]);
                    let ratio_p = raw.slice(layout.ratio_off[p], layout.sep_len[p]);
                    match initial {
                        Some(src) => multiply_marginalize_from(
                            mul_plan, marg_plan, src, clique, ratio_p, fresh,
                        ),
                        None => multiply_marginalize(mul_plan, marg_plan, clique, ratio_p, fresh),
                    }
                }
                None => marg_plan.marginalize(self.sender_values(&raw, sender), fresh),
            }
            let sep_vals = raw.slice_mut(layout.sep_off[sep], layout.sep_len[sep]);
            let ratio = raw.slice_mut(layout.ratio_off[sep], layout.sep_len[sep]);
            ops::sep_update(fresh, sep_vals, ratio);
        }
        self.set_pending(receiver, sep);
    }

    /// Splits out the five disjoint slices of one message: the sender
    /// clique (shared), and the receiver clique, separator, fresh and
    /// ratio buffers (exclusive). A pristine clique among the two is
    /// copied in from the initial slab first.
    ///
    /// # Panics
    /// Debug-asserts that `sender != receiver`; the slab regions of
    /// distinct tables never overlap by construction of [`SlabLayout`].
    #[inline]
    #[allow(clippy::type_complexity)]
    pub(crate) fn message_slices(
        &mut self,
        sender: usize,
        receiver: usize,
        sep: usize,
    ) -> (&[f64], &mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        debug_assert_ne!(sender, receiver);
        self.copy_pristine(sender);
        self.copy_pristine(receiver);
        let layout = &self.layout;
        let base = self.slab.as_mut_ptr();
        slab_track::begin_phase(base);
        slab_track::claim(
            base,
            layout.clique_off[sender],
            layout.clique_len[sender],
            false,
        );
        slab_track::claim(
            base,
            layout.clique_off[receiver],
            layout.clique_len[receiver],
            true,
        );
        slab_track::claim(base, layout.sep_off[sep], layout.sep_len[sep], true);
        slab_track::claim(base, layout.fresh_off[sep], layout.sep_len[sep], true);
        slab_track::claim(base, layout.ratio_off[sep], layout.sep_len[sep], true);
        // SAFETY: the five regions are pairwise disjoint — clique, sep,
        // fresh and ratio regions tile the slab without overlap, and
        // sender != receiver picks two distinct clique regions (checked
        // by the region tracker in debug builds).
        unsafe {
            let sl = |off: usize, len: usize| std::slice::from_raw_parts(base.add(off), len);
            let sm = |off: usize, len: usize| std::slice::from_raw_parts_mut(base.add(off), len);
            (
                sl(layout.clique_off[sender], layout.clique_len[sender]),
                sm(layout.clique_off[receiver], layout.clique_len[receiver]),
                sm(layout.sep_off[sep], layout.sep_len[sep]),
                sm(layout.fresh_off[sep], layout.sep_len[sep]),
                sm(layout.ratio_off[sep], layout.sep_len[sep]),
            )
        }
    }

    /// Clique `c`'s saved post-collect snapshot (live states only).
    #[inline]
    pub(crate) fn saved_clique(&self, c: usize) -> &[f64] {
        debug_assert!(self.has_saved());
        let off = self.layout.saved_clique_off[c];
        &self.slab[off..off + self.layout.clique_len[c]]
    }

    /// Snapshots every clique's current values into the saved block with
    /// one bulk copy (the clique regions tile the slab head, and the
    /// saved block mirrors their order).
    pub(crate) fn snapshot_cliques(&mut self) {
        debug_assert!(self.has_saved());
        let n = self.layout.clique_off.len();
        let clique_end = self.layout.clique_off[n - 1] + self.layout.clique_len[n - 1];
        let (active, saved) = self.slab.split_at_mut(self.layout.total);
        saved[..clique_end].copy_from_slice(&active[..clique_end]);
    }

    /// Snapshots clique `c`'s current values into its saved region.
    pub(crate) fn snapshot_clique(&mut self, c: usize) {
        debug_assert!(self.has_saved());
        let (off, len) = (self.layout.clique_off[c], self.layout.clique_len[c]);
        let saved_off = self.layout.saved_clique_off[c] - self.layout.total;
        let (active, saved) = self.slab.split_at_mut(self.layout.total);
        saved[saved_off..saved_off + len].copy_from_slice(&active[off..off + len]);
    }

    /// Restores clique `c`'s active values from its saved snapshot.
    pub(crate) fn restore_clique(&mut self, c: usize) {
        debug_assert!(self.has_saved());
        let (off, len) = (self.layout.clique_off[c], self.layout.clique_len[c]);
        let saved_off = self.layout.saved_clique_off[c] - self.layout.total;
        let (active, saved) = self.slab.split_at_mut(self.layout.total);
        active[off..off + len].copy_from_slice(&saved[saved_off..saved_off + len]);
    }

    /// Rewinds clique `c` to its initial (pre-evidence) values.
    pub(crate) fn load_initial_clique(&mut self, prepared: &Prepared, c: usize) {
        self.clique_mut(c)
            .copy_from_slice(prepared.initial_clique(c));
    }

    /// One collect message recorded into the saved block: marginalizes
    /// `child` onto separator `sep`'s **saved** collect region and
    /// multiplies it into `parent`. Bit-identical to the driver's eager
    /// collect step — a collect ratio is `fresh / 1.0`, which IEEE
    /// division leaves exactly `fresh` — with the message kept for later
    /// delta replays instead of discarded.
    pub(crate) fn collect_into_saved(
        &mut self,
        prepared: &Prepared,
        child: usize,
        parent: usize,
        sep: usize,
    ) {
        debug_assert!(self.has_saved());
        let send_plan = prepared.plan_for(child, sep);
        let recv_plan = prepared.plan_for(parent, sep);
        let raw = self.raw();
        // SAFETY: child clique, parent clique and the saved collect region
        // are pairwise-disjoint slab ranges; `&mut self` is exclusive.
        unsafe {
            let child_v = raw.slice(self.layout.clique_off[child], self.layout.clique_len[child]);
            let parent_v = raw.slice_mut(
                self.layout.clique_off[parent],
                self.layout.clique_len[parent],
            );
            let msg = raw.slice_mut(self.layout.saved_col_off[sep], self.layout.sep_len[sep]);
            send_plan.marginalize(child_v, msg);
            recv_plan.extend_multiply(parent_v, msg);
        }
    }

    /// Multiplies separator `sep`'s **saved** collect message into clique
    /// `receiver` — the replay of an unchanged child's contribution when
    /// an ancestor on a dirty path is rebuilt.
    pub(crate) fn replay_saved_ratio(&mut self, prepared: &Prepared, receiver: usize, sep: usize) {
        debug_assert!(self.has_saved());
        let plan = prepared.plan_for(receiver, sep);
        let raw = self.raw();
        // SAFETY: the receiver clique and the saved collect region are
        // disjoint slab ranges; `&mut self` is exclusive.
        unsafe {
            let clique = raw.slice_mut(
                self.layout.clique_off[receiver],
                self.layout.clique_len[receiver],
            );
            let msg = raw.slice(self.layout.saved_col_off[sep], self.layout.sep_len[sep]);
            plan.extend_multiply(clique, msg);
        }
    }

    /// One on-demand distribute step: marginalizes the (final) `parent`
    /// clique onto `sep`'s fresh scratch, folds it into a ratio against
    /// the saved collect message ([`ops::sep_ratio`]), then rebuilds
    /// `child` as its saved post-collect snapshot times that ratio, in one
    /// pass ([`KernelPlan::extend_multiply_from`]) — exactly the
    /// arithmetic of the driver's eager distribute message, operand for
    /// operand.
    ///
    /// [`KernelPlan::extend_multiply_from`]: fastbn_potential::KernelPlan::extend_multiply_from
    pub(crate) fn distribute_from_parent(
        &mut self,
        prepared: &Prepared,
        parent: usize,
        child: usize,
        sep: usize,
    ) {
        debug_assert!(self.has_saved());
        let send_plan = prepared.plan_for(parent, sep);
        let recv_plan = prepared.plan_for(child, sep);
        let raw = self.raw();
        // SAFETY: parent clique, child clique, fresh scratch, saved
        // collect message and saved child snapshot are pairwise-disjoint
        // slab ranges; `&mut self` is exclusive.
        unsafe {
            let parent_v = raw.slice(
                self.layout.clique_off[parent],
                self.layout.clique_len[parent],
            );
            let fresh = raw.slice_mut(self.layout.fresh_off[sep], self.layout.sep_len[sep]);
            let saved_msg = raw.slice(self.layout.saved_col_off[sep], self.layout.sep_len[sep]);
            let child_v =
                raw.slice_mut(self.layout.clique_off[child], self.layout.clique_len[child]);
            let child_saved = raw.slice(
                self.layout.saved_clique_off[child],
                self.layout.clique_len[child],
            );
            send_plan.marginalize(parent_v, fresh);
            ops::sep_ratio(fresh, saved_msg);
            recv_plan.extend_multiply_from(child_saved, child_v, fresh);
        }
    }

    /// Raw view of the slab for parallel layers, which hand disjoint
    /// regions to worker closures the borrow checker cannot see through.
    #[inline]
    pub(crate) fn raw(&mut self) -> SlabRaw {
        let raw = SlabRaw {
            base: self.slab.as_mut_ptr(),
            len: self.slab.len(),
        };
        // A fresh raw view starts a fresh tracking generation: borrows
        // handed out before it cannot alias the ones handed out after.
        slab_track::begin_phase(raw.base);
        raw
    }

    /// Enters evidence by reducing, for each observation, the potential of
    /// the variable's home clique (one clique per finding suffices —
    /// propagation spreads it). A pristine home is reduced from its
    /// initial values in one pass.
    pub(crate) fn absorb_evidence(&mut self, prepared: &Prepared, evidence: &Evidence) {
        for (var, state) in evidence.iter() {
            let (axis, home) = (prepared.axes[var.index()], prepared.home[var.index()]);
            if std::mem::take(&mut self.pristine[home]) {
                let off = self.layout.clique_off[home];
                let end = off + self.layout.clique_len[home];
                axis.select_from(&self.initial[off..end], &mut self.slab[off..end], state);
            } else {
                axis.select(self.clique_mut(home), state);
            }
        }
    }

    /// `P(evidence)`: after propagation every clique of a component sums to
    /// that component's evidence probability; the network-wide value is the
    /// product over components (read at the roots). That product can
    /// underflow to `0.0` on a forest of many possible components, so
    /// [`WorkState::extract_posteriors`] judges impossibility per
    /// component instead.
    pub fn prob_evidence(&self, prepared: &Prepared) -> f64 {
        self.root_sums(prepared).product()
    }

    /// Each component's `P(e)` factor, in `roots` order.
    fn root_sums<'a>(&'a self, prepared: &'a Prepared) -> impl Iterator<Item = f64> + 'a {
        prepared
            .built
            .rooted
            .roots
            .iter()
            .map(|&r| self.clique(r).iter().sum::<f64>())
    }

    /// One variable's normalized posterior (point mass if observed), read
    /// from its home clique. Requires a propagated state.
    // fastbn: allow(hot-alloc): read-path output allocation (posterior
    // vector handed to the caller).
    pub(crate) fn marginal_of(
        &self,
        prepared: &Prepared,
        evidence: &Evidence,
        var: VarId,
    ) -> Result<Vec<f64>, InferenceError> {
        let mut m = vec![0.0; prepared.cards[var.index()]];
        self.marginal_into(prepared, evidence, var, &mut m)?;
        Ok(m)
    }

    /// [`WorkState::marginal_of`] into a caller-provided buffer of length
    /// `card(var)`: a point mass if `var` is observed, else its home
    /// clique's single-variable marginal, normalised. A total that is
    /// `<= 0` or non-finite means the evidence is impossible.
    pub(crate) fn marginal_into(
        &self,
        prepared: &Prepared,
        evidence: &Evidence,
        var: VarId,
        out: &mut [f64],
    ) -> Result<(), InferenceError> {
        if let Some(state) = evidence.get(var) {
            out.fill(0.0);
            out[state] = 1.0;
            return Ok(());
        }
        prepared.axes[var.index()].marginal(self.clique(prepared.home[var.index()]), out);
        normalize(out)
    }

    /// `P(evidence)` with impossibility judged per component: fails only
    /// if some root sum is `<= 0` or non-finite (see [`checked_product`]).
    pub(crate) fn checked_prob_evidence(&self, prepared: &Prepared) -> Result<f64, InferenceError> {
        checked_product(self.root_sums(prepared))
    }

    /// Extracts normalized posteriors for every variable (point masses for
    /// observed ones). Fails with [`InferenceError::ImpossibleEvidence`]
    /// when some component's evidence probability is 0.
    pub fn extract_posteriors(
        &self,
        prepared: &Prepared,
        evidence: &Evidence,
    ) -> Result<Posteriors, InferenceError> {
        let prob_evidence = self.checked_prob_evidence(prepared)?;
        let n = prepared.num_vars();
        let mut marginals = Vec::with_capacity(n);
        for v in 0..n {
            marginals.push(self.marginal_of(prepared, evidence, VarId::from_index(v))?);
        }
        Ok(Posteriors::new(marginals, prob_evidence))
    }

    /// [`WorkState::extract_posteriors`] with the marginals read as one
    /// region of `pool` over the variables: the outputs are allocated
    /// here, on the caller, each task fills its variables' through the
    /// same [`VarAxis::marginal`](fastbn_potential::ops::VarAxis::marginal)
    /// read (the first task also sums the roots), and the caller checks
    /// `P(e)` and then normalizes the marginals in variable order — so the
    /// posteriors, and the first error, are those of the serial read.
    pub(crate) fn extract_posteriors_on(
        &self,
        prepared: &Prepared,
        evidence: &Evidence,
        pool: &ThreadPool,
    ) -> Result<Posteriors, InferenceError> {
        // fastbn: allow(hot-alloc): read-path output allocation (the
        // posterior vectors handed to the caller).
        let mut marginals: Vec<Vec<f64>> = prepared.cards.iter().map(|&c| vec![0.0; c]).collect();
        let grain = Schedule::Dynamic { grain: 1 };
        let roots = OnceLock::new();
        pool.parallel_chunks_mut(&mut marginals, grain, |first, outs| {
            // `P(e)`'s factors are sums as long as the root cliques, each
            // one chain of additions: the first task takes them, beside
            // the marginals of the others.
            if first == 0 {
                let _ = roots.set(self.checked_prob_evidence(prepared));
            }
            for (v, out) in (first..).zip(outs) {
                if evidence.get(VarId::from_index(v)).is_none() {
                    prepared.axes[v].marginal(self.clique(prepared.home[v]), out);
                }
            }
        });
        let roots = roots.into_inner();
        let prob_evidence = roots.unwrap_or_else(|| self.checked_prob_evidence(prepared))?;
        for (v, out) in marginals.iter_mut().enumerate() {
            match evidence.get(VarId::from_index(v)) {
                Some(state) => out[state] = 1.0,
                None => normalize(out)?,
            }
        }
        Ok(Posteriors::new(marginals, prob_evidence))
    }

    /// Extracts posteriors for `targets` only — the work scales with the
    /// target count, not the network size. `targets` must be sorted and
    /// deduplicated (the [`Query`](crate::query::Query) builder
    /// guarantees this); a target outside the network fails with
    /// [`InferenceError::InvalidTarget`].
    pub(crate) fn extract_posteriors_for(
        &self,
        prepared: &Prepared,
        evidence: &Evidence,
        targets: &[VarId],
    ) -> Result<Posteriors, InferenceError> {
        if let Some(&bad) = targets.iter().find(|v| v.index() >= prepared.num_vars()) {
            return Err(InferenceError::InvalidTarget {
                var: bad.index(),
                num_vars: prepared.num_vars(),
            });
        }
        let prob_evidence = self.checked_prob_evidence(prepared)?;
        let mut entries = Vec::with_capacity(targets.len());
        for &var in targets {
            entries.push((var, self.marginal_of(prepared, evidence, var)?));
        }
        Ok(Posteriors::targeted(
            prepared.num_vars(),
            entries,
            prob_evidence,
        ))
    }
}

/// Normalizes an unnormalized marginal in place. A total that is `<= 0`
/// or non-finite means the evidence is impossible.
fn normalize(out: &mut [f64]) -> Result<(), InferenceError> {
    let total: f64 = out.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return Err(InferenceError::ImpossibleEvidence);
    }
    for p in out {
        *p /= total;
    }
    Ok(())
}

/// `P(evidence)` from its per-component factors (the root sums, in
/// `roots` order): their product, bit for bit [`WorkState::prob_evidence`].
///
/// Impossibility is judged **per factor**: the evidence is impossible iff
/// some component's factor is `<= 0` or non-finite. Components are
/// independent, so a forest of many possible components is possible even
/// when the product of their factors underflows; the product is then
/// returned as `0.0`, and every marginal (normalised within its own
/// component) is still well defined.
pub(crate) fn checked_product(
    factors: impl IntoIterator<Item = f64>,
) -> Result<f64, InferenceError> {
    let mut product = 1.0;
    for factor in factors {
        if factor <= 0.0 || !factor.is_finite() {
            return Err(InferenceError::ImpossibleEvidence);
        }
        product *= factor;
    }
    Ok(product)
}

/// Raw slab view: base pointer + length, `Send + Sync` so parallel
/// layers can hand disjoint regions to worker closures. All safety
/// obligations sit on the callers, who must only touch pairwise-disjoint
/// regions per parallel phase (guaranteed by the layer schedules).
#[derive(Clone, Copy)]
pub(crate) struct SlabRaw {
    base: *mut f64,
    len: usize,
}

// SAFETY: a `SlabRaw` is just (base, len) into a slab owned by a live
// `WorkState` borrow; parallel phases hand out pairwise-disjoint regions
// only (layer-schedule invariant), so cross-thread access never aliases.
unsafe impl Send for SlabRaw {}
unsafe impl Sync for SlabRaw {}

impl SlabRaw {
    /// Opens a new race-tracking generation mid-view: claims handed out
    /// before this call no longer conflict with claims after it. A
    /// flattened layer calls this at its phase boundary — a
    /// clique written as a phase's receiver is legally *read* as a
    /// sender in the next phase, and the phases are separated by a
    /// pool barrier. No-op in untracked builds.
    #[inline]
    pub(crate) fn begin_phase(&self) {
        slab_track::begin_phase(self.base);
    }

    /// # Safety
    /// `[off, off + len)` must be in bounds and not concurrently written.
    #[inline]
    #[track_caller]
    pub(crate) unsafe fn slice(&self, off: usize, len: usize) -> &[f64] {
        debug_assert!(off + len <= self.len);
        slab_track::claim(self.base, off, len, false);
        // SAFETY: in-bounds per the debug_assert and the caller contract.
        unsafe { std::slice::from_raw_parts(self.base.add(off), len) }
    }

    /// # Safety
    /// `[off, off + len)` must be in bounds and disjoint from every other
    /// slice handed out for the duration of this borrow.
    #[inline]
    #[track_caller]
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice_mut(&self, off: usize, len: usize) -> &mut [f64] {
        debug_assert!(off + len <= self.len);
        slab_track::claim(self.base, off, len, true);
        // SAFETY: in-bounds and exclusive per the caller contract.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(off), len) }
    }
}

impl Drop for WorkState {
    fn drop(&mut self) {
        // Forget the slab's claims so a future allocation reusing this
        // address starts clean. (No-op when tracking is compiled out,
        // keeping the release build warning-free.)
        slab_track::retire(self.slab.as_ptr());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_bayesnet::datasets;
    use fastbn_jtree::JtreeOptions;

    #[test]
    fn reset_restores_initial_tables() {
        let net = datasets::sprinkler();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let mut state = WorkState::new(&prepared);
        let rain = net.var_id("Rain").unwrap();
        state.absorb_evidence(&prepared, &Evidence::from_pairs([(rain, 0)]));
        let changed = state.clique(prepared.home[rain.index()]).contains(&0.0);
        assert!(changed, "evidence must zero some entries");
        state.set_pending(0, 3);
        state.reset(&prepared);
        for c in 0..prepared.num_cliques() {
            assert_eq!(state.clique(c), prepared.initial_clique(c));
            assert_eq!(state.pending(c), None);
        }
        for s in 0..prepared.num_separators() {
            assert!(state.sep(s).iter().all(|&v| v == 1.0));
        }
    }

    #[test]
    fn message_slices_are_disjoint_and_correctly_placed() {
        let net = datasets::asia();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let mut state = WorkState::new(&prepared);
        let edge = prepared.sep_plans[0].clone();
        let (sender_len, receiver_len) = (
            prepared.layout.clique_len[edge.child_clique],
            prepared.layout.clique_len[edge.parent_clique],
        );
        let (sender, receiver, sep, fresh, ratio) =
            state.message_slices(edge.child_clique, edge.parent_clique, 0);
        assert_eq!(sender.len(), sender_len);
        assert_eq!(receiver.len(), receiver_len);
        assert_eq!(sep.len(), prepared.layout.sep_len[0]);
        assert_eq!(fresh.len(), sep.len());
        assert_eq!(ratio.len(), sep.len());
        // Writing through the exclusive slices must not alias the sender.
        let before = sender.to_vec();
        receiver.fill(7.0);
        sep.fill(8.0);
        fresh.fill(9.0);
        ratio.fill(10.0);
        assert_eq!(sender, &before[..]);
    }

    #[test]
    fn pending_roundtrip() {
        let net = datasets::asia();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let mut state = WorkState::new(&prepared);
        assert_eq!(state.pending(2), None);
        state.set_pending(2, 4);
        assert_eq!(state.pending(2), Some(4));
        assert_eq!(state.take_pending(2), Some(4));
        assert_eq!(state.pending(2), None);
        assert_eq!(state.take_pending(2), None);
    }

    #[test]
    fn prob_evidence_of_empty_query_is_one_after_noop() {
        // Without propagation, a single-clique network's root already sums
        // to 1 (it holds the whole joint).
        let mut b = fastbn_bayesnet::NetworkBuilder::new();
        let a = b.add_var("a", &["x", "y"]);
        b.set_cpt(a, vec![], vec![0.3, 0.7]).unwrap();
        let net = b.build().unwrap();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let state = WorkState::new(&prepared);
        assert!((state.prob_evidence(&prepared) - 1.0).abs() < 1e-12);
        let post = state
            .extract_posteriors(&prepared, &Evidence::empty())
            .unwrap();
        assert_eq!(post.marginal(a), &[0.3, 0.7]);
    }

    #[test]
    fn impossible_evidence_is_detected() {
        let mut b = fastbn_bayesnet::NetworkBuilder::new();
        let a = b.add_var("a", &["x", "y"]);
        b.set_cpt(a, vec![], vec![1.0, 0.0]).unwrap();
        let net = b.build().unwrap();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let mut state = WorkState::new(&prepared);
        let ev = Evidence::from_pairs([(a, 1)]); // P(a = y) = 0
        state.absorb_evidence(&prepared, &ev);
        assert_eq!(
            state.extract_posteriors(&prepared, &ev).unwrap_err(),
            InferenceError::ImpossibleEvidence
        );
    }

    #[test]
    fn targeted_extraction_matches_full_extraction() {
        // Single-clique network: no propagation needed to extract.
        let mut b = fastbn_bayesnet::NetworkBuilder::new();
        let a = b.add_var("a", &["x", "y"]);
        let c = b.add_var("c", &["s", "t"]);
        b.set_cpt(a, vec![], vec![0.3, 0.7]).unwrap();
        b.set_cpt(c, vec![a], vec![0.9, 0.1, 0.4, 0.6]).unwrap();
        let net = b.build().unwrap();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let state = WorkState::new(&prepared);
        let full = state
            .extract_posteriors(&prepared, &Evidence::empty())
            .unwrap();
        let targeted = state
            .extract_posteriors_for(&prepared, &Evidence::empty(), &[c])
            .unwrap();
        assert_eq!(targeted.marginal(c), full.marginal(c));
        assert!(!targeted.has_marginal(a), "only targets computed");
        assert_eq!(
            targeted.prob_evidence.to_bits(),
            full.prob_evidence.to_bits()
        );
    }

    /// The dynamic race detector must abort on what it exists to catch:
    /// two threads claiming overlapping slab ranges, at least one
    /// mutably, inside one tracking generation — and the panic must name
    /// both claim sites.
    #[cfg(any(debug_assertions, feature = "slab-track"))]
    #[test]
    fn slab_tracker_panics_on_cross_thread_overlap() {
        use std::sync::mpsc;

        let net = datasets::sprinkler();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let mut state = WorkState::new(&prepared);
        let raw = state.raw();
        let (claimed_tx, claimed_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // SAFETY: sound on its own — [0, 8) is in bounds and
                // nothing else borrows it until after this claim lands.
                let chunk = unsafe { raw.slice_mut(0, 8) };
                chunk[0] += 0.0;
                claimed_tx.send(()).unwrap();
            });
            claimed_rx.recv().unwrap();
            let payload = std::panic::catch_unwind(|| {
                // SAFETY: never executes — the deliberately overlapping
                // claim panics inside the tracker first.
                let _ = unsafe { raw.slice_mut(4, 8) };
            })
            .expect_err("overlapping cross-thread mutable claims must panic");
            let msg = payload
                .downcast_ref::<String>()
                .expect("tracker panics with a formatted message");
            assert!(msg.contains("slab race"), "unexpected message: {msg}");
            assert!(
                msg.matches("state.rs").count() >= 2,
                "both claim sites should be reported: {msg}"
            );
        });
    }

    /// Same-thread overlaps are legal sequential re-borrows (a deferred
    /// layer's pending-ratio corner) and must stay silent.
    #[cfg(any(debug_assertions, feature = "slab-track"))]
    #[test]
    fn slab_tracker_allows_same_thread_reclaims() {
        let net = datasets::sprinkler();
        let prepared = Prepared::new(&net, &JtreeOptions::default());
        let mut state = WorkState::new(&prepared);
        let raw = state.raw();
        // SAFETY: sequential re-borrows on one thread; the earlier
        // reference is dead before the next one is created.
        unsafe {
            let _ = raw.slice_mut(0, 8);
            let _ = raw.slice_mut(4, 8); // overlapping, same thread: ok
            let _ = raw.slice(0, 16); // shared over both: ok
        }
    }
}

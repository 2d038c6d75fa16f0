//! The one propagation driver: Hugin collect/distribute over the layer
//! schedule, executed from a per-layer plan compiled at construction.
//!
//! The paper's contribution is that hybrid parallelism "tightly
//! integrates coarse- and fine-grained parallelism": Fast-BNI-par is not
//! one more algorithm beside its baselines but the point where they meet.
//! So there is one engine here, and an [`EngineKind`] names a
//! **configuration** of it along two axes:
//!
//! * how the messages of a layer are **ordered** ([`Order`]) — the
//!   inter-clique axis;
//! * which **table operations** an eager message runs ([`Ops`]) — the
//!   intra-clique axis.
//!
//! | Kind | Order × Ops | Paper analogue | Defining limitation |
//! |---|---|---|---|
//! | `Reference` | eager × naive | UnBBayes | decodes every index per entry and allocates per message (`naive.rs`): the constant factor Table 1's "seq speedup" column measures |
//! | `Seq` | deferred × whole-table | Fast-BNI-seq | one thread |
//! | `Direct` | grouped × whole-table | Kozlov & Singh '94 | coarse only: every table operation inside a message is sequential, so one huge clique in a layer stalls the whole team (the load imbalance the paper attributes to this family) |
//! | `Primitive` | eager × one static region per op | Xia & Prasanna '07 node-level primitives | fine only: messages strictly one after another, **three regions per message** (an OpenMP-default static split each), so on trees of many small cliques the per-region overhead dominates |
//! | `Element` | eager × one fine-grain region per op over materialised maps | Zheng '13 (GPU) | index-mapping tables built up front (the GPU "upload", not query time), one kernel launch per elementary operation, tiny claimable tasks (`ELEMENT_GRAIN`) as in one-thread-per-element kernels: trades `Primitive`'s index arithmetic for memory traffic and keeps its region count |
//! | `Hybrid` | flattened × whole-table | **Fast-BNI-par** | — |
//!
//! Every configuration computes each separator entry's fiber sum in
//! ascending source order and multiplies each receiver entry by its
//! ratios in ascending message order, so all of them — at any pool width
//! — produce the same bits.
//!
//! # Eager and deferred messages
//!
//! An **eager** message is the textbook Hugin step on five disjoint slab
//! regions: marginalize the sender onto `fresh`, fold the separator
//! update (`ratio = fresh / sep; sep = fresh`), multiply the ratio into
//! the receiver (`JtDriver::eager`, once, for every [`Ops`]).
//!
//! A **deferred** message (`WorkState::send_deferred`) does not apply its
//! ratio: it records the separator in the receiver's pending slot, and
//! the multiplication is fused into the receiver's *next outgoing
//! marginalization* (`fastbn_potential::multiply_marginalize`) — one pass
//! over the clique instead of two. Bit-identity is preserved: if a second
//! message arrives before the clique sends, the older ratio is flushed
//! first (so ratios multiply in the same ascending message order the
//! eager path uses), the fused pass forms the same per-element products
//! and the same ascending-source sums, and every remaining pending ratio
//! is flushed before `propagate` returns. A ratio region is never
//! overwritten between deferral and fusion — each separator carries
//! exactly one message per pass, and in the one same-separator corner (a
//! root whose last collect edge is also its first distribute edge) the
//! fused read consumes `ratio` before `sep_update` rewrites it. Before a
//! phased layer reads or writes cliques directly, the ratios still
//! pending on its senders and receivers are applied
//! (`WorkState::flush_pending`).
//!
//! `Seq` is the configuration in which every layer is deferred. So is
//! `Hybrid` on a pool of width 1, and on any tree of small cliques: that
//! is one code path, not two engines that happen to agree.
//!
//! # Pristine cliques
//!
//! Above a size cut, `WorkState::reset` leaves every clique *pristine*:
//! its values are still in `Prepared`'s initial slab, and its own slab
//! region is stale (`state.rs` header). The deferred and flattened
//! paths — the product's — never copy one: a phase reads a pristine
//! sender through `WorkState::sender_values`, and a pristine receiver's
//! first ratio rebuilds it from `WorkState::pristine_values` in the same
//! pass (`extend_multiply_range_from` per task in a region,
//! `WorkState::apply_ratio` inline). The eager and grouped orders — the
//! paper's baselines — copy a pristine clique in before they touch it.
//!
//! # Flattened layers (the paper's §2)
//!
//! "At the beginning of each layer, all the potential table entries
//! corresponding to this layer are packed to constitute one of the
//! parallel tasks. The tasks are then distributed to the parallel threads
//! to perform concurrently." A flattened layer runs **two phases**,
//! independent of how many messages it contains:
//!
//! 1. **Separator phase** — the separator entries of *every* message in
//!    the layer are packed into one flat task list; each task computes,
//!    for its entry range, the fresh marginal (fiber sum over the sender
//!    clique) fused with the ratio `fresh / old`.
//! 2. **Receiver phase** — the receiver-clique entries of the layer are
//!    packed likewise; each task multiplies every incoming ratio into its
//!    entry range, handling multi-child parents without write conflicts
//!    because tasks partition the *receiver* entries.
//!
//! This yields the paper's three advantages: (i) tasks are sized by entry
//! counts, so skewed clique sizes balance across threads; (ii) at most two
//! regions per layer instead of three per message; (iii) the same code
//! path is efficient on few-large-clique and many-small-clique trees.
//!
//! ## A phase is a pool region only when the region pays
//!
//! Flattening is a cost argument — pay region overhead once per layer,
//! not once per message — and the same argument says a phase with too
//! little work should pay it zero times. Every phase therefore carries a
//! decision compiled at construction from the plans' entry counts:
//!
//! * its **work estimate** `W` in table entries, counting only tables
//!   whose plan has **no run program** (`KernelPlan::is_programmed`) —
//!   separator phase: Σ sender-clique entries (what the marginalization
//!   scans) over messages whose sender→separator plan is unprogrammed;
//!   receiver phase: Σ receiver entries (what the extension touches) over
//!   messages whose receiver→separator plan is unprogrammed;
//! * `W ≥ PARALLEL_MIN_ENTRIES` on a pool wider than one ⇒ a **parallel**
//!   phase: one pool region over `threads × CHUNKS_PER_THREAD`
//!   entry-range slices of *every* table of the phase under a dynamic
//!   schedule, through the chunkable kernels `marginalize_fold` /
//!   `extend_multiply_range`;
//! * otherwise an **inline** phase: the calling thread runs it without
//!   touching the pool (no region, no wake-up, no `Arc`) and without a
//!   task list, through the whole-table kernels, which on tables of at
//!   most 32 768 entries execute compiled run programs
//!   (`fastbn_potential::plan`). Slicing a 70-entry range, or gathering
//!   it fiber by fiber, only multiplies kernel set-up.
//!
//! A layer whose **two** phases are inline is not compiled as phases at
//! all: it is a deferred layer, exactly the `Seq` configuration's.
//! Where the task boundaries fall — and hence the decision — never
//! changes a bit of the result.
//!
//! ## The break-even
//!
//! Splitting `W` entries at `c` seconds per entry over `T` threads saves
//! `W·c·(T−1)/T` and costs one hand-off `D`, so a region pays from
//! `W* = D·T / ((T−1)·c)`. The committed benchmark rows
//! (`benchmark/baseline/`) give `D` = 3.5–7 µs
//! (`parallel.dispatch_handoff_us`: a region in which every member takes
//! part, workers still spinning) and `c` ≈ 2.3 ns
//! (`potential.marg_ns_per_entry` / `extmul_ns_per_entry`), hence
//! `W*` ≈ 4 400 entries at `T = 2` with `D` = 5 µs, and less for wider
//! pools. That is the floor with every worker spinning on the queue; a
//! worker that was descheduled or has parked costs 70–150 µs
//! (`parallel.dispatch_parked_us`), and one such miss has to be paid for
//! by many regions that hit. A margin of just under 4× gives 16 384:
//! every phase of the 376-clique pigs analogue (at most 4 401 entries,
//! median 432) is inline, where per-layer fork-join ran at 0.35× the
//! sequential engine, and 99.5 % of the `few-large-cliques` work stays
//! parallel (its two smallest phases, 15 625 entries each, go inline).
//! Pennock's depth-bound analysis (arXiv:1301.7406) is why a 50-layer
//! tree of 700-entry cliques has nothing to gain from per-layer regions
//! at any dispatch cost this pool could reach.
//!
//! `c` above is the layout kernels' rate, and it is the rate a region
//! runs at: the chunked kernels dispatch on the layout classification
//! whether or not the table has a run program. Inline, a programmed
//! table runs its program at `c_program`; a region runs it through the
//! layout kernels at `c_layout`. Over the 4 097–32 768-entry tables of
//! the pathfinder, munin2 and `few-large-cliques` analogues a
//! marginalize + extend pair costs 0.58–0.88 ns per entry programmed
//! against 1.88–2.33 ns through the layout kernels (the per-kernel
//! pairs are in the `plan.rs` header), so `c_layout/c_program` ≈
//! 2.6–3.4. Split over `T` threads, the region costs at least
//! `W·c_layout/T + D`, which never beats `W·c_program` while
//! `T ≤ c_layout/c_program`: at `T = 2`, the width of every recorded
//! run, a region over programmed tables always loses. So programmed
//! entries do not count toward `W` at all — the break-even above is
//! judged on the unprogrammed entries alone, and a phase of programmed
//! tables only runs inline. The pathfinder analogue (69 cliques, the
//! largest 16 128 entries) thus compiles fully inline. Counting every
//! entry, with tables above 4 096 entries unprogrammed, it opened 4
//! regions per query at width 2 and took 295 µs per query against
//! `Seq`'s 226 µs; now it opens none, at 182 µs against 181 µs (64
//! cases, best of six 0.5 s windows, 2-core VM). The benchmark runs
//! `T = min(nproc, 4)`; at `T = 4` the bound is at its edge, and the
//! chunked kernels are no faster than the whole-table layout kernels
//! (a `Generic` `marginalize_fold` gathers fiber by fiber), so a region
//! over programmed tables is not expected to pay there either. That is
//! unmeasured until a machine with more than two cores is recorded;
//! past `T ≈ 4` a region could pay again, and would want chunked forms
//! of the run programs.
//!
//! The decision lives here and not in the pool:
//! [`ThreadPool::parallel_for`] dispatches whatever it is given, because
//! only the driver knows how many entries stand behind a task index.
//!
//! fastbn: deny-hot-alloc

use std::sync::Arc;

use fastbn_bayesnet::Evidence;
use fastbn_jtree::Message;
use fastbn_parallel::{Schedule, ThreadPool};
use fastbn_potential::ops::{self, safe_div};
use fastbn_potential::ops_par;

use crate::engines::{naive, EngineKind, InferenceEngine};
use crate::prepared::Prepared;
use crate::state::WorkState;

/// Flat chunks per thread in a parallel phase; 4 gives the dynamic
/// schedule room to balance without inflating claim traffic.
const CHUNKS_PER_THREAD: usize = 4;

/// Work, in table entries, from which a phase is worth a pool region
/// (derivation in the module header). Below it the phase runs inline.
const PARALLEL_MIN_ENTRIES: usize = 16_384;

/// Element-level task issue for the mapped query-time kernels: tiny
/// claimable tasks, as in one-thread-per-element GPU kernels. The
/// fine-grain claim traffic is that configuration's defining overhead
/// (the paper: "large parallelization overhead since the table operations
/// are invoked frequently").
const ELEMENT_GRAIN: usize = 2;

/// Materializing the mapping tables is the GPU's "upload" step, not part
/// of query time; it uses a normal coarse schedule.
const SETUP_GRAIN: usize = 4096;

/// How the messages of a layer are ordered — the inter-clique axis.
#[derive(Clone, Copy)]
enum Order {
    /// One after another on the caller, each ratio's extension deferred.
    Deferred,
    /// One after another on the caller, each message eager.
    Eager,
    /// Eager messages grouped by receiver; the groups of a layer share
    /// one pool region.
    Grouped,
    /// Two flattened phases per layer, each inline or a pool region by
    /// the [`PARALLEL_MIN_ENTRIES`] rule; a layer with no region is
    /// deferred.
    Flattened,
}

/// Which table operations an eager message runs — the intra-clique axis.
#[derive(Clone, Copy)]
enum Ops {
    /// Whole-table `KernelPlan` kernels on the thread running the message.
    Whole,
    /// One pool region per operation under the given schedule, through
    /// the chunkable plan kernels (`ops_par::*_plan_par`).
    Regions(Schedule),
    /// One pool region per operation under the given schedule, through
    /// materialised maps (`ops_par::*_mapped_slice_par`).
    Mapped(Schedule),
    /// Allocate-and-decode-per-entry routines (`naive.rs`).
    Naive,
}

/// What an [`EngineKind`] is: a point on the two axes.
fn configuration(kind: EngineKind) -> (Order, Ops) {
    match kind {
        EngineKind::Reference => (Order::Eager, Ops::Naive),
        EngineKind::Seq => (Order::Deferred, Ops::Whole),
        EngineKind::Direct => (Order::Grouped, Ops::Whole),
        // An OpenMP-default static split, as in the original primitives.
        EngineKind::Primitive => (Order::Eager, Ops::Regions(Schedule::Static)),
        EngineKind::Element => {
            let grain = ELEMENT_GRAIN;
            (Order::Eager, Ops::Mapped(Schedule::Dynamic { grain }))
        }
        EngineKind::Hybrid => (Order::Flattened, Ops::Whole),
    }
}

/// The five disjoint regions of one message, as
/// [`WorkState::message_slices`] splits them: sender (shared), receiver,
/// separator, fresh, ratio.
type Regions<'a> = (
    &'a [f64],
    &'a mut [f64],
    &'a mut [f64],
    &'a mut [f64],
    &'a mut [f64],
);

/// One message with its direction resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Msg {
    pub(super) sender: usize,
    pub(super) receiver: usize,
    pub(super) sep: usize,
}

/// Messages sharing a receiver in one layer: several children of one
/// parent in collect, always a single message in distribute.
#[derive(Debug)]
pub(super) struct RecvGroup {
    pub(super) receiver: usize,
    /// In layer order (ascending message id), the order every
    /// configuration multiplies a receiver's ratios in.
    pub(super) msgs: Vec<Msg>,
}

/// One task of a parallel phase: entries `[lo, hi)` of table `of` — in
/// the separator phase the separator of the layer's `of`-th message, in
/// the receiver phase the receiver of its `of`-th group.
#[derive(Debug)]
pub(super) struct Task {
    pub(super) of: usize,
    pub(super) lo: usize,
    pub(super) hi: usize,
}

/// The task list of a parallel receiver phase.
#[derive(Debug)]
pub(super) struct RecvRegion {
    pub(super) groups: Vec<RecvGroup>,
    pub(super) tasks: Vec<Task>,
}

/// How one layer of one pass executes — decided at construction, matched
/// once per layer at run time.
#[derive(Debug)]
pub(super) enum Run {
    /// A loop of `WorkState::send_deferred`. Only the `Deferred` and
    /// `Flattened` orders compile it, so the only layers that can follow
    /// one with ratios still pending are deferred or phased.
    Deferred,
    /// A loop of eager messages on the caller.
    Eager,
    /// One pool region over the receiver groups, eager messages inside.
    Grouped(Vec<RecvGroup>),
    /// Separator phase then receiver phase; `Some` = the task list of a
    /// pool region, `None` = inline on the caller. Never both `None`.
    Phased {
        sep_tasks: Option<Vec<Task>>,
        recv_region: Option<RecvRegion>,
    },
}

/// One layer of one pass, compiled.
#[derive(Debug)]
pub(super) struct Layer {
    /// The layer's messages in schedule order (ascending id).
    pub(super) msgs: Vec<Msg>,
    pub(super) run: Run,
}

/// The `Mapped` operations' index tables for one (clique, separator)
/// incidence.
pub(super) struct SideMaps {
    /// Separator entry → base index in the clique (marginalization, when
    /// this side sends; the fiber offsets come from the plan).
    pub(super) bases: Vec<u32>,
    /// Clique entry → separator entry (extension, when this side
    /// receives).
    pub(super) entries: Vec<u32>,
}

/// The junction-tree engine: one configuration, compiled over one
/// [`Prepared`].
pub(super) struct JtDriver {
    kind: EngineKind,
    ops: Ops,
    prepared: Arc<Prepared>,
    /// The worker team of a parallel configuration.
    pool: Option<Arc<ThreadPool>>,
    pub(super) collect: Vec<Layer>,
    pub(super) distribute: Vec<Layer>,
    /// Per separator, `[child side, parent side]`; empty unless the
    /// operations are [`Ops::Mapped`].
    pub(super) maps: Vec<[SideMaps; 2]>,
}

impl JtDriver {
    /// Compiles `kind` over `prepared`. `pool` is the team of a parallel
    /// kind (task lists are sized to its width, the inline-or-region
    /// decision of every flattened phase is made here, and `Element`'s
    /// mapping arrays are materialized on it); sequential kinds take
    /// `None`. Nothing a configuration does not execute is built.
    // fastbn: allow(hot-alloc): plan construction, runs once per engine build.
    pub(super) fn new(
        kind: EngineKind,
        prepared: Arc<Prepared>,
        pool: Option<Arc<ThreadPool>>,
    ) -> Self {
        let (order, ops) = configuration(kind);
        let threads = pool.as_ref().map_or(1, |pool| pool.threads());
        let schedule = &prepared.built.schedule;
        let compile = |layers: &[Vec<usize>], collect: bool| -> Vec<Layer> {
            layers
                .iter()
                .map(|ids| compile_layer(&prepared, order, ids, collect, threads))
                .collect()
        };
        let collect = compile(&schedule.collect_layers, true);
        let distribute = compile(&schedule.distribute_layers, false);
        let maps = match (ops, &pool) {
            (Ops::Mapped(_), Some(pool)) => materialize_maps(&prepared, pool),
            _ => Vec::new(),
        };
        JtDriver {
            kind,
            ops,
            pool,
            collect,
            distribute,
            maps,
            prepared,
        }
    }

    fn team(&self) -> &ThreadPool {
        self.pool
            .as_deref()
            .expect("a configuration that opens regions is built on a pool")
    }

    /// One pool region over `tasks`, each claimed singly.
    fn region<T: Sync>(&self, tasks: &[T], body: impl Fn(&T) + Sync) {
        self.team()
            .parallel_for(0..tasks.len(), Schedule::Dynamic { grain: 1 }, |t| {
                body(&tasks[t])
            });
    }

    /// One eager message on its five disjoint regions, through this
    /// configuration's table operations: marginalize the sender onto
    /// `fresh`, fold the separator update (`ratio = fresh / sep; sep =
    /// fresh`), multiply the ratio into the receiver.
    fn eager(&self, m: Msg, (sender, receiver, sep, fresh, ratio): Regions<'_>) {
        let prepared = &*self.prepared;
        let send_plan = prepared.plan_for(m.sender, m.sep);
        let recv_plan = prepared.plan_for(m.receiver, m.sep);
        match self.ops {
            Ops::Whole => {
                send_plan.marginalize(sender, fresh);
                ops::sep_update(fresh, sep, ratio);
                recv_plan.extend_multiply(receiver, ratio);
            }
            Ops::Regions(sched) => {
                let pool = self.team();
                ops_par::marginalize_plan_par(pool, sched, send_plan, sender, fresh);
                ops_par::sep_update_par(pool, sched, fresh, sep, ratio);
                ops_par::extend_multiply_plan_par(pool, sched, recv_plan, receiver, ratio);
            }
            Ops::Mapped(sched) => {
                let pool = self.team();
                let [child, parent] = &self.maps[m.sep];
                let (from, to) = if m.sender == prepared.sep_plans[m.sep].child_clique {
                    (child, parent)
                } else {
                    (parent, child)
                };
                let fibers = send_plan.fibers();
                ops_par::marginalize_mapped_slice_par(
                    pool,
                    sched,
                    sender,
                    fresh,
                    &from.bases,
                    fibers,
                );
                ops_par::sep_update_par(pool, sched, fresh, sep, ratio);
                ops_par::extend_multiply_mapped_slice_par(
                    pool,
                    sched,
                    receiver,
                    ratio,
                    &to.entries,
                );
            }
            Ops::Naive => {
                // Fresh allocations per message, like the Java baseline —
                // the slab's scratch regions stay deliberately unused.
                let sep_dom = &prepared.sep_domains[m.sep];
                let fresh = naive::marginalize(sender, &prepared.clique_domains[m.sender], sep_dom);
                let ratio = naive::divide(&fresh, sep);
                sep.copy_from_slice(&fresh);
                let recv_dom = &prepared.clique_domains[m.receiver];
                naive::extend_multiply(receiver, recv_dom, &ratio, sep_dom);
            }
        }
    }

    /// Runs one compiled layer.
    fn run_layer(&self, state: &mut WorkState, layer: &Layer) {
        let prepared = &*self.prepared;
        let layout = &*prepared.layout;
        match &layer.run {
            Run::Deferred => {
                for m in &layer.msgs {
                    state.send_deferred(prepared, m.sender, m.receiver, m.sep);
                }
            }
            Run::Eager => {
                for &m in &layer.msgs {
                    // Opens a tracking generation per message and claims
                    // its five regions.
                    self.eager(m, state.message_slices(m.sender, m.receiver, m.sep));
                }
            }
            Run::Grouped(groups) => {
                // The region reads and writes cliques in place.
                for m in &layer.msgs {
                    state.copy_pristine(m.sender);
                    state.copy_pristine(m.receiver);
                }
                // One tracking generation for the layer's one region.
                let raw = state.raw();
                self.region(groups, |group| {
                    for &m in &group.msgs {
                        // SAFETY: layer schedule invariants —
                        // * `group.receiver`'s region is written by exactly
                        //   this task — receivers are distinct across a
                        //   layer's groups;
                        // * sender regions are only read this layer: in
                        //   collect, a layer's senders are strictly deeper
                        //   than its receivers; in distribute, strictly
                        //   shallower — so no clique is both read and
                        //   written concurrently;
                        // * `m.sep`'s regions (sep/fresh/ratio) belong to
                        //   exactly one message of the layer.
                        let regions = unsafe {
                            (
                                raw.slice(layout.clique_off[m.sender], layout.clique_len[m.sender]),
                                raw.slice_mut(
                                    layout.clique_off[m.receiver],
                                    layout.clique_len[m.receiver],
                                ),
                                raw.slice_mut(layout.sep_off[m.sep], layout.sep_len[m.sep]),
                                raw.slice_mut(layout.fresh_off[m.sep], layout.sep_len[m.sep]),
                                raw.slice_mut(layout.ratio_off[m.sep], layout.sep_len[m.sep]),
                            )
                        };
                        self.eager(m, regions);
                    }
                });
            }
            Run::Phased {
                sep_tasks,
                recv_region,
            } => self.run_phases(state, &layer.msgs, sep_tasks, recv_region),
        }
    }

    /// A flattened layer: separator phase (marginalize + ratio + in-place
    /// separator update), then receiver phase (extension), each as a pool
    /// region or as whole-table kernels on the caller.
    fn run_phases(
        &self,
        state: &mut WorkState,
        msgs: &[Msg],
        sep_tasks: &Option<Vec<Task>>,
        recv_region: &Option<RecvRegion>,
    ) {
        let prepared = &*self.prepared;
        let layout = &*prepared.layout;

        // The phases below read senders and write receivers directly, so
        // ratios a deferred layer left pending on them land first. No
        // other pending slot can name a ratio region this layer rewrites:
        // a separator's ratio is pending only on one of its two cliques.
        for m in msgs {
            state.flush_pending(prepared, m.sender);
            state.flush_pending(prepared, m.receiver);
        }

        // ---- Phase 1: fresh marginal, ratio against the old value,
        // separator updated in place. `raw()` opens its tracking
        // generation; `shared` is the state read-only, for the initial
        // values of pristine cliques (none of its slab is read through
        // it, and its flags change only after the last region).
        let raw = state.raw();
        let shared: &WorkState = state;
        match sep_tasks {
            // Flat over sep entries: each entry is owned by exactly one
            // task, so read-then-overwrite is safe.
            Some(tasks) => self.region(tasks, |task| {
                let m = msgs[task.of];
                // SAFETY: sender cliques are not written during this phase
                // (only separators and ratios are); the task ranges tile
                // each separator, so `[lo, hi)` of `m.sep` belongs to
                // exactly one task, and sep/ratio regions are disjoint
                // slab ranges.
                unsafe {
                    let sender = shared.sender_values(&raw, m.sender);
                    let sep = raw.slice_mut(layout.sep_off[m.sep] + task.lo, task.hi - task.lo);
                    let ratio = raw.slice_mut(layout.ratio_off[m.sep] + task.lo, task.hi - task.lo);
                    prepared.plan_for(m.sender, m.sep).marginalize_fold(
                        sender,
                        task.lo,
                        task.hi,
                        |i, acc| {
                            let k = i - task.lo;
                            ratio[k] = safe_div(acc, sep[k]);
                            sep[k] = acc;
                        },
                    );
                }
            }),
            None => {
                for m in msgs {
                    // SAFETY: the sender clique and the separator's three
                    // regions are pairwise-disjoint slab ranges, and this
                    // phase runs on the calling thread alone.
                    unsafe {
                        let sender = shared.sender_values(&raw, m.sender);
                        let fresh = raw.slice_mut(layout.fresh_off[m.sep], layout.sep_len[m.sep]);
                        let sep = raw.slice_mut(layout.sep_off[m.sep], layout.sep_len[m.sep]);
                        let ratio = raw.slice_mut(layout.ratio_off[m.sep], layout.sep_len[m.sep]);
                        prepared
                            .plan_for(m.sender, m.sep)
                            .marginalize(sender, fresh);
                        ops::sep_update(fresh, sep, ratio);
                    }
                }
            }
        }

        // ---- Phase 2: extension of the receivers, a pristine receiver's
        // first ratio rebuilding it from its initial values. Layer order
        // is ascending message order within every receiver, which is all
        // the product depends on.
        match recv_region {
            Some(region) => {
                // The barrier between the phases (the pool's, or program
                // order when phase 1 ran on the caller) is what makes
                // re-claiming phase-1 regions sound, so the tracker
                // generation resets here.
                raw.begin_phase();
                // The *receiver*-side plan maps its entries onto the
                // separator.
                let extension = |m: &Msg| {
                    let (off, len) = (layout.ratio_off[m.sep], layout.sep_len[m.sep]);
                    // SAFETY: ratios are read-only in this phase.
                    let ratio = unsafe { raw.slice(off, len) };
                    (prepared.plan_for(m.receiver, m.sep), ratio)
                };
                self.region(&region.tasks, |task| {
                    let group = &region.groups[task.of];
                    // SAFETY: the task ranges tile each group's receiver,
                    // the groups' receivers are distinct, and sender
                    // cliques are untouched this phase — `[lo, hi)` of this
                    // receiver belongs to exactly one task.
                    let chunk = unsafe {
                        raw.slice_mut(
                            layout.clique_off[group.receiver] + task.lo,
                            task.hi - task.lo,
                        )
                    };
                    let mut msgs = group.msgs.iter();
                    if let Some(initial) = shared.pristine_values(group.receiver) {
                        let first = msgs.next().expect("a receiver group is never empty");
                        let (plan, ratio) = extension(first);
                        let src = &initial[task.lo..task.hi];
                        plan.extend_multiply_range_from(src, chunk, ratio, task.lo);
                    }
                    for m in msgs {
                        let (plan, ratio) = extension(m);
                        plan.extend_multiply_range(chunk, ratio, task.lo);
                    }
                });
                for group in &region.groups {
                    state.mark_written(group.receiver);
                }
            }
            None => {
                for m in msgs {
                    state.apply_ratio(prepared, m.receiver, m.sep);
                }
            }
        }
    }
}

/// Whether a phase holding `work` table entries is dispatched as a pool
/// region on a pool of `threads` members.
fn pays_for_region(work: usize, threads: usize) -> bool {
    threads > 1 && work >= PARALLEL_MIN_ENTRIES
}

/// Groups a layer's messages by the receiving clique, keeping layer
/// order inside each group.
// fastbn: allow(hot-alloc): plan construction, runs once per engine build.
fn group_by_receiver(msgs: &[Msg]) -> Vec<RecvGroup> {
    let mut groups: Vec<RecvGroup> = Vec::new();
    for &m in msgs {
        match groups.iter_mut().find(|g| g.receiver == m.receiver) {
            Some(g) => g.msgs.push(m),
            None => groups.push(RecvGroup {
                receiver: m.receiver,
                msgs: vec![m],
            }),
        }
    }
    groups
}

/// Cuts each `(size, grain)` table into tasks of at most `grain` entries.
// fastbn: allow(hot-alloc): plan construction, runs once per engine build.
fn cut_tables(tables: impl Iterator<Item = (usize, usize)>) -> Vec<Task> {
    let mut tasks = Vec::new();
    for (of, (size, grain)) in tables.enumerate() {
        let mut lo = 0;
        while lo < size {
            let hi = (lo + grain).min(size);
            tasks.push(Task { of, lo, hi });
            lo = hi;
        }
    }
    tasks
}

/// Compiles one layer of one pass under `order`: resolves every
/// message's direction, and builds exactly what that order executes —
/// receiver groups for a grouped layer; for a flattened one each phase's
/// inline-or-region decision and the task list of every phase that is a
/// region.
// fastbn: allow(hot-alloc): plan construction, runs once per engine build.
fn compile_layer(
    prepared: &Prepared,
    order: Order,
    ids: &[usize],
    collect: bool,
    threads: usize,
) -> Layer {
    // A schedule slot is sent child → parent in collect, parent → child
    // in distribute.
    let oriented = |&id: &usize| {
        let Message { child, parent, sep } = prepared.built.schedule.messages[id];
        let (sender, receiver) = if collect {
            (child, parent)
        } else {
            (parent, child)
        };
        Msg {
            sender,
            receiver,
            sep,
        }
    };
    let msgs: Vec<Msg> = ids.iter().map(oriented).collect();
    let clique_size = |c: usize| prepared.clique_domains[c].size();
    let sep_size = |s: usize| prepared.sep_domains[s].size();
    // A phase's work estimate: the entries of the tables whose plan onto
    // the separator has no run program (a programmed table runs faster
    // whole on the caller than split through the chunked kernels).
    let work = |side: fn(&Msg) -> usize| -> usize {
        msgs.iter()
            .filter(|m| !prepared.plan_for(side(m), m.sep).is_programmed())
            .map(|m| clique_size(side(m)))
            .sum()
    };
    let slices = threads * CHUNKS_PER_THREAD;

    let run = match order {
        Order::Deferred => Run::Deferred,
        Order::Eager => Run::Eager,
        Order::Grouped => Run::Grouped(group_by_receiver(&msgs)),
        Order::Flattened => {
            // Separator tasks: pack all sep entries of the layer, cut by
            // grain. The work behind them is the scan of each sender.
            let sep_tasks = pays_for_region(work(|m| m.sender), threads).then(|| {
                let total_sep: usize = msgs.iter().map(|m| sep_size(m.sep)).sum();
                let sep_grain = (total_sep / slices).max(1);
                cut_tables(msgs.iter().map(|m| (sep_size(m.sep), sep_grain)))
            });

            // Receiver tasks: weight = entries × incoming messages.
            let recv_region = pays_for_region(work(|m| m.receiver), threads).then(|| {
                let groups = group_by_receiver(&msgs);
                let recv_weight: usize = msgs.iter().map(|m| clique_size(m.receiver)).sum();
                let weight_grain = (recv_weight / slices).max(1);
                let tasks = cut_tables(groups.iter().map(|g| {
                    let grain = (weight_grain / g.msgs.len()).max(1);
                    (clique_size(g.receiver), grain)
                }));
                RecvRegion { groups, tasks }
            });

            if sep_tasks.is_none() && recv_region.is_none() {
                Run::Deferred
            } else {
                Run::Phased {
                    sep_tasks,
                    recv_region,
                }
            }
        }
    };
    Layer { msgs, run }
}

/// Materializes every mapping array of the `Mapped` operations, in
/// parallel on `pool` (the GPU "upload tables" phase).
// fastbn: allow(hot-alloc): per-network precompute, not a per-query path.
fn materialize_maps(prepared: &Prepared, pool: &ThreadPool) -> Vec<[SideMaps; 2]> {
    let sched = Schedule::Dynamic { grain: SETUP_GRAIN };
    let side = |clique: usize, sep: usize| {
        let clique_dom = &prepared.clique_domains[clique];
        let sep_dom = &prepared.sep_domains[sep];
        SideMaps {
            bases: ops_par::materialize_map_par(pool, sched, sep_dom, clique_dom),
            entries: ops_par::materialize_map_par(pool, sched, clique_dom, sep_dom),
        }
    };
    prepared
        .sep_plans
        .iter()
        .enumerate()
        .map(|(sep, edge)| [side(edge.child_clique, sep), side(edge.parent_clique, sep)])
        .collect()
}

impl InferenceEngine for JtDriver {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |pool| pool.threads())
    }

    fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_deref()
    }

    fn pool_handle(&self) -> Option<Arc<ThreadPool>> {
        self.pool.as_ref().map(Arc::clone)
    }

    fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }

    fn enter_evidence(&self, state: &mut WorkState, evidence: &Evidence) {
        let prepared = &*self.prepared;
        // Reduction is a table operation like the others: the
        // fine-grained configurations run it as a region of their own,
        // `Reference` with a decode per entry.
        let region = match self.ops {
            Ops::Whole => return state.absorb_evidence(prepared, evidence),
            Ops::Regions(sched) | Ops::Mapped(sched) => Some((self.team(), sched)),
            Ops::Naive => None,
        };
        for (var, observed) in evidence.iter() {
            let home = prepared.home[var.index()];
            let clique = state.clique_mut(home);
            match region {
                Some((pool, sched)) => {
                    let axis = prepared.axes[var.index()];
                    ops_par::reduce_evidence_slice_par(
                        pool,
                        sched,
                        clique,
                        axis.stride,
                        axis.card,
                        observed,
                    );
                }
                None => naive::reduce(clique, &prepared.clique_domains[home], var, observed),
            }
        }
    }

    fn propagate(&self, state: &mut WorkState) {
        crate::trace::collect(|| {
            for layer in &self.collect {
                self.run_layer(state, layer);
            }
        });
        crate::trace::distribute(|| {
            for layer in &self.distribute {
                self.run_layer(state, layer);
            }
            // Leaves, and any clique that never sent again, still hold a
            // deferred ratio (none do when no layer was deferred).
            state.flush_all_pending(&self.prepared);
        });
    }
}

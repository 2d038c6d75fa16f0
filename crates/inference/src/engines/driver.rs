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
//! 1. **Separator phase** — the separators of *every* message in the
//!    layer are packed into one flat task list; each task computes, for
//!    its range of separator slots, the fresh marginal (fiber sum over the
//!    sender clique) fused with the ratio `fresh / old`. A task's size is
//!    the sender entries it reads, its range is whole slot units of its
//!    plan (`KernelPlan::slot_unit`), so it streams stretches of its
//!    sender no other task reads, and tasks are issued largest first. A
//!    separator that is one unit — five slots that are the fastest
//!    variable of a 390 625-entry clique, each reading one entry of every
//!    cache line — stays one task instead of re-reading the sender once
//!    per slot.
//! 2. **Receiver phase** — the receiver-clique entries of the layer are
//!    packed likewise; each task multiplies every incoming ratio into its
//!    entry range in one pass — tile by tile, each cache-resident tile
//!    taking the ratios in message order — handling multi-child parents
//!    without write conflicts because tasks partition the *receiver*
//!    entries.
//!
//! A receiver then usually sends in the next layer, and rereading a
//! clique that its own tasks have just written, from memory, is the
//! largest cost left once the kernels stream. So a message of layer
//! `l + 1` whose separator slots each draw on one task's range of its
//! sender is **sent ahead**: layer `l`'s receiver tasks fold that range
//! into the separator while it is still in their core's cache, and layer
//! `l + 1`'s separator phase skips it (`send_ahead`). Every slot is still
//! summed by one task in ascending source order. A receiver of layer
//! `l + 1` all of whose messages were sent ahead has its ratios before the
//! layer starts, so its tasks run *early*, in the separator phase's
//! region: a separator phase left with one long task — a sum that is five
//! chains of additions through a 390 625-entry clique, bound by the
//! adder's latency — then shares its region with the receiving of other
//! cliques instead of leaving the second core idle.
//!
//! All-marginals extraction reads each variable's marginal from its home
//! clique; where the home cliques above the run-program cut hold at least
//! [`PARALLEL_MIN_ENTRIES`] entries, it is one pool region over the
//! variables (outputs allocated on the caller; `extraction_region`),
//! whose first task also sums the root cliques for `P(e)` — one chain of
//! additions each.
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
//!   scans) over messages whose sender→separator plan is unprogrammed
//!   and which were not sent ahead; receiver phase: Σ receiver entries
//!   (what the extension touches) over messages whose receiver→separator
//!   plan is unprogrammed;
//! * `W ≥ PARALLEL_MIN_ENTRIES` on a pool wider than one ⇒ a **parallel**
//!   phase: one pool region over `threads × CHUNKS_PER_THREAD` slices of
//!   the phase's work under a dynamic schedule, through the chunked walks
//!   `marginalize_range` / `extend_multiply_range`;
//! * otherwise an **inline** phase: the calling thread runs it without
//!   touching the pool (no region, no wake-up, no `Arc`) and without a
//!   task list, through the whole-table kernels, which on tables of at
//!   most 32 768 entries execute compiled run programs
//!   (`fastbn_potential::plan`). Slicing a 70-entry range only multiplies
//!   kernel set-up.
//!
//! A layer whose **two** phases are inline is not compiled as phases at
//! all: it is a deferred layer, exactly the `Seq` configuration's —
//! unless the layer before sent some of its messages ahead. Where the
//! task boundaries fall — and hence the decision — never changes a bit
//! of the result.
//!
//! ## The break-even
//!
//! Splitting `W` entries at `c` seconds per entry over `T` threads saves
//! `W·c·(T−1)/T` and costs one hand-off `D`, so a region pays from
//! `W* = D·T / ((T−1)·c)`. The benchmark's traced rows give `D` ≈ 3–7 µs
//! (`parallel.dispatch_handoff_us`: a region in which every member takes
//! part, workers still spinning). With the per-entry odometers `c` was
//! ≈ 2.3 ns, so `W*` ≈ 4 400 entries at `T = 2`; the group walks run at
//! `c` ≈ 0.45–0.5 ns (`potential.marg_ns_per_entry` /
//! `extmul_ns_per_entry`; the chunked `extend_multiply_range` 0.50 ns
//! over `few-large-cliques`' unprogrammed plans), which moves `W*` to
//! 12 000–31 000 entries at `T = 2` for `D` = 3–7 µs, and less for wider
//! pools. `PARALLEL_MIN_ENTRIES = 16 384` stays: it sits inside that
//! range, every phase of the 376-clique pigs analogue (at most 4 401
//! entries, median 432) stays far below it — where per-layer fork-join
//! ran at 0.35× the sequential engine — and every parallel phase of
//! `few-large-cliques` moves at least 78 125 unprogrammed entries, 2.5×
//! the top of the range, so no decision on a recorded network falls
//! between the old break-even and the new one. What is gone is the
//! margin of almost 4× that paid for a worker that was descheduled or has
//! parked (70–150 µs, `parallel.dispatch_parked_us`). Pennock's
//! depth-bound analysis (arXiv:1301.7406) is why a 50-layer tree of
//! 700-entry cliques has nothing to gain from per-layer regions at any
//! dispatch cost this pool could reach.
//!
//! Programmed entries do not count toward `W`. That was measured when a
//! region ran a programmed table through per-entry layout kernels, 2.6–3.4×
//! slower per entry than its program (0.58–0.88 against 1.88–2.33 ns per
//! marginalize + extend pair over the 4 097–32 768-entry tables of the
//! pathfinder, munin2 and `few-large-cliques` analogues), so that at
//! `T = 2` a region over programmed tables always lost: the pathfinder
//! analogue (69 cliques, the largest 16 128 entries), counting every
//! entry, opened 4 regions per query at width 2 and took 295 µs against
//! `Seq`'s 226 µs; it now opens none. The chunked kernels a region runs
//! are group walks now, much closer to the programs' rate, so that
//! argument no longer holds as measured; the rule is kept as it is — it
//! keeps `small-cliques`, `served-mix` and `live-edits` at 0, ≈ 0.26 and
//! 0 regions per query — and re-measuring it, at `T = 2` and on a machine
//! with more cores, is left open.
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
use fastbn_potential::ops;
use fastbn_potential::ops_par;
use fastbn_potential::plan::RUN_PROGRAM_MAX_ENTRIES;
use fastbn_potential::Layout;
use fastbn_telemetry::trace::{SPAN_RECV_PHASE, SPAN_SEP_PHASE};

use crate::engines::{naive, EngineKind, InferenceEngine};
use crate::error::InferenceError;
use crate::posterior::Posteriors;
use crate::prepared::Prepared;
use crate::state::{SlabRaw, WorkState};
use crate::trace;

/// Flat chunks per thread in a parallel phase; 4 gives the dynamic
/// schedule room to balance without inflating claim traffic.
const CHUNKS_PER_THREAD: usize = 4;

/// Receiver entries a parallel receiver task multiplies by every ratio
/// of its group before moving on: 4 096 `f64` = 32 KiB, L1-resident, so
/// a clique with several incoming ratios is streamed from memory once,
/// not once per message.
const TILE: usize = 4096;

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
    /// Messages of the next layer the receiver sends whose separators
    /// its receiver tasks compute, each from the entries it has just
    /// written (see [`send_ahead`]); empty outside a flattened layer.
    pub(super) sends: Vec<Msg>,
    /// Whether the group's tasks are slot ranges of its first send ahead,
    /// each owning the stretches of the receiver those slots read (whole
    /// blocks of every other send), rather than entry ranges of the
    /// receiver.
    pub(super) footprint: bool,
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

/// The task lists of a parallel receiver phase.
#[derive(Debug)]
pub(super) struct RecvRegion {
    pub(super) groups: Vec<RecvGroup>,
    pub(super) tasks: Vec<Task>,
    /// The tasks of *early* receivers — every message they receive was
    /// sent ahead, so their ratios are ready before the layer starts —
    /// which run in the separator phase's region instead, beside its
    /// separator tasks: they touch no sender and no separator of the
    /// layer. A separator phase of one long task (a latency-bound sum)
    /// then shares its region with the receiving of other cliques.
    pub(super) early: Vec<Task>,
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
    /// pool region, `None` = inline on the caller — both `None` only when
    /// the previous layer sent some of this one's messages ahead.
    /// `ahead[i]`: message `i`'s separator was computed by the previous
    /// layer's receiver phase, so this separator phase skips it.
    /// `entries` = (sender entries read, receiver entries written), what
    /// each phase's trace span reports.
    Phased {
        sep_tasks: Option<Vec<Task>>,
        recv_region: Option<RecvRegion>,
        ahead: Vec<bool>,
        entries: (usize, usize),
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
    /// `Some(entries)`: all-marginals extraction is one pool region over
    /// the variables, whose home cliques above the run-program cut hold
    /// `entries` entries (see [`extraction_region`]).
    pub(super) extract: Option<usize>,
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
        let mut collect = compile(&schedule.collect_layers, true);
        let mut distribute = compile(&schedule.distribute_layers, false);
        send_ahead(&prepared, &mut collect, threads);
        send_ahead(&prepared, &mut distribute, threads);
        let maps = match (ops, &pool) {
            (Ops::Mapped(_), Some(pool)) => materialize_maps(&prepared, pool),
            _ => Vec::new(),
        };
        let extract = match order {
            Order::Flattened => extraction_region(&prepared, threads),
            _ => None,
        };
        JtDriver {
            kind,
            ops,
            pool,
            collect,
            distribute,
            maps,
            extract,
            prepared,
        }
    }

    fn team(&self) -> &ThreadPool {
        self.pool
            .as_deref()
            .expect("a configuration that opens regions is built on a pool")
    }

    /// One pool region over `tasks`, each claimed singly — or, for a
    /// list of one task, that task on the caller, without a region.
    fn region<T: Sync>(&self, tasks: &[T], body: impl Fn(&T) + Sync) {
        if let [task] = tasks {
            return body(task);
        }
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

    /// Runs one compiled layer, the `index`-th of its pass.
    fn run_layer(&self, state: &mut WorkState, index: usize, layer: &Layer) {
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
                ahead,
                entries: (read, written),
            } => {
                // The phases below read senders and write receivers
                // directly, so ratios a deferred layer left pending on them
                // land first. No other pending slot can name a ratio region
                // this layer rewrites: a separator's ratio is pending only
                // on one of its two cliques.
                for m in &layer.msgs {
                    state.flush_pending(prepared, m.sender);
                    state.flush_pending(prepared, m.receiver);
                }
                // `raw()` opens the layer's tracking generation.
                let raw = state.raw();
                let (msgs, region) = (&layer.msgs, recv_region.as_ref());
                trace::phase(SPAN_SEP_PHASE, index, *read, || {
                    self.sep_phase(state, raw, msgs, ahead, sep_tasks.as_deref(), region)
                });
                for task in region.map_or(&[][..], |r| &r.early[..]) {
                    state.mark_written(region.expect("early tasks").groups[task.of].receiver);
                }
                trace::phase(SPAN_RECV_PHASE, index, *written, || {
                    self.recv_phase(state, raw, msgs, region)
                });
            }
        }
    }

    /// A flattened layer's separator phase: fresh marginal, ratio against
    /// the old value, separator updated in place, for every message not
    /// sent `ahead` — as a pool region over `tasks`, or with whole-table
    /// kernels on the caller. The receiver tasks of the layer's `early`
    /// receivers (see [`RecvRegion::early`]) join the same region; with
    /// them an inline separator phase becomes one task of it. `state` is
    /// read only for the initial values of pristine cliques (none of its
    /// slab is read through it, and its flags change only after the
    /// region).
    fn sep_phase(
        &self,
        state: &WorkState,
        raw: SlabRaw,
        msgs: &[Msg],
        ahead: &[bool],
        tasks: Option<&[Task]>,
        region: Option<&RecvRegion>,
    ) {
        let early = region.map_or(&[][..], |r| &r.early[..]);
        let seps = tasks.map_or(1, <[Task]>::len);
        if early.is_empty() && tasks.is_none() {
            return self.sep_inline(state, raw, msgs, ahead);
        }
        let jobs = seps + early.len();
        let job = |j: usize| match (j.checked_sub(seps), tasks, region) {
            (None, Some(tasks), _) => self.sep_task(state, raw, msgs, &tasks[j]),
            (None, None, _) => self.sep_inline(state, raw, msgs, ahead),
            (Some(k), _, Some(region)) => self.recv_task(state, raw, region, &early[k]),
            (Some(_), _, None) => unreachable!("early receivers belong to a receiver region"),
        };
        if jobs == 1 {
            return job(0);
        }
        self.team()
            .parallel_for(0..jobs, Schedule::Dynamic { grain: 1 }, job);
    }

    /// One separator-phase task: slots `[lo, hi)` of message `of`.
    fn sep_task(&self, state: &WorkState, raw: SlabRaw, msgs: &[Msg], task: &Task) {
        let prepared = &*self.prepared;
        let layout = &*prepared.layout;
        let (m, lo, hi) = (&msgs[task.of], task.lo, task.hi);
        // SAFETY: sender cliques are not written during this phase (only
        // separators, fresh buffers and ratios are, and early receivers,
        // which are not senders of the layer); the task ranges tile each
        // separator, so `[lo, hi)` of `m.sep`'s sep, fresh and ratio
        // regions — disjoint slab ranges — belongs to exactly one task.
        unsafe {
            let sender = state.sender_values(&raw, m.sender);
            let fresh = raw.slice_mut(layout.fresh_off[m.sep] + lo, hi - lo);
            let sep = raw.slice_mut(layout.sep_off[m.sep] + lo, hi - lo);
            let ratio = raw.slice_mut(layout.ratio_off[m.sep] + lo, hi - lo);
            prepared
                .plan_for(m.sender, m.sep)
                .marginalize_range(sender, lo, fresh);
            ops::sep_update(fresh, sep, ratio);
        }
    }

    /// An inline separator phase: every message not sent `ahead`, whole,
    /// one after another.
    fn sep_inline(&self, state: &WorkState, raw: SlabRaw, msgs: &[Msg], ahead: &[bool]) {
        let prepared = &*self.prepared;
        let layout = &*prepared.layout;
        for (m, _) in msgs.iter().zip(ahead).filter(|(_, &ahead)| !ahead) {
            // SAFETY: the sender clique and the separator's three regions
            // are pairwise-disjoint slab ranges, and no other task of the
            // phase touches them (early receivers are not senders of the
            // layer, and write no separator of it).
            unsafe {
                let sender = state.sender_values(&raw, m.sender);
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

    /// A flattened layer's receiver phase: every ratio multiplied into its
    /// receiver, a pristine receiver's first ratio rebuilding it from its
    /// initial values — as a pool region over the tasks of the receivers
    /// that did not run early, or on the caller.
    fn recv_phase(
        &self,
        state: &mut WorkState,
        raw: SlabRaw,
        msgs: &[Msg],
        region: Option<&RecvRegion>,
    ) {
        let prepared = &*self.prepared;
        // Layer order is ascending message order within every receiver,
        // which is all the product depends on.
        match region {
            Some(region) => {
                // The barrier between the phases (the pool's, or program
                // order when phase 1 ran on the caller) is what makes
                // re-claiming phase-1 regions sound, so the tracker
                // generation resets here.
                raw.begin_phase();
                let shared: &WorkState = state;
                self.region(&region.tasks, |task| {
                    self.recv_task(shared, raw, region, task)
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

    /// One receiver-phase task: the ratios of its group applied to its
    /// range, and the separators the receiver sends ahead folded from it.
    /// `shared` is read only for a pristine receiver's initial values.
    fn recv_task(&self, shared: &WorkState, raw: SlabRaw, region: &RecvRegion, task: &Task) {
        let prepared = &*self.prepared;
        let layout = &*prepared.layout;
        // The *receiver*-side plan maps its entries onto the separator.
        let extension = |m: &Msg| {
            let (off, len) = (layout.ratio_off[m.sep], layout.sep_len[m.sep]);
            // SAFETY: ratios are read-only in this phase.
            let ratio = unsafe { raw.slice(off, len) };
            (prepared.plan_for(m.receiver, m.sep), ratio)
        };
        let group = &region.groups[task.of];
        let receiver = group.receiver;
        let initial = shared.pristine_values(receiver);
        let entries = |lo: usize, len: usize| {
            // SAFETY: the groups' receivers are distinct, sender cliques
            // are untouched this phase, and a group's tasks tile its
            // receiver — by entry ranges, or by the slot ranges of its
            // footprint send, whose stretches are disjoint across ranges —
            // so every range a task takes belongs to it alone.
            unsafe { raw.slice_mut(layout.clique_off[receiver] + lo, len) }
        };
        let seps = |m: &Msg, s0: usize, s1: usize| {
            // SAFETY: a sent-ahead separator belongs to a message of the
            // next layer, so no other message of this phase names its
            // regions, and its slots `[s0, s1)` are fed only by the
            // entries of this task (see `send_ahead`).
            unsafe {
                (
                    raw.slice_mut(layout.fresh_off[m.sep] + s0, s1 - s0),
                    raw.slice_mut(layout.sep_off[m.sep] + s0, s1 - s0),
                    raw.slice_mut(layout.ratio_off[m.sep] + s0, s1 - s0),
                )
            }
        };
        // Every ratio of the group in one pass over entries
        // `[lo, lo + chunk.len())`: tile by tile, each tile taking the
        // ratios in message order while it is cache-resident.
        let extend = |chunk: &mut [f64], lo: usize| {
            let tile = if group.msgs.len() > 1 {
                TILE
            } else {
                chunk.len().max(1)
            };
            for (k, part) in chunk.chunks_mut(tile).enumerate() {
                let lo = lo + k * tile;
                let mut msgs = group.msgs.iter();
                if let Some(initial) = initial {
                    let first = msgs.next().expect("a receiver group is never empty");
                    let (plan, ratio) = extension(first);
                    let src = &initial[lo..lo + part.len()];
                    plan.extend_multiply_range_from(src, part, ratio, lo);
                }
                for m in msgs {
                    let (plan, ratio) = extension(m);
                    plan.extend_multiply_range(part, ratio, lo);
                }
            }
        };
        // Every block send in `sends` folds the entry range
        // `[lo, lo + chunk.len())`, whole blocks of its plan and so the
        // whole source of the slots below.
        let blocks = |sends: &[Msg], chunk: &[f64], lo: usize| {
            for m in sends {
                let plan = prepared.plan_for(receiver, m.sep);
                let (s0, s1) = (plan.block_slot(lo), plan.block_slot(lo + chunk.len()));
                let (fresh, sep, ratio) = seps(m, s0, s1);
                fresh.fill(0.0);
                plan.marginalize_add(chunk, lo, fresh, s0);
                ops::sep_update(fresh, sep, ratio);
            }
        };
        if !group.footprint {
            let chunk = entries(task.lo, task.hi - task.lo);
            extend(chunk, task.lo);
            return blocks(&group.sends, chunk, task.lo);
        }
        // The task is slots `[lo, hi)` of the first separator sent ahead:
        // each stretch they read is extended, then folded into them and
        // into the block sends while it is cache-resident.
        let (m, riders) = group.sends.split_first().expect("a footprint send");
        let plan = prepared.plan_for(receiver, m.sep);
        let (fresh, sep, ratio) = seps(m, task.lo, task.hi);
        fresh.fill(0.0);
        for stretch in plan.footprint(task.lo, task.hi) {
            let chunk = entries(stretch.start, stretch.len());
            extend(chunk, stretch.start);
            plan.marginalize_add(chunk, stretch.start, fresh, task.lo);
            blocks(riders, chunk, stretch.start);
        }
        ops::sep_update(fresh, sep, ratio);
    }
}

/// Whether a phase holding `work` table entries is dispatched as a pool
/// region on a pool of `threads` members.
fn pays_for_region(work: usize, threads: usize) -> bool {
    threads > 1 && work >= PARALLEL_MIN_ENTRIES
}

/// Whether a flattened configuration reads its all-marginals posteriors
/// as one pool region over the variables: `Some(entries)` when the
/// distinct home cliques above the run-program cut hold `entries ≥`
/// [`PARALLEL_MIN_ENTRIES`] entries, on a pool wider than one. Each
/// variable's marginal scans its whole home clique, so those cliques are
/// the work a second core can share; smaller ones are programmed-size
/// tables, read faster than a region hands them out.
// fastbn: allow(hot-alloc): plan construction, runs once per engine build.
fn extraction_region(prepared: &Prepared, threads: usize) -> Option<usize> {
    let mut homes: Vec<usize> = prepared.home.clone();
    homes.sort_unstable();
    homes.dedup();
    let entries = homes
        .iter()
        .map(|&c| prepared.clique_domains[c].size())
        .filter(|&size| size > RUN_PROGRAM_MAX_ENTRIES)
        .sum();
    pays_for_region(entries, threads).then_some(entries)
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
                sends: Vec::new(),
                footprint: false,
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

/// The task list of a parallel separator phase over the messages not
/// sent `ahead`. A task's cost is the sender entries it reads (`fiber` =
/// sender / separator entries per slot), so each separator is cut into
/// ranges of about `1 / slices` of those reads, each a whole number of the
/// plan's slot units
/// ([`KernelPlan::slot_unit`](fastbn_potential::KernelPlan::slot_unit)):
/// a task then streams contiguous stretches of its sender that no other
/// task reads. A separator that is one unit — clique 6 → 13's five slots
/// in `few-large-cliques`, each of which reads one entry of every cache
/// line of the 390 625 — stays one task, which streams its sender once.
/// Tasks are issued largest first, so the dynamic schedule ends on small
/// ones.
// fastbn: allow(hot-alloc): plan construction, runs once per engine build.
fn cut_separators(prepared: &Prepared, msgs: &[Msg], ahead: &[bool], slices: usize) -> Vec<Task> {
    let plan = |m: &Msg| prepared.plan_for(m.sender, m.sep);
    let sent = || msgs.iter().enumerate().filter(|&(i, _)| !ahead[i]);
    let reads: usize = sent().map(|(_, m)| plan(m).sup_size()).sum();
    let grain = (reads / slices).max(1);
    let mut tasks: Vec<(usize, Task)> = Vec::new();
    for (of, m) in sent() {
        let (size, fiber, unit) = (
            plan(m).sub_size(),
            plan(m).fibers().len(),
            plan(m).slot_unit(),
        );
        let step = grain.div_ceil(fiber).div_ceil(unit) * unit;
        for lo in (0..size).step_by(step) {
            let hi = (lo + step).min(size);
            tasks.push(((hi - lo) * fiber, Task { of, lo, hi }));
        }
    }
    tasks.sort_by_key(|&(reads, _)| std::cmp::Reverse(reads));
    tasks.into_iter().map(|(_, task)| task).collect()
}

/// The task list of a parallel receiver phase: each group's receiver cut
/// into ranges of about `1 / slices` of the phase's work (entries × the
/// ratios applied and separators sent ahead) — entry ranges in whole
/// blocks of every plan the group sends ahead through, or, for a
/// footprint group, slot ranges in whole units of its one send.
// fastbn: allow(hot-alloc): plan construction, runs once per engine build.
fn cut_receivers(prepared: &Prepared, groups: &[RecvGroup], slices: usize) -> Vec<Task> {
    let size = |g: &RecvGroup| prepared.clique_domains[g.receiver].size();
    let passes = |g: &RecvGroup| g.msgs.len() + g.sends.len();
    let work: usize = groups.iter().map(|g| size(g) * passes(g)).sum();
    let grain = (work / slices).max(1);
    cut_tables(groups.iter().map(|g| {
        let plan = |m: &Msg| prepared.plan_for(g.receiver, m.sep);
        let entries = (grain / passes(g)).max(1);
        if g.footprint {
            let plan = plan(&g.sends[0]);
            let unit = plan.slot_unit();
            let slots = entries.div_ceil(plan.fibers().len());
            return (plan.sub_size(), slots.div_ceil(unit) * unit);
        }
        let unit = g
            .sends
            .iter()
            .filter_map(|m| plan(m).block_entries())
            .fold(1, lcm);
        (size(g), entries.div_ceil(unit) * unit)
    }))
}

/// Least common multiple.
fn lcm(a: usize, b: usize) -> usize {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

/// Sends messages one layer ahead: a message of layer `l + 1` whose sender
/// is a receiver of layer `l`'s parallel receiver phase has its separator
/// computed by those receiver tasks — each marginalizes what it has just
/// written while it is still in its core's cache, instead of layer `l + 1`
/// streaming the whole sender back from memory. That needs every slot's
/// entries inside one task:
///
/// * a plan that owns its slots in blocks
///   ([`KernelPlan::block_entries`](fastbn_potential::KernelPlan::block_entries):
///   the separator's outermost variables are the sender's outermost) is
///   served by any entry ranges cut at its blocks, so all such sends of a
///   receiver ride on its entry-range tasks;
/// * a separator that can be cut
///   ([`KernelPlan::slot_unit`](fastbn_potential::KernelPlan::slot_unit))
///   but owns no blocks can cut the tasks itself — a *footprint* group:
///   each task is a range of that separator's slots and extends exactly
///   the stretches of the receiver they read
///   ([`KernelPlan::footprint`](fastbn_potential::KernelPlan::footprint)),
///   which hold whole blocks of every block send whose blocks divide the
///   stretches' alignment. A receiver takes this form when it sends more
///   messages ahead that way than by entry ranges.
///
/// Bit for bit the same: each slot's entries are summed in ascending order
/// by one task, and the separator update is the same division. Layer
/// `l + 1`'s separator phase keeps the other messages, its
/// inline-or-region decision re-judged on them.
// fastbn: allow(hot-alloc): plan construction, runs once per engine build.
fn send_ahead(prepared: &Prepared, layers: &mut [Layer], threads: usize) {
    for l in 1..layers.len() {
        let (done, rest) = layers.split_at_mut(l);
        let Run::Phased {
            recv_region: Some(region),
            ..
        } = &mut done[l - 1].run
        else {
            continue;
        };
        let Layer { msgs, run } = &mut rest[0];
        let Run::Phased {
            sep_tasks,
            ahead,
            entries,
            ..
        } = run
        else {
            continue;
        };
        for group in &mut region.groups {
            let plan = |i: &usize| prepared.plan_for(msgs[*i].sender, msgs[*i].sep);
            let mine = (0..msgs.len()).filter(|&i| msgs[i].sender == group.receiver);
            let blocks: Vec<usize> = mine
                .clone()
                .filter(|i| plan(i).block_entries().is_some())
                .collect();
            let cuttable = |i: &usize| {
                let p = plan(i);
                p.layout() != Layout::Identity && p.slot_unit() < p.sub_size()
            };
            // The first separator that can be cut but owns no blocks, with
            // every block send whose blocks its stretches hold whole.
            let footprint = mine
                .clone()
                .find(|i| plan(i).block_entries().is_none() && cuttable(i));
            let riders = |f: usize| -> Vec<usize> {
                let align = plan(&f).digit_entries();
                let fits = |i: &&usize| align % plan(i).block_entries().unwrap_or(0).max(1) == 0;
                blocks.iter().filter(fits).copied().collect()
            };
            let sends = match footprint {
                Some(f) if riders(f).len() + 1 > blocks.len() => {
                    group.footprint = true;
                    [vec![f], riders(f)].concat()
                }
                _ => blocks.clone(),
            };
            for i in sends {
                group.sends.push(msgs[i]);
                ahead[i] = true;
            }
        }
        if !ahead.contains(&true) {
            continue;
        }
        let slices = threads * CHUNKS_PER_THREAD;
        region.tasks = cut_receivers(prepared, &region.groups, slices);
        let sent = || {
            msgs.iter()
                .zip(ahead.iter())
                .filter(|(_, &a)| !a)
                .map(|(m, _)| m)
        };
        let size = |c: usize| prepared.clique_domains[c].size();
        let unprogrammed = |m: &&Msg| !prepared.plan_for(m.sender, m.sep).is_programmed();
        let work = sent().filter(unprogrammed).map(|m| size(m.sender)).sum();
        *sep_tasks =
            pays_for_region(work, threads).then(|| cut_separators(prepared, msgs, ahead, slices));
        entries.0 = sent().map(|m| size(m.sender)).sum();
    }
    // Receivers all of whose messages were sent ahead run early.
    for layer in layers {
        let Run::Phased {
            recv_region: Some(region),
            ahead,
            ..
        } = &mut layer.run
        else {
            continue;
        };
        let sent = |m: &Msg| {
            ahead[layer
                .msgs
                .iter()
                .position(|x| x == m)
                .expect("a layer message")]
        };
        let early: Vec<bool> = region
            .groups
            .iter()
            .map(|g| g.msgs.iter().all(sent))
            .collect();
        let tasks = std::mem::take(&mut region.tasks);
        (region.early, region.tasks) = tasks.into_iter().partition(|t| early[t.of]);
    }
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
            // Separator tasks: every separator of the layer, cut by the
            // sender entries a task reads, at the plan's fold units (see
            // `cut_separators`).
            let ahead = vec![false; msgs.len()];
            let sep_tasks = pays_for_region(work(|m| m.sender), threads)
                .then(|| cut_separators(prepared, &msgs, &ahead, slices));

            // Receiver tasks: weight = entries × incoming messages.
            let recv_region = pays_for_region(work(|m| m.receiver), threads).then(|| {
                let groups = group_by_receiver(&msgs);
                let tasks = cut_receivers(prepared, &groups, slices);
                RecvRegion {
                    groups,
                    tasks,
                    early: Vec::new(),
                }
            });

            if sep_tasks.is_none() && recv_region.is_none() {
                Run::Deferred
            } else {
                let total =
                    |side: fn(&Msg) -> usize| msgs.iter().map(|m| clique_size(side(m))).sum();
                Run::Phased {
                    sep_tasks,
                    recv_region,
                    ahead,
                    entries: (total(|m| m.sender), total(|m| m.receiver)),
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

    fn extract_posteriors(
        &self,
        state: &WorkState,
        evidence: &Evidence,
    ) -> Result<Posteriors, InferenceError> {
        match self.extract {
            Some(entries) => trace::extract(entries, || {
                state.extract_posteriors_on(&self.prepared, evidence, self.team())
            }),
            None => state.extract_posteriors(&self.prepared, evidence),
        }
    }

    fn propagate(&self, state: &mut WorkState) {
        trace::collect(|| {
            for (index, layer) in self.collect.iter().enumerate() {
                self.run_layer(state, index, layer);
            }
        });
        trace::distribute(|| {
            for (index, layer) in self.distribute.iter().enumerate() {
                self.run_layer(state, index, layer);
            }
            // Leaves, and any clique that never sent again, still hold a
            // deferred ratio (none do when no layer was deferred).
            state.flush_all_pending(&self.prepared);
        });
    }
}

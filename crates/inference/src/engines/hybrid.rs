//! `HybridJt` — **Fast-BNI-par**: hybrid inter-/intra-clique parallelism
//! with flattened per-layer task lists (the paper's §2 contribution).
//!
//! "At the beginning of each layer, all the potential table entries
//! corresponding to this layer are packed to constitute one of the
//! parallel tasks. The tasks are then distributed to the parallel threads
//! to perform concurrently."
//!
//! Each layer of each pass runs **two phases**, independent of how many
//! messages the layer contains:
//!
//! 1. **Separator phase** — the separator entries of *every* message in
//!    the layer are packed into one flat task list; each task computes,
//!    for its entry range, the fresh marginal (fiber sum over the sender
//!    clique) fused with the ratio `fresh / old` (marginalization +
//!    division in a single pass).
//! 2. **Receiver phase** — the receiver-clique entries of the layer are
//!    packed likewise; each task multiplies every incoming ratio into its
//!    entry range (extension), handling multi-child parents without
//!    write conflicts because tasks partition the *receiver* entries.
//!
//! This yields the paper's three advantages: (i) tasks are sized by entry
//! counts, so skewed clique sizes balance across threads; (ii) at most two
//! regions per layer instead of three per message; (iii) the same code
//! path is efficient on few-large-clique and many-small-clique trees.
//!
//! # A phase is a pool region only when the region pays
//!
//! Flattening is a cost argument — pay region overhead once per layer,
//! not once per message — and the same argument says a phase with too
//! little work should pay it zero times. Every phase therefore carries a
//! decision compiled at engine construction from the plans' entry counts:
//!
//! * its **work estimate** `W` in table entries — separator phase:
//!   Σ sender-clique entries (what the marginalization scans); receiver
//!   phase: Σ receiver entries × incoming messages (what the extension
//!   touches);
//! * `W ≥ PARALLEL_MIN_ENTRIES` on a pool wider than one ⇒ a
//!   **parallel** phase: one pool region over `threads ×
//!   CHUNKS_PER_THREAD` entry-range slices under a dynamic schedule,
//!   through the chunkable kernels `marginalize_fold` /
//!   `extend_multiply_range`;
//! * otherwise an **inline** phase: the calling thread runs it without
//!   touching the pool (no region, no wake-up, no `Arc`) and without a
//!   task list, through the **whole-table** kernels — `marginalize` into
//!   the separator's `fresh` region, `ops::sep_update`, `extend_multiply`
//!   — which on tables of at most 4 096 entries execute compiled run
//!   programs (`fastbn_potential::plan`). Slicing a 70-entry range, or
//!   gathering it fiber by fiber, only multiplies kernel set-up. At pool
//!   width 1 every phase is inline.
//!
//! A layer whose **two** phases are inline is not run as phases at all:
//! it is the sequential engine's loop, one
//! `WorkState::send_deferred` per message — the per-message routine
//! `SeqJt` is built on, which defers each ratio's extension and fuses it
//! into the receiver's next outgoing marginalization. A tree of small
//! cliques therefore runs exactly the sequential engine's instructions.
//! Before a layer with a parallel phase reads or writes cliques directly,
//! the ratios still deferred on its senders and receivers are applied
//! (`WorkState::flush_pending`), and `propagate` ends by applying
//! whatever is left.
//!
//! All forms compute each separator entry's fiber sum in ascending
//! source order and multiply each receiver entry by its ratios in
//! ascending message order (a deferred ratio is applied before a later
//! one is recorded, and the fused pass forms the same products and sums
//! as the two it replaces), so where the task boundaries fall — and hence
//! the decision — never changes a bit of the result.
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
//! The decision lives here and not in the pool:
//! [`ThreadPool::parallel_for`] dispatches whatever it is given, because
//! only the engine knows how many entries stand behind a task index.
//!
//! All index mappings live in the [`Prepared`]'s precompiled
//! [`KernelPlan`](fastbn_potential::KernelPlan)s (one per clique/separator
//! incidence) and the task lists are precomputed at engine construction;
//! the engine itself is stateless, so one instance serves any number of
//! concurrent sessions, each supplying its own `WorkState` slab.
//!
//! fastbn: deny-hot-alloc

use std::sync::Arc;

use fastbn_jtree::Message;
use fastbn_parallel::{Schedule, ThreadPool};
use fastbn_potential::ops::{self, safe_div};

use crate::engines::InferenceEngine;
use crate::prepared::Prepared;
use crate::state::WorkState;

/// Flat chunks per thread in a parallel phase; 4 gives the dynamic
/// schedule room to balance without inflating claim traffic.
const CHUNKS_PER_THREAD: usize = 4;

/// Work, in table entries, from which a phase is worth a pool region
/// (derivation in the module header). Below it the phase runs inline.
const PARALLEL_MIN_ENTRIES: usize = 16_384;

/// One separator-phase task: entries `[lo, hi)` of `msg`'s separator.
struct SepTask {
    msg: usize,
    lo: usize,
    hi: usize,
}

/// Messages sharing a receiver in one layer.
struct RecvGroup {
    receiver: usize,
    /// Message ids ascending — multiplication order matches `SeqJt`.
    msgs: Vec<usize>,
}

/// One receiver-phase task: entries `[lo, hi)` of `group`'s receiver.
struct RecvTask {
    group: usize,
    lo: usize,
    hi: usize,
}

/// The flattened task lists of one layer of one pass. A phase compiled
/// **parallel** carries the task list of its pool region; an **inline**
/// phase carries none — it runs whole-table kernels over `msgs` /
/// `recv_groups` on the calling thread.
struct LayerPlan {
    /// Message ids of this layer, ascending.
    msgs: Vec<usize>,
    recv_groups: Vec<RecvGroup>,
    /// Separator-phase region tasks; `None` = inline.
    sep_tasks: Option<Vec<SepTask>>,
    /// Receiver-phase region tasks; `None` = inline.
    recv_tasks: Option<Vec<RecvTask>>,
}

/// Fast-BNI-par: the hybrid flattened engine.
pub struct HybridJt {
    prepared: Arc<Prepared>,
    pool: Arc<ThreadPool>,
    collect_plans: Vec<LayerPlan>,
    distribute_plans: Vec<LayerPlan>,
}

impl HybridJt {
    /// Builds the engine, precomputing all task lists for a pool of
    /// `threads` workers.
    pub fn new(prepared: Arc<Prepared>, threads: usize) -> Self {
        HybridJt::with_pool(prepared, ThreadPool::shared(threads))
    }

    /// Builds the engine on an **injected** (possibly shared) pool — the
    /// multi-model path, where many engines run their regions on one
    /// worker team instead of spawning a team each. Task plans are sized
    /// to the pool's width, and each phase's inline-or-region decision is
    /// compiled here from the plans' entry counts.
    pub fn with_pool(prepared: Arc<Prepared>, pool: Arc<ThreadPool>) -> Self {
        let threads = pool.threads();
        let schedule = &prepared.built.schedule;
        let collect_plans = schedule
            .collect_layers
            .iter()
            .map(|layer| build_layer_plan(&prepared, layer, true, threads))
            .collect();
        let distribute_plans = schedule
            .distribute_layers
            .iter()
            .map(|layer| build_layer_plan(&prepared, layer, false, threads))
            .collect();

        HybridJt {
            pool,
            collect_plans,
            distribute_plans,
            prepared,
        }
    }

    /// One pool region over a parallel phase's task list.
    #[inline]
    fn region<T: Sync>(&self, tasks: &[T], body: impl Fn(&T) + Sync) {
        self.pool
            .parallel_for(0..tasks.len(), Schedule::Dynamic { grain: 1 }, |t| {
                body(&tasks[t])
            });
    }

    /// Runs one layer. With both phases inline it is the sequential
    /// engine's loop: one `WorkState::send_deferred` per message.
    /// Otherwise: separator phase (marginalize + ratio + in-place
    /// separator update), then receiver phase (extension), each as a pool
    /// region or as whole-table kernels on the caller.
    fn run_layer(&self, state: &mut WorkState, plan: &LayerPlan, collect: bool) {
        let prepared = &*self.prepared;
        let messages = &prepared.built.schedule.messages;
        let layout = &*prepared.layout;
        let ends = |m: Message| {
            if collect {
                (m.child, m.parent)
            } else {
                (m.parent, m.child)
            }
        };

        if plan.sep_tasks.is_none() && plan.recv_tasks.is_none() {
            for &id in &plan.msgs {
                let m = messages[id];
                let (sender, receiver) = ends(m);
                state.send_deferred(prepared, sender, receiver, m.sep);
            }
            return;
        }

        // The phases below read senders and write receivers directly, so
        // ratios an inline layer left deferred on them land first. No
        // other pending slot can name a ratio region this layer rewrites:
        // a separator's ratio is pending only on one of its two cliques.
        for &id in &plan.msgs {
            let (sender, receiver) = ends(messages[id]);
            state.flush_pending(prepared, sender);
            state.flush_pending(prepared, receiver);
        }
        let raw = state.raw();

        // ---- Phase 1: fresh marginal, ratio against the old value,
        // separator updated in place.
        raw.begin_phase();
        match &plan.sep_tasks {
            // Flat over sep entries: each entry is owned by exactly one
            // task, so read-then-overwrite is safe.
            Some(tasks) => self.region(tasks, |task| {
                let m = messages[task.msg];
                let (sender, _) = ends(m);
                let sender_plan = prepared.plan_for(sender, m.sep);
                // SAFETY: sender cliques are not written during this phase
                // (only separators and ratios are); each sep entry range
                // `[lo, hi)` belongs to exactly one task, and sep/ratio
                // regions are disjoint slab ranges.
                unsafe {
                    let sender_values =
                        raw.slice(layout.clique_off[sender], layout.clique_len[sender]);
                    let sep_chunk =
                        raw.slice_mut(layout.sep_off[m.sep] + task.lo, task.hi - task.lo);
                    let ratio_chunk =
                        raw.slice_mut(layout.ratio_off[m.sep] + task.lo, task.hi - task.lo);
                    sender_plan.marginalize_fold(sender_values, task.lo, task.hi, |i, acc| {
                        let k = i - task.lo;
                        ratio_chunk[k] = safe_div(acc, sep_chunk[k]);
                        sep_chunk[k] = acc;
                    });
                }
            }),
            None => {
                for &id in &plan.msgs {
                    let m = messages[id];
                    let (sender, _) = ends(m);
                    // SAFETY: the sender clique and the separator's three
                    // regions are pairwise-disjoint slab ranges, and this
                    // phase runs on the calling thread alone.
                    unsafe {
                        let sender_values =
                            raw.slice(layout.clique_off[sender], layout.clique_len[sender]);
                        let fresh = raw.slice_mut(layout.fresh_off[m.sep], layout.sep_len[m.sep]);
                        let sep_values =
                            raw.slice_mut(layout.sep_off[m.sep], layout.sep_len[m.sep]);
                        let ratio = raw.slice_mut(layout.ratio_off[m.sep], layout.sep_len[m.sep]);
                        prepared
                            .plan_for(sender, m.sep)
                            .marginalize(sender_values, fresh);
                        ops::sep_update(fresh, sep_values, ratio);
                    }
                }
            }
        }

        // ---- Phase 2: extension of the receivers. The barrier between
        // the phases (the pool's, or program order when both ran on the
        // caller) is what makes re-claiming phase-1 regions sound, so the
        // tracker generation resets here too.
        raw.begin_phase();
        // The *receiver*-side plan maps its entries onto the separator.
        let recv_plan = |group: &RecvGroup, id: usize| {
            let sep = messages[id].sep;
            // SAFETY: ratios are read-only in this phase.
            let ratio = unsafe { raw.slice(layout.ratio_off[sep], layout.sep_len[sep]) };
            (prepared.plan_for(group.receiver, sep), ratio)
        };
        match &plan.recv_tasks {
            Some(tasks) => self.region(tasks, |task| {
                let group = &plan.recv_groups[task.group];
                // SAFETY: receiver entry ranges partition each receiver
                // exactly once across tasks; sender cliques are untouched
                // this phase.
                let recv_chunk = unsafe {
                    raw.slice_mut(
                        layout.clique_off[group.receiver] + task.lo,
                        task.hi - task.lo,
                    )
                };
                for &id in &group.msgs {
                    let (plan, ratio) = recv_plan(group, id);
                    plan.extend_multiply_range(recv_chunk, ratio, task.lo);
                }
            }),
            None => {
                for group in &plan.recv_groups {
                    let c = group.receiver;
                    let (off, len) = (layout.clique_off[c], layout.clique_len[c]);
                    // SAFETY: each receiver belongs to one group, and this
                    // phase runs on the calling thread alone.
                    let receiver = unsafe { raw.slice_mut(off, len) };
                    for &id in &group.msgs {
                        let (plan, ratio) = recv_plan(group, id);
                        plan.extend_multiply(receiver, ratio);
                    }
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

/// Compiles one layer: each phase's inline-or-region decision, and the
/// flattened task list of every phase that is a region.
// fastbn: allow(hot-alloc): plan construction, runs once per engine build.
fn build_layer_plan(
    prepared: &Prepared,
    layer: &[usize],
    collect: bool,
    threads: usize,
) -> LayerPlan {
    let messages: &[Message] = &prepared.built.schedule.messages;
    let slices = threads * CHUNKS_PER_THREAD;

    // Separator tasks: pack all sep entries of the layer, cut by grain.
    // The work behind them is the scan of each sender clique.
    let sep_work: usize = layer
        .iter()
        .map(|&id| {
            let m = messages[id];
            let sender = if collect { m.child } else { m.parent };
            prepared.clique_domains[sender].size()
        })
        .sum();
    let sep_tasks = pays_for_region(sep_work, threads).then(|| {
        let total_sep: usize = layer
            .iter()
            .map(|&id| prepared.sep_domains[messages[id].sep].size())
            .sum();
        let sep_grain = (total_sep / slices).max(1);
        let mut tasks = Vec::new();
        for &id in layer {
            let size = prepared.sep_domains[messages[id].sep].size();
            let mut lo = 0;
            while lo < size {
                let hi = (lo + sep_grain).min(size);
                tasks.push(SepTask { msg: id, lo, hi });
                lo = hi;
            }
        }
        tasks
    });

    // Receiver groups: by parent in collect (several children may share
    // one), one per message in distribute.
    let mut recv_groups: Vec<RecvGroup> = Vec::new();
    for &id in layer {
        let receiver = if collect {
            messages[id].parent
        } else {
            messages[id].child
        };
        match recv_groups.iter_mut().find(|g| g.receiver == receiver) {
            Some(g) => g.msgs.push(id),
            None => recv_groups.push(RecvGroup {
                receiver,
                msgs: vec![id],
            }),
        }
    }
    for g in &mut recv_groups {
        g.msgs.sort_unstable();
    }

    // Receiver tasks: weight = entries × incoming messages, which is also
    // the phase's work estimate.
    let total_weight: usize = recv_groups
        .iter()
        .map(|g| prepared.clique_domains[g.receiver].size() * g.msgs.len())
        .sum();
    let recv_tasks = pays_for_region(total_weight, threads).then(|| {
        let weight_grain = (total_weight / slices).max(1);
        let mut tasks = Vec::new();
        for (gi, g) in recv_groups.iter().enumerate() {
            let size = prepared.clique_domains[g.receiver].size();
            let chunk = (weight_grain / g.msgs.len()).max(1);
            let mut lo = 0;
            while lo < size {
                let hi = (lo + chunk).min(size);
                tasks.push(RecvTask { group: gi, lo, hi });
                lo = hi;
            }
        }
        tasks
    });

    LayerPlan {
        msgs: layer.to_vec(),
        recv_groups,
        sep_tasks,
        recv_tasks,
    }
}

impl InferenceEngine for HybridJt {
    fn name(&self) -> &'static str {
        "Fast-BNI-par"
    }

    fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn pool(&self) -> Option<&ThreadPool> {
        Some(&self.pool)
    }

    fn pool_handle(&self) -> Option<Arc<ThreadPool>> {
        Some(Arc::clone(&self.pool))
    }

    fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }

    fn propagate(&self, state: &mut WorkState) {
        crate::trace::collect(|| {
            for plan in &self.collect_plans {
                self.run_layer(state, plan, true);
            }
        });
        crate::trace::distribute(|| {
            for plan in &self.distribute_plans {
                self.run_layer(state, plan, false);
            }
            state.flush_all_pending(&self.prepared);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::EngineKind;
    use crate::solver::Solver;
    use fastbn_bayesnet::{datasets, generators, sampler, Evidence};
    use fastbn_jtree::JtreeOptions;

    /// Asserts that `tasks` (as `(lo, hi)` ranges) tile `[0, size)`.
    fn assert_tiles(mut covered: Vec<(usize, usize)>, size: usize) {
        covered.sort_unstable();
        assert_eq!(covered.first().map(|c| c.0), Some(0));
        assert_eq!(covered.last().map(|c| c.1), Some(size));
        assert!(covered.windows(2).all(|w| w[0].1 == w[1].0));
    }

    /// Every parallel phase's task list covers each separator / receiver
    /// entry exactly once (an inline phase has no list: it runs
    /// whole-table kernels). Returns how many phases were compiled
    /// (inline, parallel).
    fn check_task_lists(prepared: &Arc<Prepared>, threads: usize) -> (usize, usize) {
        let engine = HybridJt::new(prepared.clone(), threads);
        let (mut inline, mut parallel) = (0, 0);
        for plan in engine.collect_plans.iter().chain(&engine.distribute_plans) {
            // Sep tasks partition each message's separator range.
            if let Some(tasks) = &plan.sep_tasks {
                for &id in &plan.msgs {
                    let m = prepared.built.schedule.messages[id];
                    let of_msg = tasks.iter().filter(|t| t.msg == id);
                    assert_tiles(
                        of_msg.map(|t| (t.lo, t.hi)).collect(),
                        prepared.sep_domains[m.sep].size(),
                    );
                }
            }
            // Recv tasks partition each group's receiver range.
            if let Some(tasks) = &plan.recv_tasks {
                for (gi, g) in plan.recv_groups.iter().enumerate() {
                    let of_group = tasks.iter().filter(|t| t.group == gi);
                    assert_tiles(
                        of_group.map(|t| (t.lo, t.hi)).collect(),
                        prepared.clique_domains[g.receiver].size(),
                    );
                }
            }
            // Every message sits in exactly one receiver group.
            let mut grouped: Vec<usize> = plan
                .recv_groups
                .iter()
                .flat_map(|g| g.msgs.iter().copied())
                .collect();
            grouped.sort_unstable();
            assert_eq!(grouped, plan.msgs);
            for is_parallel in [plan.sep_tasks.is_some(), plan.recv_tasks.is_some()] {
                if is_parallel {
                    parallel += 1;
                } else {
                    inline += 1;
                }
            }
        }
        (inline, parallel)
    }

    #[test]
    fn task_lists_cover_every_entry_exactly_once() {
        // Asia: every phase is far below the break-even, at any width.
        let asia = Arc::new(Prepared::new(&datasets::asia(), &JtreeOptions::default()));
        let (_, parallel) = check_task_lists(&asia, 3);
        assert_eq!(parallel, 0);

        // Arity 6 over a window of 4 puts clique sizes on both sides of
        // the constant (6^4 = 1 296, 6^5 = 7 776), so one tree mixes
        // inline phases with sliced parallel ones.
        let spec = generators::WindowedDagSpec {
            target_arcs: 60,
            max_parents: 3,
            window: 4,
            arity: generators::ArityDist::Fixed(6),
            seed: 3,
            ..generators::WindowedDagSpec::new("straddle", 30)
        };
        let net = generators::windowed_dag(&spec);
        let mixed = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let (inline, parallel) = check_task_lists(&mixed, 3);
        assert!(
            inline > 0 && parallel > 0,
            "{inline} inline, {parallel} parallel"
        );
        // At width 1 the same tree compiles fully inline.
        let (_, parallel) = check_task_lists(&mixed, 1);
        assert_eq!(parallel, 0);
    }

    #[test]
    fn hybrid_matches_seq_bitwise_across_thread_counts() {
        let net = datasets::asia();
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let seq = Solver::from_prepared(prepared.clone()).build();
        let mut seq_session = seq.session();
        let cases = sampler::generate_cases(&net, 20, 0.2, 17);
        for threads in [1, 2, 3, 4] {
            let hybrid = Solver::from_prepared(prepared.clone())
                .engine(EngineKind::Hybrid)
                .threads(threads)
                .build();
            let mut session = hybrid.session();
            for case in &cases {
                let a = seq_session.posteriors(&case.evidence).unwrap();
                let b = session.posteriors(&case.evidence).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0, "t={threads}");
                assert_eq!(a.prob_evidence.to_bits(), b.prob_evidence.to_bits());
            }
        }
    }

    #[test]
    fn hybrid_matches_seq_on_multi_child_parents() {
        // Naive-Bayes trees have one parent clique with many children —
        // the multi-ratio receiver-phase case.
        let net = generators::naive_bayes(12, 3, 2, 8);
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let seq = Solver::from_prepared(prepared.clone()).build();
        let hybrid = Solver::from_prepared(prepared)
            .engine(EngineKind::Hybrid)
            .threads(4)
            .build();
        let mut seq_session = seq.session();
        let mut session = hybrid.session();
        for case in sampler::generate_cases(&net, 10, 0.3, 21) {
            let a = seq_session.posteriors(&case.evidence).unwrap();
            let b = session.posteriors(&case.evidence).unwrap();
            assert_eq!(a.max_abs_diff(&b), 0.0);
        }
    }

    #[test]
    fn hybrid_matches_seq_on_random_windowed_dags() {
        for seed in 0..4 {
            let spec = generators::WindowedDagSpec {
                nodes: 45,
                target_arcs: 60,
                max_parents: 3,
                window: 6,
                seed,
                ..generators::WindowedDagSpec::new("hybrid-test", 45)
            };
            let net = generators::windowed_dag(&spec);
            let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
            let seq = Solver::from_prepared(prepared.clone()).build();
            let hybrid = Solver::from_prepared(prepared)
                .engine(EngineKind::Hybrid)
                .threads(2)
                .build();
            let mut seq_session = seq.session();
            let mut session = hybrid.session();
            for case in sampler::generate_cases(&net, 6, 0.2, seed) {
                let a = seq_session.posteriors(&case.evidence).unwrap();
                let b = session.posteriors(&case.evidence).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0, "seed {seed}");
            }
        }
    }

    #[test]
    fn hybrid_handles_disconnected_networks() {
        // Forest: schedule merges components into shared layers.
        let mut b = fastbn_bayesnet::NetworkBuilder::new();
        let a0 = b.add_var("a0", &["t", "f"]);
        let a1 = b.add_var("a1", &["t", "f"]);
        let c0 = b.add_var("c0", &["t", "f"]);
        b.set_cpt(a0, vec![], vec![0.4, 0.6]).unwrap();
        b.set_cpt(a1, vec![a0], vec![0.9, 0.1, 0.3, 0.7]).unwrap();
        b.set_cpt(c0, vec![], vec![0.2, 0.8]).unwrap();
        let net = b.build().unwrap();
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let seq = Solver::from_prepared(prepared.clone()).build();
        let hybrid = Solver::from_prepared(prepared)
            .engine(EngineKind::Hybrid)
            .threads(2)
            .build();
        let ev = Evidence::from_pairs([(a1, 0)]);
        let x = seq.posteriors(&ev).unwrap();
        let y = hybrid.posteriors(&ev).unwrap();
        assert_eq!(x.max_abs_diff(&y), 0.0);
        assert!(
            (x.marginal(c0)[0] - 0.2).abs() < 1e-12,
            "other component untouched"
        );
    }
}

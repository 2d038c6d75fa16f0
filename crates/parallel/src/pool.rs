//! The persistent worker pool.
//!
//! fastbn: audited-raw-ptr

use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;

use fastbn_telemetry::{Counter, MetricsRegistry};

use crate::queue::Queue;
use crate::region::Region;
use crate::schedule::Schedule;

/// A snapshot of a pool's region traffic — how many parallel regions
/// tenants have issued and how busy the team is right now.
///
/// `regions_started - regions_finished` is the **occupancy**: regions
/// in flight at the snapshot instant (0 on a quiescent pool). The
/// counters use the telemetry staging discipline (`finished` read
/// before `started`), so occupancy can never appear negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Pool width, including the participating caller.
    pub threads: usize,
    /// Parallel regions entered: every `parallel_for`-family call over
    /// a non-empty range, including the degenerate ones the caller runs
    /// alone (a width-1 pool, a schedule that yields a single chunk).
    /// Empty ranges run nothing and count nothing — and neither does
    /// work a tenant never hands to the pool: the hybrid engine runs a
    /// layer phase below its break-even inline, opening no region, so
    /// a per-query delta of this counter says how many phases it
    /// decided were worth one.
    pub regions_started: u64,
    /// Regions fully retired.
    pub regions_finished: u64,
    /// Total items covered by all regions (the `len` of each range).
    pub items: u64,
}

impl PoolStats {
    /// Regions in flight when the snapshot was taken.
    pub fn occupancy(&self) -> u64 {
        self.regions_started - self.regions_finished
    }
}

/// Wake-ups the pool's hand-off queue holds before it must grow.
const HANDOFF_ROOM: usize = 64;

/// A fixed-width fork-join pool with OpenMP-like `parallel for` entry
/// points.
///
/// A pool of width `t` owns `t - 1` background workers; the thread calling
/// [`ThreadPool::parallel_for`] participates as the `t`-th member, exactly
/// like an OpenMP parallel region's encountering thread. `t = 1` therefore
/// degenerates to inline sequential execution with no synchronization —
/// matching how the paper's `t = 1` OpenMP measurements behave.
///
/// All entry points take `&self`; concurrent regions from multiple threads
/// are permitted and simply interleave on the worker team. Nested
/// `parallel_for` calls from inside a body are also permitted (the nested
/// caller drains its own region, so progress is guaranteed), though the
/// Fast-BNI engines never need them — avoiding nesting is precisely the
/// point of the paper's flattening.
///
/// # Sharing one pool between tenants
///
/// Because every entry point takes `&self` and regions interleave
/// safely, a single pool can back any number of independent tenants —
/// multiple engine instances, multiple compiled models, batch chunks —
/// instead of each spawning its own worker team. Construct one with
/// [`ThreadPool::shared`] and hand the `Arc` to each tenant: N models
/// then contend for `t` workers (the machine's cores) rather than
/// oversubscribing the host with `N × t` threads. Determinism is
/// unaffected: a region's chunk layout depends only on its schedule and
/// the pool width, never on which other tenants' regions are in flight
/// (asserted by `shared_pool_tenants_do_not_perturb_each_other` below).
pub struct ThreadPool {
    handoff: Arc<Queue<Arc<Region>>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    regions_started: Counter,
    regions_finished: Counter,
    items: Counter,
}

impl ThreadPool {
    /// Spawns a pool of `threads` total members (`threads - 1` background
    /// workers). `threads` is clamped to at least 1.
    ///
    /// The hand-off queue starts with room for 64 wake-ups, so a caller
    /// whose worker lags behind does not allocate to grow it, and a query
    /// keeps its zero-allocation contract. The bound that remains: a
    /// worker more than 64 wake-ups behind (at two threads, one per
    /// region) still makes the next region's `push` grow the queue.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let handoff = Arc::new(Queue::with_room(HANDOFF_ROOM));
        let workers = (1..threads)
            .map(|i| {
                let handoff = Arc::clone(&handoff);
                std::thread::Builder::new()
                    .name(format!("fastbn-worker-{i}"))
                    .spawn(move || worker_loop(&handoff))
                    .expect("failed to spawn fastbn worker thread")
            })
            .collect();
        ThreadPool {
            handoff,
            workers,
            threads,
            regions_started: Counter::new(),
            regions_finished: Counter::new(),
            items: Counter::new(),
        }
    }

    /// Spawns a pool wrapped in an [`Arc`], ready to be **shared** by
    /// several tenants (engines, compiled models, serving workers). This
    /// is the constructor the multi-model registry hands to every model
    /// it compiles, so mixed traffic across many networks runs on one
    /// worker team instead of one team per model.
    pub fn shared(threads: usize) -> Arc<Self> {
        Arc::new(ThreadPool::new(threads))
    }

    /// Pool width, including the participating caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A snapshot of the pool's region traffic. Reads `finished` before
    /// `started`, so [`PoolStats::occupancy`] never underflows even
    /// while tenants race through regions.
    pub fn stats(&self) -> PoolStats {
        let regions_finished = self.regions_finished.get_seq();
        let regions_started = self.regions_started.get_seq();
        PoolStats {
            threads: self.threads,
            regions_started,
            regions_finished,
            items: self.items.get(),
        }
    }

    /// Writes the pool's traffic counters into `metrics` as gauges
    /// under `{scope}.…` — how the serving stack folds pool occupancy
    /// into one metrics snapshot alongside its own families.
    pub fn export_metrics(&self, metrics: &MetricsRegistry, scope: &str) {
        let stats = self.stats();
        metrics.set_gauge(&format!("{scope}.threads"), stats.threads as u64);
        metrics.set_gauge(&format!("{scope}.regions_started"), stats.regions_started);
        metrics.set_gauge(&format!("{scope}.regions_finished"), stats.regions_finished);
        metrics.set_gauge(&format!("{scope}.occupancy"), stats.occupancy());
        metrics.set_gauge(&format!("{scope}.items"), stats.items);
    }

    /// Runs `body(start, end)` over every chunk of `range` under `sched`.
    ///
    /// This is the primitive the table operations build on: a chunk body
    /// can set up incremental index-mapping state once per chunk (the
    /// paper's "index mapping computations") and then stream through the
    /// chunk.
    pub fn parallel_for_chunks<F>(&self, range: Range<usize>, sched: Schedule, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        self.regions_started.inc_seq();
        self.items.add(len as u64);
        // Retire the region even if a chunk body panics (the panic
        // propagates to the caller; occupancy must not leak).
        let _retire = RetireRegion(&self.regions_finished);
        let offset = range.start;
        let shifted = move |s: usize, e: usize| body(offset + s, offset + e);
        let chunk_count = sched.chunk_count(len, self.threads);
        if self.threads == 1 || chunk_count == 1 {
            // Nothing to share: the caller runs every chunk itself, with no
            // region object and no wake-up. The schedule's chunk layout is
            // still honoured so per-chunk state is identical to the
            // multi-threaded execution; a panicking body unwinds straight
            // to the caller.
            for c in 0..chunk_count {
                let (s, e) = sched.chunk_bounds(c, len, self.threads);
                shifted(s, e);
            }
            return;
        }
        // SAFETY: `region` (and thus the borrow of `shifted`) is kept alive
        // by this frame until `region.wait()` returns, which per the region
        // protocol happens only after every body invocation has completed.
        let region = Arc::new(unsafe { Region::new(&shifted, len, self.threads, sched) });
        // One wake-up per chunk the caller cannot take itself, capped at
        // one per background worker; a worker that arrives after the
        // region completed retires zero chunks.
        for _ in 0..(self.threads - 1).min(chunk_count - 1) {
            let pushed = self.handoff.push(Arc::clone(&region));
            assert!(
                pushed.is_ok(),
                "hand-off queue closed while the pool exists"
            );
        }
        region.work();
        region.wait();
    }

    /// Runs `body(i)` for every `i` in `range` under `sched`.
    pub fn parallel_for<F>(&self, range: Range<usize>, sched: Schedule, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_chunks(range, sched, |s, e| {
            for i in s..e {
                body(i);
            }
        });
    }

    /// Runs `body(start, chunk)` over every chunk of `out` under `sched`,
    /// handing each invocation an exclusive `&mut` slice of that chunk's
    /// elements (`start` is the chunk's offset within `out`, for callers
    /// indexing side tables).
    ///
    /// This is the entry point for *batched* work: a chunk body can set up
    /// shared per-chunk state once — e.g. draw one scratch buffer from a
    /// pool — and then fill its slice item by item. Bodies may issue
    /// nested `parallel_for` calls on the same pool (nested-region
    /// batches); the nested caller drains its own region, so progress is
    /// guaranteed even when every pool member is busy with an outer chunk.
    pub fn parallel_chunks_mut<T, F>(&self, out: &mut [T], sched: Schedule, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let ptr = SendPtr(out.as_mut_ptr());
        let len = out.len();
        self.parallel_for_chunks(0..len, sched, |s, e| {
            // SAFETY: chunks are disjoint half-open subranges of `0..len`,
            // so each element is exclusively borrowed by exactly one task;
            // `ptr` stays valid for the region's lifetime because `out` is
            // borrowed for the whole call.
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
            body(s, chunk);
        });
    }
}

/// Background worker: spin briefly between regions before parking on the
/// hand-off queue. Junction-tree layers issue microsecond-scale regions
/// back-to-back, so a short spin keeps wake-up latency off the critical
/// path; the bounded budget avoids burning a core during long sequential
/// phases. Exits once the queue is closed and drained.
fn worker_loop(handoff: &Queue<Arc<Region>>) {
    const SPIN_LIMIT: u32 = 16_384;
    let mut spin_budget = SPIN_LIMIT;
    loop {
        let region = match handoff.try_pop() {
            Some(region) => region,
            None if spin_budget > 0 => {
                spin_budget -= 1;
                std::hint::spin_loop();
                continue;
            }
            None => match handoff.pop() {
                Some(region) => region,
                None => return,
            },
        };
        region.work();
        spin_budget = SPIN_LIMIT;
    }
}

/// Bumps the regions-finished counter on scope exit — including
/// unwinds, so a panicking chunk body can't leak pool occupancy.
struct RetireRegion<'a>(&'a Counter);

impl Drop for RetireRegion<'_> {
    fn drop(&mut self) {
        self.0.inc_seq();
    }
}

/// Raw pointer wrapper so disjoint-chunk writers can be dispatched to the
/// team. Soundness is argued at each use site.
struct SendPtr<T>(*mut T);
// SAFETY: `SendPtr` only ferries the pointer to the team; every
// dereference happens inside a dispatched closure that receives a
// provably disjoint chunk (soundness argued at each use site).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper itself, not the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the queue stops the workers once it has drained.
        self.handoff.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_once_dynamic() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..10_000, Schedule::Dynamic { grain: 17 }, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn covers_every_index_once_static() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1003).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..1003, Schedule::Static, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn respects_range_offset() {
        let pool = ThreadPool::new(2);
        let sum = AtomicU64::new(0);
        pool.parallel_for(100..200, Schedule::Static, |i| {
            assert!((100..200).contains(&i));
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), (100..200u64).sum());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let sum = AtomicU64::new(0);
        pool.parallel_for(0..1000, Schedule::Dynamic { grain: 8 }, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 999 * 1000 / 2);
    }

    #[test]
    fn empty_range_is_a_noop() {
        let pool = ThreadPool::new(4);
        pool.parallel_for(5..5, Schedule::Static, |_| panic!("must not run"));
        #[allow(clippy::reversed_empty_ranges)]
        pool.parallel_for(5..2, Schedule::Static, |_| panic!("must not run"));
    }

    /// Whether the calling thread is one of a pool's background workers.
    fn on_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("fastbn-worker-"))
    }

    #[test]
    fn fewer_items_than_threads_static() {
        // A Static schedule on a wide pool must produce `len` one-element
        // chunks, not empty chunks or double coverage — and wake one
        // worker per chunk the caller cannot take, not one per worker.
        // Every chunk waits for all three to have started, so each rep
        // needs the caller plus exactly two workers to take part.
        let pool = ThreadPool::new(8);
        let reps = 100;
        let on_workers = AtomicUsize::new(0);
        for _ in 0..reps {
            let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            let arrived = AtomicUsize::new(0);
            pool.parallel_for(0..3, Schedule::Static, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if on_worker() {
                    on_workers.fetch_add(1, Ordering::Relaxed);
                }
                // A bare arrival count that publishes no data: `Relaxed`.
                arrived.fetch_add(1, Ordering::Relaxed);
                while arrived.load(Ordering::Relaxed) < 3 {
                    std::thread::yield_now();
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        assert_eq!(
            on_workers.into_inner(),
            2 * reps,
            "two hand-offs per region"
        );
        let stats = pool.stats();
        assert_eq!(stats.regions_started, reps as u64);
        assert_eq!(stats.occupancy(), 0);
        assert_eq!(stats.items, 3 * reps as u64);
    }

    #[test]
    fn fewer_items_than_threads_dynamic() {
        // A grain larger than the range collapses to one chunk: the caller
        // runs it itself — no worker is woken, so none can ever claim it —
        // and the region is counted like any other.
        let pool = ThreadPool::new(8);
        let reps = 500;
        let on_workers = AtomicUsize::new(0);
        for _ in 0..reps {
            let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(0..3, Schedule::Dynamic { grain: 64 }, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if on_worker() {
                    on_workers.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        assert_eq!(
            on_workers.into_inner(),
            0,
            "a single chunk stays on the caller"
        );
        let stats = pool.stats();
        assert_eq!(stats.regions_started, reps as u64);
        assert_eq!(stats.occupancy(), 0);
        assert_eq!(stats.items, 3 * reps as u64);

        // The caller-run chunk propagates a panic and still retires.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for(0..3, Schedule::Dynamic { grain: 64 }, |i| {
                if i == 1 {
                    panic!("injected failure");
                }
            });
        }));
        assert!(
            result.is_err(),
            "panic in the single chunk reaches the caller"
        );
        assert_eq!(pool.stats().occupancy(), 0, "panicked region still retires");
    }

    #[test]
    fn single_item_range_runs_once() {
        for sched in [Schedule::Static, Schedule::Dynamic { grain: 4 }] {
            let pool = ThreadPool::new(4);
            let count = AtomicUsize::new(0);
            pool.parallel_for(7..8, sched, |i| {
                assert_eq!(i, 7);
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.into_inner(), 1);
        }
    }

    #[test]
    fn offset_range_boundary_chunks_stay_in_range() {
        // Chunk layout at the boundaries of a shifted range: every chunk
        // must stay within [start, end) and cover it exactly.
        let pool = ThreadPool::new(4);
        for (lo, hi) in [(100usize, 103usize), (99, 100), (1, 9)] {
            let len = hi - lo;
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for_chunks(lo..hi, Schedule::Static, |s, e| {
                assert!(
                    lo <= s && s < e && e <= hi,
                    "chunk [{s}, {e}) escapes [{lo}, {hi})"
                );
                for i in s..e {
                    hits[i - lo].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_chunks_mut_covers_every_slot_with_correct_offsets() {
        let pool = ThreadPool::new(4);
        for sched in [Schedule::Static, Schedule::Dynamic { grain: 7 }] {
            let mut out = vec![usize::MAX; 1001];
            pool.parallel_chunks_mut(&mut out, sched, |start, chunk| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + off;
                }
            });
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i, "slot {i} under {sched:?}");
            }
        }
    }

    #[test]
    fn parallel_chunks_mut_single_thread_and_empty() {
        let pool = ThreadPool::new(1);
        let mut out = vec![0u32; 10];
        pool.parallel_chunks_mut(&mut out, Schedule::Dynamic { grain: 3 }, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = (start + off) as u32 * 2;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
        let mut empty: Vec<u32> = Vec::new();
        pool.parallel_chunks_mut(&mut empty, Schedule::Static, |_, _| {
            panic!("must not run on an empty slice")
        });
        let wide = ThreadPool::new(8);
        let mut tiny = vec![0u8; 2];
        wide.parallel_chunks_mut(&mut tiny, Schedule::Static, |_, chunk| {
            for slot in chunk {
                *slot += 1;
            }
        });
        assert_eq!(tiny, vec![1, 1]);
    }

    #[test]
    fn drop_joins_cleanly_with_stale_queued_wakeups() {
        // A region sends its wake-ups even when it completes before the
        // workers pick them up (here the caller often takes both chunks
        // before the one woken worker arrives); dropping
        // the pool right after must close the channel and join without a
        // stale handle ever touching a dead region body.
        for _ in 0..50 {
            let pool = ThreadPool::new(4);
            let count = AtomicUsize::new(0);
            for _ in 0..8 {
                pool.parallel_for(0..2, Schedule::Static, |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(count.into_inner(), 16);
            drop(pool); // must not hang or crash
        }
    }

    #[test]
    fn drop_of_idle_pool_terminates() {
        for threads in [1, 2, 8] {
            drop(ThreadPool::new(threads));
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for(0..64, Schedule::Dynamic { grain: 4 }, |i| {
                if i == 33 {
                    panic!("injected failure");
                }
            });
        }));
        assert!(
            result.is_err(),
            "panic in a chunk body must reach the caller"
        );
        // The pool must remain usable after a panicked region.
        let sum = AtomicU64::new(0);
        pool.parallel_for(0..100, Schedule::Static, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 99 * 100 / 2);
    }

    #[test]
    fn nested_regions_do_not_deadlock() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        pool.parallel_for(0..8, Schedule::Dynamic { grain: 1 }, |_| {
            pool.parallel_for(0..100, Schedule::Dynamic { grain: 10 }, |j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 8 * (99 * 100 / 2));
    }

    #[test]
    fn many_small_regions_stress() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..2000 {
            pool.parallel_for(0..16, Schedule::Dynamic { grain: 2 }, |i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.into_inner(), 2000 * (15 * 16 / 2));
    }

    #[test]
    fn pool_stats_count_regions_and_items() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.stats().regions_started, 0);
        pool.parallel_for(0..100, Schedule::Static, |_| {});
        pool.parallel_for(0..50, Schedule::Dynamic { grain: 8 }, |_| {});
        pool.parallel_for(5..5, Schedule::Static, |_| unreachable!()); // empty: uncounted
        pool.parallel_for(0..10, Schedule::Static, |_| {});
        let stats = pool.stats();
        assert_eq!(stats.regions_started, 3);
        assert_eq!(stats.regions_finished, 3);
        assert_eq!(stats.occupancy(), 0);
        assert_eq!(stats.items, 160);
        assert_eq!(stats.threads, 4);

        // Occupancy retires even through a panicking region.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for(0..8, Schedule::Static, |i| {
                if i == 3 {
                    panic!("injected");
                }
            });
        }));
        assert_eq!(pool.stats().occupancy(), 0, "panicked region still retires");

        // The single-thread inline paths count identically.
        let inline = ThreadPool::new(1);
        inline.parallel_for(0..10, Schedule::Static, |_| {});
        inline.parallel_for(0..10, Schedule::Static, |_| {});
        assert_eq!(inline.stats().regions_started, 2);
        assert_eq!(inline.stats().regions_finished, 2);

        // And the gauge export lands under the requested scope.
        let metrics = fastbn_telemetry::MetricsRegistry::new();
        pool.export_metrics(&metrics, "pool");
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("pool.threads"), Some(4));
        assert_eq!(snap.gauge("pool.occupancy"), Some(0));
        assert_eq!(snap.gauge("pool.regions_started"), Some(4));
    }

    #[test]
    fn shared_pool_tenants_do_not_perturb_each_other() {
        // The multi-model contract: a tenant's chunk-ordered reduction
        // over a shared pool is bit-identical to the same reduction run
        // alone on a private pool of the same width, no matter what other
        // tenants are doing concurrently. Chunk layout depends only on
        // (schedule, len): each chunk's partial sum lands in the slot its
        // start names, and the slots are folded in order.
        let data_a: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
        let data_b: Vec<f64> = (0..2999).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let reduce = |pool: &ThreadPool, data: &[f64]| {
            const GRAIN: usize = 64;
            let partials: Vec<AtomicU64> = (0..data.len().div_ceil(GRAIN))
                .map(|_| AtomicU64::new(0))
                .collect();
            pool.parallel_for_chunks(0..data.len(), Schedule::Dynamic { grain: GRAIN }, |s, e| {
                let sum = data[s..e].iter().sum::<f64>();
                partials[s / GRAIN].store(sum.to_bits(), Ordering::Relaxed);
            });
            partials
                .iter()
                .map(|p| f64::from_bits(p.load(Ordering::Relaxed)))
                .sum::<f64>()
        };
        let private = ThreadPool::new(4);
        let solo_a = reduce(&private, &data_a);
        let solo_b = reduce(&private, &data_b);
        let shared = ThreadPool::shared(4);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let shared = Arc::clone(&shared);
                let (a, b) = (&data_a, &data_b);
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(reduce(&shared, a).to_bits(), solo_a.to_bits());
                        assert_eq!(reduce(&shared, b).to_bits(), solo_b.to_bits());
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_regions_from_multiple_threads() {
        let pool = std::sync::Arc::new(ThreadPool::new(4));
        let total = std::sync::Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            let total = std::sync::Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    pool.parallel_for(0..64, Schedule::Dynamic { grain: 8 }, |i| {
                        total.fetch_add(i as u64, Ordering::Relaxed);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 100 * (63 * 64 / 2));
    }
}

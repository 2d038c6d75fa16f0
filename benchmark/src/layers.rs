//! Probes of single layers, each through the layer's public functions,
//! each on the workload's own network. They run in the traced run only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::bayesnet::datasets;
use fastbn::potential::plan::Layout;
use fastbn::{
    CacheConfig, ModelConfig, Prepared, Query, QueryBatch, Registry, RoutedServer, Schedule,
    Server, Solver, ThreadPool,
};

use crate::model::{SERVE_MAX_BATCH, SERVE_MAX_DELAY};
use crate::spans::Recorder;
use crate::stats::{median, midmean_u64};

/// Idle gap before a "parked" region. The pool's workers poll their
/// channel 16 384 times (about 2 ms) before they park, so the gap has to
/// be longer than that; a 50 µs gap would find them still spinning.
const PARK_GAP: Duration = Duration::from_millis(5);
/// A rendezvous gives up waiting for the other pool members after this
/// long (a descheduled worker must not hang the probe).
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_millis(2);

/// The table kernels, replayed outside any engine.
pub struct KernelReplay {
    /// Table entries the kernels walk in one pass (exact).
    pub entries_per_pass: u64,
    /// Bytes one pass moves, computed from table sizes: a marginalize
    /// reads the clique and writes the separator; an extend-multiply
    /// reads and writes the clique and reads the separator.
    pub bytes_per_pass: u64,
    /// Entry-weighted shares of the plans' layouts: identity, inner
    /// block, outer block, generic.
    pub layout_shares: [f64; 4],
    pub marg_ns_per_entry: f64,
    pub extmul_ns_per_entry: f64,
    pub pass_us: f64,
}

/// One pass: for every separator and both directions, marginalize the
/// sending clique onto the separator and extend-multiply the receiving
/// clique by it — every `(clique, separator)` plan of `Prepared`, once
/// per direction, on scratch copies of the tables.
fn kernel_pass(prepared: &Prepared, slab: &mut [f64], msg: &mut [f64], marg: bool, extmul: bool) {
    let layout = &prepared.layout;
    for (sep, edge) in prepared.sep_plans.iter().enumerate() {
        let msg = &mut msg[..layout.sep_len[sep]];
        let ends = [
            (edge.child_clique, edge.parent_clique),
            (edge.parent_clique, edge.child_clique),
        ];
        for (from, to) in ends {
            if marg {
                let src = &slab[layout.clique_off[from]..][..layout.clique_len[from]];
                prepared.plan_for(from, sep).marginalize(src, msg);
            }
            if extmul {
                let dst = &mut slab[layout.clique_off[to]..][..layout.clique_len[to]];
                prepared.plan_for(to, sep).extend_multiply(dst, msg);
            }
        }
    }
}

pub fn kernel_replay(prepared: &Prepared, budget: Duration, rec: &mut Recorder) -> KernelReplay {
    let layout = &prepared.layout;
    let mut entries = 0u64;
    let mut bytes = 0u64;
    let mut by_layout = [0u64; 4];
    for (sep, edge) in prepared.sep_plans.iter().enumerate() {
        for clique in [edge.child_clique, edge.parent_clique] {
            let plan = prepared.plan_for(clique, sep);
            let (sup, sub) = (plan.sup_size() as u64, plan.sub_size() as u64);
            // Each plan runs one marginalize and one extend-multiply.
            entries += 2 * sup;
            bytes += 8 * ((sup + sub) + (2 * sup + sub));
            let class = match plan.layout() {
                Layout::Identity => 0,
                Layout::InnerBlock => 1,
                Layout::OuterBlock { .. } => 2,
                Layout::Generic => 3,
            };
            by_layout[class] += sup;
        }
    }
    let total: u64 = by_layout.iter().sum();

    let initial = &prepared.initial_slab[..layout.total];
    let mut slab = initial.to_vec();
    let mut msg = vec![1.0; layout.sep_len.iter().copied().max().unwrap_or(0)];
    let (mut marg_ns, mut ext_ns, mut pass_ns) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while pass_ns.len() < 3 || (start.elapsed() < budget && pass_ns.len() < 500) {
        // Fresh tables each repetition: values do not drift towards
        // overflow or denormals, which would change the arithmetic's cost.
        slab.copy_from_slice(initial);
        msg.fill(1.0);
        let t = Instant::now();
        kernel_pass(prepared, &mut slab, &mut msg, false, true);
        ext_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        kernel_pass(prepared, &mut slab, &mut msg, true, false);
        marg_ns.push(t.elapsed().as_nanos() as u64);
        let span = rec.open("potential.kernel_pass", pass_ns.len() as u64, 0);
        let t = Instant::now();
        kernel_pass(prepared, &mut slab, &mut msg, true, true);
        pass_ns.push(t.elapsed().as_nanos() as u64);
        rec.close(span);
        std::hint::black_box(&slab);
    }
    let per_kind = (entries / 2).max(1) as f64;
    KernelReplay {
        entries_per_pass: entries,
        bytes_per_pass: bytes,
        layout_shares: by_layout.map(|e| e as f64 / total.max(1) as f64),
        marg_ns_per_entry: midmean_u64(&marg_ns) / per_kind,
        extmul_ns_per_entry: midmean_u64(&ext_ns) / per_kind,
        pass_us: midmean_u64(&pass_ns) / 1e3,
    }
}

/// What one parallel region costs its caller, in microseconds.
pub struct Dispatch {
    /// Back-to-back empty regions: the caller-side cost alone, since the
    /// caller may claim every chunk before a worker shows up.
    pub hot_us: f64,
    /// Back-to-back regions in which every pool member must take part
    /// (each item waits until all have started): the cost of a region
    /// that has work for the whole team, hand-off latency included.
    pub handoff_us: f64,
    /// The same all-hands region after an idle gap long enough that the
    /// workers have parked: wake-up included.
    pub parked_us: f64,
}

pub fn dispatch_probe(threads: usize, budget: Duration, rec: &mut Recorder) -> Dispatch {
    let span = rec.open("parallel.dispatch_probe", threads as u64, 0);
    let pool = ThreadPool::new(threads);
    let empty = || {
        pool.parallel_for(0..threads, Schedule::Static, |i| {
            std::hint::black_box(i);
        })
    };
    // A bare arrival count: it publishes no other data, and the pool's
    // own dispatch orders the reset before any item runs, so `Relaxed`.
    let arrived = AtomicUsize::new(0);
    let all_hands = || {
        arrived.store(0, Ordering::Relaxed);
        pool.parallel_for(0..threads, Schedule::Static, |_| {
            arrived.fetch_add(1, Ordering::Relaxed);
            let waiting = Instant::now();
            while arrived.load(Ordering::Relaxed) < threads
                && waiting.elapsed() < RENDEZVOUS_TIMEOUT
            {
                std::hint::spin_loop();
            }
        })
    };
    const BATCH: u32 = 1_000;
    let per_region_us = |region: &dyn Fn(), budget: Duration| {
        for _ in 0..BATCH {
            region();
        }
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.is_empty() || start.elapsed() < budget {
            let t = Instant::now();
            for _ in 0..BATCH {
                region();
            }
            samples.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH));
        }
        median(&samples)
    };
    let hot_us = per_region_us(&empty, budget / 4);
    let handoff_us = per_region_us(&all_hands, budget / 4);
    let mut parked = Vec::new();
    let start = Instant::now();
    while parked.len() < 10 || start.elapsed() < budget / 2 {
        std::thread::sleep(PARK_GAP);
        let t = Instant::now();
        all_hands();
        parked.push(t.elapsed().as_nanos() as u64);
    }
    rec.close(span);
    Dispatch {
        hot_us,
        handoff_us,
        parked_us: midmean_u64(&parked) / 1e3,
    }
}

/// Queries per second through `Session::run_batch` at width `width`, on
/// batches drawn from `queries`.
pub fn batch_qps(solver: &Solver, queries: &[Query], width: usize, budget: Duration) -> f64 {
    let batches: Vec<QueryBatch> = (0..8)
        .map(|b| {
            (0..width)
                .map(|i| queries[(b * width + i) % queries.len()].clone())
                .collect()
        })
        .collect();
    let mut session = solver.session();
    let mut done = 0usize;
    let start = Instant::now();
    while done == 0 || start.elapsed() < budget {
        let results = session.run_batch(&batches[(done / width) % batches.len()]);
        done += std::hint::black_box(results).len();
    }
    done as f64 / start.elapsed().as_secs_f64()
}

/// Microseconds of a cache hit (interquartile mean): the same query answered again by
/// a solver built with the default result cache.
pub fn cache_hit_us(prepared: &Arc<Prepared>, query: &Query, budget: Duration) -> f64 {
    let solver = Solver::from_prepared(Arc::clone(prepared))
        .cache(CacheConfig::default())
        .build();
    let mut session = solver.session();
    let miss = session.run(query);
    let mut hits = Vec::new();
    let start = Instant::now();
    while hits.len() < 10 || start.elapsed() < budget {
        let t = Instant::now();
        let hit = session.run(query);
        hits.push(t.elapsed().as_nanos() as u64);
        assert!(hit == miss, "a cache hit differs from the computed result");
    }
    let stats = solver.cache_stats().expect("the cache was enabled");
    assert_eq!(stats.hits as usize, hits.len(), "the probe did not hit");
    midmean_u64(&hits) / 1e3
}

/// Round trip (interquartile mean, microseconds) of an empty query with
/// one request in flight.
fn roundtrip_us(submit: impl Fn() -> fastbn::Pending, budget: Duration) -> f64 {
    let mut trips = Vec::new();
    let start = Instant::now();
    while trips.len() < 10 || start.elapsed() < budget {
        let t = Instant::now();
        let reply = submit().wait();
        trips.push(t.elapsed().as_nanos() as u64);
        assert!(reply.is_ok(), "the empty query failed: {reply:?}");
    }
    midmean_u64(&trips) / 1e3
}

/// The floor a request pays for queue, batching window and reply
/// delivery: an empty query on the sprinkler model, one client, one
/// request in flight — through `RoutedServer`, then through the
/// single-model `Server` wrapper over the same solver.
pub fn noop_roundtrips(threads: usize, budget: Duration) -> (f64, f64) {
    let registry = Arc::new(Registry::builder().threads(threads).build());
    let solver = registry
        .load("sprinkler", &datasets::sprinkler(), &ModelConfig::new())
        .expect("an unbounded registry accepts the model");
    let routed = RoutedServer::builder(Arc::clone(&registry))
        .workers(threads)
        .max_batch(SERVE_MAX_BATCH)
        .max_delay(SERVE_MAX_DELAY)
        .build();
    let submit = || routed.submit("sprinkler", Query::new());
    let routed_us = roundtrip_us(|| submit().expect("the server is running"), budget);
    routed.shutdown();
    let single = Server::builder(solver)
        .workers(threads)
        .max_batch(SERVE_MAX_BATCH)
        .max_delay(SERVE_MAX_DELAY)
        .build();
    let submit = || single.submit(Query::new());
    let single_us = roundtrip_us(|| submit().expect("the server is running"), budget);
    single.shutdown();
    (routed_us, single_us)
}

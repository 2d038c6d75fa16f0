//! Steady-state allocation regression test: once a [`WorkState`] slab is
//! built, a full `reset → enter_evidence → propagate` cycle of the
//! sequential engine — and of the hybrid engine on a model whose phases
//! all run inline — must perform **zero heap allocations**: every
//! potential, separator and scratch table lives in the one contiguous
//! slab, and every index mapping lives in the [`Prepared`] plans.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use fastbn_bayesnet::{
    analogues, datasets, generators, sampler, BayesianNetwork, Evidence, NetworkBuilder, VarId,
};
use fastbn_inference::{
    make_engine, EngineKind, EvidenceDelta, InferenceEngine, Prepared, Query, Session, Solver,
    WorkState,
};
use fastbn_jtree::JtreeOptions;
use fastbn_parallel::{Schedule, ThreadPool};

/// Counts every allocation (alloc / alloc_zeroed / realloc) of the
/// **calling thread** and defers the real work to the system allocator.
struct CountingAlloc;

thread_local! {
    /// Per thread, because libtest runs this file's tests on parallel
    /// threads: a process-wide counter would charge one test with its
    /// neighbours' allocations. Const-initialised and without a
    /// destructor, so reading it never allocates or runs after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread's allocations also count in [`WORKER_ALLOCS`]:
    /// set on the background workers of one test's own pool, whose
    /// per-thread counters the test cannot read.
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made on threads flagged [`WORKER`].
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
    if WORKER.with(Cell::get) {
        WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method defers to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller contract forwarded verbatim to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: caller contract forwarded verbatim to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller contract forwarded verbatim to `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller contract forwarded verbatim to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One full query cycle on pre-built scratch.
fn cycle(
    engine: &dyn InferenceEngine,
    prepared: &Prepared,
    state: &mut WorkState,
    evidence: &Evidence,
) {
    state.reset(prepared);
    engine.enter_evidence(state, evidence);
    engine.propagate(state);
}

/// Asserts that warmed-up query cycles of `engine` over `net`'s sampled
/// cases never reach the allocator on the calling thread.
fn assert_steady_state_allocation_free(
    engine: &dyn InferenceEngine,
    prepared: &Prepared,
    net: &BayesianNetwork,
) {
    let mut state = WorkState::new(prepared);
    let cases = sampler::generate_cases(net, 4, 0.3, 77);

    // Warm-up: any one-time lazy work happens here, not in the
    // measured window.
    cycle(engine, prepared, &mut state, &Evidence::empty());
    for case in &cases {
        cycle(engine, prepared, &mut state, &case.evidence);
    }

    let before = allocations();
    cycle(engine, prepared, &mut state, &Evidence::empty());
    for case in &cases {
        cycle(engine, prepared, &mut state, &case.evidence);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state {} propagation allocated {delta} times on {:?}",
        engine.name(),
        net.name()
    );
}

fn small_models() -> [BayesianNetwork; 3] {
    [
        datasets::asia(),
        datasets::student(),
        generators::naive_bayes(10, 3, 2, 8),
    ]
}

#[test]
fn seq_steady_state_is_allocation_free() {
    for net in &small_models() {
        let prepared = Arc::new(Prepared::new(net, &JtreeOptions::default()));
        let engine = make_engine(EngineKind::Seq, prepared.clone(), 1);
        assert_steady_state_allocation_free(&*engine, &prepared, net);
    }
}

/// On a small model every hybrid phase is below the break-even and runs
/// inline on the caller, so — unlike a pool region, which builds an
/// `Arc<Region>` per dispatch — a hybrid query allocates nothing either,
/// at any pool width.
#[test]
fn hybrid_small_model_steady_state_is_allocation_free() {
    for net in &small_models() {
        let prepared = Arc::new(Prepared::new(net, &JtreeOptions::default()));
        for threads in [1, 2] {
            let engine = make_engine(EngineKind::Hybrid, prepared.clone(), threads);
            assert_steady_state_allocation_free(&*engine, &prepared, net);
        }
    }
}

/// Allocations of the second of two identical `Session::run` calls.
fn warm_query_allocations(solver: &Solver, query: &Query) -> u64 {
    let mut session = solver.session();
    session.run(query).unwrap();
    let before = allocations();
    let result = session.run(query).unwrap();
    let delta = allocations() - before;
    drop(result);
    delta
}

/// Above 262 144 active slab entries a reset leaves every clique to be
/// rebuilt from the initial slab at its first write, and that path
/// allocates nothing of its own — no per-query `Arc` clone, no flag
/// vector: on a network above the constant, a warm `Seq` query and a
/// warm two-thread `Hybrid` query (whose pool regions cost one `Arc`
/// each) allocate exactly as often as under the whole-slab copy that
/// every smaller network takes, and `Seq`'s
/// `reset → enter_evidence → propagate` cycle still never allocates.
#[test]
fn lazy_reset_adds_no_allocation() {
    // Ten 64 × 520 cliques: 332 800 clique entries, unprogrammed, so the
    // hybrid phases are pool regions.
    let net = generators::naive_bayes(10, 64, 520, 11);
    let lazy = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
    assert!(lazy.layout.total > 262_144, "{} entries", lazy.layout.total);
    let eager = Arc::new((*lazy).clone().with_lazy_reset(false));
    let case = &sampler::generate_cases(&net, 1, 0.3, 5)[0];
    let query = Query::new().evidence(case.evidence.clone());

    let seq = make_engine(EngineKind::Seq, lazy.clone(), 1);
    assert_steady_state_allocation_free(&*seq, &lazy, &net);
    for (kind, threads) in [(EngineKind::Seq, 1), (EngineKind::Hybrid, 2)] {
        let solver = |prepared: &Arc<Prepared>| {
            Solver::from_prepared(prepared.clone())
                .engine(kind)
                .threads(threads)
                .build()
        };
        let (with_lazy, with_copy) = (
            warm_query_allocations(&solver(&lazy), &query),
            warm_query_allocations(&solver(&eager), &query),
        );
        assert_eq!(
            with_lazy, with_copy,
            "{kind} t={threads}: lazy reset {with_lazy} allocations, whole copy {with_copy}"
        );
    }
}

/// The `few-large-cliques` adaptivity analogue (14 cliques of five-state
/// variables, the largest 390 625 entries): the one network whose tables
/// all run the group walks and whose hybrid layers and extraction are
/// pool regions.
fn few_large_cliques() -> BayesianNetwork {
    analogues::adaptivity()
        .into_iter()
        .find(|(name, _)| *name == "few-large-cliques")
        .expect("adaptivity analogue")
        .1
}

/// Flags every background worker of `pool` as a [`WORKER`]: one region
/// of one task per member, each waiting for all the others to start, so
/// every member takes exactly one; the caller's own flag is cleared
/// again, its allocations stay on its own counter.
fn flag_workers(pool: &ThreadPool) {
    let arrived = AtomicUsize::new(0);
    pool.parallel_for(0..pool.threads(), Schedule::Static, |_| {
        WORKER.with(|w| w.set(true));
        // ORDERING: a plain arrival count — the members only wait for
        // one another to be inside the region, and share no data.
        arrived.fetch_add(1, Ordering::Relaxed);
        while arrived.load(Ordering::Relaxed) < pool.threads() {
            std::hint::spin_loop();
        }
    });
    WORKER.with(|w| w.set(false));
}

/// On the network of large tables, a warm `Seq` query and a warm
/// two-thread `Hybrid` all-marginals query allocate their `Posteriors`
/// (one vector per variable and the outer one) and, for `Hybrid`, one
/// `Arc` per pool region the query opens — the separator, receiver and
/// extraction regions — on the calling thread, and nothing on the
/// workers: the extraction region's outputs are allocated by the caller.
#[test]
fn large_tables_allocate_only_posteriors_and_regions() {
    let net = few_large_cliques();
    let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
    let case = &sampler::generate_cases(&net, 1, 0.2, 7)[0];
    let query = Query::new().evidence(case.evidence.clone());
    let posteriors = net.num_vars() as u64 + 1;

    let seq = Solver::from_prepared(prepared.clone()).build();
    assert_eq!(warm_query_allocations(&seq, &query), posteriors, "Seq");

    let hybrid = Solver::from_prepared(prepared)
        .engine(EngineKind::Hybrid)
        .threads(2)
        .build();
    let pool = hybrid
        .pool_handle()
        .expect("a two-thread solver owns a pool");
    flag_workers(&pool);
    let mut session = hybrid.session();
    session.run(&query).unwrap();
    let (before, workers, regions) = (
        allocations(),
        WORKER_ALLOCS.load(Ordering::Relaxed),
        pool.stats().regions_started,
    );
    let result = session.run(&query).unwrap();
    let caller = allocations() - before;
    let workers = WORKER_ALLOCS.load(Ordering::Relaxed) - workers;
    let regions = pool.stats().regions_started - regions;
    drop(result);
    assert!(regions > 0, "the hybrid query opened no region");
    assert_eq!(
        (caller, workers),
        (posteriors + regions, 0),
        "Hybrid@2: {regions} regions"
    );
}

/// The incremental edit path has the same contract: once a
/// [`LiveSession`](fastbn_inference::LiveSession) is warm, applying a
/// single-finding delta — observe, change, retract, likelihood set or
/// retract — plus the monitoring reads (`prob_evidence`,
/// `marginal_into`) must perform **zero** heap allocations. Likelihood
/// vectors are owned by the edit and move into the session, so the
/// script is built outside the measured window, exactly as a caller
/// would construct edits before a latency-critical apply.
#[test]
fn live_session_single_finding_edits_are_allocation_free() {
    let net = datasets::asia();
    let solver = Arc::new(Solver::new(&net));
    let mut live = solver.live_session();
    let dysp = net.var_id("Dyspnea").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let smoke = net.var_id("Smoker").unwrap();
    let tub = net.var_id("Tuberculosis").unwrap();

    // Ends with everything retracted, so replaying it from the end state
    // retraces the exact same evidence-capacity trajectory.
    let script = || {
        vec![
            EvidenceDelta::observe(dysp, 0),
            EvidenceDelta::observe(xray, 1),
            EvidenceDelta::likelihood(smoke, vec![0.7, 0.3]),
            EvidenceDelta::observe(dysp, 1), // change
            EvidenceDelta::likelihood(smoke, vec![0.2, 0.9]), // replace
            EvidenceDelta::retract(xray),
            EvidenceDelta::retract_likelihood(smoke),
            EvidenceDelta::retract(dysp),
        ]
    };
    let mut buf = [0.0f64; 2];

    // Warm-up: grows the evidence vector to the script's high-water mark
    // and touches every read path once.
    for edit in script() {
        live.apply(edit).unwrap();
        let _ = live.prob_evidence();
        live.marginal_into(tub, &mut buf).unwrap();
    }

    let edits = script(); // the likelihood vectors allocate *here*
    let before = allocations();
    for edit in edits {
        live.apply(edit).unwrap();
        let _ = live.prob_evidence();
        live.marginal_into(tub, &mut buf).unwrap();
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "steady-state delta edits allocated {delta} times");
}

/// Three binary chains, `a0 → a1 → a2`, `b0 → b1 → b2` and `c0 → c1`: a
/// junction forest of three components.
fn three_chains() -> (BayesianNetwork, [[VarId; 2]; 3]) {
    let mut b = NetworkBuilder::new();
    let mut ends = Vec::new();
    for (name, len) in [("a", 3), ("b", 3), ("c", 2)] {
        let mut prev: Option<VarId> = None;
        let mut first = None;
        for i in 0..len {
            let v = b.add_var(&format!("{name}{i}"), &["x", "y"]);
            match prev {
                None => b.set_cpt(v, vec![], vec![0.4, 0.6]).unwrap(),
                Some(p) => b.set_cpt(v, vec![p], vec![0.9, 0.1, 0.2, 0.8]).unwrap(),
            }
            first.get_or_insert(v);
            prev = Some(v);
        }
        ends.push([first.unwrap(), prev.unwrap()]);
    }
    (b.build().unwrap(), [ends[0], ends[1], ends[2]])
}

/// The same contract on a junction forest, with edits alternating between
/// components so that each read meets a component the last edit did not
/// restamp: `apply`, `prob_evidence` and `marginal_into` allocate nothing,
/// and a full `posteriors()` allocates only its result — the outer vector
/// and one marginal per variable — because the marginal buffer it fills
/// was allocated at construction.
#[test]
fn live_session_edits_across_components_are_allocation_free() {
    let (net, [[a0, a2], [b0, b2], [c0, c1]]) = three_chains();
    let solver = Arc::new(Solver::new(&net));
    assert_eq!(solver.prepared().built.rooted.roots.len(), 3);
    let mut live = solver.live_session();
    let script = || {
        vec![
            EvidenceDelta::observe(a2, 0),
            EvidenceDelta::observe(b2, 1),
            EvidenceDelta::likelihood(c1, vec![0.3, 0.9]),
            EvidenceDelta::observe(a2, 1), // change
            EvidenceDelta::retract(b2),
            EvidenceDelta::retract_likelihood(c1),
            EvidenceDelta::retract(a2),
        ]
    };
    // Each step reads a variable of the next component over.
    let watched = [b0, c0, a0];
    let mut buf = [0.0f64; 2];
    let mut step = |live: &mut fastbn_inference::LiveSession, i: usize, edit| {
        live.apply(edit).unwrap();
        let _ = live.prob_evidence();
        live.marginal_into(watched[i % watched.len()], &mut buf)
            .unwrap();
    };
    for (i, edit) in script().into_iter().enumerate() {
        step(&mut live, i, edit);
    }
    live.posteriors().unwrap();

    let edits = script(); // the likelihood vectors allocate *here*
    let before = allocations();
    for (i, edit) in edits.into_iter().enumerate() {
        step(&mut live, i, edit);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "cross-component delta edits allocated {delta} times"
    );

    live.apply(EvidenceDelta::observe(b2, 0)).unwrap();
    let before = allocations();
    let full = live.posteriors().unwrap();
    let delta = allocations() - before;
    drop(full);
    let result = net.num_vars() as u64 + 1;
    assert_eq!(delta, result, "a full read allocates only its result");
}

/// A likelihood finding is entered through the single-variable kernel on
/// its variable's stored home axis: a warm `Seq` query that carries one
/// costs at most one allocation more than the same query without it —
/// the finding's canonical (max = 1) vector — and compiles nothing.
#[test]
fn likelihood_finding_compiles_no_plan() {
    let net = datasets::asia();
    let solver = Solver::new(&net);
    let mut session = solver.session();
    let dysp = net.var_id("Dyspnea").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let hard = Query::new().observe(xray, 0);
    let soft = hard.clone().likelihood(dysp, vec![0.7, 0.3]);
    let cost = |session: &mut Session<'_>, query: &Query| {
        session.run(query).unwrap(); // warm
        let before = allocations();
        let result = session.run(query).unwrap();
        let delta = allocations() - before;
        drop(result);
        delta
    };
    let without = cost(&mut session, &hard);
    let with = cost(&mut session, &soft);
    assert!(
        with <= without + 1,
        "a likelihood finding cost {} allocations beyond the canonical vector",
        with - without - 1
    );
}

#[test]
fn workstate_construction_allocates_but_clone_stays_flat() {
    // The slab design means a WorkState is a fixed small number of
    // allocations (slab + pending + container bookkeeping), independent
    // of how many cliques/separators the tree has.
    let small = Arc::new(Prepared::new(
        &datasets::sprinkler(),
        &JtreeOptions::default(),
    ));
    let large = Arc::new(Prepared::new(
        &generators::naive_bayes(24, 3, 2, 8),
        &JtreeOptions::default(),
    ));
    let count_new = |prepared: &Prepared| {
        let before = allocations();
        let state = WorkState::new(prepared);
        let delta = allocations() - before;
        drop(state);
        delta
    };
    let a = count_new(&small);
    let b = count_new(&large);
    assert_eq!(a, b, "WorkState allocations must not scale with tree size");
}

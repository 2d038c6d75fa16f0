//! The concurrent session API: [`Solver`] (immutable compiled model),
//! [`Session`] (cheap per-caller handle with pooled scratch), and the
//! scratch pool that connects them.
//!
//! The Fast-BNI engines parallelize *inside* one query; serving heavy
//! traffic also needs parallelism *across* queries. A `Solver` compiles a
//! network once (junction tree, initial potentials, engine task plans)
//! into a `Send + Sync` value; any number of threads then open
//! `Session`s against it and run [`Query`]s concurrently. Per-query
//! scratch ([`WorkState`]) is recycled through a `Mutex`-guarded pool,
//! so steady-state querying performs no allocation, and results are
//! bit-identical to the sequential baseline regardless of engine, thread
//! count, or interleaving.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fastbn_bayesnet::{BayesianNetwork, Evidence, VarId};
use fastbn_jtree::JtreeOptions;
use fastbn_potential::PotentialTable;

use crate::cache::{CacheConfig, CacheStats, QueryCache};
use crate::engines::{make_engine, make_engine_on, EngineKind, InferenceEngine};
use crate::error::InferenceError;
use crate::mpe::{mpe_on_state, MpeResult};
use crate::posterior::Posteriors;
use crate::prepared::Prepared;
use crate::query::{Query, QueryBatch, QueryKey, QueryMode, QueryResult};
use crate::state::WorkState;
use crate::validate::{validate_evidence, validate_virtual};
use crate::virtual_evidence::{absorb_virtual, VirtualEvidence};

/// An immutable, `Send + Sync` compiled inference model: shared
/// [`Prepared`] structures plus one stateless engine and a pool of
/// reusable [`WorkState`] scratch.
///
/// Construction is the expensive step (triangulation, initial
/// potentials, engine task plans); queries afterwards are cheap and may
/// run from many threads at once:
///
/// ```
/// use fastbn_bayesnet::{datasets, Evidence};
/// use fastbn_inference::{EngineKind, Query, Solver};
///
/// let net = datasets::asia();
/// let solver = Solver::builder(&net).engine(EngineKind::Hybrid).threads(2).build();
/// let xray = net.var_id("XRay").unwrap();
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| {
///             let mut session = solver.session();
///             let post = session.posteriors(&Evidence::from_pairs([(xray, 0)])).unwrap();
///             assert!(post.prob_evidence > 0.0);
///         });
///     }
/// });
/// ```
pub struct Solver {
    prepared: Arc<Prepared>,
    engine: Box<dyn InferenceEngine>,
    kind: EngineKind,
    scratch: ScratchPool,
    /// The optional query-result cache ([`SolverBuilder::cache`]);
    /// consulted by every run path after validation. The model is
    /// immutable, so entries never go stale.
    cache: Option<QueryCache>,
}

impl Solver {
    /// Compiles `net` with defaults: the optimized sequential engine
    /// (`EngineKind::Seq`), default junction-tree options. Cross-query
    /// throughput then comes from concurrent sessions; pick a parallel
    /// engine via [`Solver::builder`] to also parallelize inside each
    /// query.
    pub fn new(net: &BayesianNetwork) -> Solver {
        Solver::builder(net).build()
    }

    /// Starts a builder compiling from a network.
    pub fn builder(net: &BayesianNetwork) -> SolverBuilder<'_> {
        SolverBuilder {
            source: Source::Net(net, JtreeOptions::default()),
            kind: EngineKind::Seq,
            threads: 1,
            pool: None,
            cache: None,
        }
    }

    /// Starts a builder over already-prepared structures (lets several
    /// solvers — e.g. one per engine kind — share one `Prepared`).
    pub fn from_prepared(prepared: Arc<Prepared>) -> SolverBuilder<'static> {
        SolverBuilder {
            source: Source::Prepared(prepared),
            kind: EngineKind::Seq,
            threads: 1,
            pool: None,
            cache: None,
        }
    }

    /// Opens a session: a cheap per-caller handle holding one scratch
    /// state drawn from the pool (allocated fresh only when the pool is
    /// empty). Drop the session to return the scratch.
    ///
    /// A detached thread (one not scoped to the solver's owner) shares
    /// the model through an `Arc` and opens its session inside the
    /// closure:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use fastbn_bayesnet::{datasets, Evidence};
    /// use fastbn_inference::Solver;
    ///
    /// let solver = Arc::new(Solver::new(&datasets::sprinkler()));
    /// let shared = Arc::clone(&solver);
    /// let worker = std::thread::spawn(move || {
    ///     let mut session = shared.session();
    ///     session.posteriors(&Evidence::empty()).unwrap().prob_evidence
    /// });
    /// assert!((worker.join().unwrap() - 1.0).abs() < 1e-9);
    /// assert_eq!(solver.pooled_states(), 1, "the worker's scratch came back");
    /// ```
    pub fn session(&self) -> Session<'_> {
        Session {
            solver: self,
            state: Some(self.scratch.acquire(&self.prepared)),
        }
    }

    /// Opens a [`LiveSession`](crate::delta::LiveSession): a fully
    /// propagated state that accepts incremental
    /// [`EvidenceDelta`](crate::delta::EvidenceDelta) edits and
    /// re-propagates only what each edit can reach. Clones the `Arc`
    /// (the live session keeps its own handle).
    pub fn live_session(self: &Arc<Self>) -> crate::delta::LiveSession {
        crate::delta::LiveSession::new(Arc::clone(self))
    }

    /// One-shot convenience: open a session, run `query`, return the
    /// result. For repeated queries keep a [`Session`] instead (it reuses
    /// its scratch without touching the pool).
    pub fn query(&self, query: &Query) -> Result<QueryResult, InferenceError> {
        self.session().run(query)
    }

    /// One-shot convenience: run `batch`, returning one result per query
    /// in input order. See [`Session::run_batch`] for the execution
    /// strategy.
    pub fn query_batch(&self, batch: &QueryBatch) -> Vec<Result<QueryResult, InferenceError>> {
        self.session().run_batch(batch)
    }

    /// [`Solver::query_batch`] with one optional
    /// [`TraceContext`](crate::trace::TraceContext) per
    /// query slot: each query executes with its context installed
    /// ([`crate::trace::scoped`]) on whichever thread runs it, so engine
    /// phase spans land in the right trace. Execution strategy, result
    /// ordering, and numerical output are identical to the untraced
    /// path — the contexts only add span recording around it.
    ///
    /// `ctxs.len()` must equal `batch.len()`.
    pub fn query_batch_traced(
        &self,
        batch: &QueryBatch,
        ctxs: &[Option<crate::trace::TraceContext>],
    ) -> Vec<Result<QueryResult, InferenceError>> {
        assert_eq!(
            ctxs.len(),
            batch.len(),
            "one trace context slot per batch query"
        );
        self.session().run_batch_with(batch, Some(ctxs))
    }

    /// One-shot convenience for the common case: all posterior marginals
    /// given hard evidence.
    pub fn posteriors(&self, evidence: &Evidence) -> Result<Posteriors, InferenceError> {
        self.session().posteriors(evidence)
    }

    /// The engine kind this solver was compiled with.
    pub fn engine_kind(&self) -> EngineKind {
        self.kind
    }

    /// The engine's display name.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Worker threads used *inside* each query (1 for sequential
    /// engines). Independent of how many sessions query concurrently.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The shared query-independent structures.
    pub fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }

    /// A co-ownable handle to the engine's worker pool (`None` for the
    /// sequential engines). Pass it to another builder's
    /// [`SolverBuilder::pool`] to compile a second model onto the *same*
    /// worker team — the pool-sharing configuration the multi-model
    /// registry uses.
    pub fn pool_handle(&self) -> Option<Arc<fastbn_parallel::ThreadPool>> {
        self.engine.pool_handle()
    }

    /// The query-result cache, if one was enabled via
    /// [`SolverBuilder::cache`].
    pub fn cache(&self) -> Option<&QueryCache> {
        self.cache.as_ref()
    }

    /// A snapshot of the cache counters, or `None` when the solver was
    /// built without a cache.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(QueryCache::stats)
    }

    /// Writes this solver's point-in-time stats into `metrics` as gauges
    /// under `scope`: `{scope}.threads`, and — when a cache is enabled —
    /// `{scope}.cache.{hits,misses,insertions,evictions,entries,bytes}`.
    /// Gauges (not counters) because the cache keeps its own authoritative
    /// counters; this mirrors the latest snapshot for export alongside the
    /// serving-layer metrics.
    pub fn export_metrics(&self, metrics: &fastbn_telemetry::MetricsRegistry, scope: &str) {
        metrics.set_gauge(&format!("{scope}.threads"), self.threads() as u64);
        if let Some(stats) = self.cache_stats() {
            metrics.set_gauge(&format!("{scope}.cache.hits"), stats.hits);
            metrics.set_gauge(&format!("{scope}.cache.misses"), stats.misses);
            metrics.set_gauge(&format!("{scope}.cache.insertions"), stats.insertions);
            metrics.set_gauge(&format!("{scope}.cache.evictions"), stats.evictions);
            metrics.set_gauge(&format!("{scope}.cache.entries"), stats.entries as u64);
            metrics.set_gauge(&format!("{scope}.cache.bytes"), stats.bytes as u64);
        }
    }

    /// Number of network variables.
    pub fn num_vars(&self) -> usize {
        self.prepared.num_vars()
    }

    /// Number of scratch states currently parked in the pool: in steady
    /// state, the peak number of sessions and outer batch chunks that
    /// held one at once, up to the pool's retention bound.
    pub fn pooled_states(&self) -> usize {
        self.scratch.parked().len()
    }

    /// The engine's worker pool, when a batch of `n` queries should be
    /// spread across it: outer parallelism only pays once there is at
    /// least one query per pool member; narrower batches do better giving
    /// each query the whole pool via its inner regions.
    fn outer_pool_for(&self, n: usize) -> Option<&fastbn_parallel::ThreadPool> {
        self.engine
            .pool()
            .filter(|pool| pool.threads() > 1 && n >= pool.threads())
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("engine", &self.engine.name())
            .field("threads", &self.engine.threads())
            .field("num_vars", &self.prepared.num_vars())
            .field("num_cliques", &self.prepared.num_cliques())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

enum Source<'n> {
    Net(&'n BayesianNetwork, JtreeOptions),
    Prepared(Arc<Prepared>),
}

/// Configures and compiles a [`Solver`].
pub struct SolverBuilder<'n> {
    source: Source<'n>,
    kind: EngineKind,
    threads: usize,
    pool: Option<Arc<fastbn_parallel::ThreadPool>>,
    cache: Option<CacheConfig>,
}

impl SolverBuilder<'_> {
    /// Selects the propagation engine (default: `EngineKind::Seq`).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Worker threads per query for the parallel engines (default 1;
    /// ignored by the sequential engines). When a shared pool was
    /// injected via [`SolverBuilder::pool`], the pool's own width wins
    /// and this setting is ignored.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the engine's parallel regions on an **injected, shareable**
    /// worker pool instead of spawning a private one — the multi-model
    /// serving configuration, where N compiled models contend for one
    /// worker team (the machine's cores) rather than oversubscribing the
    /// host with N teams. Overrides [`SolverBuilder::threads`]: the
    /// engine's width is `pool.threads()`, and its task plans (and
    /// therefore its bits) are identical to a private pool of that
    /// width. Ignored by the sequential engines.
    ///
    /// ```
    /// use fastbn_bayesnet::datasets;
    /// use fastbn_inference::{EngineKind, Solver};
    /// use fastbn_parallel::ThreadPool;
    ///
    /// let pool = ThreadPool::shared(2);
    /// let a = Solver::builder(&datasets::asia())
    ///     .engine(EngineKind::Hybrid)
    ///     .pool(pool.clone())
    ///     .build();
    /// let b = Solver::builder(&datasets::sprinkler())
    ///     .engine(EngineKind::Hybrid)
    ///     .pool(pool)
    ///     .build();
    /// assert_eq!(a.threads(), 2);
    /// assert!(std::sync::Arc::ptr_eq(
    ///     &a.pool_handle().unwrap(),
    ///     &b.pool_handle().unwrap(),
    /// ));
    /// ```
    pub fn pool(mut self, pool: Arc<fastbn_parallel::ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Junction-tree construction options. Only meaningful when building
    /// from a network; ignored when building from existing `Prepared`
    /// structures (they are already built).
    pub fn jtree_options(mut self, options: JtreeOptions) -> Self {
        if let Source::Net(_, opts) = &mut self.source {
            *opts = options;
        }
        self
    }

    /// Enables the per-solver query-result cache (default: off). Every
    /// run path — single queries, batches, and the serve front end built
    /// on them — then memoizes `Ok` results keyed by the canonical
    /// [`QueryKey`], with hits bit-identical to recomputation. See
    /// [`QueryCache`] for the semantics and
    /// [`CacheConfig`] for the knobs:
    ///
    /// ```
    /// use fastbn_bayesnet::datasets;
    /// use fastbn_inference::{CacheConfig, Query, Solver};
    ///
    /// let net = datasets::sprinkler();
    /// let solver = Solver::builder(&net).cache(CacheConfig::default()).build();
    /// let rain = net.var_id("Rain").unwrap();
    /// let cold = solver.query(&Query::new().observe(rain, 0)).unwrap();
    /// let warm = solver.query(&Query::new().observe(rain, 0)).unwrap();
    /// assert_eq!(cold, warm);
    /// let stats = solver.cache_stats().unwrap();
    /// assert_eq!((stats.hits, stats.misses), (1, 1));
    /// ```
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Compiles the solver.
    pub fn build(self) -> Solver {
        let prepared = match self.source {
            Source::Net(net, options) => Arc::new(Prepared::new(net, &options)),
            Source::Prepared(prepared) => prepared,
        };
        let engine = match self.pool {
            Some(pool) => make_engine_on(self.kind, prepared.clone(), pool),
            None => make_engine(self.kind, prepared.clone(), self.threads),
        };
        Solver {
            prepared,
            engine,
            kind: self.kind,
            scratch: ScratchPool::new(),
            cache: self.cache.map(QueryCache::new),
        }
    }
}

/// A per-caller query handle over a shared [`Solver`]; open one with
/// [`Solver::session`].
///
/// A session holds one [`WorkState`] for its lifetime, so repeated
/// queries reuse allocations without synchronization; the state returns
/// to the solver's pool on drop. Sessions are `Send`, but every query
/// method takes `&mut self`: each concurrent caller opens its own. A
/// thread that must outlive the solver's owner shares the solver through
/// an `Arc` and opens its session inside the thread (see
/// [`Solver::session`]).
pub struct Session<'s> {
    solver: &'s Solver,
    /// `Some` for the session's whole life; `Option` only so `Drop` can
    /// move the state back into the pool.
    state: Option<WorkState>,
}

impl Session<'_> {
    /// The session's scratch state.
    fn state(&mut self) -> &mut WorkState {
        self.state.as_mut().expect("scratch present until drop")
    }

    /// Runs one query and returns its unified result.
    pub fn run(&mut self, query: &Query) -> Result<QueryResult, InferenceError> {
        run_query(self.solver, self.state(), query)
    }

    /// Runs an ordered batch of queries, returning one result per query
    /// in input order (failing items yield `Err` in their own slot).
    ///
    /// When the batch is at least as wide as the engine's worker pool,
    /// independent queries are dispatched *across* the pool — outer
    /// parallelism, one pooled [`WorkState`] per in-flight chunk, with
    /// each query's own parallel regions nesting on the same team. This
    /// amortizes the reset/evidence-entry/extraction setup a
    /// one-at-a-time loop pays serially, which is where the throughput
    /// win on small networks comes from. Narrower batches (or sequential
    /// engines) fall back to a sequential loop on the session's own
    /// scratch, where each query still uses the engine's full inner
    /// parallelism. Both paths return results bit-identical to the same
    /// queries issued through [`Session::run`] one at a time.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastbn_bayesnet::datasets;
    /// use fastbn_inference::{EngineKind, Query, QueryBatch, Solver};
    ///
    /// let net = datasets::asia();
    /// let solver = Solver::builder(&net).engine(EngineKind::Hybrid).threads(2).build();
    /// let dysp = net.var_id("Dyspnea").unwrap();
    /// let xray = net.var_id("XRay").unwrap();
    /// let mut session = solver.session();
    ///
    /// let batch = QueryBatch::new()
    ///     .with(Query::new().observe(dysp, 0))                  // marginals
    ///     .with(Query::new().observe(dysp, 0).mpe())            // MPE
    ///     .with(Query::new().likelihood(xray, vec![0.0, 0.0])); // malformed
    /// let results = session.run_batch(&batch);
    ///
    /// assert_eq!(results.len(), 3);
    /// assert!(results[0].is_ok() && results[1].is_ok());
    /// assert!(results[2].is_err(), "a bad request fails in its own slot");
    /// // Bit-identical to the one-at-a-time loop:
    /// for (batched, q) in results.iter().zip(&batch) {
    ///     assert_eq!(batched, &session.run(q));
    /// }
    /// ```
    pub fn run_batch(&mut self, batch: &QueryBatch) -> Vec<Result<QueryResult, InferenceError>> {
        self.run_batch_with(batch, None)
    }

    /// The one batch body behind [`Session::run_batch`],
    /// [`Solver::query_batch`] and [`Solver::query_batch_traced`]. With
    /// `ctxs`, query `i` runs with `ctxs[i]` installed
    /// ([`crate::trace::scoped`]) on whichever thread runs it.
    fn run_batch_with(
        &mut self,
        batch: &QueryBatch,
        ctxs: Option<&[Option<crate::trace::TraceContext>]>,
    ) -> Vec<Result<QueryResult, InferenceError>> {
        let solver = self.solver;
        let queries = batch.queries();
        let run = |state: &mut WorkState, i: usize| {
            let _trace = crate::trace::scoped(ctxs.and_then(|ctxs| ctxs[i].as_ref()));
            run_query(solver, state, &queries[i])
        };
        let Some(pool) = solver.outer_pool_for(queries.len()) else {
            let state = self.state();
            return (0..queries.len()).map(|i| run(state, i)).collect();
        };
        let mut results: Vec<Option<Result<QueryResult, InferenceError>>> =
            std::iter::repeat_with(|| None)
                .take(queries.len())
                .collect();
        // A couple of chunks per thread balances mixed query costs while
        // still amortizing one scratch checkout over several queries.
        let sched = fastbn_parallel::Schedule::dynamic_for(queries.len(), pool.threads(), 2);
        pool.parallel_chunks_mut(&mut results, sched, |start, chunk| {
            // Every query in the chunk reuses the same allocations, and
            // an erroring query leaves nothing behind (each run starts
            // with a full reset).
            let mut state = solver.scratch.acquire(&solver.prepared);
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(run(&mut state, start + offset));
            }
            solver.scratch.release(state);
        });
        results
            .into_iter()
            .map(|slot| slot.expect("every batch slot written by its chunk"))
            .collect()
    }

    /// All posterior marginals given hard evidence (the classic engine
    /// call).
    pub fn posteriors(&mut self, evidence: &Evidence) -> Result<Posteriors, InferenceError> {
        Ok(run_on_state(
            self.solver,
            self.state(),
            evidence,
            &VirtualEvidence::empty(),
            None,
            QueryMode::Marginals,
        )?
        .into_posteriors()
        .expect("marginal query yields marginals"))
    }

    /// The most probable explanation given hard evidence.
    pub fn mpe(&mut self, evidence: &Evidence) -> Result<MpeResult, InferenceError> {
        Ok(run_on_state(
            self.solver,
            self.state(),
            evidence,
            &VirtualEvidence::empty(),
            None,
            QueryMode::Mpe,
        )?
        .into_mpe()
        .expect("MPE query yields an MPE result"))
    }

    /// Joint posterior `P(vars | evidence)` for a variable set that
    /// co-occurs in some clique (junction trees answer these for free;
    /// out-of-clique joints would require query-specific restructuring).
    ///
    /// Returns a normalized table over the sorted `vars`, or `None` if no
    /// clique contains them all. A variable outside the network is an
    /// [`InferenceError::InvalidTarget`], as it is for
    /// [`Query::targets`].
    pub fn joint_posterior(
        &mut self,
        evidence: &Evidence,
        vars: &[VarId],
    ) -> Result<Option<PotentialTable>, InferenceError> {
        let solver = self.solver;
        let prepared = &*solver.prepared;
        // Validate before the clique lookup: bogus evidence or variables
        // must surface as an error, not be masked by an Ok(None).
        validate_evidence(prepared, evidence)?;
        if let Some(&bad) = vars.iter().find(|v| v.index() >= prepared.num_vars()) {
            return Err(InferenceError::InvalidTarget {
                var: bad.index(),
                num_vars: prepared.num_vars(),
            });
        }
        let mut sorted = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let Some(clique) = prepared.built.tree.smallest_containing(&sorted) else {
            return Ok(None);
        };
        let state = self.state();
        state.reset(prepared);
        solver.engine.enter_evidence(state, evidence);
        solver.engine.propagate(state);
        let target = Arc::new(fastbn_potential::Domain::from_vars(
            &sorted,
            &prepared.cards,
        ));
        let mut joint = PotentialTable::zeros(target.clone());
        let plan = fastbn_potential::KernelPlan::new(&prepared.clique_domains[clique], &target);
        plan.marginalize(state.clique(clique), joint.values_mut());
        joint
            .normalize()
            .map_err(|_| InferenceError::ImpossibleEvidence)?;
        Ok(Some(joint))
    }

    /// The solver this session queries.
    pub fn solver(&self) -> &Solver {
        self.solver
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("solver", self.solver)
            .finish_non_exhaustive()
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            self.solver.scratch.release(state);
        }
    }
}

/// [`run_on_state`] over a [`Query`]'s parts.
fn run_query(
    solver: &Solver,
    state: &mut WorkState,
    query: &Query,
) -> Result<QueryResult, InferenceError> {
    run_on_state(
        solver,
        state,
        query.get_evidence(),
        query.get_virtual_evidence(),
        query.get_targets(),
        query.mode(),
    )
}

/// The engine-driving sequence of one query — validate, consult the
/// cache, then (on a miss) reset, evidence, virtual evidence, propagate,
/// extract — on caller-provided scratch. Shared by [`Session::run`]
/// (session scratch) and [`Session::run_batch`] (one pooled scratch per
/// chunk), so the cache sees every path with per-slot hit/miss
/// granularity. Errors leave `state` dirty but harmless,
/// because every call starts with a full reset.
///
/// Ordering matters: validation runs **before** key derivation, so
/// malformed queries (NaN/∞ likelihoods, out-of-range states) surface
/// their typed error without ever touching the cache — a NaN-bearing
/// key can neither be looked up nor inserted here. Only `Ok` results
/// are cached; errors are rediscovered on each call (validation errors
/// never reach the engine, and impossible evidence is detected during
/// the propagation a cached error would have to pay for anyway).
fn run_on_state(
    solver: &Solver,
    state: &mut WorkState,
    evidence: &Evidence,
    virtual_evidence: &VirtualEvidence,
    targets: Option<&[VarId]>,
    mode: QueryMode,
) -> Result<QueryResult, InferenceError> {
    let prepared = &*solver.prepared;
    validate_evidence(prepared, evidence)?;
    validate_virtual(prepared, virtual_evidence)?;
    let Some(cache) = &solver.cache else {
        return compute_on_state(solver, state, evidence, virtual_evidence, targets, mode);
    };
    let key = QueryKey::from_parts(evidence, virtual_evidence, targets, mode);
    if let Some(hit) = cache.get(&key) {
        return Ok(hit);
    }
    let result = compute_on_state(solver, state, evidence, virtual_evidence, targets, mode)?;
    cache.insert(key, &result);
    Ok(result)
}

/// The post-validation engine dispatch (the cache-miss path).
fn compute_on_state(
    solver: &Solver,
    state: &mut WorkState,
    evidence: &Evidence,
    virtual_evidence: &VirtualEvidence,
    targets: Option<&[VarId]>,
    mode: QueryMode,
) -> Result<QueryResult, InferenceError> {
    let prepared = &*solver.prepared;
    match mode {
        QueryMode::Marginals => {
            state.reset(prepared);
            solver.engine.enter_evidence(state, evidence);
            absorb_virtual(state, prepared, virtual_evidence);
            solver.engine.propagate(state);
            let posteriors = match targets {
                None => solver.engine.extract_posteriors(state, evidence)?,
                Some(targets) => state.extract_posteriors_for(prepared, evidence, targets)?,
            };
            Ok(QueryResult::Marginals(posteriors))
        }
        QueryMode::Mpe => {
            mpe_on_state(prepared, evidence, virtual_evidence, state).map(QueryResult::Mpe)
        }
    }
}

/// The solver's parked [`WorkState`]s. A session holds one for its
/// lifetime and an outer batch chunk for the length of the chunk; each
/// returns it here, so steady-state querying allocates nothing and the
/// pool settles at the peak number of states in use at once.
struct ScratchPool {
    parked: Mutex<Vec<WorkState>>,
    /// Retention bound: `release` frees instead of parking once this many
    /// states are parked. Generous headroom over any sane concurrency; it
    /// only matters as a leak backstop, not a working limit.
    max_parked: usize,
}

impl ScratchPool {
    fn new() -> Self {
        ScratchPool {
            parked: Mutex::new(Vec::new()),
            max_parked: 4 * fastbn_parallel::available_threads().max(8),
        }
    }

    /// The parked states; a panic elsewhere cannot leave a `Vec` of whole
    /// states half-updated, so a poisoned lock is safe to enter.
    fn parked(&self) -> MutexGuard<'_, Vec<WorkState>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pops a parked state, or allocates one shaped like `prepared`'s.
    fn acquire(&self, prepared: &Prepared) -> WorkState {
        let parked = self.parked().pop();
        parked.unwrap_or_else(|| WorkState::new(prepared))
    }

    /// Parks a state for reuse, or frees it (after the lock is released)
    /// when `max_parked` states are already parked.
    fn release(&self, state: WorkState) {
        let mut parked = self.parked();
        if parked.len() < self.max_parked {
            parked.push(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_bayesnet::datasets;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn solver_is_send_and_sync() {
        assert_send_sync::<Solver>();
    }

    #[test]
    fn sessions_reuse_pooled_scratch() {
        let net = datasets::sprinkler();
        let solver = Solver::new(&net);
        assert_eq!(solver.pooled_states(), 0);
        {
            let _a = solver.session();
            let _b = solver.session();
            assert_eq!(solver.pooled_states(), 0, "both states checked out");
        }
        assert_eq!(solver.pooled_states(), 2, "both returned on drop");
        {
            let _c = solver.session();
            assert_eq!(solver.pooled_states(), 1, "one reused, not reallocated");
        }
        assert_eq!(solver.pooled_states(), 2);
    }

    #[test]
    fn one_shot_query_matches_session_query() {
        let net = datasets::asia();
        let solver = Solver::new(&net);
        let dysp = net.var_id("Dyspnea").unwrap();
        let ev = Evidence::from_pairs([(dysp, 0)]);
        let one_shot = solver.posteriors(&ev).unwrap();
        let mut session = solver.session();
        let via_session = session.posteriors(&ev).unwrap();
        assert_eq!(one_shot.max_abs_diff(&via_session), 0.0);
    }

    #[test]
    fn repeated_session_queries_are_independent() {
        let net = datasets::asia();
        let solver = Solver::new(&net);
        let mut session = solver.session();
        let dysp = net.var_id("Dyspnea").unwrap();
        let baseline = session.posteriors(&Evidence::empty()).unwrap();
        let _ = session
            .posteriors(&Evidence::from_pairs([(dysp, 0)]))
            .unwrap();
        let again = session.posteriors(&Evidence::empty()).unwrap();
        assert_eq!(baseline.max_abs_diff(&again), 0.0, "bitwise reset");
    }

    #[test]
    fn builder_selects_engine_and_threads() {
        let net = datasets::sprinkler();
        let solver = Solver::builder(&net)
            .engine(EngineKind::Hybrid)
            .threads(3)
            .build();
        assert_eq!(solver.engine_kind(), EngineKind::Hybrid);
        assert_eq!(solver.engine_name(), "Fast-BNI-par");
        assert_eq!(solver.threads(), 3);
    }

    #[test]
    fn from_prepared_shares_structures() {
        let net = datasets::asia();
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let a = Solver::from_prepared(prepared.clone())
            .engine(EngineKind::Seq)
            .build();
        let b = Solver::from_prepared(prepared.clone())
            .engine(EngineKind::Hybrid)
            .threads(2)
            .build();
        assert!(Arc::ptr_eq(a.prepared(), &prepared));
        let x = a.posteriors(&Evidence::empty()).unwrap();
        let y = b.posteriors(&Evidence::empty()).unwrap();
        assert_eq!(x.max_abs_diff(&y), 0.0);
    }

    #[test]
    fn cached_solver_answers_hits_bit_identically() {
        let net = datasets::asia();
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let plain = Solver::from_prepared(prepared.clone()).build();
        let cached = Solver::from_prepared(prepared)
            .cache(CacheConfig::default())
            .build();
        assert!(plain.cache_stats().is_none());
        let dysp = net.var_id("Dyspnea").unwrap();
        let query = Query::new().observe(dysp, 0);
        let expected = plain.query(&query).unwrap();
        let cold = cached.query(&query).unwrap();
        let warm = cached.query(&query).unwrap();
        assert_eq!(expected, cold, "miss computes the cache-off bits");
        assert_eq!(expected, warm, "hit replays them exactly");
        let stats = cached.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn malformed_queries_fail_validation_before_touching_the_cache() {
        // NaN/∞ likelihoods and bogus evidence must produce their typed
        // errors without a cache lookup or insert — validation runs
        // before key derivation.
        let net = datasets::sprinkler();
        let solver = Solver::builder(&net).cache(CacheConfig::default()).build();
        let rain = net.var_id("Rain").unwrap();
        for bad in [
            Query::new().likelihood(rain, vec![f64::NAN, 1.0]),
            Query::new().likelihood(rain, vec![0.2, f64::INFINITY]),
            Query::new().likelihood(rain, vec![0.0, -0.0]),
            Query::new().observe(VarId(99), 0),
            Query::new().observe(rain, 7),
        ] {
            assert!(solver.query(&bad).is_err());
        }
        let stats = solver.cache_stats().unwrap();
        assert_eq!(stats, crate::cache::CacheStats::default());
        // Errors discovered *during* propagation (impossible evidence)
        // do reach the cache as misses but are never inserted.
        let net = datasets::asia();
        let solver = Solver::builder(&net).cache(CacheConfig::default()).build();
        let tub = net.var_id("Tuberculosis").unwrap();
        let either = net.var_id("TbOrCa").unwrap();
        let impossible = Query::new().observe(tub, 0).observe(either, 1);
        assert_eq!(
            solver.query(&impossible).unwrap_err(),
            InferenceError::ImpossibleEvidence
        );
        assert_eq!(
            solver.query(&impossible).unwrap_err(),
            InferenceError::ImpossibleEvidence
        );
        let stats = solver.cache_stats().unwrap();
        assert_eq!((stats.misses, stats.entries), (2, 0), "errors not cached");
    }

    #[test]
    fn concurrent_sessions_return_identical_posteriors() {
        let net = datasets::asia();
        let solver = Solver::builder(&net)
            .engine(EngineKind::Hybrid)
            .threads(2)
            .build();
        let dysp = net.var_id("Dyspnea").unwrap();
        let ev = Evidence::from_pairs([(dysp, 0)]);
        let expected = solver.posteriors(&ev).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    let mut session = solver.session();
                    for _ in 0..20 {
                        let got = session.posteriors(&ev).unwrap();
                        assert_eq!(expected.max_abs_diff(&got), 0.0);
                    }
                });
            }
        });
        assert!(solver.pooled_states() <= 6, "pool bounded by concurrency");
    }

    #[test]
    fn pool_frees_states_beyond_its_retention_bound() {
        let solver = Solver::new(&datasets::sprinkler());
        let bound = solver.scratch.max_parked;
        let sessions: Vec<_> = (0..bound + 3).map(|_| solver.session()).collect();
        assert_eq!(solver.pooled_states(), 0, "every state checked out");
        drop(sessions);
        assert_eq!(solver.pooled_states(), bound, "the last 3 were freed");
    }

    #[test]
    fn wide_batches_draw_no_fresh_scratch_on_a_warm_pool() {
        let net = datasets::asia();
        let solver = Solver::builder(&net)
            .engine(EngineKind::Hybrid)
            .threads(2)
            .build();
        // Warm: park one state per pool member plus the batch session's.
        drop(
            (0..=solver.threads())
                .map(|_| solver.session())
                .collect::<Vec<_>>(),
        );
        let dysp = net.var_id("Dyspnea").unwrap();
        let batch: QueryBatch = (0..16).map(|i| Query::new().observe(dysp, i % 2)).collect();
        let mut session = solver.session();
        assert!(solver.outer_pool_for(batch.len()).is_some(), "wide batch");
        let first = session.run_batch(&batch);
        let parked = solver.pooled_states();
        assert_eq!(parked, solver.threads(), "every chunk state came back");
        let second = session.run_batch(&batch);
        assert_eq!(solver.pooled_states(), parked, "no fresh state drawn");
        assert_eq!(first, second);
    }
}

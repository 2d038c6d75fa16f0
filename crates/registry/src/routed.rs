//! The [`RoutedServer`]: model-aware micro-batching over a
//! [`Registry`] — a bounded queue, deadline windows, in-window dedup
//! and cancellation for many models on one worker pool. The
//! single-model [`Server`](crate::Server) is this with the model id
//! pinned.
//!
//! # How a routed request flows
//!
//! 1. [`RoutedServer::submit`] (blocking backpressure) or
//!    [`RoutedServer::try_submit`] (fail-fast) resolves the **model
//!    id** against the registry — an unknown id is a typed
//!    [`SubmitErrorKind::UnknownModel`] with the query handed back —
//!    then places the query, the resolved `Arc<Solver>`, and a reply
//!    on the bounded queue, returning a [`Pending`] handle.
//!    Resolving at submit time is what makes hot unload safe: the
//!    request co-owns its model from acceptance to delivery.
//! 2. A worker pops the first waiting request, then keeps collecting
//!    until it has [`max_batch`](RoutedServerBuilder::max_batch)
//!    requests or [`max_delay`](RoutedServerBuilder::max_delay) has
//!    elapsed since the first pop — the micro-batching window.
//! 3. The window is **grouped by model** — by (id, solver instance),
//!    so a hot-reloaded model never shares a batch with its
//!    predecessor and per-model counters stay exact even when one
//!    solver is registered under several ids —
//!    and each group runs as one `QueryBatch` through
//!    [`Solver::query_batch`] — wide groups spread across the shared
//!    pool exactly like `Session::run_batch`. In-window dedup
//!    collapses requests with equal canonical `QueryKey`s *within a
//!    group* (equal keys on one solver imply bit-identical results, so
//!    one computation fans out to every waiter); models never share
//!    computations.
//! 4. Each result is delivered through its request's reply, a one-item
//!    [`Queue`] the worker and the [`Pending`] handle share. Dropping a
//!    [`Pending`] cancels; shutdown drains accepted requests and joins
//!    the workers.
//!
//! Global traffic counters keep the single-model
//! [`ServerStats`] contract; [`RoutedServer::model_stats`] adds the
//! per-model breakdown.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fastbn_inference::trace::TraceContext;
use fastbn_inference::{InferenceError, Query, QueryBatch, QueryKey, QueryResult, Solver};
use fastbn_parallel::{Queue, TryPushError};
use fastbn_telemetry::trace::{
    SlowEntry, SpanRecord, Tracer, SPAN_COMPUTE, SPAN_DELIVERY, SPAN_QUEUE_WAIT, SPAN_REQUEST,
    SPAN_WINDOW,
};
use fastbn_telemetry::{Histogram, MetricsRegistry, MetricsSnapshot};

use crate::registry::Registry;
use crate::stats::{Counters, ModelCounters, ModelStats, ServerStats};

/// One queued request: the query, the model it was routed to (id,
/// resolved solver, per-model counters), the worker's end of its reply,
/// and its acceptance timestamp.
struct Request {
    solver: Arc<Solver>,
    model: Arc<ModelTrack>,
    query: Query,
    reply: ReplyEnd,
    submitted_at: Instant,
    /// Tracing identity, present iff the server has a
    /// [`Tracer`] installed ([`RoutedServerBuilder::tracer`]).
    trace: Option<ReqTrace>,
}

/// Per-request tracing identity, minted at admission. The slow-query
/// log consumes it for **every** request (it is always on once a
/// tracer is installed); the span tree is only recorded when
/// `sampled`. All times are on the tracer's own clock.
#[derive(Clone, Copy)]
struct ReqTrace {
    /// The request's trace id.
    trace: u64,
    /// The pre-minted root (request) span id stage spans parent to.
    root: u64,
    /// Whether this request records a span tree (head sampling).
    sampled: bool,
    /// Admission time.
    t0_ns: u64,
    /// Queue wait, filled in when a worker pops the request.
    queue_ns: u64,
}

/// A model id's counter block, shared by every request routed to it.
struct ModelTrack {
    id: String,
    counters: ModelCounters,
}

/// The per-stage latency histograms of the serving pipeline. Stage
/// names follow a request's life:
///
/// ```text
/// submit ──admission──▶ queued ──queue_wait──▶ popped ─┐
///   window (first pop → dispatch) ◀──────────────────────┘
///   compute (one QueryBatch per model group)
///   delivery (reply pushes)           total = submit → delivered
/// ```
///
/// All values are nanoseconds except `serve.batch.size` (requests per
/// dispatched group).
struct StageMetrics {
    admission_ns: Arc<Histogram>,
    queue_wait_ns: Arc<Histogram>,
    window_ns: Arc<Histogram>,
    compute_ns: Arc<Histogram>,
    delivery_ns: Arc<Histogram>,
    total_ns: Arc<Histogram>,
    batch_size: Arc<Histogram>,
}

impl StageMetrics {
    fn in_registry(metrics: &MetricsRegistry) -> StageMetrics {
        StageMetrics {
            admission_ns: metrics.histogram("serve.stage.admission_ns"),
            queue_wait_ns: metrics.histogram("serve.stage.queue_wait_ns"),
            window_ns: metrics.histogram("serve.stage.window_ns"),
            compute_ns: metrics.histogram("serve.stage.compute_ns"),
            delivery_ns: metrics.histogram("serve.stage.delivery_ns"),
            total_ns: metrics.histogram("serve.request.total_ns"),
            batch_size: metrics.histogram("serve.batch.size"),
        }
    }
}

/// Everything the submitters and workers share for observability: the
/// traffic counters (the cells behind both [`ServerStats`] and the
/// exported `serve.*` metrics), the stage histograms, and the registry
/// they live in.
struct ServerTelemetry {
    counters: Counters,
    stages: StageMetrics,
    metrics: Arc<MetricsRegistry>,
    /// The request tracer, when one was installed
    /// ([`RoutedServerBuilder::tracer`]). `None` keeps the hot path
    /// exactly as it was before tracing existed.
    tracer: Option<Arc<Tracer>>,
}

impl ServerTelemetry {
    /// Telemetry over a fresh metrics registry of its own.
    fn new(tracer: Option<Arc<Tracer>>) -> ServerTelemetry {
        let metrics = Arc::new(MetricsRegistry::new());
        ServerTelemetry {
            counters: Counters::in_registry(&metrics),
            stages: StageMetrics::in_registry(&metrics),
            metrics,
            tracer,
        }
    }

    /// Mints a request's tracing identity at admission: trace and root
    /// span ids unconditionally (the slow-query log never samples); the
    /// tracer's head sampling decides whether a span tree is recorded.
    fn begin_request(&self) -> Option<ReqTrace> {
        let tracer = self.tracer.as_deref()?;
        let token = tracer.begin_trace();
        Some(ReqTrace {
            trace: token.trace,
            root: tracer.next_span(),
            sampled: token.sampled,
            t0_ns: tracer.now_ns(),
            queue_ns: 0,
        })
    }
}

/// Why a waiting client got no result.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The query itself failed (impossible evidence, malformed
    /// likelihood, …) — the serving layer worked fine.
    Inference(InferenceError),
    /// The server went away before answering (shut down mid-flight or a
    /// worker died); the request was accepted but never completed.
    Abandoned,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Inference(e) => write!(f, "inference failed: {e}"),
            ServeError::Abandoned => f.write_str("request abandoned: server went away"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Inference(e) => Some(e),
            ServeError::Abandoned => None,
        }
    }
}

impl From<InferenceError> for ServeError {
    fn from(e: InferenceError) -> Self {
        ServeError::Inference(e)
    }
}

/// Why a submission was not accepted. The rejected [`Query`] is handed
/// back so the caller can retry, reroute, or degrade.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitError {
    query: Query,
    model: String,
    kind: SubmitErrorKind,
}

/// The rejection reason of a [`SubmitError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitErrorKind {
    /// The bounded queue is at capacity (`try_submit` only — `submit`
    /// blocks instead).
    QueueFull,
    /// The server has been shut down.
    ShutDown,
    /// No model with the requested id is resident in the registry
    /// (never loaded, removed, or evicted).
    UnknownModel,
}

impl SubmitError {
    pub(crate) fn new(query: Query, model: String, kind: SubmitErrorKind) -> Self {
        SubmitError { query, model, kind }
    }

    /// The rejection reason.
    pub fn kind(&self) -> SubmitErrorKind {
        self.kind
    }

    /// The model id the submission was routed to (a single-model
    /// [`Server`](crate::Server) always routes to
    /// [`SINGLE_MODEL_ID`](crate::SINGLE_MODEL_ID)).
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Recovers the rejected query.
    pub fn into_query(self) -> Query {
        self.query
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            SubmitErrorKind::QueueFull => f.write_str("request rejected: queue at capacity"),
            SubmitErrorKind::ShutDown => f.write_str("request rejected: server shut down"),
            SubmitErrorKind::UnknownModel => {
                write!(
                    f,
                    "request rejected: no model {:?} in the registry",
                    self.model
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A handle to one in-flight request. Wait on it for the result — or
/// drop it to cancel the request (workers skip cancelled requests that
/// have not started and discard results that finish after the drop).
#[must_use = "dropping a Pending handle cancels the request"]
pub struct Pending(ReplyEnd);

impl Pending {
    /// Blocks until the result arrives (or the server goes away).
    pub fn wait(self) -> Result<QueryResult, ServeError> {
        received(self.0.release().pop())
    }

    /// Waits up to `timeout`; on expiry the handle is returned so the
    /// caller can keep waiting — or drop it, which cancels the request.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<QueryResult, ServeError>, Self> {
        let queue = self.0.release();
        match queue.pop_until(saturating_deadline(timeout)) {
            Some(reply) => Ok(received(Some(reply))),
            // Closed is final: the one value, if it was sent, is queued
            // now, and only `try_pop` can tell it from abandonment.
            None if queue.is_closed() => Ok(received(queue.try_pop())),
            None => Err(Pending(ReplyEnd(Some(queue)))),
        }
    }
}

/// What a client receives: the result, or `None` once the worker's end
/// closed the reply unsent.
fn received(reply: Option<Reply>) -> Result<QueryResult, ServeError> {
    reply.map_or(Err(ServeError::Abandoned), |r| r.map_err(ServeError::from))
}

/// The one item a request's reply carries.
type Reply = Result<QueryResult, InferenceError>;

/// One end of a request's reply: a [`Queue`] with room for its one
/// result, shared by the worker and the client's [`Pending`]. Dropping
/// an end that still holds the queue closes it — an unsent worker end
/// abandons the request, an unreceived `Pending` cancels it. Sending and
/// receiving release their end first, so a delivered reply costs one
/// push and one pop, and no close.
struct ReplyEnd(Option<Arc<Queue<Reply>>>);

/// A fresh reply: the worker's end and the client's handle.
fn reply() -> (ReplyEnd, Pending) {
    let queue = Arc::new(Queue::with_room(1));
    (
        ReplyEnd(Some(Arc::clone(&queue))),
        Pending(ReplyEnd(Some(queue))),
    )
}

impl ReplyEnd {
    /// Takes the queue out, so dropping this end no longer closes it.
    fn release(mut self) -> Arc<Queue<Reply>> {
        self.0.take().expect("a reply end is released once")
    }

    /// Delivers the result; hands it back if the client dropped its
    /// [`Pending`] first (the request was cancelled). The push and that
    /// close take the queue's lock, so they cannot interleave.
    fn send(self, reply: Reply) -> Result<(), Reply> {
        self.release()
            .try_push(reply)
            .map_err(|(TryPushError::Full(r) | TryPushError::Closed(r))| r)
    }

    /// True once the client has dropped its [`Pending`] — computing the
    /// result is wasted work.
    fn is_cancelled(&self) -> bool {
        self.0.as_ref().is_none_or(|queue| queue.is_closed())
    }
}

impl Drop for ReplyEnd {
    fn drop(&mut self) {
        if let Some(queue) = &self.0 {
            queue.close();
        }
    }
}

/// `Instant::now() + timeout` without the panic on absurd durations
/// (`Duration::MAX` legitimately means "wait forever"): saturates to a
/// deadline ~30 years out, far beyond any process lifetime.
fn saturating_deadline(timeout: Duration) -> Instant {
    let now = Instant::now();
    now.checked_add(timeout)
        .or_else(|| now.checked_add(Duration::from_secs(60 * 60 * 24 * 365 * 30)))
        .unwrap_or(now)
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending").finish_non_exhaustive()
    }
}

/// Configures and starts a [`RoutedServer`]. Every server records its
/// traffic counters and per-stage latency histograms in a
/// [`MetricsRegistry`] of its own ([`RoutedServer::metrics`]).
pub struct RoutedServerBuilder {
    registry: Arc<Registry>,
    workers: usize,
    max_batch: usize,
    max_delay: Duration,
    queue_capacity: Option<usize>,
    tracer: Option<Arc<Tracer>>,
}

impl RoutedServerBuilder {
    /// Number of worker threads (default 1). Workers dispatch
    /// independent windows concurrently; every dispatched batch runs
    /// on the registry's shared pool.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Largest micro-batch window a worker collects (default 16). A
    /// window closes as soon as it holds this many requests, without
    /// waiting out the delay. Mixed windows dispatch one batch per
    /// model in them.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Longest a worker waits, measured from the first request it
    /// pops, for more requests before dispatching a partial window
    /// (default 500µs). Zero still coalesces whatever is already
    /// queued.
    pub fn max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Bounded queue capacity (default `2 × workers × max_batch`).
    /// When full, [`RoutedServer::submit`] blocks and
    /// [`RoutedServer::try_submit`] rejects — backpressure instead of
    /// unbounded buffering.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Installs a request [`Tracer`] (default none — and with none, the
    /// serving hot path is exactly the pre-tracing one). With a tracer,
    /// every request gets a trace id and the always-on slow-query log;
    /// head-sampled requests (see [`fastbn_telemetry::TraceConfig`])
    /// additionally record a span tree — admission → queue → window →
    /// compute → delivery, plus the engine's collect/distribute phases.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Starts the workers and returns the running server.
    pub fn build(self) -> RoutedServer {
        let queue_capacity = self
            .queue_capacity
            .unwrap_or(
                self.workers
                    .saturating_mul(self.max_batch)
                    .saturating_mul(2),
            )
            .max(1);
        let queue = Arc::new(Queue::bounded(queue_capacity));
        let telemetry = Arc::new(ServerTelemetry::new(self.tracer));
        let workers = (0..self.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let telemetry = Arc::clone(&telemetry);
                let max_batch = self.max_batch;
                let max_delay = self.max_delay;
                std::thread::Builder::new()
                    .name(format!("fastbn-route-{i}"))
                    .spawn(move || worker_loop(&queue, max_batch, max_delay, &telemetry))
                    .expect("failed to spawn fastbn routing worker")
            })
            .collect();
        RoutedServer {
            queue,
            workers: Mutex::new(workers),
            telemetry,
            models: RwLock::new(HashMap::new()),
            registry: self.registry,
            worker_count: self.workers,
            max_batch: self.max_batch,
            max_delay: self.max_delay,
            queue_capacity,
        }
    }
}

/// A micro-batching serving front end routing requests by model id
/// over a shared [`Registry`].
///
/// Results are **bit-identical** to running each query alone on a
/// standalone single-model `Solver` of the same engine and width —
/// routing, mixed windows, pool sharing, and worker scheduling are
/// invisible to clients (asserted by `tests/registry.rs`).
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use fastbn_bayesnet::datasets;
/// use fastbn_inference::Query;
/// use fastbn_registry::{ModelConfig, Registry, RoutedServer};
///
/// let registry = Arc::new(Registry::builder().threads(2).build());
/// registry.load("asia", &datasets::asia(), &ModelConfig::new()).unwrap();
/// registry.load("sprinkler", &datasets::sprinkler(), &ModelConfig::new()).unwrap();
///
/// let server = RoutedServer::builder(Arc::clone(&registry))
///     .workers(2)
///     .max_batch(8)
///     .max_delay(Duration::from_micros(200))
///     .build();
///
/// // Mixed traffic: requests carry the model id they are for.
/// let pending: Vec<_> = (0..8)
///     .map(|i| {
///         let model = if i % 2 == 0 { "asia" } else { "sprinkler" };
///         server.submit(model, Query::new()).unwrap()
///     })
///     .collect();
/// for p in pending {
///     assert!(p.wait().unwrap().posteriors().unwrap().prob_evidence > 0.0);
/// }
///
/// // Per-model accounting rides along with the global counters.
/// server.shutdown();
/// let per_model = server.model_stats();
/// assert_eq!(per_model.len(), 2);
/// assert!(per_model.iter().all(|m| m.submitted == m.completed + m.cancelled));
/// ```
pub struct RoutedServer {
    /// The bounded request queue the workers drain; closed by
    /// [`RoutedServer::shutdown`].
    queue: Arc<Queue<Request>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    telemetry: Arc<ServerTelemetry>,
    /// Per-model counter blocks, created on a model's first
    /// submission. Kept across unload/reload so `model_stats` totals
    /// stay monotonic (the drain invariant needs history, not
    /// residency).
    models: RwLock<HashMap<String, Arc<ModelTrack>>>,
    registry: Arc<Registry>,
    worker_count: usize,
    max_batch: usize,
    max_delay: Duration,
    queue_capacity: usize,
}

impl RoutedServer {
    /// Starts a routed server with default settings (1 worker,
    /// windows of up to 16 requests × 500µs). Use
    /// [`RoutedServer::builder`] to tune.
    pub fn new(registry: Arc<Registry>) -> RoutedServer {
        RoutedServer::builder(registry).build()
    }

    /// Starts configuring a routed server over `registry`.
    pub fn builder(registry: Arc<Registry>) -> RoutedServerBuilder {
        RoutedServerBuilder {
            registry,
            workers: 1,
            max_batch: 16,
            max_delay: Duration::from_micros(500),
            queue_capacity: None,
            tracer: None,
        }
    }

    /// Submits a query for `model`, **blocking while the queue is
    /// full** (backpressure). Fails with
    /// [`SubmitErrorKind::UnknownModel`] when the id is not resident,
    /// else with [`SubmitErrorKind::ShutDown`] after
    /// [`RoutedServer::shutdown`] — including a submit parked on the
    /// full queue when shutdown runs — and the query is handed back
    /// either way.
    pub fn submit(&self, model: &str, query: Query) -> Result<Pending, SubmitError> {
        let start = Instant::now();
        let (request, pending) = self.admit(model, query, start)?;
        match self.queue.push(request) {
            Ok(()) => {
                self.telemetry
                    .stages
                    .admission_ns
                    .record_duration(start.elapsed());
                Ok(pending)
            }
            Err(request) => Err(self.retract(request, SubmitErrorKind::ShutDown)),
        }
    }

    /// Submits without blocking; a full queue rejects with
    /// [`SubmitErrorKind::QueueFull`] (the query handed back) instead
    /// of waiting.
    pub fn try_submit(&self, model: &str, query: Query) -> Result<Pending, SubmitError> {
        let start = Instant::now();
        let (request, pending) = self.admit(model, query, start)?;
        match self.queue.try_push(request) {
            Ok(()) => {
                self.telemetry
                    .stages
                    .admission_ns
                    .record_duration(start.elapsed());
                Ok(pending)
            }
            Err(TryPushError::Full(request)) => {
                self.telemetry.counters.rejected.inc();
                Err(self.retract(request, SubmitErrorKind::QueueFull))
            }
            Err(TryPushError::Closed(request)) => {
                Err(self.retract(request, SubmitErrorKind::ShutDown))
            }
        }
    }

    /// The shared admission path: resolve the model, pre-count the
    /// submission (global and per-model, **before** the push — a
    /// worker may complete the request before the submitter runs
    /// again, and `completed` must never lead `submitted` in any
    /// snapshot), and assemble the request. A closed queue is found by
    /// the push itself, so a submit takes the queue's lock once.
    fn admit(
        &self,
        model: &str,
        query: Query,
        submitted_at: Instant,
    ) -> Result<(Request, Pending), SubmitError> {
        let Some(solver) = self.registry.get(model) else {
            return Err(SubmitError::new(
                query,
                model.to_string(),
                SubmitErrorKind::UnknownModel,
            ));
        };
        let track = self.track(model);
        self.telemetry.counters.submitted.inc_seq();
        track.counters.submitted.inc_seq();
        let trace = self.telemetry.begin_request();
        let (reply, pending) = reply();
        let request = Request {
            solver,
            model: track,
            query,
            reply,
            submitted_at,
            trace,
        };
        Ok((request, pending))
    }

    /// Undoes a pre-counted submission whose push failed, recovering
    /// the query into a typed error.
    fn retract(&self, request: Request, kind: SubmitErrorKind) -> SubmitError {
        self.telemetry.counters.submitted.dec_seq();
        request.model.counters.submitted.dec_seq();
        SubmitError::new(request.query, request.model.id.clone(), kind)
    }

    /// The counter block for `model`, created on first use.
    fn track(&self, model: &str) -> Arc<ModelTrack> {
        if let Some(track) = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model)
        {
            return Arc::clone(track);
        }
        let mut models = self.models.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(models.entry(model.to_string()).or_insert_with(|| {
            Arc::new(ModelTrack {
                id: model.to_string(),
                counters: ModelCounters::in_registry(&self.telemetry.metrics, model),
            })
        }))
    }

    /// Stops accepting, lets the workers drain every already-accepted
    /// request, and joins them. Idempotent; also runs on drop.
    /// Requests still queued at this point are *completed*, not
    /// discarded. A [`RoutedServer::submit`] parked on the full queue
    /// when this runs was never accepted: it returns
    /// [`SubmitErrorKind::ShutDown`] with its query, like every
    /// submission after the call.
    pub fn shutdown(&self) {
        self.queue.close();
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// True once [`RoutedServer::shutdown`] has run (or started).
    pub fn is_shut_down(&self) -> bool {
        self.queue.is_closed()
    }

    /// A snapshot of the global traffic counters.
    pub fn stats(&self) -> ServerStats {
        self.telemetry.counters.snapshot()
    }

    /// The server's metrics registry: the traffic counters
    /// (`serve.submitted`, `serve.model.<id>.completed`, …) and the
    /// per-stage latency histograms (`serve.stage.*_ns`,
    /// `serve.request.total_ns`, `serve.batch.size`). These are the
    /// *same cells* [`RoutedServer::stats`] snapshots.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.telemetry.metrics
    }

    /// A consistent export snapshot: refreshes the registry-side
    /// gauges (per-model cache stats under `registry.model.<id>.*`,
    /// shared-pool occupancy under `registry.pool.*`) and then
    /// snapshots the whole registry. See
    /// [`MetricsSnapshot::to_json`] for the stable serialization.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry
            .export_metrics(&self.telemetry.metrics, "registry");
        self.telemetry.metrics.snapshot()
    }

    /// The per-model traffic breakdown, sorted by model id. Covers
    /// every model ever submitted to (unloaded models keep their
    /// history). The rows sum to the global [`RoutedServer::stats`]
    /// stage counters, and after a drain each row satisfies
    /// `submitted == completed + cancelled` on its own.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        let mut rows: Vec<ModelStats> = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|track| track.counters.snapshot(&track.id))
            .collect();
        rows.sort_unstable_by(|a, b| a.model.cmp(&b.model));
        rows
    }

    /// One model's traffic counters, if it has ever been submitted to.
    pub fn model_stats_for(&self, model: &str) -> Option<ModelStats> {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model)
            .map(|track| track.counters.snapshot(&track.id))
    }

    /// The request tracer, when one was installed via
    /// [`RoutedServerBuilder::tracer`] — hand it to an
    /// [`fastbn_telemetry::IntrospectionBuilder`] to serve
    /// `/traces/recent` and `/traces/slow` live.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.telemetry.tracer.as_ref()
    }

    /// The registry requests are routed against.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Largest micro-batch window a worker collects.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The micro-batching window measured from a window's first
    /// request.
    pub fn max_delay(&self) -> Duration {
        self.max_delay
    }

    /// Bounded queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }
}

impl std::fmt::Debug for RoutedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedServer")
            .field("registry", &self.registry)
            .field("workers", &self.worker_count)
            .field("max_batch", &self.max_batch)
            .field("max_delay", &self.max_delay)
            .field("queue_capacity", &self.queue_capacity)
            .field("shut_down", &self.is_shut_down())
            .finish()
    }
}

impl Drop for RoutedServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: pop a request, hold the window open until `max_batch`
/// requests or `max_delay` elapsed, dispatch the window grouped by
/// model, repeat; exit (after a final dispatch) once the queue is
/// closed and drained.
fn worker_loop(
    queue: &Queue<Request>,
    max_batch: usize,
    max_delay: Duration,
    telemetry: &ServerTelemetry,
) {
    // Grown on demand and reused across windows: sizing it by
    // `max_batch` up front would abort the worker for a huge batch.
    let mut window: Vec<Request> = Vec::new();
    // `None`: the queue is closed and drained.
    while let Some(mut first) = queue.pop() {
        telemetry.counters.dequeued.inc_seq();
        record_queue_wait(&mut first, telemetry);
        let window_start = Instant::now();
        let window_t0 = telemetry.tracer.as_deref().map(Tracer::now_ns);
        window.push(first);
        let deadline = saturating_deadline(max_delay);
        while window.len() < max_batch {
            // `None`: the deadline passed with the queue empty, or the
            // queue is closed and drained (the outer `pop` then exits).
            let Some(mut request) = queue.pop_until(deadline) else {
                break;
            };
            telemetry.counters.dequeued.inc_seq();
            record_queue_wait(&mut request, telemetry);
            window.push(request);
        }
        telemetry
            .stages
            .window_ns
            .record_duration(window_start.elapsed());
        record_window_spans(&window, window_t0, telemetry);
        dispatch_window(&mut window, telemetry);
    }
}

/// Records one window-stage span per sampled request in the window
/// (same interval for all of them — they shared the window; `tag`
/// carries the window size).
fn record_window_spans(window: &[Request], window_t0: Option<u64>, telemetry: &ServerTelemetry) {
    let (Some(tracer), Some(start)) = (telemetry.tracer.as_deref(), window_t0) else {
        return;
    };
    if !window.iter().any(|r| r.trace.is_some_and(|rt| rt.sampled)) {
        return;
    }
    let dur = tracer.now_ns().saturating_sub(start);
    for request in window {
        let Some(rt) = request.trace.filter(|rt| rt.sampled) else {
            continue;
        };
        tracer.record(&SpanRecord {
            trace: rt.trace,
            span: tracer.next_span(),
            parent: rt.root,
            name: SPAN_WINDOW,
            start_ns: start,
            dur_ns: dur,
            tag: window.len() as u64,
            aux: 0,
        });
    }
}

/// Records how long one just-popped request sat on the queue — into
/// the stage histogram, and (with a tracer) into the request's
/// [`ReqTrace`] for the slow-query log, plus a queue-wait span when
/// the request is sampled.
fn record_queue_wait(request: &mut Request, telemetry: &ServerTelemetry) {
    telemetry
        .stages
        .queue_wait_ns
        .record_duration(request.submitted_at.elapsed());
    if let (Some(tracer), Some(rt)) = (telemetry.tracer.as_deref(), request.trace.as_mut()) {
        rt.queue_ns = tracer.now_ns().saturating_sub(rt.t0_ns);
        if rt.sampled {
            tracer.record(&SpanRecord {
                trace: rt.trace,
                span: tracer.next_span(),
                parent: rt.root,
                name: SPAN_QUEUE_WAIT,
                start_ns: rt.t0_ns,
                dur_ns: rt.queue_ns,
                tag: 0,
                aux: 0,
            });
        }
    }
}

/// Dispatches one collected window: drop cancelled requests, group the
/// rest by **(model id, solver instance)** — the model-track half
/// keeps per-model accounting exact when one solver is registered
/// under several ids, the instance half keeps a hot-reloaded model
/// from ever sharing a batch (or a dedup slot) with its predecessor —
/// then run each group. Groups are isolated against engine panics: a
/// panicking dispatch abandons only its own group's requests
/// ([`ServeError::Abandoned`]) — other models in the window, and the
/// worker itself, keep going.
fn dispatch_window(window: &mut Vec<Request>, telemetry: &ServerTelemetry) {
    window.retain(|request| {
        let live = !request.reply.is_cancelled();
        if !live {
            telemetry.counters.cancelled.inc_seq();
            request.model.counters.cancelled.inc_seq();
        }
        live
    });
    if window.is_empty() {
        return;
    }
    let mut groups: Vec<Vec<Request>> = Vec::new();
    let mut by_solver: HashMap<(*const ModelTrack, *const Solver), usize> = HashMap::new();
    for request in window.drain(..) {
        let key = (Arc::as_ptr(&request.model), Arc::as_ptr(&request.solver));
        let group = *by_solver.entry(key).or_insert(groups.len());
        if group == groups.len() {
            groups.push(Vec::new());
        }
        groups[group].push(request);
    }
    for group in groups {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch_group(group, telemetry)
        }));
        if outcome.is_err() {
            // The group's replies died mid-unwind (their clients see
            // `Abandoned`); the worker and the window's other models
            // are unaffected.
            telemetry.counters.worker_panics.inc();
        }
    }
}

/// One undelivered reply: the worker's end plus the request's
/// acceptance time (so delivery can record the end-to-end span).
type Waiter = (ReplyEnd, Instant, Option<ReqTrace>);

/// Group-level context delivery passes to the slow-query log: the
/// batch the request rode in and that batch's compute time, on the
/// tracer's clock.
struct GroupTrace {
    compute_ns: u64,
    batch: u64,
}

/// Runs one model's share of a window as a single `QueryBatch` and
/// delivers each slot's result. Requests whose canonical `QueryKey`s
/// match collapse into one computed slot whose result fans out to
/// every waiter (bit-identical by the key contract — and only ever
/// within one solver instance).
fn dispatch_group(group: Vec<Request>, telemetry: &ServerTelemetry) {
    debug_assert!(!group.is_empty());
    let solver = Arc::clone(&group[0].solver);
    let model = Arc::clone(&group[0].model);
    telemetry.counters.batches.inc();
    model.counters.batches.inc();
    telemetry.stages.batch_size.record(group.len() as u64);
    // One computed slot per distinct key; every reply hangs off its slot.
    let mut queries: Vec<Query> = Vec::with_capacity(group.len());
    let mut waiters: Vec<Vec<Waiter>> = Vec::with_capacity(group.len());
    let mut seen: HashMap<QueryKey, usize> = HashMap::new();
    for request in group {
        let waiter = (request.reply, request.submitted_at, request.trace);
        let slot = *seen.entry(request.query.key()).or_insert(queries.len());
        if slot == queries.len() {
            queries.push(request.query);
            waiters.push(Vec::new());
        } else {
            telemetry.counters.dedups.inc();
            model.counters.dedups.inc();
        }
        waiters[slot].push(waiter);
    }
    let batch = QueryBatch::from(queries);
    // Per-slot engine trace contexts: the slot's first sampled waiter
    // is its representative — its trace gets the compute span and the
    // engine collect/distribute spans (dedup followers share the
    // result, not the span tree).
    let mut ctxs: Vec<Option<TraceContext>> = Vec::new();
    let mut compute_spans: Vec<(u64, u64, u64)> = Vec::new(); // (trace, span, root)
    if let Some(tracer) = telemetry.tracer.as_ref() {
        ctxs = waiters
            .iter()
            .map(|slot_waiters| {
                let rt = slot_waiters
                    .iter()
                    .find_map(|(_, _, rt)| rt.filter(|rt| rt.sampled))?;
                let span = tracer.next_span();
                compute_spans.push((rt.trace, span, rt.root));
                Some(TraceContext {
                    tracer: Arc::clone(tracer),
                    trace: rt.trace,
                    parent: span,
                })
            })
            .collect();
    }
    let traced = ctxs.iter().any(Option::is_some);
    let compute_t0 = telemetry.tracer.as_deref().map(Tracer::now_ns);
    let compute_start = Instant::now();
    let results = if traced {
        solver.query_batch_traced(&batch, &ctxs)
    } else {
        solver.query_batch(&batch)
    };
    telemetry
        .stages
        .compute_ns
        .record_duration(compute_start.elapsed());
    let group_trace = match (telemetry.tracer.as_deref(), compute_t0) {
        (Some(tracer), Some(t0)) => {
            let compute_ns = tracer.now_ns().saturating_sub(t0);
            for (trace, span, root) in compute_spans {
                tracer.record(&SpanRecord {
                    trace,
                    span,
                    parent: root,
                    name: SPAN_COMPUTE,
                    start_ns: t0,
                    dur_ns: compute_ns,
                    tag: batch.len() as u64,
                    aux: 0,
                });
            }
            Some(GroupTrace {
                compute_ns,
                batch: batch.len() as u64,
            })
        }
        _ => None,
    };
    let delivery_start = Instant::now();
    for (replies, result) in waiters.into_iter().zip(results) {
        let mut replies = replies.into_iter();
        let last = replies.next_back();
        for waiter in replies {
            deliver(
                waiter,
                result.clone(),
                telemetry,
                &model,
                group_trace.as_ref(),
            );
        }
        if let Some(waiter) = last {
            // The representative (or lone) waiter takes the result
            // without a clone.
            deliver(waiter, result, telemetry, &model, group_trace.as_ref());
        }
    }
    telemetry
        .stages
        .delivery_ns
        .record_duration(delivery_start.elapsed());
}

/// Sends one result through its reply, counting the outcome globally
/// and against the request's model; a delivered result also records
/// the request's end-to-end latency. With a tracer, a delivered
/// request closes out its trace: a delivery span and the root request
/// span when sampled, and — for **every** request over the threshold,
/// sampled or not — a slow-query log entry.
fn deliver(
    (reply, submitted_at, trace): Waiter,
    result: Result<QueryResult, InferenceError>,
    telemetry: &ServerTelemetry,
    model: &ModelTrack,
    group: Option<&GroupTrace>,
) {
    let tracer = telemetry.tracer.as_deref();
    let send_t0 = match (tracer, &trace) {
        (Some(tracer), Some(rt)) if rt.sampled => Some(tracer.now_ns()),
        _ => None,
    };
    let delivered = reply.send(result).is_ok();
    if delivered {
        telemetry.counters.completed.inc_seq();
        model.counters.completed.inc_seq();
        telemetry
            .stages
            .total_ns
            .record_duration(submitted_at.elapsed());
    } else {
        // The handle was dropped while the batch ran: result
        // discarded, request counted as cancelled.
        telemetry.counters.cancelled.inc_seq();
        model.counters.cancelled.inc_seq();
    }
    let (Some(tracer), Some(rt)) = (tracer, trace) else {
        return;
    };
    if !delivered {
        // Cancelled mid-batch: no root span, no slow entry — the
        // request never produced a client-visible latency.
        return;
    }
    let end = tracer.now_ns();
    let total_ns = end.saturating_sub(rt.t0_ns);
    if rt.sampled {
        if let Some(send_t0) = send_t0 {
            tracer.record(&SpanRecord {
                trace: rt.trace,
                span: tracer.next_span(),
                parent: rt.root,
                name: SPAN_DELIVERY,
                start_ns: send_t0,
                dur_ns: end.saturating_sub(send_t0),
                tag: 0,
                aux: 0,
            });
        }
        // The root request span last, now that the total is known;
        // `tag` carries the batch size, `aux` the interned model id.
        tracer.record(&SpanRecord {
            trace: rt.trace,
            span: rt.root,
            parent: 0,
            name: SPAN_REQUEST,
            start_ns: rt.t0_ns,
            dur_ns: total_ns,
            tag: group.map_or(0, |g| g.batch),
            aux: u64::from(tracer.intern(&model.id).0),
        });
    }
    if total_ns > tracer.slow_threshold_ns() {
        tracer.record_slow(SlowEntry {
            trace: rt.trace,
            model: model.id.clone(),
            total_ns,
            queue_ns: rt.queue_ns,
            compute_ns: group.map_or(0, |g| g.compute_ns),
            batch: group.map_or(0, |g| g.batch),
            sampled: rt.sampled,
            at_ns: end,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value a reply can carry without building a model.
    fn value() -> Reply {
        Err(InferenceError::ImpossibleEvidence)
    }

    fn delivered() -> Result<QueryResult, ServeError> {
        Err(ServeError::Inference(InferenceError::ImpossibleEvidence))
    }

    #[test]
    fn reply_delivers_one_value() {
        let (tx, pending) = reply();
        tx.send(value()).unwrap();
        assert_eq!(pending.wait(), delivered());
    }

    #[test]
    fn reply_crosses_threads() {
        let (tx, pending) = reply();
        let h = std::thread::spawn(move || pending.wait());
        std::thread::sleep(Duration::from_millis(5));
        tx.send(value()).unwrap();
        assert_eq!(h.join().unwrap(), delivered());
    }

    #[test]
    fn dropped_pending_cancels() {
        let (tx, pending) = reply();
        assert!(!tx.is_cancelled());
        drop(pending);
        assert!(tx.is_cancelled());
        assert_eq!(tx.send(value()), Err(value()), "value handed back");
    }

    #[test]
    fn unsent_reply_abandons() {
        let (tx, pending) = reply();
        drop(tx);
        assert_eq!(pending.wait(), Err(ServeError::Abandoned));
    }

    #[test]
    fn wait_timeout_hands_pending_back_then_delivers() {
        let (tx, pending) = reply();
        let Err(pending) = pending.wait_timeout(Duration::from_millis(10)) else {
            panic!("nothing sent yet, wait must time out");
        };
        tx.send(value()).unwrap();
        let Ok(outcome) = pending.wait_timeout(Duration::from_secs(5)) else {
            panic!("value was sent, wait must not time out");
        };
        assert_eq!(outcome, delivered());
    }

    #[test]
    fn wait_timeout_observes_abandonment() {
        let (tx, pending) = reply();
        let h = std::thread::spawn(move || match pending.wait_timeout(Duration::from_secs(5)) {
            Ok(outcome) => outcome,
            Err(_) => panic!("abandonment must surface before the timeout"),
        });
        std::thread::sleep(Duration::from_millis(5));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(ServeError::Abandoned));
    }

    #[test]
    fn a_value_sent_as_wait_timeout_expires_is_never_abandoned() {
        // The sender pushes and drops while the client's short waits keep
        // expiring: every round must end with the value.
        for round in 0..3000u32 {
            let (tx, mut pending) = reply();
            let outcome = std::thread::scope(|s| {
                s.spawn(move || {
                    if round % 2 == 0 {
                        std::thread::yield_now();
                    }
                    tx.send(value()).unwrap();
                });
                loop {
                    match pending.wait_timeout(Duration::from_micros(u64::from(round % 4))) {
                        Ok(outcome) => break outcome,
                        Err(again) => pending = again,
                    }
                }
            });
            assert_eq!(outcome, delivered(), "round {round}");
        }
    }
}

//! # fastbn
//!
//! A Rust reproduction of **"Fast Parallel Exact Inference on Bayesian
//! Networks"** (Jiang, Wen, Mansoor, Mian — PPoPP 2023): junction-tree
//! exact inference with hybrid inter-/intra-clique parallelism
//! (**Fast-BNI**), plus the full substrate it depends on — Bayesian
//! networks with BIF I/O, potential tables with parallel index-mapped
//! operations, junction-tree construction with root selection and BFS
//! layering, an OpenMP-analogue thread pool, and the paper's three
//! parallel baselines.
//!
//! Inference is served through a concurrent three-layer API: a
//! [`Solver`] compiles a network once into an immutable `Send + Sync`
//! model; any number of threads open [`Session`]s against it; each
//! session runs [`Query`]s (hard evidence, virtual evidence, targeted
//! marginals, MPE) with pooled scratch and zero steady-state allocation.
//!
//! This facade crate re-exports the workspace members; depend on it for
//! everything, or on individual `fastbn-*` crates for a subset.
//!
//! ## Quickstart
//!
//! ```
//! use fastbn::bayesnet::datasets;
//! use fastbn::{EngineKind, Query, Solver};
//!
//! // 1. A Bayesian network (classic Asia; or load a .bif, or generate).
//! let net = datasets::asia();
//! // 2. Compile once: junction tree, initial potentials, engine plans.
//! //    The solver is Send + Sync — share it across threads freely.
//! let solver = Solver::builder(&net)
//!     .engine(EngineKind::Hybrid) // Fast-BNI-par
//!     .threads(2)                 // workers inside each query
//!     .build();
//! // 3. Open a per-caller session (cheap; scratch comes from a pool).
//! let mut session = solver.session();
//! // 4. Query: P(Tuberculosis | XRay = yes), computing only that marginal.
//! let xray = net.var_id("XRay").unwrap();
//! let tub = net.var_id("Tuberculosis").unwrap();
//! let result = session
//!     .run(&Query::new().observe(xray, 0).targets([tub]))
//!     .unwrap();
//! let posteriors = result.posteriors().unwrap();
//! assert!(posteriors.marginal(tub)[0] > 0.05); // x-ray raises P(tub)
//!
//! // The same session also answers MPE queries (max-product):
//! let mpe = session.run(&Query::new().observe(xray, 0).mpe()).unwrap();
//! assert_eq!(mpe.mpe().unwrap().assignment[xray.index()], 0);
//! ```
//!
//! ## Batched serving
//!
//! Independent requests group into a [`QueryBatch`] and execute as one
//! unit: results come back in input order, a failing request (impossible
//! evidence, malformed likelihood) occupies only its own `Err` slot, and
//! batches at least as wide as the engine's pool are spread *across* the
//! workers — one query per worker with pooled scratch — instead of
//! paying reset/evidence-entry/extraction setup serially per request:
//!
//! ```
//! use fastbn::bayesnet::datasets;
//! use fastbn::{EngineKind, Query, QueryBatch, Solver};
//!
//! let net = datasets::asia();
//! let solver = Solver::builder(&net).engine(EngineKind::Hybrid).threads(4).build();
//! let dysp = net.var_id("Dyspnea").unwrap();
//! let xray = net.var_id("XRay").unwrap();
//! let batch = QueryBatch::new()
//!     .with(Query::new().observe(dysp, 0))
//!     .with(Query::new().observe(dysp, 0).mpe())
//!     .with(Query::new().likelihood(xray, vec![0.8, 0.2]))
//!     .with(Query::new().likelihood(xray, vec![0.0, 0.0])); // malformed
//! let results = solver.query_batch(&batch);
//! assert!(results[..3].iter().all(|r| r.is_ok()));
//! assert!(results[3].is_err(), "bad slot fails alone");
//! ```
//!
//! ## Live serving
//!
//! Under live traffic — single requests arriving from many clients —
//! don't hand-roll batches or per-query loops: put a [`Server`] in
//! front. It owns worker threads over the shared solver, coalesces
//! queued requests into deadline-bounded micro-batches (feeding the
//! same `run_batch` path), pushes back through a bounded queue, and
//! delivers each request's own result; dropping a pending handle
//! cancels that request:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use fastbn::bayesnet::datasets;
//! use fastbn::{EngineKind, Query, Server, Solver};
//!
//! let net = datasets::sprinkler();
//! let solver = Arc::new(Solver::builder(&net).engine(EngineKind::Hybrid).threads(2).build());
//! let server = Server::builder(Arc::clone(&solver))
//!     .workers(2)
//!     .max_batch(4)
//!     .max_delay(Duration::from_micros(200))
//!     .build();
//! let rain = net.var_id("Rain").unwrap();
//! let pending: Vec<_> = (0..8)
//!     .map(|i| server.submit(Query::new().observe(rain, i % 2)).unwrap())
//!     .collect();
//! for p in pending {
//!     assert!(p.wait().unwrap().posteriors().unwrap().prob_evidence > 0.0);
//! }
//! server.shutdown(); // drains accepted work, joins the workers
//! ```
//!
//! For embedding without a server, sharing the solver across scoped
//! threads with one [`Session`] each works too — sessions are cheap and
//! results are bit-identical either way.
//!
//! ## Multi-model serving
//!
//! Serving *several* networks from one process? Don't give each its
//! own worker pool: put them in a [`Registry`] — every model compiles
//! onto **one shared pool** — and route traffic by model id through a
//! [`RoutedServer`], which supports hot load/unload mid-traffic, LRU
//! capacity bounds, and per-model stats (see
//! `examples/multi_model.rs`):
//!
//! ```
//! use std::sync::Arc;
//! use fastbn::bayesnet::datasets;
//! use fastbn::{ModelConfig, Query, Registry, RoutedServer};
//!
//! let registry = Arc::new(Registry::builder().threads(2).build());
//! registry.load("asia", &datasets::asia(), &ModelConfig::new()).unwrap();
//! registry.load("sprinkler", &datasets::sprinkler(), &ModelConfig::new()).unwrap();
//! let server = RoutedServer::builder(Arc::clone(&registry)).workers(2).build();
//! let a = server.submit("asia", Query::new()).unwrap();
//! let b = server.submit("sprinkler", Query::new()).unwrap();
//! assert!(a.wait().is_ok() && b.wait().is_ok());
//! ```
//!
//! The full crate map and the path a query takes through the layers are
//! documented in `docs/ARCHITECTURE.md`.

// No unsafe code: raw-pointer and atomics tricks live in the audited
// modules of fastbn-potential/parallel/inference (see FB-L4 in
// crates/analyze); everything here must stay checkable by construction.
#![forbid(unsafe_code)]

/// Bayesian-network substrate (variables, CPTs, DAG, BIF, generators).
pub use fastbn_bayesnet as bayesnet;
/// Inference engines and oracles (the paper's contribution).
pub use fastbn_inference as inference;
/// Junction-tree construction.
pub use fastbn_jtree as jtree;
/// OpenMP-analogue thread pool.
pub use fastbn_parallel as parallel;
/// Potential tables and the three dominant operations.
pub use fastbn_potential as potential;
/// Multi-model registry and routed serving over one shared pool.
pub use fastbn_registry as registry;
/// Metrics/tracing: counters, latency histograms, JSON export.
pub use fastbn_telemetry as telemetry;

pub use fastbn_bayesnet::{BayesianNetwork, Evidence, NetworkBuilder, VarId, Variable};
pub use fastbn_inference::trace::TraceContext;
pub use fastbn_inference::{
    make_engine, CacheConfig, CacheStats, EngineKind, EvidenceDelta, InferenceEngine,
    InferenceError, LikelihoodDefect, LiveSession, MpeResult, Posteriors, Prepared, Query,
    QueryBatch, QueryCache, QueryKey, QueryMode, QueryResult, Session, Solver, SolverBuilder,
    VirtualEvidence, WorkState,
};
pub use fastbn_jtree::JtreeOptions;
pub use fastbn_parallel::{Schedule, ThreadPool};
pub use fastbn_registry::{
    ModelConfig, ModelStats, Pending, Registry, RegistryBuilder, RegistryError, RoutedServer,
    RoutedServerBuilder, ServeError, Server, ServerBuilder, ServerStats, SubmitError,
    SubmitErrorKind, SINGLE_MODEL_ID,
};
pub use fastbn_telemetry::{
    prometheus_text, Counter, Histogram, HistogramSnapshot, Introspection, IntrospectionBuilder,
    MetricsRegistry, MetricsSnapshot, SlowEntry, SpanRecord, TraceConfig, TraceView, Tracer,
};

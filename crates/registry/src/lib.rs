//! # fastbn-registry
//!
//! The **multi-model layer** of the fastbn stack: many compiled
//! Bayesian networks served from one process, on **one shared worker
//! pool**, behind one routed front end.
//!
//! The paper's engines parallelize one junction tree at a time; real
//! deployments serve *many* networks at once (per-tenant models,
//! per-region variants, A/B candidates). Giving every parallel engine
//! its own [`ThreadPool`](fastbn_parallel::ThreadPool) would put
//! `N × t` worker threads on `t` cores; this crate closes that gap
//! with two pieces:
//!
//! * a [`Registry`] — a named set of compiled models
//!   (`insert` / `remove` / `get`) that compiles every
//!   [`Registry::load`]ed network onto one shared pool
//!   ([`ThreadPool::shared`](fastbn_parallel::ThreadPool::shared) +
//!   [`SolverBuilder::pool`](fastbn_inference::SolverBuilder::pool)),
//!   supports **hot load/unload while traffic is in flight** (models
//!   are handed out as `Arc<Solver>`, so removal drops only the
//!   registry's reference), carries **per-model cache configs**, and
//!   enforces an optional **capacity bound with LRU eviction of idle
//!   models**;
//! * a [`RoutedServer`] — the micro-batching serving front end
//!   generalized to carry a **model id per request**: submissions
//!   resolve their model at admission (unknown ids come back as a
//!   typed [`SubmitErrorKind::UnknownModel`] with the query handed
//!   back), windows **group by model** before dispatching to the batch
//!   path, and [`ServerStats`] gains a per-model breakdown
//!   ([`RoutedServer::model_stats`]) alongside the global drain
//!   invariant `submitted == completed + cancelled`.
//!
//! Results are bit-identical to a standalone single-model
//! `Solver` of the same engine and width — routing, pool
//! sharing, and mixed windows are invisible to clients
//! (`tests/registry.rs` asserts this across engines × thread counts ×
//! concurrent submitters).
//!
//! ```
//! use std::sync::Arc;
//! use fastbn_bayesnet::datasets;
//! use fastbn_inference::Query;
//! use fastbn_registry::{ModelConfig, Registry, RoutedServer};
//!
//! // One pool, three models.
//! let registry = Arc::new(Registry::builder().threads(2).build());
//! for (id, net) in [
//!     ("asia", datasets::asia()),
//!     ("sprinkler", datasets::sprinkler()),
//!     ("cancer", datasets::cancer()),
//! ] {
//!     registry.load(id, &net, &ModelConfig::new()).unwrap();
//! }
//!
//! // Mixed traffic through one front end.
//! let server = RoutedServer::builder(Arc::clone(&registry)).workers(2).build();
//! let a = server.submit("asia", Query::new()).unwrap();
//! let b = server.submit("sprinkler", Query::new()).unwrap();
//! assert!(a.wait().is_ok() && b.wait().is_ok());
//!
//! // Unknown models fail with a typed error, query handed back.
//! let err = server.submit("nope", Query::new()).unwrap_err();
//! assert_eq!(err.kind(), fastbn_registry::SubmitErrorKind::UnknownModel);
//! let _query_again = err.into_query();
//! ```
//!
//! The single-model [`Server`] is a one-entry registry behind
//! a [`RoutedServer`] — same machinery, fixed routing.
//! Where this layer sits in the stack is mapped out in
//! `docs/ARCHITECTURE.md` at the repository root, and
//! `examples/multi_model.rs` is a runnable quickstart.

// No unsafe code: raw-pointer and atomics tricks live in the audited
// modules of fastbn-potential/parallel/inference (see FB-L4 in
// crates/analyze); everything here must stay checkable by construction.
#![forbid(unsafe_code)]

mod registry;
mod routed;
mod server;
mod stats;

pub use registry::{ModelConfig, Registry, RegistryBuilder, RegistryError};
pub use routed::{
    Pending, RoutedServer, RoutedServerBuilder, ServeError, SubmitError, SubmitErrorKind,
};
pub use server::{Server, ServerBuilder, SINGLE_MODEL_ID};
pub use stats::{ModelStats, ServerStats};

// Re-export the telemetry vocabulary (the routed server's metrics and
// tracing surface) and the request/response vocabulary so routing
// callers can depend on this crate alone.
pub use fastbn_telemetry::{
    Counter, Histogram, HistogramSnapshot, Introspection, IntrospectionBuilder, MetricsRegistry,
    MetricsSnapshot, SlowEntry, TraceConfig, TraceView, Tracer,
};

pub use fastbn_inference::{
    CacheConfig, CacheStats, EngineKind, InferenceError, Query, QueryBatch, QueryKey, QueryResult,
    Solver, SolverBuilder,
};

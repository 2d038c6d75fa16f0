//! # fastbn-telemetry
//!
//! The measurement substrate for the fastbn serving stack: where time
//! goes (per-stage latency histograms), what happened (atomic event
//! counters), and a durable record of both (a stable JSON codec for
//! metric snapshots and trace documents).
//!
//! Design constraints, in order:
//!
//! 1. **Free on the record path.** Recording a metric is a few relaxed
//!    atomics — no locks, no allocation, no floating point. The latency
//!    [`Histogram`] uses fixed log buckets (≤ 12.5% quantile error,
//!    saturating overflow bucket) so `p50/p90/p99/max` come out of a
//!    plain array copy. Recording a span is one short lock on the
//!    [`Tracer`]'s ring, which is allocated with the tracer — no
//!    allocation, and no ordering protocol of this crate's own: outside
//!    the `SeqCst` counter tier, nothing here is stronger than
//!    `Relaxed`.
//! 2. **Dependency-free.** This crate sits *below* everything —
//!    even `fastbn-parallel` instruments its pool with it — and uses
//!    nothing but `std` (not even the vendored shims).
//! 3. **Consistent snapshots.** A [`MetricsRegistry::snapshot`] taken
//!    under concurrent recording never shows torn histogram counts
//!    (totals are derived from the bucket array) and respects the
//!    serving stack's staged-counter inequalities (writers use the
//!    `SeqCst` counter tier; see [`Counter`]).
//!
//! ## Quickstart
//!
//! ```
//! use fastbn_telemetry::MetricsRegistry;
//! use std::time::{Duration, Instant};
//!
//! let metrics = MetricsRegistry::new();
//! // Resolve once (locks), record hot (lock-free).
//! let completed = metrics.counter("serve.completed");
//! let latency = metrics.histogram("serve.request.total_ns");
//!
//! for _ in 0..100 {
//!     let start = Instant::now();
//!     std::hint::black_box(2 + 2); // the "request"
//!     completed.inc();
//!     latency.record_duration(start.elapsed().max(Duration::from_nanos(50)));
//! }
//!
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("serve.completed"), 100);
//! let lat = snap.histogram("serve.request.total_ns").unwrap();
//! assert_eq!(lat.count, 100);
//! assert!(lat.p99() >= lat.p50() && lat.max >= lat.p99());
//! // And the whole family serializes to stable JSON:
//! let text = snap.to_json().to_pretty();
//! assert!(text.contains("serve.completed"));
//! ```

#![forbid(unsafe_code)]

mod counter;
mod histogram;
pub mod http;
pub mod json;
mod prom;
mod registry;
pub mod trace;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use http::{Introspection, IntrospectionBuilder, SnapshotFn};
pub use json::{Json, JsonError};
pub use prom::prometheus_text;
pub use registry::{MetricsRegistry, MetricsSnapshot};
pub use trace::{
    NameId, SlowEntry, SpanRecord, TraceConfig, TraceToken, TraceView, Tracer, SPAN_COLLECT,
    SPAN_COMPUTE, SPAN_DELIVERY, SPAN_DISTRIBUTE, SPAN_EXTRACT, SPAN_QUEUE_WAIT, SPAN_RECV_PHASE,
    SPAN_REQUEST, SPAN_SEP_PHASE, SPAN_WINDOW,
};

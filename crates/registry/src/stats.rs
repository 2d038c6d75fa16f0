//! Traffic counters for the serving front ends: the global
//! [`ServerStats`] snapshot and the
//! per-model [`ModelStats`] breakdown the routed server adds on top.

use std::sync::Arc;

use fastbn_telemetry::{Counter, MetricsRegistry};

/// Monotonic counters describing a server's traffic so far (a snapshot;
/// concurrently updated by submitters and workers).
///
/// # Accounting invariant
///
/// Every request is counted **exactly once** at each stage it reaches,
/// so at any instant
///
/// ```text
/// submitted == completed + cancelled + queued_or_in_flight
/// ```
///
/// where `queued_or_in_flight` is the (unobservable) number of accepted
/// requests not yet resolved; after a shutdown (the queue fully
/// drained, workers joined) it is zero and `submitted == completed +
/// cancelled` exactly — **provided `worker_panics` is 0** (a panicking
/// dispatch abandons its group's requests mid-unwind; they surface to
/// clients as `Abandoned` and are counted nowhere else). `rejected`
/// requests were never accepted, so they sit outside the identity, and
/// `completed + cancelled ≤ dequeued ≤ submitted` holds throughout. In
/// particular a request whose handle is dropped *between* dequeue and
/// delivery is counted once as `cancelled` — never double-counted
/// across `dequeued` / `cancelled` / `completed`. Locked in by the
/// stress tests in `tests/serve.rs` and `tests/registry.rs`.
///
/// On a routed (multi-model) server the same identity additionally
/// holds **per model**: see
/// [`RoutedServer::model_stats`](crate::RoutedServer::model_stats).
/// `dequeued`, `rejected` and `worker_panics` are tracked globally
/// only; the per-model stages are [`ModelStats`].
///
/// A request answered by the in-window dedup still counts as
/// `completed` — `dedups` tells you how many of those completions
/// shared another request's computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests accepted onto the queue.
    pub submitted: u64,
    /// `try_submit` rejections due to a full queue.
    pub rejected: u64,
    /// Requests popped off the queue by a worker.
    pub dequeued: u64,
    /// Results delivered to a live `Pending` handle.
    pub completed: u64,
    /// Requests whose handle was dropped — skipped before dispatch or
    /// discarded after.
    pub cancelled: u64,
    /// Micro-batches dispatched (each covering ≥ 1 request; on a routed
    /// server a mixed window dispatches one batch **per model** in it).
    pub batches: u64,
    /// Requests answered by cloning an identical in-flight request's
    /// result instead of computing their own (in-window dedup; the
    /// clones are bit-identical by the `QueryKey` contract).
    pub dedups: u64,
    /// Dispatches that panicked (an engine bug, not bad input — bad
    /// input yields a per-slot `Err`). The group's requests surface as
    /// `Abandoned`; the worker survives and keeps serving.
    pub worker_panics: u64,
}

/// One model's share of a routed server's traffic — the per-model
/// breakdown of [`ServerStats`].
///
/// After a drain the per-model identity `submitted == completed +
/// cancelled` holds for every row (given zero `worker_panics`), and
/// the rows sum to the global counters: routing never loses or
/// double-counts a request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelStats {
    /// The model id requests were routed by.
    pub model: String,
    /// Requests for this model accepted onto the queue.
    pub submitted: u64,
    /// Results delivered to live handles.
    pub completed: u64,
    /// Requests whose handle was dropped before delivery.
    pub cancelled: u64,
    /// Completions that shared another in-flight request's computation.
    pub dedups: u64,
    /// Micro-batches dispatched for this model.
    pub batches: u64,
}

/// The counters behind [`ServerStats`] — handles into the server's
/// [`MetricsRegistry`], so the `ServerStats` snapshot and the exported
/// metrics (`serve.submitted`, `serve.completed`, …) are **the same
/// cells**, not two bookkeeping systems that could drift.
///
/// The stage counters (`submitted`, `dequeued`, `completed`,
/// `cancelled`) use the counter's `SeqCst` methods so the accounting
/// invariant is observable from a *concurrent* snapshot, not just
/// after shutdown: `submitted` is incremented **before** the request
/// enters the queue (undone on a failed send), each later stage is
/// incremented after the earlier one, and [`Counters::snapshot`] reads
/// the stages in reverse order — so a snapshot can never catch a
/// completion whose submission it missed.
pub(crate) struct Counters {
    pub(crate) submitted: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) dequeued: Arc<Counter>,
    pub(crate) completed: Arc<Counter>,
    pub(crate) cancelled: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) dedups: Arc<Counter>,
    pub(crate) worker_panics: Arc<Counter>,
}

impl Counters {
    /// Resolves the global traffic counters (`serve.*`) in `metrics`.
    pub(crate) fn in_registry(metrics: &MetricsRegistry) -> Counters {
        Counters {
            submitted: metrics.counter("serve.submitted"),
            rejected: metrics.counter("serve.rejected"),
            dequeued: metrics.counter("serve.dequeued"),
            completed: metrics.counter("serve.completed"),
            cancelled: metrics.counter("serve.cancelled"),
            batches: metrics.counter("serve.batches"),
            dedups: metrics.counter("serve.dedups"),
            worker_panics: metrics.counter("serve.worker_panics"),
        }
    }

    pub(crate) fn snapshot(&self) -> ServerStats {
        // Read latest-stage counters first: `completed + cancelled ≤
        // dequeued ≤ submitted` must hold in the snapshot even while
        // requests race through the pipeline (each read can only miss
        // increments that post-date the earlier reads).
        let completed = self.completed.get_seq();
        let cancelled = self.cancelled.get_seq();
        let dequeued = self.dequeued.get_seq();
        let submitted = self.submitted.get_seq();
        ServerStats {
            submitted,
            rejected: self.rejected.get(),
            dequeued,
            completed,
            cancelled,
            batches: self.batches.get(),
            dedups: self.dedups.get(),
            worker_panics: self.worker_panics.get(),
        }
    }
}

/// One model's counters (`serve.model.<id>.*`); same staging
/// discipline as [`Counters`] (pre-counted `submitted`, reverse-order
/// snapshot).
pub(crate) struct ModelCounters {
    pub(crate) submitted: Arc<Counter>,
    pub(crate) completed: Arc<Counter>,
    pub(crate) cancelled: Arc<Counter>,
    pub(crate) dedups: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
}

impl ModelCounters {
    /// Resolves the per-model counters for `model` in `metrics`.
    pub(crate) fn in_registry(metrics: &MetricsRegistry, model: &str) -> ModelCounters {
        let name = |stage: &str| format!("serve.model.{model}.{stage}");
        ModelCounters {
            submitted: metrics.counter(&name("submitted")),
            completed: metrics.counter(&name("completed")),
            cancelled: metrics.counter(&name("cancelled")),
            dedups: metrics.counter(&name("dedups")),
            batches: metrics.counter(&name("batches")),
        }
    }

    pub(crate) fn snapshot(&self, model: &str) -> ModelStats {
        let completed = self.completed.get_seq();
        let cancelled = self.cancelled.get_seq();
        let submitted = self.submitted.get_seq();
        ModelStats {
            model: model.to_string(),
            submitted,
            completed,
            cancelled,
            dedups: self.dedups.get(),
            batches: self.batches.get(),
        }
    }
}

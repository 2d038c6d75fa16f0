//! End-to-end request tracing: one bounded span ring per tracer, head
//! sampling, and an always-on slow-query log.
//!
//! fastbn: deny-hot-alloc
//!
//! A [`Tracer`] is the per-server tracing authority: it mints trace and
//! span IDs, decides head-based sampling (1-in-N by trace ID), owns the
//! span storage, and keeps the slow-query log. The serving stack
//! attaches one to a `RoutedServer`; instrumented layers downstream
//! (queue, window, batch compute, engine propagation) record
//! [`SpanRecord`]s against it.
//!
//! # Storage: one ring per tracer
//!
//! Spans land in **one fixed-capacity ring behind a `Mutex`**, owned by
//! the tracer and shared by every recording thread
//! ([`TraceConfig::ring_capacity`] slots in total). A record locks,
//! copies one [`SpanRecord`] into the next slot (overwriting the oldest
//! once the ring is full) and unlocks: **no allocation, no syscall**
//! in the uncontended case (the ring is allocated once, in
//! [`Tracer::new`], and freed with the tracer; locked in by
//! `tests/alloc.rs`). Readers (the introspection endpoint, the `trace`
//! example) copy the ring under the same lock, so they never see a
//! half-written span.
//!
//! # Sampling and the slow-query log
//!
//! Head sampling keeps tracing cheap under load: a trace is *sampled*
//! (gets the full span tree) iff `trace_id % sample_every == 0`
//! ([`TraceConfig::sample_every`]; 0 disables sampling entirely).
//! Orthogonally, the **slow-query log is always on**: every request
//! whose total latency exceeds [`TraceConfig::slow_threshold`] is
//! force-retained as a [`SlowEntry`] — a compact per-request summary,
//! not a span tree — in a bounded ring with an exact total count, so
//! the one request that mattered is never lost to sampling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::json::Json;

/// An interned span-name identifier. Well-known stage names are
/// pre-interned constants ([`SPAN_REQUEST`] …); dynamic names (model
/// ids) come from [`Tracer::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

/// Root span of one request, admission → delivery.
pub const SPAN_REQUEST: NameId = NameId(0);
/// Time between enqueue and a worker popping the request.
pub const SPAN_QUEUE_WAIT: NameId = NameId(1);
/// Micro-batching window the request waited in.
pub const SPAN_WINDOW: NameId = NameId(2);
/// Batch compute (`query_batch`) the request rode in.
pub const SPAN_COMPUTE: NameId = NameId(3);
/// Result fan-out back to the waiting client.
pub const SPAN_DELIVERY: NameId = NameId(4);
/// Engine propagation, collect (upward) phase.
pub const SPAN_COLLECT: NameId = NameId(5);
/// Engine propagation, distribute (downward) phase.
pub const SPAN_DISTRIBUTE: NameId = NameId(6);
/// One flattened layer's separator phase, under its collect/distribute
/// span: `tag` = layer index in its pass, `aux` = sender entries read.
pub const SPAN_SEP_PHASE: NameId = NameId(7);
/// One flattened layer's receiver phase, under its collect/distribute
/// span: `tag` = layer index in its pass, `aux` = receiver entries
/// written.
pub const SPAN_RECV_PHASE: NameId = NameId(8);
/// All-marginals extraction run as a pool region over the variables:
/// `aux` = home-clique entries above the run-program cut.
pub const SPAN_EXTRACT: NameId = NameId(9);

const WELL_KNOWN: [&str; 10] = [
    "request",
    "queue_wait",
    "window",
    "compute",
    "delivery",
    "collect",
    "distribute",
    "sep_phase",
    "recv_phase",
    "extract",
];
const FIRST_DYNAMIC: u32 = WELL_KNOWN.len() as u32;

/// Tracing knobs. Plain fields; use struct-update syntax over
/// [`Default`] to change a subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Head sampling: a trace gets its full span tree iff
    /// `trace_id % sample_every == 0`. `1` samples everything, `0`
    /// disables sampling (the slow-query log still runs).
    pub sample_every: u64,
    /// Requests slower than this enter the slow-query log regardless of
    /// sampling.
    pub slow_threshold: Duration,
    /// Span slots the tracer keeps, across all recording threads. Old
    /// spans are overwritten; [`Tracer::spans_recorded`] stays exact.
    pub ring_capacity: usize,
    /// Slow-query log entries retained (oldest overwritten; the total
    /// count stays exact).
    pub slow_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample_every: 16,
            slow_threshold: Duration::from_millis(100),
            // 2 048 spans for each of the four threads that record in a
            // two-worker server on a two-thread pool.
            ring_capacity: 8192,
            slow_capacity: 128,
        }
    }
}

/// One completed span, as recorded and as read back. `tag`/`aux` are
/// span-kind-specific payload: batch size and model name id on
/// `request` spans, layer index and entry count on `sep_phase` /
/// `recv_phase` spans, layout class and clique index on `kernel` spans,
/// zero elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to (minted at admission; never 0).
    pub trace: u64,
    /// This span's id (unique within the tracer; never 0).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Interned span name.
    pub name: NameId,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Span-kind-specific payload (see type docs).
    pub tag: u64,
    /// Span-kind-specific payload (see type docs).
    pub aux: u64,
}

/// The admission-time decision for one request: its trace id and
/// whether it is head-sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceToken {
    /// The minted trace id (never 0).
    pub trace: u64,
    /// Whether this trace records a full span tree.
    pub sampled: bool,
}

/// One slow-query log record — the compact always-on summary of a
/// request that exceeded the threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// The request's trace id.
    pub trace: u64,
    /// Model the request was routed to.
    pub model: String,
    /// End-to-end latency, admission → delivery.
    pub total_ns: u64,
    /// Time spent queued before a worker picked the request up.
    pub queue_ns: u64,
    /// Batch compute time of the batch the request rode in.
    pub compute_ns: u64,
    /// Size of that batch.
    pub batch: u64,
    /// Whether the trace was also head-sampled (span tree available).
    pub sampled: bool,
    /// Completion time, nanoseconds since the tracer's epoch.
    pub at_ns: u64,
}

/// One trace's spans, as grouped by [`Tracer::recent_traces`] (sorted
/// by start time, then span id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceView {
    /// The trace id.
    pub trace: u64,
    /// Its spans, start-ordered.
    pub spans: Vec<SpanRecord>,
}

/// A bounded ring: once full, each push overwrites the oldest entry,
/// and the total count of pushes stays exact. Its storage is allocated
/// once, at construction, so a push never allocates.
struct Ring<T> {
    items: Vec<T>,
    capacity: usize,
    total: u64,
}

impl<T> Ring<T> {
    // fastbn: allow(hot-alloc): ring construction — once per tracer, in
    // `Tracer::new`, off the record path.
    fn with_capacity(capacity: usize) -> Ring<T> {
        Ring {
            items: Vec::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else if self.capacity > 0 {
            self.items[(self.total % self.capacity as u64) as usize] = item;
        }
        self.total += 1;
    }

    /// The retained entries, oldest first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        // Until the ring wraps, `total == len` and this splits at 0.
        let oldest = (self.total % self.items.len().max(1) as u64) as usize;
        let (newer, older) = self.items.split_at(oldest);
        older.iter().chain(newer)
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("total", &self.total)
            .finish()
    }
}

/// The tracing authority for one server: id minting, sampling, span
/// storage, slow-query log. `Send + Sync`; share behind an `Arc`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    config: TraceConfig,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    spans: Mutex<Ring<SpanRecord>>,
    names: Mutex<Vec<String>>,
    slow: Mutex<Ring<SlowEntry>>,
}

impl Tracer {
    /// A tracer with the given configuration. Its span and slow-query
    /// rings are allocated here, once, and freed with the tracer.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            spans: Mutex::new(Ring::with_capacity(config.ring_capacity)),
            names: Mutex::new(Vec::with_capacity(8)),
            slow: Mutex::new(Ring::with_capacity(config.slow_capacity)),
            config,
        }
    }

    /// The tracer's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Nanoseconds since this tracer was created — the time base every
    /// span's `start_ns` and every slow entry's `at_ns` use.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The configured slow-query threshold in nanoseconds.
    #[inline]
    pub fn slow_threshold_ns(&self) -> u64 {
        u64::try_from(self.config.slow_threshold.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Mints a trace id and takes the head-sampling decision. Called
    /// once per request at admission.
    #[inline]
    pub fn begin_trace(&self) -> TraceToken {
        let trace = self.next_trace.fetch_add(1, Ordering::Relaxed) + 1;
        let sampled =
            self.config.sample_every > 0 && trace.is_multiple_of(self.config.sample_every);
        TraceToken { trace, sampled }
    }

    /// Mints a span id (unique within this tracer, never 0).
    #[inline]
    pub fn next_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one completed span, overwriting the oldest once the
    /// ring is full: a lock, a copy and an unlock — no allocation.
    #[inline]
    pub fn record(&self, rec: &SpanRecord) {
        lock(&self.spans).push(*rec);
    }

    /// Appends to the slow-query log (bounded ring, oldest overwritten;
    /// the total count stays exact). Cold by definition — only requests
    /// over the threshold get here.
    pub fn record_slow(&self, entry: SlowEntry) {
        lock(&self.slow).push(entry);
    }

    /// Exact count of requests that ever exceeded the slow threshold
    /// (including entries since overwritten).
    pub fn slow_total(&self) -> u64 {
        lock(&self.slow).total
    }

    /// Total spans ever recorded (including spans since overwritten).
    pub fn spans_recorded(&self) -> u64 {
        lock(&self.spans).total
    }

    // fastbn: allow(hot-alloc): name interning — once per distinct
    // name (model ids at admission), never on the span record path.
    /// Interns a span name, returning a stable [`NameId`]. Well-known
    /// stage names resolve to their pre-interned constants.
    pub fn intern(&self, name: &str) -> NameId {
        if let Some(i) = WELL_KNOWN.iter().position(|w| *w == name) {
            return NameId(i as u32);
        }
        let mut names = lock(&self.names);
        if let Some(i) = names.iter().position(|n| n == name) {
            return NameId(FIRST_DYNAMIC + i as u32);
        }
        names.push(name.to_string());
        NameId(FIRST_DYNAMIC + names.len() as u32 - 1)
    }

    // fastbn: allow(hot-alloc): diagnostic read path.
    /// The string a [`NameId`] was interned from (`"?"` for ids this
    /// tracer never issued).
    pub fn name(&self, id: NameId) -> String {
        let i = id.0 as usize;
        if i < WELL_KNOWN.len() {
            return WELL_KNOWN[i].to_string();
        }
        let names = lock(&self.names);
        names
            .get(i - WELL_KNOWN.len())
            .map(|s| s.as_str())
            .unwrap_or("?")
            .to_string()
    }

    // fastbn: allow(hot-alloc): diagnostic read path (introspection
    // endpoint / trace bin), not on the record path.
    /// Copies of every retained span, oldest first.
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        lock(&self.spans).iter().copied().collect()
    }

    // fastbn: allow(hot-alloc): diagnostic read path.
    /// The most recent `max` traces (by latest span start), each with
    /// its spans sorted by start time then span id.
    pub fn recent_traces(&self, max: usize) -> Vec<TraceView> {
        let mut spans = self.recent_spans();
        spans.sort_by_key(|s| (s.trace, s.start_ns, s.span));
        let mut traces: Vec<TraceView> = Vec::with_capacity(16);
        for span in spans {
            match traces.last_mut() {
                Some(t) if t.trace == span.trace => t.spans.push(span),
                _ => traces.push(TraceView {
                    trace: span.trace,
                    spans: vec![span],
                }),
            }
        }
        // Most recent trace first, by its latest span start.
        traces.sort_by_key(|t| std::cmp::Reverse(t.spans.iter().map(|s| s.start_ns).max()));
        traces.truncate(max);
        traces
    }

    // fastbn: allow(hot-alloc): diagnostic read path.
    /// The slow-query log, oldest first.
    pub fn slow_entries(&self) -> Vec<SlowEntry> {
        lock(&self.slow).iter().cloned().collect()
    }

    // fastbn: allow(hot-alloc): diagnostic read path.
    /// The `/traces/recent` JSON document: `{"traces": [{"trace",
    /// "spans": [{"span","parent","name","start_ns","dur_ns","tag",
    /// "aux"}]}]}`, most recent trace first.
    pub fn traces_json(&self, max: usize) -> Json {
        let traces: Vec<Json> = self
            .recent_traces(max)
            .iter()
            .map(|t| {
                let spans: Vec<Json> = t
                    .spans
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .set("span", s.span)
                            .set("parent", s.parent)
                            .set("name", self.name(s.name))
                            .set("start_ns", s.start_ns)
                            .set("dur_ns", s.dur_ns)
                            .set("tag", s.tag)
                            .set("aux", s.aux)
                    })
                    .collect();
                Json::obj().set("trace", t.trace).set("spans", spans)
            })
            .collect();
        Json::obj().set("traces", traces)
    }

    // fastbn: allow(hot-alloc): diagnostic read path.
    /// The `/traces/slow` JSON document: `{"total", "threshold_ns",
    /// "entries": [{"trace","model","total_ns","queue_ns","compute_ns",
    /// "batch","sampled","at_ns"}]}`, oldest entry first.
    pub fn slow_json(&self) -> Json {
        let entries: Vec<Json> = self
            .slow_entries()
            .iter()
            .map(|e| {
                Json::obj()
                    .set("trace", e.trace)
                    .set("model", e.model.as_str())
                    .set("total_ns", e.total_ns)
                    .set("queue_ns", e.queue_ns)
                    .set("compute_ns", e.compute_ns)
                    .set("batch", e.batch)
                    .set("sampled", e.sampled)
                    .set("at_ns", e.at_ns)
            })
            .collect();
        Json::obj()
            .set("total", self.slow_total())
            .set("threshold_ns", self.slow_threshold_ns())
            .set("entries", entries)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rec(trace: u64, span: u64, parent: u64, name: NameId, start: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            name,
            start_ns: start,
            dur_ns: 10,
            tag: 0,
            aux: 0,
        }
    }

    #[test]
    fn spans_round_trip_through_the_ring() {
        let tracer = Tracer::new(TraceConfig::default());
        let root = tracer.next_span();
        let child = tracer.next_span();
        tracer.record(&rec(7, root, 0, SPAN_REQUEST, 100));
        tracer.record(&rec(7, child, root, SPAN_COMPUTE, 120));
        let traces = tracer.recent_traces(10);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].trace, 7);
        assert_eq!(traces[0].spans.len(), 2);
        assert_eq!(traces[0].spans[0].name, SPAN_REQUEST);
        assert_eq!(traces[0].spans[1].parent, root);
        assert_eq!(tracer.spans_recorded(), 2);
    }

    #[test]
    fn ring_overwrites_oldest_spans() {
        let tracer = Tracer::new(TraceConfig {
            ring_capacity: 8,
            ..TraceConfig::default()
        });
        for i in 0..20u64 {
            tracer.record(&rec(1, i + 1, 0, SPAN_COMPUTE, i));
        }
        let spans = tracer.recent_spans();
        assert_eq!(spans.len(), 8, "capacity bounds retained spans");
        // Only the newest 8 remain.
        let min_start = spans.iter().map(|s| s.start_ns).min().unwrap();
        assert_eq!(min_start, 12);
        assert_eq!(tracer.spans_recorded(), 20);
    }

    #[test]
    fn head_sampling_is_one_in_n() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 4,
            ..TraceConfig::default()
        });
        let sampled = (0..100).filter(|_| tracer.begin_trace().sampled).count();
        assert_eq!(sampled, 25);

        let never = Tracer::new(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        assert!((0..50).all(|_| !never.begin_trace().sampled));

        let always = Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        assert!((0..50).all(|_| always.begin_trace().sampled));
    }

    #[test]
    fn trace_ids_are_unique_across_threads() {
        let tracer = std::sync::Arc::new(Tracer::new(TraceConfig::default()));
        let mut ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let tracer = Arc::clone(&tracer);
                    scope.spawn(move || {
                        (0..1000)
                            .map(|_| tracer.begin_trace().trace)
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4000);
    }

    #[test]
    fn slow_log_overwrites_but_counts_exactly() {
        let tracer = Tracer::new(TraceConfig {
            slow_capacity: 4,
            ..TraceConfig::default()
        });
        for i in 0..10u64 {
            tracer.record_slow(SlowEntry {
                trace: i + 1,
                model: "m".to_string(),
                total_ns: 1000 + i,
                queue_ns: 1,
                compute_ns: 2,
                batch: 3,
                sampled: false,
                at_ns: i,
            });
        }
        assert_eq!(tracer.slow_total(), 10);
        let entries = tracer.slow_entries();
        assert_eq!(entries.len(), 4);
        // Oldest-first, the newest four retained.
        let traces: Vec<u64> = entries.iter().map(|e| e.trace).collect();
        assert_eq!(traces, [7, 8, 9, 10]);
    }

    #[test]
    fn interning_round_trips_and_reuses_ids() {
        let tracer = Tracer::new(TraceConfig::default());
        assert_eq!(tracer.intern("compute"), SPAN_COMPUTE);
        let alarm = tracer.intern("model.alarm");
        assert_eq!(tracer.intern("model.alarm"), alarm);
        let other = tracer.intern("model.insurance");
        assert_ne!(alarm, other);
        assert_eq!(tracer.name(alarm), "model.alarm");
        assert_eq!(tracer.name(SPAN_COLLECT), "collect");
        assert_eq!(tracer.name(NameId(9999)), "?");
    }

    #[test]
    fn concurrent_readers_never_see_torn_spans() {
        let tracer = Tracer::new(TraceConfig {
            ring_capacity: 16,
            ..TraceConfig::default()
        });
        std::thread::scope(|scope| {
            for writer in 0..2u64 {
                let tracer = &tracer;
                scope.spawn(move || {
                    for i in (1..=20_000).map(|i| i * 2 + writer) {
                        // A self-consistent record: all payload words equal.
                        tracer.record(&SpanRecord {
                            trace: i,
                            span: i,
                            parent: i,
                            name: NameId(0),
                            start_ns: i,
                            dur_ns: i,
                            tag: i,
                            aux: i,
                        });
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..2000 {
                        for s in tracer.recent_spans() {
                            let words = [s.span, s.parent, s.start_ns, s.dur_ns, s.tag, s.aux];
                            assert!(words.iter().all(|&w| w == s.trace), "torn span: {s:?}");
                        }
                    }
                });
            }
        });
        assert_eq!(tracer.spans_recorded(), 40_000, "every span counted");
    }

    #[test]
    fn json_documents_parse_and_carry_names() {
        let tracer = Tracer::new(TraceConfig::default());
        let root = tracer.next_span();
        tracer.record(&rec(42, root, 0, SPAN_REQUEST, 5));
        tracer.record_slow(SlowEntry {
            trace: 42,
            model: "alarm".to_string(),
            total_ns: 123,
            queue_ns: 4,
            compute_ns: 5,
            batch: 6,
            sampled: true,
            at_ns: 7,
        });
        let traces = tracer.traces_json(10);
        let parsed = Json::parse(&traces.to_pretty()).unwrap();
        let list = parsed.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(list[0].get("trace").unwrap().as_u64(), Some(42));
        let span = &list[0].get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(span.get("name").unwrap().as_str(), Some("request"));

        let slow = tracer.slow_json();
        let parsed = Json::parse(&slow.to_pretty()).unwrap();
        assert_eq!(parsed.get("total").unwrap().as_u64(), Some(1));
        let entry = &parsed.get("entries").unwrap().as_arr().unwrap()[0];
        assert_eq!(entry.get("model").unwrap().as_str(), Some("alarm"));
        assert_eq!(entry.get("sampled"), Some(&Json::Bool(true)));
    }
}

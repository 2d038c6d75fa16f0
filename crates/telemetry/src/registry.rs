//! The [`MetricsRegistry`]: named metric families with a consistent
//! [`MetricsRegistry::snapshot`].
//!
//! A registry is the unit of wiring: a server (or a bench run) creates
//! one, every instrumented component registers its counters and
//! histograms **by name** against it, and one `snapshot()` call turns
//! the whole family into an immutable, JSON-serializable record.
//! Registration takes a lock; *recording* never does — `counter()` /
//! `histogram()` hand back `Arc`s that call sites resolve once and hit
//! with plain atomics thereafter.
//!
//! # Naming convention
//!
//! Dotted paths, coarse-to-fine: `serve.submitted`,
//! `serve.stage.queue_wait_ns`, `serve.model.alarm.completed`,
//! `pool.regions_started`, `model.alarm.cache.hits`. Histogram names
//! end in a unit suffix (`_ns`). Nothing enforces this, but the
//! emitted JSON sorts by name, so a consistent scheme is what makes
//! the output scannable.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::counter::Counter;
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::Json;

/// A named family of counters, gauges, and latency histograms. `Send +
/// Sync`; share it behind an `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter named `name`, created on first use. Resolve once and
    /// keep the `Arc`; recording through it is lock-free.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Sets a gauge — a point-in-time value written by an *exporter*
    /// (cache occupancy, pool width, models resident) rather than
    /// accumulated on a hot path.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), value);
    }

    /// An immutable copy of every registered metric. Counters read with
    /// the snapshot discipline of their writers (a single relaxed load
    /// here; pipeline-staged counters guarantee their inequalities at
    /// the writer side); histograms copy their bucket arrays.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Lock order: counters, gauges, histograms — uncontended in
        // practice (snapshots are rare, registration is rarer).
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, counter)| (name.clone(), counter.get_seq()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// One consistent copy of a registry's metrics, ready for assertions or
/// JSON export.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when never registered — counters start at
    /// zero, so absence and zero are deliberately indistinguishable).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, if an exporter wrote it.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Serializes to the stable **metrics schema v1**: three
    /// name-sorted maps; histograms as summaries
    /// (`count/sum_ns/mean_ns/p50_ns/p90_ns/p99_ns/max_ns`), not raw
    /// bucket arrays — the summaries are what trend files diff.
    pub fn to_json(&self) -> Json {
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        Json::obj()
                            .set("count", h.count)
                            .set("sum_ns", h.sum)
                            .set("mean_ns", h.mean())
                            .set("p50_ns", h.p50())
                            .set("p90_ns", h.p90())
                            .set("p99_ns", h.p99())
                            .set("max_ns", h.max),
                    )
                })
                .collect(),
        );
        Json::obj()
            .set("counters", &self.counters)
            .set("gauges", &self.gauges)
            .set("histograms", histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_is_per_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("serve.submitted");
        let b = registry.counter("serve.submitted");
        let c = registry.counter("serve.completed");
        assert!(Arc::ptr_eq(&a, &b), "same name, same counter");
        assert!(!Arc::ptr_eq(&a, &c));
        a.inc();
        b.add(2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.submitted"), 3);
        assert_eq!(snap.counter("serve.completed"), 0);
        assert_eq!(snap.counter("never.registered"), 0);
    }

    #[test]
    fn snapshot_serializes_sorted_and_round_trips() {
        let registry = MetricsRegistry::new();
        registry.counter("b.count").add(7);
        registry.counter("a.count").add(3);
        registry.set_gauge("pool.threads", 4);
        registry.histogram("lat_ns").record(100);
        let json = registry.snapshot().to_json();
        let text = json.to_pretty();
        // BTreeMap ordering: "a.count" serialized before "b.count".
        assert!(text.find("a.count").unwrap() < text.find("b.count").unwrap());
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("counters")
                .unwrap()
                .get("b.count")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(
            back.get("gauges")
                .unwrap()
                .get("pool.threads")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        let lat = back.get("histograms").unwrap().get("lat_ns").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(1));
        assert!(lat.get("p99_ns").unwrap().as_u64().unwrap() >= 100);
    }
}

//! Prometheus text-format exposition for [`MetricsSnapshot`].
//!
//! Emits the text format (version 0.0.4) scrapers understand: counters
//! and gauges as single samples, histograms as **summaries** — the
//! `quantile`-labelled p50/p90/p99 samples plus the `_sum` and `_count`
//! series (the torn-read-safe `sum`/`count` snapshot fields make both
//! exact at quiescence). Dotted fastbn metric names (`serve.submitted`)
//! become Prometheus-legal underscored ones (`serve_submitted`);
//! everything stays name-sorted because the snapshot maps are. Two
//! names that sanitize alike (`alarm-v2`, `alarm_v2`) would print one
//! family twice, and a scraper rejects the whole exposition for it: the
//! first keeps the name, and each later one, in the snapshot's order,
//! takes the first free suffix `_2`, `_3`, ….

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::registry::MetricsSnapshot;

/// A metric name with every Prometheus-illegal character replaced by
/// `_` (legal: `[a-zA-Z0-9_:]`, non-digit lead).
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal =
            c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit());
        if legal {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot as Prometheus text exposition (version 0.0.4).
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let sanitized: HashSet<String> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .map(|n| sanitize(n))
        .collect();
    // A name taken already gets the first suffix no metric sanitizes to.
    let mut printed = HashSet::new();
    let mut family = |name: &str| {
        let base = sanitize(name);
        if printed.insert(base.clone()) {
            return base;
        }
        (2..)
            .map(|i| format!("{base}_{i}"))
            .find(|n| !sanitized.contains(n) && printed.insert(n.clone()))
            .unwrap_or(base)
    };
    let counters = snap.counters.iter().map(|(n, v)| (n, v, "counter"));
    let gauges = snap.gauges.iter().map(|(n, v)| (n, v, "gauge"));
    for (name, value, kind) in counters.chain(gauges) {
        let name = family(name);
        let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
    }
    for (name, h) in &snap.histograms {
        let name = family(name);
        let _ = writeln!(out, "# TYPE {name} summary");
        for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("serve.stage.compute_ns"), "serve_stage_compute_ns");
        assert_eq!(sanitize("model.alarm-v2.hits"), "model_alarm_v2_hits");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok:name_1"), "ok:name_1");
    }

    #[test]
    fn exposition_has_types_quantiles_sum_and_count() {
        let registry = MetricsRegistry::new();
        registry.counter("serve.completed").add(5);
        registry.set_gauge("pool.threads", 8);
        let h = registry.histogram("serve.request.total_ns");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let text = prometheus_text(&registry.snapshot());
        assert!(text.contains("# TYPE serve_completed counter\nserve_completed 5\n"));
        assert!(text.contains("# TYPE pool_threads gauge\npool_threads 8\n"));
        assert!(text.contains("# TYPE serve_request_total_ns summary"));
        assert!(text.contains("serve_request_total_ns{quantile=\"0.5\"}"));
        assert!(text.contains("serve_request_total_ns{quantile=\"0.99\"}"));
        assert!(text.contains("serve_request_total_ns_sum 600\n"));
        assert!(text.contains("serve_request_total_ns_count 3\n"));
    }

    #[test]
    fn every_line_is_well_formed() {
        let registry = MetricsRegistry::new();
        registry.counter("a.b").inc();
        registry.histogram("lat_ns").record(42);
        let text = prometheus_text(&registry.snapshot());
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || {
                    let mut parts = line.rsplitn(2, ' ');
                    let value = parts.next().unwrap();
                    let name = parts.next().unwrap_or("");
                    !name.is_empty() && value.parse::<f64>().is_ok()
                },
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn names_that_sanitize_alike_get_unique_families() {
        let registry = MetricsRegistry::new();
        registry.counter("serve.model.alarm-v2.completed").add(1);
        registry.counter("serve.model.alarm_v2.completed").add(2);
        registry.counter("serve.model.alarm_v2.completed_2").add(3);
        registry.set_gauge("serve.model.alarm.v2.completed", 4);
        registry
            .histogram("serve.model.alarm v2.completed")
            .record(5);
        let text = prometheus_text(&registry.snapshot());
        let mut families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert_eq!(
            families,
            [
                "serve_model_alarm_v2_completed counter",
                "serve_model_alarm_v2_completed_3 counter",
                // A name nothing collides with keeps it.
                "serve_model_alarm_v2_completed_2 counter",
                "serve_model_alarm_v2_completed_4 gauge",
                "serve_model_alarm_v2_completed_5 summary",
            ]
        );
        for sample in [
            "completed 1",
            "completed_3 2",
            "completed_2 3",
            "completed_4 4",
        ] {
            assert!(text.contains(&format!("serve_model_alarm_v2_{sample}\n")));
        }
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), 5, "every # TYPE name is unique");
    }
}

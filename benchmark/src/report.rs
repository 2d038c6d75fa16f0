//! The metric vocabulary (names, units, directions, bounds — mirrored by
//! `BENCHMARK.json`, and a test holds the two together) and how a run's
//! result is printed.

use fastbn::telemetry::Json;

use crate::machine::Machine;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all of them
/// from its clean run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("qps", "ops/s", Higher, 0.25),
    e2e("seq_qps", "ops/s", Higher, 0.25),
    e2e("par_speedup", "ratio", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("p95_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single layers, measured from outside through public functions in the
/// traced run. Layer = crate name.
pub const PER_LAYER: &[MetricDef] = &[
    layer("bayesnet.generate_ms", "ms", Lower),
    layer("bayesnet.bif_parse_ms", "ms", Lower),
    layer("bayesnet.bif_bytes", "count", Lower),
    layer("jtree.build_ms", "ms", Lower),
    layer("jtree.cliques", "count", Lower),
    layer("jtree.layers", "count", Lower),
    layer("jtree.max_clique_entries", "count", Lower),
    layer("jtree.total_clique_entries", "count", Lower),
    layer("inference.prepare_ms", "ms", Lower),
    layer("inference.solver_build_ms", "ms", Lower),
    layer("potential.entries_per_pass", "count", Lower),
    layer("potential.bytes_per_pass", "count", Lower),
    layer("potential.share_identity", "share", Higher),
    layer("potential.share_inner", "share", Higher),
    layer("potential.share_outer", "share", Higher),
    layer("potential.share_generic", "share", Lower),
    layer("potential.marg_ns_per_entry", "ns", Lower),
    layer("potential.extmul_ns_per_entry", "ns", Lower),
    layer("potential.kernel_pass_us", "us", Lower),
    layer("potential.kernel_share", "share", Lower),
    layer("parallel.dispatch_hot_us", "us", Lower),
    layer("parallel.dispatch_handoff_us", "us", Lower),
    layer("parallel.dispatch_parked_us", "us", Lower),
    layer("parallel.dispatch_t1_us", "us", Lower),
    layer("parallel.regions_per_op", "1/op", Lower),
    layer("parallel.items_per_region", "count", Higher),
    layer("parallel.dispatch_share", "share", Lower),
    layer("process.ctx_switches_per_op", "1/op", Lower),
    layer("process.p99_us", "us", Lower),
    layer("inference.seq.reset_us", "us", Lower),
    layer("inference.seq.evidence_us", "us", Lower),
    layer("inference.seq.propagate_us", "us", Lower),
    layer("inference.seq.extract_us", "us", Lower),
    layer("inference.par.reset_us", "us", Lower),
    layer("inference.par.evidence_us", "us", Lower),
    layer("inference.par.propagate_us", "us", Lower),
    layer("inference.par.extract_us", "us", Lower),
    layer("inference.run_us", "us", Lower),
    layer("inference.unaccounted_share", "share", Lower),
    layer("inference.hybrid_t1_qps", "ops/s", Higher),
    layer("inference.batch_qps", "ops/s", Higher),
    layer("inference.cache_hit_us", "us", Lower),
    layer("inference.cache_hit_ratio", "ratio", Higher),
    layer("inference.live_apply_us", "us", Lower),
    layer("inference.live_read_us", "us", Lower),
    layer("inference.live_full_read_us", "us", Lower),
    layer("inference.live_vs_scratch", "ratio", Higher),
    layer("registry.admission_us", "us", Lower),
    layer("registry.queue_wait_us", "us", Lower),
    layer("registry.window_us", "us", Lower),
    layer("registry.compute_us", "us", Lower),
    layer("registry.delivery_us", "us", Lower),
    layer("registry.batch_size_mean", "count", Higher),
    layer("registry.dedup_hits", "count", Higher),
    layer("registry.noop_roundtrip_us", "us", Lower),
    layer("serve.noop_roundtrip_us", "us", Lower),
    layer("telemetry.trace_overhead_share", "share", Lower),
    layer("telemetry.bench_trace_overhead_share", "share", Lower),
    layer("telemetry.spans_recorded", "count", Lower),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One measured metric: the value (a median where it has samples), the
/// inter-quartile range of those samples, and how many there were.
#[derive(Debug, Clone)]
pub struct Measured {
    pub def: &'static MetricDef,
    pub value: f64,
    pub iqr: f64,
    pub samples: usize,
    pub note: String,
}

/// The metrics of one run, filled by name against one vocabulary.
pub struct Metrics {
    defs: &'static [MetricDef],
    pub values: Vec<Measured>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: Vec::with_capacity(defs.len()),
        }
    }

    /// A metric with a spread: `value` is the median of `samples` values
    /// whose inter-quartile range is `iqr`.
    pub fn set_spread(&mut self, name: &str, value: f64, iqr: f64, samples: usize, note: &str) {
        let def = self
            .defs
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"));
        assert!(
            self.get(name).is_none(),
            "metric {name} reported more than once"
        );
        self.values.push(Measured {
            def,
            value,
            iqr,
            samples,
            note: note.to_string(),
        });
    }

    /// A single reading (a count, or one measurement).
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_spread(name, value, 0.0, 1, "");
    }

    /// Median and IQR of per-slice samples.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.set_spread(
            name,
            crate::stats::median(samples),
            crate::stats::iqr(samples),
            samples.len(),
            "",
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// Names of the vocabulary not reported yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .map(|d| d.name)
            .filter(|n| self.get(n).is_none())
            .collect()
    }
}

/// Everything one run of one workload reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Set by `--quick`: numbers from such a run compare with nothing.
    pub quick: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Report {
    /// The full result: what `all` collects and `compare` reads.
    pub fn detail_json(&self, machine: &Machine) -> Json {
        let metrics = self.metrics.values.iter().fold(Json::obj(), |obj, m| {
            let mut entry = Json::obj()
                .set("value", m.value)
                .set("unit", m.def.unit)
                .set("iqr", m.iqr)
                .set("samples", m.samples);
            if !m.note.is_empty() {
                entry = entry.set("note", m.note.as_str());
            }
            obj.set(m.def.name, entry)
        });
        Json::obj()
            .set("workload", self.workload)
            .set("seed", self.seed)
            .set("seconds", self.seconds)
            .set("trace", u64::from(self.traced))
            .set("comparable", !self.quick)
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set(
                "failed_ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
            .set("machine", machine.to_json())
            .set("metrics", metrics)
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    /// After a wrong answer no number is printed: `metrics` is empty.
    pub fn result_json(&self) -> Json {
        let metrics = if self.correct {
            self.metrics.values.iter().fold(Json::obj(), |obj, m| {
                obj.set(
                    m.def.name,
                    Json::obj().set("value", m.value).set("unit", m.def.unit),
                )
            })
        } else {
            Json::obj()
        };
        Json::obj()
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
    }

    /// Prints every metric by name with its unit, the detail line, and
    /// the result object as the last line.
    pub fn print(&self, machine: &Machine) {
        println!(
            "# {} seed {} {} run, {} s measured{}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "clean" },
            self.seconds,
            if self.quick {
                " — QUICK MODE: smoke check only, not comparable with any other run"
            } else {
                ""
            }
        );
        if let Some(workload) = crate::model::Workload::from_name(self.workload) {
            println!("# why: {}", workload.why());
        }
        println!(
            "# machine: nproc {} T {} | {} | {} | load {:.2}",
            machine.nproc, machine.threads, machine.cpu_model, machine.rustc, machine.load_1m
        );
        println!(
            "# ops attempted {} succeeded {} failed {} (failed_ratio {})",
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for note in &self.notes {
            println!("# {note}");
        }
        if self.correct {
            for m in &self.metrics.values {
                let spread = if m.samples > 1 {
                    format!("  (iqr {:.4}, n {})", m.iqr, m.samples)
                } else {
                    String::new()
                };
                println!(
                    "{:<40} {:>16.4} {:<6}{spread} {}",
                    m.def.name, m.value, m.def.unit, m.note
                );
            }
        } else {
            println!("# answers were wrong: no numbers are reported");
        }
        println!("detail {}", compact(&self.detail_json(machine)));
        println!("{}", compact(&self.result_json()));
    }
}

/// `Json` on one line (the codec's own writer only pretty-prints).
pub fn compact(json: &Json) -> String {
    match json {
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(entries) => {
            let inner: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("{}:{}", compact(&Json::Str(k.clone())), compact(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        // Scalars have no line breaks in the pretty form either.
        scalar => scalar.to_pretty().trim_end().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    /// `BENCHMARK.json` and the harness name the same workloads and the
    /// same metrics with the same units, directions and bounds.
    #[test]
    fn manifest_matches_the_harness() {
        let m = manifest();
        let workloads: Vec<(&str, &str)> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(&str, &str)> = crate::model::Workload::ALL
            .iter()
            .map(|w| (w.name(), w.why()))
            .collect();
        assert_eq!(workloads, expected);

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = m.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(field(entry, "name"), def.name);
                assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(entry, "better"), def.better.as_str(), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let j = Json::obj()
            .set("a", 1.5)
            .set("b", Json::Arr(vec![Json::from(true), Json::Null]))
            .set("c \"quoted\"", "x\ny");
        let line = compact(&j);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), j);
    }

    #[test]
    fn a_wrong_run_prints_no_numbers() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("qps", 10.0);
        let report = Report {
            workload: "w",
            seed: 1,
            seconds: 1.0,
            traced: false,
            quick: false,
            correct: false,
            attempted: 5,
            failed: 1,
            metrics,
            notes: vec![],
        };
        assert_eq!(report.result_json().get("metrics"), Some(&Json::obj()));
    }
}

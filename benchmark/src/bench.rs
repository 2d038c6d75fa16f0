//! One run of one workload: the clean run (end-to-end metrics, no
//! spans) and the traced run (per-layer metrics, the harness's own spans
//! around every call into a layer).

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::jtree::build_junction_tree;
use fastbn::{
    make_engine, BayesianNetwork, EngineKind, JtreeOptions, Solver, ThreadPool, TraceConfig, Tracer,
};

use crate::check::{compare_lanes, oracle_check, Tally};
use crate::layers;
use crate::live::{self, LiveRunner};
use crate::machine::{Machine, Usage};
use crate::model::{
    build_models, caches, cold_setup, start_server, Config, Model, Served, Workload,
};
use crate::report::{Metrics, Report, END_TO_END, PER_LAYER};
use crate::runner::{measure_pairs, overhead_share, Runner, Samples};
use crate::scratch::{self, HandRunner, ScratchRunner};
use crate::served::{self, ServedRunner, IN_FLIGHT};
use crate::spans::{durations_of, totals_by_name, write_trace, Recorder, Span};
use crate::stats::{iqr, median, midmean_u64};
use crate::streams::{CaseStream, ModelTraffic};

/// Interleaved (product, baseline) slice pairs of a clean run. A shorter
/// run shortens the slices, never their number.
const PAIRS: usize = 10;
/// Evidence sets per model the served gate replays in every mode.
const SERVED_GATE_SETS: usize = 8;
/// Ops the live gate checks against from-scratch queries.
const LIVE_GATE_OPS: usize = 32;
/// Evidence sets of the served probe on a workload that does not serve.
const PROBE_SETS: usize = 64;
/// Spans one recording thread may keep of the workload's own loop (up
/// to five per op), and of a probe loop: a probe's figures need a few
/// thousand ops, not a hundred-megabyte trace file. Later spans are
/// dropped.
const OWN_SPAN_CAPACITY: usize = 1 << 20;
const PROBE_SPAN_CAPACITY: usize = 1 << 15;

pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of timed measurement.
    pub seconds: f64,
    /// Smoke mode: 3 slice pairs (so 4 set-ups); comparable with nothing.
    pub quick: bool,
}

impl Plan {
    fn pairs(&self) -> usize {
        if self.quick {
            3
        } else {
            PAIRS
        }
    }

    fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    fn report(&self, traced: bool) -> Report {
        Report {
            workload: self.workload.name(),
            seed: self.seed,
            seconds: self.seconds,
            traced,
            quick: self.quick,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::new(if traced { PER_LAYER } else { END_TO_END }),
            notes: Vec::new(),
        }
    }
}

/// The traffic of `served-mix`: the first model cached and Zipf-popular,
/// the others uncached and uniform; or, for the served probe of another
/// workload, its one network with the same query-mode mix.
fn traffic_for(models: &[Model], sets: usize, seed: u64) -> Vec<ModelTraffic> {
    models
        .iter()
        .enumerate()
        .map(|(i, m)| ModelTraffic::new(&m.id, &m.net, sets, caches(i, models.len()), seed))
        .collect()
}

fn serve(models: &[Model], config: Config, threads: usize, tracer: Option<Arc<Tracer>>) -> Served {
    let nets: Vec<(&str, &BayesianNetwork)> =
        models.iter().map(|m| (m.id.as_str(), &m.net)).collect();
    start_server(&nets, config, threads, tracer)
}

/// Folds finished runners of one input stream into the report: each
/// one's tally, and the rolling checksums of every runner after the first
/// against the first's.
fn settle(report: &mut Report, runners: &[&dyn Runner], what: &str) {
    for runner in runners {
        let tally = runner.tally();
        report.attempted += tally.attempted;
        report.failed += tally.failed;
    }
    for other in &runners[1..] {
        let (compared, mismatched) = compare_lanes(&runners[0].lanes(), &other.lanes());
        report.notes.push(format!(
            "{what}: {compared} checksum checkpoints compared, {mismatched} differ"
        ));
        // No common checkpoint means a runner answered nothing.
        report.failed += mismatched as u64 + u64::from(compared == 0);
    }
}

fn fail(report: &mut Report, tally: Tally, why: String) {
    report.attempted += tally.attempted;
    report.failed += tally.failed.max(1);
    report.correct = false;
    report.notes.push(format!("correctness gate failed: {why}"));
}

/// The clean run: the correctness gate, then interleaved product and
/// baseline slices with no spans anywhere, cold set-ups in between.
pub fn clean_run(plan: &Plan, machine: &Machine) -> Report {
    let mut report = plan.report(false);
    let threads = machine.threads;
    // One cold set-up after the warm-up and one after every slice pair:
    // `setup_s` is the median of pairs + 1 (eleven) complete set-ups.
    let mut setups: Vec<f64> = Vec::new();
    let mut set_up = || setups.push(cold_setup(plan.workload, threads).as_secs_f64());
    let models = build_models(plan.workload, threads, &mut Recorder::disabled());
    let mut gate = Tally::default();
    let measured = gate_and_measure(plan, &models, threads, &mut gate, &mut report, &mut set_up);
    let (mut product, baseline, speedups) = match measured {
        Ok(m) => m,
        Err(why) => {
            fail(&mut report, gate, why);
            return report;
        }
    };
    report.attempted += gate.attempted;
    report.failed += gate.failed;
    report.correct = report.failed == 0;

    let m = &mut report.metrics;
    m.set_samples("qps", &product.qps);
    m.set_samples("seq_qps", &baseline.qps);
    m.set_samples("par_speedup", &speedups);
    let (p50, _, n) = product.percentile_us(0.50);
    m.set_spread("p50_us", p50, iqr(&product.p50_us), n, "");
    let (p95, p, n) = product.percentile_us(0.95);
    let note = if p < 0.95 {
        format!("p{:.0}: too few samples for p95", p * 100.0)
    } else {
        String::new()
    };
    m.set_spread("p95_us", p95, iqr(&product.p95_us), n, &note);
    m.set_samples("cpu_us_per_op", &product.cpu_us_per_op);
    m.set_samples("setup_s", &setups);
    m.set("peak_rss_mb", Usage::now().peak_rss_mb);
    report
}

/// The correctness gate of the workload, then its timed slice pairs. An
/// `Err` is a gate failure: nothing was timed.
fn gate_and_measure(
    plan: &Plan,
    models: &[Model],
    threads: usize,
    gate: &mut Tally,
    report: &mut Report,
    between: &mut dyn FnMut(),
) -> Result<(Samples, Samples, Vec<f64>), String> {
    let (primary, pool, seed) = (&models[0], plan.workload.case_pool(), plan.seed);
    for m in models {
        oracle_check(m, seed, gate)?;
    }
    let mut timed = |a: &mut dyn Runner, b: &mut dyn Runner| {
        let pairs = plan.pairs();
        let slice = plan.secs(1.0 / (2 * pairs) as f64);
        let warmup = plan.secs(1.0 / 6.0).min(Duration::from_secs(2));
        let out = measure_pairs(a, b, pairs, slice, warmup, between);
        settle(report, &[&*a, &*b], "timed run");
        out
    };
    match plan.workload {
        Workload::SmallCliques | Workload::LargeCliques => {
            scratch::gate(primary, pool, seed, gate)?;
            let mut a = ScratchRunner::new(&primary.product, primary, pool, seed);
            let mut b = ScratchRunner::new(&primary.baseline, primary, pool, seed);
            Ok(timed(&mut a, &mut b))
        }
        Workload::ServedMix => {
            let traffic = traffic_for(models, pool, seed);
            let product = serve(models, Config::Product, threads, None);
            let baseline = serve(models, Config::Baseline, threads, None);
            let references: Vec<&Solver> = models.iter().map(|m| &*m.baseline).collect();
            for served in [&product, &baseline] {
                served::gate(
                    &served.server,
                    &traffic,
                    &references,
                    SERVED_GATE_SETS,
                    gate,
                )?;
            }
            let mut a = ServedRunner::new(&product.server, &traffic, threads, seed, "op", None);
            let mut b = ServedRunner::new(&baseline.server, &traffic, threads, seed, "op", None);
            let out = timed(&mut a, &mut b);
            product.server.shutdown();
            baseline.server.shutdown();
            Ok(out)
        }
        Workload::LiveEdits => {
            for solver in [&primary.product, &primary.baseline] {
                live::against_scratch(primary, solver, seed, LIVE_GATE_OPS, Duration::ZERO, gate)?;
            }
            let mut a =
                LiveRunner::new(&primary.product, primary, seed, "op", Recorder::disabled());
            let mut b =
                LiveRunner::new(&primary.baseline, primary, seed, "op", Recorder::disabled());
            Ok(timed(&mut a, &mut b))
        }
    }
}

/// Interquartile-mean microseconds of the spans called `name`.
fn span_us(spans: &[Span], name: &str) -> f64 {
    midmean_u64(&durations_of(spans, name)) / 1e3
}

/// Sum, in milliseconds, of the spans called `name`.
fn span_sum_ms(spans: &[Span], name: &str) -> f64 {
    durations_of(spans, name).iter().sum::<u64>() as f64 / 1e6
}

/// Plain and instrumented slices of one configuration, interleaved, with
/// the pool's region counters read around the plain ones.
struct MainLoop {
    plain: Samples,
    traced: Samples,
    /// A second instrumented variant, when the loop has one.
    extra: Samples,
    regions_per_op: f64,
    items_per_region: f64,
}

fn main_loop(
    plain: &mut dyn Runner,
    traced: &mut dyn Runner,
    mut extra: Option<&mut dyn Runner>,
    pool: &ThreadPool,
    rounds: usize,
    slice: Duration,
) -> MainLoop {
    let mut out = MainLoop {
        plain: Samples::default(),
        traced: Samples::default(),
        extra: Samples::default(),
        regions_per_op: 0.0,
        items_per_region: 0.0,
    };
    let (mut regions, mut items) = (0u64, 0u64);
    plain.run_for(slice / 2);
    traced.run_for(slice / 2);
    if let Some(extra) = extra.as_deref_mut() {
        extra.run_for(slice / 2);
    }
    for _ in 0..rounds {
        let before = pool.stats();
        out.plain.slice(plain, slice);
        let after = pool.stats();
        regions += after.regions_started - before.regions_started;
        items += after.items - before.items;
        out.traced.slice(traced, slice);
        if let Some(extra) = extra.as_deref_mut() {
            out.extra.slice(extra, slice);
        }
    }
    let ops = out.plain.ops.iter().sum::<u64>().max(1) as f64;
    out.regions_per_op = regions as f64 / ops;
    out.items_per_region = items as f64 / regions.max(1) as f64;
    out
}

/// The traced run: every per-layer metric, from probes of single layers
/// on the workload's primary network and from the workload's own loop
/// run with the harness's spans.
pub fn traced_run(plan: &Plan, machine: &Machine) -> Report {
    let mut report = plan.report(true);
    let threads = machine.threads;
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0, PROBE_SPAN_CAPACITY);
    // One probe's time budget: the run has about two dozen of them.
    let unit = plan.secs(1.0 / 24.0);
    let rounds = if plan.quick { 1 } else { 3 };
    let pool_size = plan.workload.case_pool();
    let mut spans: Vec<Span> = Vec::new();
    let mut tally = Tally::default();
    // Which path is the workload's own loop (the others are probes).
    let serves = plan.workload == Workload::ServedMix;
    let lives = plan.workload == Workload::LiveEdits;
    let scratches = !serves && !lives;
    let capacity = |own: bool| {
        if own {
            OWN_SPAN_CAPACITY
        } else {
            PROBE_SPAN_CAPACITY
        }
    };

    // Set-up stages, summed over the workload's networks.
    let models = build_models(plan.workload, threads, &mut rec);
    let primary = &models[0];
    let mut counts = [0usize; 4];
    let mut bif_bytes = 0;
    for m in &models {
        rec.scope("jtree.build", || {
            build_junction_tree(&m.net, &JtreeOptions::default())
        });
        let s = m.stats();
        counts[0] += s.num_cliques;
        counts[1] += s.num_layers;
        counts[2] = counts[2].max(s.max_clique_entries);
        counts[3] += s.total_clique_entries;
        bif_bytes += m.bif_bytes;
    }

    let kernels = layers::kernel_replay(&primary.prepared, unit, &mut rec);
    let dispatch = layers::dispatch_probe(threads, unit, &mut rec);
    let dispatch_t1 = layers::dispatch_probe(1, unit / 2, &mut rec);

    // The from-scratch query, driven by hand, in both configurations.
    let hand = |config: Config, label, rec| {
        let engine = make_engine(config.engine(), Arc::clone(&primary.prepared), threads);
        HandRunner::new(engine, primary, pool_size, plan.seed, label, rec)
    };
    let mut seq_hand = hand(
        Config::Baseline,
        "probe.seq",
        Recorder::new(epoch, 10, PROBE_SPAN_CAPACITY),
    );
    let mut seq_plain = ScratchRunner::new(&primary.baseline, primary, pool_size, plan.seed);
    let product_pool = primary
        .product
        .pool_handle()
        .expect("the hybrid engine has a pool");
    let seq_main = main_loop(
        &mut seq_plain,
        &mut seq_hand,
        None,
        &product_pool,
        2,
        unit / 2,
    );
    settle(
        &mut report,
        &[&seq_plain, &seq_hand],
        "baseline: Session::run vs hand-driven",
    );
    let seq_spans = seq_hand.take_spans();
    let run_us = midmean_u64(&seq_main.plain.latencies_ns) / 1e3;

    let t1_solver = Solver::from_prepared(Arc::clone(&primary.prepared))
        .engine(EngineKind::Hybrid)
        .threads(1)
        .build();
    let mut t1 = Samples::default();
    t1.slice(
        &mut ScratchRunner::new(&t1_solver, primary, pool_size, plan.seed),
        unit,
    );

    let queries = CaseStream::new(&primary.net, pool_size, plan.seed).queries;
    let batch_qps = layers::batch_qps(&primary.product, &queries, IN_FLIGHT * threads, unit);
    let cache_hit_us = layers::cache_hit_us(&primary.prepared, &queries[0], unit / 2);

    let (routed_noop_us, single_noop_us) = layers::noop_roundtrips(threads, unit / 2);

    // The served path: the workload's own loop on `served-mix`, a probe
    // with the same query mix on the primary network elsewhere.
    let sets = if serves { pool_size } else { PROBE_SETS };
    let served_models = if serves { &models[..] } else { &models[..1] };
    let traffic = traffic_for(served_models, sets, plan.seed);
    let plain_server = serve(served_models, Config::Product, threads, None);
    let tracer = Arc::new(Tracer::new(TraceConfig::default()));
    let tracer_server = serve(
        served_models,
        Config::Product,
        threads,
        Some(Arc::clone(&tracer)),
    );
    let mut served_plain = ServedRunner::new(
        &plain_server.server,
        &traffic,
        threads,
        plan.seed,
        "op",
        None,
    );
    let mut served_tracer = ServedRunner::new(
        &tracer_server.server,
        &traffic,
        threads,
        plan.seed,
        "op",
        None,
    );
    let served_label = if serves { "op" } else { "probe.served" };
    let mut served_traced = ServedRunner::new(
        &plain_server.server,
        &traffic,
        threads,
        plan.seed,
        served_label,
        Some((epoch, capacity(serves))),
    );
    let served_rounds = if serves { rounds } else { 2 };
    let served_slice = if serves { unit } else { unit / 2 };
    let served_pool = plain_server.registry.pool_handle();
    let served_main = main_loop(
        &mut served_plain,
        &mut served_traced,
        Some(&mut served_tracer),
        &served_pool,
        served_rounds,
        served_slice,
    );
    settle(
        &mut report,
        &[&served_plain, &served_traced, &served_tracer],
        "served: plain vs harness spans, vs server tracer",
    );
    let stage = plain_server.server.metrics_snapshot();
    // Means, not the histograms' p50: a quantile of a log-bucketed
    // histogram is a bucket edge and reads the same run after run.
    let stage_hist = |name: &str| stage.histogram(&format!("serve.stage.{name}_ns"));
    let stage_us = |name: &str| stage_hist(name).map_or(0.0, |h| h.mean() / 1e3);
    let stage_p50_us = |name: &str| stage_hist(name).map_or(0.0, |h| h.p50() as f64 / 1e3);
    let batch_size_mean = stage
        .histogram("serve.batch.size")
        .map_or(0.0, |h| h.mean());
    let dedup_hits = plain_server.server.stats().dedups;
    let cache_hit_ratio = served_models
        .iter()
        .filter_map(|m| plain_server.registry.cache_stats_for(&m.id))
        .map(|s| s.hit_rate())
        .next()
        .unwrap_or(0.0);
    plain_server.server.shutdown();
    tracer_server.server.shutdown();
    spans.extend(served_traced.take_spans());

    // The live path: the workload's own loop on `live-edits`, a probe
    // on the primary network elsewhere.
    let live_label = if lives { "op" } else { "probe.live" };
    let live_rounds = if lives { rounds } else { 1 };
    let mut live_plain = LiveRunner::new(
        &primary.product,
        primary,
        plan.seed,
        "op",
        Recorder::disabled(),
    );
    let mut live_traced = LiveRunner::new(
        &primary.product,
        primary,
        plan.seed,
        live_label,
        Recorder::new(epoch, 20, capacity(lives)),
    );
    let live_main = main_loop(
        &mut live_plain,
        &mut live_traced,
        None,
        &product_pool,
        live_rounds,
        unit,
    );
    settle(
        &mut report,
        &[&live_plain, &live_traced],
        "live: plain vs harness spans",
    );
    let live_spans = live_traced.take_spans();
    let versus = live::against_scratch(
        primary,
        &primary.baseline,
        plan.seed,
        LIVE_GATE_OPS,
        unit,
        &mut tally,
    );

    // The from-scratch path in the product configuration: the workload's
    // own loop on the two from-scratch workloads, a probe elsewhere.
    let par_label = if scratches { "op" } else { "probe.par" };
    let par_rounds = if scratches { rounds } else { 1 };
    let mut par_plain = ScratchRunner::new(&primary.product, primary, pool_size, plan.seed);
    let mut par_hand = hand(
        Config::Product,
        par_label,
        Recorder::new(epoch, 30, capacity(scratches)),
    );
    let scratch_main = main_loop(
        &mut par_plain,
        &mut par_hand,
        None,
        &product_pool,
        par_rounds,
        unit,
    );
    settle(
        &mut report,
        &[&par_plain, &par_hand],
        "product: Session::run vs hand-driven",
    );
    let par_spans = par_hand.take_spans();

    let own = if serves {
        &served_main
    } else if lives {
        &live_main
    } else {
        &scratch_main
    };
    let own_qps = median(&own.plain.qps);

    report.attempted += tally.attempted;
    report.failed += tally.failed;
    let versus = match versus {
        Ok(v) => v,
        Err(why) => {
            fail(&mut report, Tally::default(), why);
            return report;
        }
    };
    report.correct = report.failed == 0;

    let m = &mut report.metrics;
    let setup_spans = rec.into_spans();
    m.set(
        "bayesnet.generate_ms",
        span_sum_ms(&setup_spans, "bayesnet.generate"),
    );
    m.set(
        "bayesnet.bif_parse_ms",
        span_sum_ms(&setup_spans, "bayesnet.bif_parse"),
    );
    m.set("bayesnet.bif_bytes", bif_bytes as f64);
    m.set("jtree.build_ms", span_sum_ms(&setup_spans, "jtree.build"));
    m.set("jtree.cliques", counts[0] as f64);
    m.set("jtree.layers", counts[1] as f64);
    m.set("jtree.max_clique_entries", counts[2] as f64);
    m.set("jtree.total_clique_entries", counts[3] as f64);
    m.set(
        "inference.prepare_ms",
        span_sum_ms(&setup_spans, "inference.prepare"),
    );
    m.set(
        "inference.solver_build_ms",
        span_sum_ms(&setup_spans, "inference.solver_build"),
    );
    m.set(
        "potential.entries_per_pass",
        kernels.entries_per_pass as f64,
    );
    m.set("potential.bytes_per_pass", kernels.bytes_per_pass as f64);
    for (name, share) in ["identity", "inner", "outer", "generic"]
        .iter()
        .zip(kernels.layout_shares)
    {
        m.set(&format!("potential.share_{name}"), share);
    }
    m.set("potential.marg_ns_per_entry", kernels.marg_ns_per_entry);
    m.set("potential.extmul_ns_per_entry", kernels.extmul_ns_per_entry);
    m.set("potential.kernel_pass_us", kernels.pass_us);
    m.set("potential.kernel_share", kernels.pass_us / run_us);
    m.set("parallel.dispatch_hot_us", dispatch.hot_us);
    m.set("parallel.dispatch_handoff_us", dispatch.handoff_us);
    m.set("parallel.dispatch_parked_us", dispatch.parked_us);
    m.set("parallel.dispatch_t1_us", dispatch_t1.hot_us);
    m.set("parallel.regions_per_op", own.regions_per_op);
    m.set("parallel.items_per_region", own.items_per_region);
    m.set(
        "parallel.dispatch_share",
        own.regions_per_op * dispatch.handoff_us / (1e6 / own_qps),
    );
    m.set_samples(
        "process.ctx_switches_per_op",
        &own.plain.ctx_switches_per_op,
    );
    let mut own_latencies = own.plain.latencies_ns.clone();
    own_latencies.sort_unstable();
    m.set_spread(
        "process.p99_us",
        crate::stats::percentile_sorted(&own_latencies, 0.99) as f64 / 1e3,
        0.0,
        own_latencies.len(),
        "diagnostic only",
    );
    let mut parts = 0.0;
    for phase in ["reset", "evidence", "propagate", "extract"] {
        let seq = span_us(&seq_spans, &format!("inference.{phase}"));
        parts += seq;
        m.set(&format!("inference.seq.{phase}_us"), seq);
        m.set(
            &format!("inference.par.{phase}_us"),
            span_us(&par_spans, &format!("inference.{phase}")),
        );
    }
    m.set("inference.run_us", run_us);
    let unaccounted = 1.0 - parts / run_us;
    let flag = if unaccounted.abs() > 0.15 {
        "outside ±0.15"
    } else {
        ""
    };
    m.set_spread("inference.unaccounted_share", unaccounted, 0.0, 1, flag);
    m.set("inference.hybrid_t1_qps", median(&t1.qps));
    m.set("inference.batch_qps", batch_qps);
    m.set("inference.cache_hit_us", cache_hit_us);
    m.set("inference.cache_hit_ratio", cache_hit_ratio);
    m.set(
        "inference.live_apply_us",
        span_us(&live_spans, "inference.live_apply"),
    );
    m.set(
        "inference.live_read_us",
        span_us(&live_spans, "inference.live_read"),
    );
    m.set(
        "inference.live_full_read_us",
        span_us(&live_spans, "inference.live_full_read"),
    );
    m.set(
        "inference.live_vs_scratch",
        versus.scratch_s / versus.live_s,
    );
    for stage in ["admission", "queue_wait", "window", "compute", "delivery"] {
        m.set(&format!("registry.{stage}_us"), stage_us(stage));
    }
    m.set("registry.batch_size_mean", batch_size_mean);
    m.set("registry.dedup_hits", dedup_hits as f64);
    m.set("registry.noop_roundtrip_us", routed_noop_us);
    m.set("serve.noop_roundtrip_us", single_noop_us);
    m.set(
        "telemetry.trace_overhead_share",
        overhead_share(&served_main.plain.qps, &served_main.extra.qps),
    );
    m.set(
        "telemetry.bench_trace_overhead_share",
        overhead_share(&own.plain.qps, &own.traced.qps),
    );

    spans.extend(setup_spans);
    spans.extend(seq_spans);
    spans.extend(par_spans);
    spans.extend(live_spans);
    m.set("telemetry.spans_recorded", spans.len() as f64);
    if serves {
        let mut latencies = served_main.plain.latencies_ns.clone();
        latencies.sort_unstable();
        let p50 = crate::stats::percentile_sorted(&latencies, 0.50) as f64 / 1e3;
        let stages = ["admission", "queue_wait", "window", "compute", "delivery"];
        let p50s: Vec<String> = stages
            .iter()
            .map(|s| format!("{s} {:.0}", stage_p50_us(s)))
            .collect();
        report.notes.push(format!(
            "served reconciliation: stage p50s ({}) sum to {:.1} us against a request p50 of {p50:.1} us",
            p50s.join(", "),
            stages.into_iter().map(stage_p50_us).sum::<f64>()
        ));
    }
    report.notes.push(format!(
        "server tracer recorded {} spans; rates in this run: own loop {:.1} ops/s plain, {:.1} traced",
        tracer.spans_recorded(),
        own_qps,
        median(&own.traced.qps)
    ));
    report
        .notes
        .push("self time by span name (count, total ms, self ms):".to_string());
    for (name, t) in totals_by_name(&spans) {
        report.notes.push(format!(
            "  {name:<28} {:>9} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let path = crate::out_dir().join(format!("trace-{}.json", plan.workload.name()));
    match write_trace(&path, plan.workload.name(), &spans) {
        Ok(()) => report
            .notes
            .push(format!("trace written to {}", path.display())),
        Err(e) => report
            .notes
            .push(format!("trace not written to {}: {e}", path.display())),
    }
    report
}

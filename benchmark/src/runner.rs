//! Timed slices: the one measuring loop every workload and both
//! configurations go through.

use std::time::Duration;

use crate::check::Tally;
use crate::machine::Usage;
use crate::spans::Span;
use crate::stats::{median, percentile_sorted, supported_percentile};

/// What one timed slice did.
pub struct Slice {
    /// Ops answered.
    pub ops: u64,
    /// Wall time from the first op's start to the last reply.
    pub elapsed_s: f64,
    /// Per-op latency, nanoseconds.
    pub latencies_ns: Vec<u64>,
}

/// One configuration of one workload, driven in time slices. The input
/// stream continues across slices, so two runners on the same seed see
/// the same ops in the same order.
pub trait Runner {
    /// Runs ops until `dur` has passed (finishing the ops in flight).
    fn run_for(&mut self, dur: Duration) -> Slice;
    /// Ops attempted and failed so far.
    fn tally(&self) -> Tally;
    /// The rolling-checksum checkpoints, one lane per input stream.
    fn lanes(&self) -> Vec<&[u64]>;
    /// Hands over the spans recorded so far (empty for a clean runner).
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
}

/// Per-slice samples of one configuration, plus all its latencies.
#[derive(Default)]
pub struct Samples {
    pub ops: Vec<u64>,
    pub qps: Vec<f64>,
    pub cpu_us_per_op: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p95_us: Vec<f64>,
    pub ctx_switches_per_op: Vec<f64>,
    pub latencies_ns: Vec<u64>,
}

impl Samples {
    /// Runs one slice, with process accounting read around it.
    pub fn slice(&mut self, runner: &mut dyn Runner, dur: Duration) {
        let before = Usage::now();
        let mut slice = runner.run_for(dur);
        let after = Usage::now();
        let ops = slice.ops.max(1) as f64;
        self.ops.push(slice.ops);
        self.qps.push(slice.ops as f64 / slice.elapsed_s);
        self.cpu_us_per_op
            .push((after.cpu_us - before.cpu_us) as f64 / ops);
        self.ctx_switches_per_op
            .push((after.ctx_switches - before.ctx_switches) as f64 / ops);
        slice.latencies_ns.sort_unstable();
        self.p50_us
            .push(percentile_sorted(&slice.latencies_ns, 0.50) as f64 / 1e3);
        self.p95_us
            .push(percentile_sorted(&slice.latencies_ns, 0.95) as f64 / 1e3);
        self.latencies_ns.append(&mut slice.latencies_ns);
    }

    /// `(value in µs, percentile actually reported, sample count)`: the
    /// percentile over all slices' latencies, lowered to the highest one
    /// that still has ten samples beyond it.
    pub fn percentile_us(&mut self, wanted: f64) -> (f64, f64, usize) {
        self.latencies_ns.sort_unstable();
        let n = self.latencies_ns.len();
        let p = if wanted > 0.5 {
            supported_percentile(n, wanted)
        } else {
            wanted
        };
        (percentile_sorted(&self.latencies_ns, p) as f64 / 1e3, p, n)
    }
}

/// `pairs` interleaved slice pairs of two runners after a warm-up,
/// alternating which runs first so drift hits both alike. `between` runs
/// after the warm-up and after every pair (the clean run spreads its
/// cold set-ups there, so they sample the whole run's machine state, not
/// only its first seconds). Returns the samples of `a`, of `b`, and the
/// per-pair ratio `a.qps / b.qps`.
pub fn measure_pairs(
    a: &mut dyn Runner,
    b: &mut dyn Runner,
    pairs: usize,
    slice: Duration,
    warmup: Duration,
    between: &mut dyn FnMut(),
) -> (Samples, Samples, Vec<f64>) {
    a.run_for(warmup / 2);
    b.run_for(warmup / 2);
    between();
    let (mut sa, mut sb) = (Samples::default(), Samples::default());
    let mut ratios = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        if pair % 2 == 0 {
            sa.slice(a, slice);
            sb.slice(b, slice);
        } else {
            sb.slice(b, slice);
            sa.slice(a, slice);
        }
        ratios.push(sa.qps[pair] / sb.qps[pair]);
        between();
    }
    (sa, sb, ratios)
}

/// `1 − median(slowed) / median(plain)`: the share of throughput an
/// instrumented variant loses.
pub fn overhead_share(plain_qps: &[f64], slowed_qps: &[f64]) -> f64 {
    1.0 - median(slowed_qps) / median(plain_qps)
}

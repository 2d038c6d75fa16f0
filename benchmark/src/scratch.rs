//! From-scratch all-marginals queries from one caller: the op of
//! `small-cliques` and `large-cliques`, and the hand-driven form of the
//! same query that the traced run uses to see inside it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::{InferenceEngine, Prepared, Solver, WorkState};

use crate::check::{digest_posteriors, digest_result, Checker, Tally};
use crate::model::Model;
use crate::runner::{Runner, Slice};
use crate::spans::{Recorder, Span};
use crate::streams::CaseStream;

/// Ops whose product and baseline answers the gate compares bit for bit.
pub const GATE_OPS: usize = 32;

/// `Session::run` over a seeded case stream.
pub struct ScratchRunner<'a> {
    session: fastbn::Session<'a>,
    stream: CaseStream,
    checker: Checker,
    tally: Tally,
}

impl<'a> ScratchRunner<'a> {
    pub fn new(solver: &'a Solver, model: &Model, pool: usize, seed: u64) -> Self {
        ScratchRunner {
            session: solver.session(),
            stream: CaseStream::new(&model.net, pool, seed),
            checker: Checker::default(),
            tally: Tally::default(),
        }
    }
}

impl Runner for ScratchRunner<'_> {
    fn run_for(&mut self, dur: Duration) -> Slice {
        let start = Instant::now();
        let deadline = start + dur;
        let mut latencies_ns = Vec::with_capacity(1 << 12);
        let mut t0 = start;
        loop {
            let i = self.stream.next_index();
            let result = self.session.run(&self.stream.queries[i]);
            let t1 = Instant::now();
            latencies_ns.push((t1 - t0).as_nanos() as u64);
            let digest = digest_result(&result);
            self.tally.record(result.is_ok() && digest.finite);
            self.checker.push(digest);
            if t1 >= deadline {
                break;
            }
            // The digest is charged to the slice, not to an op.
            t0 = Instant::now();
        }
        Slice {
            ops: latencies_ns.len() as u64,
            elapsed_s: start.elapsed().as_secs_f64(),
            latencies_ns,
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn lanes(&self) -> Vec<&[u64]> {
        vec![self.checker.checkpoints()]
    }
}

/// The same query driven by hand through the inference layer's public
/// steps — `WorkState::reset` → `InferenceEngine::enter_evidence` →
/// `propagate` → `extract_posteriors` — with a span around each.
pub struct HandRunner {
    engine: Box<dyn InferenceEngine>,
    prepared: Arc<Prepared>,
    state: WorkState,
    stream: CaseStream,
    checker: Checker,
    tally: Tally,
    /// Name of each op's root span: `op` in the workload's own loop, a
    /// `probe.*` name when the loop is a layer probe of another workload.
    label: &'static str,
    rec: Recorder,
    ops: u64,
}

impl HandRunner {
    pub fn new(
        engine: Box<dyn InferenceEngine>,
        model: &Model,
        pool: usize,
        seed: u64,
        label: &'static str,
        rec: Recorder,
    ) -> Self {
        HandRunner {
            engine,
            state: WorkState::new(&model.prepared),
            prepared: Arc::clone(&model.prepared),
            stream: CaseStream::new(&model.net, pool, seed),
            checker: Checker::default(),
            tally: Tally::default(),
            label,
            rec,
            ops: 0,
        }
    }
}

impl Runner for HandRunner {
    fn run_for(&mut self, dur: Duration) -> Slice {
        let start = Instant::now();
        let deadline = start + dur;
        let mut latencies_ns = Vec::with_capacity(1 << 12);
        let mut t0 = start;
        loop {
            let i = self.stream.next_index();
            let evidence = self.stream.queries[i].get_evidence();
            let (rec, n) = (&mut self.rec, self.ops);
            let op = rec.open(self.label, n, 0);
            let s = rec.open("inference.reset", n, op);
            self.state.reset(&self.prepared);
            rec.close(s);
            let s = rec.open("inference.evidence", n, op);
            self.engine.enter_evidence(&mut self.state, evidence);
            rec.close(s);
            let s = rec.open("inference.propagate", n, op);
            self.engine.propagate(&mut self.state);
            rec.close(s);
            let s = rec.open("inference.extract", n, op);
            let result = self.state.extract_posteriors(&self.prepared, evidence);
            rec.close(s);
            rec.close(op);
            let t1 = Instant::now();
            latencies_ns.push((t1 - t0).as_nanos() as u64);
            self.ops += 1;
            match &result {
                Ok(p) => {
                    let digest = digest_posteriors(p);
                    self.tally.record(digest.finite);
                    self.checker.push(digest);
                }
                Err(_) => self.tally.record(false),
            }
            if t1 >= deadline {
                break;
            }
            t0 = Instant::now();
        }
        Slice {
            ops: latencies_ns.len() as u64,
            elapsed_s: start.elapsed().as_secs_f64(),
            latencies_ns,
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn lanes(&self) -> Vec<&[u64]> {
        vec![self.checker.checkpoints()]
    }

    fn take_spans(&mut self) -> Vec<Span> {
        std::mem::replace(&mut self.rec, Recorder::disabled()).into_spans()
    }
}

/// Before any timing: product and baseline answers bit-equal on the
/// first [`GATE_OPS`] ops of the stream.
pub fn gate(model: &Model, pool: usize, seed: u64, tally: &mut Tally) -> Result<(), String> {
    let mut stream = CaseStream::new(&model.net, pool, seed);
    let mut product = model.product.session();
    let mut baseline = model.baseline.session();
    for op in 0..GATE_OPS {
        let i = stream.next_index();
        let query = &stream.queries[i];
        let (a, b) = (product.run(query), baseline.run(query));
        let same = a.is_ok() && digest_result(&a) == digest_result(&b);
        tally.record(same);
        if !same {
            return Err(format!(
                "{}: product and baseline answers differ on op {op}",
                model.id
            ));
        }
    }
    Ok(())
}

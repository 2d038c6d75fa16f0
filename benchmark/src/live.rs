//! Incremental edits beside reads through `Solver::live_session`: each
//! op applies one `EvidenceDelta` to the hot set and reads the watched
//! marginal with `marginal_into`; every 16th op also reads the full
//! posteriors.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::{LiveSession, Query, Solver, VarId};

use crate::check::{digest_posteriors, digest_result, digest_values, Checker, Tally};
use crate::model::Model;
use crate::runner::{Runner, Slice};
use crate::spans::{Recorder, Span};
use crate::streams::{EditStream, HotSet, FULL_READ_EVERY};

pub struct LiveRunner {
    live: LiveSession,
    edits: EditStream,
    watched: VarId,
    buf: Vec<f64>,
    checker: Checker,
    tally: Tally,
    /// Name of each op's root span (`op`, or `probe.live`).
    label: &'static str,
    rec: Recorder,
    ops: u64,
}

impl LiveRunner {
    pub fn new(
        solver: &Arc<Solver>,
        model: &Model,
        seed: u64,
        label: &'static str,
        rec: Recorder,
    ) -> Self {
        let hot = HotSet::of(&model.net, model.spec_seed);
        LiveRunner {
            live: solver.live_session(),
            edits: EditStream::new(&model.net, &hot, seed),
            watched: hot.watched,
            buf: vec![0.0; model.net.cardinality(hot.watched)],
            checker: Checker::default(),
            tally: Tally::default(),
            label,
            rec,
            ops: 0,
        }
    }

    /// One op; returns whether every step succeeded.
    fn op(&mut self) -> bool {
        let (rec, n) = (&mut self.rec, self.ops);
        let edit = self.edits.next_edit();
        let op = rec.open(self.label, n, 0);
        let s = rec.open("inference.live_apply", n, op);
        let applied = self.live.apply(edit);
        rec.close(s);
        let s = rec.open("inference.live_read", n, op);
        let read = self.live.marginal_into(self.watched, &mut self.buf);
        rec.close(s);
        let mut digest = digest_values(n, &self.buf);
        let mut ok = applied.is_ok() && read.is_ok();
        if n % FULL_READ_EVERY == FULL_READ_EVERY - 1 {
            let s = rec.open("inference.live_full_read", n, op);
            let full = self.live.posteriors();
            rec.close(s);
            match &full {
                Ok(p) => {
                    let d = digest_posteriors(p);
                    digest.hash ^= d.hash;
                    digest.finite &= d.finite;
                }
                Err(_) => ok = false,
            }
        }
        rec.close(op);
        self.ops += 1;
        self.checker.push(digest);
        ok && digest.finite
    }
}

impl Runner for LiveRunner {
    fn run_for(&mut self, dur: Duration) -> Slice {
        let start = Instant::now();
        let deadline = start + dur;
        let mut latencies_ns = Vec::with_capacity(1 << 16);
        let mut t0 = start;
        loop {
            // Drawing the edit and digesting the answer sit inside the
            // op's latency: a caller builds its edit too, and the digest
            // of the watched marginal is a few nanoseconds.
            let ok = self.op();
            let t1 = Instant::now();
            latencies_ns.push((t1 - t0).as_nanos() as u64);
            self.tally.record(ok);
            if t1 >= deadline {
                break;
            }
            t0 = t1;
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

/// Time spent in live ops and in the equivalent from-scratch queries.
pub struct LiveVsScratch {
    pub live_s: f64,
    pub scratch_s: f64,
}

/// Runs the edit stream for `ops` ops (and at least `min_dur`), after
/// each one answering the same question from scratch: a targeted query
/// for the watched variable under the session's cumulative evidence.
/// The two answers must be bit-equal — this is `live-edits`' correctness
/// gate, and its timing is `inference.live_vs_scratch`.
pub fn against_scratch(
    model: &Model,
    solver: &Arc<Solver>,
    seed: u64,
    ops: usize,
    min_dur: Duration,
    tally: &mut Tally,
) -> Result<LiveVsScratch, String> {
    let hot = HotSet::of(&model.net, model.spec_seed);
    let mut edits = EditStream::new(&model.net, &hot, seed);
    let mut live = solver.live_session();
    let mut scratch = solver.session();
    let mut buf = vec![0.0; model.net.cardinality(hot.watched)];
    let mut out = LiveVsScratch {
        live_s: 0.0,
        scratch_s: 0.0,
    };
    let start = Instant::now();
    let mut op = 0;
    while op < ops || start.elapsed() < min_dur {
        let edit = edits.next_edit();
        let t0 = Instant::now();
        let applied = live.apply(edit);
        let read = live.marginal_into(hot.watched, &mut buf);
        let t1 = Instant::now();
        let query = Query::new()
            .evidence(live.evidence().clone())
            .virtual_evidence(live.virtual_evidence())
            .targets([hot.watched]);
        let t2 = Instant::now();
        let direct = scratch.run(&query);
        out.scratch_s += t2.elapsed().as_secs_f64();
        out.live_s += (t1 - t0).as_secs_f64();
        let same = applied.is_ok()
            && read.is_ok()
            && direct.as_ref().is_ok_and(|r| {
                let p = r.posteriors().expect("a marginals query");
                digest_values(0, p.marginal(hot.watched)) == digest_values(0, &buf)
                    && p.prob_evidence.to_bits() == live.prob_evidence().to_bits()
            });
        tally.record(same);
        if !same {
            return Err(format!(
                "{}: live read after edit {op} differs from the from-scratch query \
                 (live {buf:?}, scratch {:?})",
                model.id,
                digest_result(&direct)
            ));
        }
        op += 1;
    }
    Ok(out)
}

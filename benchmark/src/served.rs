//! Closed-loop clients against a `RoutedServer`: `T` client threads,
//! each keeping [`IN_FLIGHT`] requests outstanding and waiting for the
//! oldest first. Callers wait for replies, so the loop is closed; the
//! `4 × T` outstanding requests build real queues and batches without
//! more than `T` generator threads.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fastbn::{Pending, RoutedServer, ServeError, Solver};

use crate::check::{digest_result, Checker, Digest, Tally};
use crate::runner::{Runner, Slice};
use crate::spans::{Recorder, Span};
use crate::streams::{Mode, ModelTraffic, Request, RequestStream};

/// Requests each client keeps outstanding.
pub const IN_FLIGHT: usize = 4;
/// A reply later than this counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

struct Client {
    stream: RequestStream,
    checker: Checker,
    tally: Tally,
    /// Name of each request's root span (`op`, or `probe.served`).
    label: &'static str,
    rec: Recorder,
    ops: u64,
}

struct Outstanding {
    submitted: Instant,
    pending: Pending,
    mode: Mode,
    op_id: u64,
    op_span: u64,
}

/// Whether a reply is the expected outcome: the typed inference error
/// for a malformed request, an answer for every other.
fn expected(mode: Mode, reply: &Result<fastbn::QueryResult, ServeError>, digest: Digest) -> bool {
    match (mode, reply) {
        (Mode::Malformed, Err(ServeError::Inference(_))) => true,
        (Mode::Malformed, _) | (_, Err(_)) => false,
        (_, Ok(_)) => digest.finite,
    }
}

impl Client {
    fn run(
        &mut self,
        server: &RoutedServer,
        traffic: &[ModelTraffic],
        deadline: Instant,
    ) -> Vec<u64> {
        let mut latencies_ns = Vec::with_capacity(1 << 12);
        let mut queue: VecDeque<Outstanding> = VecDeque::with_capacity(IN_FLIGHT);
        loop {
            // The deadline is checked before drawing, so the stream only
            // ever advances by ops that are sent.
            while queue.len() < IN_FLIGHT && Instant::now() < deadline {
                let Request { model, set, mode } = self.stream.next(traffic);
                let query = traffic[model].templates[set][mode as usize].clone();
                let op_id = self.ops;
                self.ops += 1;
                let submitted = Instant::now();
                let op_span = self.rec.open(self.label, op_id, 0);
                let s = self.rec.open("registry.submit", op_id, op_span);
                let pending = server.submit(&traffic[model].id, query);
                self.rec.close(s);
                match pending {
                    Ok(pending) => queue.push_back(Outstanding {
                        submitted,
                        pending,
                        mode,
                        op_id,
                        op_span,
                    }),
                    // A refused request is a failed op.
                    Err(_) => self.tally.record(false),
                }
            }
            let Some(next) = queue.pop_front() else {
                return latencies_ns;
            };
            let s = self.rec.open("registry.wait", next.op_id, next.op_span);
            let reply = next.pending.wait_timeout(REPLY_TIMEOUT);
            self.rec.close(s);
            self.rec.close(next.op_span);
            latencies_ns.push(next.submitted.elapsed().as_nanos() as u64);
            match reply {
                Ok(reply) => {
                    let digest = digest_result(&reply);
                    self.tally.record(expected(next.mode, &reply, digest));
                    self.checker.push(digest);
                }
                // Timed out; dropping the handle cancels the request.
                Err(_) => self.tally.record(false),
            }
        }
    }
}

/// One configuration's clients; the streams (one per client) continue
/// across slices.
pub struct ServedRunner<'a> {
    server: &'a RoutedServer,
    traffic: &'a [ModelTraffic],
    clients: Vec<Client>,
}

impl<'a> ServedRunner<'a> {
    /// `clients` closed-loop clients; with `trace` (the run-wide clock
    /// and a span capacity per client) each records its spans: `label` →
    /// `registry.submit` / `registry.wait`.
    pub fn new(
        server: &'a RoutedServer,
        traffic: &'a [ModelTraffic],
        clients: usize,
        seed: u64,
        label: &'static str,
        trace: Option<(Instant, usize)>,
    ) -> Self {
        let clients = (0..clients)
            .map(|c| Client {
                stream: RequestStream::new(seed, c),
                checker: Checker::default(),
                tally: Tally::default(),
                label,
                rec: match trace {
                    Some((epoch, capacity)) => Recorder::new(epoch, 1 + c as u32, capacity),
                    None => Recorder::disabled(),
                },
                ops: 0,
            })
            .collect();
        ServedRunner {
            server,
            traffic,
            clients,
        }
    }
}

impl Runner for ServedRunner<'_> {
    fn run_for(&mut self, dur: Duration) -> Slice {
        let start = Instant::now();
        let deadline = start + dur;
        let (server, traffic) = (self.server, self.traffic);
        let latencies_ns: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| scope.spawn(move || client.run(server, traffic, deadline)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a load-generator client panicked"))
                .collect()
        });
        Slice {
            ops: latencies_ns.len() as u64,
            elapsed_s: start.elapsed().as_secs_f64(),
            latencies_ns,
        }
    }

    fn tally(&self) -> Tally {
        let mut total = Tally::default();
        for c in &self.clients {
            total.add(c.tally);
        }
        total
    }

    fn lanes(&self) -> Vec<&[u64]> {
        self.clients
            .iter()
            .map(|c| c.checker.checkpoints())
            .collect()
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.clients
            .iter_mut()
            .flat_map(|c| std::mem::replace(&mut c.rec, Recorder::disabled()).into_spans())
            .collect()
    }
}

/// Before any timing: every (model, first sets, mode) reply through the
/// server is bit-equal to `Solver::query` on a standalone solver, and a
/// malformed request comes back as the typed error.
pub fn gate(
    server: &RoutedServer,
    traffic: &[ModelTraffic],
    references: &[&Solver],
    sets: usize,
    tally: &mut Tally,
) -> Result<(), String> {
    for (model, reference) in traffic.iter().zip(references) {
        for (set, templates) in model.templates.iter().take(sets).enumerate() {
            for mode in Mode::ALL {
                let query = &templates[mode as usize];
                let reply = server
                    .submit(&model.id, query.clone())
                    .map_err(|e| format!("{}: submit refused: {e}", model.id))?
                    .wait();
                let direct = reference.query(query).map_err(ServeError::from);
                let digest = digest_result(&reply);
                let same = digest == digest_result(&direct) && expected(mode, &reply, digest);
                tally.record(same);
                if !same {
                    return Err(format!(
                        "{}: served reply for set {set} {mode:?} differs from Solver::query \
                         (served {reply:?})",
                        model.id
                    ));
                }
            }
        }
    }
    Ok(())
}

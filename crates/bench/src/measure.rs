//! Solver construction and the paper's timing methodology, shared by the
//! report binaries: one session per engine, construction excluded from
//! the timed loop, the best of a thread sweep reported.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn_bayesnet::{BayesianNetwork, Evidence};
use fastbn_inference::{EngineKind, Prepared, Solver};
use fastbn_jtree::JtreeOptions;

/// Builds the shared prepared structures for a network.
pub fn prepare(net: &BayesianNetwork) -> Arc<Prepared> {
    Arc::new(Prepared::new(net, &JtreeOptions::default()))
}

/// Compiles a solver of `kind` over shared prepared structures.
pub fn solver_for(kind: EngineKind, prepared: Arc<Prepared>, threads: usize) -> Solver {
    Solver::from_prepared(prepared)
        .engine(kind)
        .threads(threads)
        .build()
}

/// A measured engine run.
#[derive(Debug, Clone, Copy)]
pub struct EngineTiming {
    /// Thread count used.
    pub threads: usize,
    /// Total wall time for all cases.
    pub total: Duration,
}

impl EngineTiming {
    /// Seconds per case.
    pub fn per_case(&self, cases: usize) -> f64 {
        self.total.as_secs_f64() / cases.max(1) as f64
    }
}

/// Runs every case through one session of a fresh solver of `kind` and
/// returns the wall time of the query loop (solver construction excluded,
/// matching how the paper times repeated inference).
pub fn run_cases(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    threads: usize,
    cases: &[Evidence],
) -> EngineTiming {
    let solver = solver_for(kind, prepared, threads);
    let mut session = solver.session();
    // One untimed warm-up query faults in all working memory.
    if let Some(first) = cases.first() {
        let _ = session.posteriors(first);
    }
    let start = Instant::now();
    for evidence in cases {
        session
            .posteriors(evidence)
            .expect("workload evidence is sampled from the joint, so P(e) > 0");
    }
    EngineTiming {
        threads,
        total: start.elapsed(),
    }
}

/// The paper's methodology: run each thread count, report the best.
pub fn best_over_threads(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    thread_counts: &[usize],
    cases: &[Evidence],
) -> EngineTiming {
    thread_counts
        .iter()
        .map(|&t| run_cases(kind, prepared.clone(), t, cases))
        .min_by(|a, b| a.total.cmp(&b.total))
        .expect("at least one thread count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::workload_by_name;

    #[test]
    fn timings_are_positive_and_best_is_min() {
        let w = workload_by_name("hailfinder").unwrap();
        let net = w.build();
        let prepared = prepare(&net);
        let cases = w.cases(&net, 2);
        let seq = run_cases(EngineKind::Seq, prepared.clone(), 1, &cases);
        assert!(seq.total > Duration::ZERO);
        let best = best_over_threads(EngineKind::Hybrid, prepared, &[1, 2], &cases);
        assert!(best.threads == 1 || best.threads == 2);
        assert!(best.per_case(2) > 0.0);
    }
}

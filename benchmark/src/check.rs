//! Answer checking: bit-exact digests of results, a rolling checksum
//! with checkpoints that two configurations running the same input
//! stream for different lengths can compare, and the oracle check.

use std::fmt::Debug;

use fastbn::inference::oracle::variable_elimination;
use fastbn::{EngineKind, Posteriors, Query, QueryResult, Solver, VarId};

use crate::model::Model;
use crate::streams::{cases, fnv};

/// Networks up to this many variables are checked against variable
/// elimination (one elimination per target); larger ones against
/// `ReferenceJt`, where a VE run per target takes over 100 ms.
const VE_MAX_VARS: usize = 128;
/// Oracle agreement tolerance.
const ORACLE_TOLERANCE: f64 = 1e-9;
/// Evidence cases per network checked against the oracle.
const ORACLE_CASES: usize = 4;
/// A checkpoint of the rolling checksum is kept every this many ops.
const CHECKPOINT_EVERY: u64 = 16;

/// A 64-bit digest of every bit of a result, plus whether all its
/// numbers were finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub finite: bool,
}

#[inline]
fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub fn digest_values(seed: u64, values: &[f64]) -> Digest {
    let mut hash = seed;
    let mut finite = true;
    for v in values {
        hash = fold(hash, v.to_bits());
        finite &= v.is_finite();
    }
    Digest { hash, finite }
}

pub fn digest_posteriors(p: &Posteriors) -> Digest {
    let mut d = digest_values(1, &[p.prob_evidence]);
    for m in p.marginals() {
        let next = digest_values(fold(d.hash, m.len() as u64), m);
        d = Digest {
            hash: next.hash,
            finite: d.finite && next.finite,
        };
    }
    d
}

/// Digest of a query outcome; an error digests to its `Debug` form, so
/// "the same typed error" compares equal too.
pub fn digest_result<E: Debug>(result: &Result<QueryResult, E>) -> Digest {
    match result {
        Ok(QueryResult::Marginals(p)) => digest_posteriors(p),
        Ok(QueryResult::Mpe(m)) => {
            let hash = m
                .assignment
                .iter()
                .fold(fold(2, m.probability.to_bits()), |h, &s| fold(h, s as u64));
            Digest {
                hash,
                finite: m.probability.is_finite(),
            }
        }
        Err(e) => Digest {
            hash: fnv(format!("{e:?}").as_bytes()),
            finite: true,
        },
    }
}

/// Ops attempted and ops whose outcome was not the expected one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Rolling checksum over the digests of one deterministic op stream,
/// with a checkpoint every [`CHECKPOINT_EVERY`] ops (and at 1, 2, 4 and 8
/// ops, so even two very short runs share one). Two runs of the same
/// stream agree on every checkpoint both reached, however many ops each
/// got through in its time slices.
#[derive(Debug, Default)]
pub struct Checker {
    rolling: u64,
    ops: u64,
    checkpoints: Vec<u64>,
}

impl Checker {
    pub fn push(&mut self, digest: Digest) {
        self.rolling = fold(self.rolling, digest.hash);
        self.ops += 1;
        if self.ops.is_multiple_of(CHECKPOINT_EVERY)
            || (self.ops < CHECKPOINT_EVERY && self.ops.is_power_of_two())
        {
            self.checkpoints.push(self.rolling);
        }
    }

    pub fn checkpoints(&self) -> &[u64] {
        &self.checkpoints
    }
}

/// Compares two configurations' checkpoint lanes over their common
/// prefixes. Returns `(compared, mismatched)`.
pub fn compare_lanes(a: &[&[u64]], b: &[&[u64]]) -> (usize, usize) {
    let mut compared = 0;
    let mut mismatched = 0;
    for (x, y) in a.iter().zip(b) {
        for (p, q) in x.iter().zip(y.iter()) {
            compared += 1;
            mismatched += usize::from(p != q);
        }
    }
    (compared, mismatched)
}

/// Largest absolute difference between two distributions.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Checks the product solver against an independent oracle on
/// [`ORACLE_CASES`] seeded cases × 8 evenly spaced target variables:
/// variable elimination where that is tractable, `ReferenceJt` (the
/// textbook engine, sharing no kernel code path with the optimised ones)
/// otherwise.
pub fn oracle_check(model: &Model, seed: u64, tally: &mut Tally) -> Result<(), String> {
    let n = model.net.num_vars();
    let targets: Vec<VarId> = (0..8).map(|k| VarId::from_index(k * n / 8)).collect();
    let reference = (n > VE_MAX_VARS).then(|| {
        Solver::from_prepared(model.prepared.clone())
            .engine(EngineKind::Reference)
            .build()
    });
    for evidence in &cases(&model.net, ORACLE_CASES, seed) {
        let query = Query::new().evidence(evidence.clone());
        let got = model
            .product
            .query(&query)
            .map_err(|e| format!("{}: product query failed: {e}", model.id))?;
        let got = got.posteriors().expect("a marginals query");
        let expected = match &reference {
            Some(solver) => Some(
                solver
                    .query(&query)
                    .map_err(|e| format!("{}: ReferenceJt failed: {e}", model.id))?,
            ),
            None => None,
        };
        for &var in &targets {
            let want = match &expected {
                Some(result) => result
                    .posteriors()
                    .expect("marginals")
                    .marginal(var)
                    .to_vec(),
                None => variable_elimination::posterior_of(&model.net, evidence, var)
                    .map_err(|e| format!("{}: variable elimination failed: {e}", model.id))?,
            };
            let diff = max_abs_diff(got.marginal(var), &want);
            tally.record(diff <= ORACLE_TOLERANCE);
            if diff > ORACLE_TOLERANCE {
                return Err(format!(
                    "{}: variable {} differs from the oracle by {diff:e}",
                    model.id,
                    var.index()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_see_every_bit_and_flag_non_finite() {
        let a = digest_values(0, &[0.5, 0.25]);
        assert_eq!(a, digest_values(0, &[0.5, 0.25]));
        assert_ne!(
            a.hash,
            digest_values(0, &[0.5, f64::from_bits(0.25f64.to_bits() + 1)]).hash
        );
        assert_ne!(
            digest_values(0, &[0.0]).hash,
            digest_values(0, &[-0.0]).hash
        );
        assert!(a.finite && !digest_values(0, &[f64::NAN]).finite);
    }

    #[test]
    fn checkpoints_compare_on_the_common_prefix() {
        let run = |ops: u64, corrupt_at: Option<u64>| {
            let mut c = Checker::default();
            for i in 0..ops {
                let hash = if corrupt_at == Some(i) { 0 } else { i + 1 };
                c.push(Digest { hash, finite: true });
            }
            c
        };
        let (short, long) = (run(40, None), run(100, None));
        // Checkpoints at 1, 2, 4, 8, 16 and 32 ops.
        assert_eq!(short.checkpoints().len(), 6);
        assert_eq!(
            compare_lanes(&[short.checkpoints()], &[long.checkpoints()]),
            (6, 0)
        );
        assert_eq!(
            compare_lanes(&[run(1, None).checkpoints()], &[long.checkpoints()]),
            (1, 0)
        );
        // A wrong answer poisons every later checkpoint.
        let bad = run(100, Some(20));
        assert_eq!(
            compare_lanes(&[long.checkpoints()], &[bad.checkpoints()]),
            (10, 5)
        );
    }
}

//! Property-style tests of the potential-table algebra — the invariants
//! the inference engines silently rely on — run over a seeded family of
//! random domains and tables (the build environment has no proptest).

use std::sync::Arc;

use fastbn_bayesnet::VarId;
use fastbn_parallel::{Schedule, ThreadPool};
use fastbn_potential::{ops, ops_par, Domain, KernelPlan, PotentialTable};

/// Minimal deterministic generator (xorshift64*) for test data.
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_mul(0x9E3779B97F4A7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn bool(&mut self) -> bool {
        self.next() >> 63 == 1
    }
}

/// A random domain of 1..=5 variables with cardinalities 1..=4, ids drawn
/// sparsely from 0..12 so sub/superdomain relations exercise gaps.
fn random_domain(rng: &mut TestRng) -> Arc<Domain> {
    let num_vars = 1 + rng.below(5);
    let mut ids: Vec<u32> = (0..12).collect();
    // Partial shuffle, take the first `num_vars`, sort.
    for i in 0..num_vars {
        let j = i + rng.below(12 - i);
        ids.swap(i, j);
    }
    let mut chosen: Vec<u32> = ids[..num_vars].to_vec();
    chosen.sort_unstable();
    Arc::new(Domain::from_sorted(
        chosen
            .into_iter()
            .map(|v| (VarId(v), 1 + rng.below(4)))
            .collect(),
    ))
}

/// A random table over a random domain with non-negative entries.
fn random_table(rng: &mut TestRng) -> PotentialTable {
    let domain = random_domain(rng);
    let values: Vec<f64> = (0..domain.size()).map(|_| rng.f64() * 4.0).collect();
    PotentialTable::from_values(domain, values)
}

/// A random subdomain of `d` (possibly empty/scalar).
fn random_subdomain(rng: &mut TestRng, d: &Domain) -> Arc<Domain> {
    Arc::new(Domain::from_sorted(
        d.vars()
            .iter()
            .zip(d.cards())
            .filter(|_| rng.bool())
            .map(|(&v, &c)| (v, c))
            .collect(),
    ))
}

const CASES: u64 = 64;

#[test]
fn marginalization_preserves_total_mass() {
    for case in 0..CASES {
        let mut rng = TestRng::new(case + 1);
        let table = random_table(&mut rng);
        let sub = random_subdomain(&mut rng, table.domain());
        let out = ops::marginalize(&table, sub);
        assert!(
            (out.sum() - table.sum()).abs() < 1e-9 * (1.0 + table.sum()),
            "case {case}"
        );
    }
}

#[test]
fn marginalization_is_order_independent() {
    // Summing out variables one at a time (any split) equals summing
    // out all at once; here: two-step via a random mid domain.
    for case in 0..CASES {
        let mut rng = TestRng::new(case + 100);
        let table = random_table(&mut rng);
        let mid = random_subdomain(&mut rng, table.domain());
        let sub = random_subdomain(&mut rng, &mid);

        let direct = ops::marginalize(&table, sub.clone());
        let two_step = ops::marginalize(&ops::marginalize(&table, mid), sub);
        for (a, b) in direct.values().iter().zip(two_step.values()) {
            assert!((a - b).abs() < 1e-9, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn extension_distributes_over_marginalization() {
    // Σ_z (φ(x,z) · ψ(x)) = ψ(x) · Σ_z φ(x,z): multiply-then-sum equals
    // sum-then-multiply when the message domain survives.
    for case in 0..CASES {
        let mut rng = TestRng::new(case + 200);
        let table = random_table(&mut rng);
        let sub = random_subdomain(&mut rng, table.domain());
        let msg = PotentialTable::from_values(
            sub.clone(),
            (0..sub.size()).map(|i| 0.5 + (i % 5) as f64).collect(),
        );

        let mut mul_first = table.clone();
        ops::extend_multiply(&mut mul_first, &msg);
        let lhs = ops::marginalize(&mul_first, sub.clone());

        let mut rhs = ops::marginalize(&table, sub);
        ops::extend_multiply(&mut rhs, &msg);

        for (a, b) in lhs.values().iter().zip(rhs.values()) {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + a.abs()),
                "case {case}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn reduction_then_sum_equals_slice_mass() {
    // After reduce(var = s), total mass equals the var = s slice of the
    // single-variable marginal.
    for case in 0..CASES {
        let mut rng = TestRng::new(case + 300);
        let table = random_table(&mut rng);
        let domain = table.domain();
        let pos = domain.num_vars() / 2;
        let var = domain.vars()[pos];
        let card = domain.cards()[pos];
        let marginal = ops::marginal_of_var(&table, var);
        for (state, &mass) in marginal.iter().enumerate().take(card) {
            let mut reduced = table.clone();
            ops::reduce_evidence(&mut reduced, var, state);
            assert!(
                (reduced.sum() - mass).abs() < 1e-9,
                "case {case} state {state}: {} vs {}",
                reduced.sum(),
                mass
            );
        }
    }
}

#[test]
fn parallel_ops_bit_match_sequential() {
    let pool = ThreadPool::new(3);
    let sched = Schedule::Dynamic { grain: 3 };
    for case in 0..CASES {
        let mut rng = TestRng::new(case + 400);
        let table = random_table(&mut rng);
        let sub = random_subdomain(&mut rng, table.domain());

        let plan = KernelPlan::new(table.domain(), &sub);
        let seq_out = ops::marginalize(&table, sub.clone());
        let mut par_out = vec![f64::NAN; sub.size()];
        ops_par::marginalize_plan_par(&pool, sched, &plan, table.values(), &mut par_out);
        assert_eq!(seq_out.values(), &par_out[..], "case {case}");

        let msg = PotentialTable::from_values(
            sub.clone(),
            (0..sub.size()).map(|i| 0.25 + (i % 3) as f64).collect(),
        );
        let mut seq_t = table.clone();
        ops::extend_multiply(&mut seq_t, &msg);
        let mut par_t = table.values().to_vec();
        ops_par::extend_multiply_plan_par(&pool, sched, &plan, &mut par_t, msg.values());
        assert_eq!(seq_t.values(), &par_t[..], "case {case}");
    }
}

#[test]
fn normalize_makes_a_distribution() {
    for case in 0..CASES {
        let mut rng = TestRng::new(case + 500);
        let mut table = random_table(&mut rng);
        if table.sum() <= 0.0 {
            continue; // the all-zero corner is covered by normalize()'s Err path
        }
        let before = table.sum();
        let z = table.normalize().unwrap();
        assert!((z - before).abs() < 1e-12, "case {case}");
        assert!((table.sum() - 1.0).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn from_cpt_tables_are_conditional_distributions() {
    for case in 0u64..50 {
        // Build a random CPT and check its potential-table form sums to 1
        // over the child for every parent state.
        let mut rng = TestRng::new(case + 600);
        let child_card = 2 + rng.below(2);
        let parent_card = 2 + rng.below(2);
        let mut values = Vec::new();
        for _ in 0..parent_card {
            let mut row: Vec<f64> = (0..child_card)
                .map(|_| 1.0 + (rng.next() % 100) as f64)
                .collect();
            let sum: f64 = row.iter().sum();
            for v in &mut row {
                *v /= sum;
            }
            let drift = 1.0 - row.iter().sum::<f64>();
            row[0] += drift;
            values.extend(row);
        }
        let cpt = fastbn_bayesnet::Cpt::new(
            VarId(0),
            vec![VarId(1)],
            child_card,
            vec![parent_card],
            values,
        )
        .unwrap();
        let cards = vec![child_card, parent_card];
        let table = PotentialTable::from_cpt(&cpt, &cards);
        for p in 0..parent_card {
            let total: f64 = (0..child_card).map(|c| table.value_at(&[c, p])).sum();
            assert!((total - 1.0).abs() < 1e-9, "case {case}");
        }
    }
}

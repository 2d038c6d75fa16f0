//! Seeded property sweep for [`KernelPlan`]: every plan kernel, on
//! random (superdomain, subdomain) pairs covering the whole layout
//! taxonomy, must be **bitwise** equal to a per-entry decode-and-project
//! reference — the contract the engines' bit-identity suites stand on.
//! (The build environment has no proptest; this is the seeded-sweep
//! equivalent.) A second, exhaustive sweep walks every membership
//! pattern of up to eight variables (seven and eight above the
//! run-program constant) and the plans of the `few-large-cliques`
//! analogue, so the run programs small tables execute and the walks
//! larger ones take — whole-table, chunked at awkward cuts and at the
//! walk's own seams, ranged by slot units and footprints — are all held
//! to the same reference. The single-variable kernels ([`VarAxis`]) and the
//! one-pass rebuild (`extend_multiply_from`) are held to it too, and
//! every fixed-arity arm of the run loops to the generic run loop. The
//! first-write kernels a lazily reset clique is rebuilt by — `*_from`,
//! whole-table, chunked and fused, and `VarAxis::select_from` — are held
//! to copying their source in and running the in-place kernel.

use fastbn_bayesnet::VarId;
use fastbn_potential::ops::VarAxis;
use fastbn_potential::{
    multiply_marginalize, multiply_marginalize_from, Domain, KernelPlan, Layout,
};

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
}

/// A random superdomain of 2..=6 variables, cards 2..=5, ids drawn
/// sparsely from 0..14 so scopes have gaps like real clique scopes.
fn random_sup(rng: &mut TestRng) -> Domain {
    let num_vars = 2 + rng.below(5);
    let mut ids: Vec<u32> = (0..14).collect();
    for i in 0..num_vars {
        let j = i + rng.below(14 - i);
        ids.swap(i, j);
    }
    let mut chosen: Vec<u32> = ids[..num_vars].to_vec();
    chosen.sort_unstable();
    Domain::new(
        chosen
            .into_iter()
            .map(|v| (VarId(v), 2 + rng.below(4)))
            .collect(),
    )
}

/// A subdomain of `sup` chosen to exercise every layout class: scope
/// suffixes (`InnerBlock`), prefixes (`OuterBlock`), the full scope
/// (`Identity`), scattered subsets and the empty/scalar scope.
fn random_sub(rng: &mut TestRng, sup: &Domain) -> Domain {
    let n = sup.num_vars();
    let pick: Vec<usize> = match rng.below(5) {
        0 => (0..n).collect(),                        // Identity
        1 => (n - 1 - rng.below(n - 1)..n).collect(), // proper suffix
        2 => (0..1 + rng.below(n - 1)).collect(),     // proper prefix
        3 => Vec::new(),                              // scalar target
        _ => {
            // Scattered subset (may happen to be a prefix/suffix — the
            // classification, not the choice, decides the layout).
            let mut v: Vec<usize> = (0..n).filter(|_| rng.below(2) == 0).collect();
            if v.is_empty() {
                v.push(rng.below(n));
            }
            v
        }
    };
    Domain::new(
        pick.iter()
            .map(|&p| (sup.vars()[p], sup.cards()[p]))
            .collect(),
    )
}

fn random_values(rng: &mut TestRng, n: usize) -> Vec<f64> {
    // Mix of magnitudes and exact zeros (zeros exercise safe division
    // paths downstream and make reassociation visible).
    (0..n)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 => rng.f64() * 1e6,
            _ => rng.f64(),
        })
        .collect()
}

/// Per-entry reference mapping: every flat `sup` index → its flat `sub`
/// index, via full decode and project (what the plans' `ext_strides`
/// precompute).
fn reference_map(sup: &Domain, sub: &Domain) -> Vec<usize> {
    let positions: Vec<usize> = sub
        .vars()
        .iter()
        .map(|&v| sup.position_of(v).unwrap())
        .collect();
    let mut states = vec![0usize; sup.num_vars()];
    (0..sup.size())
        .map(|idx| {
            sup.decode(idx, &mut states);
            positions
                .iter()
                .zip(sub.strides())
                .map(|(&p, &stride)| states[p] * stride)
                .sum()
        })
        .collect()
}

#[test]
fn plan_kernels_match_decode_reference_bitwise() {
    let mut seen = [false; 4]; // Identity, InnerBlock, OuterBlock, Generic
    for seed in 0..200u64 {
        let mut rng = TestRng::new(seed + 1);
        let sup = random_sup(&mut rng);
        let sub = random_sub(&mut rng, &sup);
        let plan = KernelPlan::new(&sup, &sub);
        seen[layout_index(plan.layout())] = true;

        let map = reference_map(&sup, &sub);
        let table = random_values(&mut rng, sup.size());
        let msg = random_values(&mut rng, sub.size());

        // marginalize: ascending-source accumulation per output slot.
        let mut got = vec![0.0; sub.size()];
        plan.marginalize(&table, &mut got);
        let mut want = vec![0.0; sub.size()];
        for (i, &v) in table.iter().enumerate() {
            want[map[i]] += v;
        }
        assert_bits(&got, &want, "marginalize", seed);

        // marginalize_fold over a random sub-range must agree with the
        // full kernel on that range (the parallel chunking contract).
        let lo = rng.below(sub.size());
        let hi = lo + 1 + rng.below(sub.size() - lo);
        let mut folded = vec![f64::NAN; hi - lo];
        plan.marginalize_fold(&table, lo, hi, |t, acc| folded[t - lo] = acc);
        assert_bits(&folded, &want[lo..hi], "marginalize_fold", seed);

        // max_marginalize: same mapping, max instead of sum.
        let mut got = vec![0.0; sub.size()];
        plan.max_marginalize(&table, &mut got);
        let mut want = vec![f64::NEG_INFINITY; sub.size()];
        for (i, &v) in table.iter().enumerate() {
            if v > want[map[i]] {
                want[map[i]] = v;
            }
        }
        assert_bits(&got, &want, "max_marginalize", seed);

        // extend_multiply (full and chunked range forms).
        let mut got = table.clone();
        plan.extend_multiply(&mut got, &msg);
        let want: Vec<f64> = table
            .iter()
            .enumerate()
            .map(|(i, &v)| v * msg[map[i]])
            .collect();
        assert_bits(&got, &want, "extend_multiply", seed);

        let lo = rng.below(sup.size());
        let hi = lo + 1 + rng.below(sup.size() - lo);
        let mut chunk = table[lo..hi].to_vec();
        plan.extend_multiply_range(&mut chunk, &msg, lo);
        assert_bits(&chunk, &want[lo..hi], "extend_multiply_range", seed);
    }
    assert_eq!(
        seen, [true; 4],
        "sweep must cover Identity/InnerBlock/OuterBlock/Generic"
    );
}

#[test]
fn fused_multiply_marginalize_is_bitwise_two_pass() {
    // The Seq engine's deferred-ratio fusion rests on this: fusing a
    // pending ratio into the next outgoing marginalization must produce
    // the exact bits of extend-multiply-then-marginalize, for both the
    // updated clique and the outgoing message — including when the two
    // plans target different subdomains and across every layout pairing.
    for seed in 200..340u64 {
        let mut rng = TestRng::new(seed);
        let sup = random_sup(&mut rng);
        let mul_sub = random_sub(&mut rng, &sup);
        let marg_sub = random_sub(&mut rng, &sup);
        let mul = KernelPlan::new(&sup, &mul_sub);
        let marg = KernelPlan::new(&sup, &marg_sub);

        let table = random_values(&mut rng, sup.size());
        let msg = random_values(&mut rng, mul_sub.size());

        let mut fused_table = table.clone();
        let mut fused_out = vec![f64::NAN; marg_sub.size()];
        multiply_marginalize(&mul, &marg, &mut fused_table, &msg, &mut fused_out);

        let mut two_pass_table = table.clone();
        mul.extend_multiply(&mut two_pass_table, &msg);
        let mut two_pass_out = vec![0.0; marg_sub.size()];
        marg.marginalize(&two_pass_table, &mut two_pass_out);

        assert_bits(&fused_table, &two_pass_table, "fused clique", seed);
        assert_bits(&fused_out, &two_pass_out, "fused message", seed);
    }
}

/// Cuts `[0, n)` at boundaries that line up with no block, fiber or run.
fn awkward_cuts(n: usize) -> Vec<usize> {
    let mut cuts = vec![0, n / 3, n / 3 + 1, (2 * n) / 3 + 1, n - n / 7, n];
    cuts.retain(|&c| c <= n);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

#[test]
fn every_membership_pattern_matches_decode_reference_bitwise() {
    // Every way a separator can sit inside a clique of up to 6 variables
    // — all 2^n membership masks, not a sample — over cardinalities drawn
    // from {1, 2, 3, 5}: unit variables anywhere, tables on both sides of
    // the run-program constant (32 768 entries; 5^6 = 15 625 is under it,
    // an extra all-6 draw at six variables, 6^6 = 46 656 entries, is
    // over it), every kernel against the decode-per-entry mapping.
    const CARDS: [usize; 4] = [1, 2, 3, 5];
    const DRAWS: u64 = 6;
    const PROGRAM_MAX_ENTRIES: usize = 32_768;
    let (mut cases, mut small, mut large) = (0u64, 0u64, 0u64);
    // Layouts seen by `extend_multiply_from`, without and with a program.
    let mut rebuilt = [[false; 4]; 2];
    for n in 1..=6usize {
        for mask in 0u32..1 << n {
            let draws = if n == 6 { DRAWS + 1 } else { DRAWS };
            for draw in 0..draws {
                let case = (n as u64) << 32 | (mask as u64) << 8 | draw;
                let mut rng = TestRng::new(0xC11C ^ case);
                // The first two draws of each pattern are all-5 and all-2,
                // and six variables get a last, all-6 draw, so the large
                // side is reached on purpose.
                let cards: Vec<usize> = (0..n)
                    .map(|_| match draw {
                        0 => 5,
                        1 => 2,
                        DRAWS => 6,
                        _ => CARDS[rng.below(4)],
                    })
                    .collect();
                let vars = |keep: u32| {
                    Domain::new(
                        (0..n)
                            .filter(|&p| keep >> p & 1 == 1)
                            .map(|p| (VarId(2 * p as u32 + 1), cards[p]))
                            .collect(),
                    )
                };
                let sup = vars(u32::MAX);
                let sub = vars(mask);
                // A second separator for the fused kernel's multiplier.
                let mul_sub = vars(rng.below(1 << n) as u32);
                let plan = check_case(&sup, &sub, &mul_sub, &mut rng, case);
                rebuilt[plan.is_programmed() as usize][layout_index(plan.layout())] = true;
                cases += 1;
                if sup.size() <= PROGRAM_MAX_ENTRIES {
                    small += 1;
                } else {
                    large += 1;
                }
            }
        }
    }
    // Seven and eight variables, every membership pattern, each table
    // above the constant: all fives but one three (46 875 entries) at
    // seven, all fours but two threes (36 864) at eight, the threes
    // placed by the mask so every position carries one.
    for n in 7..=8usize {
        for mask in 0u32..1 << n {
            let case = (n as u64) << 32 | (mask as u64) << 8 | 0xFF;
            let mut rng = TestRng::new(0xB16 ^ case);
            let threes = [
                mask as usize % n,
                (mask as usize / n + 1 + mask as usize) % n,
            ];
            let cards: Vec<usize> = (0..n)
                .map(|p| match (n, threes.contains(&p)) {
                    (7, true) if p == threes[0] => 3,
                    (8, true) => 3,
                    (7, _) => 5,
                    _ => 4,
                })
                .collect();
            let vars = |keep: u32| {
                Domain::new(
                    (0..n)
                        .filter(|&p| keep >> p & 1 == 1)
                        .map(|p| (VarId(2 * p as u32 + 1), cards[p]))
                        .collect(),
                )
            };
            let (sup, sub) = (vars(u32::MAX), vars(mask));
            assert!(sup.size() > PROGRAM_MAX_ENTRIES, "{cards:?}");
            let mul_sub = vars(rng.below(1 << n) as u32);
            check_case(&sup, &sub, &mul_sub, &mut rng, case);
            (cases, large) = (cases + 1, large + 1);
        }
    }
    // The 26 (clique, separator) plans of the `few-large-cliques`
    // analogue the benchmark's `large-cliques` workload runs.
    for (k, (sup, sub)) in few_large_cliques_plans().iter().enumerate() {
        let case = 0xF1C << 32 | k as u64;
        let mut rng = TestRng::new(case);
        check_case(sup, sub, &Domain::scalar(), &mut rng, case);
        cases += 1;
        if sup.size() <= PROGRAM_MAX_ENTRIES {
            small += 1;
        } else {
            large += 1;
        }
    }
    assert_eq!(cases, 126 * DRAWS + 64 + 128 + 256 + 26);
    assert!(
        small > 400 && large == 64 + 128 + 256 + 17,
        "{small} small, {large} large"
    );
    // Every layout ran its one-pass layout kernel, and every layout but
    // `Identity` (which never has a program) the one-pass program.
    assert_eq!(rebuilt, [[true; 4], [false, true, true, true]]);
}

/// Every (clique, separator) pair of the `few-large-cliques` analogue
/// (`fastbn_bayesnet::analogues::adaptivity`: 24 five-state variables, 14
/// cliques, the largest 390 625 entries): both sides of its 13
/// separators, each separator the intersection of its two cliques.
fn few_large_cliques_plans() -> Vec<(Domain, Domain)> {
    const CLIQUES: [&[u32]; 14] = [
        &[0, 1, 2, 3, 6, 7],
        &[1, 2, 3, 4, 5, 6, 7, 8],
        &[3, 4, 5, 6, 7, 8, 9],
        &[3, 4, 5, 7, 8, 9, 11],
        &[3, 5, 7, 8, 9, 10, 11],
        &[5, 7, 9, 10, 11, 12, 13],
        &[7, 9, 10, 11, 12, 13, 15, 16],
        &[7, 9, 10, 11, 14, 15, 16],
        &[9, 11, 14, 16, 17],
        &[10, 12, 13, 15, 16, 18],
        &[12, 18, 20],
        &[14, 15, 16, 21, 22],
        &[16, 17, 19],
        &[16, 23],
    ];
    const EDGES: [(usize, usize); 13] = [
        (1, 2),
        (2, 3),
        (3, 4),
        (6, 5),
        (7, 6),
        (0, 1),
        (4, 5),
        (9, 6),
        (8, 7),
        (11, 7),
        (12, 8),
        (10, 9),
        (13, 6),
    ];
    let scope = |vars: &[u32]| Domain::new(vars.iter().map(|&v| (VarId(v), 5)).collect());
    EDGES
        .iter()
        .flat_map(|&(a, b)| {
            let sep: Vec<u32> = CLIQUES[a]
                .iter()
                .copied()
                .filter(|v| CLIQUES[b].contains(v))
                .collect();
            [a, b].map(|c| (scope(CLIQUES[c]), scope(&sep)))
        })
        .collect()
}

fn layout_index(layout: Layout) -> usize {
    match layout {
        Layout::Identity => 0,
        Layout::InnerBlock => 1,
        Layout::OuterBlock { .. } => 2,
        Layout::Generic => 3,
    }
}

/// All eight kernels of `sup → sub` (and the fused kernel with `mul_sub`
/// as the multiplier's separator) against the decode reference; returns
/// the plan.
fn check_case(
    sup: &Domain,
    sub: &Domain,
    mul_sub: &Domain,
    rng: &mut TestRng,
    case: u64,
) -> KernelPlan {
    let plan = KernelPlan::new(sup, sub);
    let map = reference_map(sup, sub);
    let table = random_values(rng, sup.size());
    let msg = random_values(rng, sub.size());

    let mut want = vec![0.0; sub.size()];
    for (i, &v) in table.iter().enumerate() {
        want[map[i]] += v;
    }
    let mut got = vec![f64::NAN; sub.size()];
    plan.marginalize(&table, &mut got);
    assert_bits(&got, &want, "marginalize", case);

    let mut folded = vec![f64::NAN; sub.size()];
    for cut in awkward_cuts(sub.size()).windows(2) {
        plan.marginalize_fold(&table, cut[0], cut[1], |t, acc| folded[t] = acc);
    }
    assert_bits(&folded, &want, "marginalize_fold", case);

    let mut want_max = vec![f64::NEG_INFINITY; sub.size()];
    for (i, &v) in table.iter().enumerate() {
        if v > want_max[map[i]] {
            want_max[map[i]] = v;
        }
    }
    plan.max_marginalize(&table, &mut got);
    assert_bits(&got, &want_max, "max_marginalize", case);

    let want_mul: Vec<f64> = table
        .iter()
        .enumerate()
        .map(|(i, &v)| v * msg[map[i]])
        .collect();
    let mut got = table.clone();
    plan.extend_multiply(&mut got, &msg);
    assert_bits(&got, &want_mul, "extend_multiply", case);

    let mut got = table.clone();
    for cut in awkward_cuts(sup.size()).windows(2) {
        plan.extend_multiply_range(&mut got[cut[0]..cut[1]], &msg, cut[0]);
    }
    assert_bits(&got, &want_mul, "extend_multiply_range", case);

    // One-pass rebuild into a stale destination: the same products as
    // copy + extend_multiply — whole, and at awkward cuts.
    let mut got = vec![f64::NAN; sup.size()];
    plan.extend_multiply_from(&table, &mut got, &msg);
    assert_bits(&got, &want_mul, "extend_multiply_from", case);
    let mut got = vec![f64::NAN; sup.size()];
    for cut in awkward_cuts(sup.size()).windows(2) {
        let (lo, hi) = (cut[0], cut[1]);
        plan.extend_multiply_range_from(&table[lo..hi], &mut got[lo..hi], &msg, lo);
    }
    assert_bits(&got, &want_mul, "extend_multiply_range_from", case);

    check_walk_seams(&plan, &table, &msg, &want, &want_mul, case);

    // Fused collect kernel: multiply by a message on `mul_sub`, then
    // marginalize onto `sub`, each output slot in ascending source order.
    let mul = KernelPlan::new(sup, mul_sub);
    let mul_msg = random_values(rng, mul_sub.size());
    let mul_map = reference_map(sup, mul_sub);
    let mut want_table = table.clone();
    let mut want_out = vec![0.0; sub.size()];
    for (i, v) in want_table.iter_mut().enumerate() {
        *v *= mul_msg[mul_map[i]];
        want_out[map[i]] += *v;
    }
    let mut got_table = table.clone();
    let mut got_out = vec![f64::NAN; sub.size()];
    multiply_marginalize(&mul, &plan, &mut got_table, &mul_msg, &mut got_out);
    assert_bits(&got_table, &want_table, "multiply_marginalize clique", case);
    assert_bits(&got_out, &want_out, "multiply_marginalize message", case);
    // ... and as the first write of a clique whose values live elsewhere.
    let (mut got_table, mut got_out) = (vec![f64::NAN; sup.size()], vec![f64::NAN; sub.size()]);
    multiply_marginalize_from(&mul, &plan, &table, &mut got_table, &mul_msg, &mut got_out);
    assert_bits(
        &got_table,
        &want_table,
        "multiply_marginalize_from clique",
        case,
    );
    assert_bits(
        &got_out,
        &want_out,
        "multiply_marginalize_from message",
        case,
    );
    plan
}

/// `0, step, 2·step, …, n`.
fn cuts_every(n: usize, step: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..n).step_by(step.max(1)).collect();
    cuts.push(n);
    cuts
}

/// The chunked kernels at the walk's own seams, against the decode
/// reference (`want` the marginal, `want_mul` the extension): the fold and
/// the ranged extension cut at 32-lane boundaries (where the fold's lane
/// blocks and the rows of the extension restart), the ranged
/// marginalization at every slot unit and in two halves, the same slots
/// rebuilt from their footprint stretches, and — where the plan owns its
/// slots in blocks — block by block.
fn check_walk_seams(
    plan: &KernelPlan,
    table: &[f64],
    msg: &[f64],
    want: &[f64],
    want_mul: &[f64],
    case: u64,
) {
    let (sup, sub) = (plan.sup_size(), plan.sub_size());
    let mut folded = vec![f64::NAN; sub];
    for cut in cuts_every(sub, 32).windows(2) {
        plan.marginalize_fold(table, cut[0], cut[1], |t, acc| folded[t] = acc);
    }
    assert_bits(&folded, want, "marginalize_fold at lane cuts", case);
    let mut got = table.to_vec();
    for cut in cuts_every(sup, 32 * 3).windows(2) {
        plan.extend_multiply_range(&mut got[cut[0]..cut[1]], msg, cut[0]);
    }
    assert_bits(&got, want_mul, "extend_multiply_range at lane cuts", case);

    let unit = plan.slot_unit();
    let mut ranged = vec![f64::NAN; sub];
    for (k, part) in ranged.chunks_mut(unit).enumerate() {
        plan.marginalize_range(table, k * unit, part);
    }
    assert_bits(&ranged, want, "marginalize_range by unit", case);
    let mid = sub / unit / 2 * unit;
    let (left, right) = ranged.split_at_mut(mid);
    plan.marginalize_range(table, 0, left);
    plan.marginalize_range(table, mid, right);
    assert_bits(&ranged, want, "marginalize_range halves", case);
    if plan.layout() == Layout::Identity {
        return;
    }
    let mut stretched = vec![f64::NAN; sub];
    for (k, part) in stretched.chunks_mut(unit).enumerate() {
        let lo = k * unit;
        part.fill(0.0);
        for stretch in plan.footprint(lo, lo + part.len()) {
            let start = stretch.start;
            plan.marginalize_add(&table[stretch], start, part, lo);
        }
    }
    assert_bits(&stretched, want, "marginalize_add over footprints", case);
    if let Some(block) = plan.block_entries() {
        let mut blocks = vec![f64::NAN; sub];
        for cut in cuts_every(sup, 3 * block).windows(2) {
            let (s0, s1) = (plan.block_slot(cut[0]), plan.block_slot(cut[1]));
            blocks[s0..s1].fill(0.0);
            plan.marginalize_add(&table[cut[0]..cut[1]], cut[0], &mut blocks[s0..s1], s0);
        }
        assert_bits(&blocks, want, "marginalize_add by blocks", case);
    }
}

/// Whether `mul` and `marg` are both unprogrammed `Generic` plans — the
/// pair that once took a single fused odometer walk, and that now runs
/// the two walks like every other pair above the program constant.
fn walks_fused(mul: &KernelPlan, marg: &KernelPlan) -> bool {
    let generic = |p: &KernelPlan| !p.is_programmed() && p.layout() == Layout::Generic;
    generic(mul) && generic(marg)
}

#[test]
fn first_write_kernels_equal_copy_then_in_place_bitwise() {
    // A lazily reset clique is rebuilt from the initial slab by the first
    // kernel that writes it. Each such kernel, on every membership
    // pattern of up to six variables — tables on both sides of the
    // run-program constant, so all four layouts with and without a
    // program — must equal copying its source into the destination and
    // running the in-place kernel, bit for bit: whole-table, chunked at
    // awkward cuts, and fused with the next marginalization (including
    // generic/generic pairs above the constant).
    let mut rebuilt = [[false; 4]; 2]; // [programmed] × layout
    let mut generic_pairs = 0u32;
    for n in 1..=6usize {
        for mask in 0u32..1 << n {
            for draw in 0..3u64 {
                let case = (n as u64) << 32 | (mask as u64) << 8 | draw;
                let mut rng = TestRng::new(0xF125 ^ case);
                // Draw 0 is all-6 at six variables (46 656 entries, over
                // the constant) and all-5 below; the others are random.
                let cards: Vec<usize> = (0..n)
                    .map(|_| match draw {
                        0 if n == 6 => 6,
                        0 => 5,
                        _ => 1 + rng.below(5),
                    })
                    .collect();
                let vars = |keep: u32| {
                    Domain::new(
                        (0..n)
                            .filter(|&p| keep >> p & 1 == 1)
                            .map(|p| (VarId(3 * p as u32), cards[p]))
                            .collect(),
                    )
                };
                let (sup, sub) = (vars(u32::MAX), vars(mask));
                let mul_sub = vars(rng.below(1 << n) as u32);
                let (plan, mul) = (KernelPlan::new(&sup, &sub), KernelPlan::new(&sup, &mul_sub));
                rebuilt[plan.is_programmed() as usize][layout_index(plan.layout())] = true;
                generic_pairs += walks_fused(&mul, &plan) as u32;

                let src = random_values(&mut rng, sup.size());
                let msg = random_values(&mut rng, sub.size());
                let mut want = src.clone();
                plan.extend_multiply(&mut want, &msg);
                let mut got = vec![f64::NAN; sup.size()];
                plan.extend_multiply_from(&src, &mut got, &msg);
                assert_bits(&got, &want, "extend_multiply_from vs copy + extend", case);

                let cuts = awkward_cuts(sup.size());
                let mut want = src.clone();
                let mut got = vec![f64::NAN; sup.size()];
                for cut in cuts.windows(2) {
                    let (lo, hi) = (cut[0], cut[1]);
                    plan.extend_multiply_range(&mut want[lo..hi], &msg, lo);
                    plan.extend_multiply_range_from(&src[lo..hi], &mut got[lo..hi], &msg, lo);
                }
                assert_bits(
                    &got,
                    &want,
                    "extend_multiply_range_from vs copy + range",
                    case,
                );

                let mul_msg = random_values(&mut rng, mul_sub.size());
                let (mut want_table, mut want_out) = (src.clone(), vec![f64::NAN; sub.size()]);
                multiply_marginalize(&mul, &plan, &mut want_table, &mul_msg, &mut want_out);
                let (mut got_table, mut got_out) =
                    (vec![f64::NAN; sup.size()], vec![f64::NAN; sub.size()]);
                multiply_marginalize_from(
                    &mul,
                    &plan,
                    &src,
                    &mut got_table,
                    &mul_msg,
                    &mut got_out,
                );
                assert_bits(&got_table, &want_table, "fused from: clique", case);
                assert_bits(&got_out, &want_out, "fused from: message", case);
            }
        }
    }
    // `Identity` never has a program; every other layout runs both ways.
    assert_eq!(rebuilt, [[true; 4], [false, true, true, true]]);
    assert!(
        generic_pairs > 0,
        "no generic/generic pair above the program constant"
    );
}

#[test]
fn fixed_arity_arms_match_the_generic_run_loop_bitwise() {
    // Every membership pattern of up to five variables over cards drawn
    // from {1, 2, 3, 4, 5}: run lengths 2, 3 and 4 arise both from one
    // innermost variable and from merged pairs (2 × 2). Each programmed
    // plan is counted under its `(spread, run_len)` arm, and each kernel
    // it runs must equal the same program forced through the generic run
    // loop, bit for bit.
    const CARDS: [usize; 5] = [1, 2, 3, 4, 5];
    let mut arms = [[0u32; 5]; 2]; // [summed, spread] × [generic, -, 2, 3, 4]
    for n in 1..=5usize {
        for mask in 0u32..1 << n {
            for draw in 0..8u64 {
                let case = (n as u64) << 32 | (mask as u64) << 8 | draw;
                let mut rng = TestRng::new(0xA417 ^ case);
                let cards: Vec<usize> = (0..n).map(|_| CARDS[rng.below(5)]).collect();
                let vars = |keep: u32| {
                    Domain::new(
                        (0..n)
                            .filter(|&p| keep >> p & 1 == 1)
                            .map(|p| (VarId(p as u32), cards[p]))
                            .collect(),
                    )
                };
                let (sup, sub) = (vars(u32::MAX), vars(mask));
                let plan = KernelPlan::new(&sup, &sub);
                let Some((spread, run_len)) = plan.run_shape() else {
                    continue;
                };
                arms[spread as usize][if (2..=4).contains(&run_len) {
                    run_len
                } else {
                    0
                }] += 1;
                check_against_generic_runs(&plan, &mut rng, case);
            }
        }
    }
    for spread in [false, true] {
        for run_len in 2..=4 {
            assert!(
                arms[spread as usize][run_len] > 0,
                "arm (spread {spread}, run_len {run_len}) never exercised: {arms:?}"
            );
        }
        assert!(arms[spread as usize][0] > 0, "generic arm: {arms:?}");
    }
}

/// Every whole-table kernel of `plan` against the same plan run through
/// the generic run loop, each reduction onto a stale output.
fn check_against_generic_runs(plan: &KernelPlan, rng: &mut TestRng, case: u64) {
    let generic = plan.with_generic_run_loop();
    let table = random_values(rng, plan.sup_size());
    let msg = random_values(rng, plan.sub_size());
    let (mut got, mut want) = (vec![f64::NAN; plan.sub_size()], vec![0.5; plan.sub_size()]);
    plan.marginalize(&table, &mut got);
    generic.marginalize(&table, &mut want);
    assert_bits(&got, &want, "fixed-arity marginalize", case);
    plan.max_marginalize(&table, &mut got);
    generic.max_marginalize(&table, &mut want);
    assert_bits(&got, &want, "fixed-arity max_marginalize", case);

    let (mut got, mut want) = (table.clone(), table.clone());
    plan.extend_multiply(&mut got, &msg);
    generic.extend_multiply(&mut want, &msg);
    assert_bits(&got, &want, "fixed-arity extend_multiply", case);
    let mut got = vec![f64::NAN; plan.sup_size()];
    plan.extend_multiply_from(&table, &mut got, &msg);
    assert_bits(&got, &want, "fixed-arity extend_multiply_from", case);
    generic.extend_multiply_from(&table, &mut got, &msg);
    assert_bits(&got, &want, "generic extend_multiply_from", case);
}

#[test]
fn single_variable_kernels_match_decode_reference_bitwise() {
    // The observed variable first, in the middle, last and alone, at
    // every cardinality the engines meet in practice and every state;
    // each table both with mixed values (exact and negative zeros among
    // them) and all zeros.
    for card in [1usize, 2, 3, 5, 7] {
        let shapes: [&[usize]; 4] = [&[card], &[card, 3, 2], &[2, card, 3], &[3, 2, card]];
        for (shape, (cards, pos)) in shapes.iter().zip([0, 0, 1, 2]).enumerate() {
            let dom = Domain::new(
                cards
                    .iter()
                    .enumerate()
                    .map(|(p, &c)| (VarId(3 * p as u32 + 2), c))
                    .collect(),
            );
            let var = dom.vars()[pos];
            let axis = VarAxis::of(&dom, var);
            assert_eq!((axis.stride, axis.card), (dom.stride_of(var), card));
            let state_of: Vec<usize> = {
                let mut states = vec![0; dom.num_vars()];
                (0..dom.size())
                    .map(|i| {
                        dom.decode(i, &mut states);
                        states[pos]
                    })
                    .collect()
            };
            let case = (card * 10 + shape) as u64;
            let mut rng = TestRng::new(case);
            let mut mixed = random_values(&mut rng, dom.size());
            for v in mixed.iter_mut().step_by(5) {
                *v = -0.0;
            }
            let zeros: Vec<f64> = (0..dom.size())
                .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            for table in [&mixed, &zeros] {
                let mut want = vec![0.0; card];
                for (i, &v) in table.iter().enumerate() {
                    want[state_of[i]] += v;
                }
                let mut got = vec![f64::NAN; card];
                axis.marginal(table, &mut got);
                assert_bits(&got, &want, "marginal", case);

                for state in 0..card {
                    let mut got = table.clone();
                    axis.select(&mut got, state);
                    let want: Vec<f64> = table
                        .iter()
                        .zip(&state_of)
                        .map(|(&v, &s)| if s == state { v } else { 0.0 })
                        .collect();
                    assert_bits(&got, &want, "select", case);

                    // As a first write, into a stale destination: the
                    // bits of copy + select.
                    let mut from = vec![f64::NAN; table.len()];
                    axis.select_from(table, &mut from, state);
                    assert_bits(&from, &got, "select_from vs copy + select", case);
                }

                let factors: Vec<f64> = (0..card).map(|s| 0.25 + s as f64 / 3.0).collect();
                let mut got = table.clone();
                axis.scale(&mut got, &factors);
                let want: Vec<f64> = table
                    .iter()
                    .zip(&state_of)
                    .map(|(&v, &s)| v * factors[s])
                    .collect();
                assert_bits(&got, &want, "scale", case);
            }
        }
    }
}

fn assert_bits(got: &[f64], want: &[f64], what: &str, seed: u64) {
    assert_eq!(got.len(), want.len(), "{what} length (seed {seed})");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what} slot {i} (seed {seed}): {g} vs {w}"
        );
    }
}

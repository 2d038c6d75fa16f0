//! Table-kernel microbenchmarks: precompiled [`KernelPlan`]s vs
//! per-call plan derivation, across the plan's layout taxonomy.
//!
//! Usage:
//! ```text
//! cargo run -p fastbn-bench --release --bin kernels -- \
//!     [--iters N] [--quick] [--json PATH]
//! ```
//!
//! Three synthetic (clique, separator) domain pairs exercise one layout
//! class each — `inner_block` (separator is a scope suffix: stride-1
//! fibers), `outer_block` (scope prefix: contiguous blocked sums) and
//! `generic` (scattered scope: odometer walk). The clique has exactly
//! 4 096 entries, the largest table a plan compiles into a run program,
//! so the `planned` rows time that program, not the layout kernels named
//! above (see `fastbn_potential::plan`). For every pair, each hot kernel
//! runs in two modes:
//!
//! * `planned` — the plan is compiled once and reused, the steady-state
//!   cost the engines pay after [`Prepared`] compilation;
//! * `percall` — the plan is rebuilt every invocation, the cost the
//!   table-level compat entry points (and the pre-plan code) pay.
//!
//! The fused collect step is recorded as `multiply_marginalize` in mode
//! `fused` against the equivalent two-pass `two_pass`
//! (extend-multiply-then-marginalize) formulation, both precompiled.
//!
//! `--quick` sizes iteration counts so each row covers tens of
//! milliseconds; `--json PATH` writes the schema-v1 `BENCH_*.json`
//! record committed as `perf/BENCH_kernels_quick.json` and enforced by
//! the CI `perf-gate` job.
//!
//! [`KernelPlan`]: fastbn_potential::KernelPlan
//! [`Prepared`]: fastbn_inference::Prepared

use std::path::PathBuf;
use std::time::Instant;

use fastbn_bayesnet::VarId;
use fastbn_bench::report::{BenchReport, BenchRow};
use fastbn_potential::{multiply_marginalize, Domain, KernelPlan, Layout};

struct Args {
    iters: usize,
    quick: bool,
    json: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 40_000,
        quick: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            // Sized so even the fastest planned kernel covers tens of
            // milliseconds on a small container — the regression gate
            // needs timings well clear of clock jitter.
            "--quick" => {
                args.quick = true;
                args.iters = 8_000;
            }
            "--iters" => {
                args.iters = it.next().and_then(|v| v.parse().ok()).expect("--iters N");
            }
            "--json" => {
                args.json = Some(PathBuf::from(it.next().expect("--json PATH")));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    args
}

/// One synthetic (clique, separator) pair hitting a specific layout.
struct Case {
    name: &'static str,
    sup: Domain,
    sub: Domain,
}

fn cases() -> Vec<Case> {
    // A 6-variable card-4 clique (4096 entries) — mid-sized for the
    // evaluation networks — with 2-variable separators (16 entries)
    // placed to select each layout class.
    let pairs: Vec<(VarId, usize)> = (0..6).map(|v| (VarId(v), 4)).collect();
    let sup = || Domain::new(pairs.clone());
    vec![
        Case {
            name: "inner_block",
            sup: sup(),
            sub: Domain::new(vec![(VarId(4), 4), (VarId(5), 4)]),
        },
        Case {
            name: "outer_block",
            sup: sup(),
            sub: Domain::new(vec![(VarId(0), 4), (VarId(1), 4)]),
        },
        Case {
            name: "generic",
            sup: sup(),
            sub: Domain::new(vec![(VarId(1), 4), (VarId(4), 4)]),
        },
    ]
}

/// Times `body` for `iters` repetitions; returns seconds.
fn time(iters: usize, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        body();
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let args = parse_args();
    let mut report = BenchReport::new("kernels", args.quick);
    println!(
        "Kernel plan microbench: {} iters/row, clique 4^6 = 4096 entries, sep 16 entries",
        args.iters
    );
    println!(
        "{:<12} {:<22} {:<9} {:>12} {:>14}",
        "layout", "kernel", "mode", "total(ms)", "M entries/s"
    );

    for case in cases() {
        let plan = KernelPlan::new(&case.sup, &case.sub);
        let expected = match case.name {
            "inner_block" => Layout::InnerBlock,
            "outer_block" => matches!(plan.layout(), Layout::OuterBlock { .. })
                .then_some(plan.layout())
                .expect("outer_block case must classify as OuterBlock"),
            _ => Layout::Generic,
        };
        assert_eq!(plan.layout(), expected, "case {} layout drifted", case.name);

        let table: Vec<f64> = (0..case.sup.size())
            .map(|i| 1.0 + (i % 7) as f64 * 0.25)
            .collect();
        let msg: Vec<f64> = (0..case.sub.size())
            .map(|i| 0.5 + (i % 3) as f64 * 0.5)
            .collect();
        let mut out = vec![0.0; case.sub.size()];
        let mut scratch = table.clone();
        let iters = args.iters;

        let mut emit = |kernel: &str, mode: &str, seconds: f64, entries_per_iter: usize| {
            let entries = (entries_per_iter * iters) as f64;
            println!(
                "{:<12} {:<22} {:<9} {:>12.2} {:>14.1}",
                case.name,
                kernel,
                mode,
                seconds * 1e3,
                entries / seconds / 1e6
            );
            report.push(BenchRow::new(case.name, kernel, mode, 1, 0).timed(iters, seconds));
        };

        // marginalize: planned vs per-call compiled.
        let s = time(iters, || plan.marginalize(&table, &mut out));
        emit("marginalize", "planned", s, case.sup.size());
        let s = time(iters, || {
            KernelPlan::new(&case.sup, &case.sub).marginalize(&table, &mut out)
        });
        emit("marginalize", "percall", s, case.sup.size());

        // extend_multiply: planned vs per-call compiled.
        let s = time(iters, || plan.extend_multiply(&mut scratch, &msg));
        emit("extend_multiply", "planned", s, case.sup.size());
        scratch.copy_from_slice(&table);
        let s = time(iters, || {
            KernelPlan::new(&case.sup, &case.sub).extend_multiply(&mut scratch, &msg)
        });
        emit("extend_multiply", "percall", s, case.sup.size());

        // Fused collect step vs the two-pass formulation (both planned).
        scratch.copy_from_slice(&table);
        let s = time(iters, || {
            scratch.copy_from_slice(&table);
            multiply_marginalize(&plan, &plan, &mut scratch, &msg, &mut out);
        });
        emit("multiply_marginalize", "fused", s, 2 * case.sup.size());
        let s = time(iters, || {
            scratch.copy_from_slice(&table);
            plan.extend_multiply(&mut scratch, &msg);
            plan.marginalize(&scratch, &mut out);
        });
        emit("multiply_marginalize", "two_pass", s, 2 * case.sup.size());
    }

    if let Some(path) = &args.json {
        report.write(path).expect("write --json report");
        println!("\nwrote {} ({} rows)", path.display(), report.rows.len());
    }
}

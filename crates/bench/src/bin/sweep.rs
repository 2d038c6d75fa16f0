//! Thread sweep — reproduces the paper's in-text methodology: "we varied
//! the number of OpenMP threads t from 1 to 32 and chose the one with the
//! shortest execution time", and its observation that "Fast-BNI always
//! achieves its shortest execution time when t = 32 on large BNs".
//!
//! Usage:
//! ```text
//! cargo run -p fastbn-bench --release --bin sweep -- \
//!     [--cases N] [--threads 1,2,4,8,16,32] [--networks pigs,...] \
//!     [--engines hybrid,direct] [--quick]
//! ```
//! Defaults: 10 cases, threads {1, 2, 4, 8, 16, 32} (counts above the
//! core count oversubscribe, as the paper's 32 threads did on 52 cores),
//! the four parallel engines. `--engines` is parsed via
//! `EngineKind::from_str` (ids or display names, case-insensitive).
//! `--quick` is the CI smoke preset (192 cases, threads {1, 2}, the
//! smallest network, the hybrid and direct engines).

use fastbn_bench::measure::{prepare, run_cases};
use fastbn_bench::workloads::all_workloads;
use fastbn_inference::EngineKind;

fn main() {
    let mut cases_n = 10usize;
    let mut threads = vec![1usize, 2, 4, 8, 16, 32];
    let mut networks: Option<Vec<String>> = None;
    let mut engines: Vec<EngineKind> = EngineKind::parallel().to_vec();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => {
                // Enough cases that each cell covers tens of
                // milliseconds, well clear of clock jitter.
                cases_n = 192;
                threads = vec![1, 2];
                networks = Some(vec!["hailfinder".into()]);
                engines = vec![EngineKind::Hybrid, EngineKind::Direct];
            }
            "--cases" => cases_n = it.next().and_then(|v| v.parse().ok()).expect("--cases N"),
            "--threads" => {
                threads = it
                    .next()
                    .expect("--threads list")
                    .split(',')
                    .map(|t| t.parse().expect("thread count"))
                    .collect()
            }
            "--networks" => {
                networks = Some(
                    it.next()
                        .expect("--networks list")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--engines" => {
                engines = it
                    .next()
                    .expect("--engines list")
                    .split(',')
                    .map(|e| {
                        e.parse::<EngineKind>()
                            .unwrap_or_else(|err| panic!("{err}"))
                    })
                    .collect()
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    println!("Thread sweep: {cases_n} cases/network, per-engine seconds by t\n");
    for w in all_workloads() {
        if let Some(filter) = &networks {
            if !filter.iter().any(|n| n == w.name) {
                continue;
            }
        }
        let net = w.build();
        let prepared = prepare(&net);
        let cases = w.cases(&net, cases_n);
        println!(
            "== {} ({}, {} nodes) ==",
            w.name,
            if w.large_scale { "large" } else { "small" },
            net.num_vars()
        );
        print!("{:<14}", "engine \\ t");
        for &t in &threads {
            print!(" {t:>9}");
        }
        println!();
        for &kind in &engines {
            print!("{kind:<14}");
            let mut best = (0usize, f64::INFINITY);
            for &t in &threads {
                let s = run_cases(kind, prepared.clone(), t, &cases)
                    .total
                    .as_secs_f64();
                if s < best.1 {
                    best = (t, s);
                }
                print!(" {s:>9.3}");
            }
            println!("   best: t={}", best.0);
        }
        println!();
    }
}

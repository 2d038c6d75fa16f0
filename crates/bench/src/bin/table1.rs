//! Regenerates **Table 1** of the paper: sequential (UnBBayes-analogue vs
//! Fast-BNI-seq) and parallel (Direct / Primitive / Element vs
//! Fast-BNI-par) execution-time comparison on the six network analogues,
//! with the paper's published speedups printed alongside the measured
//! ones.
//!
//! Usage:
//! ```text
//! cargo run -p fastbn-bench --release --bin table1 -- \
//!     [--cases N] [--threads 1,2,4] [--networks hailfinder,pigs,...] \
//!     [--engines direct,hybrid] [--quick]
//! ```
//! Defaults: 20 cases (the paper uses 2,000 — scale up with `--cases`),
//! thread sweep {1, 2, 4}, all six networks, all four parallel engines.
//! `--engines` picks the parallel columns by canonical id (`direct`,
//! `primitive`, `element`, `hybrid`) or display name (`Fast-BNI-par`),
//! parsed via `EngineKind::from_str`; unpicked columns print `-`. The two
//! sequential columns always run, so `seq` and `reference` are rejected.
//! `--quick` is the CI smoke preset — 48 cases, threads {1, 2}, the
//! smallest network only (later flags still override it).

use fastbn_bench::measure::{best_over_threads, prepare, run_cases, EngineTiming};
use fastbn_bench::workloads::all_workloads;
use fastbn_inference::EngineKind;

struct Args {
    cases: usize,
    threads: Vec<usize>,
    networks: Option<Vec<String>>,
    engines: Vec<EngineKind>,
}

/// Parses one `--engines` entry; only the parallel columns are optional.
fn parallel_engine(name: &str) -> EngineKind {
    let kind = name
        .parse::<EngineKind>()
        .unwrap_or_else(|err| panic!("{err}"));
    if !EngineKind::parallel().contains(&kind) {
        let valid: Vec<_> = EngineKind::parallel().iter().map(EngineKind::id).collect();
        panic!(
            "engine {name:?} is a sequential column, which always runs; \
             --engines expects one of: {}",
            valid.join(", ")
        );
    }
    kind
}

fn parse_args() -> Args {
    let mut args = Args {
        cases: 20,
        threads: vec![1, 2, 4],
        networks: None,
        engines: EngineKind::parallel().to_vec(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => {
                // Enough cases that the slow reference engine still
                // covers tens of milliseconds, well clear of clock jitter.
                args.cases = 48;
                args.threads = vec![1, 2];
                args.networks = Some(vec!["hailfinder".to_string()]);
            }
            "--cases" => {
                args.cases = it.next().and_then(|v| v.parse().ok()).expect("--cases N");
            }
            "--threads" => {
                let list = it.next().expect("--threads 1,2,4");
                args.threads = list
                    .split(',')
                    .map(|t| t.parse().expect("thread count"))
                    .collect();
            }
            "--networks" => {
                let list = it.next().expect("--networks a,b");
                args.networks = Some(list.split(',').map(str::to_string).collect());
            }
            "--engines" => {
                let list = it.next().expect("--engines direct,hybrid");
                args.engines = list.split(',').map(parallel_engine).collect();
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "Table 1 reproduction: {} cases/network, 20% evidence, threads {:?}, parallel engines: {}",
        args.cases,
        args.threads,
        args.engines
            .iter()
            .map(EngineKind::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "(paper speedups in parentheses; absolute seconds are not comparable — the analogues \
         keep the paper networks' relative clique sizes, not their absolute ones)\n"
    );
    println!(
        "{:<12} | {:>9} {:>9} {:>16} | {:>9} {:>9} {:>9} {:>9} {:>14} {:>14} {:>14}",
        "BN",
        "Ref(s)",
        "Seq(s)",
        "SeqSpdup",
        "Dir(s)",
        "Prim(s)",
        "Elem(s)",
        "Par(s)",
        "vs Dir",
        "vs Prim",
        "vs Elem"
    );

    let selected = |kind: EngineKind| args.engines.contains(&kind);
    for w in all_workloads() {
        if let Some(filter) = &args.networks {
            if !filter.iter().any(|n| n == w.name) {
                continue;
            }
        }
        let net = w.build();
        let prepared = prepare(&net);
        let cases = w.cases(&net, args.cases);

        let reference = run_cases(EngineKind::Reference, prepared.clone(), 1, &cases);
        let seq = run_cases(EngineKind::Seq, prepared.clone(), 1, &cases);
        let run_parallel = |kind: EngineKind| -> Option<EngineTiming> {
            selected(kind).then(|| best_over_threads(kind, prepared.clone(), &args.threads, &cases))
        };
        let direct = run_parallel(EngineKind::Direct);
        let primitive = run_parallel(EngineKind::Primitive);
        let element = run_parallel(EngineKind::Element);
        let hybrid = run_parallel(EngineKind::Hybrid);

        let secs =
            |t: &Option<EngineTiming>| -> Option<f64> { t.as_ref().map(|t| t.total.as_secs_f64()) };
        let cell = |v: Option<f64>| match v {
            Some(s) => format!("{s:>9.3}"),
            None => format!("{:>9}", "-"),
        };
        let speedup = |num: Option<f64>, den: Option<f64>, paper: f64| match (num, den) {
            // Populated cells are 15 chars (6+1 ratio, 2+4+2 paper
            // annotation); the placeholder must match for alignment.
            (Some(n), Some(d)) if d > 0.0 => format!("{:>6.1}x ({paper:>4.1}x)", n / d),
            _ => format!("{:>15}", "-"),
        };
        let ref_s = reference.total.as_secs_f64();
        let seq_s = seq.total.as_secs_f64();
        println!(
            "{:<12} | {:>9.3} {:>9.3} {:>7.1}x ({:>4.1}x) | {} {} {} {} {} {} {}",
            w.name,
            ref_s,
            seq_s,
            if seq_s > 0.0 { ref_s / seq_s } else { f64::NAN },
            w.paper.seq_speedup,
            cell(secs(&direct)),
            cell(secs(&primitive)),
            cell(secs(&element)),
            cell(secs(&hybrid)),
            speedup(secs(&direct), secs(&hybrid), w.paper.dir_speedup),
            speedup(secs(&primitive), secs(&hybrid), w.paper.prim_speedup),
            speedup(secs(&element), secs(&hybrid), w.paper.elem_speedup),
        );
    }
}

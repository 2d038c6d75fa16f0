//! **Table 1** of the paper on the six network analogues: sequential
//! (Reference, the UnBBayes stand-in, vs Fast-BNI-seq) and parallel
//! (Direct / Primitive / Element vs Fast-BNI-par) execution times, each
//! parallel engine at its best thread count, with the paper's published
//! speedups printed beside the measured ones.
//!
//! Per network it prints the junction-tree statistics behind the
//! comparison (including the layer counts of the first-clique and
//! diameter-endpoint rootings that the paper's center rooting improves
//! on), times Reference and Seq once, and runs every parallel engine at
//! every thread count — the paper "varied the number of OpenMP threads t
//! from 1 to 32 and chose the one with the shortest execution time".
//! Every engine's `P(e)` must equal Seq's bit for bit on every case at
//! every thread count; otherwise the run panics (non-zero exit).
//!
//! Timing follows the paper's repeated-inference method: one session per
//! engine and thread count, construction and one warm-up query excluded.
//! The analogues keep the paper networks' relative clique sizes, not
//! their absolute ones, so only the speedups are comparable. The tables
//! it prints decide no performance claim: the `benchmark/` package does.
//!
//! Usage:
//! ```text
//! cargo run --release --example table1 -- \
//!     [--cases N] [--threads 1,2,4] [--networks hailfinder,pigs] [--quick]
//! ```
//! Defaults: 20 cases per network (the paper used 2 000), threads
//! {1, 2, 4, 8, 16, 32} (counts above the core count oversubscribe, as
//! the paper's 32 threads did on 52 cores), all six networks. `--quick`
//! is the CI smoke preset: 96 cases, threads {1, 2}, hailfinder only;
//! later flags still override it.

use std::sync::Arc;
use std::time::Instant;

use fastbn::bayesnet::analogues::{self, Analogue};
use fastbn::jtree::{root_tree, tree_stats, LayerSchedule, RootStrategy};
use fastbn::{BayesianNetwork, EngineKind, Evidence, Prepared, Solver};

/// One network's published speedups in the paper's Table 1: UnBBayes
/// over Fast-BNI-seq, then Fast-BNI-par over Direct, Primitive and
/// Element.
struct PaperRow(&'static str, f64, [f64; 3]);

const PAPER: [PaperRow; 6] = [
    PaperRow("hailfinder", 7.1, [1.2, 1.3, 1.6]),
    PaperRow("pathfinder", 4.6, [3.6, 2.1, 2.5]),
    PaperRow("diabetes", 13.1, [5.4, 4.1, 5.9]),
    PaperRow("pigs", 11.7, [15.1, 4.8, 10.7]),
    PaperRow("munin2", 1.2, [8.1, 3.9, 6.8]),
    PaperRow("munin4", 7.6, [6.7, 3.4, 7.1]),
];

struct Args {
    cases: usize,
    threads: Vec<usize>,
    networks: Vec<Analogue>,
}

fn parse_args() -> Args {
    let mut cases = 20;
    let mut threads = vec![1, 2, 4, 8, 16, 32];
    let mut networks: Option<Vec<String>> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => {
                // Enough cases that each cell covers milliseconds, clear
                // of clock jitter.
                cases = 96;
                threads = vec![1, 2];
                networks = Some(vec!["hailfinder".to_string()]);
            }
            "--cases" => cases = value().parse().expect("--cases N"),
            "--threads" => {
                threads = value()
                    .split(',')
                    .map(|t| t.parse().expect("--threads 1,2,4"))
                    .collect()
            }
            "--networks" => networks = Some(value().split(',').map(str::to_string).collect()),
            other => panic!("unknown flag {other:?}"),
        }
    }
    let networks = match networks {
        Some(names) => names
            .iter()
            .map(|n| analogues::by_name(n).unwrap_or_else(|| panic!("unknown network {n:?}")))
            .collect(),
        None => analogues::all(),
    };
    Args {
        cases,
        threads,
        networks,
    }
}

/// Runs every case through one session of `kind` at `threads`: the
/// milliseconds the query loop took and each case's `P(e)` bits.
fn run(
    prepared: &Arc<Prepared>,
    kind: EngineKind,
    threads: usize,
    cases: &[Evidence],
) -> (f64, Vec<u64>) {
    let solver = Solver::from_prepared(prepared.clone())
        .engine(kind)
        .threads(threads)
        .build();
    let mut session = solver.session();
    // One untimed warm-up query faults in all working memory.
    let _ = session.posteriors(&cases[0]);
    let mut bits = Vec::with_capacity(cases.len());
    let start = Instant::now();
    for evidence in cases {
        let posteriors = session
            .posteriors(evidence)
            .expect("analogue evidence is sampled from the joint, so P(e) > 0");
        bits.push(posteriors.prob_evidence.to_bits());
    }
    (start.elapsed().as_secs_f64() * 1e3, bits)
}

/// Panics unless `bits` equals Seq's `P(e)` bits on every case.
fn check_against_seq(what: &str, bits: &[u64], seq: &[u64]) {
    if let Some(case) = (0..seq.len()).find(|&i| bits[i] != seq[i]) {
        panic!("{what}: P(e) of case {case} differs from Seq's");
    }
}

/// The tree statistics line, with layer counts under the three rootings.
fn print_structure(analogue: &Analogue, net: &BayesianNetwork, prepared: &Prepared) {
    let built = &prepared.built;
    let stats = tree_stats(net, built);
    let layers =
        |strategy| LayerSchedule::new(&built.tree, &root_tree(&built.tree, strategy)).num_layers();
    let scale = if analogue.large_scale {
        "large"
    } else {
        "small"
    };
    println!(
        "== {} ({scale}-scale): {} nodes, {} arcs -> {} cliques, width {}, entries {} max / {} total, \
         layers {} center / {} first / {} worst ==",
        analogue.name,
        net.num_vars(),
        net.num_edges(),
        stats.num_cliques,
        stats.width,
        stats.max_clique_entries,
        stats.total_clique_entries,
        stats.num_layers,
        layers(RootStrategy::First),
        layers(RootStrategy::Worst),
    );
}

fn main() {
    let args = parse_args();
    println!(
        "Table 1 reproduction: {} cases/network, 20% evidence, threads {:?}; \
         milliseconds for all cases\n",
        args.cases, args.threads
    );
    let mut table = Vec::new();
    for analogue in &args.networks {
        let net = analogue.build();
        let prepared = Arc::new(Prepared::new(&net, &Default::default()));
        let cases = analogue.cases(&net, args.cases);
        print_structure(analogue, &net, &prepared);

        let (seq, seq_bits) = run(&prepared, EngineKind::Seq, 1, &cases);
        let (reference, ref_bits) = run(&prepared, EngineKind::Reference, 1, &cases);
        check_against_seq("Reference", &ref_bits, &seq_bits);
        println!("{:<14} {reference:>9.2}", EngineKind::Reference);
        println!("{:<14} {seq:>9.2}", EngineKind::Seq);

        print!("{:<14}", "engine \\ t");
        for t in &args.threads {
            print!(" {t:>9}");
        }
        println!();
        // Each parallel engine's best time over the thread counts, in
        // `EngineKind::parallel()` order: Direct, Primitive, Element,
        // Hybrid.
        let mut best = [f64::INFINITY; 4];
        for (kind, best) in EngineKind::parallel().into_iter().zip(&mut best) {
            print!("{kind:<14}");
            let mut best_t = 0;
            for &t in &args.threads {
                let (ms, bits) = run(&prepared, kind, t, &cases);
                check_against_seq(&format!("{kind} at t={t}"), &bits, &seq_bits);
                print!(" {ms:>9.2}");
                if ms < *best {
                    (*best, best_t) = (ms, t);
                }
            }
            println!("   best: t={best_t}");
        }
        println!();

        let PaperRow(_, paper_seq, paper_par) = PAPER
            .iter()
            .find(|row| row.0 == analogue.name)
            .expect("published row");
        let speedup =
            |num: f64, den: f64, paper: f64| format!(" {:>6.1}x ({paper:>4.1}x)", num / den);
        let mut row = format!("{:<12} | {reference:>9.2} {seq:>9.2}", analogue.name);
        row += &speedup(reference, seq, *paper_seq);
        row += " |";
        for ms in best {
            row += &format!(" {ms:>9.2}");
        }
        for (ms, paper) in best.iter().zip(paper_par) {
            row += &speedup(*ms, best[3], *paper);
        }
        table.push(row);
    }

    let columns = |names: &[&str], width: usize| -> String {
        names.iter().map(|n| format!(" {n:>width$}")).collect()
    };
    println!("Table 1 (paper speedups in parentheses):");
    println!(
        "{:<12} |{}{} |{}{}",
        "BN",
        columns(&["Ref ms", "Seq ms"], 9),
        columns(&["Seq speedup"], 15),
        columns(&["Dir ms", "Prim ms", "Elem ms", "Par ms"], 9),
        columns(&["vs Dir", "vs Prim", "vs Elem"], 15),
    );
    for row in &table {
        println!("{row}");
    }
    println!("\nevery engine's P(e) equals Seq's bit for bit on every case and thread count");
}

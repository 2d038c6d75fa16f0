//! Runs all six engine kinds on the same workload, verifying they agree
//! bit-for-bit and reporting their speeds — Table 1 in miniature.
//!
//! The one-query-at-a-time loop below is deliberate: it reproduces the
//! paper's repeated-inference timing methodology. When you just want N
//! independent queries answered fast, use `Session::run_batch` (see the
//! batch_serving example) or a `Server` (see the serving example)
//! instead of a loop like this.
//!
//! Run with: `cargo run --release --example engine_comparison`

use std::sync::Arc;
use std::time::Instant;

use fastbn::bayesnet::generators::{windowed_dag, ArityDist, CptStyle, WindowedDagSpec};
use fastbn::bayesnet::sampler::generate_cases;
use fastbn::{EngineKind, Prepared, Solver};

fn main() {
    // A mid-sized synthetic network (Pigs-like: uniform ternary).
    let net = windowed_dag(&WindowedDagSpec {
        name: "comparison-net".into(),
        nodes: 300,
        target_arcs: 400,
        max_parents: 2,
        window: 6,
        arity: ArityDist::Fixed(3),
        cpt: CptStyle { alpha: 0.7 },
        seed: 7,
    });
    let prepared = Arc::new(Prepared::new(&net, &Default::default()));
    println!(
        "network: {} vars, {} edges -> {} cliques, width {}, {} layers",
        net.num_vars(),
        net.num_edges(),
        prepared.num_cliques(),
        prepared.built.tree.width(),
        prepared.built.schedule.num_layers()
    );

    let cases: Vec<_> = generate_cases(&net, 40, 0.2, 123)
        .into_iter()
        .map(|c| c.evidence)
        .collect();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    println!("{} cases, 20% evidence, {} threads\n", cases.len(), threads);

    let mut baseline: Option<Vec<f64>> = None;
    println!("{:<14} {:>10} {:>12}", "engine", "total (s)", "vs Seq");
    let mut seq_time = None;
    for kind in EngineKind::all() {
        let t = if matches!(kind, EngineKind::Reference | EngineKind::Seq) {
            1
        } else {
            threads
        };
        // All six solvers share the one Prepared; only the engine differs.
        let solver = Solver::from_prepared(prepared.clone())
            .engine(kind)
            .threads(t)
            .build();
        let mut session = solver.session();
        let start = Instant::now();
        let mut checksums = Vec::with_capacity(cases.len());
        for ev in &cases {
            let post = session.posteriors(ev).expect("valid evidence");
            checksums.push(post.prob_evidence);
        }
        let elapsed = start.elapsed().as_secs_f64();
        // All engines must produce identical evidence probabilities.
        match &baseline {
            None => baseline = Some(checksums),
            Some(expected) => {
                assert_eq!(expected, &checksums, "{kind} disagrees with the baseline")
            }
        }
        if matches!(kind, EngineKind::Seq) {
            seq_time = Some(elapsed);
        }
        let vs_seq = seq_time.map_or(String::from("-"), |s| format!("{:.2}x", s / elapsed));
        println!("{:<14} {:>10.3} {:>12}", kind.to_string(), elapsed, vs_seq);
    }
    println!("\nall engines agreed bit-for-bit on P(evidence) for every case");
}

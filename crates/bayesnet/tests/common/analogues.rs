//! The generator specs of the five networks the acceptance benchmark
//! runs (`benchmark/src/model.rs`), copied so crate-level tests can pin
//! behaviour on them. Shared by `fastbn-bayesnet`'s BIF tests and
//! `fastbn-jtree`'s triangulation tests.

use fastbn_bayesnet::generators::{ArityDist, CptStyle, WindowedDagSpec};

fn spec(
    name: &str,
    (nodes, target_arcs, max_parents, window): (usize, usize, usize, usize),
    arity: ArityDist,
    alpha: f64,
    seed: u64,
) -> WindowedDagSpec {
    WindowedDagSpec {
        name: name.into(),
        nodes,
        target_arcs,
        max_parents,
        window,
        arity,
        cpt: CptStyle { alpha },
        seed,
    }
}

/// pigs, few-large-cliques, hailfinder, pathfinder and munin2 analogues.
pub fn benchmark_analogues() -> Vec<WindowedDagSpec> {
    let hailfinder =
        ArityDist::Weighted(vec![(2, 0.40), (3, 0.25), (4, 0.20), (5, 0.07), (11, 0.08)]);
    let pathfinder = ArityDist::Weighted(vec![
        (2, 0.50),
        (3, 0.22),
        (4, 0.18),
        (8, 0.06),
        (32, 0.02),
        (63, 0.02),
    ]);
    let munin2 = ArityDist::Weighted(vec![
        (2, 0.20),
        (3, 0.20),
        (4, 0.15),
        (5, 0.15),
        (7, 0.15),
        (10, 0.10),
        (21, 0.05),
    ]);
    vec![
        spec(
            "pigs-analogue",
            (441, 592, 2, 7),
            ArityDist::Fixed(3),
            0.5,
            4,
        ),
        spec(
            "few-large-cliques",
            (24, 60, 4, 8),
            ArityDist::Fixed(5),
            1.0,
            0xA1,
        ),
        spec("hailfinder-analogue", (56, 66, 4, 5), hailfinder, 0.6, 1),
        spec("pathfinder-analogue", (109, 195, 5, 6), pathfinder, 0.6, 2),
        spec("munin2-analogue", (1003, 1244, 3, 4), munin2, 0.6, 5),
    ]
}

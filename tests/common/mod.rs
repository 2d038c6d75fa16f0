//! Networks shared by the differential suites.

use fastbn::bayesnet::generators::{self, ArityDist, WindowedDagSpec};
use fastbn::BayesianNetwork;

/// Which of a network's phases open a pool region at width ≥ 2.
#[derive(Debug, Clone, Copy)]
pub enum Regions {
    None,
    Some,
    All,
}

/// Networks whose phases sit on both sides of the hybrid driver's
/// break-even (16 384 entries of work). A phase's work counts only tables
/// above the run-program constant (32 768 entries). Arity-6 windowed
/// DAGs over a window of 6 have cliques of 6^4 = 1 296 and 6^5 = 7 776
/// entries, which count for nothing, and a few of 6^6 = 46 656, which do:
/// one query mixes inline and parallel phases. A naive-Bayes tree is a
/// star — every phase moves `(features − 1) × class × feature` entries
/// through the hub, the multi-child receiver — so the pair of hubs
/// straddles the constant between them: 19 × 1 152 entries are past the
/// break-even but all programmed, so they stay inline; 2 × 33 280 are not
/// programmed, so every phase is a region.
pub fn straddling_networks() -> Vec<(BayesianNetwork, Regions)> {
    let mut nets: Vec<(BayesianNetwork, Regions)> = [1, 2, 4]
        .into_iter()
        .map(|seed| {
            let net = generators::windowed_dag(&WindowedDagSpec {
                target_arcs: 60,
                max_parents: 3,
                window: 6,
                arity: ArityDist::Fixed(6),
                seed,
                ..WindowedDagSpec::new(format!("straddle-{seed}"), 30)
            });
            (net, Regions::Some)
        })
        .collect();
    nets.push((generators::naive_bayes(20, 48, 24, 11), Regions::None));
    nets.push((generators::naive_bayes(3, 64, 520, 11), Regions::All));
    nets
}

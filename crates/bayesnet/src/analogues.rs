//! The six paper-network analogues plus the structure-adaptivity stress
//! networks.
//!
//! The paper's bnlearn networks are not redistributable, so each is
//! replaced by a seeded [`windowed_dag`] whose node count, arc count and
//! arity range follow the published statistics. The `window` parameter
//! bounds moral-graph bandwidth so the triangulated width (and thus the
//! clique-table sizes) stays in the range a 2-core machine can propagate
//! in milliseconds — preserving the *relative* clique-size distribution
//! that drives the paper's engine comparisons, not the absolute seconds.

use crate::generators::{windowed_dag, ArityDist, CptStyle, WindowedDagSpec};
use crate::sampler::generate_cases;
use crate::{BayesianNetwork, Evidence};

/// One of the paper's evaluation networks, as a generator spec.
#[derive(Debug, Clone)]
pub struct Analogue {
    /// Paper network name.
    pub name: &'static str,
    /// Whether the paper classifies it as large-scale.
    pub large_scale: bool,
    /// Analogue generator spec.
    pub spec: WindowedDagSpec,
}

impl Analogue {
    /// Generates the analogue network (deterministic per spec).
    pub fn build(&self) -> BayesianNetwork {
        windowed_dag(&self.spec)
    }

    /// Generates `n` seeded test cases with the paper's 20% evidence rate.
    pub fn cases(&self, net: &BayesianNetwork, n: usize) -> Vec<Evidence> {
        generate_cases(net, n, 0.2, self.spec.seed ^ 0x5eed)
            .into_iter()
            .map(|c| c.evidence)
            .collect()
    }
}

/// The paper's six evaluation networks, in Table 1 order.
pub fn all() -> Vec<Analogue> {
    vec![
        Analogue {
            name: "hailfinder",
            large_scale: false,
            spec: WindowedDagSpec {
                name: "hailfinder-analogue".into(),
                nodes: 56,
                target_arcs: 66,
                max_parents: 4,
                window: 5,
                arity: ArityDist::Weighted(vec![
                    (2, 0.40),
                    (3, 0.25),
                    (4, 0.20),
                    (5, 0.07),
                    (11, 0.08),
                ]),
                cpt: CptStyle { alpha: 0.6 },
                seed: 0x0001,
            },
        },
        Analogue {
            name: "pathfinder",
            large_scale: false,
            spec: WindowedDagSpec {
                name: "pathfinder-analogue".into(),
                nodes: 109,
                target_arcs: 195,
                max_parents: 5,
                window: 6,
                arity: ArityDist::Weighted(vec![
                    (2, 0.50),
                    (3, 0.22),
                    (4, 0.18),
                    (8, 0.06),
                    (32, 0.02),
                    (63, 0.02),
                ]),
                cpt: CptStyle { alpha: 0.6 },
                seed: 0x0002,
            },
        },
        Analogue {
            name: "diabetes",
            large_scale: true,
            spec: WindowedDagSpec {
                name: "diabetes-analogue".into(),
                nodes: 413,
                target_arcs: 602,
                max_parents: 2,
                window: 3,
                arity: ArityDist::Weighted(vec![
                    (3, 0.10),
                    (5, 0.15),
                    (8, 0.20),
                    (11, 0.25),
                    (13, 0.15),
                    (17, 0.10),
                    (21, 0.05),
                ]),
                cpt: CptStyle { alpha: 0.6 },
                seed: 0x0003,
            },
        },
        Analogue {
            name: "pigs",
            large_scale: true,
            spec: WindowedDagSpec {
                name: "pigs-analogue".into(),
                nodes: 441,
                target_arcs: 592,
                max_parents: 2,
                window: 7,
                arity: ArityDist::Fixed(3),
                cpt: CptStyle { alpha: 0.5 },
                seed: 0x0004,
            },
        },
        Analogue {
            name: "munin2",
            large_scale: true,
            spec: WindowedDagSpec {
                name: "munin2-analogue".into(),
                nodes: 1003,
                target_arcs: 1244,
                max_parents: 3,
                window: 4,
                arity: munin_arity(),
                cpt: CptStyle { alpha: 0.6 },
                seed: 0x0005,
            },
        },
        Analogue {
            name: "munin4",
            large_scale: true,
            spec: WindowedDagSpec {
                name: "munin4-analogue".into(),
                nodes: 1041,
                target_arcs: 1397,
                max_parents: 4,
                window: 5,
                arity: munin_arity(),
                cpt: CptStyle { alpha: 0.6 },
                seed: 0x0006,
            },
        },
    ]
}

/// The arity mix both Munin analogues draw from.
fn munin_arity() -> ArityDist {
    ArityDist::Weighted(vec![
        (2, 0.20),
        (3, 0.20),
        (4, 0.15),
        (5, 0.15),
        (7, 0.15),
        (10, 0.10),
        (21, 0.05),
    ])
}

/// Looks up an analogue by paper name.
pub fn by_name(name: &str) -> Option<Analogue> {
    all().into_iter().find(|a| a.name == name)
}

/// The two structural extremes of the paper's adaptivity discussion:
///
/// * `few-large-cliques` — a short, fat tree where inter-clique
///   parallelism starves (few messages per layer) but each message is
///   heavy: the Direct engine's bad case;
/// * `many-small-cliques` — a bushy tree of tiny cliques where per-region
///   overhead dominates fine-grained engines: Primitive/Element's bad
///   case.
pub fn adaptivity() -> Vec<(&'static str, BayesianNetwork)> {
    let few_large = windowed_dag(&WindowedDagSpec {
        name: "few-large-cliques".into(),
        nodes: 24,
        target_arcs: 60,
        max_parents: 4,
        window: 8,
        arity: ArityDist::Fixed(5),
        cpt: CptStyle { alpha: 1.0 },
        seed: 0x00A1,
    });
    let many_small = windowed_dag(&WindowedDagSpec {
        name: "many-small-cliques".into(),
        nodes: 1200,
        target_arcs: 1199,
        max_parents: 1,
        window: 40,
        arity: ArityDist::Fixed(2),
        cpt: CptStyle { alpha: 1.0 },
        seed: 0x00A2,
    });
    vec![
        ("few-large-cliques", few_large),
        ("many-small-cliques", many_small),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_stats_match_published_counts() {
        for a in all() {
            let net = a.build();
            assert_eq!(net.num_vars(), a.spec.nodes, "{}", a.name);
            assert_eq!(net.num_edges(), a.spec.target_arcs, "{}", a.name);
            assert!(net.max_in_degree() <= a.spec.max_parents, "{}", a.name);
        }
    }

    #[test]
    fn cases_observe_twenty_percent() {
        let a = by_name("hailfinder").unwrap();
        let net = a.build();
        let cases = a.cases(&net, 5);
        assert_eq!(cases.len(), 5);
        let expected = (net.num_vars() as f64 * 0.2).ceil() as usize;
        assert!(cases.iter().all(|c| c.len() == expected));
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("pigs").is_some());
        assert!(by_name("nonexistent").is_none());
    }
}

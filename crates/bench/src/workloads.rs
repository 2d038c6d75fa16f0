//! The six paper-network analogues plus the structure-adaptivity stress
//! networks.
//!
//! Node/arc counts and arity ranges follow the published statistics of the
//! bnlearn repository networks; the `window` parameter bounds moral-graph
//! bandwidth so the triangulated width (and thus the clique-table sizes)
//! stays in the range a 2-core container can propagate in milliseconds —
//! preserving the *relative* clique-size distribution that drives the
//! paper's engine comparisons, not the absolute seconds.

use fastbn_bayesnet::generators::{windowed_dag, ArityDist, CptStyle, WindowedDagSpec};
use fastbn_bayesnet::sampler::generate_cases;
use fastbn_bayesnet::{BayesianNetwork, Evidence};

/// The paper's Table-1 row for one network (seconds and speedups), kept
/// verbatim for paper-vs-measured reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// UnBBayes sequential time (s).
    pub unbbayes: f64,
    /// Fast-BNI-seq time (s).
    pub seq: f64,
    /// Sequential speedup (UnBBayes / Fast-BNI-seq).
    pub seq_speedup: f64,
    /// Direct (Kozlov & Singh) best parallel time (s).
    pub direct: f64,
    /// Primitive (Xia & Prasanna) best parallel time (s).
    pub primitive: f64,
    /// Element (Zheng) best parallel time (s).
    pub element: f64,
    /// Fast-BNI-par best parallel time (s).
    pub hybrid: f64,
    /// Speedup of Fast-BNI-par over Direct.
    pub dir_speedup: f64,
    /// Speedup over Primitive.
    pub prim_speedup: f64,
    /// Speedup over Element.
    pub elem_speedup: f64,
}

/// One benchmark network: its generator spec plus the paper's numbers.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Paper network name.
    pub name: &'static str,
    /// Whether the paper classifies it as large-scale.
    pub large_scale: bool,
    /// Published Table-1 row.
    pub paper: PaperRow,
    /// Analogue generator spec.
    pub spec: WindowedDagSpec,
}

impl Workload {
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

/// The paper's six evaluation networks, Table-1 order.
pub fn all_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "hailfinder",
            large_scale: false,
            paper: PaperRow {
                unbbayes: 28.3,
                seq: 4.0,
                seq_speedup: 7.1,
                direct: 3.0,
                primitive: 3.2,
                element: 4.0,
                hybrid: 2.5,
                dir_speedup: 1.2,
                prim_speedup: 1.3,
                elem_speedup: 1.6,
            },
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
        Workload {
            name: "pathfinder",
            large_scale: false,
            paper: PaperRow {
                unbbayes: 319.2,
                seq: 68.9,
                seq_speedup: 4.6,
                direct: 40.5,
                primitive: 23.6,
                element: 27.8,
                hybrid: 11.1,
                dir_speedup: 3.6,
                prim_speedup: 2.1,
                elem_speedup: 2.5,
            },
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
        Workload {
            name: "diabetes",
            large_scale: true,
            paper: PaperRow {
                unbbayes: 90961.0,
                seq: 6944.0,
                seq_speedup: 13.1,
                direct: 3016.0,
                primitive: 2311.0,
                element: 3316.0,
                hybrid: 558.6,
                dir_speedup: 5.4,
                prim_speedup: 4.1,
                elem_speedup: 5.9,
            },
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
        Workload {
            name: "pigs",
            large_scale: true,
            paper: PaperRow {
                unbbayes: 43714.0,
                seq: 3729.0,
                seq_speedup: 11.7,
                direct: 3353.0,
                primitive: 1068.0,
                element: 2380.0,
                hybrid: 221.7,
                dir_speedup: 15.1,
                prim_speedup: 4.8,
                elem_speedup: 10.7,
            },
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
        Workload {
            name: "munin2",
            large_scale: true,
            paper: PaperRow {
                unbbayes: 3054.0,
                seq: 2643.0,
                seq_speedup: 1.2,
                direct: 1951.0,
                primitive: 934.7,
                element: 1638.0,
                hybrid: 241.7,
                dir_speedup: 8.1,
                prim_speedup: 3.9,
                elem_speedup: 6.8,
            },
            spec: WindowedDagSpec {
                name: "munin2-analogue".into(),
                nodes: 1003,
                target_arcs: 1244,
                max_parents: 3,
                window: 4,
                arity: ArityDist::Weighted(vec![
                    (2, 0.20),
                    (3, 0.20),
                    (4, 0.15),
                    (5, 0.15),
                    (7, 0.15),
                    (10, 0.10),
                    (21, 0.05),
                ]),
                cpt: CptStyle { alpha: 0.6 },
                seed: 0x0005,
            },
        },
        Workload {
            name: "munin4",
            large_scale: true,
            paper: PaperRow {
                unbbayes: 258194.0,
                seq: 34198.0,
                seq_speedup: 7.6,
                direct: 20364.0,
                primitive: 10348.0,
                element: 21398.0,
                hybrid: 3021.0,
                dir_speedup: 6.7,
                prim_speedup: 3.4,
                elem_speedup: 7.1,
            },
            spec: WindowedDagSpec {
                name: "munin4-analogue".into(),
                nodes: 1041,
                target_arcs: 1397,
                max_parents: 4,
                window: 5,
                arity: ArityDist::Weighted(vec![
                    (2, 0.20),
                    (3, 0.20),
                    (4, 0.15),
                    (5, 0.15),
                    (7, 0.15),
                    (10, 0.10),
                    (21, 0.05),
                ]),
                cpt: CptStyle { alpha: 0.6 },
                seed: 0x0006,
            },
        },
    ]
}

/// Looks up a workload by paper name.
pub fn workload_by_name(name: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.name == name)
}

/// The two structural extremes of the paper's adaptivity discussion:
///
/// * `few-large-cliques` — a short, fat tree where inter-clique
///   parallelism starves (few messages per layer) but each message is
///   heavy: the Direct engine's bad case;
/// * `many-small-cliques` — a bushy tree of tiny cliques where per-region
///   overhead dominates fine-grained engines: Primitive/Element's bad
///   case.
pub fn adaptivity_workloads() -> Vec<(&'static str, BayesianNetwork)> {
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
        for w in all_workloads() {
            let net = w.build();
            assert_eq!(net.num_vars(), w.spec.nodes, "{}", w.name);
            assert_eq!(net.num_edges(), w.spec.target_arcs, "{}", w.name);
            assert!(net.max_in_degree() <= w.spec.max_parents, "{}", w.name);
        }
    }

    #[test]
    fn cases_observe_twenty_percent() {
        let w = workload_by_name("hailfinder").unwrap();
        let net = w.build();
        let cases = w.cases(&net, 5);
        assert_eq!(cases.len(), 5);
        let expected = (net.num_vars() as f64 * 0.2).ceil() as usize;
        assert!(cases.iter().all(|c| c.len() == expected));
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload_by_name("pigs").is_some());
        assert!(workload_by_name("nonexistent").is_none());
    }
}

//! Triangulation by vertex elimination with greedy heuristics.
//!
//! Eliminating vertices one by one — connecting each vertex's remaining
//! neighbors into a clique before removing it — produces a chordal
//! supergraph whose maximal cliques become the junction-tree nodes. The
//! elimination *order* determines the clique sizes (and thus the entire
//! cost of inference), so three standard greedy heuristics are provided.

use crate::ugraph::UGraph;

/// Greedy scoring rule for choosing the next vertex to eliminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EliminationHeuristic {
    /// Fewest fill-in edges (ties by induced table weight) — the default;
    /// consistently near-best clique sizes in practice.
    MinFill,
    /// Fewest remaining neighbors (ties by weight). Cheaper to compute.
    MinDegree,
    /// Smallest induced clique table size (`Σ log cardinality`), ties by
    /// fill count.
    MinWeight,
}

/// The result of triangulating a moral graph.
#[derive(Debug, Clone)]
pub struct Triangulation {
    /// Vertex elimination order.
    pub order: Vec<u32>,
    /// Edges added to make the graph chordal (`a < b`).
    pub fill_edges: Vec<(u32, u32)>,
    /// Maximal cliques of the triangulated graph, each sorted ascending;
    /// non-maximal elimination cliques are already filtered out.
    pub cliques: Vec<Vec<u32>>,
}

/// Triangulates `graph` (consumed as a working copy). `log_weights[v]`
/// is `ln(cardinality(v))`, used for table-size tie-breaking; pass zeros
/// for unweighted behaviour.
///
/// Each remaining vertex's selection key — from its `(fill, weight)` and,
/// for min-degree, its degree — is cached, and after eliminating `v` only
/// the vertices within two hops of `v` are rescored. That keeps every
/// cached key equal to a fresh one: eliminating `v` removes `v`'s edges
/// and adds fill edges among `N(v)`, so a vertex `u` outside `N(v) ∪ {v}`
/// keeps its neighbourhood (and degree), and the edges among its
/// neighbours change only if a fill edge joins two of them, which puts `u`
/// next to a vertex of `N(v)`. Selection compares the same keys in the
/// same order as a full rescan, so the elimination order, fill edges and
/// cliques are exactly those of rescoring every vertex at every step (the
/// test oracle below).
pub fn triangulate(
    graph: &UGraph,
    log_weights: &[f64],
    heuristic: EliminationHeuristic,
) -> Triangulation {
    let n = graph.num_nodes();
    assert_eq!(log_weights.len(), n, "one weight per vertex");
    let mut elim = Elimination::new(graph);
    let mut keys: Vec<Key> = (0..n as u32)
        .map(|v| key(heuristic, &elim.work, v, log_weights))
        .collect();
    // `stamp[u] == step + 1` once `u` is queued for rescoring this step.
    let mut stamp = vec![0usize; n];
    let mut touched = Vec::new();
    for step in 0..n {
        let v = elim.select(|v| keys[v as usize]);
        let neighbors = elim.eliminate(v);
        touched.clear();
        for &a in &neighbors {
            for u in std::iter::once(a).chain(elim.work.neighbors(a)) {
                if stamp[u as usize] != step + 1 {
                    stamp[u as usize] = step + 1;
                    touched.push(u);
                }
            }
        }
        for &u in &touched {
            keys[u as usize] = key(heuristic, &elim.work, u, log_weights);
        }
    }
    elim.finish()
}

/// A greedy selection key `(primary, secondary, id)`, compared
/// lexicographically; the id break keeps runs deterministic.
type Key = (f64, f64, u32);

/// The selection key of eliminating `v` now under `heuristic`.
fn key(heuristic: EliminationHeuristic, work: &UGraph, v: u32, log_weights: &[f64]) -> Key {
    let (fill, weight) = score(work, v, log_weights);
    match heuristic {
        EliminationHeuristic::MinFill => (fill as f64, weight, v),
        EliminationHeuristic::MinDegree => (work.degree(v) as f64, weight, v),
        EliminationHeuristic::MinWeight => (weight, fill as f64, v),
    }
}

/// The state of an elimination run: the working graph and what has been
/// recorded so far.
struct Elimination {
    work: UGraph,
    /// Vertices not yet eliminated, ascending.
    remaining: Vec<u32>,
    order: Vec<u32>,
    fill_edges: Vec<(u32, u32)>,
    elim_cliques: Vec<Vec<u32>>,
}

impl Elimination {
    fn new(graph: &UGraph) -> Self {
        let n = graph.num_nodes();
        Elimination {
            work: graph.clone(),
            remaining: (0..n as u32).collect(),
            order: Vec::with_capacity(n),
            fill_edges: Vec::new(),
            elim_cliques: Vec::with_capacity(n),
        }
    }

    /// The remaining vertex with the smallest key, scanned in id order.
    fn select(&self, mut key: impl FnMut(u32) -> Key) -> u32 {
        let mut best: Option<Key> = None;
        for &v in &self.remaining {
            let k = key(v);
            if best.is_none_or(|b| k < b) {
                best = Some(k);
            }
        }
        best.expect("at least one remaining vertex").2
    }

    /// Records the elimination clique `{v} ∪ N(v)`, adds the fill edges
    /// among `N(v)` and removes `v`. Returns `N(v)`.
    fn eliminate(&mut self, v: u32) -> Vec<u32> {
        let neighbors: Vec<u32> = self.work.neighbors(v).collect();
        let mut clique = neighbors.clone();
        clique.push(v);
        clique.sort_unstable();
        self.elim_cliques.push(clique);
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                if self.work.add_edge(a, b) {
                    self.fill_edges.push((a.min(b), a.max(b)));
                }
            }
        }
        self.work.remove_node(v);
        let at = self.remaining.binary_search(&v).expect("v remains");
        self.remaining.remove(at);
        self.order.push(v);
        neighbors
    }

    fn finish(mut self) -> Triangulation {
        self.fill_edges.sort_unstable();
        Triangulation {
            order: self.order,
            fill_edges: self.fill_edges,
            cliques: keep_maximal(self.elim_cliques),
        }
    }
}

/// Fill count and induced log-table-weight of eliminating `v` now.
fn score(work: &UGraph, v: u32, log_weights: &[f64]) -> (usize, f64) {
    let neighbors: Vec<u32> = work.neighbors(v).collect();
    let mut fill = 0usize;
    for (i, &a) in neighbors.iter().enumerate() {
        for &b in &neighbors[i + 1..] {
            if !work.has_edge(a, b) {
                fill += 1;
            }
        }
    }
    let weight = log_weights[v as usize]
        + neighbors
            .iter()
            .map(|&u| log_weights[u as usize])
            .sum::<f64>();
    (fill, weight)
}

/// Filters elimination cliques down to the maximal ones.
///
/// Elimination cliques of a perfect order have the property that a clique
/// is non-maximal iff it is a subset of some *later* clique, but we check
/// in both directions for robustness (the cost is negligible).
fn keep_maximal(mut cliques: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    // Sort by descending size so any subset appears after its superset.
    cliques.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let mut kept: Vec<Vec<u32>> = Vec::new();
    'outer: for c in cliques {
        for k in &kept {
            if is_sorted_subset(&c, k) {
                continue 'outer;
            }
        }
        kept.push(c);
    }
    // Deterministic final order: by (first var, size, content).
    kept.sort();
    kept
}

/// `a ⊆ b` for sorted slices (merge scan).
fn is_sorted_subset(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    for &x in a {
        loop {
            if j == b.len() {
                return false;
            }
            if b[j] == x {
                j += 1;
                break;
            }
            if b[j] > x {
                return false;
            }
            j += 1;
        }
    }
    true
}

/// Verifies that `order` is a perfect elimination order of `graph` ∪
/// `fill`: re-eliminating in that order must create no new fill edges.
/// Exposed for tests and debug assertions.
pub fn is_chordal_via_order(graph: &UGraph, fill: &[(u32, u32)], order: &[u32]) -> bool {
    let mut work = graph.clone();
    for &(a, b) in fill {
        work.add_edge(a, b);
    }
    for &v in order {
        let neighbors: Vec<u32> = work.neighbors(v).collect();
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                if !work.has_edge(a, b) {
                    return false;
                }
            }
        }
        work.remove_node(v);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEURISTICS: [EliminationHeuristic; 3] = [
        EliminationHeuristic::MinFill,
        EliminationHeuristic::MinDegree,
        EliminationHeuristic::MinWeight,
    ];

    fn cycle(n: usize) -> UGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        UGraph::from_edges(n, &edges)
    }

    #[test]
    fn tree_needs_no_fill() {
        let g = UGraph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]);
        for h in HEURISTICS {
            let t = triangulate(&g, &[0.0; 5], h);
            assert!(t.fill_edges.is_empty(), "{h:?}");
            assert_eq!(t.order.len(), 5);
            // Maximal cliques of a tree are its edges.
            assert_eq!(t.cliques.len(), 4, "{h:?}");
            assert!(t.cliques.iter().all(|c| c.len() == 2));
        }
    }

    #[test]
    fn four_cycle_gets_one_chord() {
        let g = cycle(4);
        for h in HEURISTICS {
            let t = triangulate(&g, &[0.0; 4], h);
            assert_eq!(t.fill_edges.len(), 1, "{h:?}");
            assert!(is_chordal_via_order(&g, &t.fill_edges, &t.order));
            assert_eq!(t.cliques.len(), 2);
            assert!(t.cliques.iter().all(|c| c.len() == 3));
        }
    }

    #[test]
    fn six_cycle_fill_count() {
        // A 6-cycle needs exactly 3 chords under min-fill.
        let g = cycle(6);
        let t = triangulate(&g, &[0.0; 6], EliminationHeuristic::MinFill);
        assert_eq!(t.fill_edges.len(), 3);
        assert!(is_chordal_via_order(&g, &t.fill_edges, &t.order));
    }

    #[test]
    fn complete_graph_is_one_clique() {
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in a + 1..5 {
                edges.push((a, b));
            }
        }
        let g = UGraph::from_edges(5, &edges);
        for h in HEURISTICS {
            let t = triangulate(&g, &[0.0; 5], h);
            assert!(t.fill_edges.is_empty());
            assert_eq!(t.cliques, vec![vec![0, 1, 2, 3, 4]], "{h:?}");
        }
    }

    #[test]
    fn disconnected_graph_handled() {
        let g = UGraph::from_edges(5, &[(0, 1), (3, 4)]);
        let t = triangulate(&g, &[0.0; 5], EliminationHeuristic::MinFill);
        // Two edge-cliques plus the isolated vertex {2}.
        assert_eq!(t.cliques, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn weights_steer_min_weight_heuristic() {
        // Path 0-1-2: eliminating endpoint first is always fill-free, but
        // min-weight should pick the *lightest* endpoint first.
        let g = UGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let light_first = triangulate(&g, &[5.0, 1.0, 0.1], EliminationHeuristic::MinWeight);
        assert_eq!(light_first.order[0], 2, "vertex 2 is lightest");
    }

    #[test]
    fn random_graphs_are_chordal_after_fill() {
        // Deterministic pseudo-random edge sets, all heuristics.
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..10 {
            let n = 8 + (trial % 5);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if next() % 100 < 30 {
                        edges.push((a, b));
                    }
                }
            }
            let g = UGraph::from_edges(n, &edges);
            let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin().abs()).collect();
            for h in HEURISTICS {
                let t = triangulate(&g, &w, h);
                assert!(
                    is_chordal_via_order(&g, &t.fill_edges, &t.order),
                    "trial {trial} {h:?}"
                );
                // Every original edge must be inside some clique.
                for &(a, b) in &edges {
                    assert!(
                        t.cliques.iter().any(|c| c.contains(&a) && c.contains(&b)),
                        "edge ({a},{b}) uncovered"
                    );
                }
                // Cliques must be mutually non-contained.
                for (i, ci) in t.cliques.iter().enumerate() {
                    for (j, cj) in t.cliques.iter().enumerate() {
                        if i != j {
                            assert!(!is_sorted_subset(ci, cj), "clique {i} ⊆ clique {j}");
                        }
                    }
                }
            }
        }
    }

    /// The full rescan: every remaining vertex is rescored at every step.
    fn triangulate_full_rescan(
        graph: &UGraph,
        log_weights: &[f64],
        heuristic: EliminationHeuristic,
    ) -> Triangulation {
        let mut elim = Elimination::new(graph);
        for _ in 0..graph.num_nodes() {
            let v = elim.select(|v| key(heuristic, &elim.work, v, log_weights));
            elim.eliminate(v);
        }
        elim.finish()
    }

    fn assert_matches_full_rescan(g: &UGraph, w: &[f64], what: &str) {
        for h in HEURISTICS {
            let fast = triangulate(g, w, h);
            let full = triangulate_full_rescan(g, w, h);
            assert_eq!(fast.order, full.order, "{what} {h:?}: order");
            assert_eq!(fast.fill_edges, full.fill_edges, "{what} {h:?}: fill");
            assert_eq!(fast.cliques, full.cliques, "{what} {h:?}: cliques");
        }
    }

    #[test]
    fn two_hop_rescoring_matches_full_rescan_on_random_graphs() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..120 {
            let n = 1 + (next() % 40) as usize;
            let mut edges = Vec::new();
            if trial % 4 == 0 {
                // A forest: each vertex links to at most one earlier one.
                for b in 1..n as u32 {
                    if next() % 4 != 0 {
                        edges.push(((next() % b as u64) as u32, b));
                    }
                }
            } else {
                let density = 3 + next() % 45;
                for a in 0..n as u32 {
                    for b in a + 1..n as u32 {
                        if next() % 100 < density {
                            edges.push((a, b));
                        }
                    }
                }
            }
            let g = UGraph::from_edges(n, &edges);
            // Equal cardinalities (every weight ties), two cardinalities,
            // and spread ones.
            let w: Vec<f64> = match trial % 3 {
                0 => vec![2f64.ln(); n],
                1 => (0..n).map(|_| ((2 + next() % 2) as f64).ln()).collect(),
                _ => (0..n).map(|_| ((2 + next() % 20) as f64).ln()).collect(),
            };
            assert_matches_full_rescan(&g, &w, &format!("trial {trial}"));
        }
    }

    #[test]
    fn two_hop_rescoring_matches_full_rescan_on_benchmark_analogues() {
        for spec in crate::analogues::benchmark_analogues() {
            let net = fastbn_bayesnet::generators::windowed_dag(&spec);
            let w: Vec<f64> = net
                .cardinalities()
                .iter()
                .map(|&c| (c as f64).ln())
                .collect();
            assert_matches_full_rescan(&crate::moralize(&net), &w, &spec.name);
        }
    }

    #[test]
    fn subset_helper() {
        assert!(is_sorted_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_sorted_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_sorted_subset(&[], &[1]));
        assert!(!is_sorted_subset(&[1, 2, 3], &[1, 2]));
    }
}

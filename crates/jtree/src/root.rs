//! Root selection — the paper's first inter-clique optimization.
//!
//! The number of BFS layers of the rooted tree equals the number of
//! parallel-region invocations per propagation pass, so Fast-BNI roots
//! each component at its **center** (a vertex of minimum eccentricity),
//! giving `ceil(diameter / 2)` layers — the minimum possible.
//! `RootStrategy::Worst` roots at a diameter endpoint instead and exists
//! for the ablation benchmark.

use crate::tree::JunctionTree;

/// How to choose the root clique of each tree component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootStrategy {
    /// Lowest-indexed clique (what a naive implementation does).
    First,
    /// Tree center — minimizes the layer count (the paper's strategy).
    Center,
    /// Diameter endpoint — maximizes the layer count (ablation baseline).
    Worst,
}

/// A rooting of a junction tree (forest): per-clique parent links, depths
/// and a global BFS order.
#[derive(Debug, Clone)]
pub struct RootedTree {
    /// Root clique of each component.
    pub roots: Vec<usize>,
    /// `parent[c] = (parent clique, separator index)`, `None` for roots.
    pub parent: Vec<Option<(usize, usize)>>,
    /// BFS depth of each clique (roots at 0).
    pub depth: Vec<usize>,
    /// All cliques in BFS order (roots first).
    pub bfs_order: Vec<usize>,
    /// Maximum depth over all cliques.
    pub max_depth: usize,
}

/// Roots every component of `tree` using `strategy` and derives parent
/// links, depths and the BFS order.
pub fn root_tree(tree: &JunctionTree, strategy: RootStrategy) -> RootedTree {
    let n = tree.num_cliques();
    let mut roots = Vec::with_capacity(tree.components.len());
    for component in &tree.components {
        let root = match strategy {
            RootStrategy::First => component[0],
            RootStrategy::Center => center_of(tree, component),
            RootStrategy::Worst => diameter_endpoint(tree, component),
        };
        roots.push(root);
    }

    let mut parent = vec![None; n];
    let mut depth = vec![0usize; n];
    let mut bfs_order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &r in &roots {
        visited[r] = true;
        queue.push_back(r);
    }
    while let Some(c) = queue.pop_front() {
        bfs_order.push(c);
        for &(next, sep) in tree.neighbors(c) {
            if !visited[next] {
                visited[next] = true;
                parent[next] = Some((c, sep));
                depth[next] = depth[c] + 1;
                queue.push_back(next);
            }
        }
    }
    debug_assert_eq!(bfs_order.len(), n, "every clique reached");
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    RootedTree {
        roots,
        parent,
        depth,
        bfs_order,
        max_depth,
    }
}

/// BFS distances from `start`, restricted to `component`'s cliques.
fn bfs_dist(tree: &JunctionTree, start: usize) -> Vec<Option<(usize, usize)>> {
    // dist + predecessor, indexed by clique; None if unreachable.
    let mut out: Vec<Option<(usize, usize)>> = vec![None; tree.num_cliques()];
    out[start] = Some((0, start));
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(c) = queue.pop_front() {
        let (d, _) = out[c].expect("visited");
        for &(next, _) in tree.neighbors(c) {
            if out[next].is_none() {
                out[next] = Some((d + 1, c));
                queue.push_back(next);
            }
        }
    }
    out
}

/// Farthest clique from `start` (ties → smallest index, deterministic).
fn farthest(dist: &[Option<(usize, usize)>], component: &[usize]) -> usize {
    *component
        .iter()
        .max_by_key(|&&c| (dist[c].expect("same component").0, std::cmp::Reverse(c)))
        .expect("non-empty component")
}

/// One endpoint of a diameter of the component.
fn diameter_endpoint(tree: &JunctionTree, component: &[usize]) -> usize {
    let d0 = bfs_dist(tree, component[0]);
    farthest(&d0, component)
}

/// The center: the middle clique of a diameter path (double-BFS). For
/// trees this vertex has minimum eccentricity `ceil(diameter / 2)`.
fn center_of(tree: &JunctionTree, component: &[usize]) -> usize {
    let u = diameter_endpoint(tree, component);
    let du = bfs_dist(tree, u);
    let v = farthest(&du, component);
    // Walk back from v to u, collecting the path.
    let mut path = vec![v];
    let mut cur = v;
    while cur != u {
        cur = du[cur].expect("on path").1;
        path.push(cur);
    }
    path[path.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Clique, Separator};
    use fastbn_bayesnet::VarId;

    /// A path of `n` cliques: {0,1},{1,2},...  Diameter n-1.
    fn path_tree(n: usize) -> JunctionTree {
        let cliques = (0..n)
            .map(|i| Clique {
                vars: vec![VarId(i as u32), VarId(i as u32 + 1)],
            })
            .collect();
        let separators = (0..n - 1)
            .map(|i| Separator {
                a: i,
                b: i + 1,
                vars: vec![VarId(i as u32 + 1)],
            })
            .collect();
        JunctionTree::new(cliques, separators)
    }

    #[test]
    fn center_halves_the_depth_of_a_path() {
        let tree = path_tree(9); // diameter 8
        let center = root_tree(&tree, RootStrategy::Center);
        assert_eq!(center.max_depth, 4);
        assert_eq!(center.roots, vec![4]);

        let worst = root_tree(&tree, RootStrategy::Worst);
        assert_eq!(worst.max_depth, 8);

        let first = root_tree(&tree, RootStrategy::First);
        assert_eq!(first.roots, vec![0]);
        assert_eq!(first.max_depth, 8);
    }

    #[test]
    fn parents_point_toward_the_root() {
        let tree = path_tree(5);
        let rooted = root_tree(&tree, RootStrategy::Center);
        let root = rooted.roots[0];
        assert!(rooted.parent[root].is_none());
        for c in 0..tree.num_cliques() {
            if let Some((p, sep)) = rooted.parent[c] {
                assert_eq!(rooted.depth[c], rooted.depth[p] + 1);
                let s = &tree.separators[sep];
                assert!((s.a == c && s.b == p) || (s.a == p && s.b == c));
            }
        }
    }

    #[test]
    fn bfs_order_is_depth_monotone() {
        let tree = path_tree(7);
        let rooted = root_tree(&tree, RootStrategy::Center);
        let depths: Vec<usize> = rooted.bfs_order.iter().map(|&c| rooted.depth[c]).collect();
        assert!(depths.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(rooted.bfs_order.len(), 7);
    }

    #[test]
    fn even_path_center_is_one_of_two_middles() {
        let tree = path_tree(4); // diameter 3; centers at index 1 or 2
        let rooted = root_tree(&tree, RootStrategy::Center);
        assert!(rooted.roots[0] == 1 || rooted.roots[0] == 2);
        assert_eq!(rooted.max_depth, 2);
    }

    #[test]
    fn singleton_component() {
        let tree = JunctionTree::new(
            vec![Clique {
                vars: vec![VarId(0)],
            }],
            vec![],
        );
        for strat in [
            RootStrategy::First,
            RootStrategy::Center,
            RootStrategy::Worst,
        ] {
            let rooted = root_tree(&tree, strat);
            assert_eq!(rooted.roots, vec![0]);
            assert_eq!(rooted.max_depth, 0);
        }
    }

    #[test]
    fn multi_component_rooting() {
        let cliques = vec![
            Clique {
                vars: vec![VarId(0), VarId(1)],
            },
            Clique {
                vars: vec![VarId(1), VarId(2)],
            },
            Clique {
                vars: vec![VarId(5)],
            },
        ];
        let seps = vec![Separator {
            a: 0,
            b: 1,
            vars: vec![VarId(1)],
        }];
        let tree = JunctionTree::new(cliques, seps);
        let rooted = root_tree(&tree, RootStrategy::Center);
        assert_eq!(rooted.roots.len(), 2);
        assert_eq!(rooted.bfs_order.len(), 3);
    }
}

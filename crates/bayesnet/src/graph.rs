//! Directed-acyclic-graph structure and the graph algorithms the pipeline
//! needs: topological ordering, reachability, moral edges and d-separation.

use crate::variable::VarId;

/// The DAG of a Bayesian network: per-node parent and child lists.
///
/// Node ids are dense `0..n` and correspond to [`VarId`] indices. Edge
/// lists are kept sorted so iteration order (and therefore everything
/// derived from it, like elimination tie-breaking) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    parents: Vec<Vec<u32>>,
    children: Vec<Vec<u32>>,
}

/// Errors from DAG mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Edge endpoint out of range.
    NodeOutOfRange { node: u32, nodes: usize },
    /// The edge already exists.
    DuplicateEdge { parent: u32, child: u32 },
    /// Self loops are not allowed.
    SelfLoop { node: u32 },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (graph has {nodes} nodes)")
            }
            DagError::DuplicateEdge { parent, child } => {
                write!(f, "duplicate edge {parent} -> {child}")
            }
            DagError::SelfLoop { node } => write!(f, "self loop on node {node}"),
        }
    }
}

impl std::error::Error for DagError {}

impl Dag {
    /// An edgeless DAG on `n` nodes.
    pub fn new(n: usize) -> Self {
        Dag {
            parents: vec![Vec::new(); n],
            children: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parents.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }

    /// Adds `parent -> child`. Acyclicity is *not* checked here (that is a
    /// whole-graph property verified by [`Dag::topological_order`]).
    pub fn add_edge(&mut self, parent: u32, child: u32) -> Result<(), DagError> {
        let n = self.num_nodes();
        for node in [parent, child] {
            if node as usize >= n {
                return Err(DagError::NodeOutOfRange { node, nodes: n });
            }
        }
        if parent == child {
            return Err(DagError::SelfLoop { node: parent });
        }
        match self.parents[child as usize].binary_search(&parent) {
            Ok(_) => return Err(DagError::DuplicateEdge { parent, child }),
            Err(pos) => self.parents[child as usize].insert(pos, parent),
        }
        let pos = self.children[parent as usize]
            .binary_search(&child)
            .unwrap_err();
        self.children[parent as usize].insert(pos, child);
        Ok(())
    }

    /// Sorted parent ids of `node`.
    pub fn parents(&self, node: u32) -> &[u32] {
        &self.parents[node as usize]
    }

    /// Sorted child ids of `node`.
    pub fn children(&self, node: u32) -> &[u32] {
        &self.children[node as usize]
    }

    /// Largest in-degree over all nodes (0 for the empty graph).
    pub fn max_in_degree(&self) -> usize {
        self.parents.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Kahn topological sort. Returns `None` if the graph has a cycle.
    /// Ties are broken by node id, so the order is deterministic.
    pub fn topological_order(&self) -> Option<Vec<u32>> {
        let n = self.num_nodes();
        let mut in_deg: Vec<usize> = (0..n).map(|v| self.parents[v].len()).collect();
        // A BinaryHeap would give the same result; a sorted frontier via
        // BTreeSet keeps this simple and n is small (≤ ~1k nodes).
        let mut frontier: std::collections::BTreeSet<u32> =
            (0..n as u32).filter(|&v| in_deg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&v) = frontier.iter().next() {
            frontier.remove(&v);
            order.push(v);
            for &c in &self.children[v as usize] {
                in_deg[c as usize] -= 1;
                if in_deg[c as usize] == 0 {
                    frontier.insert(c);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// All ancestors of the given seed set (excluding the seeds themselves
    /// unless reachable), as a boolean mask.
    pub fn ancestor_mask(&self, seeds: impl IntoIterator<Item = u32>) -> Vec<bool> {
        let mut mask = vec![false; self.num_nodes()];
        let mut stack: Vec<u32> = seeds.into_iter().collect();
        while let Some(v) = stack.pop() {
            for &next in &self.parents[v as usize] {
                if !mask[next as usize] {
                    mask[next as usize] = true;
                    stack.push(next);
                }
            }
        }
        mask
    }

    /// Undirected edges of the **moral graph**: every directed edge plus a
    /// "marriage" edge between every pair of co-parents. Returned with
    /// `a < b`, sorted, deduplicated — the input to triangulation.
    pub fn moral_edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::with_capacity(self.num_edges() * 2);
        for child in 0..self.num_nodes() as u32 {
            let ps = self.parents(child);
            for &p in ps {
                edges.push(ord(p, child));
            }
            for (i, &a) in ps.iter().enumerate() {
                for &b in &ps[i + 1..] {
                    edges.push(ord(a, b));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// d-separation test: are `x` and `y` d-separated given the set `z`?
    ///
    /// Implemented as the standard active-trail reachability ("Bayes
    /// ball"): `x` and `y` are d-*connected* iff there is a trail that is
    /// active given `z`. Used as a structural oracle in tests (conditional
    /// independencies implied by the DAG must hold in every engine's
    /// posteriors).
    pub fn d_separated(&self, x: u32, y: u32, z: &[u32]) -> bool {
        if x == y {
            return false;
        }
        let n = self.num_nodes();
        let mut in_z = vec![false; n];
        for &v in z {
            in_z[v as usize] = true;
        }
        // A collider is active iff it or a descendant is observed.
        let anc_of_z = {
            let mut mask = self.ancestor_mask(z.iter().copied());
            for &v in z {
                mask[v as usize] = true;
            }
            mask
        };
        // State: (node, entered_via_child_edge). Start as if entering x
        // from a virtual child (allows both directions out of x).
        let mut visited = vec![[false; 2]; n];
        let mut stack = vec![(x, true)];
        while let Some((v, from_child)) = stack.pop() {
            let dir = usize::from(from_child);
            if visited[v as usize][dir] {
                continue;
            }
            visited[v as usize][dir] = true;
            if v == y {
                return false; // reached y via an active trail
            }
            if from_child {
                // Trail arrives from a child (i.e. we're moving "up").
                if !in_z[v as usize] {
                    for &p in self.parents(v) {
                        stack.push((p, true));
                    }
                    for &c in self.children(v) {
                        stack.push((c, false));
                    }
                }
            } else {
                // Trail arrives from a parent (moving "down").
                if !in_z[v as usize] {
                    for &c in self.children(v) {
                        stack.push((c, false));
                    }
                }
                if anc_of_z[v as usize] {
                    // v is an (ancestor of an) observed collider: bounce up.
                    for &p in self.parents(v) {
                        stack.push((p, true));
                    }
                }
            }
        }
        true
    }

    /// Convenience: connected components of the *undirected skeleton*.
    /// Disconnected networks yield junction *forests* downstream.
    pub fn undirected_components(&self) -> Vec<Vec<u32>> {
        let n = self.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut components = Vec::new();
        for start in 0..n as u32 {
            if comp[start as usize] != usize::MAX {
                continue;
            }
            let id = components.len();
            let mut members = vec![start];
            comp[start as usize] = id;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &next in self.parents(v).iter().chain(self.children(v)) {
                    if comp[next as usize] == usize::MAX {
                        comp[next as usize] = id;
                        members.push(next);
                        stack.push(next);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }

    /// The family of a node: `{node} ∪ parents(node)`, sorted. This is the
    /// scope of the node's CPT and must be covered by some clique.
    pub fn family(&self, node: VarId) -> Vec<VarId> {
        let mut fam: Vec<VarId> = self.parents(node.0).iter().map(|&p| VarId(p)).collect();
        fam.push(node);
        fam.sort_unstable();
        fam
    }
}

#[inline]
fn ord(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic 5-node "student"-shaped DAG:
    /// 0 -> 2 <- 1, 2 -> 4, 1 -> 3.
    fn student_dag() -> Dag {
        let mut g = Dag::new(5);
        g.add_edge(0, 2).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 4).unwrap();
        g.add_edge(1, 3).unwrap();
        g
    }

    #[test]
    fn edges_and_degrees() {
        let g = student_dag();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.parents(2), &[0, 1]);
        assert_eq!(g.children(1), &[2, 3]);
        assert_eq!(g.max_in_degree(), 2);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Dag::new(3);
        assert_eq!(
            g.add_edge(0, 5),
            Err(DagError::NodeOutOfRange { node: 5, nodes: 3 })
        );
        assert_eq!(g.add_edge(1, 1), Err(DagError::SelfLoop { node: 1 }));
        g.add_edge(0, 1).unwrap();
        assert_eq!(
            g.add_edge(0, 1),
            Err(DagError::DuplicateEdge {
                parent: 0,
                child: 1
            })
        );
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = student_dag();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 5];
            for (i, &v) in order.iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for child in 0..5u32 {
            for &parent in g.parents(child) {
                assert!(pos[parent as usize] < pos[child as usize]);
            }
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = Dag::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 0).unwrap();
        assert!(!g.is_acyclic());
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn ancestor_and_descendant_masks() {
        let g = student_dag();
        let anc = g.ancestor_mask([4]);
        assert_eq!(anc, vec![true, true, true, false, false]);
        // The descendants of 1 are the nodes with 1 among their ancestors.
        let desc: Vec<bool> = (0..5).map(|v| g.ancestor_mask([v])[1]).collect();
        assert_eq!(desc, vec![false, false, true, true, true]);
    }

    #[test]
    fn moral_edges_marry_coparents() {
        let g = student_dag();
        let edges = g.moral_edges();
        // Directed edges (undirected) + marriage (0,1) for co-parents of 2.
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]);
    }

    #[test]
    fn d_separation_on_the_student_graph() {
        let g = student_dag();
        // 0 and 1 are marginally independent (collider at 2)...
        assert!(g.d_separated(0, 1, &[]));
        // ...but conditioning on the collider or its descendant connects them.
        assert!(!g.d_separated(0, 1, &[2]));
        assert!(!g.d_separated(0, 1, &[4]));
        // Chain 1 -> 2 -> 4 is blocked by observing 2.
        assert!(!g.d_separated(1, 4, &[]));
        assert!(g.d_separated(1, 4, &[2]));
        // Fork: 2 <- 1 -> 3; observing 1 separates 2 and 3.
        assert!(!g.d_separated(2, 3, &[]));
        assert!(g.d_separated(2, 3, &[1]));
        // A node is never d-separated from itself.
        assert!(!g.d_separated(3, 3, &[]));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut g = Dag::new(5);
        g.add_edge(0, 1).unwrap();
        g.add_edge(3, 4).unwrap();
        let comps = g.undirected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn family_is_sorted_and_includes_self() {
        let g = student_dag();
        assert_eq!(g.family(VarId(2)), vec![VarId(0), VarId(1), VarId(2)]);
        assert_eq!(g.family(VarId(0)), vec![VarId(0)]);
    }
}

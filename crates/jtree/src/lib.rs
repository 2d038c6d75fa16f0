//! # fastbn-jtree
//!
//! Junction-tree construction for Fast-BNI: moralization, triangulation
//! (min-fill / min-degree / min-weight elimination), maximal clique
//! extraction, maximum-weight spanning-tree assembly, the paper's
//! **root-selection strategy** (rooting at the tree center minimizes the
//! number of BFS layers and hence the number of parallel-region
//! invocations), and the **BFS layer schedule** that drives every parallel
//! engine's collect/distribute passes.
//!
//! The output types ([`JunctionTree`], [`RootedTree`], [`LayerSchedule`])
//! are purely structural — potentials are attached by `fastbn-inference`.
//! Where tree construction sits in the full stack is mapped in
//! `docs/ARCHITECTURE.md` at the repository root.
//!
//! ```
//! use fastbn_bayesnet::datasets;
//! use fastbn_jtree::{build_junction_tree, JtreeOptions};
//!
//! let net = datasets::asia();
//! let built = build_junction_tree(&net, &JtreeOptions::default());
//! assert!(built.tree.verify_running_intersection());
//! assert!(built.tree.num_cliques() >= 6);
//! ```

// No unsafe code: raw-pointer and atomics tricks live in the audited
// modules of fastbn-potential/parallel/inference (see FB-L4 in
// crates/analyze); everything here must stay checkable by construction.
#![forbid(unsafe_code)]

pub mod build;
pub mod chordal;
pub mod layers;
pub mod moralize;
pub mod root;
pub mod stats;
pub mod tree;
pub mod triangulate;
pub mod ugraph;

#[cfg(test)]
#[path = "../../bayesnet/tests/common/analogues.rs"]
mod analogues;

pub use build::{build_junction_tree, BuiltTree, JtreeOptions};
pub use chordal::{is_chordal, maximum_cardinality_search};
pub use layers::{LayerSchedule, Message};
pub use moralize::moralize;
pub use root::{root_tree, RootStrategy, RootedTree};
pub use stats::{tree_stats, TreeStats};
pub use tree::{Clique, JunctionTree, Separator};
pub use triangulate::{triangulate, EliminationHeuristic, Triangulation};
pub use ugraph::UGraph;

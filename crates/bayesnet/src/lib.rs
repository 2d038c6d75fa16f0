//! # fastbn-bayesnet
//!
//! The discrete Bayesian-network substrate for the Fast-BNI reproduction:
//! variables and states, conditional probability tables (CPTs), the DAG
//! with its graph algorithms, evidence, BIF-format I/O, classic textbook
//! networks with published parameters, seeded synthetic network generators
//! (including analogues of the six bnlearn-repository networks the paper
//! evaluates), and forward sampling for test-case generation.
//!
//! Everything downstream — potential tables, junction trees, the inference
//! engines — consumes the types defined here. Where this crate sits in
//! the full stack is mapped in `docs/ARCHITECTURE.md` at the repository
//! root.
//!
//! ## Quick example
//!
//! ```
//! use fastbn_bayesnet::{datasets, Evidence};
//!
//! let net = datasets::sprinkler();
//! assert_eq!(net.num_vars(), 4);
//! let rain = net.var_id("Rain").unwrap();
//! let ev = Evidence::from_pairs([(rain, 0)]); // Rain = true
//! assert!(ev.get(rain).is_some());
//! ```

// No unsafe code: raw-pointer and atomics tricks live in the audited
// modules of fastbn-potential/parallel/inference (see FB-L4 in
// crates/analyze); everything here must stay checkable by construction.
#![forbid(unsafe_code)]

pub mod bif;
pub mod cpt;
pub mod datasets;
pub mod evidence;
pub mod generators;
pub mod graph;
pub mod network;
pub mod sampler;
pub mod variable;

pub use cpt::Cpt;
pub use evidence::Evidence;
pub use graph::Dag;
pub use network::{BayesianNetwork, NetworkBuilder, NetworkError};
pub use variable::{VarId, Variable};

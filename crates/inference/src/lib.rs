//! # fastbn-inference
//!
//! Exact Bayesian-network inference by junction tree, served through a
//! three-layer concurrent API:
//!
//! * [`Solver`] — an immutable, `Send + Sync` **compiled model**: the
//!   junction tree, initial potentials and engine task plans, built once
//!   per network.
//! * [`Session`] — a cheap **per-caller handle** holding reusable scratch
//!   from the solver's pool; open one per thread and query concurrently.
//!   A spawned thread that outlives the caller shares the solver through
//!   an `Arc` and opens its session inside the thread.
//! * [`Query`] — a **builder** describing one request: hard evidence,
//!   virtual (likelihood) evidence, an optional target-variable subset
//!   (pay only for the marginals you ask for), or MPE mode. Results come
//!   back as a unified [`QueryResult`]. Independent requests group into a
//!   [`QueryBatch`] and execute as one unit.
//!
//! For streaming/monitoring workloads where evidence changes one finding
//! at a time, [`LiveSession`] (module [`delta`]) keeps a fully propagated
//! state and re-propagates only the dirty part of the tree per
//! [`EvidenceDelta`] edit — bit-identical to a from-scratch query, with a
//! zero-allocation steady state.
//!
//! ```
//! use fastbn_bayesnet::datasets;
//! use fastbn_inference::{EngineKind, Query, QueryBatch, Solver};
//!
//! let net = datasets::sprinkler();
//! // Compile once (expensive), query from anywhere (cheap).
//! let solver = Solver::builder(&net).engine(EngineKind::Hybrid).threads(2).build();
//! let wet = net.var_id("WetGrass").unwrap();
//! let rain = net.var_id("Rain").unwrap();
//!
//! let mut session = solver.session();
//! let result = session.run(&Query::new().observe(wet, 0).targets([rain])).unwrap();
//! let posteriors = result.posteriors().unwrap();
//! // P(Rain | WetGrass = true) ≈ 0.708 (Russell & Norvig).
//! assert!((posteriors.marginal(rain)[0] - 0.7079).abs() < 1e-3);
//!
//! // Same entry point for the most probable explanation:
//! let mpe = session.run(&Query::new().observe(wet, 0).mpe()).unwrap();
//! assert_eq!(mpe.mpe().unwrap().assignment[wet.index()], 0);
//!
//! // Many independent requests? Batch them: results arrive in input
//! // order, each failure confined to its own slot, and batches at least
//! // as wide as the engine's pool run with *outer* parallelism — one
//! // query per worker, pooled scratch — instead of paying per-query
//! // setup serially.
//! let batch: QueryBatch = (0..8)
//!     .map(|i| Query::new().observe(wet, i % 2))
//!     .collect();
//! let results = session.run_batch(&batch);
//! assert_eq!(results.len(), 8);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```
//!
//! ## Engines
//!
//! Propagation is one driver (module [`engines`]) behind the stateless
//! [`InferenceEngine`] trait — `&self` plus an explicit [`WorkState`] — so
//! one engine instance serves any number of sessions. An [`EngineKind`]
//! configures it along two axes — how a layer's messages
//! are ordered, and which table operations an eager message runs — and
//! the paper's baselines are configurations, not separate engines:
//!
//! | [`EngineKind`] | Paper analogue | Message order × table operations |
//! |---|---|---|
//! | `Reference` | UnBBayes | sequential, eager × textbook decode-and-allocate per entry |
//! | `Seq` | Fast-BNI-seq | sequential, deferred ratios fused into the next marginalization × whole-table plan kernels |
//! | `Direct` | Kozlov & Singh '94 | coarse: one region per layer over receiver groups × whole-table plan kernels |
//! | `Primitive` | Xia & Prasanna '07 | sequential × fine: one static region per table op |
//! | `Element` | Zheng '13 (GPU) | sequential × fine: one small-grain region per table op over materialised maps |
//! | `Hybrid` | **Fast-BNI-par** | flattened per-layer phases (≤ 2 regions per layer; a phase too small for a region runs inline, a layer with none is `Seq`'s loop) |
//!
//! Every configuration runs Hugin-style two-pass propagation over the same
//! [`Prepared`] structures and produces **bit-identical posteriors** for
//! any kind, thread count, or session interleaving (asserted by the
//! test suite). Correctness oracles — variable elimination and
//! brute-force enumeration — live in [`oracle`].
//!
//! How this crate relates to the layers below (junction trees, potential
//! tables, the thread pool) and above (the `fastbn-registry` serving
//! front ends) is mapped in `docs/ARCHITECTURE.md` at the repository
//! root.

// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe {}` block with a SAFETY comment (enforced by fastbn-analyze
// FB-L1 plus this lint).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod delta;
pub mod engines;
pub mod error;
pub mod mpe;
pub mod oracle;
pub mod posterior;
pub mod prepared;
pub mod query;
pub(crate) mod slab_track;
pub mod solver;
pub mod state;
pub mod trace;
pub mod validate;
pub mod virtual_evidence;

pub use cache::{CacheConfig, CacheStats, QueryCache};
pub use delta::{EvidenceDelta, LiveSession};
pub use engines::{make_engine, EngineKind, InferenceEngine, ParseEngineKindError};
pub use error::{InferenceError, LikelihoodDefect};
pub use mpe::{most_probable_explanation, MpeResult};
pub use posterior::Posteriors;
pub use prepared::Prepared;
pub use query::{Query, QueryBatch, QueryKey, QueryMode, QueryResult};
pub use solver::{Session, Solver, SolverBuilder};
pub use state::WorkState;
pub use trace::{scoped, TraceContext, TraceScope};
pub use virtual_evidence::VirtualEvidence;

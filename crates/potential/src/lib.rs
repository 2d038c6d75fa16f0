//! # fastbn-potential
//!
//! Potential tables over discrete variable domains, plus the three
//! "dominant potential table operations" the Fast-BNI paper identifies and
//! parallelizes (§2): **marginalization**, **extension** (multiply a
//! smaller-domain message into a larger-domain table), and **reduction**
//! (zero out entries inconsistent with evidence).
//!
//! The paper's "key step ... is to find the index mappings between the
//! original and the updated tables". Here that step is compiled once:
//! a [`plan::KernelPlan`] per (clique, separator) domain pair holds the
//! strides, the fiber offsets and a layout classification, and every table
//! operation of propagation is a method on it — whole-table kernels
//! (run programs on small tables, walks of the coalesced groups on large
//! ones) for a caller that owns the table, and chunkable forms
//! (`marginalize_range`, `marginalize_fold`, `extend_multiply_range`) for
//! callers that split one table across workers. Compiled once, executed allocation-free. The
//! crate-private `index_map` module holds the mapping primitives the plans
//! are built from.
//!
//! Beside the plans, [`ops`] has what needs no mapping — the separator
//! update and the single-variable kernels of [`ops::VarAxis`] (evidence
//! reduction, likelihoods, marginal reads) — and table-level convenience
//! forms for one-shot callers; [`ops_par`] has the
//! one-region-per-operation entry points (driven by a
//! [`fastbn_parallel::ThreadPool`] + [`fastbn_parallel::Schedule`]) that
//! the fine-grained baseline configurations run, including the
//! materialized mapping arrays of the GPU-style `Element` configuration.
//! Parallel results are bit-identical to sequential ones: for every output
//! entry, contributions are accumulated in ascending source index order in
//! both paths, so both perform the same floating-point sums in the same
//! order. Where these operations sit in the full stack
//! is mapped in `docs/ARCHITECTURE.md` at the repository root.

// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe {}` block with a SAFETY comment (enforced by fastbn-analyze
// FB-L1 plus this lint).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod domain;
mod index_map;
pub mod ops;
pub mod ops_par;
pub mod plan;
pub mod table;

pub use domain::Domain;
pub use plan::{multiply_marginalize, multiply_marginalize_from, KernelPlan, Layout};
pub use table::PotentialTable;

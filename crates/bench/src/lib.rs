//! # fastbn-bench
//!
//! Workload definitions and report binaries reproducing the Fast-BNI
//! (PPoPP'23) evaluation. The paper's six bnlearn networks are not
//! redistributable, so they are replaced by seeded analogues with matching
//! node counts, arc counts and arity distributions; the paper's published
//! Table-1 numbers are carried alongside each workload so the reports can
//! print paper-vs-measured side by side.
//!
//! Four binaries:
//!
//! * `table1` — the paper's Table 1: sequential and parallel engines on
//!   the six analogues, each parallel engine at its best thread count;
//! * `sweep` — the paper's thread sweep: per-engine seconds at every
//!   thread count, and the count with the shortest time;
//! * `structure` — the junction-tree statistics (clique sizes, layer
//!   counts) that explain both;
//! * `trace` — an observability tool: renders request span trees and
//!   self-scrapes the introspection endpoint. It does not measure
//!   performance.
//!
//! Performance claims are not decided here: the `benchmark/` package at
//! the repository root is the only arbiter (see `docs/ARCHITECTURE.md`).

// No unsafe code: raw-pointer and atomics tricks live in the audited
// modules of fastbn-potential/parallel/inference (see FB-L4 in
// crates/analyze); everything here must stay checkable by construction.
#![forbid(unsafe_code)]

pub mod measure;
pub mod workloads;

//! # fastbn-parallel
//!
//! An OpenMP-analogue data-parallel runtime used by every Fast-BNI inference
//! engine.
//!
//! The PPoPP'23 Fast-BNI paper distinguishes its engines *by schedule*:
//! coarse per-clique tasks ("Direct"), one parallel region per table
//! operation ("Primitive"), element-wise two-pass regions ("Element"), and
//! flattened per-layer regions (the Fast-BNI hybrid). Reproducing those
//! distinctions requires a runtime with
//!
//! * an exact, per-pool thread count (the paper sweeps `t = 1..32`),
//! * OpenMP-like `parallel for` semantics with **static** and **dynamic**
//!   chunk schedules, and
//! * a measurable, realistic per-region invocation overhead (the paper's
//!   "parallelization overhead" is a first-class quantity).
//!
//! A work-stealing runtime would blur all three, so this crate implements a
//! persistent fork-join pool from scratch on `std::sync` alone: its one
//! hand-off primitive, the closable [`Queue`], also carries the serving
//! front end's request queue. Concurrent regions from multiple
//! threads and nested regions from inside a body are both supported —
//! the batch and serving layers above rely on them (see
//! `docs/ARCHITECTURE.md` at the repository root).
//!
//! ## Quick example
//!
//! ```
//! use fastbn_parallel::{ThreadPool, Schedule};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let total = AtomicU64::new(0);
//! pool.parallel_for(0..1000, Schedule::Dynamic { grain: 64 }, |i| {
//!     total.fetch_add(i as u64, Ordering::Relaxed);
//! });
//! assert_eq!(total.into_inner(), 999 * 1000 / 2);
//! ```

// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe {}` block with a SAFETY comment (enforced by fastbn-analyze
// FB-L1 plus this lint).
#![deny(unsafe_op_in_unsafe_fn)]

mod latch;
mod pool;
mod queue;
mod region;
mod schedule;

pub use pool::{PoolStats, ThreadPool};
pub use queue::{Queue, TryPushError};
pub use schedule::Schedule;

/// Convenience: number of logical CPUs, used as the default pool width.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

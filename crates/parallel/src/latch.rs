//! A one-shot completion latch.
//!
//! The caller of a parallel region blocks on the latch until the last unit
//! of work has been retired. Parallel regions in junction-tree propagation
//! are often microseconds long, so `wait` spins briefly on an atomic flag
//! before falling back to a `std::sync` mutex/condvar sleep — the
//! spin-then-block pattern of Rust Atomics & Locks ch. 9. The flag is the
//! single source of truth; the mutex exists only to park late waiters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Iterations of the spin fast path before parking. Regions shorter than
/// a few microseconds complete well within this budget.
const SPIN_LIMIT: u32 = 4096;

/// One-shot latch: `wait` blocks until `set` has been called once.
///
/// The latch is the synchronization point that makes the pool's
/// lifetime-erasure sound: a region's borrowed closure is guaranteed to be
/// live until the latch is set, and the latch is set only after the final
/// chunk of work has returned (see `region.rs`).
#[derive(Default)]
pub(crate) struct CompletionLatch {
    flag: AtomicBool,
    lock: Mutex<()>,
    cond: Condvar,
}

impl CompletionLatch {
    /// Creates an unset latch.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Marks the latch as set and wakes all parked waiters.
    pub(crate) fn set(&self) {
        // ORDERING: Release pairs with the Acquire loads in `wait`/
        // `is_set`; taking
        // the lock before notifying closes the race with a waiter that
        // checked the flag and is about to park.
        self.flag.store(true, Ordering::Release);
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.cond.notify_all();
    }

    /// Blocks the calling thread until `set` is called (returns
    /// immediately if it already was). Spins briefly first.
    pub(crate) fn wait(&self) {
        for _ in 0..SPIN_LIMIT {
            // ORDERING: Acquire pairs with the Release store in `set`.
            if self.flag.load(Ordering::Acquire) {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        // ORDERING: Acquire — same pairing as the spin loop above.
        while !self.flag.load(Ordering::Acquire) {
            guard = self
                .cond
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking probe for the tests.
    #[cfg(test)]
    fn is_set(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in `set`.
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn set_then_wait_returns_immediately() {
        let latch = CompletionLatch::new();
        latch.set();
        latch.wait();
        assert!(latch.is_set());
    }

    #[test]
    fn wait_blocks_until_set() {
        let latch = Arc::new(CompletionLatch::new());
        let l2 = Arc::clone(&latch);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            l2.set();
        });
        latch.wait();
        assert!(latch.is_set());
        handle.join().unwrap();
    }

    #[test]
    fn many_waiters_are_all_released() {
        let latch = Arc::new(CompletionLatch::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&latch);
            handles.push(std::thread::spawn(move || l.wait()));
        }
        std::thread::sleep(Duration::from_millis(10));
        latch.set();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stress_set_wait_pairs() {
        // Many short-lived latches across two threads: exercises both the
        // spin path and the park path.
        for _ in 0..2000 {
            let latch = Arc::new(CompletionLatch::new());
            let l2 = Arc::clone(&latch);
            let h = std::thread::spawn(move || l2.set());
            latch.wait();
            h.join().unwrap();
            assert!(latch.is_set());
        }
    }
}

//! A single fork-join parallel region.
//!
//! A region is one `parallel_for` invocation: an iteration space, a
//! schedule, a type-erased loop body, and the bookkeeping that lets any
//! number of threads (including only the caller) retire every chunk exactly
//! once.
//!
//! Regions are self-contained: all coordination state lives in the
//! region itself, never in the pool, which is what makes one pool safe
//! to share between arbitrarily many concurrent callers (the
//! multi-model registry leans on this — every compiled model's regions
//! interleave on one worker team). A worker that picks a region off the
//! queue after it has completed simply retires zero chunks.
//!
//! fastbn: audited-raw-ptr

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::latch::CompletionLatch;
use crate::schedule::Schedule;

/// Type-erased pointer to the chunk body `fn(start, end)`.
///
/// The pointee is a closure borrowed from the `parallel_for` caller's stack
/// frame, with its lifetime erased. See the safety argument on
/// [`Region::new`].
struct BodyPtr(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: the pointee is `Sync` (required at construction), so sharing the
// pointer across threads is sound as long as it is only dereferenced while
// the pointee is alive — which the region protocol guarantees (see
// `Region::new`).
unsafe impl Send for BodyPtr {}
unsafe impl Sync for BodyPtr {}

/// Shared state of one parallel region. Workers and the caller all hold an
/// `Arc<Region>`; the caller blocks on `latch` until the last iteration has
/// been retired.
pub(crate) struct Region {
    body: BodyPtr,
    len: usize,
    threads: usize,
    sched: Schedule,
    /// Next chunk id to claim. Claims beyond `chunk_count` are no-ops, so a
    /// stale worker that shows up after completion never touches `body`.
    next_chunk: AtomicUsize,
    chunk_count: usize,
    /// Iterations retired so far; reaching `len` sets the latch.
    completed: AtomicUsize,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    latch: CompletionLatch,
}

impl Region {
    /// Builds a region over `len` iterations of `body`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that `body` outlives the region's
    /// *execution*, i.e. that it does not return from the stack frame owning
    /// `body` until [`Region::wait`] has returned. The protocol that makes
    /// this sufficient:
    ///
    /// 1. `body` is only dereferenced inside [`Region::work`], for chunks
    ///    claimed from `next_chunk` while `next_chunk < chunk_count`.
    /// 2. Every claimed chunk increments `completed` by its size *after*
    ///    the body call returns; the increment that reaches `len` sets the
    ///    latch. Hence when the latch is set, every body invocation has
    ///    returned and no further invocation can start (all chunks claimed).
    /// 3. [`Region::wait`] blocks until the latch is set, so the caller's
    ///    frame — and `body` — remain alive for every dereference.
    ///
    /// Stale `Arc<Region>` handles held by workers after completion only
    /// touch the atomics, never `body`.
    pub(crate) unsafe fn new(
        body: &(dyn Fn(usize, usize) + Sync),
        len: usize,
        threads: usize,
        sched: Schedule,
    ) -> Self {
        // SAFETY: erases the borrow's lifetime; soundness is argued in
        // the `# Safety` section above.
        let body: *const (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(body) };
        Region {
            body: BodyPtr(body),
            len,
            threads,
            sched,
            next_chunk: AtomicUsize::new(0),
            chunk_count: sched.chunk_count(len, threads),
            completed: AtomicUsize::new(0),
            panic_payload: Mutex::new(None),
            latch: CompletionLatch::new(),
        }
    }

    /// Claims and executes chunks until none remain. Called by workers and
    /// by the `parallel_for` caller itself (caller participation gives
    /// OpenMP's "the encountering thread is part of the team" semantics).
    pub(crate) fn work(&self) {
        loop {
            let chunk = self.next_chunk.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunk_count {
                return;
            }
            let (start, end) = self.sched.chunk_bounds(chunk, self.len, self.threads);
            // SAFETY: chunk was claimed before completion, so the body is
            // still alive (see `Region::new`).
            let body = unsafe { &*self.body.0 };
            let result = catch_unwind(AssertUnwindSafe(|| body(start, end)));
            if let Err(payload) = result {
                let mut slot = self
                    .panic_payload
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            // Retire the chunk *after* the body returned; the final retirer
            // releases the caller.
            // ORDERING: AcqRel — the Release half publishes this body's
            // writes to whoever observes completion; the Acquire half
            // makes earlier chunks' writes visible to the final retirer
            // before it opens the latch.
            let done = self.completed.fetch_add(end - start, Ordering::AcqRel) + (end - start);
            debug_assert!(done <= self.len);
            if done == self.len {
                self.latch.set();
            }
        }
    }

    /// Blocks until every iteration is retired, then re-raises the first
    /// worker panic, if any, on the calling thread.
    pub(crate) fn wait(&self) {
        if self.len == 0 {
            return;
        }
        self.latch.wait();
        let payload = self
            .panic_payload
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

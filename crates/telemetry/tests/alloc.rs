//! Allocation regression tests for the tracing hot path: once a tracer
//! exists, every [`Tracer::record`] — and the surrounding id minting and
//! clock reads — must perform **zero heap allocations**, on any thread,
//! no matter how many spans are pushed or how often the ring wraps. The
//! slow-query counter-read path is covered too, and so is the other end
//! of the ring's life: a dropped tracer frees all of its span storage.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use fastbn_telemetry::trace::{SpanRecord, TraceConfig, Tracer, SPAN_COLLECT, SPAN_COMPUTE};

/// Counts every allocation (alloc / alloc_zeroed / realloc) and the live
/// bytes of the **calling thread**, and defers the real work to the
/// system allocator.
struct CountingAlloc;

thread_local! {
    /// Per thread, because libtest runs this file's tests on parallel
    /// threads: a process-wide counter would charge one test with its
    /// neighbours' allocations. Const-initialised and without a
    /// destructor, so reading it never allocates or runs after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Charges `allocs` allocations and `bytes` live bytes to this thread.
fn count(allocs: u64, bytes: isize) {
    ALLOCS.with(|n| n.set(n.get() + allocs));
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method defers to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory, nor has the live-byte bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller contract forwarded verbatim to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        System.alloc(layout)
    }

    // SAFETY: caller contract forwarded verbatim to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller contract forwarded verbatim to `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller contract forwarded verbatim to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread holds: allocated and not yet freed.
fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// One request's worth of hot-path tracing work: mint a trace, mint
/// span ids, read the clock, record a couple of spans.
fn trace_one(tracer: &Tracer) {
    let token = tracer.begin_trace();
    let root = tracer.next_span();
    let start = tracer.now_ns();
    tracer.record(&SpanRecord {
        trace: token.trace,
        span: tracer.next_span(),
        parent: root,
        name: SPAN_COLLECT,
        start_ns: start,
        dur_ns: 17,
        tag: 0,
        aux: 0,
    });
    tracer.record(&SpanRecord {
        trace: token.trace,
        span: root,
        parent: 0,
        name: SPAN_COMPUTE,
        start_ns: start,
        dur_ns: tracer.now_ns().saturating_sub(start),
        tag: 4,
        aux: 1,
    });
}

#[test]
fn steady_state_span_recording_is_allocation_free() {
    // Small ring so the measured window wraps it many times over —
    // overwrite must be as allocation-free as the first lap.
    let tracer = Arc::new(Tracer::new(TraceConfig {
        sample_every: 1,
        slow_threshold: Duration::from_secs(3600),
        ring_capacity: 64,
        slow_capacity: 8,
    }));

    // Warm-up: touches every path once.
    for _ in 0..8 {
        trace_one(&tracer);
    }

    let before = allocations();
    for _ in 0..1024 {
        trace_one(&tracer);
    }
    let _ = tracer.slow_total();
    let _ = tracer.spans_recorded();
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state span recording allocated {delta} times"
    );
    assert_eq!(tracer.spans_recorded(), 2 * (8 + 1024));
}

#[test]
fn four_threads_record_without_allocating_and_every_span_is_counted() {
    let tracer = Arc::new(Tracer::new(TraceConfig::default()));
    let threads = 4;
    let laps = 256;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tracer = Arc::clone(&tracer);
            scope.spawn(move || {
                // The counter is this thread's own, so the other threads
                // cannot disturb it.
                let before = allocations();
                for _ in 0..laps {
                    trace_one(&tracer);
                }
                let delta = allocations() - before;
                assert_eq!(delta, 0, "recording allocated {delta} times");
            });
        }
    });
    assert_eq!(
        tracer.spans_recorded(),
        2 * threads * laps,
        "no span lost across threads"
    );
    assert_eq!(tracer.recent_spans().len() as u64, tracer.spans_recorded());
}

#[test]
fn a_dropped_tracer_frees_its_span_storage() {
    let before = live_bytes();
    let tracer = Tracer::new(TraceConfig {
        ring_capacity: 1 << 12,
        ..TraceConfig::default()
    });
    trace_one(&tracer);
    assert!(live_bytes() > before, "the tracer holds its ring");
    drop(tracer);
    assert_eq!(live_bytes(), before, "bytes held after the drop");
}

//! Per-query trace propagation into engine execution.
//!
//! fastbn: deny-hot-alloc
//!
//! The serving layer owns trace/span identity (a [`Tracer`] mints ids
//! at admission);
//! this module carries that identity **into** the engines without
//! touching the [`InferenceEngine`](crate::engines::InferenceEngine)
//! trait: a [`TraceContext`] is installed in a thread-local by
//! [`scoped`] around each traced query
//! ([`Solver::query_batch_traced`](crate::solver::Solver::query_batch_traced)
//! does this per batch slot, on whichever pool thread runs the slot),
//! and the engines bracket their collect/distribute halves with the
//! `collect`/`distribute` helpers — no-ops costing one thread-local
//! read when no context is installed, so untraced serving pays nothing
//! measurable and computes
//! bit-identical results (the helpers never touch engine data).

use std::cell::RefCell;
use std::sync::Arc;

use fastbn_telemetry::trace::{
    NameId, SpanRecord, Tracer, SPAN_COLLECT, SPAN_DISTRIBUTE, SPAN_EXTRACT,
};

/// The identity a traced query carries into the engine: which tracer to
/// record against, which trace the spans belong to, and the span to
/// parent them under (the serving layer's compute span).
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// The tracing authority spans record against.
    pub tracer: Arc<Tracer>,
    /// The request's trace id.
    pub trace: u64,
    /// Parent span id for spans recorded under this context.
    pub parent: u64,
}

thread_local! {
    /// The context engine-phase spans attach to on this thread, if any.
    static ACTIVE: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// Installs `ctx` as the calling thread's active trace context for the
/// guard's lifetime (restoring whatever was active before on drop).
/// `scoped(None)` is a no-op guard, so batch loops can call it
/// unconditionally per slot.
pub fn scoped(ctx: Option<&TraceContext>) -> TraceScope {
    match ctx {
        None => TraceScope {
            prev: None,
            installed: false,
        },
        Some(ctx) => {
            let prev = ACTIVE.with(|cell| cell.replace(Some(TraceContext::clone(ctx))));
            TraceScope {
                prev,
                installed: true,
            }
        }
    }
}

/// Guard returned by [`scoped`]; restores the previous context on drop.
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<TraceContext>,
    installed: bool,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.installed {
            let prev = self.prev.take();
            ACTIVE.with(|cell| *cell.borrow_mut() = prev);
        }
    }
}

/// A copy of the active context (one `Arc` bump; no allocation).
#[inline]
fn current() -> Option<TraceContext> {
    ACTIVE.with(|cell| cell.borrow().as_ref().map(TraceContext::clone))
}

/// Restores the thread-local parent span on drop — the panic-safe
/// bracket reparenting phase spans use so spans recorded inside a phase
/// attach to the phase span rather than the compute span.
struct ParentGuard {
    prev: u64,
}

impl ParentGuard {
    fn reparent_to(span: u64, prev: u64) -> ParentGuard {
        ACTIVE.with(|cell| {
            if let Some(ctx) = cell.borrow_mut().as_mut() {
                ctx.parent = span;
            }
        });
        ParentGuard { prev }
    }
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        ACTIVE.with(|cell| {
            if let Some(ctx) = cell.borrow_mut().as_mut() {
                ctx.parent = self.prev;
            }
        });
    }
}

/// Times `f` as one `name` span (payload `tag`, `aux`) under the active
/// context; calls `f` directly when none is installed. Spans recorded
/// *inside* `f` become children of this span.
#[inline]
fn with_span<R>(name: NameId, tag: u64, aux: u64, f: impl FnOnce() -> R) -> R {
    let Some(ctx) = current() else {
        return f();
    };
    let span = ctx.tracer.next_span();
    let _guard = ParentGuard::reparent_to(span, ctx.parent);
    let start = ctx.tracer.now_ns();
    let out = f();
    let dur = ctx.tracer.now_ns().saturating_sub(start);
    ctx.tracer.record(&SpanRecord {
        trace: ctx.trace,
        span,
        parent: ctx.parent,
        name,
        start_ns: start,
        dur_ns: dur,
        tag,
        aux,
    });
    out
}

/// Times `f` as this query's collect-phase span (no-op untraced).
#[inline]
pub(crate) fn collect<R>(f: impl FnOnce() -> R) -> R {
    with_span(SPAN_COLLECT, 0, 0, f)
}

/// Times `f` as this query's distribute-phase span (no-op untraced).
#[inline]
pub(crate) fn distribute<R>(f: impl FnOnce() -> R) -> R {
    with_span(SPAN_DISTRIBUTE, 0, 0, f)
}

/// Times `f` as one phase (`SPAN_SEP_PHASE` or `SPAN_RECV_PHASE`) of
/// flattened layer `layer`, which moves `entries` table entries (no-op
/// untraced).
#[inline]
pub(crate) fn phase<R>(name: NameId, layer: usize, entries: usize, f: impl FnOnce() -> R) -> R {
    with_span(name, layer as u64, entries as u64, f)
}

/// Times `f` as this query's extraction region, over home cliques of
/// `entries` entries (no-op untraced).
#[inline]
pub(crate) fn extract<R>(entries: usize, f: impl FnOnce() -> R) -> R {
    with_span(SPAN_EXTRACT, 0, entries as u64, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_telemetry::trace::{TraceConfig, SPAN_COLLECT};

    #[test]
    fn phase_spans_record_only_under_a_scope() {
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        collect(|| ());
        assert_eq!(tracer.spans_recorded(), 0, "no scope, no spans");

        let ctx = TraceContext {
            tracer: Arc::clone(&tracer),
            trace: 9,
            parent: 1,
        };
        {
            let _scope = scoped(Some(&ctx));
            collect(|| ());
            distribute(|| ());
        }
        collect(|| ());
        assert_eq!(tracer.spans_recorded(), 2, "exactly the scoped phases");
        let spans = tracer.recent_spans();
        assert!(spans.iter().all(|s| s.trace == 9 && s.parent == 1));
        assert!(spans.iter().any(|s| s.name == SPAN_COLLECT));
    }

    #[test]
    fn phase_spans_carry_layer_and_entries() {
        use fastbn_telemetry::trace::SPAN_SEP_PHASE;
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        phase(SPAN_SEP_PHASE, 3, 390_625, || ());
        assert_eq!(tracer.spans_recorded(), 0, "no scope, no spans");
        let ctx = TraceContext {
            tracer: Arc::clone(&tracer),
            trace: 4,
            parent: 1,
        };
        let _scope = scoped(Some(&ctx));
        collect(|| phase(SPAN_SEP_PHASE, 3, 390_625, || ()));
        let spans = tracer.recent_spans();
        let sep = spans.iter().find(|s| s.name == SPAN_SEP_PHASE).unwrap();
        let parent = spans.iter().find(|s| s.name == SPAN_COLLECT).unwrap();
        assert_eq!((sep.tag, sep.aux, sep.parent), (3, 390_625, parent.span));
    }

    #[test]
    fn scopes_nest_and_restore() {
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let outer = TraceContext {
            tracer: Arc::clone(&tracer),
            trace: 1,
            parent: 0,
        };
        let inner = TraceContext {
            tracer: Arc::clone(&tracer),
            trace: 2,
            parent: 0,
        };
        let _a = scoped(Some(&outer));
        {
            let _b = scoped(Some(&inner));
            assert_eq!(current().unwrap().trace, 2);
            // A scoped(None) guard changes nothing.
            let _c = scoped(None);
            assert_eq!(current().unwrap().trace, 2);
        }
        assert_eq!(current().unwrap().trace, 1);
    }

    #[test]
    fn phases_reparent_nested_spans() {
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let ctx = TraceContext {
            tracer: Arc::clone(&tracer),
            trace: 5,
            parent: 100,
        };
        let _scope = scoped(Some(&ctx));
        collect(|| {
            // Whatever records inside the phase parents under its span.
            let nested = current().unwrap();
            assert_ne!(nested.parent, 100);
        });
        assert_eq!(current().unwrap().parent, 100, "parent restored");
    }
}

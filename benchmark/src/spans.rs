//! The harness's own spans: recorded around every call into a layer's
//! public functions during the traced run, kept in a pre-sized vector,
//! written out once at exit.
//!
//! A span is `{name, op_id, id, parent, start_ns, end_ns}`; spans of one
//! operation share `op_id`. A layer's **self time** is its span minus
//! the part of that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    /// Unique within a run; never 0.
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. A disabled recorder (the clean run) never
/// reads the clock and stores nothing, so the measured loops are the same
/// code in both runs.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// `lane << 32`: ids of different threads never collide.
    base: u64,
    spans: Vec<Span>,
    /// Spans not stored because the buffer was full.
    dropped: u64,
}

impl Recorder {
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            base: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording buffer of `capacity` spans for thread `lane`, on the
    /// run-wide clock `epoch`.
    pub fn new(epoch: Instant, lane: u32, capacity: usize) -> Recorder {
        Recorder {
            enabled: true,
            epoch,
            base: u64::from(lane) << 32,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Opens a span now; returns its id (0 when disabled or full, which
    /// [`Recorder::close`] ignores).
    #[inline]
    pub fn open(&mut self, name: &'static str, op_id: u64, parent: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = self.base + self.spans.len() as u64 + 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op_id,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    #[inline]
    pub fn close(&mut self, id: u64) {
        if id != 0 {
            let end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans[(id - self.base - 1) as usize].end_ns = end_ns;
        }
    }

    /// Times `f` as one span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, 0, 0);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of one span given its children's intervals: its duration
/// minus the length of the union of the children, clipped to the span
/// (children may overlap each other, e.g. requests in flight together).
pub fn self_time_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Per-name count, total and self time over a whole trace.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let own = children.get_mut(&s.id).map_or(&mut [][..], |c| &mut c[..]);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_time_ns(s, own);
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Writes the trace as one JSON document. Span names are identifiers
/// chosen by this crate, so they need no escaping.
pub fn write_trace(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"name\":\"{}\",\"op_id\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op_id, s.id, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 1,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span("op", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("b", 3, 1, 50, 90),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["op"].self_ns, 40);
        assert_eq!(t["a"].self_ns, 20);
        assert_eq!(t["b"].self_ns, 40);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children cover [10, 60) ∪ [40, 80) = 70 ns, and one child
        // outlives the parent: only the part inside [0, 100) counts.
        let parent = span("op", 1, 0, 0, 100);
        let mut kids = [(40, 80), (10, 60), (95, 130)];
        assert_eq!(self_time_ns(&parent, &mut kids), 100 - 70 - 5);
        // A child fully inside an earlier one adds nothing.
        let mut nested = [(10, 90), (20, 30)];
        assert_eq!(self_time_ns(&parent, &mut nested), 20);
    }

    #[test]
    fn full_or_disabled_recorders_drop_spans() {
        let mut off = Recorder::disabled();
        let id = off.open("x", 0, 0);
        off.close(id);
        assert!(off.into_spans().is_empty());

        let mut rec = Recorder::new(Instant::now(), 3, 1);
        let a = rec.open("a", 7, 0);
        let b = rec.open("b", 7, a);
        rec.close(b);
        rec.close(a);
        assert_eq!((b, rec.dropped), (0, 1));
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].id, (3 << 32) + 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}

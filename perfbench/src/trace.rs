//! Spans recorded around the benchmark's own calls into each layer's
//! public API. Nothing inside the engine is instrumented: a span covers
//! exactly one call the benchmark makes, plus the benchmark's bookkeeping
//! in the enclosing request span.
//!
//! Each thread owns a [`Tracer`]; spans stay in memory until the run ends
//! and are then merged and written out. A disabled tracer records nothing,
//! so the untraced run pays one branch per boundary.

use crate::stats::Samples;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Request the span belongs to; every span of one client request
    /// shares it.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    req: u64,
    start_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// High bits of every span id this tracer issues, so ids from
    /// different threads never collide.
    prefix: u64,
    next: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, thread: u64) -> Self {
        Tracer {
            enabled,
            origin,
            prefix: thread << 40,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        self.next += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id: self.prefix | self.next,
            name,
            req,
            start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        self.spans.push(Span {
            id: open.id,
            parent: self.stack.last().map(|o| o.id),
            name: open.name,
            req: open.req,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span of its own request; returns `f`'s result and
    /// the milliseconds it took.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let req = self.prefix | (self.next + 1);
        self.enter(name, req);
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.exit();
        (out, ms)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, dur - covered(kids, s.start_ns, s.end_ns).min(dur))
        })
        .collect()
}

/// Self times in microseconds, grouped by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, Samples> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for s in spans {
        out.entry(s.name)
            .or_default()
            .push(selfs[&s.id] as f64 / 1e3);
    }
    out
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.req, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50)
        // and a grandchild inside the first child must not count twice.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(2), 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 60);
        assert_eq!(selfs[&2], 14);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 6);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, None, 10, 20), span(2, Some(1), 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn tracer_links_nested_spans_and_shares_request_id() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        t.enter("request", 7);
        t.enter("engine.query", 7);
        t.exit();
        t.exit();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert!(spans.iter().all(|s| s.req == 7 && s.id >> 40 == 3));
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.enter("x", 1);
        t.exit();
        assert!(t.into_spans().is_empty());
    }
}

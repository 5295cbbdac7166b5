//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans live in a `Vec` until the run ends (`trace.json`). Spans inside
//! the product are a later issue; these sit at the public-API boundary.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One timed call: which layer, for which replayed request, caused by which
/// span, from when to when (nanoseconds since the tracer was made).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<module>.<what>` of the call.
    pub name: &'static str,
    /// Index of the replayed request the call served.
    pub request: u32,
    /// Index (into the span list) of the span this one ran inside.
    pub parent: Option<u32>,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// End offset in nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans, or — switched off — only runs the closures, so the same
/// replay code measures its own tracing overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for `request`; spans opened by
    /// `f` through the tracer it is handed become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover. Children of one parent run one after another here (the replay is
/// serial), so their durations add without overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Sorted durations (or self times) per span name.
pub fn by_name(spans: &[Span], self_time: bool) -> BTreeMap<&'static str, Vec<u64>> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let v = if self_time {
            own[i]
        } else {
            span.duration_ns()
        };
        out.entry(span.name).or_default().push(v);
    }
    for v in out.values_mut() {
        v.sort_unstable();
    }
    out
}

/// The spans as the `trace.json` array.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "request": s.request,
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.leaf", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        // root: 100 − (30 + 40); a: 30 − 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let own = by_name(&spans, true);
        assert_eq!(own["root"], vec![30]);
        let whole = by_name(&spans, false);
        assert_eq!(whole["a"], vec![30]);
    }

    #[test]
    fn tracer_nests_by_closure_and_passes_through_when_off() {
        let mut on = Tracer::new(true);
        let got = on.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1) + t.span("inner", 7, |_| 2)
        });
        assert_eq!(got, 3);
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].request, 7);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}

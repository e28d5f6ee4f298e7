//! Spans recorded by the benchmark around each call into a layer.
//!
//! Spans live in memory until the run ends. A disabled tracer records
//! nothing, so timed and traced passes run the same code.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share this identifier.
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        let self_ns = self_times_ns(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, own)| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("self_ns", Value::Num(own as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op", Value::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (children may overlap each other or stick out
/// of the parent; covered time is counted once and clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = [
            span(100, 200, None),    // 0: root
            span(110, 130, Some(0)), // 1: child
            span(120, 150, Some(0)), // 2: overlaps child 1
            span(190, 260, Some(0)), // 3: sticks out of the root
            span(112, 118, Some(1)), // 4: grandchild
            span(300, 300, None),    // 5: empty
        ];
        // Root: 100 − (110..150 ∪ 190..200) = 100 − 50.
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 70, 6, 0]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_runs_the_closure() {
        let mut tr = Tracer::new(false);
        let op = tr.begin("op", None, 7);
        assert_eq!(tr.span("call", op, 7, || 41 + 1), 42);
        tr.end(op);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_orders_spans() {
        let mut tr = Tracer::new(true);
        let op = tr.begin("op", None, 3);
        tr.span("call", op, 3, || std::hint::black_box(0));
        tr.end(op);
        let [outer, inner] = tr.spans() else {
            panic!("two spans expected")
        };
        assert_eq!(
            (outer.name, inner.name, inner.parent, inner.op),
            ("op", "call", Some(0), 3)
        );
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(tr.durations_ms("call").len(), 1);
    }
}

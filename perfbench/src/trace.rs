//! In-memory span recorder for the traced run.
//!
//! A span covers one of the benchmark's own calls into a layer: its
//! name, start and end (nanoseconds since the series' time base), the
//! enclosing span, the round or epoch it served, and how many units of
//! work it covered. Spans stay in memory and are written out once, when
//! the series ends. A disabled tracer records nothing and costs one
//! branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `asap.attest_bytes`.
    pub name: &'static str,
    /// Start, in ns since the tracer's base.
    pub start_ns: u64,
    /// End, in ns since the tracer's base.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The round, epoch or session the span served.
    pub round: Option<u64>,
    /// Units of work covered (frames, devices, steps, ...).
    pub count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder on one thread's time line.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder on the time line starting at `base`; records only
    /// when `on`.
    pub fn new(base: Instant, on: bool) -> Tracer {
        Tracer {
            base,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one. Returns its
    /// handle, or `None` when tracing is off.
    pub fn enter(&mut self, name: &'static str, round: Option<u64>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            round: round.or_else(|| self.open.last().and_then(|&p| self.spans[p].round)),
            count: 1,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id` opened, recording `count` units of work.
    pub fn exit(&mut self, id: Option<usize>, count: u64) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = count.max(1);
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Records an already-finished root span — for intervals that
    /// overlap instead of nesting, such as pipelined epochs.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        round: Option<u64>,
        count: u64,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            round,
            count: count.max(1),
        });
    }

    /// Runs `f` inside a span of `count` units.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        round: Option<u64>,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, round);
        let out = f();
        self.exit(id, count);
        out
    }

    /// Appends spans another tracer on the same time line recorded
    /// (the per-layer probes'), re-indexing their parents.
    pub fn append(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// The recorded spans, in open order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Median of `duration / count` over the spans named `name`, in ns.
pub fn per_unit_ns(spans: &[Span], name: &str) -> Option<f64> {
    let samples: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / s.count as f64)
        .collect();
    crate::stats::median(&samples)
}

/// Renders spans as JSON lines: one object per span, `id` being the
/// span's index, which `parent` refers to.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"count\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.round),
            s.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_inherit_rounds() {
        let mut t = Tracer::new(Instant::now(), true);
        let round = t.enter("round", Some(7));
        t.span("child", None, 4, || ());
        t.exit(round, 1);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].round, Some(7));
        assert_eq!(spans[1].count, 4);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", Some(1), 1, || 5), 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn per_unit_cost_and_json_lines() {
        let span = |start_ns, end_ns, count| Span {
            name: "attest",
            start_ns,
            end_ns,
            parent: None,
            round: Some(2),
            count,
        };
        let spans = vec![span(0, 300, 10), span(300, 340, 1), span(400, 480, 2)];
        assert_eq!(per_unit_ns(&spans, "attest"), Some(40.0));
        assert_eq!(per_unit_ns(&spans, "other"), None);
        let lines = to_jsonl(&spans);
        assert_eq!(lines.lines().count(), 3);
        assert_eq!(
            lines.lines().nth(1),
            Some(
                r#"{"id":1,"name":"attest","start_ns":300,"end_ns":340,"parent":null,"round":2,"count":1}"#
            )
        );
    }
}

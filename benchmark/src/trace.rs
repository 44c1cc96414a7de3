//! The driver's own spans: opened around each call into a layer, kept
//! in memory, written out when the run ends. Nothing inside the crates
//! is instrumented — a span measures a public function from outside.
//!
//! A disabled tracer reads no clock and stores nothing, so the
//! end-to-end region runs the same calls with no tracing cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Metric-style name: `<crate>.<module>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The pass (or epoch, or sync) the span belongs to.
    pub pass: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::open`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pass: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing at all.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Tags spans opened from now on with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hands the recorded spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut selfs[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    selfs
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Every duration, ns, in recording order.
    pub durations_ns: Vec<f64>,
}

/// Groups spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
        t.durations_ns.push(span.duration_ns() as f64);
    }
    out
}

/// At most this many spans go into the trace file in full; the per-name
/// table below them always covers every span.
pub const TRACE_FILE_SPAN_CAP: usize = 20_000;

/// Renders the trace file: run context, the per-name table, then the
/// first [`TRACE_FILE_SPAN_CAP`] spans.
pub fn render_json(spans: &[Span], context: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in context {
        let _ = writeln!(out, "  \"{key}\": \"{value}\",");
    }
    let _ = writeln!(out, "  \"span_count\": {},", spans.len());
    out.push_str("  \"by_name\": [\n");
    let totals = totals_by_name(spans);
    for (i, (name, t)) in totals.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{name}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.calls, t.total_ns, t.self_ns
        );
        out.push_str(if i + 1 < totals.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"spans\": [\n");
    let shown = spans.len().min(TRACE_FILE_SPAN_CAP);
    for (i, s) in spans[..shown].iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"pass\": {}}}",
            s.name, s.start_ns, s.end_ns, s.pass
        );
        out.push_str(if i + 1 < shown { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // pass [0,100] ─ a [10,40] ─ a.inner [15,25]
        //               └ b [50,90]
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a"].total_ns, 30);
        assert_eq!(totals["a"].self_ns, 20);
        assert_eq!(totals["pass"].calls, 1);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut on = Tracer::new(true);
        on.set_pass(3);
        let got = on.span("outer", || {
            // Cannot nest through the closure (the tracer is borrowed);
            // nested spans use open/close.
            7
        });
        assert_eq!(got, 7);
        let outer = on.open("outer2");
        let inner = on.open("inner");
        on.close(inner);
        on.close(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].pass, 3);
        assert!(spans[1].end_ns >= spans[2].end_ns);

        let mut off = Tracer::new(false);
        let id = off.open("x");
        off.close(id);
        assert_eq!(off.span("y", || 1), 1);
        assert!(off.spans().is_empty());

        let json = render_json(on.spans(), &[("workload", "t".to_string())]);
        assert!(json.contains("\"span_count\": 3"));
        assert!(json.contains("\"name\": \"inner\""));
    }
}

//! Spans recorded from the benchmark's own calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the index of the span that was open when it began, and
//! a run id shared by the spans of one operation (a serve episode or a
//! sweep pass). Spans stay in memory and are written out once, at exit.
//! A disabled tracer records nothing and only calls the wrapped closure,
//! so end-to-end runs pay no tracing cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals: how many spans, their summed duration and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&self, run: u32) {
        self.state.borrow_mut().run = run;
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut state = self.state.borrow_mut();
            let span = Span {
                name: name.to_string(),
                start_ns: self.offset_ns(Instant::now()),
                end_ns: 0,
                parent: state.open.last().copied(),
                run: state.run,
            };
            state.spans.push(span);
            let index = state.spans.len() - 1;
            state.open.push(index);
            index
        };
        let out = f();
        let mut state = self.state.borrow_mut();
        state.spans[index].end_ns = self.offset_ns(Instant::now());
        let closed = state.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close in LIFO order");
        out
    }

    /// Records an already finished span (for work timed in a child
    /// process) under the open span, clamped to the open span's start.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.borrow_mut();
        let parent = state.open.last().copied();
        let floor = parent.map_or(0, |p| state.spans[p].start_ns);
        let start_ns = self.offset_ns(start).max(floor);
        let end_ns = self.offset_ns(end).max(start_ns);
        let run = state.run;
        state.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            run,
        });
    }

    /// Snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    pub fn len(&self) -> usize {
        self.state.borrow().spans.len()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one parent run one after another on the
/// driving thread, so their intervals do not overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(span, &children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Spans that end outside their parent, or parents whose children cover
/// more than their own duration (a negative self time).
pub fn nesting_problems(spans: &[Span]) -> Vec<String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut problems = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let Some(p) = span.parent else { continue };
        let parent = &spans[p];
        if p >= i || span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            problems.push(format!(
                "span {i} ({}) is not inside its parent {p}",
                span.name
            ));
        }
        child_ns[p] += span.duration_ns();
    }
    for (i, (span, children)) in spans.iter().zip(child_ns).enumerate() {
        if children > span.duration_ns() {
            problems.push(format!("span {i} ({}) has a negative self time", span.name));
        }
    }
    problems
}

/// Totals per span name, in name order.
pub fn totals(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name.clone()).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The trace file: one JSON object per span, plus its self time.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_ns)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n  {}\n]}}\n",
        rows.join(",\n  ")
    )
}

/// Measured cost of recording one span, in ns: the basis of the
/// `trace_overhead_pct` estimate.
pub fn span_cost_ns() -> f64 {
    let tracer = Tracer::new(true);
    crate::stats::ns_per_call(5, 2_000, || tracer.span("calibrate", || ()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_is_never_negative() {
        let tracer = Tracer::new(true);
        tracer.set_run(4);
        tracer.span("outer", || {
            tracer.span("inner", || std::hint::black_box((0..1000).sum::<u64>()));
            tracer.span("inner", || ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.run == 4));
        for s in &spans[1..] {
            assert_eq!(s.parent, Some(0));
            assert!(s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns);
        }
        assert!(nesting_problems(&spans).is_empty());
        let totals = totals(&spans);
        assert_eq!(totals["inner"].count, 2);
        let outer = totals["outer"];
        assert_eq!(outer.self_ns + totals["inner"].total_ns, outer.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 7), 7);
        tracer.record("y", Instant::now(), Instant::now());
        assert_eq!(tracer.len(), 0);
    }

    #[test]
    fn recorded_spans_stay_inside_the_open_span() {
        let tracer = Tracer::new(true);
        let early = Instant::now();
        tracer.span("pass", || {
            tracer.record("sweep", early, Instant::now());
        });
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(nesting_problems(&spans).is_empty());
    }

    #[test]
    fn overlapping_children_are_reported() {
        let span = |start_ns, end_ns, parent| Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            run: 0,
        };
        let spans = [span(0, 10, None), span(0, 8, Some(0)), span(5, 12, Some(0))];
        let problems = nesting_problems(&spans);
        assert!(
            problems.iter().any(|p| p.contains("not inside")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("negative self")),
            "{problems:?}"
        );
    }
}

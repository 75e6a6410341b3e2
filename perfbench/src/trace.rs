//! In-memory spans, recorded only in the benchmark's own
//! code around calls into each layer's public functions.
//!
//! A span has a name, a start and an end, an optional parent span and
//! a request id. A span's *self time* is its duration minus the part of
//! its interval covered by its children (overlapping children are
//! counted once). A disabled tracer records nothing, so the untraced
//! end-to-end run pays only a branch per call site.

use std::time::Instant;

/// Index of a recorded span (`NONE` when tracing is off).
pub type SpanId = usize;

/// The id returned by a disabled tracer.
pub const NONE: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        self.begin_at(name, parent, req, Instant::now())
    }

    /// Opens a span starting at `at` (for spans whose start was taken
    /// before the call, e.g. an open-loop request's due time).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        at: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start = self.ns(at);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: (parent != NONE).then_some(parent),
            req,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        self.end_at(id, Instant::now());
    }

    pub fn end_at(&mut self, id: SpanId, at: Instant) {
        if id == NONE {
            return;
        }
        let end = self.ns(at);
        if let Some(span) = self.spans.get_mut(id) {
            span.end = end.max(span.start);
        }
    }

    /// Records a whole span whose interval is already known.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.begin_at(name, parent, req, start);
        self.end_at(id, end);
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64)
            .collect()
    }

    /// Summed duration (ns) of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed duration (ns) of the spans with this name recorded after
    /// the first `mark` spans (a mark is `spans().len()` taken earlier).
    pub fn total_since(&self, mark: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .skip(mark)
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64)
            .sum()
    }

    /// Summed self time (ns) of every span with this name.
    pub fn total_self(&self, name: &str) -> f64 {
        let self_times = self_times(&self.spans);
        self.spans
            .iter()
            .zip(&self_times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64)
            .sum()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            if let Some(list) = children.get_mut(p) {
                list.push((span.start, span.end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            span.duration()
                .saturating_sub(covered(span.start, span.end, kids))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.clamp(lo, hi).max(reach);
        let e = e.clamp(lo, hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

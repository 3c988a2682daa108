//! In-memory spans recorded by the benchmark around its calls into the
//! library layers.
//!
//! A span has a name, a start, an end, the span that caused it and an
//! id shared by the spans of one job chunk or query. Calls too short
//! to time one by one (a policy's `place`) are folded into one
//! aggregate span per run: its `busy` time is the sum of the calls and
//! `count` the number of calls. Self time is a span's busy time minus
//! the busy time of its children; every caller here is one thread, so
//! children never overlap one another.
//!
//! When disabled the tracer reads no clock and stores nothing, so the
//! untraced and traced runs execute the same benchmark code.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span, or [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id every call returns while tracing is off; also the parent
    /// of a root span.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Shared by the spans of one job chunk or query.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `end - start` for an interval span; the summed call time for an
    /// aggregate.
    pub busy_ns: u64,
    /// 1 for an interval span; the number of calls for an aggregate.
    pub count: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that is on (`enabled`) or a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.map_or(0, |o| {
            u64::try_from(o.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    fn parent_index(parent: SpanId) -> Option<usize> {
        (parent != SpanId::NONE).then_some(parent.0)
    }

    /// Opens an interval span under `parent`.
    pub fn begin(&mut self, name: &str, parent: SpanId, id: u64) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent: Tracer::parent_index(parent),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            count: 1,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes an interval span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: SpanId) {
        if span == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        let s = &mut self.spans[span.0];
        s.end_ns = end_ns;
        s.busy_ns = end_ns.saturating_sub(s.start_ns);
    }

    /// Records the calls `calls` timed as one aggregate span under
    /// `parent`.
    pub fn aggregate(&mut self, name: &str, parent: SpanId, id: u64, calls: &CallTimer) {
        if !self.enabled() || calls.count == 0 {
            return;
        }
        let origin = self.origin.expect("enabled tracer has an origin");
        let ns = |t: Instant| u64::try_from(t.duration_since(origin).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent: Tracer::parent_index(parent),
            start_ns: calls.first.map_or(0, ns),
            end_ns: calls.last.map_or(0, ns),
            busy_ns: calls.busy_ns,
            count: calls.count,
        });
    }

    /// Hands the recorded spans over, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Running total of many short calls, folded into one aggregate span.
#[derive(Debug, Default, Clone)]
pub struct CallTimer {
    pub count: u64,
    pub busy_ns: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl CallTimer {
    /// Times one call of `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.first.get_or_insert(start);
        self.last = Some(end);
        self.count += 1;
        self.busy_ns += u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        out
    }
}

/// Self time of every span: busy time minus the busy time of its
/// children, saturating at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_busy = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_busy[p] += s.busy_ns;
        }
    }
    spans
        .iter()
        .zip(child_busy)
        .map(|(s, c)| s.busy_ns.saturating_sub(c))
        .collect()
}

/// Summed self time in seconds per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_default() += self_ns as f64 * 1e-9;
    }
    out
}

/// The spans as JSON lines (one object per span), for the trace file.
pub fn to_json_lines(spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\
             \"end_ns\":{},\"busy_ns\":{},\"self_ns\":{},\"count\":{}}}\n",
            s.name, s.id, s.start_ns, s.end_ns, s.busy_ns, self_ns[i], s.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            id: 0,
            parent,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            count: 1,
        }
    }

    /// pass [0, 100) holds phase [10, 70), which holds two chunks and
    /// an aggregate of 3 calls totalling 5 ns inside the second chunk;
    /// a second phase [70, 95) has no children.
    fn fixture() -> Vec<Span> {
        vec![
            span("pass", None, 0, 100),
            span("phase", Some(0), 10, 70),
            span("chunk", Some(1), 12, 30),
            span("chunk", Some(1), 30, 60),
            Span {
                name: "place".to_string(),
                id: 0,
                parent: Some(3),
                start_ns: 31,
                end_ns: 58,
                busy_ns: 5,
                count: 3,
            },
            span("other", Some(0), 70, 95),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = fixture();
        // pass: 100 - (60 + 25); phase: 60 - (18 + 30); chunk 2: 30 - 5.
        assert_eq!(self_times(&spans), vec![15, 12, 18, 25, 5, 25]);
    }

    #[test]
    fn totals_sum_self_time_per_name() {
        let totals = totals_by_name(&fixture());
        assert!((totals["chunk"] - 43e-9).abs() < 1e-15);
        assert!((totals["place"] - 5e-9).abs() < 1e-15);
        // Self times add back up to the root's duration.
        let sum: f64 = totals.values().sum();
        assert!((sum - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x", SpanId::NONE, 1);
        assert_eq!(s, SpanId::NONE);
        tr.end(s);
        let mut calls = CallTimer::default();
        calls.time(|| ());
        tr.aggregate("y", SpanId::NONE, 1, &calls);
        assert!(tr.take().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_spans() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("root", SpanId::NONE, 7);
        let child = tr.begin("child", root, 7);
        tr.end(child);
        tr.end(root);
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].busy_ns >= spans[1].busy_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}

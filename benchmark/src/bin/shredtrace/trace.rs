//! The span recorder of the traced run.
//!
//! One *operation* (one `cold.QF1`, one `write_b64`, …) is a root span; each
//! call into a layer made on its behalf is a child span of that root, timed
//! from outside with `Instant`. Spans are kept in memory and folded into
//! per-kind samples when the operation ends; the raw spans of the first
//! [`KEPT_PASSES`] passes are written out at exit.

use shredbench::report::{array, Obj};
use shredbench::stats;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// Passes whose raw spans go to the trace file (the aggregates cover every
/// pass; a frontend pass alone is about a thousand spans).
pub const KEPT_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct Span {
    pub op_id: u32,
    /// The module the time belongs to; the root span's layer is `"op"`.
    pub layer: &'static str,
    /// The function called; on a root span, the operation's kind.
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, within the operation, of the span that caused this one.
    pub parent: Option<u32>,
    /// Counts taken at the same boundary (rows, stages, morsels, …).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn json(&self) -> String {
        let mut counts = Obj::new();
        for (key, n) in &self.counts {
            counts = counts.int(key, *n);
        }
        let obj = Obj::new()
            .int("op_id", u64::from(self.op_id))
            .text("layer", self.layer)
            .text("name", &self.name)
            .int("start_ns", self.start_ns)
            .int("end_ns", self.end_ns);
        match self.parent {
            Some(p) => obj.int("parent", u64::from(p)),
            None => obj.raw("parent", "null"),
        }
        .raw("counts", &counts.finish())
        .finish()
    }
}

/// Samples of one operation kind, one entry per traced operation.
#[derive(Debug, Default)]
struct KindSamples {
    /// Root span durations: the traced operation's wall time.
    root: Vec<u64>,
    /// Part of the root interval covered by at least one child span.
    covered: Vec<u64>,
    /// Per layer, the summed durations of its spans within the operation.
    layers: BTreeMap<&'static str, Vec<u64>>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans of the operation in flight; index 0 is its root.
    current: Vec<Span>,
    next_op: u32,
    kinds: BTreeMap<String, KindSamples>,
    kept: Vec<Span>,
    /// Off during warm-up: spans are timed and dropped.
    pub recording: bool,
    pub keep_raw: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            current: Vec::new(),
            next_op: 0,
            kinds: BTreeMap::new(),
            kept: Vec::new(),
            recording: false,
            keep_raw: false,
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open the root span of a new operation of `kind`.
    pub fn begin_op(&mut self, kind: &str) {
        self.current.clear();
        let now = self.at(Instant::now());
        self.current.push(Span {
            op_id: self.next_op,
            layer: "op",
            name: Cow::Owned(kind.to_string()),
            start_ns: now,
            end_ns: now,
            parent: None,
            counts: Vec::new(),
        });
    }

    /// Run one whole operation through the session API, with no spans
    /// inside: the untraced twin `u.<kind>` that the traced operation of
    /// `kind` is held against, in this process and in the same pass.
    pub fn untraced_op<T>(&mut self, kind: &str, f: impl FnOnce() -> T) -> T {
        self.begin_op(kind);
        let out = std::hint::black_box(f());
        self.end_op();
        out
    }

    /// Time `f` as a child span of the operation in flight.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.push_span(layer, name, start, Instant::now());
        out
    }

    /// Record a child span that was timed elsewhere (on a worker thread).
    pub fn push_span(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            op_id: self.next_op,
            layer,
            name: Cow::Borrowed(name),
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent: Some(0),
            counts: Vec::new(),
        };
        self.current.push(span);
    }

    /// Attach a count to the span recorded last.
    pub fn count(&mut self, key: &'static str, n: u64) {
        if let Some(span) = self.current.last_mut() {
            span.counts.push((key, n));
        }
    }

    /// Close the operation: fold its spans into the kind's samples.
    pub fn end_op(&mut self) {
        let now = self.at(Instant::now());
        let root = &mut self.current[0];
        root.end_ns = now;
        let (kind, start, end) = (root.name.to_string(), root.start_ns, root.end_ns);
        self.next_op += 1;
        if !self.recording {
            return;
        }
        let samples = self.kinds.entry(kind).or_default();
        samples.root.push(end - start);
        samples
            .covered
            .push(covered(&self.current[1..], start, end));
        let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for span in &self.current[1..] {
            *per_layer.entry(span.layer).or_default() += span.nanos();
        }
        // A layer absent from this operation contributed no time to it.
        let seen = samples.root.len();
        for (layer, nanos) in per_layer {
            let column = samples.layers.entry(layer).or_default();
            column.resize(seen - 1, 0);
            column.push(nanos);
        }
        if self.keep_raw {
            self.kept.append(&mut self.current);
        }
    }

    /// Σ over the kinds starting with `prefix` of the median, over traced
    /// operations, of the time the operation spent in `layer` (ns).
    pub fn layer_nanos(&self, layer: &str, prefix: &str) -> u64 {
        self.kinds
            .iter()
            .filter(|(kind, _)| kind.starts_with(prefix))
            .filter_map(|(_, s)| {
                let mut column = s.layers.get(layer)?.clone();
                column.resize(s.root.len(), 0);
                Some(stats::median(&column))
            })
            .sum()
    }

    /// Σ over the kinds starting with `prefix` of the median root time (ns).
    pub fn root_nanos(&self, prefix: &str) -> u64 {
        self.kinds
            .iter()
            .filter(|(kind, _)| kind.starts_with(prefix))
            .map(|(_, s)| stats::median(&s.root))
            .sum()
    }

    /// Over the traced kinds that have an untraced twin `u.<kind>`:
    /// coverage — Σ median covered time ÷ Σ median untraced time — and
    /// overhead — Σ median traced time ÷ Σ median untraced time − 1.
    pub fn against_untraced(&self) -> (f64, f64) {
        let (mut covered, mut traced, mut untraced) = (0, 0, 0);
        for (kind, samples) in &self.kinds {
            if let Some(twin) = self.kinds.get(&format!("u.{kind}")) {
                covered += stats::median(&samples.covered);
                traced += stats::median(&samples.root);
                untraced += stats::median(&twin.root);
            }
        }
        let untraced = untraced.max(1) as f64;
        (covered as f64 / untraced, traced as f64 / untraced - 1.0)
    }

    /// `{"<kind>": {"root_p50_ms", "covered_p50_ms", "n"}, ..}`.
    pub fn kinds_json(&self) -> String {
        let mut obj = Obj::new();
        for (kind, s) in &self.kinds {
            let row = Obj::new()
                .num("root_p50_ms", stats::ms(stats::median(&s.root)))
                .num("covered_p50_ms", stats::ms(stats::median(&s.covered)))
                .int("n", s.root.len() as u64)
                .finish();
            obj = obj.raw(kind, &row);
        }
        obj.finish()
    }

    /// The raw spans of the kept passes, as a JSON array.
    pub fn spans_json(&self) -> String {
        array(self.kept.iter().map(Span::json))
    }
}

/// Length of the part of `[start, end]` covered by at least one span.
fn covered(spans: &[Span], start: u64, end: u64) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.clamp(start, end), s.end_ns.clamp(start, end)))
        .collect();
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (lo, hi) in intervals {
        if hi > reach {
            total += hi - lo.max(reach);
            reach = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            op_id: 0,
            layer: "x",
            name: Cow::Borrowed(""),
            start_ns,
            end_ns,
            parent: Some(0),
            counts: Vec::new(),
        }
    }

    #[test]
    fn overlapping_spans_cover_their_union() {
        let spans = [span(10, 20), span(15, 30), span(40, 50), span(0, 5)];
        assert_eq!(covered(&spans, 0, 100), 5 + 20 + 10);
        assert_eq!(covered(&spans, 12, 45), 18 + 5);
        assert_eq!(covered(&[], 0, 100), 0);
    }

    #[test]
    fn layers_missing_from_some_operations_count_as_zero() {
        let mut t = Tracer::new();
        t.recording = true;
        for with_b in [false, true, false] {
            t.begin_op("k");
            t.span("a", "a", || ());
            if with_b {
                t.span("b", "b", || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
            }
            t.end_op();
        }
        // `b` ran in one of three operations: its median is zero.
        assert_eq!(t.layer_nanos("b", "k"), 0);
        assert!(t.root_nanos("k") > 0);
    }
}

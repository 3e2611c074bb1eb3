//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (nothing inside the program is instrumented). Each
//! span carries the identifier of the operation that caused it — a
//! request sequence number in the serving mirror, 0 offline — and spans
//! of one thread never overlap, so a span's duration is its self time.
//! Spans stay in memory until the run ends and is summarised.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `fit.rf`.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Operation the span belongs to.
    pub op: u64,
}

/// Span and counter store of one thread of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (shared by every thread of
    /// one run, so merged spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// The clock origin, for tracers of other threads of the same run.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times `f` as a span of operation 0.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_op(name, 0, f)
    }

    /// Times `f` as a span of operation `op`.
    pub fn span_op<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            op,
        });
        out
    }

    /// Adds `by` to counter `name`.
    pub fn add(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// Moves another thread's spans and counters into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (k, v) in other.counts {
            self.add(k, v);
        }
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Seconds of `[from, to)` inside at least one span. Spans of
    /// different threads overlap, so this is the length of their union.
    pub fn covered(&self, from: f64, to: f64) -> f64 {
        let mut spans: Vec<(f64, f64)> = self
            .spans
            .iter()
            .map(|s| (s.start.max(from), s.end.min(to)))
            .filter(|(a, b)| a < b)
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut reach = from;
        for (a, b) in spans {
            if b > reach {
                total += b - a.max(reach);
                reach = b;
            }
        }
        total
    }

    /// Durations (seconds) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Value of counter `name` (0 if never added to).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Per-name span count, distinct operations, and total seconds, for
    /// the run's human-readable summary.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, std::collections::BTreeSet<u64>, f64)> =
            BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1.insert(s.op);
            e.2 += s.end - s.start;
        }
        out.into_iter()
            .map(|(k, (n, ops, secs))| (k, (n, ops.len(), secs)))
            .collect()
    }
}

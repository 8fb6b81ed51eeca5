//! In-memory spans recorded by the benchmark's own files around calls into
//! each layer. Nothing inside the crates under test is instrumented.
//!
//! A span is (name, start, end, parent, experiment id). A layer's *self
//! time* is its spans' duration minus the part their child spans cover.
//! Spans stay in memory and are written out once, when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" / "no experiment" marker.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NONE`].
    pub parent: u32,
    /// Experiment the span belongs to, or [`NONE`].
    pub exp: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span recorder. Worker threads each own one (sharing the
/// epoch) and hand it back when they are joined.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span named `name`, nested under whichever span is
    /// open on this tracer.
    pub fn span<R>(&mut self, name: &'static str, exp: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, exp });
        self.stack.push(id);
        let result = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        result
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Sum of the durations of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span name: duration minus what the children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(&child_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.spans += 1;
            layer.total_s += span.secs();
            layer.self_s += (span.end_ns - span.start_ns).saturating_sub(*covered) as f64 * 1e-9;
        }
        layers
    }

    fn spans_json(&self, tracer: usize) -> impl Iterator<Item = Json> + '_ {
        let opt = |v: u32| if v == NONE { Json::Null } else { Json::from(u64::from(v)) };
        self.spans.iter().map(move |s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("tracer", Json::from(tracer)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", opt(s.parent)),
                ("exp", opt(s.exp)),
            ])
        })
    }
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub spans: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// The span dump written to `out/trace.<workload>.json`. `parent` indexes
/// are relative to the spans of the same `tracer`.
pub fn dump(workload: &str, tracers: &[&Tracer]) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "spans",
            Json::Arr(tracers.iter().enumerate().flat_map(|(i, t)| t.spans_json(i)).collect()),
        ),
    ])
}

/// Merges per-thread self-time tables.
pub fn merge_self_times(tracers: &[&Tracer]) -> BTreeMap<&'static str, LayerTime> {
    let mut merged: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for tracer in tracers {
        for (name, layer) in tracer.self_times() {
            let m = merged.entry(name).or_default();
            m.spans += layer.spans;
            m.total_s += layer.total_s;
            m.self_s += layer.self_s;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", NONE, |t| {
            t.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("inner", 8, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let layers = t.self_times();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert_eq!((outer.spans, inner.spans), (1, 2));
        assert!(inner.self_s >= 0.010 && inner.self_s == inner.total_s);
        assert!((outer.self_s + inner.self_s - outer.total_s).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].exp, 8);
    }
}

//! The traced run's span recorder.
//!
//! Spans are taken from outside the library, around each call into a
//! layer: name, start, end, parent span and request id. They stay in
//! memory until the run ends, when they are summarised into a per-layer
//! self-time table (a span's self time is its duration minus its direct
//! children's) and written out as JSON.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `ir.parse`.
    pub name: Cow<'static, str>,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or cell, or run) the span belongs to.
    pub request: u64,
}

impl Span {
    fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name totals of the self-time table.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time.
    pub self_time: Duration,
}

/// How much of a set of pipeline spans their children account for.
#[derive(Debug, Clone, Copy)]
pub struct Closure {
    /// Pipeline spans inspected.
    pub spans: usize,
    /// Their summed duration.
    pub total: Duration,
    /// Summed time no child span covers.
    pub unattributed: Duration,
    /// The smallest covered share of any single pipeline span.
    pub min_coverage: f64,
}

impl Closure {
    /// The share of the pipeline spans' time their children cover.
    pub fn coverage(&self) -> f64 {
        if self.total.is_zero() {
            return 1.0;
        }
        1.0 - self.unattributed.as_secs_f64() / self.total.as_secs_f64()
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    enabled: bool,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            enabled: true,
        }
    }

    /// A recorder that records nothing: the same code path with tracing
    /// off, so traced and untraced runs differ only by the recording.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// The current offset from the origin.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Records a finished span that a layer timed itself (the engine's
    /// phase split), `offset` after the start of the innermost open span.
    pub fn record(&mut self, name: &'static str, offset: Duration, len: Duration) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let start = parent.map_or(offset, |p| self.spans[p].start + offset);
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start,
            end: start + len,
            parent,
            request: self.request,
        });
    }

    /// Records a top-level span from explicit instants — a client
    /// request, which overlaps its neighbours in a windowed loop.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: None,
            request,
        });
    }

    fn child_time(&self) -> Vec<Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.len();
            }
        }
        children
    }

    /// Self time per span name.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let children = self.child_time();
        let mut table: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(children) {
            let entry = table.entry(span.name.to_string()).or_default();
            entry.calls += 1;
            entry.self_time += span.len().saturating_sub(child);
        }
        table
    }

    /// The closure check over every span named `name`: how much of them
    /// their direct children cover.
    pub fn closure(&self, name: &str) -> Closure {
        let children = self.child_time();
        let mut closure = Closure {
            spans: 0,
            total: Duration::ZERO,
            unattributed: Duration::ZERO,
            min_coverage: 1.0,
        };
        for (span, child) in self.spans.iter().zip(children) {
            if span.name != name || span.len().is_zero() {
                continue;
            }
            closure.spans += 1;
            closure.total += span.len();
            closure.unattributed += span.len().saturating_sub(child);
            let covered = child.as_secs_f64() / span.len().as_secs_f64();
            closure.min_coverage = closure.min_coverage.min(covered);
        }
        closure
    }

    /// The self-time table as aligned text, largest layer first.
    pub fn table(&self) -> String {
        let layers = self.layers();
        let total: Duration = layers.values().map(|l| l.self_time).sum();
        let mut rows: Vec<(&String, &LayerTime)> = layers.iter().collect();
        rows.sort_by(|a, b| b.1.self_time.cmp(&a.1.self_time).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<34} {:>8} {:>12} {:>7}\n",
            "layer", "calls", "self ms", "share"
        );
        for (name, layer) in rows {
            let ms = layer.self_time.as_secs_f64() * 1e3;
            let share = 100.0 * layer.self_time.as_secs_f64() / total.as_secs_f64().max(1e-12);
            let _ = writeln!(
                out,
                "{name:<34} {:>8} {ms:>12.3} {share:>6.1}%",
                layer.calls
            );
        }
        out
    }

    /// Every span plus the self-time table, as one JSON document.
    pub fn to_json(&self) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut out = String::from("{\"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"request\": {}}}",
                if i == 0 { "  " } else { ",\n  " },
                span.name,
                us(span.start),
                us(span.end),
                span.request
            );
        }
        out.push_str("\n], \"layers\": [\n");
        for (i, (name, layer)) in self.layers().iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{name}\", \"calls\": {}, \"self_us\": {:.3}}}",
                if i == 0 { "  " } else { ",\n  " },
                layer.calls,
                us(layer.self_time)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_closure_sums_gaps() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("child", |t| {
                t.record("leaf", Duration::ZERO, Duration::from_micros(5))
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let layers = t.layers();
        assert_eq!(layers["leaf"].self_time, Duration::from_micros(5));
        assert!(layers["root"].self_time >= Duration::from_millis(2));
        let closure = t.closure("root");
        assert_eq!(closure.spans, 1);
        assert!(closure.min_coverage < 0.5, "the sleep is not covered");
        assert!(t.to_json().contains("\"name\": \"leaf\""));
    }
}

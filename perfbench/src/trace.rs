//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and an end (milliseconds since the tracer was
//! created), the span that was open when it began, and the id of the
//! operation it belongs to. Spans wrap the benchmark's own calls into the
//! engine's public API; the layer of a span is its name up to the first
//! `.` (`eval.evaluate` belongs to `eval`). Spans are kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Open a span. Spans opened until the matching [`Tracer::end`] become
    /// its children. A root span (none open) starts a new operation id.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(idx) = id {
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(idx), "spans close in LIFO order");
            self.spans[idx].end = self.now();
        }
    }

    /// Record `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total self time per layer (ms): each span's duration minus the part
    /// its children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ms) {
            *out.entry(s.layer()).or_insert(0.0) += s.ms() - children;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_ms\":{},\"end_ms\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start, s.end, parent, s.op
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.op");
        t.span("eval.run", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["eval"] >= 5.0);
        assert!(by_layer["bench"] < by_layer["eval"]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, t.spans[1].op);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("eval.run", || 7), 7);
        assert!(t.spans.is_empty());
    }
}

//! In-memory span recorder for the traced run. Spans are taken from the
//! benchmark's side of each call into a layer (`layers.rs`); nothing inside
//! the program is instrumented by this file.

use serde_json::Value;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Position of the operation in the workload's stream.
    pub query_id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Keeps every span in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Time `f` as a span and return its result with the span's index.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.push(name, parent, query_id, start, end);
        (out, id)
    }

    /// Record a span whose interval was measured elsewhere (another thread,
    /// or a duration the program reported about itself).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query_id: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns, parent, query_id });
        (self.spans.len() - 1) as u32
    }

    /// Total nanoseconds of every span called `name`, and how many there are.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans.iter().filter(|s| s.name == name).fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Self time of the spans called `name`: their duration minus the
    /// duration of their direct children.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut own: u64 = 0;
        let mut children: u64 = 0;
        for s in &self.spans {
            if s.name == name {
                own += s.ns();
            }
            if let Some(p) = s.parent {
                if self.spans[p as usize].name == name {
                    children += s.ns();
                }
            }
        }
        own.saturating_sub(children)
    }

    /// The first `limit` spans as JSON (`{name,start_ns,end_ns,parent,query_id}`).
    pub fn to_json(&self, limit: usize) -> Value {
        let spans = self
            .spans
            .iter()
            .take(limit)
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p.into()))),
                    ("query_id".into(), Value::UInt(s.query_id)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("spans_total".into(), Value::UInt(self.spans.len() as u64)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let ((), parent) = t.record("core.query", None, 0, || {});
        t.spans[parent as usize].end_ns = t.spans[parent as usize].start_ns + 100;
        for name in ["method.filter", "iso.verify"] {
            let ((), c) = t.record(name, Some(parent), 0, || {});
            t.spans[c as usize].end_ns = t.spans[c as usize].start_ns + 30;
        }
        assert_eq!(t.total("core.query"), (100, 1));
        assert_eq!(t.self_ns("core.query"), 40);
        assert_eq!(t.self_ns("iso.verify"), 30);
    }
}

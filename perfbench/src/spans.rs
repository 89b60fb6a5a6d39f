//! In-memory spans of the traced run and their Chrome `trace_event` export.
//!
//! The obs crate's exporter renders the simulators' typed `TraceEvent`
//! streams; host-time spans have no variant there, so this module writes
//! complete (`"ph":"X"`) events with the obs crate's JSON helpers and
//! checks the document with its parser before writing it.

use duplexity_obs::parse_trace_events;
use duplexity_obs::registry::{escape, json_f64};
use std::time::Instant;

/// One span: name, start and end in seconds since the recorder's epoch,
/// and the index of the span that encloses it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open span and returns its index.
    pub fn begin(&mut self, name: &str) -> usize {
        let t = self.now();
        self.begin_at(name, t)
    }

    pub fn begin_at(&mut self, name: &str, start: f64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let t = self.now();
        self.end_at(id, t);
    }

    pub fn end_at(&mut self, id: usize, end: f64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    /// Records an already finished span under the innermost open span.
    pub fn record(&mut self, name: &str, start: f64, end: f64) {
        let id = self.begin_at(name, start);
        self.end_at(id, end);
    }

    /// Duration minus the part of it the span's children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let own = self.spans[id].end - self.spans[id].start;
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        own - children
    }

    /// Total self time of every span whose name starts with `prefix`.
    pub fn self_time_of(&self, prefix: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name.starts_with(prefix))
            .map(|i| self.self_time(i))
            .sum()
    }

    /// The Chrome trace document: one row per nesting depth, each span
    /// carrying its parent's name, plus a metadata entry holding the
    /// per-layer self times in `layers` (name, seconds).
    pub fn chrome_json(&self, title: &str, layers: &[(String, f64)]) -> String {
        let us = |s: f64| json_f64((s * 1e6).max(0.0));
        let mut entries = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape(title)
        )];
        for s in &self.spans {
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(i) = p {
                depth += 1;
                p = self.spans[i].parent;
            }
            let parent = s.parent.map_or("", |i| self.spans[i].name.as_str());
            entries.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{depth},\"ts\":{},\"dur\":{},\"args\":{{\"parent\":\"{}\"}}}}",
                escape(&s.name),
                us(s.start),
                us(s.end - s.start),
                escape(parent),
            ));
        }
        let table: Vec<String> = layers
            .iter()
            .map(|(name, secs)| format!("\"{}\":{}", escape(name), json_f64(*secs)))
            .collect();
        entries.push(format!(
            "{{\"name\":\"layer_self_s\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{{}}}}}",
            table.join(",")
        ));
        let doc = format!("{{\"traceEvents\":[\n{}\n]}}\n", entries.join(",\n"));
        parse_trace_events(&doc).expect("span export is a valid trace document");
        doc
    }
}

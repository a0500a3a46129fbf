//! In-memory spans of a traced run, written once as a Chrome trace.
//!
//! Spans are kept at one grain per workload (a `P_F` round, a fleet
//! tenant, a search level), each with its parent's id and the layer self
//! times that fall inside it, and rendered in the trace-event JSON that
//! Perfetto and `chrome://tracing` load.

use std::path::PathBuf;
use std::time::Instant;

use pcb_json::Json;

#[derive(Debug)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    dur_ns: u64,
    layers: Vec<(&'static str, f64)>,
}

/// The spans of one traced run, timed from a common origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span from `start` to `end` under `parent` (0 for a root)
    /// with the seconds each layer spent inside it; returns its id.
    pub fn push(
        &mut self,
        parent: u64,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        layers: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: ns(start),
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            layers,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans to `perfbench/out/<workload>.trace.json` and
    /// returns the path.
    pub fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let us = |ns: u64| Json::from(ns as f64 / 1_000.0);
        let events = self.spans.iter().map(|s| {
            let mut args = vec![("id", Json::from(s.id)), ("parent", Json::from(s.parent))];
            args.extend(
                s.layers
                    .iter()
                    .map(|&(layer, secs)| (layer, Json::from(secs))),
            );
            Json::object([
                ("ph", Json::from("X")),
                ("name", Json::from(s.name.as_str())),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(1u64)),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns)),
                ("args", Json::object(args)),
            ])
        });
        let doc = Json::object([
            ("traceEvents", Json::array(events)),
            ("displayTimeUnit", Json::from("ms")),
        ]);
        let dir = PathBuf::from("perfbench/out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, doc.to_string())?;
        Ok(path)
    }
}

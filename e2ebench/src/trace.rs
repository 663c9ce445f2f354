//! In-memory span and count recorder for the traced run.
//!
//! Spans sit around each call the benchmark makes into a layer's public
//! functions: name, start, end, the enclosing span (the round, opened with
//! [`Tracer::begin`]), and the repetition (round) they belong to. Counts
//! are recorded at the same boundaries. Nothing is written until
//! [`Tracer::write_json`] at the end of the run. A disabled tracer records
//! nothing, so untraced runs pay one branch per boundary.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    rep: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: Vec<(&'static str, usize, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the repetition id stamped on the spans that follow.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.stack.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((name, self.rep, value));
        }
    }

    /// Median duration in seconds of the closed spans called `name`.
    pub fn median_s(&self, name: &str) -> Option<f64> {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        crate::median(&mut d)
    }

    /// Median of the counts recorded under `name`.
    pub fn median_count(&self, name: &str) -> Option<f64> {
        let mut v: Vec<f64> = self
            .counts
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect();
        crate::median(&mut v)
    }

    /// Every span and count as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"id\":{id},\"name\":\"{}\",\"rep\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.rep,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\"counts\":[\n");
        for (i, (name, rep, value)) in self.counts.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{name}\",\"rep\":{rep},\"value\":{value}}}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

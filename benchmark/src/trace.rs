//! Benchmark-owned spans: name, start, end, parent, and one trace id per
//! repetition. They are recorded around the benchmark's own calls into each
//! layer, kept in memory, and written out when the repetition ends. Spans
//! inside the program are a later change.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Json};

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many operations the span stands for: 1 for a call, the number of
    /// steps for a step-bucket aggregate.
    pub count: u64,
}

pub struct Tracer {
    origin: Instant,
    trace_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(trace_id: u64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            trace_id,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.add(name, parent, now, now, 1)
    }

    /// End a span now and return how long it lasted, in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Time one call as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    pub fn add(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            count,
        });
        self.spans.len() - 1
    }

    /// One JSON object per line.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("trace", Json::Num(self.trace_id as f64)),
                ("span", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("count", Json::Num(s.count as f64)),
            ]);
            let _ = writeln!(out, "{}", line.render());
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.render_jsonl().as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_one_object_per_line() {
        let mut t = Tracer::new(7);
        let run = t.add("run", None, 0, 100, 1);
        let setup = t.add("setup", Some(run), 0, 30, 1);
        t.add("topology", Some(setup), 0, 10, 1);
        t.add("loop", Some(run), 30, 90, 1);
        let text = t.render_jsonl();
        assert_eq!(text.lines().count(), 4);
        let first = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("trace").unwrap().as_f64(), Some(7.0));
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }
}

//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is `{name, start, end, parent}`; the parent is whichever span
//! was open when it began. Spans stay in memory during the run and are
//! written out once at the end, each with its self time (its duration
//! minus the part its children cover).

use crate::Workload;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub(crate) fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length.
    pub(crate) fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span named `name`; returns its result and length.
    pub(crate) fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Writes every span, with its self time, as one JSON document.
    pub(crate) fn write(&self, path: &Path, workload: &str) -> Result<(), String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                total.saturating_sub(child_ns[i])
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

/// Writes a traced run's spans to `target/bcast_bench/trace-<workload>.json`.
pub(crate) fn save(tracer: &Option<Tracer>, w: Workload) -> Result<(), String> {
    match tracer {
        Some(t) => t.write(
            &Path::new("target/bcast_bench").join(format!("trace-{}.json", w.name())),
            w.name(),
        ),
        None => Ok(()),
    }
}

/// Runs `f` and returns its result and wall nanoseconds, recording a span
/// when a tracer is present — the same call path traced and untraced.
pub(crate) fn timed<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match tracer {
        Some(t) => t.time(name, f),
        None => clock(f),
    }
}

/// Runs `f` and returns its result and wall nanoseconds, with no span.
pub(crate) fn clock<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Opens a span when tracing (see [`close`]).
pub(crate) fn open(tracer: &mut Option<Tracer>, name: &'static str) -> Option<usize> {
    tracer.as_mut().map(|t| t.begin(name))
}

/// Closes a span opened by [`open`].
pub(crate) fn close(tracer: &mut Option<Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.end(id);
    }
}

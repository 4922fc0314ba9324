//! Spans around every call the benchmark makes into the program's layers.
//!
//! The benchmark always times those calls (the end-to-end metrics need the
//! durations); a traced run also keeps each call as a [`SpanRecord`] in
//! memory and writes them all out when the run ends. Spans of one
//! operation (an audited quantum, a fleet tick) share the operation's id
//! and point at the operation's own span as their parent.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Operation this span belongs to.
    pub op: u64,
    /// Index of the causing span in the record list (`None` for an
    /// operation's own span).
    pub parent: Option<usize>,
    /// Boundary name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Times boundary calls and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    /// Whether the current operation is recorded (a traced run alternates
    /// recorded and unrecorded operations to measure its own overhead).
    recording: bool,
    spans: Vec<SpanRecord>,
    open_op: Option<(u64, usize)>,
}

impl Tracer {
    /// A tracer; `enabled` is the `--trace` flag.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            recording: false,
            spans: Vec::new(),
            open_op: None,
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the operation in progress is being recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens operation `op`; `record` chooses whether its spans are kept
    /// (ignored on an untraced run).
    pub fn begin_op(&mut self, op: u64, name: &'static str, record: bool) {
        self.recording = self.enabled && record;
        if self.recording {
            let start_ns = self.now_ns();
            self.spans.push(SpanRecord {
                op,
                parent: None,
                name,
                start_ns,
                end_ns: start_ns,
            });
            self.open_op = Some((op, self.spans.len() - 1));
        }
    }

    /// Closes the operation opened by [`Tracer::begin_op`].
    pub fn end_op(&mut self) {
        if let Some((_, index)) = self.open_op.take() {
            self.spans[index].end_ns = self.now_ns();
        }
        self.recording = false;
    }

    /// Runs `f` as boundary call `name`, returning its result and its
    /// duration in seconds; records a span when the current operation is
    /// recorded.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        if self.recording {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            let end_ns = end.duration_since(self.origin).as_nanos() as u64;
            let (op, parent) = match self.open_op {
                Some((op, index)) => (op, Some(index)),
                None => (u64::MAX, None),
            };
            self.spans.push(SpanRecord {
                op,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
        (result, end.duration_since(start).as_secs_f64())
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Durations (seconds) of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::seconds)
            .collect()
    }

    /// Writes every span as a tab-separated line
    /// `op parent name start_ns end_ns` (parent `-` for none).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_runs_time_but_keep_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op(0, "op", true);
        let (v, secs) = t.time("sim.run_until", || 41 + 1);
        t.end_op();
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_their_operation() {
        let mut t = Tracer::new(true);
        t.begin_op(7, "op", true);
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b", || ());
        t.end_op();
        t.begin_op(8, "op", false);
        t.time("a", || ());
        t.end_op();
        let spans = t.spans();
        assert_eq!(spans.len(), 3, "the unrecorded operation leaves no spans");
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.op == 7 && s.parent == Some(0)));
        assert_eq!(t.durations("a").len(), 1);
        assert!(t.durations("a")[0] >= 0.002);
        let children: f64 = spans[1..].iter().map(SpanRecord::seconds).sum();
        assert!(t.durations("op")[0] >= children);
    }
}

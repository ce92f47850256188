//! Op timing and span recording around the calls the benchmark makes into
//! the program's public functions.
//!
//! Untraced, the clock only sums the time of each op's timed calls. Traced,
//! it also keeps one span per call (name, start, end, parent, op id) in
//! memory; they are written out as JSONL when the run ends. Spans are
//! recorded only from the benchmark's own code, so a layer's self time is
//! the time of the calls the benchmark makes into it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Which part of a run a span or counter belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Building what the timed ops need.
    Setup,
    /// The timed window.
    Window,
    /// The cross-layer probe of a traced run.
    Probe,
    /// The committed golden stream.
    Golden,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Window => "window",
            Phase::Probe => "probe",
            Phase::Golden => "golden",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Seconds since the run's origin.
    pub start: f64,
    /// Seconds since the run's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to (setup repetitions count as ops).
    pub op: u64,
    /// Part of the run.
    pub phase: Phase,
}

impl Span {
    /// The layer this span's call went into.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Timer, span store and counter tally of one run.
pub struct Clock {
    origin: Instant,
    /// Record spans (the traced run); timing happens either way.
    pub tracing: bool,
    /// Part of the run being recorded.
    pub phase: Phase,
    spans: Vec<Span>,
    root: Option<usize>,
    op: u64,
    op_start: f64,
    op_timed: f64,
    counters: BTreeMap<(Phase, &'static str), (f64, u64)>,
}

impl Clock {
    /// A clock whose times are seconds since `origin`.
    pub fn new(origin: Instant) -> Self {
        Clock {
            origin,
            tracing: false,
            phase: Phase::Setup,
            spans: Vec::new(),
            root: None,
            op: 0,
            op_start: 0.0,
            op_timed: 0.0,
            counters: BTreeMap::new(),
        }
    }

    /// Seconds since the run's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open op `op` (a root span named `name` when tracing).
    pub fn begin_op(&mut self, name: &'static str, op: u64) {
        self.op = op;
        self.op_timed = 0.0;
        self.op_start = self.now();
        self.root = self.tracing.then(|| {
            self.spans.push(Span {
                name,
                start: self.op_start,
                end: self.op_start,
                parent: None,
                op,
                phase: self.phase,
            });
            self.spans.len() - 1
        });
    }

    /// Close the current op; returns `(start, end, timed seconds)`: when
    /// it began and ended, and the summed time of its timed calls.
    pub fn end_op(&mut self) -> (f64, f64, f64) {
        let end = self.now();
        if let Some(i) = self.root.take() {
            self.spans[i].end = end;
        }
        (self.op_start, end, self.op_timed)
    }

    /// Time a call into the program that is part of the op's latency.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, secs) = self.span(name, f);
        self.op_timed += secs;
        r
    }

    /// Time a call made beside the op (a standalone layer measurement or
    /// a check); it is not part of the op's latency.
    pub fn time_aside<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, f).0
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if self.tracing {
            let start = (t0 - self.origin).as_secs_f64();
            let end = (t1 - self.origin).as_secs_f64();
            self.spans.push(Span {
                name,
                start,
                end,
                parent: self.root,
                op: self.op,
                phase: self.phase,
            });
        }
        (r, (t1 - t0).as_secs_f64())
    }

    /// Rename the span the last timed call recorded (for a call whose
    /// kind is known only from its result).
    pub fn relabel_last(&mut self, name: &'static str) {
        if self.tracing {
            if let Some(s) = self.spans.last_mut() {
                s.name = name;
            }
        }
    }

    /// Add `value` to counter `name` (summed, with the number of adds).
    pub fn tally(&mut self, name: &'static str, value: f64) {
        let c = self.counters.entry((self.phase, name)).or_insert((0.0, 0));
        c.0 += value;
        c.1 += 1;
    }

    /// `(sum, adds)` of a counter in `phase`.
    pub fn counter(&self, phase: Phase, name: &'static str) -> Option<(f64, u64)> {
        self.counters.get(&(phase, name)).copied()
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"op\":{},\"phase\":\"{}\"}}",
                s.name,
                s.start,
                s.end,
                s.op,
                s.phase.name()
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it its child
/// spans cover. Children of one parent never overlap (calls are serial).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own.iter().map(|t| t.max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            op: 0,
            phase: Phase::Window,
        };
        let spans = vec![
            mk("bench.op", 0.0, 10.0, None),
            mk("net.a", 1.0, 4.0, Some(0)),
            mk("core.b", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 3.0, 4.0]);
        assert_eq!(spans[1].layer(), "net");
    }
}

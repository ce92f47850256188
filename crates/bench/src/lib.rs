//! # astral-bench — the figure/table regeneration harness
//!
//! Every figure and table of the paper's evaluation is a function in
//! [`FIGURES`]. Each drives a [`Scenario`]: it prints the human-readable
//! tables and `paper vs measured` footer and returns a machine-readable
//! [`Report`] — claim, measured series, scalar metrics, wall-clock, and
//! the rate-solver work counters — so CI can diff reproduction quality
//! run over run. The `astral-bench` binary runs one figure, several, or
//! all of them, writing `BENCH_<id>.json` for each:
//!
//! ```sh
//! cargo run --release -p astral-bench                  # every figure
//! cargo run --release -p astral-bench -- fig02 fig10_goodput
//! cargo run --release -p astral-bench -- validate bench-reports
//! cargo run --release -p astral-bench -- compare bench-reports bench-baselines
//! ```
//!
//! Reports land in `$ASTRAL_BENCH_DIR` (default: the working directory).
//! Scenarios that record `astral-trace` timelines additionally dump them
//! as JSON-lines under `$ASTRAL_TRACE_DIR` when it is set (see
//! [`dump_trace_artifact`]) — CI uploads those on failure so a diverging
//! run can be diagnosed record by record. `validate` checks every report
//! for the required schema and a known id ([`validate`]); `compare` gates
//! metric regressions against committed baselines ([`compare_reports`]),
//! the same check `tests/figures.rs` applies in-process to every fast
//! figure under debug assertions. `perf_frontier` records the
//! pod-grouped-vs-joint frontier speedup at 8K–512K GPUs and
//! `perf_seer_qps` the what-if service's query throughput, cache hit rate
//! and warm-over-cold speedup; with `appc`'s trace-overhead budget they
//! are the three figures carrying wall-clock gates. Sweeping figures fan
//! out on the `ASTRAL_THREADS`-sized pool and emit byte-identical reports
//! at any width. The end-to-end and per-layer performance benchmark is
//! the separate `perfbench` package at the repository root.

use astral_net::SolverCounters;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

mod check;
mod figures {
    pub(crate) mod ablation_hash_salt;
    pub(crate) mod ablation_rail_design;
    pub(crate) mod appa;
    pub(crate) mod appc;
    pub(crate) mod cascade_ablation;
    pub(crate) mod fig02;
    pub(crate) mod fig03;
    pub(crate) mod fig04;
    pub(crate) mod fig05;
    pub(crate) mod fig06;
    pub(crate) mod fig07;
    pub(crate) mod fig09;
    pub(crate) mod fig10_goodput;
    pub(crate) mod fig10_mttlf;
    pub(crate) mod fig12;
    pub(crate) mod fig13;
    pub(crate) mod fig14;
    pub(crate) mod fig15;
    pub(crate) mod fig16;
    pub(crate) mod fig17;
    pub(crate) mod fig18;
    pub(crate) mod fig19;
    pub(crate) mod fig_gray_failure;
    pub(crate) mod fig_trace_correlation;
    pub(crate) mod fleet_campaign;
    pub(crate) mod perf_frontier;
    pub(crate) mod perf_seer_qps;
    pub(crate) mod table1;
}

pub use check::{compare_reports, validate};
pub use figures::fig_gray_failure::gray_aware_trace;

/// One figure or table of the evaluation: its report id, the function
/// that reproduces it, and whether the in-process test runs it.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Report id: names `BENCH_<id>.json` and is what `astral-bench <id>`
    /// runs.
    pub id: &'static str,
    /// Runs the scenario, printing its tables and footer, and returns the
    /// report without writing it.
    pub run: fn() -> Report,
    /// False for the figures with wall-clock gates, which want a release
    /// build on a quiet machine; the in-process test runs every other one.
    pub fast: bool,
}

const fn fast(id: &'static str, run: fn() -> Report) -> Figure {
    Figure {
        id,
        run,
        fast: true,
    }
}

const fn timed(id: &'static str, run: fn() -> Report) -> Figure {
    Figure {
        id,
        run,
        fast: false,
    }
}

/// Every figure the harness reproduces, in the order `astral-bench` runs
/// them. `appc` is last: its <2% trace-recording gate wants a machine no
/// longer paying first-run page-cache costs.
pub const FIGURES: [Figure; 28] = {
    use figures::*;
    [
        fast("fig02", fig02::run),
        fast("fig03", fig03::run),
        fast("fig04", fig04::run),
        fast("fig05", fig05::run),
        fast("fig06", fig06::run),
        fast("fig07", fig07::run),
        fast("fig09", fig09::run),
        fast("fig10_goodput", fig10_goodput::run),
        fast("fig10_mttlf", fig10_mttlf::run),
        fast("fig12", fig12::run),
        fast("fig13", fig13::run),
        fast("fig14", fig14::run),
        fast("fig15", fig15::run),
        fast("fig16", fig16::run),
        fast("fig17", fig17::run),
        fast("fig18", fig18::run),
        fast("fig19", fig19::run),
        fast("cascade_ablation", cascade_ablation::run),
        fast("fig_gray_failure", fig_gray_failure::run),
        fast("fig_trace_correlation", fig_trace_correlation::run),
        fast("fleet_campaign", fleet_campaign::run),
        fast("ablation_hash_salt", ablation_hash_salt::run),
        fast("ablation_rail_design", ablation_rail_design::run),
        fast("appa", appa::run),
        fast("table1", table1::run),
        timed("perf_frontier", perf_frontier::run),
        timed("perf_seer_qps", perf_seer_qps::run),
        timed("appc", appc::run),
    ]
};

/// Dump a recorded trace as JSON-lines under
/// `$ASTRAL_TRACE_DIR/<name>.trace.jsonl`, for CI to upload as a
/// divergence artifact. A no-op returning `None` when `ASTRAL_TRACE_DIR`
/// is unset (local runs stay clean); IO errors warn and return `None`
/// rather than failing the scenario.
pub fn dump_trace_artifact(name: &str, records: &[astral_trace::TraceRecord]) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("ASTRAL_TRACE_DIR")?);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.trace.jsonl"));
    match std::fs::write(&path, astral_trace::to_jsonl(records)) {
        Ok(()) => {
            println!(
                "trace artifact: {} ({} records)",
                path.display(),
                records.len()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// The machine-readable outcome of one bench scenario — everything the
/// text output reports, as data.
#[derive(Debug, Clone)]
pub struct Report {
    /// Short stable id (`fig02`, `table1`, `ablation_hash_salt`, …); names
    /// the output file `BENCH_<id>.json`.
    pub id: String,
    /// Human title as printed in the banner.
    pub title: String,
    /// The paper claim being reproduced.
    pub claim: String,
    /// Wall-clock of the whole scenario, seconds.
    pub wall_clock_secs: f64,
    /// Named measured series (sweep axes, per-point values).
    pub series: Vec<(String, Value)>,
    /// Named scalar results.
    pub metrics: Vec<(String, Value)>,
    /// The footer rows: claim vs what this run measured.
    pub paper_vs_measured: Vec<(String, String)>,
    /// Aggregate rate-solver work across every simulation the scenario ran.
    pub solver: SolverCounters,
}

impl Report {
    /// Field names every report must carry.
    pub const REQUIRED_FIELDS: [&'static str; 8] = [
        "id",
        "title",
        "claim",
        "wall_clock_secs",
        "series",
        "metrics",
        "paper_vs_measured",
        "solver",
    ];

    /// The report as a JSON value (string-keyed maps throughout).
    fn to_value(&self) -> Value {
        fn obj(pairs: Vec<(String, Value)>) -> Value {
            Value::Map(pairs.into_iter().map(|(k, v)| (Value::Str(k), v)).collect())
        }
        obj(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("title".into(), Value::Str(self.title.clone())),
            ("claim".into(), Value::Str(self.claim.clone())),
            ("wall_clock_secs".into(), Value::F64(self.wall_clock_secs)),
            ("series".into(), obj(self.series.clone())),
            ("metrics".into(), obj(self.metrics.clone())),
            (
                "paper_vs_measured".into(),
                obj(self
                    .paper_vs_measured
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect()),
            ),
            ("solver".into(), self.solver.to_value()),
        ])
    }

    /// Pretty-printed JSON.
    pub fn json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report serializes")
    }

    /// Destination path: `$ASTRAL_BENCH_DIR/BENCH_<id>.json` (dir defaults
    /// to the working directory).
    pub fn path(&self) -> PathBuf {
        let dir = std::env::var_os("ASTRAL_BENCH_DIR").unwrap_or_else(|| ".".into());
        PathBuf::from(dir).join(format!("BENCH_{}.json", self.id))
    }

    /// Write the report to [`Report::path`].
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        std::fs::write(&path, self.json() + "\n")?;
        Ok(path)
    }
}

/// One figure/table reproduction in flight: prints the banner on creation,
/// accumulates measured data, and on [`finish`](Scenario::finish) prints
/// the classic footer and returns the [`Report`].
pub struct Scenario {
    report: Report,
    started: Instant,
}

impl Scenario {
    /// Start a scenario: prints the banner (title + paper claim).
    pub fn new(id: &str, title: &str, claim: &str) -> Self {
        println!("================================================================");
        println!("{title}");
        println!("paper claim: {claim}");
        println!("================================================================\n");
        Scenario {
            report: Report {
                id: id.to_string(),
                title: title.to_string(),
                claim: claim.to_string(),
                wall_clock_secs: 0.0,
                series: Vec::new(),
                metrics: Vec::new(),
                paper_vs_measured: Vec::new(),
                solver: SolverCounters::default(),
            },
            started: Instant::now(),
        }
    }

    /// Record a named measured series (any serializable shape: a vector of
    /// points, `(x, y)` tuples, nested rows…).
    pub fn series<T: Serialize + ?Sized>(&mut self, name: &str, values: &T) {
        self.report
            .series
            .push((name.to_string(), values.to_value()));
    }

    /// Record a named scalar result.
    pub fn metric<T: Serialize>(&mut self, name: &str, value: T) {
        self.report
            .metrics
            .push((name.to_string(), value.to_value()));
    }

    /// Fold in rate-solver counters from a simulation this scenario ran
    /// (accumulates across calls — sweeps merge every run's work).
    pub fn solver(&mut self, counters: &SolverCounters) {
        self.report.solver.merge(counters);
    }

    /// Run an independent-simulation sweep over `points` on the
    /// `ASTRAL_THREADS`-sized pool. Each point returns its result plus the
    /// solver counters of the simulations it ran; results come back in
    /// point order and counters are folded into the report in that same
    /// order, so the emitted `BENCH_<id>.json` is byte-identical to a
    /// serial loop at any thread count.
    pub fn sweep<T, R, F>(&mut self, points: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> (R, SolverCounters) + Sync,
    {
        self.sweep_with(&astral_exec::Pool::from_env(), points, f)
    }

    /// [`Scenario::sweep`] on an explicit pool.
    pub fn sweep_with<T, R, F>(&mut self, pool: &astral_exec::Pool, points: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> (R, SolverCounters) + Sync,
    {
        pool.map(points, f)
            .into_iter()
            .map(|(r, counters)| {
                self.report.solver.merge(&counters);
                r
            })
            .collect()
    }

    /// The report accumulated so far (wall clock not yet stamped) — for
    /// tests and callers that inspect series/metrics before `finish`.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Print the paper-vs-measured footer, stamp the wall clock, and
    /// return the report. Writing it is the caller's job (see
    /// [`Report::write`]).
    pub fn finish(mut self, rows: &[(&str, String)]) -> Report {
        println!("\n--- paper vs reproduction ---");
        for (k, v) in rows {
            println!("  {k}: {v}");
            self.report
                .paper_vs_measured
                .push((k.to_string(), v.clone()));
        }
        self.report.wall_clock_secs = self.started.elapsed().as_secs_f64();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_has_required_fields() {
        let r = Report {
            id: "test".into(),
            title: "t".into(),
            claim: "c".into(),
            wall_clock_secs: 1.5,
            series: vec![("xs".into(), vec![1.0f64, 2.0].to_value())],
            metrics: vec![("m".into(), 3.0f64.to_value())],
            paper_vs_measured: vec![("k".into(), "v".into())],
            solver: SolverCounters::default(),
        };
        let v = r.to_value();
        let Value::Map(pairs) = &v else {
            panic!("report must be an object")
        };
        for field in Report::REQUIRED_FIELDS {
            assert!(
                pairs.iter().any(|(k, _)| k.as_str() == Some(field)),
                "missing field {field}"
            );
        }
        let json = r.json();
        assert!(json.contains("\"wall_clock_secs\""));
        assert!(json.contains("\"incremental_solves\""));
    }

    #[test]
    fn report_round_trips_through_serde_json() {
        let r = Report {
            id: "rt".into(),
            title: "t".into(),
            claim: "c".into(),
            wall_clock_secs: 0.25,
            series: vec![("pts".into(), vec![(1.0f64, 2.0f64)].to_value())],
            metrics: Vec::new(),
            paper_vs_measured: Vec::new(),
            solver: SolverCounters::default(),
        };
        let parsed: Value = serde_json::from_str(&r.json()).expect("parses");
        let Value::Map(pairs) = parsed else {
            panic!("object")
        };
        let id = pairs
            .iter()
            .find(|(k, _)| k.as_str() == Some("id"))
            .map(|(_, v)| v.clone());
        assert_eq!(id, Some(Value::Str("rt".into())));
    }

    #[test]
    fn trace_artifact_dump_is_a_noop_without_the_env_var() {
        // The harness must not scatter files on local runs; the variable
        // is only set by CI. (Removing it here is safe: tests in this
        // binary run single-process and nothing else reads it.)
        std::env::remove_var("ASTRAL_TRACE_DIR");
        assert_eq!(dump_trace_artifact("noop", &[]), None);
    }
}

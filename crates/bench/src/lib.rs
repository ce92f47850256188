//! # astral-bench — the figure/table regeneration harness
//!
//! One binary per figure and table of the paper's evaluation. Each binary
//! drives a [`Scenario`]: it prints the same human-readable tables and
//! `paper vs measured` footer the harness always emitted, *and* writes a
//! machine-readable `BENCH_<id>.json` report next to it — claim, measured
//! series, scalar metrics, wall-clock, and the rate-solver work counters —
//! so CI can diff reproduction quality run over run. Run them all with:
//!
//! ```sh
//! for f in fig02_alltoall_fragmentation fig03_architecture_scale \
//!          fig04_hvdc_power fig05_cooling_airflow fig06_pue_evolution \
//!          fig07_anomaly_taxonomy fig09_anomaly_localization \
//!          fig10_goodput_recovery fig10_mttlf fig12_seer_accuracy \
//!          fig13_crossdc_efficiency fig14_intrahost_scale \
//!          fig15_power_iterations fig16_power_tidal \
//!          fig17_ecmp_reassignment fig18_crossdc_pp_oversub \
//!          fig19_scaling_efficiency fig_cascade_ablation \
//!          fig_gray_failure fig_trace_correlation fig_fleet_campaign \
//!          ablation_hash_salt ablation_rail_design \
//!          appa_ecmp_rationale appc_monitor_overhead \
//!          table1_llama3_operators perf_parallel_campaigns \
//!          perf_frontier perf_seer_qps; do
//!   cargo run --release -p astral-bench --bin $f ;
//! done
//! ```
//!
//! Reports land in `$ASTRAL_BENCH_DIR` (default: the working directory).
//! Scenarios that record `astral-trace` timelines additionally dump them
//! as JSON-lines under `$ASTRAL_TRACE_DIR` when it is set (see
//! [`dump_trace_artifact`]) — CI uploads those on failure so a diverging
//! run can be diagnosed record by record.
//! `validate_bench` checks every emitted report for the required schema
//! and that its id is a known one, lists the canonical smoke/determinism
//! binaries (`--list-smoke`, `--list-determinism`), and gates metric
//! regressions against committed baselines (`--compare`);
//! `perf_frontier` records the pod-grouped-vs-joint frontier speedup at
//! 8K–512K GPUs, `perf_parallel_campaigns` records the serial-vs-parallel
//! campaign-battery speedup, and `perf_seer_qps` records the what-if
//! service's query throughput, cache hit rate, and warm-over-cold
//! speedup — each together with the byte-identical determinism check
//! (`ASTRAL_THREADS` sets the width).
//! The end-to-end and per-layer performance benchmark is the separate
//! `perfbench` package at the repository root.

use astral_net::SolverCounters;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

/// The canonical bench-smoke binary list, in execution order — the single
/// source of truth both CI jobs consume via `validate_bench --list-smoke`
/// (hand-maintained copies in the workflow file drifted before; now the
/// workflow asks the binary).
pub const SMOKE_BINS: [&str; 14] = [
    "fig02_alltoall_fragmentation",
    "fig07_anomaly_taxonomy",
    "fig09_anomaly_localization",
    "fig10_mttlf",
    "fig10_goodput_recovery",
    "fig_cascade_ablation",
    "fig_gray_failure",
    "fig_trace_correlation",
    "perf_parallel_campaigns",
    "fig_fleet_campaign",
    "perf_frontier",
    "fig12_seer_accuracy",
    "perf_seer_qps",
    // Last: carries the <2% trace-recording wall-clock gate, which wants
    // a machine no longer paying first-run page-cache costs.
    "appc_monitor_overhead",
];

/// The subset of [`SMOKE_BINS`] the CI parallel-determinism gate re-runs
/// at 1 vs 2 threads (`validate_bench --list-determinism`): every binary
/// whose scenario sweeps on the pool, so a width-dependent divergence
/// would show up as a report diff.
pub const DETERMINISM_BINS: [&str; 8] = [
    "fig10_goodput_recovery",
    "fig_cascade_ablation",
    "fig_gray_failure",
    "fig_trace_correlation",
    "perf_parallel_campaigns",
    "fig_fleet_campaign",
    "fig12_seer_accuracy",
    "perf_seer_qps",
];

/// The Figure-10 job: 30 iterations of 1 s compute, hit by one transient
/// mid-fabric flap, one optical dual-ToR outage and one hard host death.
/// `fig10_goodput_recovery` sweeps recovery policies over it and
/// `appc_monitor_overhead` times it traced and untraced.
pub fn fig10_job() -> (astral_core::TrainingJobSpec, astral_core::FaultScript) {
    use astral_core::InjectedFault;
    let spec = astral_core::TrainingJobSpec {
        iters: 30,
        comp_s: 1.0,
        ..Default::default()
    };
    let faults = vec![
        InjectedFault::TransientLink {
            at_iter: 3,
            heal_after: astral_sim::SimDuration::from_millis(30),
        },
        InjectedFault::OpticalUplink {
            at_iter: 12,
            host_index: 5,
        },
        InjectedFault::HostFailure {
            at_iter: 21,
            host_index: 2,
        },
    ];
    (spec, astral_core::FaultScript { faults })
}

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
    /// Field names every report must carry — shared with `validate_bench`.
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

    /// Every report id the harness can emit — `validate_bench` rejects
    /// reports whose id is not on this list (a typo'd or stale id would
    /// otherwise silently pass schema validation). Keep in sync with the
    /// `Scenario::new` call of each bin.
    pub const KNOWN_IDS: [&'static str; 29] = [
        "ablation_hash_salt",
        "ablation_rail_design",
        "appa",
        "appc",
        "cascade_ablation",
        "fig02",
        "fig03",
        "fig04",
        "fig05",
        "fig06",
        "fig07",
        "fig09",
        "fig10_goodput",
        "fig10_mttlf",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig_gray_failure",
        "fig_trace_correlation",
        "fleet_campaign",
        "perf_frontier",
        "perf_parallel_campaigns",
        "perf_seer_qps",
        "table1",
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
/// the classic footer and emits the JSON report.
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

    /// Print the paper-vs-measured footer, stamp the wall clock, write
    /// `BENCH_<id>.json`, and return the report (for tests / callers that
    /// post-process). A report that cannot be written ends the process
    /// with status 1: a bench run that leaves no report has failed.
    pub fn finish(mut self, rows: &[(&str, String)]) -> Report {
        println!("\n--- paper vs reproduction ---");
        for (k, v) in rows {
            println!("  {k}: {v}");
            self.report
                .paper_vs_measured
                .push((k.to_string(), v.clone()));
        }
        self.report.wall_clock_secs = self.started.elapsed().as_secs_f64();
        match self.report.write() {
            Ok(path) => println!("\nreport: {}", path.display()),
            Err(e) => {
                eprintln!(
                    "error: could not write {}: {e}",
                    self.report.path().display()
                );
                std::process::exit(1);
            }
        }
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
    fn determinism_bins_are_a_subset_of_the_smoke_list() {
        for bin in DETERMINISM_BINS {
            assert!(
                SMOKE_BINS.contains(&bin),
                "determinism bin `{bin}` is not in SMOKE_BINS — the CI \
                 determinism gate would re-run a binary the smoke job \
                 never built"
            );
        }
    }

    #[test]
    fn every_smoke_bin_has_a_source_file() {
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for bin in SMOKE_BINS {
            assert!(
                bins.join(format!("{bin}.rs")).is_file(),
                "smoke bin `{bin}` has no src/bin/{bin}.rs — CI would try \
                 to run a binary that no longer exists"
            );
        }
    }

    #[test]
    fn known_ids_are_sorted_and_unique() {
        for w in Report::KNOWN_IDS.windows(2) {
            assert!(
                w[0] < w[1],
                "KNOWN_IDS out of order or duplicated at `{}` / `{}`",
                w[0],
                w[1]
            );
        }
        assert!(Report::KNOWN_IDS.contains(&"fig_trace_correlation"));
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

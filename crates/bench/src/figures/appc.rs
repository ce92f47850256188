//! Appendix C — monitoring system overheads.
//!
//! Paper: ms-level rate monitoring mirrors ≈0.8 Mbps per node — ~10 Gbps
//! for a 100K-GPU cluster, ~0.00005% of link bandwidth; INT pings store
//! ~173 GB/day in a 10K-GPU cluster, retained 15 days.
//!
//! Since the trace layer landed, this appendix also measures *our own*
//! observability tax on the Figure-10 recovery scenario, two ways:
//!
//! * `wall_clock_trace_overhead_pct` — the **gated** number (<2%): the
//!   run's exact record stream driven through the full ring lifecycle
//!   (construct, push every record, drain, recycle), min-of-many reps,
//!   as a fraction of the median untraced run. The numerator is a tight
//!   CPU-bound loop whose minimum is stable to fractions of a percent
//!   even on a noisy shared runner, so the gate does not flake.
//! * `wall_clock_trace_e2e_delta_pct` — informational: the end-to-end
//!   paired traced-vs-untraced delta. On shared hardware this rides
//!   ±5-15% scheduling and memory-bandwidth regimes, an order of
//!   magnitude above the signal, so it is reported but not gated.

use super::fig10_goodput;
use crate::{Report, Scenario};
use astral_core::{try_run_cascade_placed, CascadeScript, JobPlacement, RecoveryPolicy};
use astral_monitor::overhead::{
    int_storage_per_day_bytes, int_storage_retained_bytes, mirror_bps_per_node, mirror_fraction,
    mirror_total_bps, RETENTION_DAYS,
};
use astral_net::DEFAULT_TRACE_CAPACITY;
use astral_topo::{build_astral, AstralParams, Topology};
use astral_trace::{TraceRecord, TraceRing};

/// One Figure-10 run with tracing on or off, returning the report.
fn fig10_run(topo: &Topology, trace: bool) -> astral_core::RecoveryReport {
    let (spec, script) = fig10_goodput::job();
    let script = CascadeScript {
        faults: Vec::new(),
        net_faults: script.faults,
    };
    let mut cfg = astral_collectives::RunnerConfig::default();
    cfg.net.trace = trace;
    try_run_cascade_placed(
        topo,
        &RecoveryPolicy::default(),
        &spec,
        &script,
        cfg,
        &JobPlacement::prefix(spec.hosts, spec.spares),
        None,
    )
    .expect("default policy validates")
    .recovery
}

/// One timed Figure-10 run with tracing on or off. The report (and its
/// recorded timeline) drops on return, exactly as a battery consumer
/// would drop it — the drop-time buffer recycling is part of the path
/// being measured.
fn fig10_once(topo: &Topology, trace: bool) -> f64 {
    let start = std::time::Instant::now();
    let r = fig10_run(topo, trace);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(r.trace.is_empty(), !trace, "trace toggle must be honored");
    elapsed
}

/// Runs per timed block: one fig10 run is ~12 ms — short enough that
/// scheduler jitter alone swamps a sub-percent signal — so each timed
/// sample is a block of several runs, averaging the jitter inside it.
const BLOCK_RUNS: u32 = 4;

/// Wall clock of one block of [`BLOCK_RUNS`] fig10 runs.
fn fig10_block(topo: &Topology, trace: bool) -> f64 {
    (0..BLOCK_RUNS).map(|_| fig10_once(topo, trace)).sum()
}

/// The record stream of one traced Figure-10 run, for the lifecycle
/// benchmark to re-drive.
fn fig10_records(topo: &Topology) -> Vec<TraceRecord> {
    let mut r = fig10_run(topo, true);
    std::mem::take(&mut r.trace)
}

/// Best-of-`reps` wall clock of the full trace-ring lifecycle for the
/// scenario's real record stream: construct a default-capacity ring,
/// push every record the traced run recorded, drain it the way the
/// recovery engine does, and recycle the drained buffer the way a
/// dropped report does. This is the cost the trace layer *adds* to a
/// run, isolated from the run — a CPU-bound loop whose minimum is
/// essentially noise-free, unlike an end-to-end A/B delta on shared
/// hardware. It excludes only the per-site `cfg.trace` branch and
/// argument setup (a few instructions behind an inlined check) and any
/// cache interaction with the simulator, both of which the e2e delta
/// bounds from above.
fn ring_lifecycle_s(records: &[TraceRecord], reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let mut ring = TraceRing::with_capacity(DEFAULT_TRACE_CAPACITY.max(records.len()));
        for &rec in records {
            ring.push(rec);
        }
        let taken = ring.take();
        std::hint::black_box(&taken);
        astral_trace::recycle(taken);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Paired blocked overhead estimate: time an untraced and a traced
/// block back to back `pairs` times and return the median of the
/// per-pair traced/untraced ratios, plus the per-side median block
/// times. Pairing makes slow drift (thermal throttling, a noisy
/// neighbor, a cgroup regime shift) hit both sides of each ratio
/// equally; the within-pair order alternates so any position bias — the
/// second block of a pair riding a warmer cache or a different boost
/// state — cancels across pairs instead of skewing every sample the
/// same way; and the median strips the bursty outliers a shared CI
/// runner injects, where a single estimate from two separate best-of-N
/// phases is hostage to whichever phase drew the quiet minute.
fn fig10_overhead(topo: &Topology, pairs: u32) -> (f64, f64, f64) {
    let mut ratios = Vec::with_capacity(pairs as usize);
    let mut plain = Vec::with_capacity(pairs as usize);
    let mut traced = Vec::with_capacity(pairs as usize);
    for i in 0..pairs {
        let (p, t) = if i % 2 == 0 {
            let p = fig10_block(topo, false);
            let t = fig10_block(topo, true);
            (p, t)
        } else {
            let t = fig10_block(topo, true);
            let p = fig10_block(topo, false);
            (p, t)
        };
        ratios.push(t / p);
        plain.push(p);
        traced.push(t);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    (
        median(&mut ratios),
        median(&mut plain) / f64::from(BLOCK_RUNS),
        median(&mut traced) / f64::from(BLOCK_RUNS),
    )
}

/// The modeled mirroring traffic and INT storage per cluster size.
fn print_mirroring() {
    println!(
        "per-node mirroring      : {:.3} Mbit/s",
        mirror_bps_per_node() / 1e6
    );
    println!(
        "{:<14}{:>18}{:>22}{:>20}",
        "cluster", "mirror traffic", "fraction of link bw", "INT storage/day"
    );
    for gpus in [1_000u64, 10_000, 100_000, 500_000] {
        println!(
            "{:<14}{:>13.2} Gb/s{:>21.7}%{:>17.1} GB",
            format!("{gpus} GPUs"),
            mirror_total_bps(gpus) / 1e9,
            mirror_fraction(gpus) * 100.0,
            int_storage_per_day_bytes(gpus) / 1e9
        );
    }
    println!(
        "\nINT retained at 10K GPUs over {} days: {:.1} TB",
        RETENTION_DAYS,
        int_storage_retained_bytes(10_000) / 1e12
    );
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "appc",
        "Appendix C: monitoring overheads",
        "0.8 Mbps/node mirroring; ~10 Gbps at 100K GPUs (negligible); INT \
         storage ~173 GB/day at 10K GPUs, 15-day retention",
    );

    print_mirroring();

    let rows: Vec<(u64, f64, f64)> = [1_000u64, 10_000, 100_000, 500_000]
        .iter()
        .map(|&g| {
            (
                g,
                mirror_total_bps(g) / 1e9,
                int_storage_per_day_bytes(g) / 1e9,
            )
        })
        .collect();
    sc.series("gpus_mirror_gbps_int_gb_per_day", &rows);
    sc.metric("mirror_mbps_per_node", mirror_bps_per_node() / 1e6);
    sc.metric("mirror_gbps_100k", mirror_total_bps(100_000) / 1e9);
    sc.metric(
        "int_gb_per_day_10k",
        int_storage_per_day_bytes(10_000) / 1e9,
    );

    // Our own observability tax on the Figure-10 recovery scenario. Warm
    // both paths once so nothing pays first-touch costs inside a
    // measured window, and keep the traced run's record stream — the
    // lifecycle benchmark re-drives those exact records.
    let topo = build_astral(&AstralParams::sim_small());
    fig10_once(&topo, false);
    fig10_once(&topo, true);
    let records = fig10_records(&topo);

    let lifecycle = ring_lifecycle_s(&records, 300);
    let pairs = 9;
    let (median_ratio, plain, traced) = fig10_overhead(&topo, pairs);
    let overhead_pct = 100.0 * lifecycle / plain;
    let e2e_delta_pct = 100.0 * (median_ratio - 1.0);
    println!(
        "\ntrace recording tax (fig10 scenario): {overhead_pct:.2}% of the \
         median untraced run — {} records, ring lifecycle {:.0} us, run \
         {:.1} ms; end-to-end paired delta {e2e_delta_pct:+.2}% \
         (informational: rides shared-runner noise) [wall_clock]",
        records.len(),
        lifecycle * 1e6,
        plain * 1e3,
    );
    // `wall_clock` prefix: timing-derived, exempt from the compare gate.
    sc.metric("wall_clock_trace_overhead_pct", overhead_pct);
    sc.metric("wall_clock_trace_e2e_delta_pct", e2e_delta_pct);
    sc.metric("wall_clock_fig10_untraced_s", plain);
    sc.metric("wall_clock_fig10_traced_s", traced);
    sc.metric("fig10_trace_records", records.len() as u64);
    assert!(
        overhead_pct < 2.0,
        "recording the fig10 scenario's {} trace records costs \
         {overhead_pct:.2}% of the run's wall clock — the <2% \
         observability budget is blown",
        records.len()
    );

    sc.finish(&[
        (
            "per-node mirroring",
            format!(
                "paper ~0.8 Mbps | modeled {:.2} Mbps",
                mirror_bps_per_node() / 1e6
            ),
        ),
        (
            "100K-GPU total",
            format!(
                "paper ~10 Gbps | modeled {:.1} Gbps",
                mirror_total_bps(100_000) / 1e9
            ),
        ),
        (
            "INT storage",
            format!(
                "paper 173 GB/day at 10K | modeled {:.0} GB/day",
                int_storage_per_day_bytes(10_000) / 1e9
            ),
        ),
        // Timing-derived: the wall_clock prefix keeps CI's determinism
        // diff off it, like every other timing key.
        (
            "wall_clock_trace_recording",
            format!(
                "ring lifecycle for the fig10 scenario's {} records costs \
                 {overhead_pct:.2}% of the run's wall clock (budget <2%); \
                 end-to-end paired delta {e2e_delta_pct:+.2}%",
                records.len()
            ),
        ),
    ])
}

//! Drift-normalized end-to-end and per-layer benchmark of the Astral
//! crates. See `perfbench/README.md` for the workloads, the metrics and how
//! to read them.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless            # print the golden-stream fingerprints
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it are
//! a human-readable report with the raw value and the host-reference
//! reading beside every normalized metric.

mod clock;
mod hostref;
mod stats;
mod workloads;

use clock::{self_times, Clock, Phase, Span};
use hostref::HostRef;
use stats::{fnv, median, percentile, tail_percentile, FNV_BASIS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::campaign::Campaign;
use workloads::collectives::Collectives;
use workloads::fleet::Fleet;
use workloads::whatif::WhatIfZipf;
use workloads::{OpOut, Workload};

/// Wall-clock between host-reference readings in the timed window.
const REF_EVERY_S: f64 = 0.04;
/// Seed of the golden stream whose fingerprint is committed.
const GOLDEN_SEED: u64 = 0x00a5_72a1;
/// Committed golden-stream fingerprints, one `<workload> <hex>` per line.
const GOLDEN: &str = include_str!("../golden.txt");
const WORKLOADS: [&str; 4] = [
    "fabric_collectives",
    "fault_campaign",
    "whatif_zipf",
    "fleet_tenancy",
];
const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --bless";

/// End-to-end metrics (untraced run), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("sim_gpu_s_per_s", "1"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds_ok = a.seconds > 0.0 && a.seconds.is_finite();
    if !a.bless && !seconds_ok {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return bless();
    }
    match args.workload.as_str() {
        "fabric_collectives" => run::<Collectives>(&args),
        "fault_campaign" => run::<Campaign>(&args),
        "whatif_zipf" => run::<WhatIfZipf>(&args),
        "fleet_tenancy" => run::<Fleet>(&args),
        other => {
            eprintln!("unknown workload {other:?}; one of {WORKLOADS:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One completed op of the timed window. Kept to 16 bytes, and the log
/// is reserved up front, so its memory barely depends on how many ops a
/// run completes (`peak_rss_mb` measures the program, not the log).
#[derive(Clone, Copy)]
struct Op {
    /// Midpoint, seconds since the run's origin.
    mid: f32,
    /// Summed time of its timed calls, raw seconds.
    secs: f32,
    sim_gpu_s: f32,
    traced: bool,
}

impl Op {
    /// Timed seconds at nominal reference speed.
    fn norm_secs(&self, href: &HostRef) -> f64 {
        f64::from(self.secs) * href.factor_at(f64::from(self.mid))
    }
}

/// Ops the op log has room for before it would reallocate.
const OP_LOG_CAPACITY: usize = 1 << 21;

/// Run op `idx`, turning a panic into an error.
fn run_op<W: Workload>(
    w: &mut W,
    seed: u64,
    idx: u64,
    clock: &mut Clock,
) -> Result<(OpOut, f64, f64), String> {
    clock.begin_op(W::OP, idx);
    let r = catch_unwind(AssertUnwindSafe(|| w.op(seed, idx, clock)));
    let (start, end, secs) = clock.end_op();
    match r {
        Ok(Ok(out)) => Ok((out, (start + end) / 2.0, secs)),
        Ok(Err(e)) => Err(e),
        Err(p) => Err(format!(
            "panicked: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or(p.downcast_ref::<&str>().copied())
                .unwrap_or("?")
        )),
    }
}

/// Fingerprint of the golden stream: `W::GOLDEN_OPS` ops of
/// `GOLDEN_SEED` on a fresh instance.
fn golden_fingerprint<W: Workload>(clock: &mut Clock) -> Result<u64, String> {
    let mut w = W::setup(false, clock);
    let mut fp = FNV_BASIS;
    for i in 0..W::GOLDEN_OPS {
        let (out, ..) =
            run_op(&mut w, GOLDEN_SEED, i, clock).map_err(|e| format!("op {i}: {e}"))?;
        fp = fnv(fp, out.fingerprint);
    }
    Ok(fp)
}

fn committed_golden(workload: &str) -> Option<u64> {
    GOLDEN.lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        (name == workload)
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

fn bless() -> ExitCode {
    let mut clock = Clock::new(Instant::now());
    clock.phase = Phase::Golden;
    let fps = [
        golden_fingerprint::<Collectives>(&mut clock),
        golden_fingerprint::<Campaign>(&mut clock),
        golden_fingerprint::<WhatIfZipf>(&mut clock),
        golden_fingerprint::<Fleet>(&mut clock),
    ];
    let mut ok = true;
    for (name, fp) in WORKLOADS.iter().zip(fps) {
        match fp {
            Ok(fp) => println!("{name} {fp:016x}"),
            Err(e) => {
                eprintln!("{name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run workload `W` and print the report; nonzero exit on any failure.
fn run<W: Workload>(a: &Args) -> ExitCode {
    let origin = Instant::now();
    let mut href = HostRef::new(origin);
    let mut clock = Clock::new(origin);
    clock.tracing = a.trace;
    for _ in 0..4 {
        href.sample();
    }

    // Setup, several times; the last instance serves the window.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut inst: Option<W> = None;
    for rep in 0..W::SETUP_REPS {
        href.sample();
        drop(inst.take());
        clock.begin_op("bench.setup", rep as u64);
        inst = Some(W::setup(false, &mut clock));
        let (start, end, _) = clock.end_op();
        setups.push(((start + end) / 2.0, end - start));
    }
    href.sample();
    let mut w = inst.expect("at least one setup repetition");

    // The timed window: closed loop, one caller, whole rounds. A traced
    // run alternates untraced and traced rounds to measure its overhead.
    clock.phase = Phase::Window;
    let mut ops: Vec<Op> = Vec::with_capacity(OP_LOG_CAPACITY);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let round = w.round_len();
    let t_start = clock.now();
    let mut last_ref = t_start;
    let mut idx = 0u64;
    loop {
        if idx.is_multiple_of(round) {
            if clock.now() - t_start >= a.seconds {
                break;
            }
            clock.tracing = a.trace && (idx / round) % 2 == 1;
        }
        attempted += 1;
        let traced = clock.tracing;
        match run_op(&mut w, a.seed, idx, &mut clock) {
            Ok((out, mid, secs)) => ops.push(Op {
                mid: mid as f32,
                secs: secs as f32,
                sim_gpu_s: out.sim_gpu_s as f32,
                traced,
            }),
            Err(e) => {
                failed += 1;
                eprintln!("op {idx} failed: {e}");
            }
        }
        if clock.now() - last_ref >= REF_EVERY_S {
            href.sample();
            last_ref = clock.now();
        }
        idx += 1;
    }
    let window_s = clock.now() - t_start;
    // Peak memory of setup and the window, before the report's own
    // buffers and the golden stream.
    let rss_mb = peak_rss_mb();
    href.sample();
    clock.tracing = a.trace;
    w.window_done(&mut clock);
    drop(w);

    // The committed golden stream: exact output bits of fixed inputs.
    clock.phase = Phase::Golden;
    let tracing = std::mem::replace(&mut clock.tracing, false);
    attempted += 1;
    let golden = golden_fingerprint::<W>(&mut clock);
    let committed = committed_golden(&a.workload);
    let golden_ok = matches!((&golden, committed), (Ok(fp), Some(c)) if *fp == c);
    if !golden_ok {
        failed += 1;
        eprintln!(
            "golden stream mismatch: measured {golden:x?}, committed {committed:x?} \
             (perfbench/golden.txt)"
        );
    }
    clock.tracing = tracing;

    if a.trace {
        clock.phase = Phase::Probe;
        let probes = [
            probe::<Collectives>(a.seed, &mut clock),
            probe::<Campaign>(a.seed, &mut clock),
            probe::<WhatIfZipf>(a.seed, &mut clock),
            probe::<Fleet>(a.seed, &mut clock),
        ];
        for (n, f) in probes {
            attempted += n;
            failed += f;
        }
    }

    let e2e = EndToEnd::measure::<W>(&ops, &setups, &href, rss_mb);
    println!(
        "workload {}  seed {}  window {:.2} s  ops {} ({} rounds)  attempted {attempted}  \
         failed {failed}  failed_frac {:.6}",
        a.workload,
        a.seed,
        window_s,
        ops.len(),
        idx / round,
        failed as f64 / attempted as f64
    );
    println!(
        "golden stream ({} ops, seed {GOLDEN_SEED:#x}): {golden:x?} vs committed {committed:x?}",
        W::GOLDEN_OPS
    );
    e2e.print(&href);

    let metrics: Vec<(String, f64, String)> = if a.trace {
        let layers = per_layer(&clock, &href, &ops);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", a.workload, a.seed));
        match clock.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                clock.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
        println!("{:<40}{:>16}  unit", "per-layer metric", "value");
        for (name, v, unit) in &layers {
            println!("{name:<40}{v:>16.6}  {unit}");
        }
        layers
    } else {
        e2e.metrics()
    };

    let mut correct = failed == 0;
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            eprintln!("metric {name} is not finite");
            correct = false;
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `W`'s probe instance; returns `(attempted, failed)`.
fn probe<W: Workload>(seed: u64, clock: &mut Clock) -> (u64, u64) {
    clock.begin_op("bench.setup", u64::MAX);
    let mut w = W::setup(true, clock);
    clock.end_op();
    let mut failed = 0;
    for i in 0..W::PROBE_OPS {
        if let Err(e) = run_op(&mut w, seed, i, clock) {
            eprintln!("probe op {i} of {} failed: {e}", W::OP);
            failed += 1;
        }
    }
    w.window_done(clock);
    (W::PROBE_OPS, failed)
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A host-time metric at nominal reference speed, with its raw value.
struct Timed {
    norm: f64,
    raw: f64,
}

struct EndToEnd {
    ops: usize,
    ops_per_s: Timed,
    sim_gpu_s_per_s: Timed,
    p50_ms: Timed,
    tail_ms: Timed,
    tail_q: f64,
    setup_s: Timed,
    rss_mb: f64,
}

impl EndToEnd {
    /// End-to-end metrics over the untraced ops of the window (in a traced
    /// run, its untraced half).
    fn measure<W: Workload>(
        ops: &[Op],
        setups: &[(f64, f64)],
        href: &HostRef,
        rss_mb: f64,
    ) -> Self {
        let ops: Vec<&Op> = ops.iter().filter(|o| !o.traced).collect();
        let raw: Vec<f64> = ops.iter().map(|o| f64::from(o.secs)).collect();
        let norm: Vec<f64> = ops.iter().map(|o| o.norm_secs(href)).collect();
        let (sum_raw, sum_norm): (f64, f64) = (raw.iter().sum(), norm.iter().sum());
        let sim: f64 = ops.iter().map(|o| f64::from(o.sim_gpu_s)).sum();
        let tail_q = tail_percentile(ops.len(), W::TAIL_PCT).unwrap_or(50.0);
        let ms = |v: &[f64], q: f64| percentile(v, q) * 1e3;
        let setup_raw: Vec<f64> = setups.iter().map(|s| s.1).collect();
        let setup_norm: Vec<f64> = setups.iter().map(|s| s.1 * href.factor_at(s.0)).collect();
        EndToEnd {
            ops: ops.len(),
            ops_per_s: Timed {
                norm: ops.len() as f64 / sum_norm,
                raw: ops.len() as f64 / sum_raw,
            },
            sim_gpu_s_per_s: Timed {
                norm: sim / sum_norm,
                raw: sim / sum_raw,
            },
            p50_ms: Timed {
                norm: ms(&norm, 50.0),
                raw: ms(&raw, 50.0),
            },
            tail_ms: Timed {
                norm: ms(&norm, tail_q),
                raw: ms(&raw, tail_q),
            },
            tail_q,
            setup_s: Timed {
                norm: median(&setup_norm),
                raw: median(&setup_raw),
            },
            rss_mb,
        }
    }

    fn metrics(&self) -> Vec<(String, f64, String)> {
        let values = [
            self.ops_per_s.norm,
            self.sim_gpu_s_per_s.norm,
            self.p50_ms.norm,
            self.tail_ms.norm,
            self.rss_mb,
            self.setup_s.norm,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit.to_string()))
            .collect()
    }

    fn print(&self, href: &HostRef) {
        let readings = href.readings();
        println!(
            "host reference: median {:.4} ms over {} readings (p25 {:.4}, p75 {:.4}); \
             nominal {} ms",
            median(&readings),
            readings.len(),
            percentile(&readings, 25.0),
            percentile(&readings, 75.0),
            hostref::REF_NOMINAL_MS
        );
        println!(
            "{:<18}{:>16}{:>16}  unit",
            "end-to-end metric", "normalized", "raw"
        );
        let row = |name: &str, t: &Timed, unit: &str| {
            println!("{name:<18}{:>16.6}{:>16.6}  {unit}", t.norm, t.raw)
        };
        row("ops_per_s", &self.ops_per_s, "1/s");
        row("sim_gpu_s_per_s", &self.sim_gpu_s_per_s, "1");
        row("op_p50_ms", &self.p50_ms, "ms");
        row(
            "op_tail_ms",
            &self.tail_ms,
            &format!(
                "ms (p{} of {} ops, {} beyond)",
                self.tail_q,
                self.ops,
                stats::beyond(self.ops, self.tail_q)
            ),
        );
        println!("{:<18}{:>16.6}{:>16}  MB", "peak_rss_mb", self.rss_mb, "-");
        row("setup_s", &self.setup_s, "s (median of setups)");
    }
}

/// Per-layer metrics of a traced run. A layer's times and counters come
/// from the timed window when the workload calls into that layer, and from
/// the cross-layer probe otherwise.
fn per_layer(clock: &Clock, href: &HostRef, ops: &[Op]) -> Vec<(String, f64, String)> {
    let spans = clock.spans();
    let norm = |s: &Span| s.secs() * href.factor_at((s.start + s.end) / 2.0);
    let phase_of = |names: &[&str], first: Phase| {
        if spans
            .iter()
            .any(|s| s.phase == first && names.contains(&s.name))
        {
            first
        } else {
            Phase::Probe
        }
    };
    let times = |names: &[&str], phase: Phase| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.phase == phase && names.contains(&s.name))
            .map(norm)
            .collect()
    };
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let mean_time = |names: &[&str], first: Phase| mean(&times(names, phase_of(names, first)));
    let per_op_in = |name: &'static str, phase: Phase| {
        clock
            .counter(phase, name)
            .map_or(0.0, |(sum, n)| sum / n as f64)
    };
    let per_op = |name: &'static str| {
        let phase = if clock.counter(Phase::Window, name).is_some() {
            Phase::Window
        } else {
            Phase::Probe
        };
        per_op_in(name, phase)
    };

    const NET: [&str; 4] = [
        "net.all_to_all",
        "net.all_reduce",
        "net.rs_ag",
        "net.sharded",
    ];
    let net_phase = phase_of(&NET, Phase::Window);
    let ns_per_link =
        mean(&times(&NET, net_phase)) * 1e9 / per_op_in("net.links_scanned", net_phase).max(1.0);
    let core_phase = phase_of(&["core.twin"], Phase::Window);
    let campaign_s: f64 = times(&["core.campaign"], core_phase).iter().sum();
    let twin_s: f64 = times(&["core.twin"], core_phase).iter().sum();
    let recovery_share = if campaign_s > 0.0 {
        (campaign_s - twin_s) / campaign_s
    } else {
        0.0
    };

    // Tracing overhead: untraced over traced ops/s, both normalized.
    let rate = |traced: bool| {
        let (n, t) = ops
            .iter()
            .filter(|o| o.traced == traced)
            .fold((0.0, 0.0), |(n, t), o| (n + 1.0, t + o.norm_secs(href)));
        n / t
    };
    let overhead = rate(false) / rate(true) - 1.0;

    // Self time per layer over setup and window (the probe excluded).
    let own = self_times(spans);
    let in_run = |s: &Span| matches!(s.phase, Phase::Setup | Phase::Window);
    let total: f64 = spans
        .iter()
        .filter(|s| in_run(s) && s.parent.is_none())
        .map(Span::secs)
        .sum();
    let self_share = |layer: &str| {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| in_run(s) && s.layer() == layer)
            .map(|(_, t)| t)
            .sum::<f64>()
            / total.max(1e-12)
    };

    let m: Vec<(&str, f64, &str)> = vec![
        (
            "topo.build_s",
            mean_time(&["topo.build"], Phase::Setup),
            "s",
        ),
        (
            "topo.route_warm_s",
            mean_time(&["topo.route_warm"], Phase::Setup),
            "s",
        ),
        (
            "collectives.expand_us_per_op",
            mean_time(&["collectives.expand"], Phase::Window) * 1e6,
            "us",
        ),
        (
            "collectives.transfers_per_op",
            per_op("collectives.transfers"),
            "count",
        ),
        (
            "collectives.network_bytes_per_op",
            per_op("collectives.network_bytes"),
            "B",
        ),
        (
            "net.op_ms.all_to_all",
            mean_time(&["net.all_to_all"], Phase::Window) * 1e3,
            "ms",
        ),
        (
            "net.op_ms.all_reduce",
            mean_time(&["net.all_reduce"], Phase::Window) * 1e3,
            "ms",
        ),
        (
            "net.op_ms.rs_ag",
            mean_time(&["net.rs_ag"], Phase::Window) * 1e3,
            "ms",
        ),
        (
            "net.sharded_op_ms",
            mean_time(&["net.sharded"], Phase::Window) * 1e3,
            "ms",
        ),
        ("net.solves_per_op", per_op("net.solves"), "count"),
        (
            "net.links_scanned_per_op",
            per_op("net.links_scanned"),
            "count",
        ),
        ("net.ns_per_link_scanned", ns_per_link, "ns"),
        (
            "core.campaign_ms",
            mean(&times(&["core.campaign"], core_phase)) * 1e3,
            "ms",
        ),
        (
            "core.twin_ms",
            mean(&times(&["core.twin"], core_phase)) * 1e3,
            "ms",
        ),
        ("core.recovery_share", recovery_share, "ratio"),
        ("core.incidents_per_op", per_op("core.incidents"), "count"),
        (
            "monitor.localization_accuracy",
            per_op("monitor.localization_accuracy"),
            "ratio",
        ),
        (
            "monitor.mttlf_sim_s",
            per_op("monitor.mttlf_sim_s"),
            "sim_s",
        ),
        (
            "seer.hit_us",
            mean_time(&["seer.hit"], Phase::Window) * 1e6,
            "us",
        ),
        (
            "seer.miss_ms",
            mean_time(&["seer.miss"], Phase::Window) * 1e3,
            "ms",
        ),
        (
            "seer.forecast_hit_rate",
            per_op("seer.forecast_hit_rate"),
            "ratio",
        ),
        (
            "seer.op_memo_hit_rate",
            per_op("seer.op_memo_hit_rate"),
            "ratio",
        ),
        (
            "seer.evictions_per_query",
            per_op("seer.evictions_per_query"),
            "ratio",
        ),
        (
            "fleet.campaign_ms",
            mean_time(&["fleet.campaign"], Phase::Window) * 1e3,
            "ms",
        ),
        ("fleet.segments_per_op", per_op("fleet.segments"), "count"),
        (
            "fleet.admissions_per_op",
            per_op("fleet.admissions"),
            "count",
        ),
        (
            "fleet.preemptions_per_op",
            per_op("fleet.preemptions"),
            "count",
        ),
        (
            "fleet.spare_claims_per_op",
            per_op("fleet.spare_claims"),
            "count",
        ),
        ("host.ref_ms", median(&href.readings()), "ms"),
        ("exec.threads", 1.0, "count"),
        ("trace.overhead", overhead, "ratio"),
        ("trace.spans", spans.len() as f64, "count"),
    ];
    let mut out: Vec<(String, f64, String)> = m
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
        .collect();
    for layer in [
        "bench",
        "topo",
        "collectives",
        "net",
        "core",
        "seer",
        "fleet",
    ] {
        // `+ 0.0` turns a negative zero into zero.
        out.push((
            format!("self_share.{layer}"),
            self_share(layer) + 0.0,
            "ratio".into(),
        ));
    }
    out
}

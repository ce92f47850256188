//! Performance harness — the deterministic parallel execution layer on the
//! cascade campaign battery: 3 hazard classes × 17 seeds = 51 independent
//! training simulations, run serially (1 thread, the exact old code path)
//! and on an `ASTRAL_THREADS`-sized pool.
//!
//! The pool merges results in submission order, so the parallel battery's
//! fingerprints must be **byte-identical** to the serial ones — that check
//! always gates. The wall-clock speedup is reported alongside; on a
//! single-core machine (or with `ASTRAL_THREADS=1` forcing the pool down
//! to 2 for the comparison leg) it is informational only, so the harness
//! warns rather than fails when parallelism brings no speedup.

use astral_bench::Scenario;
use astral_collectives::RunnerConfig;
use astral_core::{
    try_run_campaign_battery_with, CampaignRun, CascadeScript, FaultCampaign, HazardRates,
    RecoveryPolicy, TrainingJobSpec,
};
use astral_exec::Pool;
use astral_monitor::CorrelationPrior;
use astral_topo::{build_astral, AstralParams};
use std::time::Instant;

/// One hazard class per substrate: campaigns draw their faults from the
/// seeded hazard process, so every battery entry is a distinct cascade.
const CLASSES: [(&str, HazardRates); 3] = [
    (
        "power",
        HazardRates {
            grid_sag: 0.06,
            pump: 0.0,
            optics: 0.0,
        },
    ),
    (
        "cooling",
        HazardRates {
            grid_sag: 0.0,
            pump: 0.06,
            optics: 0.0,
        },
    ),
    (
        "optics",
        HazardRates {
            grid_sag: 0.0,
            pump: 0.0,
            optics: 0.06,
        },
    ),
];
const SEEDS: u64 = 17;

fn battery() -> Vec<CampaignRun> {
    let policy = RecoveryPolicy {
        checkpoint_interval: 10,
        restart_overhead_s: 1.0,
        ..RecoveryPolicy::default()
    };
    let mut runs = Vec::new();
    for (ci, (_, hazards)) in CLASSES.iter().enumerate() {
        for seed in 0..SEEDS {
            let spec = TrainingJobSpec {
                iters: 24,
                bytes: 4 << 20,
                comp_s: 0.2,
                seed,
                ..TrainingJobSpec::default()
            };
            let campaign = FaultCampaign {
                scripted: CascadeScript::default(),
                hazards: *hazards,
                horizon_iters: 20,
                seed: seed * 3 + ci as u64,
            };
            runs.push((policy, spec, campaign));
        }
    }
    runs
}

fn main() {
    let mut sc = Scenario::new(
        "perf_parallel_campaigns",
        "Exec-layer perf: 51-campaign battery, serial vs ASTRAL_THREADS pool",
        "submission-order result slots make the parallel battery \
         byte-identical to the serial one at any thread count; parallelism \
         is purely a wall-clock lever",
    );

    let topo = build_astral(&AstralParams::sim_small());
    let runs = battery();
    // The comparison leg always uses ≥ 2 threads — with ASTRAL_THREADS=1
    // the pool would be the serial path and the determinism check vacuous.
    let par_threads = astral_exec::configured_threads().max(2);
    println!(
        "battery: {} campaigns ({} classes × {} seeds); parallel leg: {} threads\n",
        runs.len(),
        CLASSES.len(),
        SEEDS,
        par_threads
    );

    let run_battery = |threads: usize, runs: &[CampaignRun]| {
        let (cfg, prior) = (RunnerConfig::default(), CorrelationPrior::default());
        try_run_campaign_battery_with(&Pool::with_threads(threads), &topo, runs, cfg, prior)
            .expect("valid policy")
    };
    // Warm-up (allocator, distance fields) outside the timed region.
    let _ = run_battery(1, &runs[..3]);

    let t0 = Instant::now();
    let serial = run_battery(1, &runs);
    let wall_serial = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = run_battery(par_threads, &runs);
    let wall_parallel = t1.elapsed().as_secs_f64();

    for r in &parallel {
        sc.solver(&r.recovery.solver);
    }

    let fp_serial: Vec<String> = serial.iter().map(|r| r.fingerprint()).collect();
    let fp_parallel: Vec<String> = parallel.iter().map(|r| r.fingerprint()).collect();
    let identical = fp_serial == fp_parallel;
    let speedup = wall_serial / wall_parallel.max(1e-12);

    println!("{:<22}{:>14}{:>12}", "leg", "wall (s)", "threads");
    println!("{:<22}{:>14.3}{:>12}", "serial", wall_serial, 1);
    println!(
        "{:<22}{:>14.3}{:>12}",
        "parallel", wall_parallel, par_threads
    );
    println!("\nfingerprints byte-identical: {identical}; wall-clock speedup {speedup:.2}x");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 2 && speedup < 1.5 {
        eprintln!(
            "warning: speedup {speedup:.2}x below the 1.5x target on this {cores}-core machine"
        );
    }

    sc.metric("campaigns", runs.len() as u64);
    sc.metric("threads_parallel", par_threads as u64);
    sc.metric("fingerprints_identical", identical);
    // All timing keys carry the wall_clock prefix so CI's determinism diff
    // can exclude them with one pattern.
    sc.metric("wall_clock_serial_s", wall_serial);
    sc.metric("wall_clock_parallel_s", wall_parallel);
    sc.metric("wall_clock_speedup", speedup);
    sc.finish(&[
        (
            "determinism",
            format!(
                "{} of {} campaign fingerprints byte-identical serial vs {} threads",
                fp_serial
                    .iter()
                    .zip(&fp_parallel)
                    .filter(|(a, b)| a == b)
                    .count(),
                runs.len(),
                par_threads
            ),
        ),
        // Key carries wall_clock so CI's determinism diff filters the row.
        (
            "wall_clock_speedup",
            format!("{speedup:.2}x on {cores} core(s); target ≥1.5x only when ≥2 cores"),
        ),
    ]);

    assert!(
        identical,
        "parallel battery diverged from serial: fingerprints differ"
    );
}

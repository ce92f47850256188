//! Performance harness — the incremental fair-share solver vs the seed's
//! from-scratch rebuild on the stress scenario from the issue: a 256-GPU
//! **cluster-wide** all-to-all, ranks spread across every pod of a four-pod
//! oversubscribed 3-tier CLOS (oversubscription staggers completions, so
//! the solver is re-entered thousands of times per collective).
//!
//! The full-rebuild mode reproduces the original per-event cost: rebuild
//! the flow→link incidence and re-run water-filling over *all* links
//! (`max_min_rates_seed`). The incremental solver re-solves only the
//! disturbed connected component with reused scratch buffers. Both modes
//! produce identical trajectories (pinned by the churn property tests), so
//! the wall-clock ratio is pure solver speedup. Each mode gets one warm-up
//! collective on its own runner (distance fields, QP cache)
//! before the measured run.

use astral_bench::Scenario;
use astral_collectives::{CollectiveRunner, RunnerConfig};
use astral_core::{place_job, PlacementPolicy};
use astral_net::{NetConfig, SolverCounters};
use astral_topo::{build_clos, AstralParams, BaselineParams, GpuId, Topology};
use std::time::Instant;

fn run_mode(
    topo: &Topology,
    group: &[GpuId],
    incremental: bool,
    bytes: u64,
) -> (f64, f64, SolverCounters) {
    let cfg = RunnerConfig {
        net: NetConfig {
            incremental_solver: incremental,
            ..NetConfig::default()
        },
        ..RunnerConfig::default()
    };
    let mut runner = CollectiveRunner::new(topo, cfg);
    let _ = runner.all_to_all(group, 1 << 20); // warm-up, not measured
    let start = Instant::now();
    let r = runner.all_to_all(group, bytes);
    let wall = start.elapsed().as_secs_f64();
    (wall, r.duration.as_secs_f64(), r.solver)
}

fn main() {
    let mut sc = Scenario::new(
        "perf_solver_alltoall",
        "Solver perf: 256-GPU cluster-wide all-to-all, incremental vs full rebuild",
        "dirty-component water-filling turns per-event O(F·L) rebuilds into \
         component-local work; target ≥3× end-to-end on the a2a stress case",
    );

    let mut base = AstralParams::sim_medium();
    base.pods = 4;
    let topo = build_clos(&BaselineParams {
        base,
        tier3_oversub: 8.0,
    });
    let group = place_job(
        &topo,
        256,
        PlacementPolicy::FragmentedAcrossPods { pods: 4 },
    );
    let bytes = 64u64 << 20;
    println!(
        "fabric: {} GPUs, {} links (8:1 oversubscribed CLOS); {} ranks across 4 pods, \
         pairwise all-to-all, {} MiB per rank\n",
        topo.gpu_count(),
        topo.links().len(),
        group.len(),
        bytes >> 20
    );

    let (wall_full, sim_full, c_full) = run_mode(&topo, &group, false, bytes);
    let (wall_inc, sim_inc, c_inc) = run_mode(&topo, &group, true, bytes);
    sc.solver(&c_inc);

    println!(
        "{:<22}{:>14}{:>14}{:>16}{:>18}",
        "mode", "wall (s)", "sim (s)", "solves", "links scanned"
    );
    println!(
        "{:<22}{:>14.3}{:>14.6}{:>16}{:>18}",
        "full rebuild", wall_full, sim_full, c_full.full_solves, c_full.links_scanned
    );
    println!(
        "{:<22}{:>14.3}{:>14.6}{:>16}{:>18}",
        "incremental",
        wall_inc,
        sim_inc,
        c_inc.full_solves + c_inc.incremental_solves,
        c_inc.links_scanned
    );

    let speedup = wall_full / wall_inc.max(1e-12);
    let sim_drift = (sim_inc - sim_full).abs() / sim_full.max(1e-12);
    println!("\nwall-clock speedup: {speedup:.2}x (simulated durations agree to {sim_drift:.2e})");
    if speedup < 3.0 {
        eprintln!("warning: speedup {speedup:.2}x below the 3x target on this machine");
    }

    sc.metric("wall_clock_full_rebuild_s", wall_full);
    sc.metric("wall_clock_incremental_s", wall_inc);
    sc.metric("speedup", speedup);
    sc.metric("sim_duration_rel_drift", sim_drift);
    sc.metric("full_mode_links_scanned", c_full.links_scanned);
    sc.metric("incremental_mode_links_scanned", c_inc.links_scanned);
    sc.finish(&[
        (
            "speedup",
            format!("target ≥3x | measured {speedup:.2}x on the 256-GPU cluster-wide a2a"),
        ),
        (
            "fidelity",
            format!("simulated collective durations agree to {sim_drift:.2e} relative"),
        ),
        (
            "work avoided",
            format!(
                "links scanned: {} (full rebuild) vs {} (incremental)",
                c_full.links_scanned, c_inc.links_scanned
            ),
        ),
    ]);
}

//! Figure 2 — all-to-all communication throughput under fragmentation and
//! tier-3 oversubscription.
//!
//! Paper: allocating 1K GPUs across 32 Pods degrades all-to-all throughput
//! by 19–37% vs a single Pod; tier-3 oversubscription costs up to 52% of
//! all-to-all throughput and ~3% of model training performance.
//!
//! Reproduction at simulation scale: a 128-GPU all-to-all placed dense
//! (one pod) vs fragmented (two pods), on Astral and on the oversubscribed
//! baselines, plus the induced training impact via the exposed-comm share.

use crate::{Report, Scenario};
use astral_collectives::{CollectiveRunner, RunnerConfig};
use astral_core::{place_job, PlacementPolicy};
use astral_net::SolverCounters;
use astral_topo::{build_astral, build_clos, AstralParams, BaselineParams, GpuId, Topology};

fn a2a_gbps(topo: &Topology, placement: &[GpuId], bytes: u64) -> (f64, SolverCounters) {
    let mut runner = CollectiveRunner::new(topo, RunnerConfig::default());
    let r = runner.all_to_all(placement, bytes);
    (r.algbw_bps(bytes) / 1e9, r.solver)
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig02",
        "Figure 2: all-to-all throughput",
        "fragmented (32-pod) deployment loses 19-37%; tier-3 oversubscription \
         costs up to 52% a2a and ~3% training",
    );

    let params = AstralParams::sim_medium(); // 2 pods × 1024 GPUs
    let astral = build_astral(&params);
    let gpus = 128u32;
    let bytes = 32u64 << 20;

    // --- Fragmentation axis (on Astral) ---
    let dense = place_job(&astral, gpus, PlacementPolicy::BlockLocal);
    let frag = place_job(
        &astral,
        gpus,
        PlacementPolicy::FragmentedAcrossPods { pods: 2 },
    );
    let (t_dense, c_dense) = a2a_gbps(&astral, &dense, bytes);
    let (t_frag, c_frag) = a2a_gbps(&astral, &frag, bytes);
    sc.solver(&c_dense);
    sc.solver(&c_frag);
    let frag_loss = (1.0 - t_frag / t_dense) * 100.0;

    println!("{:<34}{:>14}{:>12}", "deployment", "a2a algbw", "vs dense");
    println!(
        "{:<34}{:>11.1} Gb{:>12}",
        "astral, dense (1 pod)", t_dense, "-"
    );
    println!(
        "{:<34}{:>11.1} Gb{:>11.1}%",
        "astral, fragmented (2 pods)", t_frag, -frag_loss
    );

    // --- Oversubscription axis: a cluster-wide all-to-all (every GPU of a
    //     smaller two-pod fabric) so the traffic actually subscribes
    //     tier 3, on the CLOS baseline at increasing ratios. ---
    let small = AstralParams::sim_small(); // 2 pods × 128 GPUs
    let full_gpus = 256u32;
    let full_bytes = 64u64 << 20;
    let mut oversub_rows = Vec::new();
    for ratio in [1.0f64, 2.0, 4.0, 8.0] {
        let bp = BaselineParams {
            base: small.clone(),
            tier3_oversub: ratio,
        };
        let clos = build_clos(&bp);
        let all = place_job(
            &clos,
            full_gpus,
            PlacementPolicy::FragmentedAcrossPods { pods: 2 },
        );
        let (t, c) = a2a_gbps(&clos, &all, full_bytes);
        sc.solver(&c);
        oversub_rows.push((ratio, t));
    }
    let flat = oversub_rows[0].1;
    for &(ratio, t) in &oversub_rows {
        println!(
            "{:<34}{:>11.1} Gb{:>11.1}%",
            format!("clos {ratio:.0}:1, cluster-wide a2a"),
            t,
            (t / flat - 1.0) * 100.0
        );
    }
    let a2a_oversub_loss = (1.0 - oversub_rows.last().unwrap().1 / flat) * 100.0;

    // --- Training impact: the a2a loss scaled by the exposed-comm share
    //     (paper: "only ~15% of communication time remains after
    //     overlapping"). ---
    let comm_share = 0.15 * 0.45; // exposed fraction × comm share of iter
    let training_impact = a2a_oversub_loss * comm_share;

    sc.series("oversub_ratio_vs_a2a_gbps", &oversub_rows);
    sc.metric("dense_a2a_gbps", t_dense);
    sc.metric("fragmented_a2a_gbps", t_frag);
    sc.metric("fragmented_loss_pct", frag_loss);
    sc.metric("oversub_8to1_loss_pct", a2a_oversub_loss);
    sc.metric("training_impact_pct", training_impact);
    sc.finish(&[
        (
            "fragmented a2a loss",
            format!("paper 19–37% | measured {frag_loss:.1}% (2-pod split at sim scale)"),
        ),
        (
            "oversubscription a2a loss",
            format!("paper up to 52% | measured {a2a_oversub_loss:.1}% at 8:1"),
        ),
        (
            "training impact of oversub",
            format!("paper ~3% | estimated {training_impact:.1}% via exposed-comm share"),
        ),
    ])
}

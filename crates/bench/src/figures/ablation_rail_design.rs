//! Ablation — the tier-2 design axis (DESIGN.md §4): same-rail aggregation
//! (Astral, P1) vs full tier-2 interconnect (rail-optimized baseline) vs
//! no cross-rail fabric at all (rail-only), on the two traffic patterns the
//! paper argues about: same-rail collectives and MoE-style all-to-all.

use crate::{Report, Scenario};
use astral_collectives::{merge_parallel, ring_all_reduce, CollectiveRunner, RunnerConfig};
use astral_topo::{
    build_astral, build_rail_only, build_rail_optimized, AstralParams, BaselineParams, GpuId,
    Topology,
};

/// All rails run their same-rail AllReduce *concurrently* — the load that
/// separates dedicated per-rail Agg groups from a shared tier-2 mesh.
fn same_rail_allreduce_ms(topo: &Topology, hosts: u32, bytes: u64) -> f64 {
    let rails = topo.rails() as u32;
    let group: Vec<GpuId> = (0..hosts * rails).map(GpuId).collect();
    // Rank map: rail r's ring uses ranks {h·rails + r}.
    let merged = merge_parallel(
        (0..rails)
            .map(|r| {
                let map: Vec<usize> = (0..hosts).map(|h| (h * rails + r) as usize).collect();
                (ring_all_reduce(hosts as usize, bytes), map)
            })
            .collect(),
    );
    let mut runner = CollectiveRunner::new(topo, RunnerConfig::default());
    runner.run_schedule(&group, &merged).duration.as_secs_f64() * 1e3
}

fn mixed_alltoall_ms(topo: &Topology, gpus: u32, bytes: u64) -> (f64, u64) {
    let mut runner = CollectiveRunner::new(topo, RunnerConfig::default());
    let group: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let r = runner.all_to_all(&group, bytes);
    (r.duration.as_secs_f64() * 1e3, r.nvlink_bytes)
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "ablation_rail_design",
        "Ablation: tier-2 design (P1) — same-rail vs full interconnect vs rail-only",
        "same-rail aggregation maximizes rail scale; rail-only forces \
         cross-rail traffic through NVLink; full interconnect splits rail \
         capacity",
    );

    let mut params = AstralParams::sim_small();
    params.pods = 1;
    let astral = build_astral(&params);
    let ropt = build_rail_optimized(&BaselineParams {
        base: params.clone(),
        tier3_oversub: 1.0,
    });
    let ronly = build_rail_only(&params);

    let ar_bytes = 128u64 << 20;
    let a2a_bytes = 32u64 << 20;

    println!(
        "{:<16}{:>22}{:>18}{:>18}",
        "fabric", "same-rail AR (ms)", "a2a 64 (ms)", "a2a NVLink bytes"
    );
    let mut rows = Vec::new();
    for (name, topo) in [
        ("astral", &astral),
        ("rail-optimized", &ropt),
        ("rail-only", &ronly),
    ] {
        let ar = same_rail_allreduce_ms(topo, 16, ar_bytes);
        let (a2a, nv) = mixed_alltoall_ms(topo, 64, a2a_bytes);
        println!("{:<16}{:>22.3}{:>18.3}{:>18}", name, ar, a2a, nv);
        rows.push((name, ar, a2a, nv));
    }

    let fabric_rows: Vec<(String, f64, f64, u64)> = rows
        .iter()
        .map(|&(n, ar, a2a, nv)| (n.to_string(), ar, a2a, nv))
        .collect();
    sc.series("fabric_ar_ms_a2a_ms_nvlink_bytes", &fabric_rows);
    sc.metric("astral_same_rail_ar_ms", rows[0].1);
    sc.metric("rail_optimized_same_rail_ar_ms", rows[1].1);
    sc.metric("rail_only_nvlink_bytes", rows[2].3);
    sc.finish(&[
        (
            "same-rail collectives",
            format!(
                "astral {:.2} ms vs rail-optimized {:.2} ms — full tier-2 \
                 interconnect splits each ToR's uplink capacity across all \
                 rails",
                rows[0].1, rows[1].1
            ),
        ),
        (
            "cross-rail all-to-all",
            format!(
                "rail-only relays {} NVLink bytes (no Core tier) vs astral's \
                 {} — the paper's MoE scalability objection to rail-only",
                rows[2].3, rows[0].3
            ),
        ),
    ])
}

//! Appendix A — the rationale for per-flow ECMP: failure blast radius.
//!
//! Paper: "per-flow ECMP confines the impact of failures to a limited set
//! of flows. When a link fails, only those flows mapped to the failed path
//! are affected." Per-packet spraying would touch every flow. We emulate
//! spraying by splitting each logical transfer over many source ports
//! (subflows across all equal-cost paths) and count how many logical
//! transfers a single link failure damages under each scheme.

use crate::{Report, Scenario};
use astral_net::{FlowSpec, NetConfig, NetworkSim, QpContext};
use astral_sim::SimTime;
use astral_topo::{build_astral, AstralParams, GpuId};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "appa",
        "Appendix A: per-flow ECMP vs per-packet spraying — failure blast radius",
        "per-flow ECMP confines a link failure to the flows mapped onto it; \
         spraying exposes every flow to every link",
    );

    let params = AstralParams::sim_medium();
    let topo = build_astral(&params);
    let gpb = params.hosts_per_block as u32 * params.rails as u32;
    let transfers = 24u32;
    let bytes = 8u64 << 20;
    let spray_ways = 8u16;

    let mut results = Vec::new();
    for (label, subflows) in [
        ("per-flow ECMP", 1u16),
        ("per-packet (sprayed)", spray_ways),
    ] {
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        // transfers × subflows; transfer i is damaged if ANY subflow fails.
        let mut groups: Vec<Vec<astral_net::FlowId>> = Vec::new();
        for i in 0..transfers {
            let src = topo.gpu_nic(GpuId(i * params.rails as u32));
            let dst = topo.gpu_nic(GpuId(gpb + i * params.rails as u32));
            let mut ids = Vec::new();
            for s in 0..subflows {
                let qp = sim.register_qp(src, dst, 49_152 + s * 251, QpContext::anonymous());
                ids.push(
                    sim.inject(FlowSpec {
                        qp,
                        bytes: bytes / subflows as u64,
                        weight: 1.0,
                    })
                    .expect("routable"),
                );
            }
            groups.push(ids);
        }
        // Fail one ToR→Agg uplink shortly after start.
        sim.run_until(SimTime::from_micros(5));
        let victim_link = sim.stats(groups[0][0]).unwrap().path[1];
        sim.fail_link_at(SimTime::from_micros(10), victim_link);
        sim.run_until_idle();

        let damaged = groups
            .iter()
            .filter(|ids| {
                ids.iter()
                    .any(|&id| sim.stats(id).unwrap().state == astral_net::FlowState::Failed)
            })
            .count();
        println!(
            "{:<24} {:>2}/{} logical transfers damaged by one link failure",
            label, damaged, transfers
        );
        sc.solver(&sim.solver_counters());
        results.push((label, damaged));
    }

    sc.metric("transfers", transfers as u64);
    sc.metric("per_flow_damaged", results[0].1 as u64);
    sc.metric("sprayed_damaged", results[1].1 as u64);
    assert!(
        results[1].1 > results[0].1,
        "spraying must widen the radius"
    );

    sc.finish(&[
        (
            "blast radius",
            format!(
                "paper: per-flow confines failures | {} vs {} of {} transfers damaged",
                results[0].1, results[1].1, transfers
            ),
        ),
        (
            "operational simplicity",
            "fixed paths also keep sFlow/INT diagnosis meaningful — the \
             other two Appendix A arguments"
                .to_string(),
        ),
    ])
}

//! Figure 17 — effectiveness of UDP source-port reassignment: ECN counters
//! decrease and stabilize over successive controller rounds.
//!
//! Paper (Appendix A / footnote 1): switches report ECN counters every 5 s;
//! the controller reruns the production hash in a simulator and reassigns
//! congested flows' source ports; counters drop and stabilize.

use crate::{Report, Scenario};
use astral_net::{EcmpController, FlowSpec, NetConfig, NetworkSim, PlannedFlow, QpContext};
use astral_topo::{build_astral, AstralParams, GpuId, LinkId};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig17",
        "Figure 17: ECN counters under sport reassignment",
        "ECN counters decrease and eventually stabilize after multiple \
         reassignment rounds",
    );

    let params = AstralParams::sim_medium();
    let topo = build_astral(&params);
    let gpb = params.hosts_per_block as u32 * params.rails as u32;
    let ctl = EcmpController;

    // Same-rail cross-block traffic with deliberately colliding sports
    // (a tenant that never ran the sport-selection step).
    let mut flows: Vec<PlannedFlow> = (0..32)
        .map(|i| PlannedFlow {
            src: topo.gpu_nic(GpuId(i * params.rails as u32)),
            dst: topo.gpu_nic(GpuId(gpb + i * params.rails as u32)),
            bytes: 125_000_000,
            sport: 50_000,
        })
        .collect();

    let mut series = Vec::new();
    let mut rows = Vec::new();
    for round in 0..8 {
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        for f in &flows {
            let qp = sim.register_qp(f.src, f.dst, f.sport, QpContext::anonymous());
            sim.inject(FlowSpec {
                qp,
                bytes: f.bytes,
                weight: 1.0,
            })
            .expect("routable");
        }
        sim.run_until_idle();
        let ecn: u64 = sim.telemetry().link.iter().map(|c| c.ecn_marks).sum();
        let hot: Vec<LinkId> = sim
            .telemetry()
            .hottest_links_by_ecn(8)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        // Projected max link load from the controller's own hash simulator.
        let load = ctl.project_load(&topo, sim.router(), &sim.config().hasher, &flows);
        let max_load = load.values().copied().max().unwrap_or(0);
        // The telemetry-driven entry point: pull hot links straight off the
        // simulator's ECN counters and reassign around them.
        let moved = ctl.rebalance_from_sim(&sim, &mut flows, 8);
        sc.solver(&sim.solver_counters());
        let max_gb = max_load as f64 * 8.0 / 1e9;
        rows.push((round, ecn, hot.len(), max_gb, moved));
        series.push(ecn);
    }
    sc.table(
        "controller_rounds",
        "round | ECN marks | hot links | max link load (Gb) | reassigned",
        &rows,
    );

    let first = series[0] as f64;
    let last = *series.last().unwrap() as f64;
    let stabilized = series.windows(2).rev().take(3).all(|w| w[1] <= w[0]);
    sc.series("ecn_marks_by_round", &series);
    sc.metric("first_round_ecn", series[0]);
    sc.metric("last_round_ecn", *series.last().unwrap());
    sc.metric("reduction_pct", (1.0 - last / first.max(1.0)) * 100.0);
    sc.metric("monotone_tail", stabilized);
    sc.finish(&[
        (
            "ECN trend",
            format!(
                "paper: decrease and stabilize | {first:.2e} → {last:.2e} ({:.0}% reduction)",
                (1.0 - last / first.max(1.0)) * 100.0
            ),
        ),
        (
            "stabilization",
            format!("paper: eventually stable | monotone tail: {stabilized}"),
        ),
    ])
}

//! Ablation — hash diversification (DESIGN.md §4): a uniform fleet hash vs
//! per-switch salted hashing, measured as persistent-collision pressure on
//! the same traffic pattern, plus the controller's ability to repair each.

use crate::{Report, Scenario};
use astral_net::{
    EcmpController, EcmpHasher, FlowSpec, NetConfig, NetworkSim, PlannedFlow, QpContext, SaltMode,
};
use astral_topo::{build_astral, AstralParams, GpuId};

fn run_round(
    topo: &astral_topo::Topology,
    hasher: EcmpHasher,
    flows: &[PlannedFlow],
) -> (u64, f64) {
    let cfg = NetConfig {
        hasher,
        ..NetConfig::default()
    };
    let mut sim = NetworkSim::new(topo, cfg);
    let mut ids = Vec::new();
    for f in flows {
        let qp = sim.register_qp(f.src, f.dst, f.sport, QpContext::anonymous());
        ids.push(
            sim.inject(FlowSpec {
                qp,
                bytes: f.bytes,
                weight: 1.0,
            })
            .expect("routable"),
        );
    }
    sim.run_until_idle();
    let ecn: u64 = sim.telemetry().link.iter().map(|c| c.ecn_marks).sum();
    let fct = ids
        .iter()
        .map(|&id| sim.stats(id).unwrap().fct().expect("done").as_secs_f64())
        .fold(0.0f64, f64::max);
    (ecn, fct)
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "ablation_hash_salt",
        "Ablation: ECMP hash diversification",
        "uniform fleet hashes collide persistently; per-switch salts spread \
         better; the controller repairs either via source ports",
    );

    let params = AstralParams::sim_medium();
    let topo = build_astral(&params);
    let gpb = params.hosts_per_block as u32 * params.rails as u32;
    let mk_flows = || -> Vec<PlannedFlow> {
        (0..32)
            .map(|i| PlannedFlow {
                src: topo.gpu_nic(GpuId(i * params.rails as u32)),
                dst: topo.gpu_nic(GpuId(gpb + i * params.rails as u32)),
                bytes: 64 << 20,
                sport: 50_000, // a tenant that never spread its ports
            })
            .collect()
    };

    let ctl = EcmpController;
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for (label, salt) in [
        ("uniform fleet", SaltMode::Uniform),
        ("per-switch salt", SaltMode::PerSwitch),
    ] {
        let hasher = EcmpHasher {
            salt,
            ..EcmpHasher::default()
        };
        let mut flows = mk_flows();
        let (ecn0, fct0) = run_round(&topo, hasher, &flows);

        // One controller round on top.
        let cfg = NetConfig {
            hasher,
            ..NetConfig::default()
        };
        let sim = NetworkSim::new(&topo, cfg);
        let hot: Vec<_> = {
            // Re-derive hot links from a projection (deterministic).
            let load = ctl.project_load(&topo, sim.router(), &hasher, &flows);
            let max = load.values().copied().max().unwrap_or(0);
            load.into_iter()
                .filter(|&(_, v)| v == max && max > 64 << 20)
                .map(|(l, _)| l)
                .collect()
        };
        let moved = ctl.rebalance(&topo, sim.router(), &hasher, &mut flows, &hot);
        let (ecn1, fct1) = run_round(&topo, hasher, &flows);
        rows.push((label, 0, 0, ecn0, fct0 * 1e3));
        rows.push((label, 1, moved, ecn1, fct1 * 1e3));
        results.push((label, ecn0, ecn1));
    }
    sc.table(
        "collision_pressure",
        "hashing | controller rounds | flows moved | ECN marks | worst FCT (ms)",
        &rows,
    );

    sc.metric("uniform_ecn_before", results[0].1);
    sc.metric("uniform_ecn_after", results[0].2);
    sc.metric("salted_ecn_before", results[1].1);
    sc.metric("salted_ecn_after", results[1].2);
    sc.finish(&[
        (
            "persistent collisions",
            format!(
                "uniform {} marks vs salted {} before the controller",
                results[0].1, results[1].1
            ),
        ),
        (
            "controller repair",
            format!(
                "uniform {} → {} after reassignment — the Appendix A \
                 trade: per-flow ECMP is repairable precisely because it is \
                 deterministic",
                results[0].1, results[0].2
            ),
        ),
    ])
}

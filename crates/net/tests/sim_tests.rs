//! End-to-end tests of the flow-level network simulator.

use astral_net::{
    ip_of_nic, EcmpController, FiveTuple, FlowSpec, FlowState, NetConfig, NetError, NetworkSim,
    PlannedFlow, QpContext, QpId, PFC_HOL_FACTOR, RTO,
};
use astral_sim::{SimDuration, SimTime};
use astral_topo::{
    build_astral, build_rail_only, AstralParams, GpuId, HostId, LinkId, NodeId, Topology,
};

fn fixture() -> Topology {
    build_astral(&AstralParams::sim_small())
}

fn qp_between(sim: &mut NetworkSim, topo: &Topology, a: u32, b: u32) -> QpId {
    sim.register_qp_auto(
        topo.gpu_nic(GpuId(a)),
        topo.gpu_nic(GpuId(b)),
        QpContext::anonymous(),
    )
}

#[test]
fn single_flow_gets_nic_line_rate() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    // Same rail, cross block: bottleneck is one 200G NIC port.
    let qp = qp_between(&mut sim, &topo, 0, 32);
    let bytes = 250_000_000u64; // 2 Gbit
    let stats = sim.run_flows(&[FlowSpec {
        qp,
        bytes,
        weight: 1.0,
    }]);
    let rate = stats[0].avg_rate_bps().unwrap();
    assert!(
        (rate - 200e9).abs() / 200e9 < 0.01,
        "expected ~200G, got {rate:.3e}"
    );
    assert_eq!(stats[0].state, FlowState::Done);
}

#[test]
fn two_flows_on_one_port_share_fairly() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    // Two flows from the same (gpu0) NIC *port*: force same sport so they
    // share the same 200G uplink.
    let src = topo.gpu_nic(GpuId(0));
    let qp1 = sim.register_qp(src, topo.gpu_nic(GpuId(32)), 50_000, QpContext::anonymous());
    let qp2 = sim.register_qp(src, topo.gpu_nic(GpuId(36)), 50_000, QpContext::anonymous());
    let bytes = 250_000_000u64;
    let stats = sim.run_flows(&[
        FlowSpec {
            qp: qp1,
            bytes,
            weight: 1.0,
        },
        FlowSpec {
            qp: qp2,
            bytes,
            weight: 1.0,
        },
    ]);
    for s in &stats {
        let rate = s.avg_rate_bps().unwrap();
        assert!(
            rate < 205e9,
            "two flows can't both exceed half of a shared port: {rate:.3e}"
        );
    }
    // Combined goodput ≈ the port rate if they truly shared one uplink,
    // or 2×200G if ECMP split them across the dual-ToR ports. Both are
    // legal; what's forbidden is exceeding 400G total.
    let total: f64 = stats.iter().map(|s| s.avg_rate_bps().unwrap()).sum();
    assert!(total <= 401e9);
}

#[test]
fn stale_completion_notices_do_not_advance_the_clock() {
    // When the 100 MB flow finishes, the 400 MB flow speeds up and its
    // earlier completion notice goes stale. Dropping that notice must not
    // move the clock past the last real event.
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let src = topo.gpu_nic(GpuId(0));
    let qp1 = sim.register_qp(src, topo.gpu_nic(GpuId(32)), 50_000, QpContext::anonymous());
    let qp2 = sim.register_qp(src, topo.gpu_nic(GpuId(36)), 50_000, QpContext::anonymous());
    let stats = sim.run_flows(&[
        FlowSpec {
            qp: qp1,
            bytes: 100_000_000,
            weight: 1.0,
        },
        FlowSpec {
            qp: qp2,
            bytes: 400_000_000,
            weight: 1.0,
        },
    ]);
    let last = stats.iter().map(|s| s.finish.expect("done")).max();
    assert_eq!(Some(sim.now()), last);
}

#[test]
fn incast_shares_receiver_port() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    // 4 senders on the same rail, all to GPU 0's NIC.
    let specs: Vec<FlowSpec> = (1..=4)
        .map(|i| {
            let qp = qp_between(&mut sim, &topo, 32 * i, 0);
            FlowSpec {
                qp,
                bytes: 125_000_000,
                weight: 1.0,
            }
        })
        .collect();
    let stats = sim.run_flows(&specs);
    let total: f64 = stats.iter().map(|s| s.avg_rate_bps().unwrap()).sum();
    // Receiver NIC has 2×200G ports; senders hash across dual ToRs, so the
    // ceiling is 400G and the floor (all on one port) is 200G.
    assert!(
        total <= 401e9,
        "incast exceeded receiver capacity: {total:.3e}"
    );
    assert!(total >= 195e9);
}

#[test]
fn link_failure_raises_err_cqe_and_aborts() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let qp = qp_between(&mut sim, &topo, 0, 32);
    let id = sim
        .inject(FlowSpec {
            qp,
            bytes: u64::MAX / 4, // effectively endless
            weight: 1.0,
        })
        .unwrap();
    // Fail the flow's first link shortly after start.
    sim.run_until(SimTime::from_micros(10));
    let first_link = sim.stats(id).unwrap().path[0];
    sim.fail_link_at(SimTime::from_micros(20), first_link);
    sim.run_until_idle();

    let st = sim.stats(id).unwrap();
    assert_eq!(st.state, FlowState::Failed);
    let errs = sim.telemetry().err_cqe.clone();
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].qp, qp);
    // errCQE surfaces one RTO after the failure.
    let expect = SimTime::from_micros(20) + RTO;
    assert_eq!(errs[0].time, expect);
}

#[test]
fn flows_injected_after_failure_also_error() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let qp = qp_between(&mut sim, &topo, 0, 32);
    // Pre-fail every candidate first-hop link of the source NIC: kill the
    // whole NIC so any hash choice dies.
    let src = topo.gpu_nic(GpuId(0));
    for &l in topo.out_links(src) {
        sim.fail_link_at(SimTime::ZERO, l);
    }
    sim.run_until(SimTime::from_micros(1));
    sim.inject(FlowSpec {
        qp,
        bytes: 1 << 20,
        weight: 1.0,
    })
    .unwrap();
    sim.run_until_idle();
    assert_eq!(sim.telemetry().err_cqe.len(), 1);
}

#[test]
fn restore_readmits_aborted_flows() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let qp = qp_between(&mut sim, &topo, 0, 32);
    let bytes = 250_000_000u64; // ~10 ms at 200G
    let id = sim
        .inject(FlowSpec {
            qp,
            bytes,
            weight: 1.0,
        })
        .unwrap();
    sim.run_until(SimTime::from_micros(10));
    let first_link = sim.stats(id).unwrap().path[0];

    // The blast radius of the scheduled failure is exactly our QP.
    sim.fail_link_at(SimTime::from_micros(20), first_link);
    assert_eq!(sim.qps_crossing(&[first_link]), vec![qp]);

    // Let the abort land (one RTO after the failure), then restore the
    // link mid-run.
    sim.run_until(SimTime::from_millis(5));
    assert_eq!(sim.stats(id).unwrap().state, FlowState::Failed);
    let events = sim.drain_flow_events();
    assert!(matches!(
        events.as_slice(),
        [astral_net::FlowEvent::Aborted { flow, .. }] if *flow == id
    ));

    sim.restore_link_at(SimTime::from_millis(6), first_link);
    sim.run_until_idle();

    // The flow was re-admitted and ran to completion.
    let st = sim.stats(id).unwrap();
    assert_eq!(st.state, FlowState::Done);
    assert!((st.delivered - bytes as f64).abs() < 1.0);
    let events = sim.drain_flow_events();
    assert!(matches!(
        events.as_slice(),
        [astral_net::FlowEvent::Requeued { flow, .. }] if *flow == id
    ));
}

#[test]
fn degraded_host_triggers_pfc_and_slows_victims() {
    let topo = fixture();
    let cfg = NetConfig::default();
    let mut sim = NetworkSim::new(&topo, cfg);

    // Victim traffic: a healthy same-rail flow that shares the Agg→ToR
    // downlink with traffic into the sick host.
    // Sick host: host 0 (gpus 0..4). Congesting senders target gpu 0 from
    // several blocks; victim goes to gpu 4 (host 1, same ToR pair).
    let mut specs = Vec::new();
    for i in 1..=3u32 {
        let qp = qp_between(&mut sim, &topo, 32 * i, 0);
        specs.push(FlowSpec {
            qp,
            bytes: 2_500_000_000,
            weight: 1.0,
        });
    }
    let victim_qp = qp_between(&mut sim, &topo, 32, 4);
    // Degrade the sick host's ingress to 20%.
    sim.degrade_host_at(SimTime::ZERO, HostId(0), 0.2);

    for s in &specs {
        sim.inject(*s).unwrap();
    }
    let victim = sim
        .inject(FlowSpec {
            qp: victim_qp,
            bytes: 2_500_000_000,
            weight: 1.0,
        })
        .unwrap();
    sim.run_until_idle();

    // PFC pause counters must have accumulated somewhere.
    // Exactly the sick host's ToR→NIC links were degraded.
    let mut downlinks: Vec<LinkId> = topo
        .host(HostId(0))
        .nics
        .iter()
        .flat_map(|&nic| topo.nic_edges(nic))
        .map(|(_, down)| down)
        .collect();
    downlinks.sort();
    assert!(!downlinks.is_empty());
    let degraded = sim.degraded_links();
    assert_eq!(
        degraded.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
        downlinks
    );
    assert!(degraded.iter().all(|&(_, f)| (f - 0.2).abs() < 1e-9));

    let pfc_total: u64 = sim.telemetry().link.iter().map(|c| c.pfc_pause_ns).sum();
    assert!(
        pfc_total > 0,
        "degraded saturated drain must emit PFC pauses"
    );

    // The victim must have been slowed below its clean-network rate at some
    // point (head-of-line loss), visible in its completion.
    let v = sim.stats(victim).unwrap();
    assert_eq!(v.state, FlowState::Done);
    let rate = v.avg_rate_bps().unwrap();
    assert!(
        rate < 200e9 * 0.99,
        "victim unaffected by PFC HoL: {rate:.3e}"
    );
}

#[test]
fn int_probe_sees_congested_hops() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    // Saturate a path, then probe along it.
    let qp = qp_between(&mut sim, &topo, 0, 32);
    sim.inject(FlowSpec {
        qp,
        bytes: u64::MAX / 4,
        weight: 1.0,
    })
    .unwrap();
    sim.run_until(SimTime::from_millis(1));
    let rec = sim.qp_record(qp).unwrap();
    let probe = sim.int_probe(rec.src_nic, rec.dst_nic, rec.tuple.src_port);
    assert!(probe.reached);
    assert_eq!(probe.hops.len(), 4);
    // The saturated bottleneck hop should report a large queueing delay.
    let max_delay = probe.hops.iter().map(|h| h.delay).max().unwrap();
    assert!(
        max_delay >= SimDuration::from_micros(100),
        "saturated hop delay too small: {max_delay}"
    );
    // An idle pair's probe shows only propagation-scale delays.
    let idle = sim.int_probe(topo.gpu_nic(GpuId(8)), topo.gpu_nic(GpuId(40)), 50_000);
    assert!(idle.reached);
    for h in idle.hops {
        assert!(h.delay < SimDuration::from_micros(10));
    }
}

#[test]
fn qp_ms_rate_sampling_works() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let qp = qp_between(&mut sim, &topo, 0, 32);
    // 25 MB at 200G ≈ 1 ms.
    sim.run_flows(&[FlowSpec {
        qp,
        bytes: 25_000_000,
        weight: 1.0,
    }]);
    let total = sim.telemetry().qp_bytes[qp].bytes;
    assert!((total - 25_000_000.0).abs() < 1.0, "sampled {total}");
}

#[test]
fn controller_loop_reduces_ecn_rounds() {
    // Miniature Figure 17: repeated collective rounds with colliding sports;
    // each controller round reassigns ports of flows on hot links; ECN marks
    // per round must decrease (or reach zero).
    let topo = fixture();
    let p = AstralParams::sim_small();
    let gpb = p.hosts_per_block as u32 * p.rails as u32;
    let ctl = EcmpController;

    // Traffic: 8 same-rail cross-block pairs, all with one sport (worst
    // case collision).
    let mut flows: Vec<PlannedFlow> = (0..8)
        .map(|i| PlannedFlow {
            src: topo.gpu_nic(GpuId(i * p.rails as u32)),
            dst: topo.gpu_nic(GpuId(gpb + i * p.rails as u32)),
            bytes: 125_000_000,
            sport: 50_000,
        })
        .collect();

    let mut ecn_per_round = Vec::new();
    for _round in 0..4 {
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|f| {
                let qp = sim.register_qp(f.src, f.dst, f.sport, QpContext::anonymous());
                FlowSpec {
                    qp,
                    bytes: f.bytes,
                    weight: 1.0,
                }
            })
            .collect();
        for s in &specs {
            sim.inject(*s).unwrap();
        }
        sim.run_until_idle();
        let ecn: u64 = sim.telemetry().link.iter().map(|c| c.ecn_marks).sum();
        ecn_per_round.push(ecn);

        let hot: Vec<LinkId> = sim
            .telemetry()
            .hottest_links_by_ecn(4)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        ctl.rebalance(&topo, sim.router(), &sim.config().hasher, &mut flows, &hot);
    }
    assert!(
        ecn_per_round.last().unwrap() < ecn_per_round.first().unwrap() || ecn_per_round[0] == 0,
        "ECN did not decrease over controller rounds: {ecn_per_round:?}"
    );
}

#[test]
fn loopback_flow_completes_instantly() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let nic = topo.gpu_nic(GpuId(0));
    let qp = sim.register_qp_auto(nic, nic, QpContext::anonymous());
    let stats = sim.run_flows(&[FlowSpec {
        qp,
        bytes: 1 << 30,
        weight: 1.0,
    }]);
    assert_eq!(stats[0].state, FlowState::Done);
    assert_eq!(stats[0].fct(), Some(SimDuration::ZERO));
    // sFlow records the one-node path.
    assert_eq!(sim.sflow_path(qp), Some(vec![nic]));
}

#[test]
fn weighted_flows_split_proportionally() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let src = topo.gpu_nic(GpuId(0));
    let qp1 = sim.register_qp(
        src,
        topo.gpu_nic(GpuId(128)),
        50_000,
        QpContext::anonymous(),
    );
    let qp2 = sim.register_qp(
        src,
        topo.gpu_nic(GpuId(128)),
        50_000,
        QpContext::anonymous(),
    );
    // Identical tuples → identical path → shared bottleneck, weights 1:3.
    let big = sim
        .inject(FlowSpec {
            qp: qp2,
            bytes: 300_000_000,
            weight: 3.0,
        })
        .unwrap();
    let small = sim
        .inject(FlowSpec {
            qp: qp1,
            bytes: 100_000_000,
            weight: 1.0,
        })
        .unwrap();
    sim.run_until_idle();
    // With a 1:3 split both should finish at the same moment.
    let (fs, fb) = (sim.stats(small).unwrap(), sim.stats(big).unwrap());
    let (ts, tb) = (
        fs.finish.unwrap().as_nanos() as f64,
        fb.finish.unwrap().as_nanos() as f64,
    );
    assert!(
        ((ts - tb) / ts).abs() < 0.01,
        "weighted co-finish violated: {ts} vs {tb}"
    );
}

/// Dual-ToR failover (paper P3): two flows out of one host ride different
/// ToR sides at full port rate; after one optical uplink dies, both are
/// steered onto the surviving side and still complete — at half the
/// aggregate bandwidth.
#[test]
fn dual_tor_failover_halves_bandwidth_but_completes() {
    use astral_net::{QpContext, EPHEMERAL_BASE};

    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let src = topo.gpu_nic(GpuId(0));
    let uplinks = topo.out_links(src).to_vec();
    assert_eq!(uplinks.len(), 2, "dual-ToR host has two uplinks");

    // A source port whose ECMP hash puts src→dst traffic on `side`.
    let sport_on = |sim: &NetworkSim, dst, side| {
        (0..2048u16)
            .map(|c| EPHEMERAL_BASE.wrapping_add(c))
            .find(|&sp| {
                let p = sim.int_probe(src, dst, sp);
                p.reached && p.hops.first().map(|h| h.link) == Some(side)
            })
            .expect("some sport hashes onto this side")
    };

    let da = topo.gpu_nic(GpuId(32));
    let db = topo.gpu_nic(GpuId(36));
    let qa = sim.register_qp_auto(src, da, QpContext::anonymous());
    let qb = sim.register_qp_auto(src, db, QpContext::anonymous());

    // Healthy: one flow per ToR side, both at the full 200G port rate.
    sim.reassign_sport(qa, sport_on(&sim, da, uplinks[0]));
    sim.reassign_sport(qb, sport_on(&sim, db, uplinks[1]));
    let bytes = 250_000_000u64;
    let mk = |qp| FlowSpec {
        qp,
        bytes,
        weight: 1.0,
    };
    let healthy = sim.run_flows(&[mk(qa), mk(qb)]);
    for st in &healthy {
        assert_eq!(st.state, FlowState::Done);
        let rate = st.avg_rate_bps().unwrap();
        assert!(
            (rate - 200e9).abs() / 200e9 < 0.02,
            "expected ~200G, got {rate:.3e}"
        );
    }

    // Optical fault on side 0 → steer its flow onto the surviving side.
    sim.fail_link_at(sim.now(), uplinks[0]);
    sim.reassign_sport(qa, sport_on(&sim, da, uplinks[1]));
    let ida = sim.inject(mk(qa)).unwrap();
    let idb = sim.inject(mk(qb)).unwrap();
    sim.run_until_idle();
    for id in [ida, idb] {
        let st = sim.stats(id).unwrap();
        assert_eq!(st.state, FlowState::Done, "flow must survive failover");
        let rate = st.avg_rate_bps().unwrap();
        assert!(
            (rate - 100e9).abs() / 100e9 < 0.05,
            "expected ~100G (halved), got {rate:.3e}"
        );
    }
}

/// Pod-grouped fills are a drop-in for the joint fill: the same
/// congested cross-pod workload produces identical flow outcomes and ECN
/// telemetry, so the counter-driven controller loop (Figure 17) makes
/// identical rebalancing decisions against either simulator.
#[test]
fn sharded_sim_drives_controller_identically() {
    let topo = fixture();
    let p = AstralParams::sim_small();
    let gpb = p.hosts_per_block as u32 * p.rails as u32;
    let pod_gpus = p.blocks_per_pod as u32 * gpb;
    let ctl = EcmpController;

    // Colliding same-sport pairs, half cross-block and half cross-pod, so
    // both pod-internal domains and the boundary reconciliation run.
    let flows: Vec<PlannedFlow> = (0..8)
        .map(|i| PlannedFlow {
            src: topo.gpu_nic(GpuId(i * p.rails as u32)),
            dst: topo.gpu_nic(GpuId(
                if i % 2 == 0 { gpb } else { pod_gpus } + i * p.rails as u32,
            )),
            bytes: 125_000_000,
            sport: 50_000,
        })
        .collect();

    let run = |sharded: bool| {
        let cfg = NetConfig {
            sharded_solver: sharded,
            ..NetConfig::default()
        };
        let mut sim = NetworkSim::new(&topo, cfg);
        assert_eq!(sim.solver_is_sharded(), sharded);
        for f in &flows {
            let qp = sim.register_qp(f.src, f.dst, f.sport, QpContext::anonymous());
            sim.inject(FlowSpec {
                qp,
                bytes: f.bytes,
                weight: 1.0,
            })
            .unwrap();
        }
        sim.run_until_idle();
        let stats: Vec<(FlowState, Option<SimTime>)> = sim
            .all_stats()
            .into_iter()
            .map(|s| (s.state, s.finish))
            .collect();
        let ecn: Vec<u64> = sim.telemetry().link.iter().map(|c| c.ecn_marks).collect();
        let mut plan = flows.clone();
        let moved = ctl.rebalance_from_sim(&sim, &mut plan, 4);
        let sports: Vec<u16> = plan.iter().map(|f| f.sport).collect();
        (stats, ecn, moved, sports)
    };

    let global = run(false);
    let sharded = run(true);
    assert_eq!(global.0, sharded.0, "flow outcomes diverged");
    assert_eq!(global.1, sharded.1, "ECN telemetry diverged");
    assert_eq!(
        global.2, sharded.2,
        "controller moved different flow counts"
    );
    assert_eq!(global.3, sharded.3, "controller chose different sports");
}

/// A QP from GPU `a` to GPU `b` whose ECMP route ends on `last` (a ToR→NIC
/// drain), found by trying source ports.
fn qp_via(sim: &mut NetworkSim, topo: &Topology, a: u32, b: u32, last: LinkId) -> QpId {
    let (src, dst) = (topo.gpu_nic(GpuId(a)), topo.gpu_nic(GpuId(b)));
    let sport = (49_152u16..=u16::MAX)
        .find(|&p| {
            let tuple = FiveTuple::roce(ip_of_nic(src), ip_of_nic(dst), p);
            sim.route(src, dst, &tuple).and_then(|r| r.last().copied()) == Some(last)
        })
        .expect("some source port routes over the drain");
    sim.register_qp(src, dst, sport, QpContext::anonymous())
}

/// The ToR→NIC drain into GPU `gpu` on the NIC's first ToR.
fn drain_into(topo: &Topology, gpu: u32) -> LinkId {
    let nic = topo.gpu_nic(GpuId(gpu));
    let tor = topo.link(topo.out_links(nic)[0]).dst;
    topo.link_between(tor, nic).unwrap()
}

/// Inject a long flow from GPU `a` to GPU `b` over the drain `last`.
fn long_flow_via(sim: &mut NetworkSim, topo: &Topology, a: u32, b: u32, last: LinkId) {
    let qp = qp_via(sim, topo, a, b, last);
    sim.inject(FlowSpec {
        qp,
        bytes: 10_000_000_000,
        weight: 1.0,
    })
    .unwrap();
}

/// The pause intensity the simulator derives from a drain degraded to
/// `factor` of its pristine capacity.
fn severity(topo: &Topology, drain: LinkId, factor: f64) -> f64 {
    let orig = topo.link(drain).bandwidth_bps;
    (1.0 - orig * factor / orig) * PFC_HOL_FACTOR
}

#[test]
fn two_degraded_drains_pause_shared_ingress_at_larger_severity() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    // Two drains out of one ToR (hosts 0 and 1 on rail 0), each saturated
    // by one flow from another block. The severer one is degraded first,
    // so the pause is not simply the last severity written.
    let (a, b) = (drain_into(&topo, 0), drain_into(&topo, 4));
    let tor = topo.link(a).src;
    assert_eq!(topo.link(b).src, tor);
    sim.degrade_link_at(SimTime::ZERO, b, 0.2);
    sim.degrade_link_at(SimTime::ZERO, a, 0.3);
    long_flow_via(&mut sim, &topo, 32, 0, a);
    long_flow_via(&mut sim, &topo, 64, 4, b);
    sim.run_until(SimTime::from_micros(100));

    let (sev_a, sev_b) = (severity(&topo, a, 0.3), severity(&topo, b, 0.2));
    assert!(sev_b > sev_a);
    assert!(!topo.in_links(tor).is_empty());
    for &l in topo.in_links(tor) {
        let pristine = topo.link(l).bandwidth_bps;
        assert_eq!(
            sim.effective_capacity(l).to_bits(),
            (pristine * (1.0 - sev_b)).to_bits(),
            "ingress {l} must be paused at the larger severity"
        );
    }
    // The drains themselves feed NICs, which pause nothing.
    for (drain, factor) in [(a, 0.3), (b, 0.2)] {
        let pristine = topo.link(drain).bandwidth_bps;
        assert_eq!(sim.effective_capacity(drain), pristine * factor);
    }
}

#[test]
fn restored_paused_link_stays_unpaused_while_another_link_is_degraded() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    // Drain `a` (rail 0) pauses its ToR's ingress, including `paused`, the
    // link its own flow arrives on. Drain `d` (rail 1, another ToR) stays
    // degraded throughout, so every recompute keeps taking the fixpoint.
    let (a, d) = (drain_into(&topo, 0), drain_into(&topo, 1));
    assert_ne!(topo.link(a).src, topo.link(d).src);
    sim.degrade_link_at(SimTime::ZERO, a, 0.3);
    sim.degrade_link_at(SimTime::ZERO, d, 0.2);
    long_flow_via(&mut sim, &topo, 32, 0, a);
    long_flow_via(&mut sim, &topo, 33, 1, d);
    sim.run_until(SimTime::from_micros(100));
    let flow_a = sim.all_stats()[0].path.clone();
    let paused = flow_a[flow_a.len() - 2];
    let other = topo.in_links(topo.link(d).src)[0];
    let pristine = topo.link(paused).bandwidth_bps;
    assert!(sim.effective_capacity(paused) < pristine);
    assert!(sim.effective_capacity(other) < topo.link(other).bandwidth_bps);

    // Restore the paused link together with the drain that paused it.
    let t1 = SimTime::from_micros(200);
    sim.restore_link_at(t1, paused);
    sim.restore_link_at(t1, a);
    sim.run_until(t1);
    let pause_at_restore = sim.telemetry().link[paused.index()].pfc_pause_ns;
    let other_at_restore = sim.telemetry().link[other.index()].pfc_pause_ns;
    assert!(pause_at_restore > 0);

    // Force another fixpoint with a new flow, then let time pass.
    let full_before = sim.solver_counters().full_solves;
    long_flow_via(&mut sim, &topo, 64, 8, drain_into(&topo, 8));
    sim.run_until(SimTime::from_micros(400));
    assert!(sim.solver_counters().full_solves > full_before);
    assert_eq!(sim.effective_capacity(paused), pristine);
    assert_eq!(
        sim.telemetry().link[paused.index()].pfc_pause_ns,
        pause_at_restore,
        "a restored link's pause time must stop growing"
    );
    assert!(
        sim.telemetry().link[other.index()].pfc_pause_ns > other_at_restore,
        "the still-degraded drain keeps pausing its own ingress"
    );
}

#[test]
fn restoring_last_degraded_link_returns_to_incremental_solves() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let a = drain_into(&topo, 0);
    sim.degrade_link_at(SimTime::ZERO, a, 0.3);
    long_flow_via(&mut sim, &topo, 32, 0, a);
    sim.run_until(SimTime::from_micros(100));
    let ingress = topo.in_links(topo.link(a).src);
    assert!(ingress
        .iter()
        .all(|&l| sim.effective_capacity(l) < topo.link(l).bandwidth_bps));

    // The restore itself still takes one fixpoint, which clears every
    // pause.
    sim.restore_link_at(SimTime::from_micros(200), a);
    sim.run_until(SimTime::from_micros(200));
    assert!(sim.degraded_links().is_empty());
    for l in topo.links() {
        assert_eq!(sim.effective_capacity(l.id), l.bandwidth_bps);
    }

    // With no degraded link and no pause left, the next recompute is
    // component-local.
    let before = sim.solver_counters();
    let qp = qp_between(&mut sim, &topo, 64, 96);
    sim.inject(FlowSpec {
        qp,
        bytes: 1_000_000,
        weight: 1.0,
    })
    .unwrap();
    sim.run_until(SimTime::from_micros(300));
    let after = sim.solver_counters();
    assert!(after.incremental_solves > before.incremental_solves);
    assert_eq!(after.full_solves, before.full_solves);
}

/// The node sequence sFlow reports for a link path leaving `src`.
fn nodes_of(topo: &Topology, src: NodeId, path: &[LinkId]) -> Vec<NodeId> {
    std::iter::once(src)
        .chain(path.iter().map(|&l| topo.link(l).dst))
        .collect()
}

#[test]
fn sport_reassignment_reroutes_next_flow_and_sflow_record() {
    let topo = fixture();
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let (src, dst) = (topo.gpu_nic(GpuId(0)), topo.gpu_nic(GpuId(32)));
    let qp = sim.register_qp(src, dst, 49_153, QpContext::anonymous());
    let flow_path = |sim: &mut NetworkSim| {
        let id = sim
            .inject(FlowSpec {
                qp,
                bytes: 1 << 20,
                weight: 1.0,
            })
            .unwrap();
        sim.run_until_idle();
        assert_eq!(sim.stats(id).unwrap().state, FlowState::Done);
        sim.stats(id).unwrap().path
    };

    // Repeated flows on an unchanged QP take one path, and the record is
    // that path.
    let first = flow_path(&mut sim);
    for _ in 0..3 {
        assert_eq!(flow_path(&mut sim), first);
        assert_eq!(sim.sflow_path(qp), Some(nodes_of(&topo, src, &first)));
    }

    // A source port whose walk leaves the NIC on the other uplink.
    let tuple = |p| FiveTuple::roce(ip_of_nic(src), ip_of_nic(dst), p);
    let moved = (49_152u16..=u16::MAX)
        .find(|&p| sim.route(src, dst, &tuple(p)).unwrap()[0] != first[0])
        .expect("a dual-homed NIC has a second uplink");
    sim.reassign_sport(qp, moved);
    assert_eq!(sim.qp_record(qp).unwrap().tuple.src_port, moved);
    // The port change reroutes the route view at once; sFlow keeps the
    // old path until a flow takes the new one.
    assert_eq!(sim.qp_route(qp), sim.route(src, dst, &tuple(moved)));
    assert_eq!(sim.sflow_path(qp), Some(nodes_of(&topo, src, &first)));

    let second = flow_path(&mut sim);
    assert_ne!(second[0], first[0], "next flow must take the new uplink");
    assert_eq!(Some(second.clone()), sim.route(src, dst, &tuple(moved)));
    assert_eq!(sim.sflow_path(qp), Some(nodes_of(&topo, src, &second)));

    // Reassigning the port it already has changes nothing.
    sim.reassign_sport(qp, moved);
    assert_eq!(flow_path(&mut sim), second);
}

/// Each refused injection — an unregistered QP (an id past the end, and
/// id 0), a start before the clock, a QP the fabric cannot route — returns
/// its typed error and leaves the simulator as it was: a twin that never
/// saw the bad calls then runs the same flow to the same stats, trace and
/// telemetry, so no refusal took a sequence number, a slot or an event.
#[test]
fn refused_injections_are_typed_and_leave_the_sim_unchanged() {
    let topo = build_rail_only(&AstralParams {
        pods: 1,
        ..AstralParams::sim_small()
    });
    let (src, dst) = (GpuId(0), GpuId(32));
    let cross = GpuId(33);
    assert_eq!(topo.gpu_rail(src), topo.gpu_rail(dst));
    assert_ne!(topo.gpu_rail(src), topo.gpu_rail(cross));
    let cfg = NetConfig {
        trace: true,
        ..NetConfig::default()
    };
    let spec = |qp| FlowSpec {
        qp,
        bytes: 1 << 20,
        weight: 1.0,
    };
    let mut sims = [NetworkSim::new(&topo, cfg), NetworkSim::new(&topo, cfg)];
    for (i, sim) in sims.iter_mut().enumerate() {
        let qp = qp_between(sim, &topo, src.0, dst.0);
        let unroutable = qp_between(sim, &topo, src.0, cross.0);
        sim.run_flows(&[spec(qp)]);
        let now = sim.now();
        assert!(now > SimTime::ZERO);
        if i == 0 {
            for bad in [QpId(3), QpId(0)] {
                assert_eq!(sim.inject(spec(bad)), Err(NetError::UnknownQp(bad)));
            }
            let past = sim.inject_at(SimTime::ZERO, spec(qp));
            let at = SimTime::ZERO;
            assert_eq!(past, Err(NetError::PastStart { at, now }));
            let no_route = sim.inject(spec(unroutable));
            assert_eq!(no_route, Err(NetError::NoRoute(unroutable)));
        }
        let id = sim.inject(spec(qp)).expect("routed");
        assert_eq!(id.seq(), 1);
        sim.run_until_idle();
    }
    let [a, b] = &mut sims;
    assert_eq!(
        format!("{:?}", a.all_stats()),
        format!("{:?}", b.all_stats())
    );
    assert_eq!(a.now(), b.now());
    assert_eq!(a.take_trace(), b.take_trace());
    let (ta, tb) = (a.telemetry(), b.telemetry());
    assert!(ta.qp_bytes.iter().eq(tb.qp_bytes.iter()));
    assert_eq!(format!("{:?}", ta.link), format!("{:?}", tb.link));
    assert_eq!(
        format!("{:?}", a.solver_counters()),
        format!("{:?}", b.solver_counters())
    );
}

/// Queued events of a retired flow leave the next flow in its slot
/// alone, in two cases. A superseded completion notice: A sped up when C
/// finished, so A's first notice is still queued when A is retired, and
/// B, in A's slot, reaches the same completion epoch. An abort timer: D's
/// link healed within the RTO, so D finished with its timer queued, and
/// E, in D's slot, starts on the same link, failed again. B finishes and
/// E aborts exactly when they do in a twin that never retires.
#[test]
fn stale_events_of_a_retired_flow_leave_the_next_flow_alone() {
    let topo = fixture();
    let run = |retire: bool| {
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        let qp = qp_between(&mut sim, &topo, 0, 32);
        let spec = |mb: u64| FlowSpec {
            qp,
            bytes: mb * 1_000_000,
            weight: 1.0,
        };
        let retire_done = |sim: &mut NetworkSim, n: usize| {
            if retire {
                assert_eq!(sim.retire_finished(), n);
            }
        };
        let a = sim.inject(spec(25)).unwrap();
        sim.inject(spec(2)).unwrap();
        let t = SimTime::from_micros(1_500);
        sim.run_until(t);
        assert_eq!(sim.flow_outcome(a).unwrap().0, FlowState::Done);
        retire_done(&mut sim, 2);
        let b = sim.inject_at(t, spec(25)).unwrap();
        sim.run_until_idle();
        let b = sim.stats(b).unwrap();
        retire_done(&mut sim, 1);

        let t0 = sim.now();
        let d = sim.inject_at(t0, spec(1)).unwrap();
        let link = sim.stats(d).unwrap().path[1];
        sim.fail_link_at(t0 + SimDuration::from_micros(10), link);
        sim.restore_link_at(t0 + SimDuration::from_millis(1), link);
        sim.run_until(t0 + SimDuration::from_millis(2));
        assert_eq!(sim.flow_outcome(d).unwrap().0, FlowState::Done);
        retire_done(&mut sim, 1);
        let t1 = t0 + SimDuration::from_millis(2);
        sim.fail_link_at(t1, link);
        let e = sim.inject_at(t1, spec(1)).unwrap();
        sim.run_until_idle();
        let aborts: Vec<(u32, SimTime)> = sim
            .drain_flow_events()
            .into_iter()
            .filter_map(|ev| match ev {
                astral_net::FlowEvent::Aborted { flow, at, .. } => Some((flow.seq(), at)),
                astral_net::FlowEvent::Requeued { .. } => None,
            })
            .collect();
        assert_eq!(aborts, [(e.seq(), t1 + RTO)]);
        (b.finish, b.delivered.to_bits(), aborts)
    };
    assert_eq!(run(true), run(false));
}

//! Workspace-level integration tests: whole-system flows through the
//! public `astral` API only.

use astral::core::{AstralInfrastructure, PlacementPolicy};
use astral::model::{DpSync, GroupKind, ModelConfig, ParallelismConfig};
use astral::monitor::{Fault, ScenarioConfig};
use astral::seer::{GpuSpec, NetworkSpec, Seer, SeerConfig};
use astral::topo::{build_astral, AstralParams, HostId};

fn small_model() -> ModelConfig {
    let mut m = ModelConfig::llama3_8b();
    m.layers = 4;
    m.hidden = 1024;
    m.heads = 8;
    m.kv_heads = 2;
    m.ffn_hidden = 4096;
    m.vocab = 16000;
    m.seq_len = 1024;
    m
}

/// Deploy → place → evaluate → forecast: the full provider loop.
#[test]
fn deploy_place_evaluate_forecast() {
    let infra = AstralInfrastructure::deploy(AstralParams::sim_small());
    let model = small_model();
    let mut par = ParallelismConfig::new(4, 2, 4);
    par.microbatches = 4;

    let placement = infra.place(par.world(), PlacementPolicy::BlockLocal);
    let eval = infra.evaluate_training(&model, &par, placement);
    assert!(eval.iteration_s > 0.0);
    assert_eq!(eval.pods_touched, 1);

    // Seer calibrated against the same infrastructure must land close to
    // the measured run.
    let seer = infra.calibrated_seer(&par, 7);
    let f = seer.forecast_training(&model, &par);
    let dev = (f.iteration_s - eval.iteration_s).abs() / eval.iteration_s;
    assert!(
        dev < 0.15,
        "calibrated forecast {:.4}s vs measured {:.4}s ({:.1}% off)",
        f.iteration_s,
        eval.iteration_s,
        dev * 100.0
    );
}

/// The diagnosis loop catches an injected fault end to end through the
/// facade.
#[test]
fn fault_injection_to_diagnosis() {
    let infra = AstralInfrastructure::deploy(AstralParams::sim_small());
    for (fault, expect_host) in [
        (Fault::GpuXid { host: HostId(3) }, Some(HostId(3))),
        (
            Fault::PcieDegrade {
                host: HostId(1),
                factor: 0.25,
            },
            Some(HostId(1)),
        ),
        (Fault::UserCodeBug, None),
    ] {
        let d = infra.diagnose_fault(fault, &ScenarioConfig::default());
        match expect_host {
            Some(h) => assert_eq!(d.culprit, astral::monitor::Culprit::Host(h)),
            None => assert_eq!(d.culprit, astral::monitor::Culprit::Software),
        }
    }
}

/// Cross-DC planning: the Seer recommendation engine produces the paper's
/// ordering — ZeRO worst, TP catastrophic, PP/DP tolerable.
#[test]
fn crossdc_recommendation_ordering() {
    let model = small_model();
    let mut par = ParallelismConfig::new(4, 2, 8);
    par.microbatches = 4;
    let seer = |net: NetworkSpec, par: &ParallelismConfig| {
        Seer::new(SeerConfig {
            gpu: GpuSpec::h100(),
            net,
            calibration: astral::seer::Calibration::ideal(),
        })
        .forecast_training(&model, par)
        .iteration_s
    };
    let base = seer(NetworkSpec::astral(), &par);
    let tp = seer(
        NetworkSpec::astral().with_crossdc(GroupKind::Tp, 8.0, 300.0),
        &par,
    );
    let pp = seer(
        NetworkSpec::astral().with_crossdc(GroupKind::Pp, 8.0, 300.0),
        &par,
    );
    let dp = seer(
        NetworkSpec::astral().with_crossdc(GroupKind::Dp, 8.0, 300.0),
        &par,
    );
    let mut zpar = par;
    zpar.zero = DpSync::Zero3;
    let zero = seer(
        NetworkSpec::astral().with_crossdc(GroupKind::Dp, 8.0, 300.0),
        &zpar,
    );
    let zero_base = seer(NetworkSpec::astral(), &zpar);

    assert!(tp > pp && tp > dp, "TP must be the worst classic choice");
    assert!(
        (zero / zero_base) > (dp / base),
        "ZeRO-DP must degrade more than plain DP"
    );
    // Absolute PP tolerance is a property of realistic per-stage compute
    // (validated in the fig18 harness: 1.1% at 8:1); at toy scale the
    // 1.5 ms long-haul latency dominates, so only the ordering is asserted
    // here: PP must still beat TP by a wide margin.
    assert!(tp / pp > 3.0, "TP should dwarf PP cross-DC: {}", tp / pp);
}

/// Dual-ToR (P3): with single-ToR wiring an optical failure severs hosts;
/// with dual-ToR it only halves NIC bandwidth — flows keep completing.
#[test]
fn dual_tor_survives_optical_failure() {
    use astral::net::{FlowSpec, NetConfig, NetworkSim, QpContext};
    use astral::topo::GpuId;

    let mut single = AstralParams::sim_small();
    single.tors_per_rail = 1;
    // Keep ToR port math valid: with one port per NIC the uplink budget
    // halves too.
    single.nic_port_gbps = 400.0;
    let dual = AstralParams::sim_small();

    for (params, survives) in [(single, false), (dual, true)] {
        let topo = build_astral(&params);
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        let src = topo.gpu_nic(GpuId(0));
        let dst = topo.gpu_nic(GpuId(32));
        // Fail ONE of the source NIC's uplinks (one optical module).
        let first = topo.out_links(src)[0];
        sim.fail_link_at(astral::sim::SimTime::ZERO, first);
        sim.run_until(astral::sim::SimTime::from_micros(1));

        // Try several sports: with dual ToR, some hash onto the surviving
        // port; with single ToR every path dies.
        let mut any_ok = false;
        for sport in 49152..49152 + 16 {
            let qp = sim.register_qp(src, dst, sport, QpContext::anonymous());
            if let Ok(id) = sim.inject(FlowSpec {
                qp,
                bytes: 1 << 20,
                weight: 1.0,
            }) {
                sim.run_until_idle();
                if sim.stats(id).unwrap().state == astral::net::FlowState::Done {
                    any_ok = true;
                }
            }
        }
        assert_eq!(
            any_ok, survives,
            "single-ToR should sever, dual-ToR should survive"
        );
    }
}

/// The offline toolchain prevents fail-on-start: wiring mistakes and config
/// drift are caught before delivery.
#[test]
fn offline_checks_catch_predelivery_problems() {
    use astral::monitor::offline::{
        check_config_consistency, gpu_burn, verify_wiring, CablePlan, HostConfig, StressResult,
    };
    use astral::monitor::HostHealth;
    use astral::sim::SimRng;

    let topo = build_astral(&AstralParams::sim_small());
    let plan = CablePlan::from_topology(&topo);
    let mut rng = SimRng::new(99);
    let observed = plan.with_swaps(8, &mut rng);
    let mistakes = verify_wiring(&plan, &observed);
    assert!(!mistakes.is_empty(), "swapped cables must be detected");

    let mut configs: Vec<HostConfig> = (0..32).map(|h| HostConfig::standard(HostId(h))).collect();
    configs[9].nccl_version = "2.18.1".into();
    let devs = check_config_consistency(&configs);
    assert_eq!(devs.len(), 1);
    assert_eq!(devs[0].host, HostId(9));

    let mut sick = HostHealth::healthy(HostId(3));
    sick.gpu_xid = Some(79);
    assert_eq!(gpu_burn(&sick), StressResult::Fail);
}

/// Chakra-like trace interchange: a generated graph round-trips through
/// JSON and forecasts identically.
#[test]
fn chakra_trace_forecast_round_trip() {
    use astral::model::chakra;
    let model = small_model();
    let mut par = ParallelismConfig::new(2, 2, 2);
    par.microbatches = 2;
    let graph = astral::model::build_training_iteration(&model, &par);
    let json = chakra::to_json(&graph);
    let back = chakra::from_json(&json).expect("round trip");

    let seer = Seer::new(SeerConfig::h100_astral_basic());
    let a = seer.forecast_graph(&graph, &par);
    let b = seer.forecast_graph(&back, &par);
    assert_eq!(a.total, b.total);
}

/// The ECMP controller loop drains congestion on the real simulator.
#[test]
fn controller_drains_persistent_collisions() {
    use astral::net::{EcmpController, FlowSpec, NetConfig, NetworkSim, PlannedFlow, QpContext};
    use astral::topo::GpuId;

    let params = AstralParams::sim_small();
    let topo = build_astral(&params);
    let gpb = params.hosts_per_block as u32 * params.rails as u32;
    let ctl = EcmpController;
    let mut flows: Vec<PlannedFlow> = (0..8)
        .map(|i| PlannedFlow {
            src: topo.gpu_nic(GpuId(i * params.rails as u32)),
            dst: topo.gpu_nic(GpuId(gpb + i * params.rails as u32)),
            bytes: 64 << 20,
            sport: 50_000,
        })
        .collect();
    let mut first_ecn = None;
    let mut last_ecn = 0;
    for _ in 0..4 {
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
        first_ecn.get_or_insert(ecn);
        last_ecn = ecn;
        let hot: Vec<_> = sim
            .telemetry()
            .hottest_links_by_ecn(4)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        ctl.rebalance(&topo, sim.router(), &sim.config().hasher, &mut flows, &hot);
    }
    assert!(
        last_ecn < first_ecn.unwrap() || first_ecn == Some(0),
        "controller failed to drain ECN: {first_ecn:?} → {last_ecn}"
    );
}

/// The analyzer never panics on an arbitrary (empty/degenerate) snapshot.
#[test]
fn analyzer_is_total_on_degenerate_input() {
    use astral::monitor::{diagnose, CannedProber, CorrelationPrior, Snapshot};
    let prior = CorrelationPrior::default();
    let d = diagnose(&Snapshot::default(), &CannedProber::default(), &prior);
    assert_eq!(d.culprit, astral::monitor::Culprit::Unknown);
}

/// The closed-loop failure lifecycle engine: one run is hit by all three
/// Figure-7 fault classes (transient mid-fabric flap, optical dual-ToR
/// outage, hard host death) and recovers each — ECMP reroute, ToR
/// failover, cordon + spare + checkpoint restart — keeping goodput above
/// 0.8. The identical script with recovery disabled aborts. Deterministic
/// on the seeded clock.
#[test]
fn failure_lifecycle_recovers_three_fault_classes() {
    use astral::core::{
        try_run_training, FaultClass, FaultScript, InjectedFault, MitigationAction, RecoveryPolicy,
        TrainingJobSpec,
    };
    use astral::sim::SimDuration;

    let topo = build_astral(&AstralParams::sim_small());
    let spec = TrainingJobSpec {
        iters: 30,
        comp_s: 1.0,
        ..TrainingJobSpec::default()
    };
    let script = FaultScript {
        faults: vec![
            InjectedFault::TransientLink {
                at_iter: 3,
                heal_after: SimDuration::from_millis(30),
            },
            InjectedFault::OpticalUplink {
                at_iter: 12,
                host_index: 5,
            },
            InjectedFault::HostFailure {
                at_iter: 21,
                host_index: 2,
            },
        ],
    };

    let r =
        try_run_training(&topo, &RecoveryPolicy::default(), &spec, &script).expect("valid policy");
    assert!(r.completed, "incidents: {:?}", r.incidents);
    assert_eq!(r.iters_done, 30);
    assert!(r.goodput() > 0.8, "goodput {}", r.goodput());
    // Every injection had a non-empty blast radius the engine then healed.
    assert_eq!(r.injections.len(), 3);
    assert!(r.injections.iter().all(|i| i.blast_radius > 0));
    // All three classes were diagnosed, each with its own mitigation.
    let classes: Vec<FaultClass> = r.incidents.iter().map(|i| i.class).collect();
    assert!(classes.contains(&FaultClass::TransientLink));
    assert!(classes.contains(&FaultClass::OpticalDualTor));
    assert!(classes.contains(&FaultClass::HardHost));
    assert!(r
        .incidents
        .iter()
        .any(|i| i.action == MitigationAction::EcmpReroute));
    assert!(r
        .incidents
        .iter()
        .any(|i| i.action == MitigationAction::TorFailover));
    assert!(r
        .incidents
        .iter()
        .any(|i| i.action == MitigationAction::RestartFromCheckpoint && !i.cordoned.is_empty()));
    assert!(r.mttr_s().unwrap() > 0.0);
    assert!(r.mttlf_s().unwrap() > 0.0);

    // Same seed, recovery disabled: the first fault ends the job.
    let ablation =
        try_run_training(&topo, &RecoveryPolicy::disabled(), &spec, &script).expect("valid policy");
    assert!(!ablation.completed);
    assert_eq!(
        ablation.incidents.last().unwrap().action,
        MitigationAction::Abort
    );
    assert!(ablation.useful_s < r.useful_s);

    // Determinism: the exact same tuple reproduces the exact same report.
    let again =
        try_run_training(&topo, &RecoveryPolicy::default(), &spec, &script).expect("valid policy");
    assert_eq!(again.goodput(), r.goodput());
    assert_eq!(again.incidents.len(), r.incidents.len());
}

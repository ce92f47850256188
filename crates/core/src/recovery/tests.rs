use super::*;
use astral_sim::SimDuration;
use astral_topo::{build_astral, AstralParams, HostId, Topology};

fn topo() -> Topology {
    build_astral(&AstralParams::sim_small())
}

fn run(p: &RecoveryPolicy, s: &TrainingJobSpec, f: &FaultScript) -> RecoveryReport {
    try_run_training(&topo(), p, s, f).expect("valid policy and job")
}

/// A script of one fault.
fn one(fault: InjectedFault) -> FaultScript {
    FaultScript {
        faults: vec![fault],
    }
}

/// The incidents resolved with `action`, in detection order.
fn with_action(r: &RecoveryReport, action: MitigationAction) -> Vec<&Incident> {
    r.incidents.iter().filter(|i| i.action == action).collect()
}

fn quick_spec() -> TrainingJobSpec {
    TrainingJobSpec {
        iters: 10,
        bytes: 4 << 20,
        comp_s: 0.2,
        ..TrainingJobSpec::default()
    }
}

#[test]
fn healthy_run_has_full_goodput_minus_checkpoints() {
    let r = run(
        &RecoveryPolicy::default(),
        &quick_spec(),
        &FaultScript::default(),
    );
    assert!(r.completed);
    assert_eq!(r.iters_done, 10);
    assert!(r.incidents.is_empty());
    assert_eq!(r.downtime_s, 0.0);
    assert_eq!(r.lost_rollback_s, 0.0);
    assert!(r.goodput() > 0.97, "goodput {}", r.goodput());
    // A healthy fabric never needs the full-solve (PFC/degraded) path.
    assert!(r.solver.incremental_solves > 0);
    assert_eq!(r.solver.full_solves, 0);
}

#[test]
fn transient_link_is_rerouted_without_rollback() {
    let script = one(InjectedFault::TransientLink {
        at_iter: 3,
        heal_after: SimDuration::from_millis(30),
    });
    let r = run(&RecoveryPolicy::default(), &quick_spec(), &script);
    assert!(r.completed, "incidents: {:?}", r.incidents);
    assert_eq!(r.lost_rollback_s, 0.0);
    assert!(!r.incidents.is_empty());
    assert!(r
        .incidents
        .iter()
        .all(|i| i.action == MitigationAction::EcmpReroute));
    assert_eq!(r.injections.len(), 1);
    assert!(r.injections[0].blast_radius > 0);
    assert!(r.mttr_s().unwrap() < 1.0);
}

#[test]
fn optical_fault_fails_over_to_surviving_tor() {
    let script = one(InjectedFault::OpticalUplink {
        at_iter: 3,
        host_index: 2,
    });
    let r = run(&RecoveryPolicy::default(), &quick_spec(), &script);
    assert!(r.completed, "incidents: {:?}", r.incidents);
    assert!(r.incidents.iter().any(
        |i| i.class == FaultClass::OpticalDualTor && i.action == MitigationAction::TorFailover
    ));
    // Failover keeps the host: nothing cordoned, no rollback.
    assert!(r.incidents.iter().all(|i| i.cordoned.is_empty()));
    assert_eq!(r.lost_rollback_s, 0.0);
}

#[test]
fn hard_host_fault_is_cordoned_and_restarted() {
    let script = one(InjectedFault::HostFailure {
        at_iter: 6,
        host_index: 1,
    });
    let r = run(&RecoveryPolicy::default(), &quick_spec(), &script);
    assert!(r.completed, "incidents: {:?}", r.incidents);
    let hard: Vec<&Incident> = r
        .incidents
        .iter()
        .filter(|i| i.class == FaultClass::HardHost)
        .collect();
    assert_eq!(hard.len(), 1);
    assert_eq!(hard[0].cordoned, vec![HostId(1)]);
    assert_eq!(hard[0].action, MitigationAction::RestartFromCheckpoint);
    // Rolled back from iteration 6 to the checkpoint at 5.
    assert!(r.lost_rollback_s > 0.0);
}

#[test]
fn disabled_policy_aborts_on_first_fault() {
    let script = one(InjectedFault::HostFailure {
        at_iter: 2,
        host_index: 1,
    });
    let r = run(&RecoveryPolicy::disabled(), &quick_spec(), &script);
    assert!(!r.completed);
    assert_eq!(r.incidents.last().unwrap().action, MitigationAction::Abort);
}

#[test]
fn flapping_link_enters_probation_and_readmits() {
    let script = one(InjectedFault::FlappingLink {
        at_iter: 3,
        period: 3,
        duty_cycle: 0.34,
        flap_count: 3,
    });
    let spec = TrainingJobSpec {
        iters: 24,
        ..quick_spec()
    };
    let r = run(&RecoveryPolicy::gray_aware(), &spec, &script);
    assert!(r.completed, "incidents: {:?}", r.incidents);
    let probation = with_action(&r, MitigationAction::LinkProbation);
    assert_eq!(probation.len(), 1, "incidents: {:?}", r.incidents);
    assert_eq!(probation[0].class, FaultClass::FlappingLink);
    // The probe readmits the link once a full probation window passes
    // with no fresh flap edges; a mid-probation flap extends it first.
    let readmit = with_action(&r, MitigationAction::ProbeReadmit);
    assert_eq!(readmit.len(), 1, "incidents: {:?}", r.incidents);
    assert!(readmit[0].iter > probation[0].iter);
    assert_eq!(readmit[0].blamed, probation[0].blamed);
    // Probation is steering, not cordoning: no hosts touched, no
    // rollback, no spare consumed.
    assert!(r.quarantined.is_empty());
    assert_eq!(r.lost_rollback_s, 0.0);
    assert!(r.spares_claimed.is_empty());
}

#[test]
fn degrading_optic_fails_over_proactively() {
    let script = one(InjectedFault::DegradingOptic {
        at_iter: 3,
        host_index: 2,
        decay_per_iter: 0.8,
        floor: 0.3,
    });
    let spec = TrainingJobSpec {
        iters: 14,
        ..quick_spec()
    };
    let r = run(&RecoveryPolicy::gray_aware(), &spec, &script);
    assert!(r.completed, "incidents: {:?}", r.incidents);
    let failover = with_action(&r, MitigationAction::ProactiveTorFailover);
    assert_eq!(failover.len(), 1, "incidents: {:?}", r.incidents);
    assert_eq!(failover[0].class, FaultClass::DegradingOptic);
    // Both directions of the uplink get retired together.
    assert_eq!(failover[0].blamed.len(), 2);
    // BER creep never aborts a flow: the failover happens before the
    // fail-stop ladder ever fires, and nothing rolls back.
    assert!(r
        .incidents
        .iter()
        .all(|i| i.action != MitigationAction::EcmpReroute));
    assert_eq!(r.lost_rollback_s, 0.0);
    assert!(r.quarantined.is_empty());
}

#[test]
fn slow_host_is_quarantined_without_rollback() {
    let script = one(InjectedFault::SlowHost {
        at_iter: 4,
        host_index: 2,
        factor: 0.1,
        intermittent: false,
    });
    // Communication-significant: the 10x-slower host edge must push
    // the iteration past the online detector's 2x slowdown alarm.
    let spec = TrainingJobSpec {
        iters: 20,
        bytes: 256 << 20,
        comp_s: 0.01,
        ..TrainingJobSpec::default()
    };
    let gray = run(&RecoveryPolicy::gray_aware(), &spec, &script);
    assert!(gray.completed, "incidents: {:?}", gray.incidents);
    let quarantine = with_action(&gray, MitigationAction::Quarantine);
    assert_eq!(quarantine.len(), 1, "incidents: {:?}", gray.incidents);
    assert_eq!(quarantine[0].class, FaultClass::GrayStraggler);
    assert_eq!(quarantine[0].cordoned, vec![HostId(2)]);
    assert_eq!(gray.quarantined, vec![HostId(2)]);
    // Soft cordon: checkpoint at the boundary and swap — nothing lost.
    assert_eq!(gray.lost_rollback_s, 0.0);
    assert_eq!(gray.spares_claimed.len(), 1);

    // The reactive-only baseline keeps paying the blind-steer alarm
    // every slow iteration; quarantining once is strictly better.
    let reactive = run(&RecoveryPolicy::reactive_only(), &spec, &script);
    assert!(reactive.completed);
    assert!(reactive.quarantined.is_empty());
    assert!(
        gray.goodput() > reactive.goodput(),
        "gray {} vs reactive {}",
        gray.goodput(),
        reactive.goodput()
    );
}

#[test]
fn fail_stop_faults_never_trip_gray_mitigations() {
    // A transient (2 flap edges) and a hard host failure (1 edge per
    // link, never restored) are fail-stop vocabulary: the gray
    // detector must stay quiet and the run must match the
    // reactive-only baseline byte for byte.
    let script = FaultScript {
        faults: vec![
            InjectedFault::TransientLink {
                at_iter: 3,
                heal_after: SimDuration::from_millis(30),
            },
            InjectedFault::HostFailure {
                at_iter: 6,
                host_index: 1,
            },
        ],
    };
    let gray = run(&RecoveryPolicy::gray_aware(), &quick_spec(), &script);
    assert!(gray.completed, "incidents: {:?}", gray.incidents);
    assert!(gray.incidents.iter().all(|i| !matches!(
        i.action,
        MitigationAction::LinkProbation
            | MitigationAction::ProbeReadmit
            | MitigationAction::ProactiveTorFailover
            | MitigationAction::Quarantine
    )));
    assert!(gray.quarantined.is_empty());
    let reactive = run(&RecoveryPolicy::reactive_only(), &quick_spec(), &script);
    assert_eq!(gray.fingerprint(), reactive.fingerprint());
}

#[test]
fn gray_campaigns_are_deterministic() {
    let script = FaultScript {
        faults: vec![
            InjectedFault::FlappingLink {
                at_iter: 3,
                period: 3,
                duty_cycle: 0.34,
                flap_count: 3,
            },
            InjectedFault::SlowHost {
                at_iter: 10,
                host_index: 5,
                factor: 0.1,
                intermittent: true,
            },
            InjectedFault::TransientLink {
                at_iter: 15,
                heal_after: SimDuration::from_millis(30),
            },
        ],
    };
    let spec = TrainingJobSpec {
        iters: 26,
        bytes: 256 << 20,
        comp_s: 0.01,
        ..TrainingJobSpec::default()
    };
    let a = run(&RecoveryPolicy::gray_aware(), &spec, &script);
    let b = run(&RecoveryPolicy::gray_aware(), &spec, &script);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(a.completed, "incidents: {:?}", a.incidents);
}

#[test]
fn runs_are_deterministic() {
    let script = FaultScript {
        faults: vec![
            InjectedFault::TransientLink {
                at_iter: 2,
                heal_after: SimDuration::from_millis(30),
            },
            InjectedFault::HostFailure {
                at_iter: 6,
                host_index: 3,
            },
        ],
    };
    let a = run(&RecoveryPolicy::default(), &quick_spec(), &script);
    let b = run(&RecoveryPolicy::default(), &quick_spec(), &script);
    assert_eq!(a.goodput(), b.goodput());
    assert_eq!(a.incidents.len(), b.incidents.len());
    assert_eq!(a.useful_s, b.useful_s);
    assert_eq!(a.downtime_s, b.downtime_s);
}

//! End-to-end cascade tests: substrate faults flowing through the full
//! recovery lifecycle, graceful degradation vs the reactive ladder, and
//! campaign-level determinism.

use astral_collectives::RunnerConfig;
use astral_core::{
    try_run_campaign_battery_with, try_run_cascade_placed, try_run_training, CampaignRun,
    CascadeClass, CascadeReport, CascadeScript, FaultCampaign, FaultScript, HazardRates,
    InjectedFault, JobPlacement, MitigationAction, PolicyError, RecoveryPolicy, SubstrateFault,
    TrainingJobSpec,
};
use astral_monitor::{CauseClass, CorrelationPrior};
use astral_sim::SimDuration;
use astral_topo::{build_astral, AstralParams, HostId, Topology};
use astral_trace::TraceKind;
use proptest::prelude::*;

fn topo() -> Topology {
    build_astral(&AstralParams::sim_small())
}

/// One cascade run on the fleet-prefix placement with a private router.
fn try_cascade(
    t: &Topology,
    policy: &RecoveryPolicy,
    spec: &TrainingJobSpec,
    script: &CascadeScript,
    cfg: RunnerConfig,
) -> Result<CascadeReport, PolicyError> {
    let placement = JobPlacement::prefix(spec.hosts, spec.spares);
    try_run_cascade_placed(t, policy, spec, script, cfg, &placement, None)
}

fn cascade(p: &RecoveryPolicy, s: &TrainingJobSpec, c: &CascadeScript) -> CascadeReport {
    try_cascade(&topo(), p, s, c, RunnerConfig::default()).expect("valid policy")
}

fn cascade_spec() -> TrainingJobSpec {
    TrainingJobSpec {
        iters: 24,
        bytes: 4 << 20,
        comp_s: 0.2,
        seed: 11,
        ..TrainingJobSpec::default()
    }
}

/// A policy whose rollback/restart costs make the reactive path visibly
/// expensive (long checkpoint interval, slow restart).
fn contrast_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_interval: 10,
        restart_overhead_s: 1.0,
        ..RecoveryPolicy::default()
    }
}

fn pump_script() -> CascadeScript {
    CascadeScript {
        faults: vec![SubstrateFault::CoolingPumpFault {
            at_iter: 3,
            row: 0,
            flow_frac: 0.4,
        }],
        net_faults: Vec::new(),
    }
}

#[test]
fn unmitigated_cooling_cascade_ends_in_cordon_and_restart() {
    let policy = RecoveryPolicy {
        graceful_degradation: false,
        proactive_checkpoint: false,
        ..contrast_policy()
    };
    let r = cascade(&policy, &cascade_spec(), &pump_script());
    assert!(
        r.recovery.completed,
        "incidents: {:?}",
        r.recovery.incidents
    );
    // The cascade escalated: a rack crossed CRITICAL_C, the DCIM cordoned
    // it, and the job rolled back to its checkpoint.
    assert!(
        r.recovery
            .incidents
            .iter()
            .any(|i| i.action == MitigationAction::RestartFromCheckpoint && !i.cordoned.is_empty()),
        "expected a forced cordon restart, got {:?}",
        r.recovery.incidents
    );
    assert!(r.recovery.lost_rollback_s > 0.0);
    // No graceful levers on a reactive policy.
    assert!(r.recovery.incidents.iter().all(|i| !matches!(
        i.action,
        MitigationAction::FlowReroute
            | MitigationAction::PowerCapRideThrough
            | MitigationAction::MicroBatchRebalance
            | MitigationAction::ProactiveCheckpoint
    )));
    let goodput = r.recovery.goodput();
    assert!(goodput < 0.8, "reactive goodput {goodput} not degraded");
    // The analyzer still names the originating substrate.
    assert_eq!(r.attributions.len(), 1);
    assert_eq!(r.attributions[0].diagnosed, Some(CauseClass::Cooling));
    assert!(r.attributions[0].correct());
}

#[test]
fn graceful_degradation_rides_out_the_cooling_cascade() {
    let r = cascade(&contrast_policy(), &cascade_spec(), &pump_script());
    assert!(
        r.recovery.completed,
        "incidents: {:?}",
        r.recovery.incidents
    );
    // Flow reroute + thermal cap + rebalance held the row below critical:
    // no cordon, no rollback.
    assert!(r
        .recovery
        .incidents
        .iter()
        .any(|i| i.action == MitigationAction::FlowReroute));
    assert!(r
        .recovery
        .incidents
        .iter()
        .any(|i| i.action == MitigationAction::MicroBatchRebalance));
    assert!(r.recovery.incidents.iter().all(|i| i.cordoned.is_empty()));
    assert_eq!(r.recovery.lost_rollback_s, 0.0);
    // Throttled compute shows up as degraded time, not hidden in useful.
    assert!(r.recovery.degraded_s > 0.0);
    let goodput = r.recovery.goodput();
    assert!(goodput > 0.8, "graceful goodput {goodput} too low");
    assert_eq!(r.attributions[0].diagnosed, Some(CauseClass::Cooling));
}

#[test]
fn graceful_beats_reactive_on_the_same_cascade() {
    let reactive = RecoveryPolicy {
        graceful_degradation: false,
        proactive_checkpoint: false,
        ..contrast_policy()
    };
    let a = cascade(&reactive, &cascade_spec(), &pump_script());
    let b = cascade(&contrast_policy(), &cascade_spec(), &pump_script());
    assert!(
        b.recovery.goodput() > a.recovery.goodput(),
        "graceful {} ≤ reactive {}",
        b.recovery.goodput(),
        a.recovery.goodput()
    );
}

#[test]
fn power_cascade_caps_after_ride_through_and_is_attributed() {
    let script = CascadeScript {
        faults: vec![SubstrateFault::GridSag {
            at_iter: 4,
            row: 1,
            supply_frac: 0.6,
            duration_iters: 14,
            battery_wh_per_rack: 8.0,
        }],
        net_faults: Vec::new(),
    };
    let r = cascade(&contrast_policy(), &cascade_spec(), &script);
    assert!(
        r.recovery.completed,
        "incidents: {:?}",
        r.recovery.incidents
    );
    assert!(
        r.recovery
            .incidents
            .iter()
            .any(|i| i.action == MitigationAction::PowerCapRideThrough),
        "expected a ride-through, got {:?}",
        r.recovery.incidents
    );
    assert!(r.recovery.degraded_s > 0.0, "caps never throttled compute");
    assert_eq!(r.attributions.len(), 1);
    assert_eq!(r.attributions[0].class, CascadeClass::Power);
    assert_eq!(r.attributions[0].diagnosed, Some(CauseClass::PowerDelivery));
}

#[test]
fn a_generous_battery_absorbs_the_sag_without_a_trace() {
    let script = CascadeScript {
        faults: vec![SubstrateFault::GridSag {
            at_iter: 4,
            row: 1,
            supply_frac: 0.6,
            duration_iters: 8,
            battery_wh_per_rack: 200.0,
        }],
        net_faults: Vec::new(),
    };
    let r = cascade(&contrast_policy(), &cascade_spec(), &script);
    assert!(r.recovery.completed);
    // The battery rode the whole deficit: the cap never engaged, compute
    // never slowed, and there was nothing to diagnose.
    assert!(
        r.recovery.incidents.is_empty(),
        "{:?}",
        r.recovery.incidents
    );
    assert_eq!(r.recovery.degraded_s, 0.0);
    assert!(r.attributions.is_empty());
}

#[test]
fn optics_burst_flows_through_the_abort_path() {
    let script = CascadeScript {
        faults: vec![SubstrateFault::OpticsBurst {
            at_iter: 5,
            links: 2,
        }],
        net_faults: Vec::new(),
    };
    let r = cascade(&contrast_policy(), &cascade_spec(), &script);
    assert!(
        r.recovery.completed,
        "incidents: {:?}",
        r.recovery.incidents
    );
    assert_eq!(r.attributions.len(), 1);
    assert_eq!(r.attributions[0].class, CascadeClass::Optics);
    assert_eq!(r.attributions[0].diagnosed, Some(CauseClass::NicOrLink));
    assert!(r.attributions[0].blast_hosts >= 2);
}

#[test]
fn seer_gate_takes_a_proactive_checkpoint_during_the_ramp() {
    // Reactive mitigation ladder, but with the Seer gate on: the forecast
    // fires during the temperature ramp, so the eventual forced cordon
    // rolls back to a checkpoint taken iterations — not tens of
    // iterations — earlier.
    let policy = RecoveryPolicy {
        graceful_degradation: false,
        ..contrast_policy()
    };
    let r = cascade(&policy, &cascade_spec(), &pump_script());
    assert!(
        r.recovery.completed,
        "incidents: {:?}",
        r.recovery.incidents
    );
    let proactive: Vec<u32> = r
        .recovery
        .incidents
        .iter()
        .filter(|i| i.action == MitigationAction::ProactiveCheckpoint)
        .map(|i| i.iter)
        .collect();
    assert!(!proactive.is_empty(), "forecast never fired");
    let cordon_iter = r
        .recovery
        .incidents
        .iter()
        .find(|i| !i.cordoned.is_empty())
        .map(|i| i.iter)
        .expect("reactive ladder still ends in a cordon");
    assert!(proactive.iter().all(|&p| p <= cordon_iter));
    // Less work lost than the gate-less reactive run.
    let gateless = RecoveryPolicy {
        proactive_checkpoint: false,
        ..policy
    };
    let r0 = cascade(&gateless, &cascade_spec(), &pump_script());
    assert!(
        r.recovery.lost_rollback_s < r0.recovery.lost_rollback_s,
        "proactive {} ≥ gateless {}",
        r.recovery.lost_rollback_s,
        r0.recovery.lost_rollback_s
    );
}

#[test]
fn shared_router_battery_is_byte_identical_to_private_router_runs() {
    // The battery fast path warms one ECMP router and shares it across
    // every run; routing is a pure function of the topology (failures are
    // capacity-level inside each run's private simulator), so the shared
    // router must reproduce the private-router results byte for byte —
    // including runs whose faults force reroutes and failovers.
    let t = topo();
    // A training battery is a battery of scripted campaigns without
    // substrate faults.
    let runs: Vec<CampaignRun> = (0..4u64)
        .map(|i| {
            let spec = TrainingJobSpec {
                iters: 16,
                bytes: 2 << 20,
                comp_s: 0.2,
                seed: 31 + i,
                ..TrainingJobSpec::default()
            };
            let script = CascadeScript {
                faults: Vec::new(),
                net_faults: vec![
                    InjectedFault::TransientLink {
                        at_iter: 3 + i as u32,
                        heal_after: astral_sim::SimDuration::from_millis(40),
                    },
                    InjectedFault::OpticalUplink {
                        at_iter: 8,
                        host_index: i as usize,
                    },
                ],
            };
            let campaign = FaultCampaign::scripted(script, spec.seed);
            (RecoveryPolicy::default(), spec, campaign)
        })
        .collect();
    let pool = astral_exec::Pool::with_threads(4);
    let prior = CorrelationPrior::default();
    let battery =
        try_run_campaign_battery_with(&pool, &t, &runs, RunnerConfig::default(), prior).unwrap();
    for ((policy, spec, campaign), shared) in runs.iter().zip(&battery) {
        let script = FaultScript {
            faults: campaign.scripted.net_faults.clone(),
        };
        let private = try_run_training(&t, policy, spec, &script).unwrap();
        assert_eq!(
            shared.fingerprint(),
            private.fingerprint(),
            "shared-router battery diverged for seed {}",
            spec.seed
        );
    }
}

#[test]
fn invalid_policies_are_rejected_up_front() {
    let t = topo();
    let spec = cascade_spec();
    let cases: Vec<(RecoveryPolicy, PolicyError)> = vec![
        (
            RecoveryPolicy {
                checkpoint_interval: 0,
                ..RecoveryPolicy::default()
            },
            PolicyError::ZeroCheckpointInterval,
        ),
        (
            RecoveryPolicy {
                restart_overhead_s: f64::NAN,
                ..RecoveryPolicy::default()
            },
            PolicyError::BadCost {
                field: "restart_overhead_s",
                value: f64::NAN,
            },
        ),
    ];
    let same = |got: PolicyError, want: PolicyError| match (got, want) {
        // NaN costs never compare equal by value; match on the field.
        (PolicyError::BadCost { field: f1, .. }, PolicyError::BadCost { field: f2, .. }) => {
            assert_eq!(f1, f2)
        }
        (e, x) => assert_eq!(e, x),
    };
    for (policy, expected) in cases {
        let err = try_run_training(&t, &policy, &spec, &FaultScript::default())
            .expect_err("policy must be rejected");
        same(err, expected);
        let err = try_cascade(
            &t,
            &policy,
            &spec,
            &CascadeScript::default(),
            RunnerConfig::default(),
        )
        .expect_err("cascade runner shares the validation");
        same(err, expected);
    }
}

/// Run a host fault on a bad job shape, which must be rejected before
/// anything runs.
fn rejection(spec: &TrainingJobSpec, placement: &JobPlacement) -> PolicyError {
    let script = CascadeScript {
        faults: Vec::new(),
        net_faults: vec![InjectedFault::HostFailure {
            at_iter: 2,
            host_index: 0,
        }],
    };
    let (t, policy, cfg) = (topo(), RecoveryPolicy::default(), RunnerConfig::default());
    try_run_cascade_placed(&t, &policy, spec, &script, cfg, placement, None)
        .expect_err("a bad job shape must be rejected")
}

#[test]
fn zero_host_job_is_rejected() {
    let spec = TrainingJobSpec {
        hosts: 0,
        ..cascade_spec()
    };
    let err = rejection(&spec, &JobPlacement::prefix(0, spec.spares));
    assert_eq!(err, PolicyError::EmptyJob);
}

#[test]
fn placement_size_mismatch_is_rejected() {
    let spec = cascade_spec();
    let err = rejection(&spec, &JobPlacement::prefix(spec.hosts - 1, spec.spares));
    let (spec_hosts, placed) = (spec.hosts, spec.hosts - 1);
    assert_eq!(err, PolicyError::PlacementSize { spec_hosts, placed });
}

#[test]
fn duplicate_host_is_rejected() {
    let spec = cascade_spec();
    let mut placement = JobPlacement::prefix(spec.hosts, spec.spares);
    let host = placement.hosts[0];
    placement.spares.push(host);
    assert_eq!(
        rejection(&spec, &placement),
        PolicyError::DuplicateHost { host }
    );
}

#[test]
fn host_outside_fabric_is_rejected() {
    let spec = cascade_spec();
    let host = HostId(topo().hosts().len() as u32);
    let mut placement = JobPlacement::prefix(spec.hosts, spec.spares);
    placement.spares.push(host);
    assert_eq!(
        rejection(&spec, &placement),
        PolicyError::HostOutsideFabric { host }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Identical campaign seeds produce byte-identical reports — across
    /// repeated runs *and* across the global vs per-pod sharded solver
    /// (whose counters are excluded from the fingerprint).
    #[test]
    fn campaign_reports_are_byte_identical_across_runs_and_solvers(seed in 0u64..1000) {
        let t = topo();
        let spec = TrainingJobSpec { iters: 18, bytes: 2 << 20, comp_s: 0.2, seed, ..TrainingJobSpec::default() };
        let campaign = FaultCampaign {
            scripted: CascadeScript::default(),
            hazards: HazardRates { grid_sag: 0.05, pump: 0.05, optics: 0.04 },
            horizon_iters: spec.iters,
            seed,
        };
        let script = campaign.materialize();
        prop_assert_eq!(
            format!("{:?}", script.faults),
            format!("{:?}", campaign.materialize().faults)
        );
        let policy = RecoveryPolicy::default();
        let a = try_cascade(&t, &policy, &spec, &script, RunnerConfig::default()).unwrap();
        let b = try_cascade(&t, &policy, &spec, &script, RunnerConfig::default()).unwrap();
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        let mut sharded = RunnerConfig::default();
        sharded.net.sharded_solver = true;
        let c = try_cascade(&t, &policy, &spec, &script, sharded).unwrap();
        prop_assert_eq!(a.fingerprint(), c.fingerprint());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A campaign battery on pools of 1, 2, and 8 threads returns the
    /// same reports in the same order — fingerprints byte-identical to
    /// the serial loop, so parallelism is purely a wall-clock lever.
    #[test]
    fn campaign_battery_is_pool_width_invariant(base_seed in 0u64..500) {
        let t = topo();
        let runs: Vec<_> = (0..5u64)
            .map(|i| {
                let seed = base_seed + i;
                let spec = TrainingJobSpec {
                    iters: 18,
                    bytes: 2 << 20,
                    comp_s: 0.2,
                    seed,
                    ..TrainingJobSpec::default()
                };
                let campaign = FaultCampaign {
                    scripted: CascadeScript::default(),
                    hazards: HazardRates { grid_sag: 0.05, pump: 0.05, optics: 0.04 },
                    horizon_iters: spec.iters,
                    seed,
                };
                (RecoveryPolicy::default(), spec, campaign)
            })
            .collect();
        let fp = |reports: &[astral_core::CascadeReport]| -> Vec<String> {
            reports.iter().map(|r| r.fingerprint()).collect()
        };
        let prior = CorrelationPrior::default();
        let serial = try_run_campaign_battery_with(
            &astral_exec::Pool::with_threads(1), &t, &runs, RunnerConfig::default(), prior,
        ).unwrap();
        for threads in [2, 8] {
            let par = try_run_campaign_battery_with(
                &astral_exec::Pool::with_threads(threads), &t, &runs, RunnerConfig::default(), prior,
            ).unwrap();
            prop_assert_eq!(fp(&serial), fp(&par), "pool width {} diverged", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A script whose every fault is due at or after the last iteration
    /// never fires: the report (fingerprint, attributions, solver work) is
    /// the fault-free run's, for a training script and a cascade script.
    #[test]
    fn faults_after_the_last_iteration_change_nothing(seed in 0u64..1000, late in 0u32..3, p in 0usize..4) {
        let t = topo();
        let spec = TrainingJobSpec { iters: 8, bytes: 2 << 20, comp_s: 0.2, seed, ..TrainingJobSpec::default() };
        let policy = [RecoveryPolicy::default(), RecoveryPolicy::reactive_only(), RecoveryPolicy::gray_aware(), RecoveryPolicy::disabled()][p];
        let at_iter = spec.iters + late;
        let net_faults = vec![
            InjectedFault::TransientLink { at_iter, heal_after: SimDuration::from_millis(30) },
            InjectedFault::OpticalUplink { at_iter, host_index: 2 },
            InjectedFault::HostFailure { at_iter, host_index: 1 },
            InjectedFault::FlappingLink { at_iter, period: 3, duty_cycle: 0.34, flap_count: 3 },
            InjectedFault::DegradingOptic { at_iter, host_index: 3, decay_per_iter: 0.8, floor: 0.3 },
            InjectedFault::SlowHost { at_iter, host_index: 4, factor: 0.1, intermittent: false },
        ];
        let faults = vec![
            SubstrateFault::GridSag { at_iter, row: 0, supply_frac: 0.55, duration_iters: 8, battery_wh_per_rack: 6.0 },
            SubstrateFault::CoolingPumpFault { at_iter, row: 1, flow_frac: 0.4 },
            SubstrateFault::OpticsBurst { at_iter, links: 2 },
        ];
        let run = |script: &CascadeScript| try_cascade(&t, &policy, &spec, script, RunnerConfig::default()).unwrap();
        let clean = run(&CascadeScript::default());
        let training = CascadeScript { faults: Vec::new(), net_faults: net_faults.clone() };
        for late_run in [run(&training), run(&CascadeScript { faults, net_faults })] {
            prop_assert_eq!(late_run.fingerprint(), clean.fingerprint());
            prop_assert_eq!(late_run.recovery.solver, clean.recovery.solver);
        }
    }

    /// Every incident is recorded with its one `LadderDecision` trace
    /// record, on a traced gray campaign and a traced cascade campaign.
    #[test]
    fn every_incident_emits_one_ladder_decision(seed in 0u64..1000, p in 0usize..3) {
        let t = topo();
        let mut cfg = RunnerConfig::default();
        (cfg.net.trace, cfg.net.trace_capacity) = (true, 1 << 18);
        let policy = [RecoveryPolicy::default(), RecoveryPolicy::reactive_only(), RecoveryPolicy::gray_aware()][p];
        let gray = CascadeScript { faults: Vec::new(), net_faults: vec![
            InjectedFault::FlappingLink { at_iter: 3, period: 3, duty_cycle: 0.34, flap_count: 3 },
            InjectedFault::SlowHost { at_iter: 10, host_index: 5, factor: 0.1, intermittent: true },
            InjectedFault::TransientLink { at_iter: 15, heal_after: SimDuration::from_millis(30) },
        ] };
        let slow_comm = TrainingJobSpec { iters: 26, bytes: 256 << 20, comp_s: 0.01, seed, ..TrainingJobSpec::default() };
        let hazards = HazardRates { grid_sag: 0.08, pump: 0.05, optics: 0.06 };
        let campaign = FaultCampaign { scripted: pump_script(), hazards, horizon_iters: 24, seed };
        for (spec, script) in [(slow_comm, gray), (cascade_spec(), campaign.materialize())] {
            let r = try_cascade(&t, &policy, &spec, &script, cfg).unwrap().recovery;
            prop_assert!(r.trace.len() < 1 << 18, "the trace ring wrapped");
            prop_assert!(!r.incidents.is_empty());
            let decisions = r.trace.iter().filter(|x| x.kind() == Some(TraceKind::LadderDecision));
            prop_assert_eq!(decisions.count(), r.incidents.len());
        }
    }
}

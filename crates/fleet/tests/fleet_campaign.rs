//! End-to-end fleet-campaign tests: the blast-radius placement contrast
//! under a seeded cooling cascade, and campaign-level determinism across
//! pool widths and rate-solver modes.

use astral_collectives::RunnerConfig;
use astral_core::{AbortReason, RecoveryPolicy};
use astral_exec::Pool;
use astral_fleet::{
    try_run_fleet_campaign_traced, try_run_fleet_campaign_with, FleetCampaign, FleetError,
    FleetFault, FleetFaultConfig, FleetFaultKind, FleetPolicy, FleetReport, JobStatus,
    PlacementStrategy, WorkloadConfig,
};
use astral_topo::{build_astral, AstralParams, Topology};
use proptest::prelude::*;

fn topo() -> Topology {
    build_astral(&AstralParams::sim_small())
}

/// A campaign on the `ASTRAL_THREADS` pool and the default runner
/// configuration.
fn run_campaign(t: &Topology, policy: &FleetPolicy, campaign: &FleetCampaign) -> FleetReport {
    let (pool, cfg) = (Pool::from_env(), RunnerConfig::default());
    try_run_fleet_campaign_with(&pool, t, policy, campaign, cfg).expect("valid policy and campaign")
}

/// The headline contrast scenario: 8-host tenants arriving onto a 64-host
/// fleet while a degraded CDU loop keeps starving rack row 0 of airflow —
/// too little flow for graceful degradation to hold the row below
/// critical, so every projected fault ends in a forced cordon.
fn cascade_campaign() -> FleetCampaign {
    let faults: Vec<FleetFault> = (0..30)
        .map(|i| FleetFault {
            at_s: 5.0 + 15.0 * i as f64,
            row: 0,
            kind: FleetFaultKind::CoolingPump { flow_frac: 0.1 },
        })
        .collect();
    FleetCampaign {
        workload: WorkloadConfig {
            jobs: 6,
            mean_interarrival_s: 14.0,
            min_hosts: 8,
            max_hosts: 8,
            iters: (40, 60),
            seed: 21,
        },
        faults: FleetFaultConfig::scripted(faults),
    }
}

#[test]
fn naive_packing_strands_tenants_where_blast_radius_spreading_survives() {
    let t = topo();
    let campaign = cascade_campaign();
    // Same seeds, same fault timeline — only the policy differs.
    let naive = run_campaign(&t, &FleetPolicy::naive_packing(), &campaign);
    let blast = run_campaign(&t, &FleetPolicy::default(), &campaign);

    // First-fit packs whole tenants into the dying CDU loop with no spare
    // pool behind them: each cordon exhausts the (empty) spare set, each
    // requeue lands back on the lowest free ids, and the retry budget
    // drains until the tenants are stranded.
    assert!(
        naive.stranded_tenants >= 2,
        "naive packing stranded only {} tenants",
        naive.stranded_tenants
    );
    assert!(
        naive.jobs.iter().any(|j| matches!(
            j.status,
            JobStatus::Failed {
                reason: Some(AbortReason::SparesExhausted),
                ..
            }
        )),
        "expected SparesExhausted aborts under naive packing"
    );

    // Blast-radius spreading caps the per-loop co-location at what the
    // spare grant covers, so the same cascade costs each tenant at most a
    // couple of hosts — claimed from the shared pool — and the cluster
    // keeps training.
    assert_eq!(
        blast.stranded_tenants, 0,
        "blast-radius spreading stranded tenants: {:?}",
        blast.jobs
    );
    assert!(
        blast.cluster_goodput > 0.8,
        "blast-radius cluster goodput {} ≤ 0.8",
        blast.cluster_goodput
    );
    assert!(
        blast.spare_claims > 0,
        "survival must come from fleet spare claims"
    );
    assert!(
        blast.cluster_goodput > naive.cluster_goodput,
        "blast {} ≤ naive {}",
        blast.cluster_goodput,
        naive.cluster_goodput
    );
}

/// A fail-slow host keeps afflicting rack row 0: gray-aware recovery soft-
/// quarantines it inside each segment (spare swap, no abort), and the
/// quarantine verdicts land on the fleet avoid list so later placements
/// deprioritize the suspect capacity.
#[test]
fn gray_quarantines_feed_the_fleet_avoid_list() {
    let t = topo();
    let faults: Vec<FleetFault> = (0..12)
        .map(|i| FleetFault {
            at_s: 2.0 + 20.0 * i as f64,
            row: 0,
            kind: FleetFaultKind::SlowHost { factor: 0.25 },
        })
        .collect();
    let campaign = FleetCampaign {
        workload: WorkloadConfig {
            jobs: 4,
            mean_interarrival_s: 25.0,
            min_hosts: 8,
            max_hosts: 8,
            iters: (20, 30),
            seed: 7,
        },
        faults: FleetFaultConfig::scripted(faults),
    };
    // First-fit keeps packing tenants into row 0, straight onto the
    // fail-slow host.
    let gray = FleetPolicy {
        placement: PlacementStrategy::FirstFit,
        recovery: RecoveryPolicy::gray_aware(),
        ..FleetPolicy::default()
    };
    let report = run_campaign(&t, &gray, &campaign);
    assert!(
        report.gray_avoided > 0,
        "no quarantine verdict reached the fleet avoid list: {report:?}"
    );
    assert!(
        report.spare_claims > 0,
        "soft quarantine must swap in a spare"
    );
    assert_eq!(
        report.stranded_tenants, 0,
        "soft quarantine never kills a tenant: {:?}",
        report.jobs
    );
}

/// Why the controller rejects `campaign` under `policy`; it must do so
/// before simulating anything.
fn rejection(t: &Topology, policy: &FleetPolicy, campaign: &FleetCampaign) -> FleetError {
    let (pool, cfg) = (Pool::with_threads(1), RunnerConfig::default());
    match try_run_fleet_campaign_with(&pool, t, policy, campaign, cfg) {
        Ok(r) => panic!("campaign was not rejected: {r:?}"),
        Err(e) => e,
    }
}

#[test]
fn campaign_without_jobs_is_rejected() {
    let empty = FleetCampaign {
        workload: WorkloadConfig {
            jobs: 0,
            ..WorkloadConfig::default()
        },
        ..FleetCampaign::default()
    };
    let err = rejection(&topo(), &FleetPolicy::default(), &empty);
    assert_eq!(err, FleetError::EmptyWorkload);
}

#[test]
fn spare_pool_of_the_whole_fleet_is_rejected() {
    let t = topo();
    let fleet = t.hosts().len();
    let policy = FleetPolicy {
        spare_pool: fleet,
        ..FleetPolicy::default()
    };
    let err = rejection(&t, &policy, &FleetCampaign::default());
    assert_eq!(err, FleetError::PoolExceedsFleet { pool: fleet, fleet });
}

#[test]
fn fleet_fingerprint_is_pool_width_and_solver_invariant() {
    let t = topo();
    let campaign = FleetCampaign {
        workload: WorkloadConfig {
            jobs: 8,
            ..WorkloadConfig::default()
        },
        ..FleetCampaign::default()
    };
    let policy = FleetPolicy::default();
    let baseline = try_run_fleet_campaign_with(
        &Pool::with_threads(1),
        &t,
        &policy,
        &campaign,
        RunnerConfig::default(),
    )
    .unwrap()
    .fingerprint();
    for threads in [1, 2, 8] {
        for sharded in [false, true] {
            let mut cfg = RunnerConfig::default();
            cfg.net.sharded_solver = sharded;
            let fp = try_run_fleet_campaign_with(
                &Pool::with_threads(threads),
                &t,
                &policy,
                &campaign,
                cfg,
            )
            .unwrap()
            .fingerprint();
            assert_eq!(
                baseline, fp,
                "fingerprint diverged at {threads} threads, sharded={sharded}"
            );
        }
    }
}

/// The traced controller records its scheduling decisions without
/// perturbing them: every admission shows up as a timestamped record, the
/// spare-pool debits match the report, timestamps are monotone, and the
/// report fingerprint is byte-identical to the untraced entry point's.
#[test]
fn traced_campaign_records_scheduling_decisions_without_perturbing_them() {
    use astral_trace::TraceKind;
    let t = topo();
    let campaign = cascade_campaign();
    let policy = FleetPolicy::default();
    let untraced = run_campaign(&t, &policy, &campaign);
    let (traced, records) = try_run_fleet_campaign_traced(
        &Pool::with_threads(2),
        &t,
        &policy,
        &campaign,
        RunnerConfig::default(),
        0,
    )
    .unwrap();
    assert_eq!(untraced.fingerprint(), traced.fingerprint());

    let admissions = records
        .iter()
        .filter(|r| r.kind == TraceKind::Admission as u16)
        .count();
    let admitted = traced
        .jobs
        .iter()
        .filter(|j| j.first_admit_s.is_some())
        .count();
    assert!(admitted > 0, "campaign admitted nothing");
    assert!(
        admissions >= admitted,
        "{admissions} Admission records for {admitted} admitted tenants"
    );
    let claims: u64 = records
        .iter()
        .filter(|r| r.kind == TraceKind::SpareClaim as u16)
        .map(|r| u64::from(r.b))
        .sum();
    assert_eq!(claims, u64::from(traced.spare_claims), "claim debits match");
    assert!(
        records.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
        "fleet trace timestamps are not monotone"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Seeded fleet campaigns are deterministic: identical campaigns give
    /// byte-identical fingerprints across repeated runs and across pool
    /// widths 1 vs 2, for arbitrary workload seeds.
    #[test]
    fn fleet_campaigns_are_byte_identical_across_runs(seed in 0u64..500) {
        let t = topo();
        let campaign = FleetCampaign {
            workload: WorkloadConfig {
                jobs: 5,
                mean_interarrival_s: 12.0,
                iters: (8, 14),
                seed,
                ..WorkloadConfig::default()
            },
            faults: FleetFaultConfig {
                mean_interarrival_s: 90.0,
                horizon_s: 400.0,
                seed: seed ^ 0xabcd,
                ..FleetFaultConfig::default()
            },
        };
        let policy = FleetPolicy::default();
        let run = |threads: usize| {
            try_run_fleet_campaign_with(
                &Pool::with_threads(threads),
                &t,
                &policy,
                &campaign,
                RunnerConfig::default(),
            )
            .unwrap()
            .fingerprint()
        };
        let a = run(1);
        prop_assert_eq!(&a, &run(1), "serial replay diverged");
        prop_assert_eq!(&a, &run(2), "2-thread pool diverged");
    }
}

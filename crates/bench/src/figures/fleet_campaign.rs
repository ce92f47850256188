//! Fleet campaign — multi-tenant scheduling under a correlated cooling
//! cascade (§2.4 + §6): seeded job arrivals placed by six policy points
//! along the placement × spare-pool (× admission-estimator) axis, all run
//! against the *same* fault timeline and workload seeds.
//!
//! The headline contrast: first-fit packing with no spare pool lets a
//! single dying CDU loop strand whole tenants (each cordon exhausts the
//! empty spare set, each requeue lands back on the lowest free ids until
//! the retry budget drains), while blast-radius spreading caps per-loop
//! co-location at what the shared spare grant covers and the cluster
//! keeps training.
//!
//! Every campaign is replayed on 1-thread and 2-thread pools and the
//! report fingerprints are asserted byte-identical — the fleet
//! controller's serial-decision / parallel-simulation split is part of
//! the claim, not just the test suite.

use crate::{Report, Scenario};
use astral_collectives::RunnerConfig;
use astral_exec::Pool;
use astral_fleet::{
    try_run_fleet_campaign_with, FleetCampaign, FleetFault, FleetFaultConfig, FleetFaultKind,
    FleetPolicy, FleetReport, PlacementStrategy, WorkloadConfig,
};
use astral_topo::{build_astral, AstralParams, Topology};
use serde::{Serialize, Value};

/// The pinned contrast scenario: 8-host tenants arriving onto a 64-host
/// fleet while a degraded CDU pump keeps starving rack row 0 of flow —
/// too little for graceful degradation to hold the row below critical,
/// so every projected fault ends in a forced cordon.
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

/// The six policy points the sweep visits, naive → full stack → full
/// stack with Seer-backed admission estimates. The first five are the
/// pinned baseline contrast; the sixth swaps the fixed 1.25× planning
/// margin for a cached Seer what-if forecast at admission.
fn policies() -> [(&'static str, FleetPolicy); 6] {
    let spread_no_pool = FleetPolicy {
        placement: PlacementStrategy::BlastRadiusSpread,
        spare_pool: 0,
        spares_per_job: 0,
        ..FleetPolicy::default()
    };
    let first_fit_pool = FleetPolicy {
        placement: PlacementStrategy::FirstFit,
        ..FleetPolicy::default()
    };
    let rail_pool = FleetPolicy {
        placement: PlacementStrategy::RailAffine,
        ..FleetPolicy::default()
    };
    let seer_admit = FleetPolicy {
        seer_admission: true,
        ..FleetPolicy::default()
    };
    [
        ("first_fit/pool0", FleetPolicy::naive_packing()),
        ("first_fit/pool4", first_fit_pool),
        ("rail_affine/pool4", rail_pool),
        ("blast_radius/pool0", spread_no_pool),
        ("blast_radius/pool4", FleetPolicy::default()),
        ("blast_radius/seer", seer_admit),
    ]
}

/// Run one policy point on the given pool width.
fn simulate(
    topo: &Topology,
    policy: &FleetPolicy,
    campaign: &FleetCampaign,
    threads: usize,
) -> FleetReport {
    try_run_fleet_campaign_with(
        &Pool::with_threads(threads),
        topo,
        policy,
        campaign,
        RunnerConfig::default(),
    )
    .expect("fleet campaign failed")
}

/// The numbers each policy reports: the table's columns after `policy`,
/// and its metrics as `<policy>/<column>`.
const COLUMNS: &str = "policy | cluster_goodput | utilization | stranded_frac | fairness | queue_wait_p50_s | queue_wait_p99_s | completed | stranded_tenants | preemptions | spare_claims";

/// One policy's metrics; returns its table row.
fn record(sc: &mut Scenario, name: &str, r: &FleetReport) -> Vec<Value> {
    let row = vec![
        name.to_value(),
        r.cluster_goodput.to_value(),
        r.utilization.to_value(),
        r.stranded_frac.to_value(),
        r.fairness.to_value(),
        r.queue_wait_p50_s.to_value(),
        r.queue_wait_p99_s.to_value(),
        (r.completed as u64).to_value(),
        (r.stranded_tenants as u64).to_value(),
        (r.preemptions as u64).to_value(),
        (r.spare_claims as u64).to_value(),
    ];
    for (column, value) in COLUMNS.split(" | ").zip(&row).skip(1) {
        sc.metric(&format!("{name}/{column}"), value);
    }
    row
}

/// Acceptance criteria: the full stack beats naive packing on cluster
/// goodput under the same seeded cascade, survives without stranding,
/// and its survival is traceable to fleet spare claims.
fn check_acceptance(naive: &FleetReport, blast: &FleetReport, seer: &FleetReport) {
    assert!(
        blast.cluster_goodput > naive.cluster_goodput,
        "blast-radius {:.3} ≤ naive {:.3}",
        blast.cluster_goodput,
        naive.cluster_goodput
    );
    assert!(
        naive.stranded_tenants >= 2,
        "naive packing stranded only {} tenants",
        naive.stranded_tenants
    );
    assert_eq!(
        blast.stranded_tenants, 0,
        "blast-radius spreading stranded tenants"
    );
    assert!(
        blast.cluster_goodput > 0.8,
        "blast-radius goodput {:.3} ≤ 0.8",
        blast.cluster_goodput
    );
    assert!(
        blast.spare_claims > 0,
        "no spare claims under the full stack"
    );
    // The Seer-admission point changes only how wall-clock faults project
    // onto iteration clocks; the full placement stack must still survive.
    assert_eq!(
        seer.stranded_tenants, 0,
        "seer-admission point stranded tenants"
    );
    assert!(
        seer.cluster_goodput > 0.8,
        "seer-admission goodput {:.3} ≤ 0.8",
        seer.cluster_goodput
    );
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fleet_campaign",
        "Fleet campaign: placement x spare-pool policies under a cooling cascade",
        "blast-radius-aware spreading backed by a shared spare pool keeps \
         cluster goodput above 0.8 through a sustained CDU-loop cascade \
         that strands multiple tenants under naive first-fit packing — \
         same seeds, same fault timeline, byte-identical at any pool width",
    );

    let topo: Topology = build_astral(&AstralParams::sim_small());
    let campaign = cascade_campaign();

    let mut goodputs: Vec<(String, f64)> = Vec::new();
    let mut stranded: Vec<(String, f64)> = Vec::new();
    let mut frontier: Vec<(String, f64)> = Vec::new();
    let mut reports: Vec<(&str, FleetReport)> = Vec::new();
    let mut rows = Vec::new();
    for (name, policy) in policies() {
        let r = simulate(&topo, &policy, &campaign, 2);
        // Determinism is part of the headline claim: the same campaign on
        // a 1-thread pool must fingerprint byte-identically.
        let serial = simulate(&topo, &policy, &campaign, 1);
        assert_eq!(
            serial.fingerprint(),
            r.fingerprint(),
            "{name}: fleet fingerprint diverged between 1- and 2-thread pools"
        );
        rows.push(record(&mut sc, name, &r));
        goodputs.push((name.to_string(), r.cluster_goodput));
        stranded.push((name.to_string(), r.stranded_tenants as f64));
        // One frontier point per policy: how much fairness the policy buys
        // per unit of utilization it gives up (or keeps).
        frontier.push((format!("{name}@util={:.3}", r.utilization), r.fairness));
        reports.push((name, r));
    }
    sc.table("policy_points", COLUMNS, &rows);
    sc.series("policy_vs_goodput", &goodputs);
    sc.series("policy_vs_stranded_tenants", &stranded);
    sc.series("fairness_vs_utilization", &frontier);

    let naive = &reports[0].1;
    let blast = &reports[4].1;
    let seer = &reports[5].1;

    check_acceptance(naive, blast, seer);

    sc.finish(&[
        (
            "blast-radius vs naive",
            format!(
                "cluster goodput {:.3} blast-radius/pool4 vs {:.3} first-fit/pool0 \
                 ({} vs {} stranded tenants, same seeds)",
                blast.cluster_goodput,
                naive.cluster_goodput,
                blast.stranded_tenants,
                naive.stranded_tenants
            ),
        ),
        (
            "spare-pool claims",
            format!(
                "{} fleet spare claims absorbed the cascade's cordons under the full stack",
                blast.spare_claims
            ),
        ),
        (
            "seer admission",
            format!(
                "swapping the fixed 1.25x planning margin for cached Seer forecasts holds \
                 goodput at {:.3} (vs {:.3} with the margin) and strands {} tenants",
                seer.cluster_goodput, blast.cluster_goodput, seer.stranded_tenants
            ),
        ),
        (
            "determinism",
            "every policy point fingerprints byte-identically on 1- and 2-thread pools".to_string(),
        ),
    ])
}

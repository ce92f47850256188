//! Gray-failure campaign — the intermittent/partial fault family (§5.3):
//! a seeded campaign mixing gray faults (flapping link, degrading optic,
//! fail-slow host) with fail-stop vocabulary (transient link, hard host
//! failure), replayed under the reactive-only ladder and under the
//! gray-aware policy — suspicion-scored probation for flappers, proactive
//! dual-ToR failover for BER creep, soft quarantine for gray stragglers.
//!
//! The headline contrast: the reactive ladder pays the blind-steer alarm
//! on every slow iteration (gray faults never trip its fail-stop
//! detectors cleanly), while the gray-aware policy converts recurring
//! suspicion into one decisive mitigation each. Same seeds, same script —
//! strictly better goodput, and a clean campaign draws zero gray
//! verdicts (no false cordons).
//!
//! Determinism is part of the claim: every run is replayed through the
//! battery pool at 1/2/8 threads and on the per-pod sharded rate solver,
//! and all fingerprints must be byte-identical.

use crate::{dump_trace_artifact, Report, Scenario};
use astral_collectives::RunnerConfig;
use astral_core::{
    try_run_campaign_battery_with, try_run_cascade_placed, CampaignRun, CascadeScript,
    FaultCampaign, InjectedFault, JobPlacement, MitigationAction, RecoveryPolicy, RecoveryReport,
    TraceReplayer, TrainingJobSpec,
};
use astral_exec::Pool;
use astral_monitor::CorrelationPrior;
use astral_sim::SimDuration;
use astral_topo::{build_astral, AstralParams, Topology};
use serde::{Serialize, Value};

/// The pinned mixed campaign: three gray faults interleaved with two
/// fail-stop faults, on a communication-significant job so partial
/// capacity loss is visible in iteration time.
fn campaign_script() -> CascadeScript {
    CascadeScript {
        faults: Vec::new(),
        net_faults: vec![
            InjectedFault::FlappingLink {
                at_iter: 3,
                period: 3,
                duty_cycle: 0.34,
                flap_count: 3,
            },
            InjectedFault::DegradingOptic {
                at_iter: 8,
                host_index: 4,
                decay_per_iter: 0.8,
                floor: 0.3,
            },
            InjectedFault::SlowHost {
                at_iter: 14,
                host_index: 2,
                factor: 0.1,
                intermittent: false,
            },
            InjectedFault::TransientLink {
                at_iter: 18,
                heal_after: SimDuration::from_millis(30),
            },
            InjectedFault::HostFailure {
                at_iter: 22,
                host_index: 6,
            },
        ],
    }
}

fn spec() -> TrainingJobSpec {
    TrainingJobSpec {
        iters: 28,
        bytes: 256 << 20,
        comp_s: 0.01,
        ..TrainingJobSpec::default()
    }
}

fn is_gray_action(a: MitigationAction) -> bool {
    matches!(
        a,
        MitigationAction::LinkProbation
            | MitigationAction::ProbeReadmit
            | MitigationAction::ProactiveTorFailover
            | MitigationAction::Quarantine
    )
}

fn gray_actions(r: &RecoveryReport) -> usize {
    r.incidents
        .iter()
        .filter(|i| is_gray_action(i.action))
        .count()
}

fn simulate(
    topo: &Topology,
    policy: &RecoveryPolicy,
    script: &CascadeScript,
    cfg: RunnerConfig,
) -> RecoveryReport {
    try_run_cascade_placed(
        topo,
        policy,
        &spec(),
        script,
        cfg,
        &JobPlacement::prefix(spec().hosts, spec().spares),
        None,
    )
    .expect("gray policy validates")
    .recovery
}

/// The numbers each policy reports: the table's columns after `policy`,
/// and its metrics as `<policy>/<column>`.
const COLUMNS: &str = "policy | goodput | mttlf_s | downtime_s | degraded_s | incidents | gray_actions | quarantined | spares_claimed";

/// One policy's metrics and solver work; returns its table row.
fn record(sc: &mut Scenario, name: &str, r: &RecoveryReport) -> Vec<Value> {
    sc.solver(&r.solver);
    let row = vec![
        name.to_value(),
        r.goodput().to_value(),
        r.mttlf_s().unwrap_or(0.0).to_value(),
        r.downtime_s.to_value(),
        r.degraded_s.to_value(),
        (r.incidents.len() as u64).to_value(),
        (gray_actions(r) as u64).to_value(),
        (r.quarantined.len() as u64).to_value(),
        (r.spares_claimed.len() as u64).to_value(),
    ];
    for (column, value) in COLUMNS.split(" | ").zip(&row).skip(1) {
        sc.metric(&format!("{name}/{column}"), value);
    }
    row
}

/// Determinism: the three runs (reactive-only and gray-aware on `script`,
/// gray-aware on a clean campaign) through the battery pool at 1, 2 and 8
/// threads, and the faulty pair on the sharded per-pod solver, must
/// fingerprint byte-identically to the serial runs in `want`.
fn check_determinism(topo: &Topology, script: &CascadeScript, want: &[String; 3]) {
    let scripted = |s: &CascadeScript| FaultCampaign::scripted(s.clone(), spec().seed);
    let runs: Vec<CampaignRun> = vec![
        (RecoveryPolicy::reactive_only(), spec(), scripted(script)),
        (RecoveryPolicy::gray_aware(), spec(), scripted(script)),
        (
            RecoveryPolicy::gray_aware(),
            spec(),
            scripted(&CascadeScript::default()),
        ),
    ];
    for threads in [1usize, 2, 8] {
        let (pool, prior) = (Pool::with_threads(threads), CorrelationPrior::default());
        let got = try_run_campaign_battery_with(&pool, topo, &runs, RunnerConfig::default(), prior)
            .expect("battery policies validate");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                &g.recovery.fingerprint(),
                w,
                "fingerprint diverged on the {threads}-thread pool"
            );
        }
    }
    let mut sharded_cfg = RunnerConfig::default();
    sharded_cfg.net.sharded_solver = true;
    for (policy, want) in [
        (RecoveryPolicy::reactive_only(), &want[0]),
        (RecoveryPolicy::gray_aware(), &want[1]),
    ] {
        let r = simulate(topo, &policy, script, sharded_cfg);
        assert_eq!(
            &r.fingerprint(),
            want,
            "fingerprint diverged on the sharded solver"
        );
    }
}

/// The runner configuration of the traced runs: defaults, trace ring on.
fn traced_cfg() -> RunnerConfig {
    let mut cfg = RunnerConfig::default();
    cfg.net.trace = true;
    cfg
}

/// The trace of the gray-aware campaign on `sim_small`: the recording
/// `fig_gray_failure` replays and dumps as its
/// `fig_gray_failure_gray_aware` artifact.
pub fn gray_aware_trace() -> Vec<astral_trace::TraceRecord> {
    let topo = build_astral(&AstralParams::sim_small());
    let policy = RecoveryPolicy::gray_aware();
    let recorded = simulate(&topo, &policy, &campaign_script(), traced_cfg());
    recorded.trace.clone()
}

/// Trace + replay: re-run the gray-aware campaign with the structured
/// trace ring on, re-drive the recorded timeline through the replayer,
/// and hard-assert report and timeline reproduce byte for byte. The
/// recording is dumped to $ASTRAL_TRACE_DIR so a CI failure ships the
/// exact timeline that diverged as an artifact. Returns the number of
/// records.
fn replay_traced(topo: &Topology, script: &CascadeScript, gray: &RecoveryReport) -> u64 {
    let traced_cfg = traced_cfg();
    let recorded = simulate(topo, &RecoveryPolicy::gray_aware(), script, traced_cfg);
    assert_eq!(
        recorded.fingerprint(),
        gray.fingerprint(),
        "enabling the trace ring perturbed the gray-aware run"
    );
    let replayer = TraceReplayer::from_report(&recorded);
    let (outcome, _) = replayer
        .replay(
            topo,
            &RecoveryPolicy::gray_aware(),
            &spec(),
            script,
            &JobPlacement::prefix(spec().hosts, spec().spares),
            None,
            traced_cfg,
        )
        .expect("replay validates");
    outcome.assert_identical();
    dump_trace_artifact("fig_gray_failure_gray_aware", &recorded.trace);
    recorded.trace.len() as u64
}

/// Acceptance criteria: both policies finish the campaign, gray-aware
/// strictly wins goodput at the same seed, every gray fault family
/// drew its decisive mitigation, and a clean run draws zero gray
/// verdicts (no false quarantines).
fn check_acceptance(reactive: &RecoveryReport, gray: &RecoveryReport, gray_clean: &RecoveryReport) {
    assert!(reactive.completed, "reactive run aborted");
    assert!(gray.completed, "gray-aware run aborted");
    assert!(
        gray.goodput() > reactive.goodput(),
        "gray-aware {:.3} ≤ reactive {:.3}",
        gray.goodput(),
        reactive.goodput()
    );
    assert!(
        count(gray, MitigationAction::LinkProbation) > 0.0
            && count(gray, MitigationAction::ProactiveTorFailover) > 0.0
            && count(gray, MitigationAction::Quarantine) > 0.0,
        "a gray fault family went unhandled: {:?}",
        gray.incidents
    );
    assert!(
        reactive.quarantined.is_empty() && gray_actions(reactive) == 0,
        "the reactive baseline must not take gray actions"
    );
    assert!(
        gray_clean.completed
            && gray_actions(gray_clean) == 0
            && gray_clean.quarantined.is_empty()
            && gray_clean.incidents.is_empty(),
        "clean campaign drew gray verdicts: {:?}",
        gray_clean.incidents
    );
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig_gray_failure",
        "Gray failures: suspicion-scored probation, proactive failover, soft quarantine",
        "under a seeded campaign mixing flapping links, degrading optics and \
         fail-slow hosts with fail-stop faults, the gray-aware policy converts \
         recurring suspicion into one decisive mitigation each and beats the \
         reactive-only ladder on goodput at identical seeds, while a clean \
         campaign draws zero gray verdicts — byte-identical at any pool width \
         and on the sharded rate solver",
    );

    let topo: Topology = build_astral(&AstralParams::sim_small());
    let script = campaign_script();
    let cfg = RunnerConfig::default();

    let reactive = simulate(&topo, &RecoveryPolicy::reactive_only(), &script, cfg);
    let gray = simulate(&topo, &RecoveryPolicy::gray_aware(), &script, cfg);
    let gray_clean = simulate(
        &topo,
        &RecoveryPolicy::gray_aware(),
        &CascadeScript::default(),
        cfg,
    );
    let rows = [
        record(&mut sc, "reactive_only", &reactive),
        record(&mut sc, "gray_aware", &gray),
        record(&mut sc, "gray_clean", &gray_clean),
    ];
    sc.table("policies", COLUMNS, &rows);
    let goodputs: Vec<_> = rows.iter().map(|r| (&r[0], &r[1])).collect();
    sc.series("policy_vs_goodput", &goodputs);
    let mix = [
        ("probation", MitigationAction::LinkProbation),
        ("readmit", MitigationAction::ProbeReadmit),
        ("proactive_failover", MitigationAction::ProactiveTorFailover),
        ("quarantine", MitigationAction::Quarantine),
    ];
    sc.series(
        "gray_action_mix",
        &mix.map(|(name, a)| (name, count(&gray, a))),
    );

    let want = [&reactive, &gray, &gray_clean].map(RecoveryReport::fingerprint);
    check_determinism(&topo, &script, &want);
    sc.metric("trace_records", replay_traced(&topo, &script, &gray));
    check_acceptance(&reactive, &gray, &gray_clean);

    sc.finish(&[
        (
            "gray-aware vs reactive",
            format!(
                "goodput {:.3} gray-aware vs {:.3} reactive-only on the same \
                 seeded mixed campaign ({} gray mitigations vs {})",
                gray.goodput(),
                reactive.goodput(),
                gray_actions(&gray),
                gray_actions(&reactive),
            ),
        ),
        (
            "no false cordons",
            format!(
                "clean campaign: {} gray verdicts, {} quarantined hosts, goodput {:.3}",
                gray_actions(&gray_clean),
                gray_clean.quarantined.len(),
                gray_clean.goodput()
            ),
        ),
        (
            "determinism",
            "all runs fingerprint byte-identically at 1/2/8-thread pools and on \
             the sharded per-pod rate solver"
                .to_string(),
        ),
    ])
}

fn count(r: &RecoveryReport, action: MitigationAction) -> f64 {
    r.incidents.iter().filter(|i| i.action == action).count() as f64
}

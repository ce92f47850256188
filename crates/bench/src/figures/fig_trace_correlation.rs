//! Trace-mined correlation prior for root-cause localization.
//!
//! The misdiagnosis this figure quantifies: the analyzer's baseline
//! drill-down consults cumulative errCQE evidence before substrate
//! telemetry, so once *any* comm fault has landed in a run, a later
//! cooling or power cascade is blamed on NIC/link — the comm fault's
//! stale counters shadow the real origin. The trace layer fixes this
//! without touching the analyzer's evidence: mine the recorded event
//! timeline for co-occurrence windows ([`CorrelationMiner`]), observe
//! that substrate onsets land in windows *free* of comm faults, and hand
//! the analyzer a [`CorrelationPrior`] that orders the substrate branch
//! first when that independence holds.
//!
//! The campaign battery mixes all three cascade classes with an early
//! transient-link fault (the Figure-7 mix: comm faults dominate the
//! population, substrate cascades ride alongside). Accuracy and MTTLF
//! are measured with and without the mined prior on byte-identical
//! seeds; the recorded timelines are replayed through [`TraceReplayer`]
//! and everything must fingerprint byte-identically at 1/2/8-thread
//! pools.

use crate::{dump_trace_artifact, Report, Scenario};
use astral_collectives::RunnerConfig;
use astral_core::{
    try_run_campaign_battery_with, CampaignRun, CascadeClass, CascadeReport, CascadeScript,
    FaultCampaign, HazardRates, InjectedFault, RecoveryPolicy, SubstrateFault, TraceReplayer,
    TrainingJobSpec,
};
use astral_exec::Pool;
use astral_monitor::mttlf::{ANALYZER_BASE_S, ANALYZER_QUERY_S};
use astral_monitor::{CorrelationMiner, CorrelationPrior};
use astral_sim::SimDuration;
use astral_topo::{build_astral, AstralParams, Topology};
use astral_trace::{fingerprint, TraceKind};

/// The substrate cascade classes, in campaign and table order.
const CLASSES: [CascadeClass; 3] = [
    CascadeClass::Cooling,
    CascadeClass::Power,
    CascadeClass::Optics,
];

/// One run per (class, seed): an early transient-link fault seeds the
/// cumulative errCQE counters, then the substrate cascade lands mid-run.
fn campaign_runs() -> Vec<CampaignRun> {
    let mut runs = Vec::new();
    for (ci, &class) in CLASSES.iter().enumerate() {
        for s in 0..3u64 {
            let seed = 100 * ci as u64 + s;
            let substrate = match class {
                CascadeClass::Cooling => SubstrateFault::CoolingPumpFault {
                    at_iter: 10 + s as u32,
                    row: 0,
                    flow_frac: 0.4,
                },
                CascadeClass::Power => SubstrateFault::GridSag {
                    at_iter: 10 + s as u32,
                    row: 0,
                    supply_frac: 0.55,
                    duration_iters: 8,
                    battery_wh_per_rack: 6.0,
                },
                CascadeClass::Optics => SubstrateFault::OpticsBurst {
                    at_iter: 10 + s as u32,
                    links: 3,
                },
            };
            let spec = TrainingJobSpec {
                iters: 26,
                bytes: 2 << 20,
                comp_s: 0.2,
                seed,
                ..TrainingJobSpec::default()
            };
            let script = CascadeScript {
                faults: vec![substrate],
                net_faults: vec![InjectedFault::TransientLink {
                    at_iter: 2,
                    heal_after: SimDuration::from_millis(30),
                }],
            };
            runs.push((
                RecoveryPolicy::default(),
                spec,
                FaultCampaign {
                    scripted: script,
                    hazards: HazardRates::none(),
                    horizon_iters: 26,
                    seed,
                },
            ));
        }
    }
    runs
}

fn traced_cfg() -> RunnerConfig {
    let mut cfg = RunnerConfig::default();
    cfg.net.trace = true;
    cfg
}

/// (correct, injected) over one class's attributions.
fn class_accuracy(reports: &[CascadeReport], class: CascadeClass) -> (usize, usize) {
    let mut correct = 0;
    let mut total = 0;
    for r in reports {
        for a in r.attributions.iter().filter(|a| a.class == class) {
            total += 1;
            correct += usize::from(a.correct());
        }
    }
    (correct, total)
}

/// Mean time-to-locate over every substrate diagnosis in the recorded
/// timelines, priced by the Figure-10 analyzer cost model: each
/// `SubstrateDiagnosis` record carries the drill-down's query count in
/// `v`.
fn mttlf_from_traces(reports: &[CascadeReport]) -> f64 {
    let mut total = 0.0;
    let mut n = 0u32;
    for r in reports {
        for rec in &r.recovery.trace {
            if rec.kind == TraceKind::SubstrateDiagnosis as u16 {
                total += ANALYZER_BASE_S + rec.v as f64 * ANALYZER_QUERY_S;
                n += 1;
            }
        }
    }
    if n > 0 {
        total / f64::from(n)
    } else {
        0.0
    }
}

fn batch(
    pool: &Pool,
    topo: &Topology,
    runs: &[CampaignRun],
    prior: CorrelationPrior,
) -> Vec<CascadeReport> {
    try_run_campaign_battery_with(pool, topo, runs, traced_cfg(), prior)
        .expect("campaign policies validate")
}

/// Attribution accuracy over every class.
fn overall_accuracy(reports: &[CascadeReport]) -> f64 {
    let (c, t) = CLASSES
        .iter()
        .map(|&cl| class_accuracy(reports, cl))
        .fold((0, 0), |(ac, at), (c, t)| (ac + c, at + t));
    c as f64 / t.max(1) as f64
}

/// Per-class correct/injected counts, baseline against with-prior.
fn class_table(sc: &mut Scenario, baseline: &[CascadeReport], with_prior: &[CascadeReport]) {
    println!(
        "\n{:>10} {:>16} {:>16}",
        "class", "baseline acc", "with-prior acc"
    );
    let mut series = Vec::new();
    for &class in &CLASSES {
        let (bc, bt) = class_accuracy(baseline, class);
        let (pc, pt) = class_accuracy(with_prior, class);
        println!(
            "{:>10} {:>13}/{:<2} {:>13}/{:<2}",
            class.to_string(),
            bc,
            bt,
            pc,
            pt
        );
        sc.metric(&format!("{class}/baseline_correct"), bc as u64);
        sc.metric(&format!("{class}/prior_correct"), pc as u64);
        sc.metric(&format!("{class}/injected"), bt as u64);
        series.push((
            class.to_string(),
            (bc as f64 / bt.max(1) as f64, pc as f64 / pt.max(1) as f64),
        ));
    }
    sc.series("accuracy_by_class", &series);
}

/// Replay: re-drive the whole recorded battery and hard-assert every run
/// reproduced byte for byte, report and timeline. Determinism: the full
/// with-prior battery at 1/2/8-thread pools must fingerprint
/// byte-identically, reports *and* recorded timelines.
fn check_replay(
    pool: &Pool,
    topo: &Topology,
    runs: &[CampaignRun],
    prior: CorrelationPrior,
    with_prior: &[CascadeReport],
) {
    let replayed = batch(pool, topo, runs, prior);
    for (recorded, rerun) in with_prior.iter().zip(&replayed) {
        TraceReplayer::from_report(&recorded.recovery)
            .verify(&rerun.recovery)
            .assert_identical();
    }
    let want_reports: Vec<String> = with_prior.iter().map(|r| r.fingerprint()).collect();
    let want_traces: Vec<u64> = with_prior
        .iter()
        .map(|r| fingerprint(&r.recovery.trace))
        .collect();
    for threads in [1usize, 2, 8] {
        let got = batch(&Pool::with_threads(threads), topo, runs, prior);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(
                g.fingerprint(),
                want_reports[i],
                "report fingerprint diverged on the {threads}-thread pool (run {i})"
            );
            assert_eq!(
                fingerprint(&g.recovery.trace),
                want_traces[i],
                "trace fingerprint diverged on the {threads}-thread pool (run {i})"
            );
        }
    }
}

/// Acceptance criteria: the prior must actually have fired, never hurt
/// any class, and strictly improve at least one substrate class the
/// baseline misdiagnoses (cooling is the canonical victim).
fn check_acceptance(
    prior: &CorrelationPrior,
    baseline: &[CascadeReport],
    with_prior: &[CascadeReport],
) {
    let (acc_base, acc_prior) = (overall_accuracy(baseline), overall_accuracy(with_prior));
    assert!(
        prior.suggests_substrate_first(),
        "mined prior did not engage: {prior:?}"
    );
    assert!(
        acc_prior >= acc_base,
        "prior hurt overall accuracy: {acc_base:.3} → {acc_prior:.3}"
    );
    for &class in &CLASSES {
        let (bc, _) = class_accuracy(baseline, class);
        let (pc, _) = class_accuracy(with_prior, class);
        assert!(pc >= bc, "prior hurt {class}: {bc} → {pc}");
    }
    let (bc, bt) = class_accuracy(baseline, CascadeClass::Cooling);
    let (pc, _) = class_accuracy(with_prior, CascadeClass::Cooling);
    assert!(
        pc > bc,
        "prior did not strictly improve the cooling class: {bc}/{bt} → {pc}/{bt}"
    );
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig_trace_correlation",
        "Trace-mined correlation prior: substrate-first drill-down when onsets are independent",
        "mining the recorded event timeline for anomaly-signal co-occurrence \
         shows cooling/power onsets landing in windows free of comm faults; \
         feeding that prior to the analyzer re-orders its drill-down and \
         recovers the substrate attributions the errCQE-first baseline \
         misdiagnoses after any comm fault — same seeds, strictly better \
         localization, byte-identical at 1/2/8-thread pools",
    );

    let topo = build_astral(&AstralParams::sim_small());
    let runs = campaign_runs();
    let pool = Pool::from_env();

    // Pass 1 — baseline: inert prior, errCQE-first drill-down. Tracing is
    // on so the same pass doubles as the recording the miner learns from.
    let baseline = batch(&pool, &topo, &runs, CorrelationPrior::default());

    // Mine the recorded timelines into the prior.
    let mut miner = CorrelationMiner::new();
    for r in &baseline {
        miner.ingest(&r.recovery.trace);
    }
    let prior = miner.prior();
    let matrix = miner.matrix();
    println!(
        "mined prior: support {} substrate-onset window(s), independence {:.3} → substrate-first {}",
        prior.support,
        prior.independence,
        prior.suggests_substrate_first(),
    );

    // Pass 2 — the same seeds under the mined prior.
    let with_prior = batch(&pool, &topo, &runs, prior);
    class_table(&mut sc, &baseline, &with_prior);

    let (acc_base, acc_prior) = (overall_accuracy(&baseline), overall_accuracy(&with_prior));
    let (mttlf_base, mttlf_prior) = (mttlf_from_traces(&baseline), mttlf_from_traces(&with_prior));
    let records_total: usize = baseline.iter().map(|r| r.recovery.trace.len()).sum();
    println!(
        "\noverall accuracy: {acc_base:.3} baseline → {acc_prior:.3} with prior\n\
         substrate MTTLF:  {mttlf_base:.1}s baseline → {mttlf_prior:.1}s with prior\n\
         trace volume:     {records_total} records across {} runs",
        baseline.len()
    );
    sc.metric("accuracy_baseline", acc_base);
    sc.metric("accuracy_prior", acc_prior);
    sc.metric("mttlf_baseline_s", mttlf_base);
    sc.metric("mttlf_prior_s", mttlf_prior);
    sc.metric("prior_support", u64::from(prior.support));
    sc.metric("prior_independence", prior.independence);
    sc.metric("correlation_windows", u64::from(matrix.windows));
    sc.metric("trace_records_total", records_total as u64);
    for r in baseline.iter().chain(&with_prior) {
        sc.solver(&r.recovery.solver);
    }

    check_replay(&pool, &topo, &runs, prior, &with_prior);
    // CI divergence artifact: the worst-case (first cooling) timeline.
    dump_trace_artifact("fig_trace_correlation_run0", &with_prior[0].recovery.trace);
    check_acceptance(&prior, &baseline, &with_prior);

    sc.finish(&[
        (
            "localization with prior",
            format!(
                "attribution accuracy {acc_base:.3} → {acc_prior:.3}; substrate MTTLF \
                 {mttlf_base:.1}s → {mttlf_prior:.1}s on the same seeded mixed campaign"
            ),
        ),
        (
            "prior",
            format!(
                "{} substrate-onset windows, independence {:.3} — substrate-first {}",
                prior.support,
                prior.independence,
                if prior.suggests_substrate_first() {
                    "engaged"
                } else {
                    "NOT engaged"
                }
            ),
        ),
        (
            "determinism",
            "reports and recorded timelines fingerprint byte-identically at \
             1/2/8-thread pools"
                .to_string(),
        ),
    ])
}

//! Cascade ablation — cross-substrate fault campaigns under three
//! recovery policies (§2.2 + §5): the PR-1 reactive ladder, graceful
//! degradation without the Seer gate, and the full stack (graceful +
//! Seer-forecast-gated proactive checkpoints).
//!
//! Two experiments:
//!
//! 1. **Policy ablation** on the canonical cooling-pump cascade: the
//!    reactive ladder lets the row ramp to a forced cordon and rollback;
//!    graceful degradation (flow reroute + thermal cap + micro-batch
//!    rebalance) rides the cascade out at a straggler tax instead.
//! 2. **Attribution sweep** over 51 seeded campaigns (17 per substrate
//!    class): the hierarchical analyzer must name the *originating*
//!    substrate — power, cooling, or optics — for ≥ 90 % of the cascades
//!    that manifest.

use crate::{Report, Scenario};
use astral_collectives::RunnerConfig;
use astral_core::{
    try_run_campaign_battery_with, CampaignRun, CascadeClass, CascadeReport, CascadeScript,
    FaultCampaign, RecoveryPolicy, SubstrateFault, TrainingJobSpec,
};
use astral_exec::Pool;
use astral_monitor::CorrelationPrior;
use astral_sim::SimRng;
use astral_topo::{build_astral, AstralParams, Topology};

fn spec(seed: u64) -> TrainingJobSpec {
    TrainingJobSpec {
        iters: 24,
        bytes: 4 << 20,
        comp_s: 0.2,
        seed,
        ..TrainingJobSpec::default()
    }
}

/// The policy whose rollback costs make the ablation contrast visible.
fn base_policy() -> RecoveryPolicy {
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

/// One scripted cascade of the given class, with seed-varied parameters.
fn class_script(class: CascadeClass, rng: &mut SimRng) -> CascadeScript {
    let fault = match class {
        CascadeClass::Power => SubstrateFault::GridSag {
            at_iter: 3 + rng.below(3) as u32,
            row: rng.below(2) as usize,
            supply_frac: 0.55 + 0.05 * rng.below(4) as f64,
            duration_iters: 12 + rng.below(4) as u32,
            battery_wh_per_rack: 6.0 + 2.0 * rng.below(3) as f64,
        },
        CascadeClass::Cooling => SubstrateFault::CoolingPumpFault {
            at_iter: 3 + rng.below(3) as u32,
            row: rng.below(2) as usize,
            flow_frac: 0.38 + 0.04 * rng.below(3) as f64,
        },
        CascadeClass::Optics => SubstrateFault::OpticsBurst {
            at_iter: 4 + rng.below(4) as u32,
            links: 2 + rng.below(2) as usize,
        },
    };
    CascadeScript {
        faults: vec![fault],
        net_faults: Vec::new(),
    }
}

fn row(name: &str, r: &CascadeReport) {
    println!(
        "{:>18} {:>9} {:>9.3} {:>10.2} {:>10.2} {:>10.2} {:>9.3} {:>10}",
        name,
        if r.recovery.completed { "yes" } else { "ABORT" },
        r.recovery.goodput(),
        r.recovery.useful_s,
        r.recovery.degraded_s,
        r.recovery.lost_rollback_s,
        r.recovery.mttr_s().unwrap_or(0.0),
        r.recovery.incidents.len(),
    );
}

/// A campaign battery on the `ASTRAL_THREADS` pool with the baseline
/// analyzer.
fn battery(topo: &Topology, runs: &[CampaignRun]) -> Vec<CascadeReport> {
    let (pool, prior) = (Pool::from_env(), CorrelationPrior::default());
    try_run_campaign_battery_with(&pool, topo, runs, RunnerConfig::default(), prior)
        .expect("campaign policies validate")
}

/// Experiment 1: the reactive ladder, graceful degradation, and graceful
/// degradation with Seer-gated checkpoints on the cooling-pump cascade.
/// Returns the reactive and graceful goodputs.
fn policy_ablation(sc: &mut Scenario, topo: &Topology) -> (f64, f64) {
    let reactive = RecoveryPolicy {
        graceful_degradation: false,
        proactive_checkpoint: false,
        ..base_policy()
    };
    let graceful_no_seer = RecoveryPolicy {
        proactive_checkpoint: false,
        ..base_policy()
    };
    let full = base_policy();

    println!(
        "{:>18} {:>9} {:>9} {:>10} {:>10} {:>10} {:>9} {:>10}",
        "policy", "done", "goodput", "useful_s", "degrade_s", "lost_s", "mttr_s", "incidents"
    );
    let policies: [(&str, RecoveryPolicy); 3] = [
        ("reactive", reactive),
        ("graceful", graceful_no_seer),
        ("graceful+seer", full),
    ];
    // The three policies run the same campaign independently: a battery on
    // the ASTRAL_THREADS pool, reports in submission order.
    let ablation_runs: Vec<CampaignRun> = policies
        .iter()
        .map(|&(_, policy)| (policy, spec(11), FaultCampaign::scripted(pump_script(), 11)))
        .collect();
    let ablation = battery(topo, &ablation_runs);
    let mut goodputs: Vec<(String, f64)> = Vec::new();
    for ((name, _), r) in policies.iter().zip(&ablation) {
        row(name, r);
        sc.solver(&r.recovery.solver);
        sc.metric(&format!("{name}_goodput"), r.recovery.goodput());
        sc.metric(&format!("{name}_lost_s"), r.recovery.lost_rollback_s);
        sc.metric(&format!("{name}_degraded_s"), r.recovery.degraded_s);
        goodputs.push((name.to_string(), r.recovery.goodput()));
    }
    sc.series("policy_vs_goodput", &goodputs);
    (goodputs[0].1, goodputs[1].1)
}

/// Experiment 2: attribution over 51 seeded campaigns, 17 per cascade
/// class. Returns the overall accuracy and the number of manifested
/// cascades.
fn attribution(sc: &mut Scenario, topo: &Topology) -> (f64, usize) {
    let classes = [
        CascadeClass::Power,
        CascadeClass::Cooling,
        CascadeClass::Optics,
    ];
    // Materialize all 51 campaign scripts first (the seeded draws are
    // cheap and order-dependent), then run the battery in parallel.
    const SEEDS: u64 = 17;
    let mut sweep_runs: Vec<CampaignRun> = Vec::new();
    for class in classes {
        for seed in 0..SEEDS {
            let mut rng =
                SimRng::new(seed * 3 + classes.iter().position(|c| *c == class).unwrap() as u64);
            let script = class_script(class, &mut rng);
            sweep_runs.push((
                base_policy(),
                spec(seed),
                FaultCampaign::scripted(script, seed),
            ));
        }
    }
    let sweep_reports = battery(topo, &sweep_runs);

    let mut attributed = 0usize;
    let mut correct = 0usize;
    let mut blast_total = 0usize;
    let mut per_class: Vec<(String, f64)> = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        let mut class_correct = 0usize;
        let mut class_total = 0usize;
        for r in &sweep_reports[ci * SEEDS as usize..(ci + 1) * SEEDS as usize] {
            sc.solver(&r.recovery.solver);
            for a in &r.attributions {
                attributed += 1;
                class_total += 1;
                blast_total += a.blast_hosts;
                if a.correct() {
                    correct += 1;
                    class_correct += 1;
                }
            }
        }
        let acc = if class_total > 0 {
            class_correct as f64 / class_total as f64
        } else {
            1.0
        };
        per_class.push((class.to_string(), acc));
        println!(
            "\nattribution[{class}]: {class_correct}/{class_total} correct ({:.0} %)",
            acc * 100.0
        );
    }
    let accuracy = if attributed > 0 {
        correct as f64 / attributed as f64
    } else {
        1.0
    };
    let mean_blast = if attributed > 0 {
        blast_total as f64 / attributed as f64
    } else {
        0.0
    };
    println!(
        "\noverall attribution: {correct}/{attributed} correct ({:.0} %), mean blast {:.1} hosts",
        accuracy * 100.0,
        mean_blast
    );
    sc.series("attribution_by_class", &per_class);
    sc.metric("attribution_accuracy", accuracy);
    sc.metric("campaigns", 51u64);
    sc.metric("cascades_manifested", attributed as u64);
    sc.metric("mean_blast_hosts", mean_blast);
    (accuracy, attributed)
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "cascade_ablation",
        "Cascade ablation: correlated substrate faults vs graceful degradation",
        "graceful degradation + Seer-gated proactive checkpoints ride out \
         power/cooling cascades that force the reactive ladder into \
         cordon-and-rollback; the analyzer attributes each cascade to its \
         originating substrate",
    );

    let topo: Topology = build_astral(&AstralParams::sim_small());

    let (reactive_goodput, graceful_goodput) = policy_ablation(&mut sc, &topo);
    let (accuracy, attributed) = attribution(&mut sc, &topo);

    assert!(
        graceful_goodput > 0.8,
        "graceful goodput {graceful_goodput} ≤ 0.8"
    );
    assert!(
        reactive_goodput < graceful_goodput,
        "reactive {reactive_goodput} ≥ graceful {graceful_goodput}"
    );
    assert!(accuracy >= 0.9, "attribution accuracy {accuracy} < 0.9");

    sc.finish(&[
        (
            "graceful vs reactive",
            format!(
                "cooling cascade goodput {graceful_goodput:.3} graceful vs {reactive_goodput:.3} reactive (cordon + rollback)"
            ),
        ),
        (
            "attribution ≥ 90 %",
            format!(
                "{:.0} % of {attributed} manifested cascades named their originating substrate",
                accuracy * 100.0
            ),
        ),
    ])
}

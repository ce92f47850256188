//! Figure 7 — the anomaly taxonomy: manifestations, root causes, and the
//! analyzer's localization rate over an injection campaign.
//!
//! Paper: fail-stop 66% / fail-hang 17% / fail-slow 13% / fail-on-start 4%;
//! root causes led by host env & config (32%), NIC errors (15%), user code
//! (14%), switch config (14%), …

use crate::{Report, Scenario};
use astral_monitor::{
    diagnose, manifestation_distribution, root_cause_distribution, run_fault_scenario, CauseClass,
    CorrelationPrior, Fault, RootCause, ScenarioConfig,
};
use astral_sim::SimRng;
use astral_topo::{build_astral, AstralParams, HostId};
use std::collections::BTreeMap;

/// Map a sampled root cause to an injectable fault instance.
fn fault_for(cause: RootCause, rng: &mut SimRng) -> Fault {
    let host = HostId(rng.below(8) as u32);
    match cause {
        // Env/config problems mostly surface at runtime; a fraction blocks
        // startup (the paper's fail-on-start share).
        RootCause::HostEnvConfig => {
            if rng.chance(0.12) {
                Fault::HostEnvBad { host }
            } else {
                Fault::HostEnvRuntime { host }
            }
        }
        RootCause::WireConnection => Fault::HostEnvBad { host },
        RootCause::NicError => Fault::NicError { host },
        // User-code bugs sometimes deadlock a communicator instead of
        // crashing.
        RootCause::UserCode => {
            if rng.chance(0.35) {
                Fault::CclBugHang { host }
            } else {
                Fault::UserCodeBug
            }
        }
        RootCause::SwitchConfig | RootCause::SwitchBug => Fault::SwitchMisconfig,
        RootCause::OpticalFiber => Fault::OpticalFiberCut,
        RootCause::CclBug => Fault::CclBugHang { host },
        RootCause::GpuHardware => Fault::GpuXid { host },
        RootCause::Memory => Fault::EccMemory { host },
        RootCause::LinkFlap => Fault::LinkFlap,
        // Substrate-level causes (cascade engine diagnoses) are not part
        // of the Fig 7 injection distribution; manifest as environment.
        RootCause::PowerDelivery | RootCause::CoolingSystem => Fault::HostEnvBad { host },
    }
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig07",
        "Figure 7: anomaly taxonomy and localization",
        "fail-stop 66% / hang 17% / slow 13% / on-start 4%; host env 32%, \
         NIC 15%, user code 14%, switch conf 14%, ...",
    );

    // The published distributions themselves.
    println!("production manifestation shares (paper):");
    for (m, p) in manifestation_distribution() {
        println!("  {m:<14} {:>5.0}%", p * 100.0);
    }
    println!("\nproduction root-cause shares (paper):");
    for (c, p) in root_cause_distribution() {
        println!("  {:<16} {:>5.0}%", c.to_string(), p * 100.0);
    }

    // Injection campaign: sample causes from the production distribution,
    // run each as a full scenario, diagnose, and score.
    let topo = build_astral(&AstralParams::sim_small());
    let mut rng = SimRng::new(2024);
    let trials = 60usize;
    // Ordered by manifestation name, so the printed table and the report
    // series come out the same on every run.
    let mut by_manifestation: BTreeMap<String, usize> = BTreeMap::new();
    let mut localized = 0usize;
    let mut class_correct = 0usize;

    for t in 0..trials {
        let cause = RootCause::sample(&mut rng);
        let fault = fault_for(cause, &mut rng);
        let cfg = ScenarioConfig {
            seed: 1000 + t as u64,
            ..ScenarioConfig::default()
        };
        let outcome = run_fault_scenario(&topo, fault, &cfg);
        sc.solver(&outcome.solver);
        let d = diagnose(
            &outcome.snapshot,
            &outcome.prober,
            &CorrelationPrior::default(),
        );
        *by_manifestation
            .entry(d.manifestation.to_string())
            .or_insert(0) += 1;

        // Localization: the culprit device (or software) matches ground
        // truth, accepting a link's endpoint switch for link faults.
        let hit = d.culprit.localizes(&outcome.truth, &topo);
        if hit {
            localized += 1;
        }
        let class_ok = match fault {
            Fault::PcieDegrade { .. } => d.cause == CauseClass::PcieBottleneck,
            _ => d.cause == fault.root_cause().class() || hit,
        };
        if class_ok {
            class_correct += 1;
        }
    }

    println!("\ninjection campaign ({trials} sampled incidents):");
    println!("observed manifestations:");
    let mut rows: Vec<_> = by_manifestation.iter().collect();
    rows.sort_by_key(|(_, &c)| std::cmp::Reverse(c));
    for (m, c) in rows {
        println!("  {m:<14} {:>5.0}%", *c as f64 / trials as f64 * 100.0);
    }
    println!(
        "\nanalyzer localization rate : {:.0}% ({localized}/{trials})",
        localized as f64 / trials as f64 * 100.0
    );
    println!(
        "cause-class accuracy       : {:.0}% ({class_correct}/{trials})",
        class_correct as f64 / trials as f64 * 100.0
    );

    let manifest_rows: Vec<(String, f64)> = by_manifestation
        .iter()
        .map(|(m, &c)| (m.clone(), c as f64 / trials as f64 * 100.0))
        .collect();
    sc.series("observed_manifestation_pct", &manifest_rows);
    sc.metric("trials", trials as u64);
    sc.metric(
        "localization_rate_pct",
        localized as f64 / trials as f64 * 100.0,
    );
    sc.metric(
        "cause_class_accuracy_pct",
        class_correct as f64 / trials as f64 * 100.0,
    );
    sc.finish(&[
        (
            "taxonomy",
            "paper distributions encoded exactly; campaign samples them".to_string(),
        ),
        (
            "localization",
            format!(
                "paper: root causes precisely localized | measured {:.0}% device hit rate",
                localized as f64 / trials as f64 * 100.0
            ),
        ),
    ])
}

//! Failure diagnosis walkthrough: the paper's §3.3 case study (Figure 9)
//! as a runnable scenario.
//!
//! A host's PCIe link trains below its rated width; its NIC drain chokes;
//! PFC pauses spread head-of-line loss to innocent flows; training slows
//! cluster-wide. The hierarchical analyzer drills from the NCCL timeline
//! through QP rates and INT per-hop delays down to the sick host.
//!
//! Act two is the gray-failure counterpart (DESIGN.md §11): a link that
//! flaps instead of dying. The suspicion-scored detector classifies the
//! recurrent edges as a flapper, the recovery engine steers around it and
//! places it under probation, and a quiet probe window readmits it —
//! one decisive mitigation instead of a fresh alarm per flap.
//!
//! ```sh
//! cargo run --release --example failure_diagnosis
//! ```

use astral::core::{
    try_run_training, FaultScript, InjectedFault, MitigationAction, RecoveryPolicy, TrainingJobSpec,
};
use astral::monitor::{diagnose, run_fault_scenario, CorrelationPrior, Fault, ScenarioConfig};
use astral::topo::{build_astral, AstralParams, HostId, Topology};

fn main() {
    let topo = build_astral(&AstralParams::sim_small());
    pcie_degradation(&topo);
    flapping_link(&topo);
}

/// Act one: a PCIe link trained below its rated width, drilled down to
/// the sick host by the hierarchical analyzer.
fn pcie_degradation(topo: &Topology) {
    println!("=== injecting: PCIe degradation on host3 (drain at 20%) ===\n");
    let outcome = run_fault_scenario(
        topo,
        Fault::PcieDegrade {
            host: HostId(3),
            factor: 0.2,
        },
        &ScenarioConfig::default(),
    );

    // The four panels of Figure 9, from the harvested snapshot:
    let snap = &outcome.snapshot;
    println!("--- (a) NCCL timeline: per-rank comm time ---");
    for r in &snap.ranks {
        println!(
            "  {}: iter {}/{}  comp {:.3}s  comm {:.3}s",
            r.host,
            r.iters_done,
            snap.job.as_ref().unwrap().expected_iters,
            r.comp_time_s,
            r.comm_time_s
        );
    }

    println!("\n--- (b) QP ms-level rates (fraction of 200G port) ---");
    for (qp, frac) in snap.qp_rate_frac.iter().take(8) {
        println!(
            "  {qp}: {:5.1}%{}",
            *frac * 100.0,
            if *frac < 0.5 {
                "   <-- below 50% threshold"
            } else {
                ""
            }
        );
    }

    println!("\n--- (c/d) PFC pause counters (top links) ---");
    let mut pfc: Vec<_> = snap.link_pfc.iter().collect();
    pfc.sort_by_key(|&(_, ns)| std::cmp::Reverse(*ns));
    for (l, ns) in pfc.iter().take(4) {
        println!("  link {l}: {:.3} ms of pause", **ns as f64 / 1e6);
    }

    println!("\n=== hierarchical analyzer ===\n");
    let diagnosis = diagnose(snap, &outcome.prober, &CorrelationPrior::default());
    println!("manifestation : {}", diagnosis.manifestation);
    println!("cause         : {}", diagnosis.cause);
    println!("culprit       : {:?}", diagnosis.culprit);
    println!("queries issued: {}", diagnosis.queries);
    println!("\ndrill-down evidence:");
    for (i, e) in diagnosis.evidence.iter().enumerate() {
        println!("  {}. {e}", i + 1);
    }

    // Time-to-locate comparison (Figure 10's axis).
    let manual = astral::monitor::mttlf::manual_locate_time_s(diagnosis.manifestation, 1024);
    let auto = astral::monitor::mttlf::analyzer_locate_time_s(&diagnosis);
    println!(
        "\nMTTLF: manual bisection ≈ {:.1} h; analyzer ≈ {:.1} min ({}× faster)",
        manual / 3600.0,
        auto / 60.0,
        (manual / auto) as u64
    );
}

/// Act two: a gray failure — the link flaps instead of dying.
fn flapping_link(topo: &Topology) {
    println!("\n=== injecting: flapping link (3 down phases, period 3 iters) ===\n");
    let script = FaultScript {
        faults: vec![InjectedFault::FlappingLink {
            at_iter: 3,
            period: 3,
            duty_cycle: 0.34,
            flap_count: 3,
        }],
    };
    let spec = TrainingJobSpec {
        iters: 24,
        bytes: 256 << 20,
        comp_s: 0.01,
        ..TrainingJobSpec::default()
    };
    let report = try_run_training(topo, &RecoveryPolicy::gray_aware(), &spec, &script)
        .expect("the gray-aware policy validates");
    println!("--- incident log ---");
    for inc in &report.incidents {
        println!(
            "  iter {:>2}: {:?} -> {:?} (blamed {:?})",
            inc.iter, inc.class, inc.action, inc.blamed
        );
    }
    let probations = report
        .incidents
        .iter()
        .filter(|i| i.action == MitigationAction::LinkProbation)
        .count();
    let readmits = report
        .incidents
        .iter()
        .filter(|i| i.action == MitigationAction::ProbeReadmit)
        .count();
    println!(
        "\ncompleted: {} | goodput {:.3} | {} probation(s), {} probe-readmit(s), \
         {} rollback seconds",
        report.completed,
        report.goodput(),
        probations,
        readmits,
        report.lost_rollback_s,
    );
    println!(
        "the flapper drew one probation and one readmit — not {} separate alarms",
        script.faults.len() * 3
    );
}

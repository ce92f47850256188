//! Figure 10 — stability improvement: Mean Time To Locate Failure before
//! and after the monitoring system.
//!
//! Paper: MTTLF for fail-stop and fail-hang reduced to minutes — up to 12×
//! and 25× — and fail-slow location shortened by nearly 5×.

use crate::{Report, Scenario};
use astral_monitor::mttlf::{analyzer_locate_time_s, manual_locate_time_s};
use astral_monitor::{
    diagnose, run_fault_scenario, CorrelationPrior, Fault, Manifestation, ScenarioConfig,
};
use astral_topo::{build_astral, AstralParams, HostId};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig10_mttlf",
        "Figure 10: MTTLF before/after the monitoring system",
        "fail-stop ×12, fail-hang ×25, fail-slow ×5 reductions; minutes \
         instead of hours/days",
    );

    let topo = build_astral(&AstralParams::sim_small());
    let prior = CorrelationPrior::default();
    // The paper's bisection anecdote ran on an 8K-GPU (1K-host) job.
    let fleet_hosts = 1024usize;

    // Representative incident per manifestation.
    let cases: Vec<(&str, Fault, Manifestation)> = vec![
        (
            "fail-stop",
            Fault::GpuXid { host: HostId(4) },
            Manifestation::FailStop,
        ),
        (
            "fail-hang",
            Fault::CclBugHang { host: HostId(5) },
            Manifestation::FailHang,
        ),
        (
            "fail-slow",
            Fault::PcieDegrade {
                host: HostId(0),
                factor: 0.2,
            },
            Manifestation::FailSlow,
        ),
    ];

    println!(
        "{:<12}{:>16}{:>16}{:>12}",
        "fault", "manual (h)", "analyzer (min)", "speedup"
    );
    let mut results = Vec::new();
    for (label, fault, manifestation) in cases {
        let outcome = run_fault_scenario(&topo, fault, &ScenarioConfig::default());
        sc.solver(&outcome.solver);
        let d = diagnose(&outcome.snapshot, &outcome.prober, &prior);
        assert_eq!(d.manifestation, manifestation, "{label} misclassified");
        let t_manual = manual_locate_time_s(manifestation, fleet_hosts);
        let t_auto = analyzer_locate_time_s(&d);
        let speedup = t_manual / t_auto;
        println!(
            "{:<12}{:>16.1}{:>16.1}{:>11.0}x",
            label,
            t_manual / 3600.0,
            t_auto / 60.0,
            speedup
        );
        results.push((label, speedup));
    }

    let speedups: Vec<(String, f64)> = results.iter().map(|&(l, s)| (l.to_string(), s)).collect();
    sc.series("mttlf_speedup_by_class", &speedups);
    sc.metric("fail_stop_speedup", results[0].1);
    sc.metric("fail_hang_speedup", results[1].1);
    sc.metric("fail_slow_speedup", results[2].1);
    sc.finish(&[
        (
            "fail-stop reduction",
            format!("paper up to 12x | measured {:.0}x", results[0].1),
        ),
        (
            "fail-hang reduction",
            format!("paper up to 25x | measured {:.0}x", results[1].1),
        ),
        (
            "fail-slow reduction",
            format!("paper ~5x | measured {:.0}x", results[2].1),
        ),
        (
            "absolute",
            "paper: minutes after deployment | all three located in minutes".to_string(),
        ),
    ])
}

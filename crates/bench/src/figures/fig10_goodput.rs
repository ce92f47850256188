//! Figure 10 (recovery view) — goodput under the closed-loop failure
//! lifecycle engine, swept over the recovery policy.
//!
//! A fixed fault script (one transient mid-fabric flap, one optical
//! dual-ToR outage, one hard host death) hits a training job; the sweep
//! varies the checkpoint interval and toggles recovery entirely. The
//! paper's shape: recovery keeps the effective-training-time ratio high,
//! and over-frequent checkpointing trades goodput for smaller rollbacks.

use crate::{Report, Scenario};
use astral_core::{try_run_training, FaultScript, InjectedFault, RecoveryPolicy, TrainingJobSpec};
use astral_sim::SimDuration;
use astral_topo::{build_astral, AstralParams};

/// The Figure-10 job: 30 iterations of 1 s compute, hit by one transient
/// mid-fabric flap, one optical dual-ToR outage and one hard host death.
/// This figure sweeps recovery policies over it and `appc` times it
/// traced and untraced.
pub(super) fn job() -> (TrainingJobSpec, FaultScript) {
    let spec = TrainingJobSpec {
        iters: 30,
        comp_s: 1.0,
        ..Default::default()
    };
    let faults = vec![
        InjectedFault::TransientLink {
            at_iter: 3,
            heal_after: SimDuration::from_millis(30),
        },
        InjectedFault::OpticalUplink {
            at_iter: 12,
            host_index: 5,
        },
        InjectedFault::HostFailure {
            at_iter: 21,
            host_index: 2,
        },
    ];
    (spec, FaultScript { faults })
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig10_goodput",
        "Figure 10: goodput under the failure-lifecycle recovery engine",
        "detect → localize → mitigate → resume across three fault classes; \
         checkpoint-interval sweep vs recovery disabled",
    );

    let topo = build_astral(&AstralParams::sim_small());
    let (spec, script) = job();

    println!(
        "{:>10} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "ckpt-iters", "done", "goodput", "useful_s", "lost_s", "down_s", "mttr_s", "incidents"
    );
    // The interval sweep points are independent simulations: fan them out
    // on the ASTRAL_THREADS pool (results and counters merge in point
    // order, so the report is identical to the old serial loop).
    let intervals = [1u32, 2, 5, 10, 20];
    let reports = sc.sweep(&intervals, |&interval| {
        let policy = RecoveryPolicy {
            checkpoint_interval: interval,
            ..RecoveryPolicy::default()
        };
        let r = try_run_training(&topo, &policy, &spec, &script).expect("valid policy");
        let counters = r.solver;
        (r, counters)
    });
    let mut sweep: Vec<(f64, f64)> = Vec::new();
    for (&interval, r) in intervals.iter().zip(&reports) {
        sweep.push((interval as f64, r.goodput()));
        println!(
            "{:>10} {:>9} {:>9.3} {:>10.2} {:>10.2} {:>9.2} {:>9.3} {:>10}",
            interval,
            if r.completed { "yes" } else { "ABORT" },
            r.goodput(),
            r.useful_s,
            r.lost_rollback_s,
            r.downtime_s,
            r.mttr_s().unwrap_or(0.0),
            r.incidents.len(),
        );
    }

    // Ablation: the same script with recovery switched off.
    let r =
        try_run_training(&topo, &RecoveryPolicy::disabled(), &spec, &script).expect("valid policy");
    println!(
        "{:>10} {:>9} {:>9.3} {:>10.2} {:>10.2} {:>9.2} {:>9.3} {:>10}",
        "disabled",
        if r.completed { "yes" } else { "ABORT" },
        r.goodput(),
        r.useful_s,
        r.lost_rollback_s,
        r.downtime_s,
        r.mttr_s().unwrap_or(0.0),
        r.incidents.len(),
    );
    sc.solver(&r.solver);

    sc.series("ckpt_interval_vs_goodput", &sweep);
    sc.metric("disabled_goodput", r.goodput());
    sc.metric("disabled_completed", r.completed);
    sc.finish(&[
        (
            "recovery on",
            "all three Figure-7 fault classes mitigated; goodput stays high".into(),
        ),
        (
            "checkpoint interval",
            "tight intervals shrink rollback but tax every healthy iteration".into(),
        ),
        (
            "recovery disabled",
            format!("first fault aborts the run (goodput {:.3})", r.goodput()),
        ),
    ])
}

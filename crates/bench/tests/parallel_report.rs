//! Pool-width invariance of the bench harness: a [`Scenario::sweep_with`]
//! over independent training simulations must produce a byte-identical
//! `Report` — series, metrics, and merged solver counters — at any thread
//! count, because results and counters are folded in submission order. A
//! `Scenario` prints nothing, so these runs leave stdout untouched.

use astral_bench::Scenario;
use astral_core::{try_run_training, FaultScript, RecoveryPolicy, TrainingJobSpec};
use astral_exec::Pool;
use astral_topo::{build_astral, AstralParams, Topology};
use proptest::prelude::*;

fn topo() -> Topology {
    build_astral(&AstralParams::sim_small())
}

/// Run the fig10-style interval sweep on an explicit pool and return the
/// report JSON (wall clock is still zero — `finish` is never called, and
/// nothing is written to disk).
fn sweep_report_json(pool: &Pool, seed: u64) -> String {
    let topo = topo();
    let mut sc = Scenario::new("test_sweep", "pool-width invariance", "claim");
    let intervals = [1u32, 2, 5, 10];
    let fingerprints = sc.sweep_with(pool, &intervals, |&interval| {
        let policy = RecoveryPolicy {
            checkpoint_interval: interval,
            ..RecoveryPolicy::default()
        };
        let spec = TrainingJobSpec {
            iters: 12,
            bytes: 2 << 20,
            comp_s: 0.2,
            seed,
            ..TrainingJobSpec::default()
        };
        let r =
            try_run_training(&topo, &policy, &spec, &FaultScript::default()).expect("valid policy");
        let counters = r.solver;
        (r.fingerprint(), counters)
    });
    sc.series("fingerprint_by_interval", &fingerprints);
    sc.report().json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The full report JSON — including the order-sensitive solver-counter
    /// merge — is byte-identical at pool widths 1, 2, and 8.
    #[test]
    fn sweep_report_is_pool_width_invariant(seed in 0u64..500) {
        let serial = sweep_report_json(&Pool::with_threads(1), seed);
        for threads in [2usize, 8] {
            let par = sweep_report_json(&Pool::with_threads(threads), seed);
            prop_assert_eq!(&serial, &par, "pool width {} diverged", threads);
        }
    }
}

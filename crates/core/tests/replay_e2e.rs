//! Trace-replay determinism across execution configurations: the
//! record → serialize → parse → replay loop must be byte-identical at
//! pool widths 1/2/8 and with the per-pod sharded rate solver on or
//! off. Report fingerprints are invariant across *all* of those; trace
//! fingerprints are invariant across pool widths for a fixed solver
//! configuration (solver-recompute records carry work counters, which
//! legitimately differ between solvers — see `astral_core::replay`).

use astral_collectives::RunnerConfig;
use astral_core::{
    try_run_cascade_placed, CascadeScript, InjectedFault, JobPlacement, RecoveryPolicy,
    RecoveryReport, TraceReplayer, TrainingJobSpec,
};
use astral_exec::Pool;
use astral_sim::SimDuration;
use astral_topo::{build_astral, AstralParams, Topology};
use proptest::prelude::*;

fn topo() -> Topology {
    build_astral(&AstralParams::sim_small())
}

/// A seed-parameterized mixed campaign: one gray fault, one fail-stop
/// fault, offsets jittered by the seed so every case replays a
/// different timeline.
fn script(seed: u64) -> CascadeScript {
    CascadeScript {
        faults: Vec::new(),
        net_faults: vec![
            InjectedFault::FlappingLink {
                at_iter: 3 + (seed % 4) as u32,
                period: 3,
                duty_cycle: 0.34,
                flap_count: 3,
            },
            InjectedFault::TransientLink {
                at_iter: 12 + (seed % 3) as u32,
                heal_after: SimDuration::from_millis(30),
            },
        ],
    }
}

fn spec(seed: u64) -> TrainingJobSpec {
    TrainingJobSpec {
        iters: 18,
        bytes: 8 << 20,
        comp_s: 0.05,
        seed,
        ..TrainingJobSpec::default()
    }
}

fn traced_cfg(sharded: bool) -> RunnerConfig {
    let mut cfg = RunnerConfig::default();
    cfg.net.trace = true;
    cfg.net.sharded_solver = sharded;
    cfg
}

fn run(topo: &Topology, seed: u64, cfg: RunnerConfig) -> RecoveryReport {
    try_run_cascade_placed(
        topo,
        &RecoveryPolicy::gray_aware(),
        &spec(seed),
        &script(seed),
        cfg,
        &JobPlacement::prefix(spec(seed).hosts, spec(seed).spares),
        None,
    )
    .expect("policy validates")
    .recovery
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// record → serialize → parse → replay, swept over pool widths
    /// {1, 2, 8} × sharded solver {off, on}: every replay reproduces the
    /// recording byte for byte, and the report fingerprint is invariant
    /// across the whole grid.
    #[test]
    fn replay_is_byte_identical_across_widths_and_solvers(seed in 0u64..200) {
        let t = topo();
        let mut report_fps: Vec<String> = Vec::new();
        for sharded in [false, true] {
            // Record once per solver configuration, then round-trip the
            // recording through its JSONL artifact form.
            let recorded = run(&t, seed, traced_cfg(sharded));
            prop_assert!(!recorded.trace.is_empty());
            let replayer = TraceReplayer::from_report(&recorded);
            let replayer = TraceReplayer::from_jsonl(
                replayer.report_fingerprint(),
                &replayer.to_jsonl(),
            ).expect("own JSONL parses");
            report_fps.push(replayer.report_fingerprint().to_string());

            // Replay through pools of every width: each worker re-runs
            // the same recording and must land on the same bytes.
            for threads in [1usize, 2, 8] {
                let seeds = vec![seed; 3];
                let outcomes = Pool::with_threads(threads).map(&seeds, |&s| {
                    let rerun = run(&t, s, traced_cfg(sharded));
                    replayer.verify(&rerun)
                });
                for outcome in outcomes {
                    prop_assert!(
                        outcome.identical(),
                        "replay diverged (sharded={}, threads={}):\n{}",
                        sharded, threads, outcome.describe()
                    );
                }
            }
        }
        // Solver configuration must not leak into the report.
        prop_assert_eq!(&report_fps[0], &report_fps[1]);
    }
}

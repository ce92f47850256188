//! Trace replay — re-drive a recorded run and hard-assert that the
//! simulator reproduces it byte for byte.
//!
//! A run recorded with `NetConfig::trace` carries its full structured
//! event timeline in [`RecoveryReport::trace`]. [`TraceReplayer`] wraps
//! that recording (either the in-memory records or their JSON-lines
//! serialization) together with the report fingerprint, re-executes the
//! same `(topology, policy, spec, script, placement, runner_cfg)` tuple
//! with tracing forced on, and compares both artifacts:
//!
//! * the **report fingerprint** (every semantic field of the run, float
//!   bits included — see [`RecoveryReport::fingerprint`]), and
//! * the **trace fingerprint** (FNV-1a over every recorded event's raw
//!   fields, via [`astral_trace::fingerprint`]), with the first
//!   diverging record surfaced for diagnosis.
//!
//! Byte-identical on both ⇒ the simulator is deterministic end to end
//! for that configuration; any divergence is a reproducibility bug, and
//! the CI determinism gate dumps both timelines as artifacts so the
//! first differing event can be read straight out of the logs.
//!
//! The trace fingerprint is only comparable across runs with the same
//! solver configuration: `SolverRecompute` records carry work-counter
//! deltas, which legitimately differ between joint and pod-grouped
//! fills (`NetConfig::sharded_solver`) even though the solved rates —
//! and therefore the report fingerprint — are identical. The replayer
//! re-runs with the caller-supplied [`RunnerConfig`], so the contract
//! holds as long as the recording and the replay use the same one.

use crate::cascade::{try_run_cascade_placed, CascadeScript};
use crate::recovery::{JobPlacement, PolicyError, RecoveryPolicy, RecoveryReport, TrainingJobSpec};
use astral_collectives::RunnerConfig;
use astral_net::DEFAULT_TRACE_CAPACITY;
use astral_topo::{Router, Topology};
use astral_trace::{fingerprint, parse_jsonl, to_jsonl, TraceParseError, TraceRecord};
use std::sync::Arc;

/// A recorded run: its structured event timeline plus the report
/// fingerprint it produced, ready to be re-driven through the simulator.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    report_fingerprint: String,
    trace: Vec<TraceRecord>,
}

impl TraceReplayer {
    /// Capture a recording from a completed run. The report must have
    /// been produced with `NetConfig::trace` enabled, otherwise the
    /// timeline is empty and the replay only pins the report
    /// fingerprint.
    pub fn from_report(report: &RecoveryReport) -> Self {
        TraceReplayer {
            report_fingerprint: report.fingerprint(),
            trace: report.trace.clone(),
        }
    }

    /// Rehydrate a recording from its JSON-lines serialization (the CI
    /// artifact format) plus the report fingerprint stored alongside it.
    pub fn from_jsonl(report_fingerprint: &str, jsonl: &str) -> Result<Self, TraceParseError> {
        Ok(TraceReplayer {
            report_fingerprint: report_fingerprint.to_string(),
            trace: parse_jsonl(jsonl)?,
        })
    }

    /// The recorded timeline, oldest record first.
    pub fn recorded(&self) -> &[TraceRecord] {
        &self.trace
    }

    /// The recorded report fingerprint.
    pub fn report_fingerprint(&self) -> &str {
        &self.report_fingerprint
    }

    /// Serialize the recording back to JSON-lines (the CI artifact
    /// format; lossless — parsing it back reproduces the same records
    /// and therefore the same fingerprint).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.trace)
    }

    /// Re-drive the recorded timeline: run the same job again with
    /// tracing forced on and compare the fresh run against the
    /// recording. `runner_cfg` must match the recording's configuration
    /// (see the module docs on solver-counter records). Returns the
    /// comparison verdict together with the replayed report.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &self,
        topo: &Topology,
        policy: &RecoveryPolicy,
        spec: &TrainingJobSpec,
        script: &CascadeScript,
        placement: &JobPlacement,
        router: Option<Arc<Router>>,
        mut runner_cfg: RunnerConfig,
    ) -> Result<(ReplayOutcome, RecoveryReport), PolicyError> {
        runner_cfg.net.trace = true;
        if runner_cfg.net.trace_capacity == 0 {
            // Never let the replay ring wrap earlier than the recording's
            // did: a shorter ring would drop the oldest records and
            // manufacture a spurious divergence.
            runner_cfg.net.trace_capacity = DEFAULT_TRACE_CAPACITY.max(self.trace.len());
        }
        let rerun =
            try_run_cascade_placed(topo, policy, spec, script, runner_cfg, placement, router)?
                .recovery;
        Ok((self.verify(&rerun), rerun))
    }

    /// Compare an already re-executed run against the recording.
    pub fn verify(&self, rerun: &RecoveryReport) -> ReplayOutcome {
        let replayed_fp = rerun.fingerprint();
        let divergence = first_divergence(&self.trace, &rerun.trace);
        ReplayOutcome {
            report_match: replayed_fp == self.report_fingerprint,
            replayed_report_fingerprint: replayed_fp,
            recorded_report_fingerprint: self.report_fingerprint.clone(),
            recorded_trace_fingerprint: fingerprint(&self.trace),
            replayed_trace_fingerprint: fingerprint(&rerun.trace),
            recorded_len: self.trace.len(),
            replayed_len: rerun.trace.len(),
            divergence,
        }
    }
}

/// The first index where two timelines disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Index into the oldest-first record streams.
    pub index: usize,
    /// The recorded event at that index (`None`: recording ended early).
    pub recorded: Option<TraceRecord>,
    /// The replayed event at that index (`None`: replay ended early).
    pub replayed: Option<TraceRecord>,
}

fn first_divergence(a: &[TraceRecord], b: &[TraceRecord]) -> Option<ReplayDivergence> {
    let n = a.len().max(b.len());
    (0..n).find_map(|i| {
        let (ra, rb) = (a.get(i).copied(), b.get(i).copied());
        (ra != rb).then_some(ReplayDivergence {
            index: i,
            recorded: ra,
            replayed: rb,
        })
    })
}

/// Verdict of one replay: did the simulator reproduce the recording?
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Whether the replayed report fingerprint matches the recording.
    pub report_match: bool,
    /// Fingerprint of the recorded report.
    pub recorded_report_fingerprint: String,
    /// Fingerprint of the replayed report.
    pub replayed_report_fingerprint: String,
    /// FNV-1a fingerprint of the recorded timeline.
    pub recorded_trace_fingerprint: u64,
    /// FNV-1a fingerprint of the replayed timeline.
    pub replayed_trace_fingerprint: u64,
    /// Recorded timeline length.
    pub recorded_len: usize,
    /// Replayed timeline length.
    pub replayed_len: usize,
    /// First diverging record, if any.
    pub divergence: Option<ReplayDivergence>,
}

impl ReplayOutcome {
    /// Both artifacts reproduced byte for byte.
    pub fn identical(&self) -> bool {
        self.report_match && self.divergence.is_none()
    }

    /// Human-readable verdict, one line per artifact — what the CI
    /// determinism gate prints (and uploads) on divergence.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "report: {} (recorded {}, replayed {})\ntrace: {} records {:016x} vs {} recorded {:016x} ({})",
            if self.report_match { "MATCH" } else { "DIVERGED" },
            &self.recorded_report_fingerprint,
            &self.replayed_report_fingerprint,
            self.replayed_len,
            self.replayed_trace_fingerprint,
            self.recorded_len,
            self.recorded_trace_fingerprint,
            if self.divergence.is_none() { "MATCH" } else { "DIVERGED" },
        );
        if let Some(d) = &self.divergence {
            s.push_str(&format!(
                "\nfirst divergence at record {}: recorded {:?}, replayed {:?}",
                d.index, d.recorded, d.replayed
            ));
        }
        s
    }

    /// Hard-assert byte identity, panicking with the full diagnosis on
    /// any divergence — the replay contract the e2e tests and the
    /// `fig_trace_correlation` bench pin.
    pub fn assert_identical(&self) {
        assert!(
            self.identical(),
            "trace replay diverged\n{}",
            self.describe()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::InjectedFault;
    use astral_sim::SimDuration;
    use astral_topo::{build_astral, AstralParams};
    use astral_trace::TraceKind;

    fn topo() -> Topology {
        build_astral(&AstralParams::sim_small())
    }

    /// The pinned `fig_gray_failure` campaign: three gray faults
    /// interleaved with two fail-stop faults (see the bench binary).
    fn gray_campaign() -> CascadeScript {
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

    fn traced_cfg() -> RunnerConfig {
        let mut cfg = RunnerConfig::default();
        cfg.net.trace = true;
        cfg
    }

    fn record(policy: &RecoveryPolicy, cfg: RunnerConfig) -> RecoveryReport {
        try_run_cascade_placed(
            &topo(),
            policy,
            &spec(),
            &gray_campaign(),
            cfg,
            &JobPlacement::prefix(spec().hosts, spec().spares),
            None,
        )
        .expect("policy validates")
        .recovery
    }

    /// The acceptance-criteria e2e: record the gray-failure campaign,
    /// replay it, and hard-assert byte-identical report + trace — then
    /// do it again through the JSONL artifact round trip.
    #[test]
    fn replays_gray_failure_campaign_byte_identically() {
        let recorded = record(&RecoveryPolicy::gray_aware(), traced_cfg());
        assert!(
            !recorded.trace.is_empty(),
            "traced campaign produced no events"
        );
        let replayer = TraceReplayer::from_report(&recorded);
        let (outcome, _) = replayer
            .replay(
                &topo(),
                &RecoveryPolicy::gray_aware(),
                &spec(),
                &gray_campaign(),
                &JobPlacement::prefix(spec().hosts, spec().spares),
                None,
                RunnerConfig::default(),
            )
            .expect("policy validates");
        outcome.assert_identical();

        // The CI artifact path: serialize, rehydrate, verify again.
        let rehydrated =
            TraceReplayer::from_jsonl(replayer.report_fingerprint(), &replayer.to_jsonl())
                .expect("own JSONL parses");
        assert_eq!(
            fingerprint(rehydrated.recorded()),
            fingerprint(replayer.recorded())
        );
        let (outcome, _) = rehydrated
            .replay(
                &topo(),
                &RecoveryPolicy::gray_aware(),
                &spec(),
                &gray_campaign(),
                &JobPlacement::prefix(spec().hosts, spec().spares),
                None,
                RunnerConfig::default(),
            )
            .expect("policy validates");
        outcome.assert_identical();
    }

    /// The timeline carries every instrumented layer: flow lifecycle,
    /// solver recomputes, fault injections, and ladder decisions.
    #[test]
    fn gray_campaign_trace_covers_all_layers() {
        let recorded = record(&RecoveryPolicy::gray_aware(), traced_cfg());
        let kinds: std::collections::HashSet<u16> = recorded.trace.iter().map(|r| r.kind).collect();
        for kind in [
            TraceKind::FlowInject,
            TraceKind::FlowComplete,
            TraceKind::SolverRecompute,
            TraceKind::QpRegister,
            TraceKind::FaultInject,
            TraceKind::LadderDecision,
        ] {
            assert!(
                kinds.contains(&(kind as u16)),
                "no {kind:?} records in the campaign trace"
            );
        }
        // Timestamps are monotone: one ordered stream per run.
        assert!(
            recorded.trace.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "trace timestamps are not monotone"
        );
    }

    /// A tampered recording is caught, with the first diverging record
    /// pinpointed.
    #[test]
    fn detects_divergence_and_reports_first_index() {
        let recorded = record(&RecoveryPolicy::gray_aware(), traced_cfg());
        let mut replayer = TraceReplayer::from_report(&recorded);
        let idx = replayer.trace.len() / 2;
        replayer.trace[idx].v ^= 1;
        let outcome = replayer.verify(&recorded);
        assert!(!outcome.identical());
        assert!(outcome.report_match, "report fingerprints still match");
        assert!(outcome.describe().contains("first divergence"));
        let d = outcome.divergence.expect("divergence surfaced");
        assert_eq!(d.index, idx);

        // Truncation is a divergence too (at the recording's new end).
        let mut short = TraceReplayer::from_report(&recorded);
        short.trace.pop();
        let outcome = short.verify(&recorded);
        let d = outcome.divergence.expect("length mismatch surfaced");
        assert_eq!(d.index, recorded.trace.len() - 1);
        assert!(d.recorded.is_none() && d.replayed.is_some());
    }

    /// Tracing is observation only: the traced run's report fingerprint
    /// is byte-identical to the untraced baseline's.
    #[test]
    fn tracing_does_not_perturb_the_run() {
        let untraced = record(&RecoveryPolicy::gray_aware(), RunnerConfig::default());
        let traced = record(&RecoveryPolicy::gray_aware(), traced_cfg());
        assert!(untraced.trace.is_empty());
        assert_eq!(untraced.fingerprint(), traced.fingerprint());
    }
}

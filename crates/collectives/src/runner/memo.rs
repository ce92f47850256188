//! The runner's memos of a repeated collective and of a repeated step.
//!
//! A training job runs the same gradient collective every iteration, and
//! between faults nothing the simulator reads changes: the collective
//! starts on a quiet simulator (see [`astral_net::Segment`]) with the same
//! link capacities and QPs, so it does exactly what it did last time,
//! shifted in time. The memo keeps the last call's key. A call whose key
//! repeats its predecessor's is simulated while the simulator records it,
//! and kept when the recording shows it changed nothing a later call would
//! see. A later call with the same group and schedule, on a quiet
//! simulator at the generation the recording ended at, is answered by
//! applying the recording instead of simulating. A runner that never
//! repeats a call records nothing.
//!
//! Inside one call, a ring's steps repeat the same way: each of its
//! 2(n−1) steps is the same transfer list, and each starts on a quiet
//! simulator. [`CollectiveRunner::run_stream`] keeps the previous step's
//! transfers; a step equal to them is simulated while the simulator
//! records it, and a later equal step whose start lies as far past the
//! simulator's clock as the recorded one's did, at the generation the
//! recording ended at, is answered by applying the recording. So a ring
//! simulates its first step, records its second and applies the rest. The
//! simulator holds one recording at a time, so the step memo neither
//! records nor applies while a call is being recorded.
//!
//! Debug builds check every apply against a real simulation of the call
//! or step on a fork of the simulator: flow records, telemetry, solver
//! counters, clock, sequence numbers, trace records and the result must
//! be equal.

use super::{CollectiveResult, CollectiveRunner, StepOutcome, Stream};
use crate::plan::{Schedule, Transfer};
use astral_net::Segment;
use astral_sim::{Digest, SimDuration, SimTime};
use astral_topo::GpuId;

/// The last call's key and the recorded call, if any.
#[derive(Debug, Default)]
pub(super) struct Memo {
    /// Key of the previous [`CollectiveRunner::run_schedule`] call.
    last: Option<u64>,
    recorded: Option<Recorded>,
    /// Calls answered from the recording.
    pub(super) reapplied: u64,
    /// Steps answered from a recorded step.
    pub(super) reapplied_steps: u64,
}

/// One recorded step of a [`CollectiveRunner::run_stream`] call: how far
/// past the simulator's clock it started, the generation it ended at, and
/// what it did.
#[derive(Debug)]
pub(super) struct RecordedStep {
    gap: SimDuration,
    generation: u64,
    segment: Segment,
    outcome: StepOutcome,
}

/// One recorded call: what it ran, where the simulator stood when it
/// ended, and what it did.
#[derive(Debug)]
struct Recorded {
    key: u64,
    group: Vec<GpuId>,
    schedule: Schedule,
    generation: u64,
    segment: Segment,
    result: CollectiveResult,
}

/// A digest of a call's group and of its schedule's shape: each step's
/// length and first transfer. It tells a repeat from its predecessor at a
/// cost of O(ranks + steps), not O(transfers); two different calls that
/// share a key cost one wasted recording at most, since a recording is
/// compared in full before it is applied.
fn call_key(group: &[GpuId], schedule: &Schedule) -> u64 {
    let mut d = Digest::new();
    d.fold_word(group.len() as u64);
    for g in group {
        d.fold_word(g.0 as u64);
    }
    for step in &schedule.steps {
        d.fold_word(step.len() as u64);
        if let Some(t) = step.first() {
            d.fold_word(t.src as u64);
            d.fold_word(t.dst as u64);
            d.fold_word(t.bytes);
        }
    }
    d.finish()
}

impl<'a> CollectiveRunner<'a> {
    /// [`CollectiveRunner::run_schedule`] through the memo: apply the
    /// recording when the call matches it, else simulate, recording the
    /// call when it repeats its predecessor.
    pub(super) fn run_memoized(
        &mut self,
        group: &[GpuId],
        schedule: &Schedule,
    ) -> CollectiveResult {
        let key = call_key(group, schedule);
        let repeat = self.memo.last.replace(key) == Some(key);
        if self.matches_recording(key, group, schedule) {
            return self.reapply(group, schedule);
        }
        let recording = repeat && self.sim.record_segment();
        let result = self.run_steps(group, schedule);
        if recording {
            if let Some(segment) = self.sim.finish_segment() {
                self.memo.recorded = Some(Recorded {
                    key,
                    group: group.to_vec(),
                    schedule: schedule.clone(),
                    generation: self.sim.generation(),
                    segment,
                    result: result.clone(),
                });
            }
        }
        result
    }

    /// Whether the recording answers this call: the same group and
    /// schedule, a quiet simulator, and no generation change since the
    /// recorded call ended.
    fn matches_recording(&self, key: u64, group: &[GpuId], schedule: &Schedule) -> bool {
        self.memo.recorded.as_ref().is_some_and(|r| {
            r.key == key
                && r.generation == self.sim.generation()
                && self.sim.is_quiet()
                && r.group == group
                && r.schedule.steps == schedule.steps
        })
    }

    /// Answer a call that matches the recording by applying it.
    fn reapply(&mut self, group: &[GpuId], schedule: &Schedule) -> CollectiveResult {
        #[cfg(debug_assertions)]
        let (real_sim, real) = self.simulate_on_fork(group, schedule);
        #[cfg(not(debug_assertions))]
        let _ = (group, schedule);
        self.group_ctr += 1;
        let rec = self.memo.recorded.as_ref().expect("matched recording");
        let before = self.sim.solver_counters();
        self.sim.apply_segment(&rec.segment);
        let result = CollectiveResult {
            solver: self.sim.solver_counters().since(&before),
            ..rec.result.clone()
        };
        self.memo.reapplied += 1;
        #[cfg(debug_assertions)]
        {
            self.sim.assert_same_outcome(&real_sim);
            assert_eq!(result, real, "re-applied result differs from the real call");
        }
        result
    }

    /// Debug: simulate the call on a fork of the simulator, leaving the
    /// runner as it was; returns the fork and the call's result.
    #[cfg(debug_assertions)]
    fn simulate_on_fork(
        &mut self,
        group: &[GpuId],
        schedule: &Schedule,
    ) -> (astral_net::NetworkSim<'a>, CollectiveResult) {
        let group_ctr = self.group_ctr;
        let fork = self.on_fork(|r| r.run_steps(group, schedule));
        self.group_ctr = group_ctr;
        fork
    }

    /// Debug: run `f` on a fork of the simulator; returns the fork and
    /// what `f` returned. `f` must register no QP: the QP cache is the
    /// runner's, not the fork's.
    #[cfg(debug_assertions)]
    fn on_fork<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (astral_net::NetworkSim<'a>, R) {
        let fork = self.sim.clone();
        let kept = std::mem::replace(&mut self.sim, fork);
        let qps = self.qp_cache.len();
        let out = f(self);
        assert_eq!(self.qp_cache.len(), qps, "a fork registered a QP");
        (std::mem::replace(&mut self.sim, kept), out)
    }

    /// One step of a [`CollectiveRunner::run_stream`] call through the
    /// step memo: apply the recorded step when this one repeats it, else
    /// simulate, recording the step when it repeats its predecessor.
    /// Nothing is recorded or applied while a call is being recorded, and
    /// a step that moved no network bytes is not kept.
    pub(super) fn run_step(
        &mut self,
        group: &[GpuId],
        step: &[Transfer],
        step_start: SimTime,
        repeat: bool,
        stream: &mut Stream,
    ) -> StepOutcome {
        if !repeat {
            stream.recorded = None;
        }
        if !repeat || self.sim.recording() {
            return self.simulate_step(group, step, step_start, stream);
        }
        let gap = step_start.saturating_since(self.sim.now());
        let matches = |r: &&RecordedStep| {
            r.gap == gap && r.generation == self.sim.generation() && self.sim.is_quiet()
        };
        if let Some(rec) = stream.recorded.as_ref().filter(matches) {
            return self.reapply_step(group, step, step_start, stream.group_id, rec);
        }
        // A busy simulator records nothing, and then finishing returns None.
        self.sim.record_segment();
        let outcome = self.simulate_step(group, step, step_start, stream);
        let segment = self.sim.finish_segment();
        if let Some(segment) = segment.filter(|_| outcome.network_bytes > 0) {
            stream.recorded = Some(RecordedStep {
                gap,
                generation: self.sim.generation(),
                segment,
                outcome,
            });
        }
        outcome
    }

    /// Answer a step that matches the recording by applying it.
    fn reapply_step(
        &mut self,
        group: &[GpuId],
        step: &[Transfer],
        step_start: SimTime,
        group_id: u32,
        rec: &RecordedStep,
    ) -> StepOutcome {
        #[cfg(debug_assertions)]
        let (real_sim, real) = self.on_fork(|r| {
            let mut scratch = Stream {
                group_id,
                flow_ids: Vec::new(),
                recorded: None,
            };
            r.simulate_step(group, step, step_start, &mut scratch)
        });
        #[cfg(not(debug_assertions))]
        let _ = (group, step, step_start, group_id);
        self.sim.apply_segment(&rec.segment);
        self.memo.reapplied_steps += 1;
        #[cfg(debug_assertions)]
        {
            self.sim.assert_same_outcome(&real_sim);
            assert_eq!(
                rec.outcome, real,
                "re-applied step differs from the real step"
            );
        }
        rec.outcome
    }
}

//! The runner's one-entry memo of a repeated collective.
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
//! Debug builds check every apply against a real simulation of the call on
//! a fork of the simulator: flow records, telemetry, solver counters,
//! clock, sequence numbers, trace records and the result must be equal.

use super::{CollectiveResult, CollectiveRunner};
use crate::plan::Schedule;
use astral_net::Segment;
use astral_sim::Digest;
use astral_topo::GpuId;

/// The last call's key and the recorded call, if any.
#[derive(Debug, Default)]
pub(super) struct Memo {
    /// Key of the previous [`CollectiveRunner::run_schedule`] call.
    last: Option<u64>,
    recorded: Option<Recorded>,
    /// Calls answered from the recording.
    pub(super) reapplied: u64,
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
        let fork = self.sim.clone();
        let kept = std::mem::replace(&mut self.sim, fork);
        let group_ctr = self.group_ctr;
        let result = self.run_steps(group, schedule);
        self.group_ctr = group_ctr;
        (std::mem::replace(&mut self.sim, kept), result)
    }
}

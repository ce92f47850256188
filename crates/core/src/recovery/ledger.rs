//! The run's time ledger: Figure 10's five wall-clock buckets, each
//! written in exactly one place, with one method per charge.

/// Wall-clock cost of writing one checkpoint, seconds.
const CHECKPOINT_COST_S: f64 = 0.05;

/// Time the monitor needs to raise and localize an alarm, seconds.
const DETECTION_OVERHEAD_S: f64 = 0.2;

/// Where a run's wall-clock went, plus the checkpoint a rollback returns
/// to.
#[derive(Default)]
pub(super) struct Ledger {
    /// Useful time per iteration: what a rollback takes back.
    iter_useful: Vec<f64>,
    useful_s: f64,
    lost_rollback_s: f64,
    degraded_s: f64,
    checkpoint_s: f64,
    downtime_s: f64,
    /// Iteration of the most recent checkpoint.
    last_checkpoint: u32,
    /// Every attempt and charge, summed apart from the buckets.
    wall_s: f64,
}

impl Ledger {
    pub(super) fn new(iters: u32) -> Self {
        let mut ledger = Ledger::default();
        ledger.iter_useful.resize(iters as usize, 0.0);
        ledger
    }

    pub(super) fn last_checkpoint(&self) -> u32 {
        self.last_checkpoint
    }

    /// The buckets in [`super::RecoveryReport`] order: useful, lost to
    /// rollback, degraded, checkpoint and downtime seconds.
    pub(super) fn buckets(&self) -> [f64; 5] {
        [
            self.useful_s,
            self.lost_rollback_s,
            self.degraded_s,
            self.checkpoint_s,
            self.downtime_s,
        ]
    }

    /// Charge one alarm's detection and localization; returns it (the
    /// incident's `locate_s`).
    pub(super) fn locate(&mut self) -> f64 {
        self.repair(DETECTION_OVERHEAD_S);
        DETECTION_OVERHEAD_S
    }

    /// Charge `s` of downtime: backoff, restart, or a failed attempt.
    pub(super) fn repair(&mut self, s: f64) {
        self.wall_s += s;
        self.downtime_s += s;
    }

    /// Write a checkpoint retaining every iteration before `at`; returns
    /// its cost.
    pub(super) fn checkpoint(&mut self, at: u32) -> f64 {
        self.wall_s += CHECKPOINT_COST_S;
        self.checkpoint_s += CHECKPOINT_COST_S;
        self.last_checkpoint = at;
        CHECKPOINT_COST_S
    }

    /// Book one `iter_s` attempt at iteration `it`. A failed attempt is
    /// downtime; one that produced is straggler tax (`throttle_s` of
    /// compute throttling plus `slow_s` of comm-side excess) and useful
    /// time.
    pub(super) fn iteration(
        &mut self,
        it: u32,
        iter_s: f64,
        throttle_s: f64,
        slow_s: f64,
        produced: bool,
    ) {
        if !produced {
            return self.repair(iter_s);
        }
        self.wall_s += iter_s;
        let useful = iter_s - throttle_s - slow_s;
        self.iter_useful[it as usize] = useful;
        self.credit_useful(useful);
        self.degraded_s += throttle_s + slow_s;
    }

    /// Move the iterations from the last checkpoint up to `current` from
    /// useful to lost; returns the checkpoint to resume from.
    pub(super) fn roll_back(&mut self, current: u32) -> u32 {
        for i in self.last_checkpoint..current {
            let s = std::mem::take(&mut self.iter_useful[i as usize]);
            self.credit_useful(-s);
            self.lost_rollback_s += s;
        }
        self.last_checkpoint
    }

    /// The one write of `useful_s` (a rollback credits a negative sum).
    fn credit_useful(&mut self, s: f64) {
        self.useful_s += s;
    }

    /// The debug-build invariants: per-iteration useful time sums to
    /// `useful_s`, and the buckets sum to the wall-clock, both to 1e-9
    /// relative.
    pub(super) fn check(&self) {
        let total_s: f64 = self.buckets().iter().sum();
        let drift = (self.useful_s - self.iter_useful.iter().sum::<f64>()).abs();
        assert!(drift <= 1e-9 * total_s.max(1.0), "useful_s drifts {drift}");
        let wall = self.wall_s;
        let gap = (total_s - wall).abs();
        assert!(
            gap <= 1e-9 * wall.max(1.0),
            "buckets sum to {total_s} s, wall clock {wall} s"
        );
    }
}

//! Closed-loop failure lifecycle engine: detect → localize → mitigate →
//! resume (paper §3, §5; Figure 7 fault classes, Figure 10 goodput).
//!
//! The engine drives a training job iteration by iteration on the
//! flow-level network simulator, with faults injected mid-run from a
//! [`FaultScript`]. Every run goes through the one cascade path
//! ([`crate::try_run_cascade_placed`]); a plain training run
//! ([`try_run_training`]) is a cascade run with no substrate faults, whose
//! substrate stays at nominal and never acts. Detection is *online* — the monitor's
//! [`OnlineDetector`] sees only per-iteration observables (duration, flow
//! aborts) — and localization is *observational*: the engine walks INT
//! probes hop by hop to find the dead link, exactly as the analyzer's
//! drill-down would, never peeking at the injected ground truth.
//!
//! Mitigation follows the paper's playbook per fault class:
//!
//! * **transient NIC/link faults** — ECMP source-port reassignment steers
//!   the victim QPs off the flaky path (the §2.1 managed-ECMP controller
//!   knob), and the iteration is retried under exponential backoff with a
//!   bounded retry budget;
//! * **optical faults on dual-ToR hosts** — traffic fails over to the
//!   surviving ToR port at degraded bandwidth (property P3);
//! * **hard host faults** — the host is cordoned, a spare takes its
//!   place, and the job restarts from the last checkpoint.
//!
//! The run is an explicit state machine: every pass ends in one of four
//! steps — advance, retry, roll back to the last checkpoint, or abort —
//! and one transition maps an alarm's [`Incident`] to its step. One ledger
//! partitions wall-clock the way Figure 10 does: useful training, work
//! lost to rollback, straggler tax, checkpoint overhead, and downtime
//! (detection, backoff, restart), yielding goodput plus MTTR/MTTLF.
//!
//! Parts: this file holds the public types, the entry point and the
//! engine's state; `run` the loop and its transition; `ledger` the time
//! accounting; `ladder` the fail-stop ladder (localize, steer, restart);
//! `gray` the gray path (observe, attend, probation, quarantine);
//! `faults` the scripted-fault table and the gray-fault drives.

mod faults;
mod gray;
mod ladder;
mod ledger;
mod run;

use crate::cascade::{try_run_cascade_placed, CascadeScript, SubstrateState};
use astral_collectives::{CollectiveRunner, RunnerConfig};
use astral_monitor::{CorrelationPrior, GrayDetector, GrayVerdict, OnlineDetector, RootCause};
use astral_net::SolverCounters;
use astral_sim::{SimDuration, SimRng};
use astral_topo::{GpuId, HostId, LinkId, Router, Topology};
use astral_trace::TraceRecord;
use faults::ScriptedFault;
use gray::Probation;
use ledger::Ledger;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Tunable recovery behaviour — the policy axis the Figure-10 goodput
/// sweep explores.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Master switch: disabled means the first alarm aborts the job.
    pub enabled: bool,
    /// Iterations between checkpoints.
    pub checkpoint_interval: u32,
    /// Re-placement + checkpoint-restore cost for a restart.
    pub restart_overhead_s: f64,
    /// Graceful degradation: on a diagnosed substrate cascade, engage
    /// flow reroute + thermal power caps (cooling), power-cap
    /// ride-through (power), and straggler-aware micro-batch rebalancing
    /// instead of letting the cascade escalate to a cordon.
    pub graceful_degradation: bool,
    /// Take a checkpoint when the Seer hazard forecast predicts a forced
    /// cordon (or battery exhaustion) within `SEER_LEAD_ITERS` (3)
    /// iterations.
    pub proactive_checkpoint: bool,
    /// Run the [`GrayDetector`] alongside the fail-stop ladder: flapping
    /// links enter steer-around probation with probe-before-readmit,
    /// degrading optics fail over proactively, and gray stragglers are
    /// soft-quarantined (spare swap at the iteration boundary, no
    /// rollback).
    pub gray_detection: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            checkpoint_interval: 5,
            restart_overhead_s: 0.5,
            graceful_degradation: true,
            proactive_checkpoint: true,
            gray_detection: false,
        }
    }
}

/// A nonsensical [`RecoveryPolicy`] knob combination or job shape,
/// rejected before a run starts (a zero checkpoint interval would
/// otherwise panic deep in the rollback arithmetic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyError {
    /// `checkpoint_interval` must be ≥ 1 (rollback divides by it).
    ZeroCheckpointInterval,
    /// `restart_overhead_s` is negative or non-finite.
    BadCost {
        /// Which knob.
        field: &'static str,
        /// The offending value, seconds.
        value: f64,
    },
    /// The job has no hosts: fault targets index the host list and
    /// hard-host localization probes toward a job host.
    EmptyJob,
    /// The placement does not cover exactly `TrainingJobSpec::hosts`
    /// ranks.
    PlacementSize {
        /// Hosts the job spec asks for.
        spec_hosts: usize,
        /// Hosts the placement lists.
        placed: usize,
    },
    /// A placed or spare host does not exist in the fabric.
    HostOutsideFabric {
        /// The first such host, job hosts before spares.
        host: HostId,
    },
    /// A host is listed twice among the job's hosts and spares, so a
    /// cordon could claim a host the job already runs on.
    DuplicateHost {
        /// The first repeat, job hosts before spares.
        host: HostId,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::ZeroCheckpointInterval => {
                write!(f, "checkpoint_interval must be at least 1")
            }
            PolicyError::BadCost { field, value } => {
                write!(f, "{field} must be finite and non-negative, got {value}")
            }
            PolicyError::EmptyJob => write!(f, "a job needs at least one host"),
            PolicyError::PlacementSize { spec_hosts, placed } => {
                write!(f, "placement has {placed} hosts, the job spec {spec_hosts}")
            }
            PolicyError::HostOutsideFabric { host } => {
                write!(f, "placement references host {} outside the fabric", host.0)
            }
            PolicyError::DuplicateHost { host } => {
                write!(f, "placement lists host {} twice", host.0)
            }
        }
    }
}

impl std::error::Error for PolicyError {}

impl RecoveryPolicy {
    /// The ablation baseline: no recovery, first fault kills the job.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            enabled: false,
            ..RecoveryPolicy::default()
        }
    }

    /// The PR-1 reactive ladder only: reroute/failover/restart, no
    /// graceful degradation and no Seer-gated proactive checkpoints.
    pub fn reactive_only() -> Self {
        RecoveryPolicy {
            graceful_degradation: false,
            proactive_checkpoint: false,
            ..RecoveryPolicy::default()
        }
    }

    /// The reactive ladder plus gray-failure handling: suspicion-scored
    /// probation for flappers, proactive failover for degrading optics,
    /// and soft quarantine for gray stragglers.
    pub fn gray_aware() -> Self {
        RecoveryPolicy {
            gray_detection: true,
            ..RecoveryPolicy::reactive_only()
        }
    }

    /// Reject nonsensical knob combinations at construction time instead
    /// of letting them panic (or silently misbehave) mid-run.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.checkpoint_interval == 0 {
            return Err(PolicyError::ZeroCheckpointInterval);
        }
        let value = self.restart_overhead_s;
        if !value.is_finite() || value < 0.0 {
            return Err(PolicyError::BadCost {
                field: "restart_overhead_s",
                value,
            });
        }
        Ok(())
    }
}

/// Why a run ended without completing — the per-job abort taxonomy a
/// fleet controller arbitrates on (requeue vs fail vs escalate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Recovery was disabled: the first alarm killed the job (the
    /// ablation baseline).
    RecoveryDisabled,
    /// A cordon needed a spare but the job's spare allocation was empty —
    /// the fleet-level spare pool (or the job's grant from it) ran dry.
    SparesExhausted,
    /// The restart budget (`MAX_RESTARTS`) was spent.
    RestartBudgetExhausted,
    /// Victim flows could not be steered although both endpoints were
    /// alive: the fabric partitioned beyond what ECMP can route around.
    FabricPartitioned,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AbortReason::RecoveryDisabled => "recovery disabled",
            AbortReason::SparesExhausted => "spares exhausted",
            AbortReason::RestartBudgetExhausted => "restart budget exhausted",
            AbortReason::FabricPartitioned => "fabric partitioned",
        };
        write!(f, "{s}")
    }
}

/// An explicit rank → host mapping plus the spare hosts granted to the
/// job — the multi-tenant entry point. The single-job API places jobs at
/// the fleet prefix ([`JobPlacement::prefix`]); a fleet controller places
/// each tenant wherever its policy decided and grants spares from a
/// shared pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlacement {
    /// Hosts the job runs on (one rank on rail 0 of each).
    pub hosts: Vec<HostId>,
    /// Spare hosts this job may claim on a cordon, in grant order
    /// (claims pop from the back).
    pub spares: Vec<HostId>,
}

impl JobPlacement {
    /// The legacy single-job layout: the job on hosts `0..hosts`, spares
    /// on the `spares` hosts after them.
    pub fn prefix(hosts: usize, spares: usize) -> Self {
        JobPlacement {
            hosts: (0..hosts as u32).map(HostId).collect(),
            spares: (hosts as u32..(hosts + spares) as u32)
                .map(HostId)
                .collect(),
        }
    }
}

/// Shape of the simulated training job.
#[derive(Debug, Clone, Copy)]
pub struct TrainingJobSpec {
    /// Hosts in the job (one rank on rail 0 of each).
    pub hosts: usize,
    /// Healthy spare hosts kept warm for re-placement.
    pub spares: usize,
    /// Iterations to complete.
    pub iters: u32,
    /// AllReduce payload per iteration.
    pub bytes: u64,
    /// Per-iteration computation time.
    pub comp_s: f64,
    /// RNG seed (victim-link choice, steering candidates).
    pub seed: u64,
}

impl Default for TrainingJobSpec {
    fn default() -> Self {
        TrainingJobSpec {
            hosts: 16,
            spares: 2,
            iters: 20,
            bytes: 16 << 20,
            comp_s: 0.5,
            seed: 7,
        }
    }
}

/// One fault to inject mid-run (Figure 7 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// A mid-fabric link flaps: hard-fails on an active path, healing on
    /// its own while recovery backs off.
    TransientLink {
        /// Iteration at whose start the failure lands.
        at_iter: u32,
        /// Nominal outage duration (the link is back by the time the
        /// engine's retry backoff has elapsed).
        heal_after: SimDuration,
    },
    /// An optical module on one dual-ToR uplink of a job host dies for
    /// good (fiber + both directions).
    OpticalUplink {
        /// Iteration at whose start the failure lands.
        at_iter: u32,
        /// Index into the job's host list.
        host_index: usize,
    },
    /// A job host dies outright: every NIC port goes dark.
    HostFailure {
        /// Iteration at whose start the failure lands.
        at_iter: u32,
        /// Index into the job's host list.
        host_index: usize,
    },
    /// A gray fault: one mid-fabric link flaps as a deterministic square
    /// wave — hard-fail for the down phase of each period, restore for
    /// the up phase — until `flap_count` down phases have run. Each
    /// transition lands at an iteration top, so replays are byte-exact.
    FlappingLink {
        /// Iteration of the first down edge.
        at_iter: u32,
        /// Full flap period, iterations (≥ 2: at least one up iteration
        /// per cycle, or the link is simply dead).
        period: u32,
        /// Fraction of each period spent down (clamped to keep at least
        /// one down and one up iteration per period).
        duty_cycle: f64,
        /// Down phases before the link stays up for good.
        flap_count: u32,
    },
    /// A gray fault: the optic on one host's in-use dual-ToR uplink
    /// develops BER creep — both directions lose a constant factor of
    /// capacity per iteration until they hit `floor`, without ever going
    /// down. No flow aborts; the job just gets slower.
    DegradingOptic {
        /// Iteration of the first decay step.
        at_iter: u32,
        /// Index into the job's host list.
        host_index: usize,
        /// Multiplicative capacity retention per iteration (in (0, 1)).
        decay_per_iter: f64,
        /// Surviving-capacity fraction the decay bottoms out at (> 0).
        floor: f64,
    },
    /// A gray fault: one host's ingress drains at a fraction of line rate
    /// on every rail — the NIC-level manifestation of a sick host — either
    /// persistently or toggling on/off each iteration.
    SlowHost {
        /// Iteration at whose start the slowdown lands.
        at_iter: u32,
        /// Index into the job's host list.
        host_index: usize,
        /// Surviving ingress-capacity fraction while slow (in (0, 1)).
        factor: f64,
        /// Alternate slow/healthy each iteration instead of staying slow.
        intermittent: bool,
    },
}

impl InjectedFault {
    fn at_iter(&self) -> u32 {
        match *self {
            InjectedFault::TransientLink { at_iter, .. }
            | InjectedFault::OpticalUplink { at_iter, .. }
            | InjectedFault::HostFailure { at_iter, .. }
            | InjectedFault::FlappingLink { at_iter, .. }
            | InjectedFault::DegradingOptic { at_iter, .. }
            | InjectedFault::SlowHost { at_iter, .. } => at_iter,
        }
    }
}

/// A deterministic fault schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    /// Faults, any order; the engine injects each at its iteration.
    pub faults: Vec<InjectedFault>,
}

/// What the engine concluded a fault was (from observables only). The
/// discriminant is the class's trace code ([`trace_codes::fault_class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A link that aborted flows but healed / was steerable mid-fabric.
    TransientLink = 0,
    /// A dead host-edge uplink with a surviving dual-ToR sibling.
    OpticalDualTor = 1,
    /// A host no probe can reach.
    HardHost = 2,
    /// A persistent slowdown without aborts.
    FailSlow = 3,
    /// A link with recurrent up/down transitions — gray, not a one-off
    /// transient (the suspicion detector's flapping verdict).
    FlappingLink = 4,
    /// An optic whose capacity decays monotonically while staying up —
    /// the BER-creep signature the proactive failover preempts.
    DegradingOptic = 5,
    /// A host whose ingress drains persistently or intermittently slowly —
    /// the soft-quarantine target.
    GrayStraggler = 6,
}

impl FaultClass {
    /// The Figure-7 root cause this class maps onto.
    pub fn root_cause(&self) -> RootCause {
        match self {
            FaultClass::TransientLink | FaultClass::FlappingLink => RootCause::LinkFlap,
            FaultClass::OpticalDualTor | FaultClass::DegradingOptic => RootCause::OpticalFiber,
            FaultClass::HardHost => RootCause::GpuHardware,
            FaultClass::FailSlow => RootCause::SwitchConfig,
            FaultClass::GrayStraggler => RootCause::HostEnvConfig,
        }
    }
}

/// How an incident was resolved. The discriminant is the action's trace
/// code ([`trace_codes::action`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationAction {
    /// Victim QPs steered to new source ports; iteration retried.
    EcmpReroute = 0,
    /// Traffic moved to the surviving ToR port (degraded bandwidth).
    TorFailover = 1,
    /// Host(s) cordoned / drained, spare placed, job rolled back to the
    /// last checkpoint.
    RestartFromCheckpoint = 2,
    /// Cooling cascade: louvers/valves steered the surviving airflow
    /// toward the hot racks and a thermal power cap sized the heat to it.
    FlowReroute = 3,
    /// Power cascade: the rack power cap was accepted and ridden through
    /// instead of draining the row.
    PowerCapRideThrough = 4,
    /// Straggler-aware micro-batch rebalancing: work shifted off the
    /// throttled hosts so the job runs at the harmonic-mean slowdown
    /// instead of the max.
    MicroBatchRebalance = 5,
    /// A checkpoint taken because the Seer hazard forecast predicted a
    /// forced cordon (or battery exhaustion) within the lead window.
    ProactiveCheckpoint = 6,
    /// A flapping link was steered around and placed under probation:
    /// traffic stays off it until a quiet probe window readmits it.
    LinkProbation = 7,
    /// A probation probe found no fresh flap edges: the link rejoined the
    /// steerable fabric.
    ProbeReadmit = 8,
    /// A degrading optic was failed over to the sibling ToR *before* it
    /// tripped the fail-stop ladder.
    ProactiveTorFailover = 9,
    /// A gray straggler was soft-cordoned: checkpoint at the iteration
    /// boundary, spare swapped in, no rollback.
    Quarantine = 10,
    /// Recovery gave up (or was disabled).
    Abort = 11,
}

/// Stable numeric codes for trace-record payloads. These are part of the
/// serialized trace format (`astral-trace` JSONL) — append new codes,
/// never renumber existing ones.
pub mod trace_codes {
    use super::{FaultClass, InjectedFault, MitigationAction};
    use astral_monitor::CauseClass;

    /// Code of a mitigation action (`LadderDecision` records, `aux`).
    pub fn action(a: MitigationAction) -> u16 {
        a as u16
    }

    /// Code of a diagnosed fault class (`LadderDecision` records, `b`).
    pub fn fault_class(c: FaultClass) -> u16 {
        c as u16
    }

    /// Code of an analyzer cause (`SubstrateDiagnosis` records, `aux`).
    pub fn cause(c: CauseClass) -> u16 {
        match c {
            CauseClass::HostEnvironment => 0,
            CauseClass::NicOrLink => 1,
            CauseClass::GpuHardware => 2,
            CauseClass::SoftwareOrUserCode => 3,
            CauseClass::SwitchOrFabric => 4,
            CauseClass::PcieBottleneck => 5,
            CauseClass::Congestion => 6,
            CauseClass::PowerDelivery => 7,
            CauseClass::Cooling => 8,
            CauseClass::Unknown => 9,
        }
    }

    /// Kind code of a scripted network fault (`FaultInject` records,
    /// `aux`).
    pub fn injected_kind(f: &InjectedFault) -> u16 {
        match f {
            InjectedFault::TransientLink { .. } => 0,
            InjectedFault::OpticalUplink { .. } => 1,
            InjectedFault::HostFailure { .. } => 2,
            InjectedFault::FlappingLink { .. } => 3,
            InjectedFault::DegradingOptic { .. } => 4,
            InjectedFault::SlowHost { .. } => 5,
        }
    }
}

/// One detected-and-handled fault.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Iteration during which the alarm fired.
    pub iter: u32,
    /// Diagnosed class.
    pub class: FaultClass,
    /// Resolution.
    pub action: MitigationAction,
    /// Retry attempt number when this incident fired (0 = first).
    pub retries: u32,
    /// Detection + localization time (the MTTLF component).
    pub locate_s: f64,
    /// Mitigation time: backoff, failover, or restart (MTTR - MTTLF).
    pub repair_s: f64,
    /// Links the localization blamed.
    pub blamed: Vec<LinkId>,
    /// Hosts cordoned by this incident.
    pub cordoned: Vec<HostId>,
}

impl Incident {
    /// A first-attempt incident that charges no time and blames and
    /// cordons nothing; callers set the rest.
    fn new(iter: u32, class: FaultClass, action: MitigationAction) -> Self {
        Incident {
            iter,
            class,
            action,
            retries: 0,
            locate_s: 0.0,
            repair_s: 0.0,
            blamed: Vec::new(),
            cordoned: Vec::new(),
        }
    }
}

/// Ground truth of one injection, for reporting (never used by recovery).
#[derive(Debug, Clone)]
pub struct InjectionRecord {
    /// The fault as scripted.
    pub fault: InjectedFault,
    /// QPs whose live route crossed the failed link(s) at injection time.
    pub blast_radius: usize,
}

/// End-to-end outcome of a run.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Whether every iteration completed.
    pub completed: bool,
    /// Iterations of retained progress: `spec.iters` on completion, the
    /// last checkpoint on an abort (the restart point a requeue resumes
    /// from).
    pub iters_done: u32,
    /// Why the run aborted; `None` when it completed.
    pub abort: Option<AbortReason>,
    /// Spares consumed by cordon-and-replace restarts, in claim order —
    /// the debit a fleet-wide spare-pool arbiter charges this job.
    pub spares_claimed: Vec<HostId>,
    /// Hosts soft-quarantined by the gray detector, in verdict order —
    /// suspect (not dead) capacity a fleet controller should steer new
    /// placements away from until the host is cleared.
    pub quarantined: Vec<HostId>,
    /// Wall-clock that produced retained training progress.
    pub useful_s: f64,
    /// Wall-clock of iterations discarded by checkpoint rollbacks.
    pub lost_rollback_s: f64,
    /// Straggler tax: excess compute wall-clock lost to substrate
    /// throttling (power caps, thermal throttle), plus a slow-but-complete
    /// iteration's excess over the detector's healthy baseline.
    pub degraded_s: f64,
    /// Wall-clock spent writing checkpoints.
    pub checkpoint_s: f64,
    /// Detection, backoff, failed attempts, and restart time.
    pub downtime_s: f64,
    /// Incidents in detection order.
    pub incidents: Vec<Incident>,
    /// Scripted injections with their blast radii (ground truth).
    pub injections: Vec<InjectionRecord>,
    /// Cumulative rate-solver work over the whole run (fault handling
    /// forces full solves; healthy iterations stay incremental).
    pub solver: SolverCounters,
    /// The structured event timeline of the run, drained from the
    /// simulator's ring at completion. Empty unless the run's
    /// `NetConfig::trace` was set. Excluded from [`Self::fingerprint`]
    /// (the trace *describes* the run; the fingerprint *is* the run), but
    /// `astral_trace::fingerprint` over it is itself deterministic and
    /// pinned by the replay tests.
    pub trace: Vec<TraceRecord>,
}

impl Drop for RecoveryReport {
    /// Park the timeline's allocation for the next traced run on this
    /// thread (see `astral_trace::recycle`): batteries and benches churn
    /// through reports, and re-faulting a fresh multi-megabyte trace
    /// buffer per run is the dominant recording overhead.
    fn drop(&mut self) {
        astral_trace::recycle(std::mem::take(&mut self.trace));
    }
}

impl RecoveryReport {
    /// Total accounted wall-clock.
    pub fn total_s(&self) -> f64 {
        self.useful_s + self.lost_rollback_s + self.degraded_s + self.checkpoint_s + self.downtime_s
    }

    /// Goodput fraction: useful time over total (the Figure-10 y-axis,
    /// a.k.a. effective-training-time ratio).
    pub fn goodput(&self) -> f64 {
        let t = self.total_s();
        if t > 0.0 {
            self.useful_s / t
        } else {
            1.0
        }
    }

    /// Mean time to recover: alarm to resumed training, per incident.
    pub fn mttr_s(&self) -> Option<f64> {
        let done = self
            .incidents
            .iter()
            .filter(|i| i.action != MitigationAction::Abort);
        mean(done.map(|i| i.locate_s + i.repair_s))
    }

    /// Mean time to locate a failure (detection + localization only).
    pub fn mttlf_s(&self) -> Option<f64> {
        mean(self.incidents.iter().map(|i| i.locate_s))
    }

    /// A deterministic fingerprint over every semantic field of the run —
    /// float bits, the full incident and injection sequences — but
    /// *excluding* [`SolverCounters`], which legitimately differ between
    /// joint and pod-grouped fills while producing the same rates.
    /// Byte-identical fingerprints ⇒ identical runs.
    pub fn fingerprint(&self) -> String {
        let mut s = format!(
            "done:{}·{}·{:?}·{:?}·q{:?}|u:{:016x}|r:{:016x}|g:{:016x}|c:{:016x}|d:{:016x}",
            self.completed,
            self.iters_done,
            self.abort,
            self.spares_claimed,
            self.quarantined,
            self.useful_s.to_bits(),
            self.lost_rollback_s.to_bits(),
            self.degraded_s.to_bits(),
            self.checkpoint_s.to_bits(),
            self.downtime_s.to_bits(),
        );
        for i in &self.incidents {
            s.push_str(&format!(
                "|inc:{}·{:?}·{:?}·{}·{:016x}·{:016x}·{:?}·{:?}",
                i.iter,
                i.class,
                i.action,
                i.retries,
                i.locate_s.to_bits(),
                i.repair_s.to_bits(),
                i.blamed,
                i.cordoned,
            ));
        }
        for j in &self.injections {
            s.push_str(&format!("|inj:{:?}·{}", j.fault, j.blast_radius));
        }
        s
    }
}

/// Run a training job under `policy` with `script`'s faults injected, on
/// the fleet-prefix placement ([`JobPlacement::prefix`]) and the default
/// runner configuration. This is a cascade run with no substrate faults:
/// [`try_run_cascade_placed`] takes every other option. Deterministic for
/// a fixed (topology, policy, spec, script) tuple.
pub fn try_run_training(
    topo: &Topology,
    policy: &RecoveryPolicy,
    spec: &TrainingJobSpec,
    script: &FaultScript,
) -> Result<RecoveryReport, PolicyError> {
    let script = CascadeScript {
        faults: Vec::new(),
        net_faults: script.faults.clone(),
    };
    try_run_cascade_placed(
        topo,
        policy,
        spec,
        &script,
        RunnerConfig::default(),
        &JobPlacement::prefix(spec.hosts, spec.spares),
        None,
    )
    .map(|r| r.recovery)
}

/// The mean of `xs`; `None` when there are none.
fn mean(xs: impl Iterator<Item = f64> + Clone) -> Option<f64> {
    let n = xs.clone().count();
    (n > 0).then(|| xs.sum::<f64>() / n as f64)
}

/// The recovery engine of one run, built on a validated job shape and
/// consumed by [`Engine::run_parts`].
pub(crate) struct Engine<'t> {
    topo: &'t Topology,
    policy: RecoveryPolicy,
    spec: TrainingJobSpec,
    /// The scripted network faults, each pending, fired or driving.
    faults: Vec<ScriptedFault>,
    runner: CollectiveRunner<'t>,
    detector: OnlineDetector,
    rng: SimRng,
    hosts: Vec<HostId>,
    group: Vec<GpuId>,
    spares: Vec<HostId>,
    /// Spares granted at placement, for the audit.
    spare_grant: usize,
    /// Transient links awaiting their heal, restored during backoff.
    pending_restores: Vec<LinkId>,
    /// The suspicion scorer, consulted only under `policy.gray_detection`
    /// (the faults themselves are injected for every policy).
    gray_detector: GrayDetector,
    /// Links every steering decision must route around (probation +
    /// proactive failover verdicts).
    avoided_links: BTreeSet<LinkId>,
    probations: BTreeMap<LinkId, Probation>,
    /// Suspicion verdicts awaiting an iteration that stands.
    pending_verdicts: Vec<GrayVerdict>,
    /// Hosts soft-quarantined by the gray ladder, in verdict order.
    quarantined: Vec<HostId>,
    /// Power/cooling/optics cascades; nominal without substrate faults.
    substrate: SubstrateState,
    /// A Seer hazard warning is live (one proactive checkpoint each).
    hazard_latched: bool,
    /// Wall-clock of the previous iteration (the substrate clock step).
    last_iter_s: f64,
    ledger: Ledger,
    restarts: u32,
    /// Why the run aborted; `None` while it runs and once it completes.
    abort_reason: Option<AbortReason>,
    spares_claimed: Vec<HostId>,
    incidents: Vec<Incident>,
    injections: Vec<InjectionRecord>,
    /// Mined drill-down prior for the substrate analyzer (inert default).
    prior: CorrelationPrior,
    /// One reused buffer for every steering and reachability walk.
    route_buf: Vec<LinkId>,
}

impl<'t> Engine<'t> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        topo: &'t Topology,
        policy: RecoveryPolicy,
        spec: TrainingJobSpec,
        script: &CascadeScript,
        runner_cfg: RunnerConfig,
        placement: &JobPlacement,
        router: Option<Arc<Router>>,
        prior: CorrelationPrior,
    ) -> Self {
        let rails = topo.rails() as u32;
        let faults = script.net_faults.iter().map(ScriptedFault::pending);
        let runner = match router {
            Some(r) => CollectiveRunner::with_router(topo, runner_cfg, r),
            None => CollectiveRunner::new(topo, runner_cfg),
        };
        Engine {
            topo,
            policy,
            spec,
            faults: faults.collect(),
            runner,
            detector: OnlineDetector::new(),
            rng: SimRng::new(spec.seed),
            hosts: placement.hosts.clone(),
            group: placement.hosts.iter().map(|h| GpuId(h.0 * rails)).collect(),
            spares: placement.spares.clone(),
            spare_grant: placement.spares.len(),
            pending_restores: Vec::new(),
            gray_detector: GrayDetector::new(),
            avoided_links: BTreeSet::new(),
            probations: BTreeMap::new(),
            pending_verdicts: Vec::new(),
            quarantined: Vec::new(),
            substrate: SubstrateState::new(topo, spec.seed, script),
            hazard_latched: false,
            last_iter_s: spec.comp_s,
            ledger: Ledger::new(spec.iters),
            restarts: 0,
            abort_reason: None,
            spares_claimed: Vec::new(),
            incidents: Vec::new(),
            injections: Vec::new(),
            prior,
            route_buf: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests;

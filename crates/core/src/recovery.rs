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
//!   surviving ToR port at degraded bandwidth (property P3), unless the
//!   surviving fraction is below the policy's floor, in which case the
//!   host is drained and replaced;
//! * **hard host faults** — the host is cordoned, a spare takes its
//!   place, and the job restarts from the last checkpoint.
//!
//! The engine accounts goodput the way Figure 10 does: wall-clock is
//! partitioned into useful training, work lost to rollback, checkpoint
//! overhead, and downtime (detection, backoff, restart), yielding an
//! effective-training-time ratio plus MTTR/MTTLF per incident.

use crate::cascade::{try_run_cascade_placed, CascadeReport, CascadeScript, SubstrateState};
use astral_collectives::{CollectiveRunner, RunnerConfig};
use astral_monitor::{
    Analyzer, CauseClass, CorrelationPrior, GrayDetector, GrayEdge, GrayEvent, GrayPattern,
    GraySample, GrayVerdict, HostHealth, JobDesc, OnlineDetector, RankProgress, RootCause,
    Snapshot,
};
use astral_net::{FlowEvent, QpId, SolverCounters, EPHEMERAL_BASE};
use astral_sim::{SimDuration, SimRng};
use astral_topo::{GpuId, HostId, LinkId, NodeId, NodeKind, Router, Topology};
use astral_trace::{TraceKind, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Wall-clock cost of writing one checkpoint, seconds.
const CHECKPOINT_COST_S: f64 = 0.05;

/// Mitigate-and-retry attempts per iteration before escalating to a
/// checkpoint restart.
const RETRY_BUDGET: u32 = 3;

/// First retry backoff; doubles per attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(50);

/// Time the monitor needs to raise and localize an alarm, seconds.
const DETECTION_OVERHEAD_S: f64 = 0.2;

/// Checkpoint restarts allowed before the job is declared lost.
const MAX_RESTARTS: u32 = 3;

/// Forecast lead window, iterations, for the Seer-gated proactive
/// checkpoint.
const SEER_LEAD_ITERS: u32 = 3;

/// Initial probation window, iterations, for a suspect flapping link;
/// doubles each time the probe finds fresh flap edges.
const GRAY_PROBATION_ITERS: u32 = 4;

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
    /// Minimum surviving-uplink fraction for a dual-ToR failover; hosts
    /// degraded below this are drained and replaced instead.
    pub degraded_bw_floor: f64,
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
            degraded_bw_floor: 0.4,
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
    /// `degraded_bw_floor` must lie in [0, 1].
    BwFloorOutOfRange {
        /// The offending fraction.
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
            PolicyError::BwFloorOutOfRange { value } => {
                write!(f, "degraded_bw_floor must lie in [0, 1], got {value}")
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
        if !(0.0..=1.0).contains(&self.degraded_bw_floor) {
            return Err(PolicyError::BwFloorOutOfRange {
                value: self.degraded_bw_floor,
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
    /// cordons nothing; callers set the rest with struct-update syntax.
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
        let done: Vec<f64> = self
            .incidents
            .iter()
            .filter(|i| i.action != MitigationAction::Abort)
            .map(|i| i.locate_s + i.repair_s)
            .collect();
        (!done.is_empty()).then(|| done.iter().sum::<f64>() / done.len() as f64)
    }

    /// Mean time to locate a failure (detection + localization only).
    pub fn mttlf_s(&self) -> Option<f64> {
        let all: Vec<f64> = self.incidents.iter().map(|i| i.locate_s).collect();
        (!all.is_empty()).then(|| all.iter().sum::<f64>() / all.len() as f64)
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

/// Live state of one activated gray fault. Each driver resolves its
/// concrete topology targets (link, host) once at activation — a
/// quarantine swap must not re-aim the fault at the replacement host.
#[derive(Debug, Clone)]
enum GrayDrive {
    /// Square-wave flapper: `next_edge_iter` is monotone, so re-running
    /// an iteration after a rollback is a no-op, never a double edge.
    Flap {
        link: LinkId,
        down: bool,
        downs_done: u32,
        down_len: u32,
        up_len: u32,
        flap_count: u32,
        next_edge_iter: u32,
    },
    /// BER creep on one uplink pair; `frac` only moves forward in
    /// iteration time (`next_it` is monotone, so rollback re-execution of
    /// an earlier iteration is a no-op).
    Optic {
        links: [LinkId; 2],
        frac: f64,
        decay: f64,
        floor: f64,
        next_it: u32,
    },
    /// Slow (optionally intermittent) host ingress.
    Slow {
        host: HostId,
        factor: f64,
        intermittent: bool,
        start_iter: u32,
        degraded: bool,
        next_it: u32,
    },
}

/// One link's probation record: steered around, probed before readmission.
#[derive(Debug, Clone)]
struct Probation {
    /// Iteration the readmission probe runs.
    until_iter: u32,
    /// Escalation level: each failed probe doubles the next window.
    level: u32,
    /// Flap-edge counter at (re)entry — fresh edges fail the probe.
    edges_at_entry: u32,
}

/// The recovery engine of one run. The cascade entry points build it on a
/// validated job shape (see [`PolicyError`]); [`Engine::run_parts`] consumes
/// it.
pub(crate) struct Engine<'t> {
    topo: &'t Topology,
    policy: RecoveryPolicy,
    spec: TrainingJobSpec,
    /// Scripted network faults, any order.
    net_faults: Vec<InjectedFault>,
    runner: CollectiveRunner<'t>,
    detector: OnlineDetector,
    rng: SimRng,
    hosts: Vec<HostId>,
    group: Vec<GpuId>,
    spares: Vec<HostId>,
    /// Spares granted at placement (claimed + unclaimed, for the ledger).
    spare_grant: usize,
    injected: Vec<bool>,
    /// Transient links awaiting their heal, restored during backoff.
    pending_restores: Vec<LinkId>,
    /// Live gray-fault drivers, parallel to `net_faults` (None for
    /// fail-stop entries and not-yet-activated gray entries). The driver
    /// acts only at iteration tops, so faults replay byte-for-byte.
    gray_drives: Vec<Option<GrayDrive>>,
    /// The suspicion scorer, present only under `policy.gray_detection`
    /// (the faults themselves are injected for every policy).
    gray_detector: Option<GrayDetector>,
    /// Links every steering decision must route around (probation +
    /// proactive failover verdicts).
    avoided_links: BTreeSet<LinkId>,
    /// Probation ledger for suspect flapping links.
    probations: BTreeMap<LinkId, Probation>,
    /// Suspicion verdicts awaiting a healthy iteration to act on.
    pending_verdicts: Vec<GrayVerdict>,
    /// Hosts soft-quarantined by the gray ladder, in verdict order.
    quarantined: Vec<HostId>,
    /// Substrate cascade driver (power/cooling/optics). Without substrate
    /// faults it stays at nominal: multiplier 1.0, no forecast samples, no
    /// trace records.
    substrate: SubstrateState,
    /// A Seer hazard warning is currently live (one proactive checkpoint
    /// per hazard episode).
    hazard_latched: bool,
    /// Iteration of the most recent checkpoint (periodic or proactive).
    last_checkpoint: u32,
    /// Wall-clock of the previous iteration (the substrate clock step).
    last_iter_s: f64,
    // accounting
    iter_useful: Vec<f64>,
    useful_s: f64,
    lost_rollback_s: f64,
    degraded_s: f64,
    checkpoint_s: f64,
    downtime_s: f64,
    restarts: u32,
    abort_reason: Option<AbortReason>,
    spares_claimed: Vec<HostId>,
    incidents: Vec<Incident>,
    injections: Vec<InjectionRecord>,
    /// Mined drill-down prior for the substrate analyzer. The default
    /// (inert) prior reproduces the baseline analyzer byte for byte.
    prior: CorrelationPrior,
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
        let faults = script.net_faults.len();
        let gray_detector = policy.gray_detection.then(GrayDetector::new);
        let runner = match router {
            Some(r) => CollectiveRunner::with_router(topo, runner_cfg, r),
            None => CollectiveRunner::new(topo, runner_cfg),
        };
        Engine {
            topo,
            policy,
            spec,
            net_faults: script.net_faults.clone(),
            runner,
            detector: OnlineDetector::new(),
            rng: SimRng::new(spec.seed),
            hosts: placement.hosts.clone(),
            group: placement.hosts.iter().map(|h| GpuId(h.0 * rails)).collect(),
            spares: placement.spares.clone(),
            spare_grant: placement.spares.len(),
            injected: vec![false; faults],
            pending_restores: Vec::new(),
            gray_drives: vec![None; faults],
            gray_detector,
            avoided_links: BTreeSet::new(),
            probations: BTreeMap::new(),
            pending_verdicts: Vec::new(),
            quarantined: Vec::new(),
            substrate: SubstrateState::new(topo, spec.seed, script),
            hazard_latched: false,
            last_checkpoint: 0,
            last_iter_s: spec.comp_s,
            iter_useful: vec![0.0; spec.iters as usize],
            useful_s: 0.0,
            lost_rollback_s: 0.0,
            degraded_s: 0.0,
            checkpoint_s: 0.0,
            downtime_s: 0.0,
            restarts: 0,
            abort_reason: None,
            spares_claimed: Vec::new(),
            incidents: Vec::new(),
            injections: Vec::new(),
            prior,
        }
    }

    /// Record an incident and emit its `LadderDecision` trace record —
    /// every recovery-ladder step, gray verdict, substrate mitigation,
    /// and proactive checkpoint passes through here, so the trace carries
    /// the full decision timeline.
    fn push_incident(&mut self, inc: Incident) {
        self.runner.sim_mut().trace_record(
            TraceKind::LadderDecision,
            trace_codes::action(inc.action),
            inc.iter,
            u32::from(trace_codes::fault_class(inc.class)),
            inc.blamed.len() as u64,
            inc.cordoned.len() as u64,
        );
        self.incidents.push(inc);
    }

    /// Drive the job to completion or abort.
    pub(crate) fn run_parts(mut self) -> CascadeReport {
        let mut it = 0u32;
        let mut attempt = 0u32;
        let mut completed = true;

        while it < self.spec.iters {
            if attempt == 0 {
                if it > 0 && it.is_multiple_of(self.policy.checkpoint_interval) {
                    self.checkpoint_s += CHECKPOINT_COST_S;
                    self.last_checkpoint = it;
                }
                self.inject_due(it);
                self.gray_drive_tick(it);
                if let Some(forced) = self.substrate_begin_iter(it) {
                    // The DCIM tripped: a rack crossed the critical
                    // temperature. Cordon it, repair, restart.
                    let locate_s = DETECTION_OVERHEAD_S;
                    self.downtime_s += locate_s;
                    let base = Incident {
                        locate_s,
                        ..Incident::new(
                            it,
                            FaultClass::FailSlow,
                            MitigationAction::RestartFromCheckpoint,
                        )
                    };
                    let incident = self.restart_with_replacement(base, forced);
                    let action = incident.action;
                    self.push_incident(incident);
                    if action == MitigationAction::Abort {
                        completed = false;
                        break;
                    }
                    self.rollback(self.last_checkpoint, it);
                    it = self.last_checkpoint;
                    attempt = 0;
                    continue;
                }
            }

            // One iteration: the computation phase is pure wall-clock
            // accounting (the net clock only tracks network events, and
            // substrate throttling multiplies the compute time), then the
            // gradient AllReduce runs on the simulator.
            let comp_eff = self.effective_comp_s();
            let res = self.runner.all_reduce_flat(&self.group, self.spec.bytes);
            let events = self.runner.sim_mut().drain_flow_events();
            let aborted: Vec<QpId> = events
                .iter()
                .filter_map(|e| match e {
                    FlowEvent::Aborted { qp, .. } => Some(*qp),
                    FlowEvent::Requeued { .. } => None,
                })
                .collect();
            let iter_s = comp_eff + res.duration.as_secs_f64();
            self.last_iter_s = iter_s;
            // The straggler tax: the slowdown over nominal compute is
            // degraded time, not useful time (Figure-10 accounting).
            let degraded_part = (comp_eff - self.spec.comp_s).max(0.0);
            let useful_part = iter_s - degraded_part;

            let alarm = self.detector.observe_iteration(iter_s, aborted.len());
            self.gray_observe(it);
            if alarm.is_none() {
                // Healthy from the network's perspective — but the
                // physical-layer DCIM may still be alarming on substrate
                // telemetry (a straggler cascade never aborts a flow).
                self.substrate_attend(it);
                // Gray verdicts also land here: a gray fault, by
                // definition, degrades iterations that still complete.
                self.gray_attend(it);
                self.iter_useful[it as usize] = useful_part;
                self.useful_s += useful_part;
                self.degraded_s += degraded_part;
                it += 1;
                attempt = 0;
                continue;
            }

            // The anomalous attempt's wall-clock: a collective that still
            // delivered (flaky link healed mid-step) retains its progress;
            // one with failed flows produced nothing.
            let produced = res.failed_flows == 0;
            if produced {
                // A slow-but-complete iteration (the Slowdown alarm path):
                // the excess over the detector's healthy baseline is the
                // comm-side straggler tax — degraded, not useful, time,
                // symmetric with the compute-throttle accounting above.
                let slow_tax = self
                    .detector
                    .baseline_s()
                    .map_or(0.0, |b| ((iter_s - b).max(0.0) - degraded_part).max(0.0));
                self.iter_useful[it as usize] = useful_part - slow_tax;
                self.useful_s += useful_part - slow_tax;
                self.degraded_s += degraded_part + slow_tax;
            } else {
                self.downtime_s += iter_s;
            }

            if !self.policy.enabled {
                self.abort_reason = Some(AbortReason::RecoveryDisabled);
                let class = if aborted.is_empty() {
                    FaultClass::FailSlow
                } else {
                    FaultClass::TransientLink
                };
                self.push_incident(Incident {
                    retries: attempt,
                    ..Incident::new(it, class, MitigationAction::Abort)
                });
                completed = false;
                break;
            }

            let incident = self.recover(it, &aborted, attempt);
            let action = incident.action;
            let class = incident.class;
            let rolled_back_to = self.last_checkpoint;
            self.push_incident(incident);
            self.substrate.note_incident(it, class);
            match action {
                MitigationAction::Abort => {
                    completed = false;
                    break;
                }
                MitigationAction::RestartFromCheckpoint => {
                    self.rollback(rolled_back_to, it);
                    it = rolled_back_to;
                    attempt = 0;
                }
                MitigationAction::EcmpReroute | MitigationAction::TorFailover => {
                    if produced {
                        // A slow-but-complete iteration still advances, so
                        // gray verdicts must drain here too: a persistent
                        // partial fault alarms the reactive detector every
                        // iteration, and waiting for a clean one would
                        // postpone quarantine forever.
                        self.gray_attend(it);
                        it += 1;
                        attempt = 0;
                    } else {
                        attempt += 1;
                    }
                }
                // Graceful-degradation and gray actions are applied on
                // healthy iterations via `substrate_attend` / `gray_attend`,
                // never returned from `recover`.
                MitigationAction::FlowReroute
                | MitigationAction::PowerCapRideThrough
                | MitigationAction::MicroBatchRebalance
                | MitigationAction::ProactiveCheckpoint
                | MitigationAction::LinkProbation
                | MitigationAction::ProbeReadmit
                | MitigationAction::ProactiveTorFailover
                | MitigationAction::Quarantine => unreachable!(),
            }
        }

        self.check_ledger();
        let trace = self.runner.sim_mut().take_trace();
        let recovery = RecoveryReport {
            completed,
            iters_done: if completed {
                self.spec.iters
            } else {
                self.last_checkpoint
            },
            abort: if completed { None } else { self.abort_reason },
            spares_claimed: self.spares_claimed,
            quarantined: self.quarantined,
            useful_s: self.useful_s,
            lost_rollback_s: self.lost_rollback_s,
            degraded_s: self.degraded_s,
            checkpoint_s: self.checkpoint_s,
            downtime_s: self.downtime_s,
            incidents: self.incidents,
            injections: self.injections,
            solver: self.runner.sim().solver_counters(),
            trace,
        };
        CascadeReport {
            recovery,
            attributions: self.substrate.attributions,
        }
    }

    /// The run ledger, checked in debug builds only: per-iteration useful
    /// time sums to the useful total, no incident cordons a host twice,
    /// and every granted spare is claimed at most once or still unclaimed.
    fn check_ledger(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let total_s = self.useful_s
            + self.lost_rollback_s
            + self.degraded_s
            + self.checkpoint_s
            + self.downtime_s;
        let iter_sum: f64 = self.iter_useful.iter().sum();
        let drift = (self.useful_s - iter_sum).abs();
        assert!(drift <= 1e-9 * total_s.max(1.0), "useful_s drifts {drift}");
        let distinct = |hs: &[HostId]| hs.iter().collect::<BTreeSet<_>>().len() == hs.len();
        for inc in &self.incidents {
            assert!(distinct(&inc.cordoned), "double cordon: {inc:?}");
        }
        let claimed = &self.spares_claimed;
        assert!(distinct(claimed), "spare claimed twice: {claimed:?}");
        assert_eq!(claimed.len() + self.spares.len(), self.spare_grant);
    }

    /// Advance the substrate one iteration: inject due faults, kill
    /// optics-burst uplinks, tick the sag/thermal clocks, run the Seer
    /// hazard forecast, and surface any forced cordon (a rack past the
    /// critical inlet temperature that the DCIM pulls out of service).
    fn substrate_begin_iter(&mut self, it: u32) -> Option<Vec<HostId>> {
        let attrs_before = self.substrate.attributions.len();
        let tick = self.substrate.begin_iter(it, self.last_iter_s, &self.hosts);
        // Every cascade that manifested this tick is one SubstrateOnset
        // record; every DCIM trip is one ForcedCordon record.
        for attr in &self.substrate.attributions[attrs_before..] {
            self.runner.sim_mut().trace_record(
                TraceKind::SubstrateOnset,
                attr.class.code(),
                attr.onset_iter,
                attr.blast_hosts as u32,
                0,
                0,
            );
        }
        for &host in &tick.forced_cordon {
            self.runner
                .sim_mut()
                .trace_record(TraceKind::ForcedCordon, 0, host.0, it, 0, 0);
        }
        self.fail_optics_batch(&tick.kill_uplinks);
        let imminent = self
            .substrate
            .hazard_imminent(SEER_LEAD_ITERS, self.last_iter_s);
        if imminent
            && !self.hazard_latched
            && self.policy.proactive_checkpoint
            && it > self.last_checkpoint
        {
            // Edge-triggered: one proactive checkpoint per hazard episode.
            self.checkpoint_s += CHECKPOINT_COST_S;
            self.last_checkpoint = it;
            self.push_incident(Incident {
                repair_s: CHECKPOINT_COST_S,
                ..Incident::new(
                    it,
                    FaultClass::FailSlow,
                    MitigationAction::ProactiveCheckpoint,
                )
            });
        }
        self.hazard_latched = imminent;
        (!tick.forced_cordon.is_empty()).then_some(tick.forced_cordon)
    }

    /// The DCIM attend path: on a healthy-looking iteration, check for
    /// pending substrate stress (throttled or power-capped racks whose
    /// multipliers never cross the network detector's 2× threshold), build
    /// a full snapshot, let the [`Analyzer`] name the originating
    /// substrate, and apply the policy's mitigation.
    fn substrate_attend(&mut self, it: u32) {
        if !self.substrate.stress_pending() {
            return;
        }
        let snap = self.build_snapshot(it);
        let diag = Analyzer::new().diagnose_with_prior(&snap, self.runner.sim(), &self.prior);
        self.runner.sim_mut().trace_record(
            TraceKind::SubstrateDiagnosis,
            trace_codes::cause(diag.cause),
            it,
            0,
            diag.queries as u64,
            0,
        );
        let locate_s = DETECTION_OVERHEAD_S;
        self.downtime_s += locate_s;
        let graceful = self.policy.graceful_degradation;
        if self.substrate.attend(it, diag.cause, graceful) && graceful {
            let action = match diag.cause {
                CauseClass::Cooling => MitigationAction::FlowReroute,
                CauseClass::PowerDelivery => MitigationAction::PowerCapRideThrough,
                _ => MitigationAction::EcmpReroute,
            };
            self.push_incident(Incident {
                locate_s,
                ..Incident::new(it, FaultClass::FailSlow, action)
            });
            let rebalance = MitigationAction::MicroBatchRebalance;
            self.push_incident(Incident::new(it, FaultClass::FailSlow, rebalance));
            return;
        }
        // Reactive policies have no substrate levers: the only knob is
        // symptom-level ECMP steering off the hottest links (the FailSlow
        // ladder), which does nothing for a compute-side straggler
        // cascade.
        let hot = self.steer_off_hottest();
        self.push_incident(Incident {
            locate_s,
            blamed: hot,
            ..Incident::new(it, FaultClass::FailSlow, MitigationAction::EcmpReroute)
        });
    }

    /// A full monitoring snapshot of the job: per-rank progress with the
    /// substrate's compute multipliers folded in, per-host substrate
    /// telemetry, and harvested network counters.
    fn build_snapshot(&self, it: u32) -> Snapshot {
        let job = JobDesc {
            job: 0,
            hosts: self.hosts.clone(),
            expected_iters: it.max(1),
            expected_iter_s: self.detector.baseline_s().unwrap_or(self.last_iter_s),
        };
        let mut snap = Snapshot {
            job: Some(job),
            ..Snapshot::default()
        };
        let comm_s = (self.last_iter_s - self.spec.comp_s).max(0.0);
        for (i, &h) in self.hosts.iter().enumerate() {
            snap.ranks.push(RankProgress {
                gpu: self.group[i],
                host: h,
                iters_done: it,
                ops_done: it as u64 * 100,
                comp_time_s: self.spec.comp_s * self.substrate.host_multiplier(h),
                comm_time_s: comm_s,
                error_log: None,
            });
            let telemetry = self.substrate.telemetry(h);
            let mut health = HostHealth::healthy(h);
            health.inlet_temp_c = telemetry.inlet_temp_c;
            health.power_cap_frac = telemetry.power_cap_frac;
            health.thermal_throttle = telemetry.thermal_throttle;
            snap.health.push(health);
        }
        snap.harvest_network(self.runner.sim());
        snap
    }

    /// Per-iteration compute time with the substrate's aggregate
    /// straggler multiplier applied (exactly 1.0 at nominal).
    fn effective_comp_s(&self) -> f64 {
        self.spec.comp_s * self.substrate.aggregate_multiplier(&self.hosts)
    }

    /// The job's host for a scripted `host_index` (wrapping).
    fn job_host(&self, host_index: usize) -> HostId {
        self.hosts[host_index % self.hosts.len()]
    }

    /// Hard-fail `links` now, in order.
    fn fail_now(&mut self, links: &[LinkId]) {
        let now = self.runner.sim().now();
        for &l in links {
            self.runner.sim_mut().fail_link_at(now, l);
        }
    }

    /// The (uplink, downlink) pair of `host`'s first NIC: toward `tor` when
    /// that NIC is wired to it, else the uplink its traffic currently rides
    /// (the lowest-id live QP sourced there decides), else its first uplink.
    fn live_uplink_pair(&self, host: HostId, tor: Option<NodeId>) -> [LinkId; 2] {
        let nic = self.topo.host(host).nics[0];
        let sim = self.runner.sim();
        let in_use = || {
            let rec = sim.qp_records().find(|r| r.src_nic == nic)?;
            sim.qp_route(rec.qp)?.first().copied()
        };
        let up = tor
            .and_then(|tor| self.topo.link_between(nic, tor))
            .or_else(in_use)
            .unwrap_or_else(|| self.topo.out_links(nic)[0]);
        let down = self
            .topo
            .link_between(self.topo.link(up).dst, nic)
            .expect("duplex");
        [up, down]
    }

    /// Every edge link of `host` as `(uplink, downlink)` pairs, NIC by NIC.
    fn host_edges(&self, host: HostId) -> impl Iterator<Item = (LinkId, LinkId)> + 't {
        let topo = self.topo;
        topo.host(host)
            .nics
            .iter()
            .flat_map(|&nic| topo.nic_edges(nic))
    }

    /// Kill a correlated optics batch: the failed modules share one
    /// switch linecard, so every victim loses its uplink toward the *same*
    /// ToR (the one the first victim's traffic rides). Each host keeps its
    /// sibling ToR, so the fabric degrades rather than partitions —
    /// killing in-use uplinks independently can cut opposite ToR sides of
    /// adjacent hosts and leave a host pair unroutable under up–down
    /// routing.
    fn fail_optics_batch(&mut self, victims: &[HostId]) {
        let mut batch_tor: Option<NodeId> = None;
        for &host in victims {
            let pair = self.live_uplink_pair(host, batch_tor);
            batch_tor.get_or_insert(self.topo.link(pair[0]).dst);
            self.fail_now(&pair);
        }
    }

    /// The closed loop for one alarm: localize via probes, pick a
    /// mitigation, apply it, charge its cost.
    fn recover(&mut self, it: u32, aborted: &[QpId], attempt: u32) -> Incident {
        let locate_s = DETECTION_OVERHEAD_S;
        self.downtime_s += locate_s;

        let mut incident = Incident {
            retries: attempt,
            locate_s,
            ..Incident::new(it, FaultClass::TransientLink, MitigationAction::EcmpReroute)
        };

        // Escalation ladder: past the retry budget, restart (cordoning
        // nothing); past the restart budget, give up.
        if attempt > RETRY_BUDGET {
            let class = incident.class;
            return Incident {
                class,
                ..self.restart_with_replacement(incident, Vec::new())
            };
        }

        // Pure slowdown: steer flows off the hottest (ECN-marked) links.
        if aborted.is_empty() {
            incident.class = FaultClass::FailSlow;
            incident.blamed = self.steer_off_hottest();
            return incident;
        }

        // Localization: probe each aborted QP's current path hop by hop;
        // the link after the last answering hop is the culprit.
        let mut blamed: BTreeSet<LinkId> = BTreeSet::new();
        let mut unreachable: Vec<QpId> = Vec::new();
        for &qp in aborted {
            let sim = self.runner.sim();
            let rec = sim.qp_record(qp).expect("registered QP");
            let probe = sim.int_probe(rec.src_nic, rec.dst_nic, rec.tuple.src_port);
            if probe.reached {
                continue; // healed (transient outage already over)
            }
            if let Some(path) = sim.qp_route(qp) {
                if let Some(&dead) = path.get(probe.hops.len()) {
                    blamed.insert(dead);
                }
            }
            unreachable.push(qp);
        }
        incident.blamed = blamed.into_iter().collect();

        if unreachable.is_empty() {
            // Transient, self-healed: move the victims off the flaky path
            // so the next flap misses them, then continue.
            for &qp in aborted {
                self.steer_qp(qp, &incident.blamed);
            }
            return incident;
        }

        // Try source-port steering around the blamed links.
        let mut dead_qps: Vec<QpId> = Vec::new();
        for &qp in &unreachable {
            if !self.steer_qp(qp, &incident.blamed) {
                dead_qps.push(qp);
            }
        }

        if dead_qps.is_empty() {
            // Every victim found a live path. Host-edge culprit → optical
            // failover onto the surviving ToR port; otherwise a fabric
            // link → plain reroute.
            let edge_nics: Vec<(NodeId, LinkId)> = incident
                .blamed
                .iter()
                .filter_map(|&l| self.host_edge_nic(l).map(|n| (n, l)))
                .collect();
            if !edge_nics.is_empty() {
                let min_frac = edge_nics
                    .iter()
                    .map(|&(nic, l)| {
                        let total = self.topo.out_links(nic).len().max(1);
                        self.topo.alternate_uplinks(nic, l).len() as f64 / total as f64
                    })
                    .fold(1.0_f64, f64::min);
                if min_frac < self.policy.degraded_bw_floor {
                    // Too degraded to keep: drain the host and re-place.
                    // A host with several blamed edge links drains once.
                    let mut drained: Vec<HostId> = Vec::new();
                    for h in edge_nics.iter().filter_map(|&(nic, _)| self.nic_host(nic)) {
                        if self.hosts.contains(&h) && !drained.contains(&h) {
                            drained.push(h);
                        }
                    }
                    return self.restart_with_replacement(incident, drained);
                }
                incident.class = FaultClass::OpticalDualTor;
                incident.action = MitigationAction::TorFailover;
            }
            // Backoff before the retry (exponential in the attempt).
            // Transient links come back while we wait: their restores are
            // scheduled inside the backoff window and the clock is run
            // past them, so the retry sees a healed fabric.
            let backoff = SimDuration::from_secs_f64(
                BACKOFF_BASE.as_secs_f64() * (1 << attempt.min(16)) as f64,
            );
            let now = self.runner.sim().now();
            for l in std::mem::take(&mut self.pending_restores) {
                self.runner.sim_mut().restore_link_at(now + backoff, l);
            }
            // Drain fully idle: restoring re-admits the failed attempt's
            // flows (they redeliver their remaining bytes), and the retry
            // must not race their completions.
            self.runner
                .sim_mut()
                .run_until(now + backoff + SimDuration::from_micros(1));
            self.runner.sim_mut().run_until_idle();
            incident.repair_s = backoff.as_secs_f64();
            self.downtime_s += incident.repair_s;
            return incident;
        }

        // No steerable path: some endpoint is off the fabric entirely —
        // a hard host fault. Identify the dead side(s) by probing toward
        // a witness NIC, cordon them, and restart on spares.
        let witness = self.witness_nic();
        let mut dead_hosts: BTreeSet<HostId> = BTreeSet::new();
        for &qp in &dead_qps {
            let rec = self.runner.sim().qp_record(qp).expect("registered QP");
            for nic in [rec.src_nic, rec.dst_nic] {
                if let Some(h) = self.nic_host(nic) {
                    if self.hosts.contains(&h) && !self.nic_reaches(nic, witness) {
                        dead_hosts.insert(h);
                    }
                }
            }
        }
        if dead_hosts.is_empty() {
            // Unsteerable yet both ends alive: the fabric is partitioned
            // beyond what ECMP can route around.
            self.abort_reason = Some(AbortReason::FabricPartitioned);
            incident.action = MitigationAction::Abort;
            return incident;
        }
        let dead: Vec<HostId> = dead_hosts.into_iter().collect();
        self.restart_with_replacement(incident, dead)
    }

    /// Cordon `drained` hosts (possibly none), pull spares into the group,
    /// and convert the incident into a hard-host checkpoint restart —
    /// or an abort once the restart budget or the spare grant is spent.
    fn restart_with_replacement(
        &mut self,
        mut incident: Incident,
        drained: Vec<HostId>,
    ) -> Incident {
        if self.restarts >= MAX_RESTARTS {
            self.abort_reason = Some(AbortReason::RestartBudgetExhausted);
            incident.action = MitigationAction::Abort;
            return incident;
        }
        for &h in &drained {
            let Some(slot) = self.hosts.iter().position(|&x| x == h) else {
                continue;
            };
            if !self.swap_in_spare(slot) {
                self.abort_reason = Some(AbortReason::SparesExhausted);
                incident.action = MitigationAction::Abort;
                incident.cordoned = drained;
                return incident;
            }
        }
        self.restarts += 1;
        incident.class = FaultClass::HardHost;
        incident.action = MitigationAction::RestartFromCheckpoint;
        incident.cordoned = drained;
        incident.repair_s = self.policy.restart_overhead_s;
        self.downtime_s += self.policy.restart_overhead_s;
        incident
    }

    /// Put the next granted spare (claims pop from the back) into job
    /// slot `slot`. Returns false when the grant is spent.
    fn swap_in_spare(&mut self, slot: usize) -> bool {
        let Some(spare) = self.spares.pop() else {
            return false;
        };
        self.spares_claimed.push(spare);
        self.hosts[slot] = spare;
        self.group[slot] = GpuId(spare.0 * self.topo.rails() as u32);
        true
    }

    /// Symptom-level slowdown mitigation: steer every live QP off the two
    /// ECN-hottest links, which are returned as the blamed set.
    fn steer_off_hottest(&mut self) -> Vec<LinkId> {
        let hot: Vec<LinkId> = self
            .runner
            .sim()
            .telemetry()
            .hottest_links_by_ecn(2)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        let qps: Vec<QpId> = self.runner.sim().qp_records().map(|r| r.qp).collect();
        for qp in qps {
            self.steer_qp(qp, &hot);
        }
        hot
    }

    /// Steer one QP to a source port whose path is alive and avoids
    /// `avoid`; falls back to any alive path, then to any *different*
    /// path. Returns false when no candidate reaches the destination.
    fn steer_qp(&mut self, qp: QpId, avoid: &[LinkId]) -> bool {
        let rec = self.runner.sim().qp_record(qp).expect("registered QP");
        let cur = self.runner.sim().qp_route(qp);
        let base = rec.tuple.src_port.wrapping_sub(EPHEMERAL_BASE);
        let mut fallback: Option<u16> = None;
        for c in 1..=128u16 {
            let sport = EPHEMERAL_BASE.wrapping_add(base.wrapping_add(c.wrapping_mul(197)));
            let probe = self.runner.sim().int_probe(rec.src_nic, rec.dst_nic, sport);
            if !probe.reached {
                continue;
            }
            let path: Vec<LinkId> = probe.hops.iter().map(|h| h.link).collect();
            if path
                .iter()
                .any(|l| avoid.contains(l) || self.avoided_links.contains(l))
            {
                continue;
            }
            if avoid.is_empty() && self.avoided_links.is_empty() && Some(&path) == cur.as_ref() {
                // Asked to move off the current path but this candidate
                // re-hashes onto it; keep it only as a fallback.
                fallback.get_or_insert(sport);
                continue;
            }
            self.runner.sim_mut().reassign_sport(qp, sport);
            return true;
        }
        if let Some(sport) = fallback {
            self.runner.sim_mut().reassign_sport(qp, sport);
            return true;
        }
        false
    }

    /// Inject the script's faults that are due at iteration `it`.
    fn inject_due(&mut self, it: u32) {
        for i in 0..self.net_faults.len() {
            if self.injected[i] || self.net_faults[i].at_iter() != it {
                continue;
            }
            self.injected[i] = true;
            let fault = self.net_faults[i];
            let blast = self.inject(i, fault);
            self.runner.sim_mut().trace_record(
                TraceKind::FaultInject,
                trace_codes::injected_kind(&fault),
                it,
                blast as u32,
                0,
                0,
            );
            self.injections.push(InjectionRecord {
                fault,
                blast_radius: blast,
            });
        }
    }

    /// Apply one scripted fault; returns its blast radius (the live QPs
    /// routed across the links it hits).
    fn inject(&mut self, idx: usize, fault: InjectedFault) -> usize {
        match fault {
            InjectedFault::TransientLink { .. } => {
                // A mid-fabric link some live QP currently routes over
                // (never a host edge), chosen deterministically. The heal
                // is not pre-scheduled — `run_until_idle` inside the
                // collective would drain a future restore and desync the
                // runner's virtual clock — the engine restores the link
                // itself once recovery's backoff has elapsed.
                let Some(l) = self.pick_interior_link() else {
                    return 0;
                };
                let blast = self.runner.sim().qps_crossing(&[l]).len();
                self.fail_now(&[l]);
                self.pending_restores.push(l);
                blast
            }
            InjectedFault::OpticalUplink { host_index, .. } => {
                // Kill the side the host's traffic is actually riding, so
                // the fault manifests regardless of how the QPs hashed.
                let pair = self.live_uplink_pair(self.job_host(host_index), None);
                let blast = self.runner.sim().qps_crossing(&pair).len();
                self.fail_now(&pair);
                blast
            }
            InjectedFault::HostFailure { host_index, .. } => {
                let dead: Vec<LinkId> = self
                    .host_edges(self.job_host(host_index))
                    .flat_map(|(up, down)| [up, down])
                    .collect();
                let blast = self.runner.sim().qps_crossing(&dead).len();
                self.fail_now(&dead);
                blast
            }
            InjectedFault::FlappingLink {
                at_iter,
                period,
                duty_cycle,
                flap_count,
            } => {
                // Same victim choice as TransientLink: an interior link a
                // live QP routes over. The square wave itself runs in
                // `gray_drive_tick` (first down edge this same iteration).
                let Some(l) = self.pick_interior_link() else {
                    return 0;
                };
                let period = period.max(2);
                let down_len = ((period as f64 * duty_cycle).round() as u32).clamp(1, period - 1);
                self.gray_drives[idx] = Some(GrayDrive::Flap {
                    link: l,
                    down: false,
                    downs_done: 0,
                    down_len,
                    up_len: period - down_len,
                    flap_count,
                    next_edge_iter: at_iter,
                });
                self.runner.sim().qps_crossing(&[l]).len()
            }
            InjectedFault::DegradingOptic {
                at_iter,
                host_index,
                decay_per_iter,
                floor,
            } => {
                // Resolve the host's in-use dual-ToR uplink pair once; the
                // creep acts on these concrete links forever after.
                let links = self.live_uplink_pair(self.job_host(host_index), None);
                self.gray_drives[idx] = Some(GrayDrive::Optic {
                    links,
                    frac: 1.0,
                    decay: decay_per_iter.clamp(0.01, 0.999),
                    floor: floor.clamp(0.01, 0.99),
                    next_it: at_iter,
                });
                self.runner.sim().qps_crossing(&links).len()
            }
            InjectedFault::SlowHost {
                at_iter,
                host_index,
                factor,
                intermittent,
            } => {
                let host = self.job_host(host_index);
                // The slowdown drains the host's ingress: its downlinks.
                let ingress: Vec<LinkId> = self.host_edges(host).map(|(_, down)| down).collect();
                self.gray_drives[idx] = Some(GrayDrive::Slow {
                    host,
                    factor: factor.clamp(0.01, 0.99),
                    intermittent,
                    start_iter: at_iter,
                    degraded: false,
                    next_it: at_iter,
                });
                self.runner.sim().qps_crossing(&ingress).len()
            }
        }
    }

    /// An interior (non-host-edge) link some live QP currently routes
    /// over, chosen deterministically via the run's RNG.
    fn pick_interior_link(&mut self) -> Option<LinkId> {
        let mut candidates: Vec<LinkId> = Vec::new();
        let sim = self.runner.sim();
        for rec in sim.qp_records() {
            if let Some(path) = sim.qp_route(rec.qp) {
                if path.len() >= 3 {
                    candidates.extend(&path[1..path.len() - 1]);
                }
            }
        }
        candidates.sort();
        candidates.dedup();
        candidates
            .get(self.rng.below(candidates.len().max(1) as u64) as usize)
            .copied()
    }

    /// Advance every live gray fault one iteration top. Always runs —
    /// the faults exist regardless of whether the policy can see them —
    /// and every transition lands at `now` while the simulator is idle,
    /// so the runner's virtual clock never desyncs.
    fn gray_drive_tick(&mut self, it: u32) {
        let mut drives = std::mem::take(&mut self.gray_drives);
        let now = self.runner.sim().now();
        let mut touched = false;
        for d in drives.iter_mut().flatten() {
            match d {
                GrayDrive::Flap {
                    link,
                    down,
                    downs_done,
                    down_len,
                    up_len,
                    flap_count,
                    next_edge_iter,
                } => {
                    // `next_edge_iter` is monotone: re-running an earlier
                    // iteration after a rollback is a no-op.
                    if it < *next_edge_iter || (*downs_done >= *flap_count && !*down) {
                        continue;
                    }
                    if *down {
                        self.runner.sim_mut().restore_link_at(now, *link);
                        *down = false;
                        *next_edge_iter = it + *up_len;
                    } else {
                        self.runner.sim_mut().fail_link_at(now, *link);
                        *down = true;
                        *downs_done += 1;
                        *next_edge_iter = it + *down_len;
                    }
                    touched = true;
                }
                GrayDrive::Optic {
                    links,
                    frac,
                    decay,
                    floor,
                    next_it,
                } => {
                    if it < *next_it {
                        continue;
                    }
                    *next_it = it + 1;
                    if *frac <= *floor {
                        continue;
                    }
                    *frac = (*frac * *decay).max(*floor);
                    for &l in links.iter() {
                        self.runner.sim_mut().degrade_link_at(now, l, *frac);
                    }
                    touched = true;
                }
                GrayDrive::Slow {
                    host,
                    factor,
                    intermittent,
                    start_iter,
                    degraded,
                    next_it,
                } => {
                    if it < *next_it {
                        continue;
                    }
                    *next_it = it + 1;
                    let want = !*intermittent || (it - *start_iter).is_multiple_of(2);
                    if want && !*degraded {
                        self.runner.sim_mut().degrade_host_at(now, *host, *factor);
                        *degraded = true;
                    } else if !want && *degraded {
                        self.runner.sim_mut().restore_host_at(now, *host);
                        *degraded = false;
                    }
                    touched = true;
                }
            }
        }
        self.gray_drives = drives;
        // Drain before the collective launches: a restore re-admits
        // previously failed flows, and their redeliveries must finish
        // before the runner's per-step clock starts, or a later step would
        // find the simulator ahead of it.
        if touched {
            self.runner.sim_mut().run_until_idle();
        }
    }

    /// Feed the suspicion scorer one iteration of physical-layer evidence
    /// (flap-edge counters + capacity-degraded links). No-op for policies
    /// without gray detection.
    fn gray_observe(&mut self, it: u32) {
        if self.gray_detector.is_none() {
            return;
        }
        let mut flap_edges: Vec<(LinkId, u32)> = self
            .runner
            .sim()
            .telemetry()
            .link_flaps
            .iter()
            .map(|(&l, &e)| (l, e))
            .collect();
        flap_edges.sort_unstable();
        let degraded: Vec<GrayEdge> = self
            .runner
            .sim()
            .degraded_links()
            .into_iter()
            .map(|(l, frac)| GrayEdge {
                link: l,
                frac,
                host_edge: self.host_edge_nic(l).is_some(),
            })
            .collect();
        let sample = GraySample {
            iter: it,
            flap_edges,
            degraded,
        };
        let det = self.gray_detector.as_mut().expect("checked above");
        for ev in det.observe(&sample) {
            if let GrayEvent::Suspect(v) = ev {
                self.pending_verdicts.push(v);
            }
        }
    }

    /// Act on pending suspicion verdicts and run due probation probes.
    /// Called at the end of every iteration that completed (healthy or
    /// alarmed-but-produced): a gray fault, by definition, degrades
    /// iterations that still finish.
    fn gray_attend(&mut self, it: u32) {
        if self.gray_detector.is_none() {
            return;
        }
        // Probation probes due this iteration: a quiet link readmits;
        // fresh flap edges double the next window (exponential backoff).
        let due: Vec<LinkId> = self
            .probations
            .iter()
            .filter(|(_, p)| p.until_iter <= it)
            .map(|(&l, _)| l)
            .collect();
        for l in due {
            let edges_now = self.flap_edges(l);
            let p = self.probations.get_mut(&l).expect("due came from the map");
            if edges_now == p.edges_at_entry {
                self.probations.remove(&l);
                self.avoided_links.remove(&l);
                if let Some(d) = self.gray_detector.as_mut() {
                    d.unmute(l);
                }
                self.push_incident(Incident {
                    blamed: vec![l],
                    ..Incident::new(it, FaultClass::FlappingLink, MitigationAction::ProbeReadmit)
                });
            } else {
                p.edges_at_entry = edges_now;
                p.level += 1;
                p.until_iter = it + GRAY_PROBATION_ITERS * (1u32 << p.level.min(8));
            }
        }

        // Fresh verdicts, in arrival order.
        for v in std::mem::take(&mut self.pending_verdicts) {
            if self.avoided_links.contains(&v.link) {
                continue; // its pair already handled this batch
            }
            match v.pattern {
                GrayPattern::Degrading if v.host_edge => self.proactive_failover(it, v.link),
                GrayPattern::Steady | GrayPattern::Intermittent if v.host_edge => {
                    self.quarantine_host(it, v.link)
                }
                // Flapping — or any recurrent misbehavior on a fabric
                // link, where there is no host to quarantine and no
                // sibling ToR to fail over to: steer around it and let the
                // probation probe readmit it if it recovers.
                _ => self.begin_probation(it, v.link),
            }
        }
    }

    /// Steer every crossing QP off a suspect link and open its probation
    /// window. Detection is passive (the suspicion score rides telemetry
    /// the monitor already collects), so no localization time is charged.
    fn begin_probation(&mut self, it: u32, link: LinkId) {
        self.steer_around(&[link]);
        let probation = Probation {
            until_iter: it + GRAY_PROBATION_ITERS,
            level: 0,
            edges_at_entry: self.flap_edges(link),
        };
        self.probations.insert(link, probation);
        self.push_incident(Incident {
            blamed: vec![link],
            ..Incident::new(
                it,
                FaultClass::FlappingLink,
                MitigationAction::LinkProbation,
            )
        });
    }

    /// Fail a degrading optic's uplink pair over to the sibling ToR before
    /// it trips the fail-stop ladder. The pair never readmits: BER creep
    /// is monotone, so the module gets replaced off the critical path.
    fn proactive_failover(&mut self, it: u32, link: LinkId) {
        let l = self.topo.link(link);
        let mut pair: Vec<LinkId> = std::iter::once(link)
            .chain(self.topo.link_between(l.dst, l.src))
            .collect();
        pair.sort_unstable();
        pair.dedup();
        self.steer_around(&pair);
        self.downtime_s += DETECTION_OVERHEAD_S;
        let action = MitigationAction::ProactiveTorFailover;
        self.push_incident(Incident {
            locate_s: DETECTION_OVERHEAD_S,
            blamed: pair,
            ..Incident::new(it, FaultClass::DegradingOptic, action)
        });
    }

    /// Soft-cordon the host behind a suspect edge link: checkpoint at this
    /// iteration boundary, swap a spare in, keep every completed iteration
    /// (no rollback — the difference from the hard-cordon restart path).
    /// Without a free spare the job notes the suspect host and rides out
    /// the slowdown.
    fn quarantine_host(&mut self, it: u32, link: LinkId) {
        let Some(host) = self.host_edge_nic(link).and_then(|n| self.nic_host(n)) else {
            return;
        };
        // Mute every edge link of this host: further evidence from a host
        // already under quarantine is expected and uninformative.
        let edges = self.host_edges(host);
        if let Some(d) = self.gray_detector.as_mut() {
            for (up, down) in edges {
                d.mute(up);
                d.mute(down);
            }
        }
        if self.quarantined.contains(&host) {
            return;
        }
        let Some(slot) = self.hosts.iter().position(|&h| h == host) else {
            return;
        };
        self.downtime_s += DETECTION_OVERHEAD_S;
        self.quarantined.push(host);
        let mut incident = Incident {
            locate_s: DETECTION_OVERHEAD_S,
            blamed: vec![link],
            cordoned: vec![host],
            ..Incident::new(it, FaultClass::GrayStraggler, MitigationAction::Quarantine)
        };
        // Without replacement capacity the host is only flagged for the
        // fleet's avoid list and the job keeps running degraded.
        if self.swap_in_spare(slot) {
            // Soft cordon: the boundary checkpoint retains everything done
            // so far, the spare takes over from here.
            self.checkpoint_s += CHECKPOINT_COST_S;
            self.last_checkpoint = it + 1;
            self.downtime_s += self.policy.restart_overhead_s;
            incident.repair_s = self.policy.restart_overhead_s + CHECKPOINT_COST_S;
        }
        self.push_incident(incident);
    }

    /// Put `links` on the avoid list, mute their gray evidence, and steer
    /// every QP crossing them onto another path.
    fn steer_around(&mut self, links: &[LinkId]) {
        for &l in links {
            self.avoided_links.insert(l);
            if let Some(d) = self.gray_detector.as_mut() {
                d.mute(l);
            }
        }
        for qp in self.runner.sim().qps_crossing(links) {
            self.steer_qp(qp, links);
        }
    }

    /// Flap edges the telemetry has counted on `link`.
    fn flap_edges(&self, link: LinkId) -> u32 {
        let flaps = &self.runner.sim().telemetry().link_flaps;
        flaps.get(&link).copied().unwrap_or(0)
    }

    /// Move iterations after the last checkpoint from useful to lost.
    fn rollback(&mut self, to: u32, current: u32) {
        for i in to..current {
            let s = std::mem::take(&mut self.iter_useful[i as usize]);
            self.useful_s -= s;
            self.lost_rollback_s += s;
        }
    }

    fn nic_host(&self, nic: NodeId) -> Option<HostId> {
        match self.topo.node(nic).kind {
            NodeKind::Nic { host, .. } => Some(host),
            _ => None,
        }
    }

    /// A link is "host edge" when one endpoint is a NIC; returns that NIC.
    fn host_edge_nic(&self, l: LinkId) -> Option<NodeId> {
        let link = self.topo.link(l);
        for n in [link.src, link.dst] {
            if matches!(self.topo.node(n).kind, NodeKind::Nic { .. }) {
                return Some(n);
            }
        }
        None
    }

    /// A healthy NIC outside the suspect set, used as a probe target.
    fn witness_nic(&self) -> NodeId {
        let h = self
            .spares
            .first()
            .copied()
            .unwrap_or_else(|| *self.hosts.last().expect("job has hosts"));
        self.topo.host(h).nics[0]
    }

    /// Can `nic` reach `witness` on any of a handful of candidate ports?
    fn nic_reaches(&self, nic: NodeId, witness: NodeId) -> bool {
        if nic == witness {
            return true;
        }
        (0..8u16).any(|c| {
            self.runner
                .sim()
                .int_probe(
                    nic,
                    witness,
                    EPHEMERAL_BASE.wrapping_add(c.wrapping_mul(911)),
                )
                .reached
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_topo::{build_astral, AstralParams};

    fn topo() -> Topology {
        build_astral(&AstralParams::sim_small())
    }

    fn run(p: &RecoveryPolicy, s: &TrainingJobSpec, f: &FaultScript) -> RecoveryReport {
        try_run_training(&topo(), p, s, f).expect("valid policy and job")
    }

    /// A script of one fault.
    fn one(fault: InjectedFault) -> FaultScript {
        FaultScript {
            faults: vec![fault],
        }
    }

    /// The incidents resolved with `action`, in detection order.
    fn with_action(r: &RecoveryReport, action: MitigationAction) -> Vec<&Incident> {
        r.incidents.iter().filter(|i| i.action == action).collect()
    }

    fn quick_spec() -> TrainingJobSpec {
        TrainingJobSpec {
            iters: 10,
            bytes: 4 << 20,
            comp_s: 0.2,
            ..TrainingJobSpec::default()
        }
    }

    #[test]
    fn healthy_run_has_full_goodput_minus_checkpoints() {
        let r = run(
            &RecoveryPolicy::default(),
            &quick_spec(),
            &FaultScript::default(),
        );
        assert!(r.completed);
        assert_eq!(r.iters_done, 10);
        assert!(r.incidents.is_empty());
        assert_eq!(r.downtime_s, 0.0);
        assert_eq!(r.lost_rollback_s, 0.0);
        assert!(r.goodput() > 0.97, "goodput {}", r.goodput());
        // A healthy fabric never needs the full-solve (PFC/degraded) path.
        assert!(r.solver.incremental_solves > 0);
        assert_eq!(r.solver.full_solves, 0);
    }

    #[test]
    fn transient_link_is_rerouted_without_rollback() {
        let script = one(InjectedFault::TransientLink {
            at_iter: 3,
            heal_after: SimDuration::from_millis(30),
        });
        let r = run(&RecoveryPolicy::default(), &quick_spec(), &script);
        assert!(r.completed, "incidents: {:?}", r.incidents);
        assert_eq!(r.lost_rollback_s, 0.0);
        assert!(!r.incidents.is_empty());
        assert!(r
            .incidents
            .iter()
            .all(|i| i.action == MitigationAction::EcmpReroute));
        assert_eq!(r.injections.len(), 1);
        assert!(r.injections[0].blast_radius > 0);
        assert!(r.mttr_s().unwrap() < 1.0);
    }

    #[test]
    fn optical_fault_fails_over_to_surviving_tor() {
        let script = one(InjectedFault::OpticalUplink {
            at_iter: 3,
            host_index: 2,
        });
        let r = run(&RecoveryPolicy::default(), &quick_spec(), &script);
        assert!(r.completed, "incidents: {:?}", r.incidents);
        assert!(r
            .incidents
            .iter()
            .any(|i| i.class == FaultClass::OpticalDualTor
                && i.action == MitigationAction::TorFailover));
        // Failover keeps the host: nothing cordoned, no rollback.
        assert!(r.incidents.iter().all(|i| i.cordoned.is_empty()));
        assert_eq!(r.lost_rollback_s, 0.0);
    }

    #[test]
    fn degraded_floor_forces_replacement_instead_of_failover() {
        let script = one(InjectedFault::OpticalUplink {
            at_iter: 3,
            host_index: 2,
        });
        let policy = RecoveryPolicy {
            degraded_bw_floor: 0.9, // half bandwidth unacceptable
            ..RecoveryPolicy::default()
        };
        let r = run(&policy, &quick_spec(), &script);
        assert!(r.completed, "incidents: {:?}", r.incidents);
        let restarts = with_action(&r, MitigationAction::RestartFromCheckpoint);
        assert_eq!(restarts.len(), 1, "incidents: {:?}", r.incidents);
        // Both directions of the dead uplink are blamed, but the host is
        // drained once and claims exactly one spare.
        assert_eq!(restarts[0].cordoned, vec![HostId(2)]);
        assert_eq!(r.spares_claimed.len(), 1);
    }

    #[test]
    fn hard_host_fault_is_cordoned_and_restarted() {
        let script = one(InjectedFault::HostFailure {
            at_iter: 6,
            host_index: 1,
        });
        let r = run(&RecoveryPolicy::default(), &quick_spec(), &script);
        assert!(r.completed, "incidents: {:?}", r.incidents);
        let hard: Vec<&Incident> = r
            .incidents
            .iter()
            .filter(|i| i.class == FaultClass::HardHost)
            .collect();
        assert_eq!(hard.len(), 1);
        assert_eq!(hard[0].cordoned, vec![HostId(1)]);
        assert_eq!(hard[0].action, MitigationAction::RestartFromCheckpoint);
        // Rolled back from iteration 6 to the checkpoint at 5.
        assert!(r.lost_rollback_s > 0.0);
    }

    #[test]
    fn disabled_policy_aborts_on_first_fault() {
        let script = one(InjectedFault::HostFailure {
            at_iter: 2,
            host_index: 1,
        });
        let r = run(&RecoveryPolicy::disabled(), &quick_spec(), &script);
        assert!(!r.completed);
        assert_eq!(r.incidents.last().unwrap().action, MitigationAction::Abort);
    }

    #[test]
    fn flapping_link_enters_probation_and_readmits() {
        let script = one(InjectedFault::FlappingLink {
            at_iter: 3,
            period: 3,
            duty_cycle: 0.34,
            flap_count: 3,
        });
        let spec = TrainingJobSpec {
            iters: 24,
            ..quick_spec()
        };
        let r = run(&RecoveryPolicy::gray_aware(), &spec, &script);
        assert!(r.completed, "incidents: {:?}", r.incidents);
        let probation = with_action(&r, MitigationAction::LinkProbation);
        assert_eq!(probation.len(), 1, "incidents: {:?}", r.incidents);
        assert_eq!(probation[0].class, FaultClass::FlappingLink);
        // The probe readmits the link once a full probation window passes
        // with no fresh flap edges; a mid-probation flap extends it first.
        let readmit = with_action(&r, MitigationAction::ProbeReadmit);
        assert_eq!(readmit.len(), 1, "incidents: {:?}", r.incidents);
        assert!(readmit[0].iter > probation[0].iter);
        assert_eq!(readmit[0].blamed, probation[0].blamed);
        // Probation is steering, not cordoning: no hosts touched, no
        // rollback, no spare consumed.
        assert!(r.quarantined.is_empty());
        assert_eq!(r.lost_rollback_s, 0.0);
        assert!(r.spares_claimed.is_empty());
    }

    #[test]
    fn degrading_optic_fails_over_proactively() {
        let script = one(InjectedFault::DegradingOptic {
            at_iter: 3,
            host_index: 2,
            decay_per_iter: 0.8,
            floor: 0.3,
        });
        let spec = TrainingJobSpec {
            iters: 14,
            ..quick_spec()
        };
        let r = run(&RecoveryPolicy::gray_aware(), &spec, &script);
        assert!(r.completed, "incidents: {:?}", r.incidents);
        let failover = with_action(&r, MitigationAction::ProactiveTorFailover);
        assert_eq!(failover.len(), 1, "incidents: {:?}", r.incidents);
        assert_eq!(failover[0].class, FaultClass::DegradingOptic);
        // Both directions of the uplink get retired together.
        assert_eq!(failover[0].blamed.len(), 2);
        // BER creep never aborts a flow: the failover happens before the
        // fail-stop ladder ever fires, and nothing rolls back.
        assert!(r
            .incidents
            .iter()
            .all(|i| i.action != MitigationAction::EcmpReroute));
        assert_eq!(r.lost_rollback_s, 0.0);
        assert!(r.quarantined.is_empty());
    }

    #[test]
    fn slow_host_is_quarantined_without_rollback() {
        let script = one(InjectedFault::SlowHost {
            at_iter: 4,
            host_index: 2,
            factor: 0.1,
            intermittent: false,
        });
        // Communication-significant: the 10x-slower host edge must push
        // the iteration past the online detector's 2x slowdown alarm.
        let spec = TrainingJobSpec {
            iters: 20,
            bytes: 256 << 20,
            comp_s: 0.01,
            ..TrainingJobSpec::default()
        };
        let gray = run(&RecoveryPolicy::gray_aware(), &spec, &script);
        assert!(gray.completed, "incidents: {:?}", gray.incidents);
        let quarantine = with_action(&gray, MitigationAction::Quarantine);
        assert_eq!(quarantine.len(), 1, "incidents: {:?}", gray.incidents);
        assert_eq!(quarantine[0].class, FaultClass::GrayStraggler);
        assert_eq!(quarantine[0].cordoned, vec![HostId(2)]);
        assert_eq!(gray.quarantined, vec![HostId(2)]);
        // Soft cordon: checkpoint at the boundary and swap — nothing lost.
        assert_eq!(gray.lost_rollback_s, 0.0);
        assert_eq!(gray.spares_claimed.len(), 1);

        // The reactive-only baseline keeps paying the blind-steer alarm
        // every slow iteration; quarantining once is strictly better.
        let reactive = run(&RecoveryPolicy::reactive_only(), &spec, &script);
        assert!(reactive.completed);
        assert!(reactive.quarantined.is_empty());
        assert!(
            gray.goodput() > reactive.goodput(),
            "gray {} vs reactive {}",
            gray.goodput(),
            reactive.goodput()
        );
    }

    #[test]
    fn fail_stop_faults_never_trip_gray_mitigations() {
        // A transient (2 flap edges) and a hard host failure (1 edge per
        // link, never restored) are fail-stop vocabulary: the gray
        // detector must stay quiet and the run must match the
        // reactive-only baseline byte for byte.
        let script = FaultScript {
            faults: vec![
                InjectedFault::TransientLink {
                    at_iter: 3,
                    heal_after: SimDuration::from_millis(30),
                },
                InjectedFault::HostFailure {
                    at_iter: 6,
                    host_index: 1,
                },
            ],
        };
        let gray = run(&RecoveryPolicy::gray_aware(), &quick_spec(), &script);
        assert!(gray.completed, "incidents: {:?}", gray.incidents);
        assert!(gray.incidents.iter().all(|i| !matches!(
            i.action,
            MitigationAction::LinkProbation
                | MitigationAction::ProbeReadmit
                | MitigationAction::ProactiveTorFailover
                | MitigationAction::Quarantine
        )));
        assert!(gray.quarantined.is_empty());
        let reactive = run(&RecoveryPolicy::reactive_only(), &quick_spec(), &script);
        assert_eq!(gray.fingerprint(), reactive.fingerprint());
    }

    #[test]
    fn gray_campaigns_are_deterministic() {
        let script = FaultScript {
            faults: vec![
                InjectedFault::FlappingLink {
                    at_iter: 3,
                    period: 3,
                    duty_cycle: 0.34,
                    flap_count: 3,
                },
                InjectedFault::SlowHost {
                    at_iter: 10,
                    host_index: 5,
                    factor: 0.1,
                    intermittent: true,
                },
                InjectedFault::TransientLink {
                    at_iter: 15,
                    heal_after: SimDuration::from_millis(30),
                },
            ],
        };
        let spec = TrainingJobSpec {
            iters: 26,
            bytes: 256 << 20,
            comp_s: 0.01,
            ..TrainingJobSpec::default()
        };
        let a = run(&RecoveryPolicy::gray_aware(), &spec, &script);
        let b = run(&RecoveryPolicy::gray_aware(), &spec, &script);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.completed, "incidents: {:?}", a.incidents);
    }

    #[test]
    fn runs_are_deterministic() {
        let script = FaultScript {
            faults: vec![
                InjectedFault::TransientLink {
                    at_iter: 2,
                    heal_after: SimDuration::from_millis(30),
                },
                InjectedFault::HostFailure {
                    at_iter: 6,
                    host_index: 3,
                },
            ],
        };
        let a = run(&RecoveryPolicy::default(), &quick_spec(), &script);
        let b = run(&RecoveryPolicy::default(), &quick_spec(), &script);
        assert_eq!(a.goodput(), b.goodput());
        assert_eq!(a.incidents.len(), b.incidents.len());
        assert_eq!(a.useful_s, b.useful_s);
        assert_eq!(a.downtime_s, b.downtime_s);
    }
}

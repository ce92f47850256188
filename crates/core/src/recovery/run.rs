//! The run loop: each pass is an iteration top (checkpoint, faults,
//! substrate tick) or one attempt, and ends in one [`Step`].

use super::{
    trace_codes, AbortReason, Engine, FaultClass, Incident, MitigationAction, RecoveryReport,
};
use crate::cascade::CascadeReport;
use astral_monitor::{diagnose, CauseClass, HostHealth, JobDesc, RankProgress, Snapshot};
use astral_net::{FlowEvent, QpId};
use astral_topo::HostId;
use astral_trace::TraceKind;
use std::collections::BTreeSet;

/// Forecast lead window, iterations, for the Seer-gated proactive
/// checkpoint.
const SEER_LEAD_ITERS: u32 = 3;

/// Where the run goes after a pass: the four edges out of an iteration.
enum Step {
    /// The iteration stands: on to the next one.
    Advance,
    /// Run the same iteration again, one attempt later.
    Retry,
    /// Discard the iterations since the last checkpoint and resume there.
    RollBack,
    /// The job is lost.
    Abort,
}

/// The lifecycle's one transition: the step an alarm's resolution takes.
/// Steering and failover keep an attempt that still `produced` its
/// collective (a slow-but-complete iteration) and re-run one that did not.
fn transition(action: MitigationAction, produced: bool) -> Step {
    match action {
        MitigationAction::Abort => Step::Abort,
        MitigationAction::RestartFromCheckpoint => Step::RollBack,
        _ if produced => Step::Advance,
        _ => Step::Retry,
    }
}

impl Engine<'_> {
    /// Drive the job to completion or abort.
    pub(crate) fn run_parts(mut self) -> CascadeReport {
        let (mut it, mut attempt) = (0u32, 0u32);
        while it < self.spec.iters {
            let cordon = (attempt == 0).then(|| self.begin_iter(it)).flatten();
            match cordon.unwrap_or_else(|| self.attempt(it, attempt)) {
                Step::Advance => {
                    // Gray verdicts land on every iteration that stands: a
                    // gray fault degrades iterations that still complete.
                    self.gray_attend(it);
                    it += 1;
                    attempt = 0;
                }
                Step::Retry => attempt += 1,
                Step::RollBack => {
                    it = self.ledger.roll_back(it);
                    attempt = 0;
                }
                Step::Abort => break,
            }
        }
        self.into_report()
    }

    /// The top of iteration `it`: periodic checkpoint, due faults, gray
    /// fault drives, and the substrate tick (optics bursts, sag and thermal
    /// clocks, Seer hazard forecast). Returns a forced cordon's step.
    fn begin_iter(&mut self, it: u32) -> Option<Step> {
        if it > 0 && it.is_multiple_of(self.policy.checkpoint_interval) {
            self.ledger.checkpoint(it);
        }
        self.inject_due(it);
        self.drive_faults(it);
        let attrs_before = self.substrate.attributions.len();
        let tick = self.substrate.begin_iter(it, self.last_iter_s, &self.hosts);
        // One SubstrateOnset record per cascade that manifested this tick,
        // one ForcedCordon record per DCIM trip.
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
            let sim = self.runner.sim_mut();
            sim.trace_record(TraceKind::ForcedCordon, 0, host.0, it, 0, 0);
        }
        self.fail_optics_batch(&tick.kill_uplinks);
        let imminent = self
            .substrate
            .hazard_imminent(SEER_LEAD_ITERS, self.last_iter_s);
        let checkpointed = it <= self.ledger.last_checkpoint();
        if imminent && !self.hazard_latched && self.policy.proactive_checkpoint && !checkpointed {
            // Edge-triggered: one proactive checkpoint per hazard episode.
            let action = MitigationAction::ProactiveCheckpoint;
            let mut incident = Incident::new(it, FaultClass::FailSlow, action);
            incident.repair_s = self.ledger.checkpoint(it);
            self.push_incident(incident);
        }
        self.hazard_latched = imminent;
        if tick.forced_cordon.is_empty() {
            return None;
        }
        let action = MitigationAction::RestartFromCheckpoint;
        let mut incident = Incident::new(it, FaultClass::FailSlow, action);
        incident.locate_s = self.ledger.locate();
        let incident = self.restart_with_replacement(incident, tick.forced_cordon);
        Some(self.resolve(incident, false))
    }

    /// One attempt at iteration `it`: compute (wall-clock only, times the
    /// substrate's straggler multiplier, 1.0 at nominal), then the gradient
    /// AllReduce on the simulator. Book it, and resolve any alarm.
    fn attempt(&mut self, it: u32, attempt: u32) -> Step {
        let comp_eff = self.spec.comp_s * self.substrate.aggregate_multiplier(&self.hosts);
        let res = self.runner.all_reduce_flat(&self.group, self.spec.bytes);
        let aborted: Vec<QpId> = self
            .runner
            .sim_mut()
            .drain_flow_events()
            .iter()
            .filter_map(|e| match e {
                FlowEvent::Aborted { qp, .. } => Some(*qp),
                FlowEvent::Requeued { .. } => None,
            })
            .collect();
        // The step's outcomes are read: free its finished flows' slots, so
        // the flow table holds one iteration's flows, not the run's.
        self.runner.sim_mut().retire_finished();
        let iter_s = comp_eff + res.duration.as_secs_f64();
        self.last_iter_s = iter_s;
        // Compute slowed past nominal is straggler tax, not useful time.
        let throttle_s = (comp_eff - self.spec.comp_s).max(0.0);
        let alarmed = self
            .detector
            .observe_iteration(iter_s, aborted.len())
            .is_some();
        self.gray_observe(it);
        // An alarmed collective that still delivered (a flaky link healed
        // mid-step) keeps its progress, less the comm-side straggler tax:
        // its excess over the detector's healthy baseline. One with
        // failed flows produced nothing.
        let produced = !alarmed || res.failed_flows == 0;
        let slow_s = match self.detector.baseline_s() {
            Some(b) if alarmed && produced => ((iter_s - b).max(0.0) - throttle_s).max(0.0),
            _ => 0.0,
        };
        self.ledger
            .iteration(it, iter_s, throttle_s, slow_s, produced);
        if !alarmed {
            // Healthy to the network, but the DCIM may still alarm on
            // substrate telemetry: a straggler cascade aborts no flow.
            self.substrate_attend(it);
            return Step::Advance;
        }
        let incident = if self.policy.enabled {
            let incident = self.ladder(it, &aborted, attempt);
            self.substrate.note_incident(it, incident.class);
            incident
        } else {
            let class = if aborted.is_empty() {
                FaultClass::FailSlow
            } else {
                FaultClass::TransientLink
            };
            let mut incident = Incident::new(it, class, MitigationAction::Abort);
            incident.retries = attempt;
            self.abort(incident, AbortReason::RecoveryDisabled)
        };
        self.resolve(incident, produced)
    }

    /// Close an alarm: record its incident and take its transition.
    fn resolve(&mut self, incident: Incident, produced: bool) -> Step {
        let step = transition(incident.action, produced);
        self.push_incident(incident);
        step
    }

    /// Record an incident with its `LadderDecision` trace record. Every
    /// ladder step, gray verdict, substrate mitigation and proactive
    /// checkpoint passes through here, so the trace carries the full
    /// decision timeline.
    pub(super) fn push_incident(&mut self, inc: Incident) {
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

    /// Audit the run (debug builds only) and hand back its report.
    fn into_report(mut self) -> CascadeReport {
        if cfg!(debug_assertions) {
            self.audit();
        }
        let completed = self.abort_reason.is_none();
        let trace = self.runner.sim_mut().take_trace();
        let [useful_s, lost_rollback_s, degraded_s, checkpoint_s, downtime_s] =
            self.ledger.buckets();
        let recovery = RecoveryReport {
            completed,
            iters_done: if completed {
                self.spec.iters
            } else {
                self.ledger.last_checkpoint()
            },
            abort: self.abort_reason,
            spares_claimed: self.spares_claimed,
            quarantined: self.quarantined,
            useful_s,
            lost_rollback_s,
            degraded_s,
            checkpoint_s,
            downtime_s,
            incidents: self.incidents,
            injections: self.injections,
            solver: self.runner.sim().solver_counters(),
            trace,
        };
        let attributions = self.substrate.attributions;
        CascadeReport {
            recovery,
            attributions,
        }
    }

    /// The ledger's checks, plus: no incident cordons a host twice, and
    /// every granted spare is claimed at most once or still unclaimed.
    fn audit(&self) {
        self.ledger.check();
        let distinct = |hs: &[HostId]| hs.iter().collect::<BTreeSet<_>>().len() == hs.len();
        for inc in &self.incidents {
            assert!(distinct(&inc.cordoned), "double cordon: {inc:?}");
        }
        let claimed = &self.spares_claimed;
        assert!(distinct(claimed), "spare claimed twice: {claimed:?}");
        assert_eq!(claimed.len() + self.spares.len(), self.spare_grant);
    }

    /// The DCIM attend path, on a healthy-looking iteration with substrate
    /// stress pending (throttled or power-capped racks whose multipliers
    /// stay under the network detector's 2× threshold): snapshot the job,
    /// let [`diagnose`] name the originating substrate, and apply the
    /// policy's mitigation.
    fn substrate_attend(&mut self, it: u32) {
        if !self.substrate.stress_pending() {
            return;
        }
        let snap = self.build_snapshot(it);
        let diag = diagnose(&snap, self.runner.sim(), &self.prior);
        let (cause, queries) = (trace_codes::cause(diag.cause), diag.queries as u64);
        let sim = self.runner.sim_mut();
        sim.trace_record(TraceKind::SubstrateDiagnosis, cause, it, 0, queries, 0);
        let locate_s = self.ledger.locate();
        let graceful = self.policy.graceful_degradation;
        let mitigated = self.substrate.attend(it, diag.cause, graceful) && graceful;
        let (action, blamed) = match diag.cause {
            // Reactive policies have no substrate lever but the FailSlow
            // ladder's steering off the hottest links, which does nothing
            // for a compute-side straggler cascade.
            _ if !mitigated => (MitigationAction::EcmpReroute, self.steer_off_hottest()),
            CauseClass::Cooling => (MitigationAction::FlowReroute, Vec::new()),
            CauseClass::PowerDelivery => (MitigationAction::PowerCapRideThrough, Vec::new()),
            _ => (MitigationAction::EcmpReroute, Vec::new()),
        };
        let mut incident = Incident::new(it, FaultClass::FailSlow, action);
        incident.locate_s = locate_s;
        incident.blamed = blamed;
        self.push_incident(incident);
        if mitigated {
            let rebalance = MitigationAction::MicroBatchRebalance;
            self.push_incident(Incident::new(it, FaultClass::FailSlow, rebalance));
        }
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
}

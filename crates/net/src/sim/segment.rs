//! Segments: one stretch of simulation between two quiet points, recorded
//! so that an identical stretch can be written into the simulator instead
//! of simulated again.
//!
//! A simulator is *quiet* when nothing is queued, no flow is active and no
//! rate recompute is owed. From a quiet point the simulation is a function
//! of the flows injected, the link capacities and the QP table alone, and
//! it is exactly time-translation invariant. So when a caller injects the
//! same flows from a later quiet point, with the same capacities and QPs,
//! every event happens again shifted by the same whole number of
//! nanoseconds. The [generation](NetworkSim::generation) names the
//! capacities and the QP table: it moves on every capacity write, QP
//! registration and source-port change.
//!
//! [`NetworkSim::record_segment`] starts recording at a quiet point, and
//! [`NetworkSim::finish_segment`] returns the [`Segment`] when the stretch
//! ended quiet with every one of its flows finished and the generation and
//! the path arena as they were, so it changed nothing a later stretch
//! would see. [`NetworkSim::apply_segment`] then
//! writes a segment at the current quiet point: the finished flows, the
//! telemetry it added, its trace records, its solver work and its clock
//! advance. Debug builds can fork the simulator and check an apply against
//! the real stretch with [`NetworkSim::assert_same_outcome`].

use super::{FlowRec, FlowState, NetworkSim};
use crate::fivetuple::QpId;
use crate::linkset::LinkSet;
use crate::solver::SolverCounters;
use crate::telemetry::LinkCounters;
use astral_sim::{SimDuration, SimTime};
use astral_trace::{TraceKind, TraceRecord};

/// One finished flow of a segment. Times are offsets from the segment's
/// start.
#[derive(Debug, Clone)]
struct SegmentFlow {
    qp: QpId,
    bytes: u64,
    weight: f64,
    path_off: u32,
    path_len: u32,
    start: SimDuration,
    finish: SimDuration,
    delivered: f64,
    epoch: u32,
}

/// What one stretch of simulation between two quiet points did, relative
/// to its start: its finished flows, the telemetry it added, its trace
/// records, its solver work and its clock advance. Made by
/// [`NetworkSim::finish_segment`], written by [`NetworkSim::apply_segment`].
#[derive(Debug, Clone)]
pub struct Segment {
    /// Clock advance, and the fluid model's last settle point (which only
    /// moves when a flow ran).
    span: SimDuration,
    settle: SimDuration,
    /// Flows in injection order.
    flows: Vec<SegmentFlow>,
    /// Per-link deltas of (bytes, ECN marks, PFC pause ns), links ascending.
    links: Vec<(u32, [u64; 3])>,
    /// Every per-QP byte sample, in the order the fluid steps took them:
    /// a QP's tally is a float sum, so only the same additions in the same
    /// order give the same bits.
    qp_samples: Vec<(QpId, SimDuration, f64)>,
    /// Trace records with times as offsets and flow ids as offsets from
    /// the segment's first sequence number.
    trace: Vec<TraceRecord>,
    /// Solver work (the arena peak is left as it was: the arena did not
    /// grow).
    solver: SolverCounters,
    /// Whether a rate recompute recorded a trace record, which moves the
    /// snapshot the next record's deltas are taken against.
    traced_recompute: bool,
}

/// The state a recording compares against and the log it keeps.
#[derive(Debug, Clone)]
pub(super) struct SegmentLog {
    start: SimTime,
    seq: u32,
    generation: u64,
    arena: usize,
    solver: SolverCounters,
    trace_last: SolverCounters,
    trace_pushed: u64,
    /// Each link the recording could write, with its counters when it was
    /// first seen, in the order seen.
    links: Vec<(u32, [u64; 3])>,
    /// Every link's counters at the start, to check the sparse deltas
    /// against the full diff.
    #[cfg(debug_assertions)]
    all_links: Vec<LinkCounters>,
    /// Slots of the flows injected while recording, in injection order.
    pub(super) slots: Vec<u32>,
    /// Per-QP byte samples at absolute times, in fluid-step order.
    pub(super) qp_samples: Vec<(QpId, SimTime, f64)>,
}

/// A link's three integer counters.
fn ints(c: &LinkCounters) -> [u64; 3] {
    [c.bytes, c.ecn_marks, c.pfc_pause_ns]
}

impl SegmentLog {
    /// Snapshot the counters of each of `links` not in `seen`, and add it
    /// there. The simulator calls this wherever a recording first could
    /// write a link: on a recorded flow's path when it is injected, and on
    /// a link the PFC fixpoint pauses.
    pub(super) fn note_links(&mut self, seen: &mut LinkSet, links: &[u32], now: &[LinkCounters]) {
        for &l in links {
            if !seen.contains(l) {
                seen.insert(l);
                self.links.push((l, ints(&now[l as usize])));
            }
        }
    }
}

/// Whether a trace record of `kind` names a flow by its sequence number in
/// field `a`.
fn names_flow(kind: Option<TraceKind>) -> bool {
    matches!(kind, Some(TraceKind::FlowInject | TraceKind::FlowComplete))
}

impl NetworkSim<'_> {
    /// A counter of the state that decides what injected flows do: it
    /// moves on every link capacity write, QP registration and source-port
    /// change. Two quiet points with one generation route and rate the
    /// same flows alike.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True when nothing is queued, no flow is active, no PFC pause holds
    /// and no rate recompute is owed: the points between which segments
    /// are recorded and applied.
    pub fn is_quiet(&self) -> bool {
        self.queue.is_empty()
            && self.solver.active_flows().len() == 0
            && self.paused.is_empty()
            && !self.dirty
            && !self.solver.needs_full()
            && (!self.cfg.trace || self.trace_last_counters == self.solver_counters())
    }

    /// Whether a segment is being recorded: the simulator holds one
    /// recording at a time, so a caller with its own recording to make
    /// waits until this one is finished.
    pub fn recording(&self) -> bool {
        self.segment.is_some()
    }

    /// Start recording a segment. False, and nothing recorded, unless the
    /// simulator is quiet.
    pub fn record_segment(&mut self) -> bool {
        if !self.is_quiet() {
            return false;
        }
        self.segment_links.clear();
        self.segment = Some(Box::new(SegmentLog {
            start: self.now(),
            seq: self.next_seq,
            generation: self.generation,
            arena: self.path_arena.len(),
            solver: self.solver_counters(),
            trace_last: self.trace_last_counters,
            trace_pushed: self.trace.pushed(),
            links: Vec::new(),
            #[cfg(debug_assertions)]
            all_links: self.telemetry.link.clone(),
            slots: Vec::new(),
            qp_samples: Vec::new(),
        }));
        true
    }

    /// Stop recording and return the segment since
    /// [`Self::record_segment`], or `None` when none was being recorded or
    /// the stretch cannot be applied elsewhere: it ended with work pending,
    /// one of its flows did not finish, it changed the generation or the
    /// path arena, or its trace records are no longer all in the ring.
    /// Aborts, errCQEs and requeues need a flow that does not finish or a
    /// capacity write, so a returned segment has none.
    pub fn finish_segment(&mut self) -> Option<Segment> {
        let log = self.segment.take()?;
        self.segment_links.clear();
        let unchanged = self.is_quiet()
            && self.generation == log.generation
            && self.path_arena.len() == log.arena;
        let finished = log
            .slots
            .iter()
            .all(|&slot| self.flows[slot as usize].state == FlowState::Done);
        if !(unchanged && finished) {
            return None;
        }
        let pushed = self.trace.pushed().checked_sub(log.trace_pushed)?;
        let mut trace = self.trace.last(usize::try_from(pushed).ok()?)?;
        for r in &mut trace {
            let kind = r.kind();
            if !(names_flow(kind) || kind == Some(TraceKind::SolverRecompute)) {
                return None;
            }
            r.t_ns -= log.start.as_nanos();
            if names_flow(kind) {
                r.a -= log.seq;
            }
        }
        // Quiet, so a traced run's snapshot is the current counters.
        let counters = self.solver_counters();
        let traced_recompute = self.trace_last_counters != log.trace_last;
        let links = self.link_deltas(&log);
        let start = log.start;
        Some(Segment {
            span: self.now().saturating_since(start),
            settle: self.last_settle.saturating_since(start),
            flows: log
                .slots
                .iter()
                .map(|&s| self.segment_flow(s, start))
                .collect(),
            links,
            qp_samples: log
                .qp_samples
                .iter()
                .map(|&(qp, t, bytes)| (qp, t.saturating_since(start), bytes))
                .collect(),
            trace,
            solver: counters.since(&log.solver),
            traced_recompute,
        })
    }

    /// The nonzero counter deltas since the recording started, links
    /// ascending. Only the links `log` noted can have moved, so only they
    /// are diffed; debug builds check the result against every link.
    fn link_deltas(&self, log: &SegmentLog) -> Vec<(u32, [u64; 3])> {
        let mut deltas: Vec<(u32, [u64; 3])> = log
            .links
            .iter()
            .filter_map(|&(l, b)| {
                let a = ints(&self.telemetry.link[l as usize]);
                let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
                (d != [0; 3]).then_some((l, d))
            })
            .collect();
        deltas.sort_unstable_by_key(|&(l, _)| l);
        #[cfg(debug_assertions)]
        assert_eq!(
            deltas,
            full_link_deltas(&log.all_links, &self.telemetry.link),
            "a recording wrote a link it had not noted"
        );
        deltas
    }

    /// The finished flow in `slot` as a segment flow starting at `start`.
    fn segment_flow(&self, slot: u32, start: SimTime) -> SegmentFlow {
        let f = &self.flows[slot as usize];
        SegmentFlow {
            qp: f.qp,
            bytes: f.bytes,
            weight: self.solver.slot_weight(slot),
            path_off: f.path_off,
            path_len: f.path_len,
            start: f.start.saturating_since(start),
            finish: f.finish.expect("finished flow").saturating_since(start),
            delivered: f.delivered,
            epoch: f.epoch,
        }
    }

    /// Write `seg` at the current time, as simulating the stretch it was
    /// recorded from would have: its flows take the slots and sequence
    /// numbers injection would give them, finished; telemetry, trace
    /// records and solver work are added in recorded order; and the clock
    /// advances by the segment's span. The caller answers for the stretch
    /// being the same: the simulator is quiet (asserted) and its
    /// generation is the one the segment ended at.
    pub fn apply_segment(&mut self, seg: &Segment) {
        assert!(self.is_quiet(), "segment applied to a busy simulator");
        let start = self.now();
        let seq0 = self.next_seq;
        for f in &seg.flows {
            let rec = FlowRec {
                qp: f.qp,
                bytes: f.bytes,
                path_off: f.path_off,
                path_len: f.path_len,
                start: start + f.start,
                finish: Some(start + f.finish),
                remaining: 0.0,
                delivered: f.delivered,
                epoch: f.epoch,
                seq: self.take_seq(),
                state: FlowState::Done,
            };
            let slot = self.take_slot(rec);
            self.solver.flow_injected(slot, f.weight);
        }
        for &(l, [bytes, ecn, pfc]) in &seg.links {
            let c = &mut self.telemetry.link[l as usize];
            c.bytes += bytes;
            c.ecn_marks += ecn;
            c.pfc_pause_ns += pfc;
        }
        for &(qp, at, bytes) in &seg.qp_samples {
            self.telemetry.sample_qp(qp, start + at, bytes);
        }
        for r in &seg.trace {
            let mut r = *r;
            r.t_ns += start.as_nanos();
            if names_flow(r.kind()) {
                r.a += seq0;
            }
            self.trace.push(r);
        }
        self.solver.add_work(&seg.solver);
        if seg.traced_recompute {
            self.trace_last_counters = self.solver_counters();
        }
        self.queue.advance_to(start + seg.span);
        if !seg.flows.is_empty() {
            self.last_settle = start + seg.settle;
        }
    }

    /// Debug check that `self` (a segment applied) and `real` (the same
    /// stretch simulated from the same start) agree on every flow record,
    /// the telemetry, the solver counters, the clock, the next sequence
    /// number and the trace, bit for bit.
    #[cfg(debug_assertions)]
    pub fn assert_same_outcome(&self, real: &NetworkSim<'_>) {
        let flow = |f: &FlowRec| {
            let times = (f.start, f.finish, f.state, f.seq, f.epoch);
            let bits = (f.remaining.to_bits(), f.delivered.to_bits());
            (f.qp, f.bytes, f.path_off, f.path_len, times, bits)
        };
        assert_eq!(self.flows.len(), real.flows.len(), "flow table length");
        for (i, (a, b)) in self.flows.iter().zip(&real.flows).enumerate() {
            assert_eq!(flow(a), flow(b), "flow record in slot {i}");
        }
        assert_eq!(self.free_slots, real.free_slots, "free slots");
        assert_eq!(self.next_seq, real.next_seq, "next sequence number");
        assert_eq!(self.now(), real.now(), "clock");
        assert_eq!(self.last_settle, real.last_settle, "settle point");
        assert!(real.is_quiet(), "the real stretch left work pending");
        assert_eq!(self.generation, real.generation, "generation");
        assert_eq!(self.path_arena.len(), real.path_arena.len(), "path arena");
        let (tel, real_tel) = (&self.telemetry, &real.telemetry);
        for (l, (a, b)) in tel.link.iter().zip(&real_tel.link).enumerate() {
            assert_eq!(ints(a), ints(b), "counters of link {l}");
        }
        let tally = |t: &crate::telemetry::QpTable<crate::telemetry::QpTally>| {
            t.iter()
                .map(|(qp, t)| (qp, t.first, t.last, t.bytes.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            tally(&tel.qp_bytes),
            tally(&real_tel.qp_bytes),
            "QP tallies"
        );
        assert_eq!(tel.err_cqe, real_tel.err_cqe, "errCQE log");
        assert_eq!(tel.link_flaps, real_tel.link_flaps, "link flaps");
        assert_eq!(self.flow_events, real.flow_events, "flow events");
        assert_eq!(self.failed_flows, real.failed_flows, "failed flows");
        assert_eq!(
            self.solver_counters(),
            real.solver_counters(),
            "solver counters"
        );
        assert_eq!(
            self.trace_last_counters, real.trace_last_counters,
            "trace counter snapshot"
        );
        assert_eq!(self.trace.to_vec(), real.trace.to_vec(), "trace records");
        assert_eq!(self.trace.dropped(), real.trace.dropped(), "trace drops");
    }
}

/// The nonzero per-link counter deltas from `before` to `after`, over
/// every link.
#[cfg(debug_assertions)]
fn full_link_deltas(before: &[LinkCounters], after: &[LinkCounters]) -> Vec<(u32, [u64; 3])> {
    before
        .iter()
        .zip(after)
        .enumerate()
        .filter_map(|(l, (b, a))| {
            let d = [
                a.bytes - b.bytes,
                a.ecn_marks - b.ecn_marks,
                a.pfc_pause_ns - b.pfc_pause_ns,
            ];
            (d != [0; 3]).then_some((l as u32, d))
        })
        .collect()
}

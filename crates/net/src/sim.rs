//! The flow-level network simulator.
//!
//! [`NetworkSim`] advances a fluid model of RDMA traffic over a topology:
//! flows are injected with a byte count and a queue pair, ECMP-routed hop by
//! hop with the fabric's hash function, and progress at max-min fair rates
//! recomputed on every arrival/departure (the equilibrium a functioning
//! DCQCN deployment converges to). Telemetry — per-QP byte tallies, ECN marks,
//! PFC pauses — is captured as the fluid advances, the QP registry and sFlow
//! paths are read off the simulator's QP table, and failures (dead links,
//! PCIe-degraded hosts) can be injected to reproduce the paper's diagnosis
//! cases.
//!
//! ## Modeling notes (what is simplified, and why it is sound)
//!
//! * **Fluid, not packets.** Packet-level effects enter only through the
//!   telemetry estimates (queue delay as a function of utilization). The
//!   paper's own Seer makes the same trade (§4.3): packet simulators are
//!   10³–10⁵× too slow for this scale.
//! * **ECN marks** accumulate on links whose utilization exceeds the
//!   marking threshold — sufficient to reproduce the controller's
//!   counter-driven rebalancing loop (Figure 17).
//! * **PFC pauses** are only generated by *degraded* drains (a failed or
//!   capacity-reduced link such as a PCIe-limited NIC). A healthy saturated
//!   link does not pause: DCQCN's job is precisely to keep queues below the
//!   PFC threshold, and the paper's PFC incidents are all hardware faults.
//!   Paused switches apply head-of-line capacity loss to their ingress
//!   links, which is how one broken host halves an entire cluster (§5).
//!
//! ## State follows live flows
//!
//! A flow's record lives in a table slot until [`NetworkSim::retire_finished`]
//! puts finished flows' slots on a free list for later injections to reuse.
//! A [`FlowId`] names its slot and its injection sequence number, so an id
//! whose slot was retired or reused answers [`NetError::RetiredFlow`], and
//! queued events for it are dropped. A caller that never retires keeps every
//! record.

use crate::fivetuple::{ip_of_nic, FiveTuple, QpContext, QpId, EPHEMERAL_BASE};
use crate::hash::EcmpHasher;
use crate::linkset::LinkSet;
use crate::solver::{pod_key, FairShareSolver, SolverCounters};
use crate::telemetry::{ErrCqe, QpRecord, Telemetry};
use astral_sim::{EventQueue, SimDuration, SimTime};
use astral_topo::{HostId, LinkId, NodeId, Router, Topology};
use astral_trace::{TraceKind, TraceRecord, TraceRing};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

mod segment;
pub use segment::Segment;

/// Identifier of one injected flow: its injection sequence number and the
/// flow-table slot holding its record. Ids order by injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    seq: u32,
    slot: u32,
}

impl FlowId {
    /// The flow's injection sequence number: 0, 1, 2, … in injection order
    /// within one simulation, never reused. Trace records carry it.
    pub fn seq(self) -> u32 {
        self.seq
    }
}

/// `FlowRec::seq` of a slot on the free list: no id resolves to it.
const RETIRED: u32 = u32::MAX;

/// Why the simulator refused an injection or a flow query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The flow's QP was never registered.
    UnknownQp(QpId),
    /// The flow would start before the simulator's clock.
    PastStart {
        /// The requested start.
        at: SimTime,
        /// The clock at the call.
        now: SimTime,
    },
    /// The fabric offers the QP's endpoints no route (e.g. cross-rail on a
    /// rail-only fabric).
    NoRoute(QpId),
    /// The flow was retired by [`NetworkSim::retire_finished`]; its record
    /// is gone and its slot may hold another flow.
    RetiredFlow(FlowId),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            NetError::UnknownQp(qp) => write!(f, "unregistered QP {qp}"),
            NetError::PastStart { at, now } => {
                write!(f, "flow start {at} is before the clock ({now})")
            }
            NetError::NoRoute(qp) => write!(f, "no route for QP {qp}"),
            NetError::RetiredFlow(id) => write!(f, "flow {} was retired", id.seq),
        }
    }
}

impl std::error::Error for NetError {}

/// Utilization above which a link ECN-marks traffic (DCQCN Kmax proxy).
pub const ECN_UTIL_THRESHOLD: f64 = 0.95;

/// Scale of head-of-line capacity loss on links into a PFC-paused switch:
/// the loss is `severity × PFC_HOL_FACTOR`, where severity is the fraction
/// of the congested drain's capacity that is missing.
pub const PFC_HOL_FACTOR: f64 = 0.9;

/// Time from path death to the errCQE surfacing (retransmit exhaustion).
pub const RTO: SimDuration = SimDuration::from_millis(4);

/// Queue-delay scale for INT estimates at moderate congestion.
pub const BASE_QUEUE_DELAY: SimDuration = SimDuration::from_micros(4);

/// Queue-delay ceiling for INT estimates at full congestion.
pub const MAX_QUEUE_DELAY: SimDuration = SimDuration::from_micros(280);

/// Simulator configuration. The per-QP byte tally (the transport-layer
/// rate monitor's input) is always on.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NetConfig {
    /// ECMP hash function shared by the fabric's switches.
    pub hasher: EcmpHasher,
    /// Water-fill each pod group of a dirty component on its own: one
    /// group per set of pods that the component's flows join, boundary
    /// links included. A fleet-synchronized wave then costs O(pods) link
    /// scans instead of the joint fill's O(pods²) — the frontier-scale
    /// path. Rates agree with the joint fill's up to rounding; no effect
    /// on a topology without pod structure.
    #[serde(default)]
    pub sharded_solver: bool,
    /// Has no effect: pod groups fill one after another on the calling
    /// thread. Kept only because the benchmark harness in `perfbench/`
    /// sets it.
    #[serde(default)]
    pub shard_threads: usize,
    /// Record structured trace events (flow lifecycle, link state, solver
    /// recomputes) into a fixed-capacity ring. Off by default: recording
    /// is cheap (one 40-byte push per event) but not free.
    #[serde(default)]
    pub trace: bool,
    /// Trace ring capacity in records. 0 (the default) selects
    /// [`DEFAULT_TRACE_CAPACITY`] when tracing is enabled.
    #[serde(default)]
    pub trace_capacity: usize,
}

/// Ring capacity used when `trace` is on and `trace_capacity` is 0.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Specification of one flow (an RDMA message train on a QP).
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// The registered QP to send on (fixes endpoints and five-tuple).
    pub qp: QpId,
    /// Payload bytes.
    pub bytes: u64,
    /// Relative weight at shared bottlenecks (1.0 for a normal flow).
    pub weight: f64,
}

/// Lifecycle state of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// Injected but not started.
    Pending,
    /// Transferring.
    Active,
    /// All bytes delivered.
    Done,
    /// Aborted by a path failure (errCQE raised).
    Failed,
}

/// Final (or current) statistics of one flow.
#[derive(Debug, Clone)]
pub struct FlowStats {
    /// Flow identity.
    pub id: FlowId,
    /// QP it ran on.
    pub qp: QpId,
    /// Requested bytes.
    pub bytes: u64,
    /// Bytes actually delivered.
    pub delivered: f64,
    /// Injection time.
    pub start: SimTime,
    /// Completion time (None if still running or failed).
    pub finish: Option<SimTime>,
    /// Lifecycle state.
    pub state: FlowState,
    /// The links the flow was routed over.
    pub path: Vec<LinkId>,
}

impl FlowStats {
    /// Flow completion time.
    pub fn fct(&self) -> Option<SimDuration> {
        self.finish.map(|f| f.saturating_since(self.start))
    }

    /// Average goodput in bits/s over the flow's lifetime.
    pub fn avg_rate_bps(&self) -> Option<f64> {
        let fct = self.fct()?.as_secs_f64();
        (fct > 0.0).then(|| self.delivered * 8.0 / fct)
    }
}

/// One flow-table slot. The flow's weight and allocated rate live in the
/// solver, which maps the slot to its own id while the flow is active.
#[derive(Debug, Clone)]
struct FlowRec {
    qp: QpId,
    bytes: u64,
    /// Span of this flow's route in [`NetworkSim::path_arena`]. The arena
    /// only grows, so the span stays valid for the flow's whole life.
    path_off: u32,
    path_len: u32,
    start: SimTime,
    finish: Option<SimTime>,
    remaining: f64,
    delivered: f64,
    epoch: u32,
    /// Injection sequence number of the slot's flow; [`RETIRED`] while the
    /// slot is free.
    seq: u32,
    state: FlowState,
}

// A sim that never retires keeps every record, so a slot must not grow.
const _: () = assert!(std::mem::size_of::<FlowRec>() <= 80);

/// One registered queue pair, indexed densely by `QpId` (ids run 1, 2, …
/// in registration order). The slot is the simulator's only copy of the
/// QP: the registry ([`NetworkSim::qp_records`]), the sFlow path
/// ([`NetworkSim::sflow_path`]) and the route view
/// ([`NetworkSim::qp_route`]) all read it.
#[derive(Debug, Clone, Copy)]
struct QpSlot {
    src: NodeId,
    dst: NodeId,
    tuple: FiveTuple,
    ctx: QpContext,
    /// The QP's route as a span of [`NetworkSim::path_arena`], or `None`
    /// when the fabric offers no route. Valid only while `route_epoch`
    /// equals the topology epoch.
    route: Option<(u32, u32)>,
    /// The span of the last walk that found a route: what sFlow would
    /// reconstruct from the QP's sampled packets. It outlives a port
    /// change until the next flow is routed.
    last_routed: Option<(u32, u32)>,
    /// Topology epoch `route` was computed at; [`NO_ROUTE_YET`] until the
    /// first injection and after a source-port change.
    route_epoch: u64,
}

/// `QpSlot::route_epoch` value meaning "no route cached".
const NO_ROUTE_YET: u64 = u64::MAX;

#[derive(Debug, Clone)]
enum NetEvent {
    Start(FlowId),
    Done { flow: FlowId, epoch: u32 },
    Abort(FlowId),
    LinkFail(LinkId),
    LinkDegrade(LinkId, f64),
    LinkRestore(LinkId),
}

/// Flow lifecycle notification surfaced to control-plane observers (the
/// recovery engine). Drained with [`NetworkSim::drain_flow_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowEvent {
    /// The flow exhausted retransmissions on a dead path and raised errCQE.
    Aborted {
        /// The aborted flow.
        flow: FlowId,
        /// Its queue pair.
        qp: QpId,
        /// When the abort surfaced.
        at: SimTime,
    },
    /// A previously aborted flow was re-admitted after its path was
    /// restored; it resumes from the bytes already delivered.
    Requeued {
        /// The re-admitted flow.
        flow: FlowId,
        /// Its queue pair.
        qp: QpId,
        /// When the re-admission happened.
        at: SimTime,
    },
}

/// One hop of an INT-armed probe.
#[derive(Debug, Clone, Copy)]
pub struct IntHop {
    /// Node the probe left.
    pub node: NodeId,
    /// Link it traversed.
    pub link: LinkId,
    /// Estimated one-way per-hop delay (propagation + queueing).
    pub delay: SimDuration,
}

/// Result of an INT probe.
#[derive(Debug, Clone)]
pub struct IntProbe {
    /// Hops successfully traversed.
    pub hops: Vec<IntHop>,
    /// Whether the probe reached the destination (false ⇒ the next link
    /// after the last recorded hop is dead).
    pub reached: bool,
}

/// The flow-level network simulator over a borrowed topology. A clone is
/// an independent fork of the simulation that shares the router.
#[derive(Clone)]
pub struct NetworkSim<'a> {
    topo: &'a Topology,
    /// ECMP distance fields. `Arc` so independent simulations over one
    /// shared topology can share a single warmed router (the fields are a
    /// pure function of the topology — failures are capacity-level and
    /// never invalidate them — so sharing is byte-identical to rebuilding).
    router: Arc<Router>,
    cfg: NetConfig,
    queue: EventQueue<NetEvent>,
    /// The flow table, indexed by `FlowId::slot`.
    flows: Vec<FlowRec>,
    /// Slots of retired flows, descending, for injections to reuse from
    /// the end (lowest first).
    free_slots: Vec<u32>,
    /// Sequence number of the next injected flow.
    next_seq: u32,
    /// Moves on every capacity write, QP registration and source-port
    /// change (see [`NetworkSim::generation`]).
    generation: u64,
    /// The segment being recorded, if any (see [`Segment`]).
    segment: Option<Box<segment::SegmentLog>>,
    /// Links whose counters the open recording has snapshotted: the links
    /// it could write, so recording costs their number, not the fabric's.
    segment_links: LinkSet,
    /// The incremental rate allocator: owns the active set, the persistent
    /// flow↔link incidence, and the per-link used aggregate.
    solver: FairShareSolver,
    /// Effective link capacity (bits/s) after failures/degradation.
    link_cap: Vec<f64>,
    /// Pristine capacities, to detect degradation.
    link_cap_orig: Vec<f64>,
    /// Degraded links (0 < cap < 90% of pristine); a nonempty set means
    /// PFC head-of-line coupling is possible and recomputes must take the
    /// full fixpoint path.
    degraded: LinkSet,
    /// Effective capacity for the PFC fixpoint's solves: `link_cap` scaled
    /// by `1 - paused_ingress` on paused links, equal to `link_cap`
    /// everywhere else. Capacity writes go through `set_link_cap`, which
    /// resets the link's entry; the next fixpoint starts unpaused anyway.
    eff_cap: Vec<f64>,
    /// Per-link PFC pause intensity in [0, 1): fraction of ingress capacity
    /// lost to pauses from a congested downstream switch.
    paused_ingress: Vec<f64>,
    /// Links with nonzero `paused_ingress`; a nonempty set (PFC active)
    /// also keeps recomputes on the fixpoint path.
    paused: LinkSet,
    /// Fixpoint scratch: the next pause vector (zero outside `pfc_touched`
    /// between iterations) and the links the head-of-line step wrote.
    pfc_next: Vec<f64>,
    pfc_touched: Vec<u32>,
    /// `Failed` flows in injection order — the only flows a link restore
    /// can requeue, and the order it re-admits them in.
    failed_flows: Vec<FlowId>,
    telemetry: Telemetry,
    /// ECN marking only happens in switch egress queues, never on the
    /// host-NIC egress (that buffer belongs to the sender, not the fabric).
    switch_egress: Vec<bool>,
    /// QP `q` lives at `qps[q.0 - 1]`.
    qps: Vec<QpSlot>,
    last_settle: SimTime,
    dirty: bool,
    /// Abort/requeue notifications pending pickup by a controller.
    flow_events: Vec<FlowEvent>,
    /// Flat arena of routed paths: flow `f` crosses
    /// `path_arena[f.path_off .. f.path_off + f.path_len]`. Append-only, so
    /// spans held by live flows never invalidate; a QP's route is
    /// materialized once per source port and topology epoch and cached in
    /// its [`QpSlot`].
    path_arena: Vec<u32>,
    /// Scratch for the hop walk when a QP's route is (re)computed.
    route_scratch: Vec<LinkId>,
    /// Scratch for collecting LinkFail victims without a per-event `Vec`.
    victims_scratch: Vec<u32>,
    /// Structured event trace (empty ring when `cfg.trace` is off).
    trace: TraceRing,
    /// Solver-counter snapshot at the previous `SolverRecompute` record,
    /// so each record carries deltas rather than cumulative totals.
    trace_last_counters: SolverCounters,
}

impl<'a> NetworkSim<'a> {
    /// New simulator over `topo`.
    pub fn new(topo: &'a Topology, cfg: NetConfig) -> Self {
        NetworkSim::with_router(topo, cfg, Arc::new(Router::new()))
    }

    /// New simulator over `topo` reusing an already-warmed shared router —
    /// the shared-topology fast path for batteries of independent runs on
    /// one fabric, which would otherwise each redo the per-destination
    /// distance-field setup.
    pub fn with_router(topo: &'a Topology, cfg: NetConfig, router: Arc<Router>) -> Self {
        let caps: Vec<f64> = topo.links().iter().map(|l| l.bandwidth_bps).collect();
        let switch_egress: Vec<bool> = topo
            .links()
            .iter()
            .map(|l| topo.node(l.src).kind.is_switch())
            .collect();
        // Group by pod only when the topology has pod structure to group by.
        let solver = match cfg.sharded_solver.then(|| pod_key(topo)).flatten() {
            Some(key) => FairShareSolver::with_pod_key(key),
            None => FairShareSolver::new(topo.links().len()),
        };
        NetworkSim {
            topo,
            router,
            cfg,
            queue: EventQueue::new(),
            flows: Vec::new(),
            free_slots: Vec::new(),
            next_seq: 0,
            generation: 0,
            segment: None,
            segment_links: LinkSet::new(topo.links().len()),
            solver,
            link_cap: caps.clone(),
            eff_cap: caps.clone(),
            link_cap_orig: caps,
            degraded: LinkSet::new(topo.links().len()),
            paused_ingress: vec![0.0; topo.links().len()],
            paused: LinkSet::new(topo.links().len()),
            pfc_next: vec![0.0; topo.links().len()],
            pfc_touched: Vec::new(),
            failed_flows: Vec::new(),
            telemetry: Telemetry::new(topo.links().len()),
            switch_egress,
            qps: Vec::new(),
            last_settle: SimTime::ZERO,
            dirty: false,
            flow_events: Vec::new(),
            path_arena: Vec::new(),
            route_scratch: Vec::new(),
            victims_scratch: Vec::new(),
            trace: TraceRing::with_capacity(if cfg.trace {
                if cfg.trace_capacity == 0 {
                    DEFAULT_TRACE_CAPACITY
                } else {
                    cfg.trace_capacity
                }
            } else {
                0
            }),
            trace_last_counters: SolverCounters::default(),
        }
    }

    /// The arena span of a flow's path.
    fn flow_path(&self, idx: usize) -> &[u32] {
        let f = &self.flows[idx];
        &self.path_arena[f.path_off as usize..(f.path_off + f.path_len) as usize]
    }

    /// The slot of `id` while it holds that flow; an error once the flow
    /// was retired (the slot is free or holds a later flow).
    fn lookup(&self, id: FlowId) -> Result<usize, NetError> {
        let i = id.slot as usize;
        match self.flows.get(i) {
            Some(f) if f.seq == id.seq => Ok(i),
            _ => Err(NetError::RetiredFlow(id)),
        }
    }

    /// The id of the flow in slot `i`.
    fn id_at(&self, i: usize) -> FlowId {
        FlowId {
            seq: self.flows[i].seq,
            slot: i as u32,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Captured telemetry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The router (shared ECMP distance fields).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Active configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Register a queue pair between two NICs with an explicit source port.
    pub fn register_qp(
        &mut self,
        src_nic: NodeId,
        dst_nic: NodeId,
        src_port: u16,
        ctx: QpContext,
    ) -> QpId {
        let qp = QpId(self.qps.len() as u64 + 1);
        let tuple = FiveTuple::roce(ip_of_nic(src_nic), ip_of_nic(dst_nic), src_port);
        self.generation += 1;
        self.qps.push(QpSlot {
            src: src_nic,
            dst: dst_nic,
            tuple,
            ctx,
            route: None,
            last_routed: None,
            route_epoch: NO_ROUTE_YET,
        });
        self.trace_record(
            TraceKind::QpRegister,
            src_port,
            src_nic.0,
            dst_nic.0,
            qp.0,
            0,
        );
        qp
    }

    /// Register a QP with an automatically chosen ephemeral source port.
    pub fn register_qp_auto(&mut self, src_nic: NodeId, dst_nic: NodeId, ctx: QpContext) -> QpId {
        let next_qp = self.qps.len() as u64 + 1;
        let sport = EPHEMERAL_BASE.wrapping_add((next_qp as u16).wrapping_mul(2654)) | 1;
        self.register_qp(src_nic, dst_nic, sport, ctx)
    }

    /// Change a QP's UDP source port (the controller's path-steering knob).
    /// Affects flows injected *after* the call, matching the paper: the
    /// reassignment "takes effect in the next round of collective
    /// communications".
    pub fn reassign_sport(&mut self, qp: QpId, src_port: u16) {
        let Some(i) = self.qp_index(qp) else {
            return;
        };
        let slot = &mut self.qps[i];
        if slot.tuple.src_port != src_port {
            slot.tuple.src_port = src_port;
            slot.route_epoch = NO_ROUTE_YET;
            self.generation += 1;
        }
    }

    /// Index of a registered QP in `qps`.
    fn qp_index(&self, qp: QpId) -> Option<usize> {
        let i = usize::try_from(qp.0.checked_sub(1)?).ok()?;
        (i < self.qps.len()).then_some(i)
    }

    /// The ECMP path a tuple takes between two NICs under the current hash
    /// configuration. `None` when the fabric offers no route (e.g.
    /// cross-rail on a rail-only fabric).
    pub fn route(&self, src: NodeId, dst: NodeId, tuple: &FiveTuple) -> Option<Vec<LinkId>> {
        let mut path = Vec::new();
        self.walk_into(src, dst, tuple, &mut path).then_some(path)
    }

    /// Walk the ECMP path `tuple` takes from `src` to `dst` into `out`
    /// (cleared first); false when the fabric offers no route.
    fn walk_into(
        &self,
        src: NodeId,
        dst: NodeId,
        tuple: &FiveTuple,
        out: &mut Vec<LinkId>,
    ) -> bool {
        let hash = self.cfg.hasher.tuple_hash(tuple);
        let choose = |node, hops: &[_]| hash.choose(node, hops.len());
        self.router
            .try_path_with_into(self.topo, src, dst, choose, out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The route of the QP in `qps[i]` as a path-arena span, from its
    /// cache while the topology epoch holds. A recompute walks the fabric
    /// and appends the walk to the arena (which only grows, so older spans
    /// stay valid). A loopback QP routes to the empty span.
    fn routed_span(&mut self, i: usize) -> Option<(u32, u32)> {
        let epoch = self.topo.epoch();
        if self.qps[i].route_epoch == epoch {
            return self.qps[i].route;
        }
        let mut scratch = std::mem::take(&mut self.route_scratch);
        let route = self.walk(&self.qps[i], &mut scratch).then(|| {
            let off = self.path_arena.len() as u32;
            self.path_arena.extend(scratch.iter().map(|l| l.0));
            (off, scratch.len() as u32)
        });
        self.route_scratch = scratch;
        let slot = &mut self.qps[i];
        slot.route = route;
        slot.last_routed = route.or(slot.last_routed);
        slot.route_epoch = epoch;
        route
    }

    /// Walk `q`'s ECMP route into `out` (cleared first); false when the
    /// fabric offers no route.
    fn walk(&self, q: &QpSlot, out: &mut Vec<LinkId>) -> bool {
        out.clear();
        q.src == q.dst || self.walk_into(q.src, q.dst, &q.tuple, out)
    }

    /// The links of an arena span.
    fn span_links(&self, (off, len): (u32, u32)) -> impl Iterator<Item = LinkId> + '_ {
        self.path_arena[off as usize..(off + len) as usize]
            .iter()
            .map(|&l| LinkId(l))
    }

    /// Write the route the next flow of `qps[i]` takes into `out` (cleared
    /// first); false when the fabric offers no route. A fresh cached span
    /// is copied; after a source-port change the fabric is walked into
    /// `out`, leaving the cache and the arena as they are.
    fn route_into(&self, i: usize, out: &mut Vec<LinkId>) -> bool {
        let q = &self.qps[i];
        if q.route_epoch != self.topo.epoch() {
            return self.walk(q, out);
        }
        out.clear();
        q.route.is_some_and(|span| {
            out.extend(self.span_links(span));
            true
        })
    }

    /// The registry entry of `qp`: its transport identity and application
    /// context. `None` for an unregistered id.
    pub fn qp_record(&self, qp: QpId) -> Option<QpRecord> {
        let q = &self.qps[self.qp_index(qp)?];
        Some(QpRecord {
            qp,
            tuple: q.tuple,
            src_nic: q.src,
            dst_nic: q.dst,
            ctx: q.ctx,
        })
    }

    /// The QP registry — every registered QP's record, in ascending QP id.
    pub fn qp_records(&self) -> impl Iterator<Item = QpRecord> + '_ {
        (1..=self.qps.len() as u64).filter_map(|q| self.qp_record(QpId(q)))
    }

    /// The route the next flow on `qp` takes — what [`Self::route`] walks
    /// for the QP's endpoints and current five-tuple. `None` for an
    /// unregistered QP or when the fabric offers no route.
    pub fn qp_route(&self, qp: QpId) -> Option<Vec<LinkId>> {
        let mut out = Vec::new();
        self.route_into(self.qp_index(qp)?, &mut out).then_some(out)
    }

    /// The sFlow-reconstructed node path of `qp`: the nodes of the last
    /// route one of its flows was given, from the source NIC on. It does
    /// not follow a port change until a flow takes the new route. `None`
    /// until the QP's first routed flow.
    pub fn sflow_path(&self, qp: QpId) -> Option<Vec<NodeId>> {
        let q = &self.qps[self.qp_index(qp)?];
        let links = self.span_links(q.last_routed?);
        Some(
            std::iter::once(q.src)
                .chain(links.map(|l| self.topo.link(l).dst))
                .collect(),
        )
    }

    /// The QPs whose next flow would cross any of `links` (the blast
    /// radius of failing them), ascending.
    pub fn qps_crossing(&self, links: &[LinkId]) -> Vec<QpId> {
        let mut path = Vec::new();
        (0..self.qps.len())
            .filter(|&i| self.route_into(i, &mut path) && path.iter().any(|l| links.contains(l)))
            .map(|i| QpId(i as u64 + 1))
            .collect()
    }

    /// Inject a flow on a registered QP at the current time.
    pub fn inject(&mut self, spec: FlowSpec) -> Result<FlowId, NetError> {
        self.inject_at(self.now(), spec)
    }

    /// Inject a flow starting at `at`. An unregistered QP, a start before
    /// [`Self::now`] or a QP without a route is refused with the matching
    /// [`NetError`], and the simulator is left as it was.
    pub fn inject_at(&mut self, at: SimTime, spec: FlowSpec) -> Result<FlowId, NetError> {
        let i = self.qp_index(spec.qp).ok_or(NetError::UnknownQp(spec.qp))?;
        let now = self.now();
        if at < now {
            return Err(NetError::PastStart { at, now });
        }
        let (path_off, path_len) = self.routed_span(i).ok_or(NetError::NoRoute(spec.qp))?;

        let seq = self.take_seq();
        let rec = FlowRec {
            qp: spec.qp,
            bytes: spec.bytes,
            path_off,
            path_len,
            start: at,
            finish: None,
            remaining: spec.bytes as f64,
            delivered: 0.0,
            epoch: 0,
            seq,
            state: FlowState::Pending,
        };
        let slot = self.take_slot(rec);
        if let Some(log) = self.segment.as_deref_mut() {
            log.slots.push(slot);
            let path = &self.path_arena[path_off as usize..][..path_len as usize];
            log.note_links(&mut self.segment_links, path, &self.telemetry.link);
        }
        self.solver.flow_injected(slot, spec.weight);
        let id = FlowId { seq, slot };
        self.queue.schedule(at, NetEvent::Start(id));
        if self.cfg.trace {
            self.trace.record(
                at.as_nanos(),
                TraceKind::FlowInject,
                0,
                seq,
                spec.qp.0 as u32,
                spec.bytes,
                spec.weight.to_bits(),
            );
        }
        Ok(id)
    }

    /// The next injection sequence number.
    fn take_seq(&mut self) -> u32 {
        assert!(self.next_seq < RETIRED, "flow sequence numbers exhausted");
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Put `rec` in the slot an injection takes: the lowest retired slot,
    /// or a new one.
    fn take_slot(&mut self, rec: FlowRec) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.flows[slot as usize] = rec;
                slot
            }
            None => {
                self.flows.push(rec);
                (self.flows.len() - 1) as u32
            }
        }
    }

    /// Statistics of one flow.
    pub fn stats(&self, id: FlowId) -> Result<FlowStats, NetError> {
        let i = self.lookup(id)?;
        let path = self.flow_path(i).iter().map(|&l| LinkId(l)).collect();
        let f = &self.flows[i];
        Ok(FlowStats {
            id,
            qp: f.qp,
            bytes: f.bytes,
            delivered: f.delivered,
            start: f.start,
            finish: f.finish,
            state: f.state,
            path,
        })
    }

    /// A flow's lifecycle state and completion time — what
    /// [`NetworkSim::stats`] reports, without building the path.
    pub fn flow_outcome(&self, id: FlowId) -> Result<(FlowState, Option<SimTime>), NetError> {
        let f = &self.flows[self.lookup(id)?];
        Ok((f.state, f.finish))
    }

    /// Statistics of every flow not yet retired, in injection order.
    pub fn all_stats(&self) -> Vec<FlowStats> {
        let mut all: Vec<FlowStats> = (0..self.flows.len())
            .filter(|&i| self.flows[i].seq != RETIRED)
            .map(|i| self.stats(self.id_at(i)).expect("live slot"))
            .collect();
        all.sort_by_key(|s| s.id);
        all
    }

    /// Retire every finished (`Done`) flow: its slot goes on a free list
    /// that later injections reuse, and its id answers
    /// [`NetError::RetiredFlow`] from then on. `Failed` flows stay, since a
    /// link restore may requeue them, and so do pending and active ones.
    /// Queued events of a retired flow are dropped when they come due.
    /// A long-lived simulation that retires once per round keeps a table
    /// as large as a round's flows; one that never retires keeps every
    /// record. Returns the number of flows retired.
    pub fn retire_finished(&mut self) -> usize {
        let before = self.free_slots.len();
        self.free_slots.clear();
        for i in (0..self.flows.len()).rev() {
            let f = &mut self.flows[i];
            if f.state == FlowState::Done {
                f.seq = RETIRED;
                self.free_slots.push(i as u32);
            }
        }
        #[cfg(debug_assertions)]
        self.check_flow_table();
        self.free_slots.len() - before
    }

    /// Debug check of the flow table after a retire: every free slot is a
    /// retired `Done` flow listed once; live, failed and free slots add up
    /// to the table; and no queued event can act on a reused slot, because
    /// every queued flow event names a sequence number below `next_seq`
    /// (a reused slot gets a later one) and none starts a retired flow.
    #[cfg(debug_assertions)]
    fn check_flow_table(&self) {
        let free = &self.free_slots;
        assert!(
            free.windows(2).all(|w| w[0] > w[1]),
            "free list not strictly descending: a slot is free twice"
        );
        for &i in free {
            let f = &self.flows[i as usize];
            assert!(
                f.state == FlowState::Done && f.seq == RETIRED,
                "free slot {i} holds a {:?} flow",
                f.state
            );
        }
        let live = self
            .flows
            .iter()
            .filter(|f| matches!(f.state, FlowState::Pending | FlowState::Active))
            .count();
        assert_eq!(
            live + self.failed_flows.len() + free.len(),
            self.flows.len(),
            "live, failed and free slots do not cover the flow table"
        );
        for ev in self.queue.pending() {
            let (id, start) = match *ev {
                NetEvent::Start(id) => (id, true),
                NetEvent::Done { flow, .. } | NetEvent::Abort(flow) => (flow, false),
                _ => continue,
            };
            assert!(id.seq < self.next_seq, "queued event names flow {}", id.seq);
            assert!(
                !(start && self.flows[id.slot as usize].seq == RETIRED),
                "queued start of retired flow {}",
                id.seq
            );
        }
    }

    /// Schedule a hard link failure (capacity → 0, flows abort after RTO).
    /// [`Self::qps_crossing`] names the QPs routed across the link.
    pub fn fail_link_at(&mut self, at: SimTime, link: LinkId) {
        self.queue.schedule(at, NetEvent::LinkFail(link));
    }

    /// Drain pending flow lifecycle notifications (aborts and requeues)
    /// accumulated since the last call, in event order.
    pub fn drain_flow_events(&mut self) -> Vec<FlowEvent> {
        std::mem::take(&mut self.flow_events)
    }

    /// Schedule a capacity degradation on a link (e.g. a PCIe-limited host's
    /// ToR→NIC drain): capacity scales by `factor` ∈ (0, 1).
    pub fn degrade_link_at(&mut self, at: SimTime, link: LinkId, factor: f64) {
        assert!(factor > 0.0 && factor < 1.0);
        self.queue.schedule(at, NetEvent::LinkDegrade(link, factor));
    }

    /// Degrade a host's ingress drain on every rail — the PCIe-fault incident
    /// from §5: capacity of each ToR→NIC link scales by `factor`.
    pub fn degrade_host_at(&mut self, at: SimTime, host: HostId, factor: f64) {
        let topo = self.topo;
        for (_, down) in topo.host(host).nics.iter().flat_map(|&n| topo.nic_edges(n)) {
            self.degrade_link_at(at, down, factor);
        }
    }

    /// Restore a previously failed/degraded link to pristine capacity.
    pub fn restore_link_at(&mut self, at: SimTime, link: LinkId) {
        self.queue.schedule(at, NetEvent::LinkRestore(link));
    }

    /// Restore a host's ingress drain on every rail — the inverse of
    /// [`Self::degrade_host_at`] over the same ToR→NIC links.
    pub fn restore_host_at(&mut self, at: SimTime, host: HostId) {
        let topo = self.topo;
        for (_, down) in topo.host(host).nics.iter().flat_map(|&n| topo.nic_edges(n)) {
            self.restore_link_at(at, down);
        }
    }

    /// Capacity-degraded links right now, as `(link, surviving fraction)`
    /// pairs sorted by link id — the physical-layer DDM/BER tap a gray-
    /// failure detector consumes. Hard-failed links (fraction 0) are not
    /// *degraded* and do not appear; the cost is O(degraded links), so a
    /// healthy fabric returns empty at O(1) cost.
    pub fn degraded_links(&self) -> Vec<(LinkId, f64)> {
        let mut out: Vec<(LinkId, f64)> = self
            .degraded
            .as_slice()
            .iter()
            .map(|&l| {
                let i = l as usize;
                (
                    LinkId(l),
                    self.link_cap[i] / self.link_cap_orig[i].max(1e-12),
                )
            })
            .collect();
        out.sort_unstable_by_key(|&(l, _)| l);
        out
    }

    /// Effective utilization of a link at the last rate recompute.
    fn link_utilization(&self, link: LinkId) -> f64 {
        let cap = self.link_cap[link.index()];
        if cap <= 0.0 {
            return 0.0;
        }
        self.solver.link_used()[link.index()] / cap
    }

    /// Effective capacity of a link (bits/s) after failures, degradation,
    /// and the PFC pause intensity from the last fixpoint.
    pub fn effective_capacity(&self, link: LinkId) -> f64 {
        self.link_cap[link.index()] * (1.0 - self.paused_ingress[link.index()])
    }

    /// The rate currently allocated to a flow (0 for pending/finished
    /// flows). Exposes the solver's allocation for differential tests.
    pub fn current_rate(&self, id: FlowId) -> Result<f64, NetError> {
        Ok(self.solver.rate_of(self.lookup(id)? as u32))
    }

    /// Solver observability counters (solves, component sizes, scan work),
    /// with the path-arena high-water mark stamped in (`peak_arena_bytes`
    /// — the arena only grows, so its current size is its peak).
    pub fn solver_counters(&self) -> SolverCounters {
        let mut c = self.solver.counters();
        c.peak_arena_bytes = c
            .peak_arena_bytes
            .max((self.path_arena.len() * std::mem::size_of::<u32>()) as u64);
        c
    }

    /// Whether the solver fills each pod group of a dirty component on its
    /// own (false when [`NetConfig::sharded_solver`] is off, or when the
    /// topology has no pod structure to group by).
    pub fn solver_is_sharded(&self) -> bool {
        self.solver.pod_grouped()
    }

    /// The structured event trace ring (empty unless `NetConfig::trace`).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Drain the trace ring, returning retained records oldest-first.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.trace.take()
    }

    /// Record a trace event stamped with the current simulated time.
    /// No-op unless `NetConfig::trace` is set — higher layers (recovery
    /// engine, substrate, gray-failure verdicts) route their records
    /// through here so one ring holds the whole ordered timeline of a run.
    #[inline]
    pub fn trace_record(&mut self, kind: TraceKind, aux: u16, a: u32, b: u32, v: u64, w: u64) {
        if self.cfg.trace {
            let t = self.queue.now().as_nanos();
            self.trace.record(t, kind, aux, a, b, v, w);
        }
    }

    /// The next event due at or before `until`. Completion notices from
    /// superseded rate allocations are dropped on the way without
    /// advancing the clock.
    fn next_live(&mut self, until: SimTime) -> Option<(SimTime, NetEvent)> {
        let flows = &self.flows;
        self.queue.pop_live(until, |ev| match *ev {
            NetEvent::Done { flow, epoch } => {
                let f = &flows[flow.slot as usize];
                f.seq == flow.seq && f.state == FlowState::Active && f.epoch == epoch
            }
            _ => true,
        })
    }

    /// Process every live event due at or before `until`.
    fn run_events(&mut self, until: SimTime) {
        while let Some((t, ev)) = self.next_live(until) {
            self.settle(t);
            self.apply(ev);
            // Batch all events at the same timestamp into one recompute.
            while let Some((_, ev)) = self.next_live(t) {
                self.apply(ev);
            }
            if self.dirty {
                self.recompute(t);
            }
        }
    }

    /// Run until no events remain; returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.run_events(SimTime::MAX);
        self.now()
    }

    /// Run until time `until` (events at exactly `until` are processed).
    pub fn run_until(&mut self, until: SimTime) {
        self.run_events(until);
        self.settle(until);
    }

    /// Convenience: inject all `specs` now, run to completion, return stats.
    /// Panics if a flow cannot be injected.
    pub fn run_flows(&mut self, specs: &[FlowSpec]) -> Vec<FlowStats> {
        let ids: Vec<FlowId> = specs
            .iter()
            .map(|s| self.inject(*s).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        self.run_until_idle();
        ids.into_iter()
            .map(|id| self.stats(id).expect("not retired"))
            .collect()
    }

    /// Fire an INT-armed probe: per-hop latency estimates along the path the
    /// given source port would take. Reproduces Figure 9c's heat map input.
    pub fn int_probe(&self, src: NodeId, dst: NodeId, src_port: u16) -> IntProbe {
        let mut path = Vec::new();
        let reached = self.live_route_into(src, dst, src_port, &mut path);
        let hop = |link: LinkId| {
            let (node, delay) = (self.topo.link(link).src, self.hop_delay(link));
            IntHop { node, link, delay }
        };
        let hops = path.into_iter().map(hop).collect();
        IntProbe { hops, reached }
    }

    /// Walk the path a probe from `src` to `dst` on `src_port` takes into
    /// `out` (cleared first) up to its first dead link (capacity ≤ 1 b/s):
    /// [`Self::int_probe`]'s walk, without its delay estimates or any
    /// allocation once `out` has grown. True when the walk reaches `dst`;
    /// false on no route (`out` empty) or a dead link (`out` holds the
    /// live hops before it).
    pub fn live_route_into(
        &self,
        src: NodeId,
        dst: NodeId,
        src_port: u16,
        out: &mut Vec<LinkId>,
    ) -> bool {
        let tuple = FiveTuple::roce(ip_of_nic(src), ip_of_nic(dst), src_port);
        if !self.walk_into(src, dst, &tuple, out) {
            return false;
        }
        let dead = out.iter().position(|l| self.link_cap[l.index()] <= 1.0);
        out.truncate(dead.unwrap_or(out.len()));
        dead.is_none()
    }

    /// Estimated one-way delay of a hop: propagation plus a queueing term
    /// that grows with utilization and saturates at the PFC/ECN-bounded
    /// ceiling.
    fn hop_delay(&self, l: LinkId) -> SimDuration {
        let base = self.topo.link(l).latency;
        let util = self.link_utilization(l).min(1.0);
        let degraded = self.link_cap[l.index()] < 0.9 * self.link_cap_orig[l.index()];
        let q = if self.paused_ingress[l.index()] > 0.0 || (degraded && util > 0.9) {
            MAX_QUEUE_DELAY
        } else if util <= 0.7 {
            SimDuration::from_secs_f64(BASE_QUEUE_DELAY.as_secs_f64() * util * util)
        } else {
            let x = (util - 0.7) / 0.3;
            let grow =
                BASE_QUEUE_DELAY.as_secs_f64() + x * x * MAX_QUEUE_DELAY.as_secs_f64() * util;
            SimDuration::from_secs_f64(grow.min(MAX_QUEUE_DELAY.as_secs_f64()))
        };
        base + q
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Advance fluid state from `last_settle` to `t`, crediting deliveries
    /// and accumulating telemetry counters.
    fn settle(&mut self, t: SimTime) {
        let dt = t.saturating_since(self.last_settle).as_secs_f64();
        self.last_settle = t;
        if dt <= 0.0 || self.solver.active_flows().len() == 0 {
            return;
        }
        // Per-link ECN mark fraction for this interval.
        let solver = &self.solver;
        let link_used = solver.link_used();
        let arena = &self.path_arena;
        for (slot, rate) in solver.active_flows() {
            let f = &mut self.flows[slot as usize];
            let delta = (rate * dt / 8.0).min(f.remaining);
            f.remaining -= delta;
            f.delivered += delta;
            let (qp, off, len) = (f.qp, f.path_off as usize, f.path_len as usize);
            if delta > 0.0 {
                self.telemetry.sample_qp(qp, t, delta);
                if let Some(log) = self.segment.as_deref_mut() {
                    log.qp_samples.push((qp, t, delta));
                }
            }
            for &l in &arena[off..off + len] {
                let li = l as usize;
                let c = &mut self.telemetry.link[li];
                c.bytes += delta as u64;
                let util = if self.link_cap[li] > 0.0 {
                    link_used[li] / self.link_cap[li]
                } else {
                    1.0
                };
                // Marks require a *contended* switch egress queue: a lone
                // flow pacing itself to line rate keeps the queue shallow
                // (DCQCN holds it at Kmin); two or more flows colliding on a
                // saturated egress is what builds queue depth.
                if util >= ECN_UTIL_THRESHOLD
                    && self.switch_egress[li]
                    && solver.link_flow_count(li) >= 2
                {
                    let p = ((util - ECN_UTIL_THRESHOLD) / (1.0 - ECN_UTIL_THRESHOLD).max(1e-9))
                        .clamp(0.0, 1.0);
                    c.ecn_marks += (delta * p) as u64;
                }
            }
        }
        // PFC pause time on paused ingress links, proportional to pause
        // intensity.
        for &l in self.paused.as_slice() {
            let li = l as usize;
            self.telemetry.link[li].pfc_pause_ns += (dt * 1e9 * self.paused_ingress[li]) as u64;
        }
    }

    /// Dispatch one event to its handler.
    fn apply(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::Start(id) => self.start_flow(id),
            NetEvent::Done { flow, epoch } => self.complete_flow(flow, epoch),
            NetEvent::Abort(flow) => self.abort_flow(flow),
            NetEvent::LinkFail(l) => self.fail_link(l),
            NetEvent::LinkDegrade(l, factor) => self.degrade_link(l, factor),
            NetEvent::LinkRestore(l) => self.restore_link(l),
        }
    }

    /// A flow's injection time came: activate it on its path, or deliver a
    /// loopback flow at once.
    fn start_flow(&mut self, id: FlowId) {
        let Ok(idx) = self.lookup(id) else {
            return;
        };
        if self.flows[idx].state == FlowState::Pending {
            if self.flows[idx].path_len == 0 {
                // Loopback: delivered instantly.
                let f = &mut self.flows[idx];
                f.delivered = f.bytes as f64;
                f.remaining = 0.0;
                f.state = FlowState::Done;
                f.finish = Some(self.queue.now());
            } else {
                let f = &mut self.flows[idx];
                f.state = FlowState::Active;
                let (off, len) = (f.path_off as usize, f.path_len as usize);
                let path = &self.path_arena[off..off + len];
                self.solver.flow_started(id.slot, path);
                self.dirty = true;
                // Static ECMP keeps hashing onto dead paths until an
                // operator intervenes: a flow routed over a failed
                // link stalls and errors out after RTO.
                if path.iter().any(|&l| self.link_cap[l as usize] <= 0.0) {
                    let now = self.queue.now();
                    self.queue.schedule(now + RTO, NetEvent::Abort(id));
                }
            }
        }
    }

    /// A completion notice: finish the flow if the notice is from its
    /// current rate allocation.
    fn complete_flow(&mut self, flow: FlowId, epoch: u32) {
        let Ok(idx) = self.lookup(flow) else {
            return;
        };
        let f = &mut self.flows[idx];
        if f.state == FlowState::Active && f.epoch == epoch {
            f.remaining = 0.0;
            f.state = FlowState::Done;
            f.finish = Some(self.queue.now());
            let (qp, bytes) = (f.qp, f.bytes);
            #[cfg(debug_assertions)]
            self.check_delivered(idx);
            self.solver.flow_removed(flow.slot);
            self.dirty = true;
            self.trace_record(TraceKind::FlowComplete, 0, flow.seq, qp.0 as u32, bytes, 0);
        }
    }

    /// Debug check of byte conservation at a flow's completion: it fell
    /// short of its bytes by less than one 1 ns clock tick at its path's
    /// fastest pristine link, and overshot them by rounding only. The
    /// completion time is rounded to the tick, so a rate at most that
    /// link's can leave no more than one tick's bytes undelivered.
    #[cfg(debug_assertions)]
    fn check_delivered(&self, idx: usize) {
        let f = &self.flows[idx];
        let fastest = self
            .flow_path(idx)
            .iter()
            .map(|&l| self.link_cap_orig[l as usize])
            .fold(0.0, f64::max);
        let short = f.bytes as f64 - f.delivered;
        assert!(
            short > -1e-6 && short <= fastest * 1e-9 / 8.0,
            "flow {} delivered {} of {} bytes",
            f.seq,
            f.delivered,
            f.bytes
        );
    }

    /// A flow's retransmission timer expired: fail it if its path is still
    /// dead.
    fn abort_flow(&mut self, flow: FlowId) {
        // Retransmissions only exhaust if the path is still dead:
        // a link restored within the RTO window rescues the flow
        // (its retries eventually get through).
        let Ok(idx) = self.lookup(flow) else {
            return;
        };
        let still_dead = self
            .flow_path(idx)
            .iter()
            .any(|&l| self.link_cap[l as usize] <= 0.0);
        let f = &mut self.flows[idx];
        if f.state == FlowState::Active && still_dead {
            f.state = FlowState::Failed;
            let qp = f.qp;
            let at = self.failed_flows.partition_point(|&x| x < flow);
            self.failed_flows.insert(at, flow);
            self.solver.flow_removed(flow.slot);
            let tuple = self.qps[qp.0 as usize - 1].tuple;
            let now = self.queue.now();
            self.telemetry.err_cqe.push(ErrCqe {
                time: now,
                qp,
                tuple,
            });
            self.flow_events
                .push(FlowEvent::Aborted { flow, qp, at: now });
            self.dirty = true;
            self.trace_record(TraceKind::FlowAbort, 0, flow.seq, qp.0 as u32, 0, 0);
        }
    }

    /// Take a link down and arm the abort timer of every flow crossing it.
    fn fail_link(&mut self, l: LinkId) {
        // A genuine up→down transition is one flap edge; re-failing
        // an already-dead link is not.
        if self.link_cap[l.index()] > 0.0 {
            *self.telemetry.link_flaps.entry(l).or_insert(0) += 1;
        }
        self.set_link_cap(l, 0.0);
        self.solver.capacity_changed(l.0);
        // Every active flow crossing the link will exhaust its
        // retransmissions after RTO and raise errCQE.
        let now = self.queue.now();
        let mut victims = std::mem::take(&mut self.victims_scratch);
        victims.clear();
        victims.extend(
            self.solver
                .active_flows()
                .map(|(slot, _)| slot)
                .filter(|&slot| self.flow_path(slot as usize).contains(&l.0)),
        );
        for &v in &victims {
            let id = self.id_at(v as usize);
            self.queue.schedule(now + RTO, NetEvent::Abort(id));
        }
        self.victims_scratch = victims;
        self.dirty = true;
        self.trace_record(TraceKind::LinkFail, 0, l.0, 0, 0, 0);
    }

    /// Scale a link's capacity to `factor` of pristine.
    fn degrade_link(&mut self, l: LinkId, factor: f64) {
        self.set_link_cap(l, self.link_cap_orig[l.index()] * factor);
        // Degraded drains can pause adjacent ingress links — an
        // effect that crosses flow components — so force the full
        // PFC fixpoint.
        self.solver.request_full();
        self.dirty = true;
        self.trace_record(TraceKind::LinkDegrade, 0, l.0, 0, 0, factor.to_bits());
    }

    /// Bring a link back to pristine capacity and re-admit the failed flows
    /// whose whole path is alive again.
    fn restore_link(&mut self, l: LinkId) {
        // A down→up transition is the other flap edge; restoring a
        // merely degraded (still-up) link is not a transition.
        if self.link_cap[l.index()] <= 0.0 {
            *self.telemetry.link_flaps.entry(l).or_insert(0) += 1;
        }
        self.set_link_cap(l, self.link_cap_orig[l.index()]);
        let was_paused = self.paused.contains(l.0);
        self.paused_ingress[l.index()] = 0.0;
        self.paused.remove(l.0);
        self.solver.capacity_changed(l.0);
        if was_paused || !self.paused.is_empty() {
            self.solver.request_full();
        }
        // Re-admit flows this link's failure aborted, provided their
        // whole path is alive again. They resume from the bytes
        // already delivered: flow-level retransmission re-sends the
        // in-flight window, not the completed messages. Only failed
        // flows are scanned, in injection order.
        debug_assert!(
            {
                let mut want: Vec<FlowId> = (0..self.flows.len())
                    .filter(|&i| self.flows[i].state == FlowState::Failed)
                    .map(|i| self.id_at(i))
                    .collect();
                want.sort_unstable();
                want == self.failed_flows
            },
            "failed-flow list out of sync"
        );
        let now = self.queue.now();
        let mut failed = std::mem::take(&mut self.failed_flows);
        failed.retain(|&id| {
            let idx = id.slot as usize;
            let path = self.flow_path(idx);
            if !(path.contains(&l.0) && path.iter().all(|&pl| self.link_cap[pl as usize] > 0.0)) {
                return true;
            }
            let f = &mut self.flows[idx];
            f.state = FlowState::Active;
            f.finish = None;
            let qp = f.qp;
            let (off, len) = (f.path_off as usize, f.path_len as usize);
            self.solver
                .flow_started(id.slot, &self.path_arena[off..off + len]);
            self.flow_events.push(FlowEvent::Requeued {
                flow: id,
                qp,
                at: now,
            });
            self.trace_record(TraceKind::FlowRequeue, 0, id.seq, qp.0 as u32, 0, 0);
            false
        });
        self.failed_flows = failed;
        self.dirty = true;
        self.trace_record(TraceKind::LinkRestore, 0, l.0, 0, 0, 0);
    }

    /// Set a link's capacity, keeping `eff_cap` equal to it (a pause on the
    /// link is re-applied by the next fixpoint) and refreshing its health.
    fn set_link_cap(&mut self, l: LinkId, cap: f64) {
        self.generation += 1;
        self.link_cap[l.index()] = cap;
        self.eff_cap[l.index()] = cap;
        self.update_link_health(l);
    }

    /// Refresh a link's degraded flag (0 < cap < 90% of pristine) after a
    /// capacity change, maintaining the set that gates the PFC fixpoint.
    fn update_link_health(&mut self, l: LinkId) {
        let li = l.index();
        if self.link_cap[li] > 0.0 && self.link_cap[li] < 0.9 * self.link_cap_orig[li] {
            self.degraded.insert(l.0);
        } else {
            self.degraded.remove(l.0);
        }
    }

    /// Recompute rates, PFC head-of-line effects, and completion events.
    ///
    /// Two paths, cheapest applicable first:
    /// * **Incremental** — pure flow churn on a healthy fabric: the solver
    ///   re-solves only the connected component touched by the change.
    /// * **Full fixpoint** — any degraded or paused link: PFC coupling
    ///   crosses component boundaries, so iterate full solves over
    ///   pause-adjusted capacities to a small fixpoint.
    fn recompute(&mut self, now: SimTime) {
        self.dirty = false;
        if self.solver.needs_full() || !self.degraded.is_empty() || !self.paused.is_empty() {
            self.recompute_pfc_fixpoint();
        } else {
            self.solver.solve_dirty(&self.link_cap);
        }
        self.apply_solved_rates(now);
        if self.cfg.trace {
            let counters = self.solver_counters();
            let delta = counters.since(&self.trace_last_counters);
            self.trace_last_counters = counters;
            self.trace.record(
                now.as_nanos(),
                TraceKind::SolverRecompute,
                (delta.full_solves > 0) as u16,
                delta.flows_resolved as u32,
                delta.links_scanned as u32,
                delta.events,
                delta.full_solves + delta.incremental_solves,
            );
        }
    }

    /// Full solves iterated with PFC pause coupling: a paused ingress
    /// changes rates, which changes which degraded drains are congested,
    /// so the solve iterates to a small fixpoint.
    ///
    /// Sparse: the head-of-line step walks only the degraded links and
    /// their incoming links, and convergence and `eff_cap` patches touch
    /// only the links it wrote plus the previously paused ones. Every
    /// other link has pause 0 before and after, so the result is bitwise
    /// the dense all-links pass (cross-checked in debug builds).
    fn recompute_pfc_fixpoint(&mut self) {
        self.clear_pauses();
        for _iter in 0..4 {
            #[cfg(debug_assertions)]
            self.check_eff_cap();
            self.solver.solve_full(&self.eff_cap);

            // Head-of-line PFC: a *degraded* saturated drain pauses its
            // switch's ingress with intensity proportional to how much of
            // the drain is missing. Taking the max is order-independent,
            // so the degraded set's order does not matter.
            let used = self.solver.link_used();
            let mut touched = std::mem::take(&mut self.pfc_touched);
            touched.clear();
            for &d in self.degraded.as_slice() {
                let di = d as usize;
                let cap = self.link_cap[di];
                let saturated = cap > 0.0 && used[di] >= 0.98 * cap;
                let severity = (1.0 - cap / self.link_cap_orig[di]) * PFC_HOL_FACTOR;
                // A non-positive severity would leave every slot unchanged,
                // so every touched slot ends up positive.
                if saturated && severity > 0.0 {
                    for &other in self.topo.in_links(self.topo.link(LinkId(d)).src) {
                        let slot = &mut self.pfc_next[other.index()];
                        if *slot == 0.0 {
                            touched.push(other.0);
                        }
                        *slot = slot.max(severity);
                    }
                }
            }
            // Links outside `touched` ∪ `paused` are 0 in both vectors.
            let converged = touched.iter().chain(self.paused.as_slice()).all(|&l| {
                let li = l as usize;
                (self.pfc_next[li] - self.paused_ingress[li]).abs() < 1e-9
            });
            #[cfg(debug_assertions)]
            self.check_hol_step(converged);

            self.clear_pauses();
            for &l in &touched {
                let li = l as usize;
                let p = std::mem::replace(&mut self.pfc_next[li], 0.0);
                self.paused_ingress[li] = p;
                self.eff_cap[li] = self.link_cap[li] * (1.0 - p);
                self.paused.insert(l);
            }
            if let Some(log) = self.segment.as_deref_mut() {
                log.note_links(&mut self.segment_links, &touched, &self.telemetry.link);
            }
            self.pfc_touched = touched;
            if converged {
                break;
            }
        }
        debug_assert_eq!(
            !self.paused.is_empty(),
            self.paused_ingress.iter().any(|&p| p > 0.0),
            "PFC-active verdict diverged from the dense pause vector"
        );
    }

    /// Zero every pause and restore the paused links' effective capacity.
    fn clear_pauses(&mut self) {
        for &l in self.paused.as_slice() {
            let li = l as usize;
            self.paused_ingress[li] = 0.0;
            self.eff_cap[li] = self.link_cap[li];
        }
        self.paused.clear();
    }

    /// Debug cross-check: `eff_cap` equals the dense copy-and-scale of
    /// `link_cap` by the current pauses, bit for bit, and `paused` holds
    /// exactly the paused links.
    #[cfg(debug_assertions)]
    fn check_eff_cap(&self) {
        for (li, &p) in self.paused_ingress.iter().enumerate() {
            let mut want = self.link_cap[li];
            if p > 0.0 {
                want *= 1.0 - p;
            }
            assert_eq!(
                self.eff_cap[li].to_bits(),
                want.to_bits(),
                "eff_cap diverged on link {li}"
            );
            assert_eq!(
                p > 0.0,
                self.paused.contains(li as u32),
                "paused list out of sync on link {li}"
            );
        }
    }

    /// Debug cross-check of one sparse head-of-line step against the dense
    /// all-links pass, in ascending link order: the next pause vector and
    /// the convergence verdict must match bit for bit.
    #[cfg(debug_assertions)]
    fn check_hol_step(&self, converged: bool) {
        let used = self.solver.link_used();
        let mut next = vec![0.0f64; self.link_cap.len()];
        for (ei, link) in self.topo.links().iter().enumerate() {
            let cap = self.link_cap[ei];
            let saturated = cap > 0.0 && used[ei] >= 0.98 * cap;
            if self.degraded.contains(ei as u32) && saturated {
                let severity = (1.0 - cap / self.link_cap_orig[ei]) * PFC_HOL_FACTOR;
                for other in self.topo.links() {
                    if other.dst == link.src {
                        let slot = &mut next[other.id.index()];
                        *slot = slot.max(severity);
                    }
                }
            }
        }
        for (li, want) in next.iter().enumerate() {
            assert_eq!(
                self.pfc_next[li].to_bits(),
                want.to_bits(),
                "sparse head-of-line pause diverged on link {li}"
            );
        }
        let dense_converged = next
            .iter()
            .zip(&self.paused_ingress)
            .all(|(a, b)| (a - b).abs() < 1e-9);
        assert_eq!(converged, dense_converged, "convergence verdict diverged");
    }

    /// Push the solver's changed rates into flow records and (re)schedule
    /// completion events. Flows outside the solved component keep their
    /// rate, epoch, and already-scheduled `Done` event.
    fn apply_solved_rates(&mut self, now: SimTime) {
        for (slot, rate) in self.solver.changed_flows() {
            let f = &mut self.flows[slot as usize];
            let id = FlowId { seq: f.seq, slot };
            f.epoch += 1;
            if rate > 0.0 && f.remaining > 0.0 {
                let secs = f.remaining * 8.0 / rate;
                let done_at = now + SimDuration::from_secs_f64(secs);
                self.queue.schedule(
                    done_at,
                    NetEvent::Done {
                        flow: id,
                        epoch: f.epoch,
                    },
                );
            } else if f.remaining <= 0.0 {
                self.queue.schedule(
                    now,
                    NetEvent::Done {
                        flow: id,
                        epoch: f.epoch,
                    },
                );
            }
            // rate == 0 with bytes left: stalled (dead path); the Abort
            // scheduled by LinkFail will clean it up.
        }
    }
}

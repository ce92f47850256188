//! Incremental max-min fair-share solver.
//!
//! [`FairShareSolver`] keeps the flow↔link incidence of the *active* flow
//! set as persistent state — per-link flow lists with positional
//! bookkeeping so attach/detach are O(hops) swap-removes — and re-solves
//! water-filling only over the connected component of links and flows
//! actually touched by a change. Max-min allocations decompose exactly over
//! connected components of the flow–link incidence graph: flows in
//! untouched components keep their rates, their scheduled completion events
//! stay valid, and the per-event cost drops from O(F·L) rebuilds to the
//! size of the disturbed component.
//!
//! Topology-coupled effects (PFC head-of-line pauses spilling across
//! adjacent links) break the component decomposition, so the simulator
//! requests full solves (`solve_full`) whenever any link is degraded or
//! paused; pure flow churn on a healthy fabric takes the incremental path
//! (`solve_dirty`). The pure [`max_min_rates`](crate::max_min_rates)
//! function remains the from-scratch reference oracle that property tests
//! compare against.
//!
//! A full solve is whole-*active-set*, not whole-fabric: it seeds its
//! component from the active flows' paths (sorted, so the bottleneck scan
//! visits links in the same ascending order a dense scan would) and
//! re-derives `link_used` by zeroing only the links a solve has written
//! since the last rebuild. One degraded-mode PFC fixpoint iteration
//! therefore costs O(active-flow hops) here plus O(in-degree of the
//! degraded links) for the simulator's head-of-line step — never O(links).
//!
//! **Pod groups.** A dirty set gathered on one tick can hold many disjoint
//! components — a fleet-synchronized wave touches every pod at once. One
//! joint water-fill over all of them runs a round per distinct saturation
//! level fleet-wide and rescans every still-loaded link each round:
//! O(pods²) link scans per wave. Given a link → pod key ([`pod_key`]),
//! `solve_dirty` unions the pods each swept flow crosses and water-fills
//! each resulting pod group on its own, which is O(pods). Boundary links
//! (spine, cross-DC) share one key, so every cross-pod flow in a component
//! lands in one group with the pods it touches. Without a key the joint
//! fill runs unchanged.
//!
//! **Solver ids.** The simulator names a flow by its flow-table slot, and
//! a simulator that never retires flows grows that table with every flow
//! it injects. The solver names an active flow by its own dense *solver
//! id*: `flow_started` takes one from a free list (or a new one) and
//! `flow_removed` gives it back. Every per-flow array, the hop arenas
//! (`hops`, `hop_pos`: a fixed stride of the longest path started so far
//! per id) and the per-link flow lists are indexed by solver id, so they
//! are bounded by peak live flows, not by the flow table. Per slot the
//! solver keeps only the slot's solver id and its injected weight. No
//! order depends on id values: component flows come in link-list order,
//! the full-solve seed follows the active list, and only links are sorted.
//!
//! All scratch (remaining capacity, per-link load, component membership,
//! frozen marks, pod groups) is held in reusable buffers with epoch stamps,
//! so a solve allocates nothing in steady state, and starting or removing a
//! flow allocates nothing either once its solver id exists.
//!
//! Debug builds check a max-min certificate after every solve
//! ([`certificate_violation`](crate::fairness::certificate_violation)):
//! no solved link is over capacity, and every solved flow is bottlenecked.

#[cfg(debug_assertions)]
use crate::fairness::certificate_violation;
use crate::fairness::saturation_threshold;
use crate::linkset::LinkSet;
use astral_topo::{NodeId, NodeKind, Topology};
use serde::Serialize;
use std::collections::BTreeMap;

/// Sentinel for "no solver id" and "not in the active list".
const NONE: u32 = u32::MAX;

/// Load below which a link is treated as carrying no unfrozen weight.
const LOAD_EPS: f64 = 1e-12;

/// Cheap observability counters for the solver — folded into bench reports
/// so the perf claims of the incremental path are measured, not asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SolverCounters {
    /// Flow churn notifications applied (start/finish/abort/requeue).
    pub events: u64,
    /// From-scratch water-filling passes over the whole active set.
    pub full_solves: u64,
    /// Component-local water-filling passes.
    pub incremental_solves: u64,
    /// Flows assigned a rate by any solve (work actually done).
    pub flows_resolved: u64,
    /// Link visits during bottleneck scans (inner-loop work).
    pub links_scanned: u64,
    /// Flows swept into dirty components (incremental solves only).
    pub component_flows: u64,
    /// Links swept into dirty components (incremental solves only).
    pub component_links: u64,
    /// High-water mark of the simulator's flat path-arena backing store,
    /// in bytes — a peak-RSS proxy for the allocation diet. Unlike the
    /// other counters this is a peak, not a sum: `merge` takes the max and
    /// `since` keeps the current peak.
    pub peak_arena_bytes: u64,
}

impl SolverCounters {
    /// Accumulate another counter snapshot (for benches spanning many sims).
    pub fn merge(&mut self, other: &SolverCounters) {
        self.events += other.events;
        self.full_solves += other.full_solves;
        self.incremental_solves += other.incremental_solves;
        self.flows_resolved += other.flows_resolved;
        self.links_scanned += other.links_scanned;
        self.component_flows += other.component_flows;
        self.component_links += other.component_links;
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
    }

    /// Counter delta since an `earlier` snapshot of the same solver
    /// (counters are monotonic, so plain saturating subtraction; the
    /// arena peak stays a peak — deltas of a high-water mark would lie).
    pub fn since(&self, earlier: &SolverCounters) -> SolverCounters {
        SolverCounters {
            events: self.events.saturating_sub(earlier.events),
            full_solves: self.full_solves.saturating_sub(earlier.full_solves),
            incremental_solves: self
                .incremental_solves
                .saturating_sub(earlier.incremental_solves),
            flows_resolved: self.flows_resolved.saturating_sub(earlier.flows_resolved),
            links_scanned: self.links_scanned.saturating_sub(earlier.links_scanned),
            component_flows: self.component_flows.saturating_sub(earlier.component_flows),
            component_links: self.component_links.saturating_sub(earlier.component_links),
            peak_arena_bytes: self.peak_arena_bytes,
        }
    }
}

/// The link → pod key of a topology: one key per `(datacenter, pod)` with
/// any intra-pod link, and one shared key past them for every link whose
/// endpoints do not share a pod (Agg↔Core, anything touching a core switch
/// or DC gateway). `None` when the topology has no pod structure, or more
/// pods than a `u16` key can name beside the boundary key.
pub(crate) fn pod_key(topo: &Topology) -> Option<Vec<u16>> {
    let pod_of = |n: NodeId| -> Option<(u32, u16)> {
        match topo.node(n).kind {
            NodeKind::Nic { host, .. } => {
                let h = topo.host(host);
                Some((h.dc.0, h.pod))
            }
            NodeKind::Tor { dc, pod, .. } | NodeKind::Agg { dc, pod, .. } => Some((dc.0, pod)),
            NodeKind::Core { .. } | NodeKind::DcGate { .. } => None,
        }
    };
    let pod_of_link = |l: &astral_topo::Link| match (pod_of(l.src), pod_of(l.dst)) {
        (Some(a), Some(b)) if a == b => Some(a),
        _ => None,
    };
    let mut rank: BTreeMap<(u32, u16), u16> = topo
        .links()
        .iter()
        .filter_map(pod_of_link)
        .map(|p| (p, 0))
        .collect();
    if rank.is_empty() || rank.len() >= u16::MAX as usize {
        return None;
    }
    for (i, r) in rank.values_mut().enumerate() {
        *r = i as u16;
    }
    let boundary = rank.len() as u16;
    Some(
        topo.links()
            .iter()
            .map(|l| pod_of_link(l).map_or(boundary, |p| rank[&p]))
            .collect(),
    )
}

/// A link → pod key and the per-solve scratch that splits a gathered
/// component into pod groups: a union-find over the keys its flows cross,
/// then a stable bucket of its links and flows by group.
#[derive(Debug, Clone)]
struct PodGroups {
    /// link → pod key.
    key: Vec<u16>,
    /// key → union-find parent; valid while `stamp` holds the epoch.
    parent: Vec<u16>,
    stamp: Vec<u32>,
    /// key → its group in the current split (keys in `seen` only).
    group: Vec<u32>,
    /// Keys of the current component, in first-seen order.
    seen: Vec<u16>,
    /// Group count of the last split.
    groups: usize,
    /// Component links and flows bucketed by group, in component order
    /// within a group: group `g` holds `links[link_start[g]..link_start[g
    /// + 1]]`, and likewise for flows.
    links: Vec<u32>,
    flows: Vec<u32>,
    link_start: Vec<u32>,
    flow_start: Vec<u32>,
}

impl PodGroups {
    fn new(key: Vec<u16>) -> Self {
        let nkeys = key.iter().map(|&k| k as usize + 1).max().unwrap_or(0);
        PodGroups {
            key,
            parent: vec![0; nkeys],
            stamp: vec![0; nkeys],
            group: vec![0; nkeys],
            seen: Vec::new(),
            groups: 0,
            links: Vec::new(),
            flows: Vec::new(),
            link_start: Vec::new(),
            flow_start: Vec::new(),
        }
    }

    fn find(&mut self, k: u16) -> u16 {
        let mut root = k;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = k;
        while self.parent[cur as usize] != root {
            cur = std::mem::replace(&mut self.parent[cur as usize], root);
        }
        root
    }

    /// Split a gathered component — `links`, and `flows` crossing
    /// `path(f)` — into `groups` pod groups. With one group nothing is
    /// bucketed: the caller fills the component as is.
    fn split<'p>(
        &mut self,
        epoch: u32,
        links: &[u32],
        flows: &[u32],
        path: impl Fn(u32) -> &'p [u32],
    ) {
        self.seen.clear();
        for &l in links {
            let k = self.key[l as usize];
            if self.stamp[k as usize] != epoch {
                self.stamp[k as usize] = epoch;
                self.parent[k as usize] = k;
                self.seen.push(k);
            }
        }
        for &f in flows {
            let mut prev = None;
            for &l in path(f) {
                let k = self.key[l as usize];
                if let Some(p) = prev.filter(|&p| p != k) {
                    let (a, b) = (self.find(p), self.find(k));
                    self.parent[a.max(b) as usize] = a.min(b);
                }
                prev = Some(k);
            }
        }
        let mut groups = 0;
        for i in 0..self.seen.len() {
            let k = self.seen[i];
            if self.find(k) == k {
                self.group[k as usize] = groups;
                groups += 1;
            }
        }
        if groups > 1 {
            for i in 0..self.seen.len() {
                let k = self.seen[i];
                let root = self.find(k);
                self.group[k as usize] = self.group[root as usize];
            }
            let (key, group) = (&self.key, &self.group);
            let group_of = |l: u32| group[key[l as usize] as usize];
            bucket(
                links,
                groups,
                group_of,
                &mut self.links,
                &mut self.link_start,
            );
            bucket(
                flows,
                groups,
                |f| group_of(path(f)[0]),
                &mut self.flows,
                &mut self.flow_start,
            );
        }
        self.groups = groups as usize;
    }

    /// Links of group `g` of the last split.
    fn group_links(&self, g: usize) -> &[u32] {
        &self.links[self.link_start[g] as usize..self.link_start[g + 1] as usize]
    }

    /// Flows of group `g` of the last split.
    fn group_flows(&self, g: usize) -> &[u32] {
        &self.flows[self.flow_start[g] as usize..self.flow_start[g + 1] as usize]
    }
}

/// Stable counting sort of `items` into `out` by `group_of`, leaving group
/// `g` at `out[start[g]..start[g + 1]]`.
fn bucket(
    items: &[u32],
    groups: u32,
    group_of: impl Fn(u32) -> u32,
    out: &mut Vec<u32>,
    start: &mut Vec<u32>,
) {
    let n = groups as usize;
    start.clear();
    start.resize(n + 1, 0);
    for &x in items {
        start[group_of(x) as usize + 1] += 1;
    }
    for g in 0..n {
        start[g + 1] += start[g];
    }
    out.clear();
    out.resize(items.len(), 0);
    for &x in items {
        let g = group_of(x) as usize;
        out[start[g] as usize] = x;
        start[g] += 1;
    }
    // Each `start[g]` has advanced to where group `g + 1` begins.
    start.copy_within(0..n, 1);
    start[0] = 0;
}

/// Incremental water-filling engine over a fixed link set.
///
/// The simulator names flows by flow-table slot; the solver maps each
/// active flow to a dense solver id (module doc) and indexes all per-flow
/// state by it. The solver owns the authoritative per-flow weights and
/// rates and the per-link `used` aggregate the simulator's telemetry reads.
#[derive(Debug, Clone)]
pub(crate) struct FairShareSolver {
    nl: usize,

    // --- per flow-table slot ---
    /// slot → solver id of its active flow, or `NONE`.
    sid_of: Vec<u32>,
    /// slot → max-min weight its flow was injected with.
    slot_weight: Vec<f64>,

    // --- persistent active-set state, per solver id ---
    /// Active solver ids, swap-remove order.
    active: Vec<u32>,
    /// Solver ids not in use, last freed on top.
    free_ids: Vec<u32>,
    /// id → index in `active`, or `NONE` while the id is free.
    active_pos: Vec<u32>,
    /// id → slot of the flow holding it (stale while the id is free).
    slot_of_sid: Vec<u32>,
    /// id → hop count of its path, which is `hops[id * stride..][..len]`.
    hop_len: Vec<u16>,
    /// Arena hops per id: the longest path started so far.
    stride: usize,
    /// Arena of the ids' links, in path order: `stride` hops per id.
    hops: Vec<u32>,
    /// Parallel to `hops`: the position of hop `k`'s entry in
    /// `link_flows[hops[k]]` while its id is active.
    hop_pos: Vec<u32>,
    /// id → max-min weight.
    weight: Vec<f64>,
    /// id → last solved rate (authoritative allocation).
    rate: Vec<f64>,
    /// link → `(id, arena index of the hop)` for each active flow crossing
    /// it. The second element makes detach O(1) per hop: when an entry is
    /// swap-removed, the moved entry's `hop_pos` back-pointer is repaired
    /// without scanning.
    link_flows: Vec<Vec<(u32, u32)>>,
    /// link → allocated rate at the last solve.
    link_used: Vec<f64>,
    /// Links whose `link_used` may be nonzero (every link a solve wrote
    /// since the last full rebuild), so a full rebuild zeroes only these
    /// instead of every link.
    used_links: LinkSet,

    // --- dirty tracking ---
    dirty_links: Vec<u32>,
    link_dirty: Vec<bool>,
    needs_full: bool,

    // --- reusable scratch ---
    remaining: Vec<f64>,
    load: Vec<f64>,
    /// Epoch stamps: link/flow is in the current component iff its stamp
    /// equals `epoch` (avoids clearing whole vectors between solves).
    link_mark: Vec<u32>,
    flow_mark: Vec<u32>,
    frozen: Vec<u32>,
    epoch: u32,
    comp_links: Vec<u32>,
    /// Solver ids of the component's flows.
    comp_flows: Vec<u32>,
    /// BFS frontier position within `comp_links` (stepwise expansion).
    comp_head: usize,
    loaded: Vec<u32>,
    /// Solver ids of the flows the last solve assigned a rate.
    changed: Vec<u32>,
    /// Per-link saturation threshold for the current fill (from capacity).
    sat_thresh: Vec<f64>,
    /// Water level of the fill in progress (rate per unit weight).
    fill_level: f64,
    /// Link → pod key for pod-grouped incremental fills (`None`: joint
    /// fills only).
    pods: Option<PodGroups>,

    counters: SolverCounters,
}

/// The arena index range of a path of `len` hops held by solver id `sid`.
fn arena_range(stride: usize, sid: u32, len: u16) -> std::ops::Range<usize> {
    let off = sid as usize * stride;
    off..off + len as usize
}

/// A solved rate as the simulator sees it: a flow with no links has an
/// unbounded fill level and reads 0.
fn finite_or_zero(rate: f64) -> f64 {
    if rate.is_finite() {
        rate
    } else {
        0.0
    }
}

impl FairShareSolver {
    /// New solver over `nl` links that fills each dirty component jointly.
    pub(crate) fn new(nl: usize) -> Self {
        FairShareSolver {
            nl,
            sid_of: Vec::new(),
            slot_weight: Vec::new(),
            active: Vec::new(),
            free_ids: Vec::new(),
            active_pos: Vec::new(),
            slot_of_sid: Vec::new(),
            hop_len: Vec::new(),
            stride: 0,
            hops: Vec::new(),
            hop_pos: Vec::new(),
            weight: Vec::new(),
            rate: Vec::new(),
            link_flows: vec![Vec::new(); nl],
            link_used: vec![0.0; nl],
            used_links: LinkSet::new(nl),
            dirty_links: Vec::new(),
            link_dirty: vec![false; nl],
            needs_full: false,
            remaining: vec![0.0; nl],
            load: vec![0.0; nl],
            link_mark: vec![0; nl],
            flow_mark: Vec::new(),
            frozen: Vec::new(),
            epoch: 0,
            comp_links: Vec::new(),
            comp_flows: Vec::new(),
            comp_head: 0,
            loaded: Vec::new(),
            changed: Vec::new(),
            sat_thresh: vec![0.0; nl],
            fill_level: 0.0,
            pods: None,
            counters: SolverCounters::default(),
        }
    }

    /// New solver over `key.len()` links whose incremental solves fill
    /// each pod group of the dirty component on its own (`key[l]` is link
    /// `l`'s pod; see [`pod_key`]).
    pub(crate) fn with_pod_key(key: Vec<u16>) -> Self {
        let nl = key.len();
        FairShareSolver {
            pods: Some(PodGroups::new(key)),
            ..FairShareSolver::new(nl)
        }
    }

    /// Whether incremental solves fill pod groups separately.
    pub(crate) fn pod_grouped(&self) -> bool {
        self.pods.is_some()
    }

    /// Counter snapshot.
    pub(crate) fn counters(&self) -> SolverCounters {
        self.counters
    }

    /// Count `work` as done, as when a recorded stretch is written instead
    /// of solved. Every counter but the arena peak adds.
    pub(crate) fn add_work(&mut self, work: &SolverCounters) {
        let peak = self.counters.peak_arena_bytes;
        self.counters.merge(work);
        self.counters.peak_arena_bytes = peak;
    }

    /// The max-min weight the flow in `slot` was injected with.
    pub(crate) fn slot_weight(&self, slot: u32) -> f64 {
        self.slot_weight[slot as usize]
    }

    /// `(slot, rate)` of each of `sids`; the rate reads as
    /// [`Self::rate_of`] does.
    fn slots_and_rates<'s>(
        &'s self,
        sids: &'s [u32],
    ) -> impl ExactSizeIterator<Item = (u32, f64)> + 's {
        sids.iter().map(|&sid| {
            let si = sid as usize;
            (self.slot_of_sid[si], finite_or_zero(self.rate[si]))
        })
    }

    /// `(slot, rate)` of each active flow, in active-list order.
    pub(crate) fn active_flows(&self) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
        self.slots_and_rates(&self.active)
    }

    /// Whether the flow in `slot` is in the active set.
    #[cfg(test)]
    pub(crate) fn is_active(&self, slot: u32) -> bool {
        self.sid_of
            .get(slot as usize)
            .is_some_and(|&sid| sid != NONE)
    }

    /// Last solved rate of the flow in `slot`: 0 until first solved, 0
    /// once it leaves the active set, and 0 for a flow with no links (its
    /// fill level is unbounded).
    pub(crate) fn rate_of(&self, slot: u32) -> f64 {
        match self.sid_of.get(slot as usize) {
            Some(&sid) if sid != NONE => finite_or_zero(self.rate[sid as usize]),
            _ => 0.0,
        }
    }

    /// Per-link allocated rate at the last solve.
    pub(crate) fn link_used(&self) -> &[f64] {
        &self.link_used
    }

    /// Number of active flows crossing `link`.
    pub(crate) fn link_flow_count(&self, link: usize) -> usize {
        self.link_flows[link].len()
    }

    /// `(slot, rate)` of each flow whose rate the last solve (re)assigned,
    /// in component order; valid until the next start or removal. The
    /// simulator bumps completion epochs and reschedules only these.
    pub(crate) fn changed_flows(&self) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
        self.slots_and_rates(&self.changed)
    }

    /// True when a full (non-component) solve has been requested.
    pub(crate) fn needs_full(&self) -> bool {
        self.needs_full
    }

    fn mark_dirty(&mut self, link: u32) {
        if !self.link_dirty[link as usize] {
            self.link_dirty[link as usize] = true;
            self.dirty_links.push(link);
        }
    }

    /// The arena index range of solver id `sid`'s path.
    fn hop_range(&self, sid: u32) -> std::ops::Range<usize> {
        arena_range(self.stride, sid, self.hop_len[sid as usize])
    }

    /// A flow was injected into `slot` with max-min weight `weight`.
    pub(crate) fn flow_injected(&mut self, slot: u32, weight: f64) {
        let want = slot as usize + 1;
        if self.sid_of.len() < want {
            self.sid_of.resize(want, NONE);
            self.slot_weight.resize(want, 1.0);
        }
        self.slot_weight[slot as usize] = weight;
    }

    /// The flow in `slot` entered the active set on `path`: a new start, or
    /// a requeue of an aborted flow on its original path. It takes a free
    /// solver id (or a new one), writes its path into the id's arena span
    /// and attaches to every link on it.
    pub(crate) fn flow_started(&mut self, slot: u32, path: &[u32]) {
        self.counters.events += 1;
        let len = u16::try_from(path.len()).expect("path longer than u16::MAX hops");
        if path.len() > self.stride {
            self.restride(path.len());
        }
        let sid = self.take_id();
        let si = sid as usize;
        debug_assert_eq!(self.sid_of[slot as usize], NONE, "flow already active");
        self.sid_of[slot as usize] = sid;
        self.slot_of_sid[si] = slot;
        self.weight[si] = self.slot_weight[slot as usize];
        self.rate[si] = 0.0;
        self.hop_len[si] = len;
        self.active_pos[si] = self.active.len() as u32;
        self.active.push(sid);
        let span = self.hop_range(sid);
        self.hops[span.clone()].copy_from_slice(path);
        for (k, &l) in span.zip(path) {
            let list = &mut self.link_flows[l as usize];
            self.hop_pos[k] = list.len() as u32;
            list.push((sid, k as u32));
            self.mark_dirty(l);
        }
    }

    /// A free solver id, or a new one with a `stride`-hop arena span.
    fn take_id(&mut self) -> u32 {
        if let Some(sid) = self.free_ids.pop() {
            return sid;
        }
        let sid = self.hop_len.len() as u32;
        let end = self.hops.len() + self.stride;
        assert!(end <= NONE as usize, "hop arena exceeds u32");
        self.hops.resize(end, 0);
        self.hop_pos.resize(end, 0);
        self.active_pos.push(NONE);
        self.slot_of_sid.push(NONE);
        self.hop_len.push(0);
        self.weight.push(1.0);
        self.rate.push(0.0);
        self.flow_mark.push(0);
        self.frozen.push(0);
        sid
    }

    /// Widen every id's arena span to `stride` hops: spans move back to
    /// front (each to an offset at or past its old one), then the active
    /// flows' link-list entries are pointed at their hops' new indices.
    fn restride(&mut self, stride: usize) {
        let (old, ids) = (self.stride, self.hop_len.len());
        assert!(ids * stride <= NONE as usize, "hop arena exceeds u32");
        self.hops.resize(ids * stride, 0);
        self.hop_pos.resize(ids * stride, 0);
        for sid in (0..ids as u32).rev() {
            let from = arena_range(old, sid, self.hop_len[sid as usize]);
            let to = sid as usize * stride;
            self.hops.copy_within(from.clone(), to);
            self.hop_pos.copy_within(from, to);
        }
        self.stride = stride;
        for i in 0..self.active.len() {
            for k in self.hop_range(self.active[i]) {
                let (l, p) = (self.hops[k] as usize, self.hop_pos[k] as usize);
                self.link_flows[l][p].1 = k as u32;
            }
        }
    }

    /// The flow in `slot` left the active set (completed or aborted).
    /// O(hops): swap-remove from the active list and from every per-link
    /// flow list, repairing the moved entries' back-pointers, then free its
    /// solver id. Its links go dirty, so the next solve re-derives their
    /// `link_used`.
    pub(crate) fn flow_removed(&mut self, slot: u32) {
        self.counters.events += 1;
        let sid = std::mem::replace(&mut self.sid_of[slot as usize], NONE);
        debug_assert_ne!(sid, NONE, "flow not active");
        let pos = std::mem::replace(&mut self.active_pos[sid as usize], NONE) as usize;
        self.active.swap_remove(pos);
        if pos < self.active.len() {
            self.active_pos[self.active[pos] as usize] = pos as u32;
        }
        for k in self.hop_range(sid) {
            let l = self.hops[k] as usize;
            let p = self.hop_pos[k] as usize;
            self.link_flows[l].swap_remove(p);
            if p < self.link_flows[l].len() {
                let (_, moved_hop) = self.link_flows[l][p];
                self.hop_pos[moved_hop as usize] = p as u32;
            }
            self.mark_dirty(l as u32);
        }
        self.free_ids.push(sid);
    }

    /// A link's capacity changed (failure or restore on a healthy fabric);
    /// its component must be re-solved.
    pub(crate) fn capacity_changed(&mut self, link: u32) {
        self.mark_dirty(link);
    }

    /// Request that the next solve be a full one (topology events whose
    /// effects cross component boundaries, e.g. PFC pause coupling).
    pub(crate) fn request_full(&mut self) {
        self.needs_full = true;
    }

    /// Drop all pending dirty state without solving (a full solve
    /// re-derives everything, so it starts from a clean slate).
    fn clear_dirty(&mut self) {
        for &l in &self.dirty_links {
            self.link_dirty[l as usize] = false;
        }
        self.dirty_links.clear();
        self.needs_full = false;
    }

    /// Full water-filling over every active flow, against `cap` (effective
    /// capacities — the simulator applies PFC pause factors before calling).
    /// Always one joint fill. All active flows are reported as changed.
    pub(crate) fn solve_full(&mut self, cap: &[f64]) {
        debug_assert_eq!(cap.len(), self.nl);
        self.counters.full_solves += 1;
        self.clear_dirty();
        self.comp_begin();
        self.comp_seed_all();
        self.fill_component(cap);
        self.changed.clear();
        self.changed.extend_from_slice(&self.comp_flows);
        self.rebuild_link_used_full();
        #[cfg(debug_assertions)]
        self.check_solved(cap);
    }

    /// Component-local solve: gather the connected component(s) of the
    /// flow–link incidence graph reachable from the dirty links, water-fill
    /// just those, and leave every other flow's rate untouched. With a pod
    /// key, each pod group of the gathered component fills on its own;
    /// `link_used` and the changed-flow order are those of the joint fill.
    pub(crate) fn solve_dirty(&mut self, cap: &[f64]) {
        debug_assert_eq!(cap.len(), self.nl);
        debug_assert!(!self.needs_full, "full solve pending");
        if self.dirty_links.is_empty() {
            self.changed.clear();
            return;
        }
        self.counters.incremental_solves += 1;
        self.comp_begin();
        self.comp_seed_dirty();
        self.comp_expand();
        self.counters.component_links += self.comp_links.len() as u64;
        self.counters.component_flows += self.comp_flows.len() as u64;
        self.clear_dirty();
        let mut pods = self.pods.take();
        if let Some(p) = pods.as_mut() {
            let (hops, len, stride) = (&self.hops, &self.hop_len, self.stride);
            p.split(self.epoch, &self.comp_links, &self.comp_flows, |f| {
                &hops[arena_range(stride, f, len[f as usize])]
            });
        }
        match &pods {
            Some(p) if p.groups > 1 => {
                for g in 0..p.groups {
                    self.fill(p.group_links(g), p.group_flows(g), cap);
                }
            }
            _ => self.fill_component(cap),
        }
        self.pods = pods;
        self.fill_finish();
        #[cfg(debug_assertions)]
        self.check_solved(cap);
    }

    /// Re-derive `link_used` from the active set's rates. Only tracked
    /// links can hold a nonzero entry, so zeroing them is the same as
    /// zeroing every link.
    fn rebuild_link_used_full(&mut self) {
        debug_assert!(
            self.link_used
                .iter()
                .enumerate()
                .all(|(l, u)| u.to_bits() == 0 || self.used_links.contains(l as u32)),
            "nonzero link_used on an untracked link"
        );
        for &l in self.used_links.as_slice() {
            self.link_used[l as usize] = 0.0;
        }
        self.used_links.clear();
        for &f in &self.active {
            let r = self.rate[f as usize];
            if r.is_finite() {
                for k in self.hop_range(f) {
                    let l = self.hops[k];
                    self.used_links.insert(l);
                    self.link_used[l as usize] += r;
                }
            }
        }
    }

    // --- component gather + water-fill ------------------------------------
    //
    // A solve gathers a component (`comp_*`), then water-fills it
    // (`fill*`): the whole component jointly, or one pod group at a time.

    /// Open a new component: bump the epoch and reset the gather buffers.
    fn comp_begin(&mut self) {
        self.epoch += 1;
        self.comp_links.clear();
        self.comp_flows.clear();
        self.comp_head = 0;
    }

    /// Seed the component with every dirty link. Dirty flags stay set —
    /// `clear_dirty` drops them once the component is gathered.
    fn comp_seed_dirty(&mut self) {
        for i in 0..self.dirty_links.len() {
            let l = self.dirty_links[i];
            if self.link_mark[l as usize] != self.epoch {
                self.link_mark[l as usize] = self.epoch;
                self.comp_links.push(l);
            }
        }
    }

    /// Seed the full-solve component: every link carrying flows (ascending)
    /// and every active flow, with the BFS frontier already exhausted.
    /// Links are gathered from the active flows' paths and then sorted, so
    /// the cost is O(active-flow hops) while the order — which `fill_min`'s
    /// first-wins tie-break depends on — matches an ascending link scan.
    fn comp_seed_all(&mut self) {
        for i in 0..self.active.len() {
            let f = self.active[i];
            self.flow_mark[f as usize] = self.epoch;
            self.comp_flows.push(f);
            for &l in &self.hops[self.hop_range(f)] {
                if self.link_mark[l as usize] != self.epoch {
                    self.link_mark[l as usize] = self.epoch;
                    self.comp_links.push(l);
                }
            }
        }
        self.comp_links.sort_unstable();
        debug_assert!(
            self.comp_links
                .iter()
                .copied()
                .eq((0..self.nl as u32).filter(|&l| !self.link_flows[l as usize].is_empty())),
            "gathered full-solve links differ from the non-empty link scan"
        );
        self.comp_head = self.comp_links.len();
    }

    /// Expand the component BFS until the link frontier is exhausted.
    fn comp_expand(&mut self) {
        while self.comp_head < self.comp_links.len() {
            let l = self.comp_links[self.comp_head] as usize;
            self.comp_head += 1;
            for i in 0..self.link_flows[l].len() {
                let (f, _) = self.link_flows[l][i];
                if self.flow_mark[f as usize] != self.epoch {
                    self.flow_mark[f as usize] = self.epoch;
                    self.comp_flows.push(f);
                    for &l2 in &self.hops[self.hop_range(f)] {
                        if self.link_mark[l2 as usize] != self.epoch {
                            self.link_mark[l2 as usize] = self.epoch;
                            self.comp_links.push(l2);
                        }
                    }
                }
            }
        }
    }

    /// Water-fill the whole gathered component jointly.
    fn fill_component(&mut self, cap: &[f64]) {
        let (links, flows) = (
            std::mem::take(&mut self.comp_links),
            std::mem::take(&mut self.comp_flows),
        );
        self.fill(&links, &flows, cap);
        (self.comp_links, self.comp_flows) = (links, flows);
    }

    /// Water-fill `flows` over `links` to completion — the same algorithm
    /// as [`max_min_rates`](crate::max_min_rates). The set must be closed:
    /// every flow on one of `links` is in `flows`, and vice versa.
    fn fill(&mut self, links: &[u32], flows: &[u32], cap: &[f64]) {
        self.fill_begin(links, flows, cap);
        while let Some((bottleneck, fill)) = self.fill_min() {
            self.fill_drain(fill.max(0.0), bottleneck);
        }
    }

    /// Initialize a water-fill: reset remaining capacity / load /
    /// saturation thresholds for `links`, unfreeze `flows`, and build the
    /// loaded-link scan list.
    fn fill_begin(&mut self, links: &[u32], flows: &[u32], cap: &[f64]) {
        self.counters.flows_resolved += flows.len() as u64;
        for &l in links {
            let l = l as usize;
            self.remaining[l] = cap[l];
            self.load[l] = 0.0;
            self.sat_thresh[l] = saturation_threshold(cap[l]);
        }
        for &f in flows {
            let fi = f as usize;
            if self.hop_len[fi] == 0 {
                self.rate[fi] = f64::INFINITY;
                self.frozen[fi] = self.epoch; // nothing to fill
                continue;
            }
            self.frozen[fi] = 0; // unfrozen this round (epoch stamps freeze)
            let w = self.weight[fi];
            for &l in &self.hops[self.hop_range(f)] {
                self.load[l as usize] += w;
            }
        }
        self.loaded.clear();
        // Only links carrying unfrozen weight participate in the scan.
        let load = &self.load;
        self.loaded.extend(
            links
                .iter()
                .copied()
                .filter(|&l| load[l as usize] > LOAD_EPS),
        );
        self.fill_level = 0.0;
    }

    /// One bottleneck scan: drop drained links from the scan list, then
    /// return the strict-minimum `(link, fill)` over the still-loaded ones
    /// — `None` when the fill is exhausted. First-wins on exact ties, like
    /// the oracle.
    fn fill_min(&mut self) -> Option<(u32, f64)> {
        let load = &self.load;
        self.loaded.retain(|&l| load[l as usize] > LOAD_EPS);
        self.counters.links_scanned += self.loaded.len() as u64;
        let mut best: Option<(u32, f64)> = None;
        for &l in &self.loaded {
            let li = l as usize;
            let fill = self.remaining[li] / self.load[li];
            if best.is_none_or(|(_, b)| fill < b) {
                best = Some((l, fill));
            }
        }
        best
    }

    /// Advance the fill level by `delta` and drain the loaded links. Flows
    /// on links that just saturated (or on the designated `bottleneck`,
    /// always included so float noise can never stall the loop) freeze at
    /// the new level.
    fn fill_drain(&mut self, delta: f64, bottleneck: u32) {
        self.fill_level += delta;
        let loaded = std::mem::take(&mut self.loaded);
        for &l in &loaded {
            let li = l as usize;
            self.remaining[li] = (self.remaining[li] - delta * self.load[li]).max(0.0);
        }
        for &l in &loaded {
            let li = l as usize;
            let saturated = self.remaining[li] <= self.sat_thresh[li];
            if !(saturated || l == bottleneck) {
                continue;
            }
            for i in 0..self.link_flows[li].len() {
                let (f, _) = self.link_flows[li][i];
                let fi = f as usize;
                if self.frozen[fi] == self.epoch {
                    continue;
                }
                self.frozen[fi] = self.epoch;
                let w = self.weight[fi];
                self.rate[fi] = self.fill_level * w;
                for &l2 in &self.hops[self.hop_range(f)] {
                    self.load[l2 as usize] -= w;
                }
            }
            self.load[li] = self.load[li].max(0.0);
        }
        self.loaded = loaded;
    }

    /// Close a component solve: re-derive `link_used` for the component's
    /// links and report its flows as changed.
    fn fill_finish(&mut self) {
        for &l in &self.comp_links {
            self.link_used[l as usize] = 0.0;
            self.used_links.insert(l);
        }
        for i in 0..self.comp_flows.len() {
            let f = self.comp_flows[i];
            let r = self.rate[f as usize];
            if r.is_finite() {
                for &l in &self.hops[self.hop_range(f)] {
                    self.link_used[l as usize] += r;
                }
            }
        }
        self.changed.clear();
        self.changed.extend_from_slice(&self.comp_flows);
    }

    /// Debug checks after a solve: the max-min certificate and the id map.
    #[cfg(debug_assertions)]
    fn check_solved(&mut self, cap: &[f64]) {
        self.check_certificate(cap);
        self.check_ids();
    }

    /// Debug check of the max-min certificate over the component just
    /// solved, against the capacities it was solved for. The fill's `load`
    /// scratch is dead once the fill ends, so it holds the per-link
    /// largest rate per weight here and the check allocates nothing.
    #[cfg(debug_assertions)]
    fn check_certificate(&mut self, cap: &[f64]) {
        let (hops, len, stride) = (&self.hops, &self.hop_len, self.stride);
        let (flows, rate, weight) = (&self.comp_flows, &self.rate, &self.weight);
        let violation = certificate_violation(
            cap,
            &self.link_used,
            &mut self.load,
            flows.len(),
            |i| &hops[arena_range(stride, flows[i], len[flows[i] as usize])],
            |i| rate[flows[i] as usize] / weight[flows[i] as usize],
        );
        if let Some(i) = violation {
            let what = flows
                .get(i)
                .map_or("a link over capacity".to_string(), |&f| {
                    format!(
                        "flow in slot {} at rate {} without a bottleneck",
                        self.slot_of_sid[f as usize], rate[f as usize]
                    )
                });
            panic!("max-min certificate failed after a solve: {what}");
        }
    }

    /// Debug check of the id map: each active id and its slot name each
    /// other, no free id is active, and every id is active or free.
    #[cfg(debug_assertions)]
    fn check_ids(&self) {
        for (i, &sid) in self.active.iter().enumerate() {
            let si = sid as usize;
            assert_eq!(self.active_pos[si] as usize, i, "active list out of sync");
            let slot = self.slot_of_sid[si] as usize;
            assert_eq!(self.sid_of[slot], sid, "slot {slot} lost its id {sid}");
        }
        for &sid in &self.free_ids {
            assert_eq!(
                self.active_pos[sid as usize], NONE,
                "free id {sid} is active"
            );
        }
        assert_eq!(
            self.active.len() + self.free_ids.len(),
            self.hop_len.len(),
            "solver ids leaked"
        );
    }

    /// Test hook: every active id's hop `k` on link `l` satisfies
    /// `link_flows[l][hop_pos[k]] == (id, k)`, and the per-link lists hold
    /// nothing else.
    #[cfg(test)]
    fn check_incidence(&self) {
        #[cfg(debug_assertions)]
        self.check_ids();
        let mut entries = 0;
        for &f in &self.active {
            for k in self.hop_range(f) {
                let l = self.hops[k] as usize;
                assert_eq!(
                    self.link_flows[l][self.hop_pos[k] as usize],
                    (f, k as u32),
                    "flow {f} hop {k} back-pointer broken on link {l}"
                );
                entries += 1;
            }
        }
        assert_eq!(entries, self.link_flows.iter().map(Vec::len).sum::<usize>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::max_min_rates;

    fn oracle(cap: &[f64], paths: &[Vec<u32>], weights: &[f64]) -> Vec<f64> {
        max_min_rates(cap, paths, Some(weights))
    }

    /// Inject flow `f` with `weight` and start it on `path`.
    fn start(s: &mut FairShareSolver, f: u32, path: &[u32], weight: f64) {
        s.flow_injected(f, weight);
        s.flow_started(f, path);
    }

    /// Start flow `f` on `path`, injected with `weight` unless it `ran`
    /// before: a requeued flow re-enters through `flow_started` alone and
    /// keeps the weight it was injected with.
    fn start_or_requeue(s: &mut FairShareSolver, ran: bool, f: u32, path: &[u32], weight: f64) {
        if ran {
            s.flow_started(f, path);
        } else {
            start(s, f, path, weight);
        }
    }

    /// Drive the solver through churn and check against the oracle after
    /// every step.
    #[test]
    fn incremental_matches_oracle_through_churn() {
        let cap = vec![10.0, 4.0, 6.0, 8.0];
        let paths: Vec<Vec<u32>> = vec![
            vec![0],
            vec![1],
            vec![0, 1],
            vec![2, 3],
            vec![3],
            vec![0, 2],
        ];
        let weights = [1.0, 1.0, 2.0, 1.0, 1.0, 1.0];

        let mut s = FairShareSolver::new(cap.len());
        let mut live: Vec<usize> = Vec::new();
        let mut ran = [false; 6];
        let script: &[(bool, usize)] = &[
            (true, 0),
            (true, 2),
            (true, 1),
            (false, 2),
            (true, 3),
            (true, 4),
            (true, 5),
            (false, 0),
            (true, 2),
            (false, 4),
        ];
        for &(add, f) in script {
            if add {
                if s.is_active(f as u32) {
                    continue;
                }
                start_or_requeue(&mut s, ran[f], f as u32, &paths[f], weights[f]);
                ran[f] = true;
                live.push(f);
            } else {
                s.flow_removed(f as u32);
                live.retain(|&x| x != f);
            }
            s.solve_dirty(&cap);

            let opaths: Vec<Vec<u32>> = live.iter().map(|&f| paths[f].clone()).collect();
            let ow: Vec<f64> = live.iter().map(|&f| weights[f]).collect();
            let want = oracle(&cap, &opaths, &ow);
            for (i, &f) in live.iter().enumerate() {
                let got = s.rate_of(f as u32);
                assert!(
                    (got - want[i]).abs() <= 1e-9 * want[i].abs().max(1.0),
                    "flow {f}: got {got}, oracle {want:?}"
                );
            }
        }
        assert!(s.counters().incremental_solves > 0);
    }

    #[test]
    fn full_solve_matches_oracle() {
        let cap = vec![5.0, 9.0, 2.0];
        let paths: Vec<Vec<u32>> = vec![vec![0, 2], vec![1], vec![0, 1], vec![2]];
        let mut s = FairShareSolver::new(cap.len());
        for (f, p) in paths.iter().enumerate() {
            start(&mut s, f as u32, p, 1.0);
        }
        s.request_full();
        s.solve_full(&cap);
        let want = max_min_rates(&cap, &paths, None);
        for (f, &w) in want.iter().enumerate() {
            assert!((s.rate_of(f as u32) - w).abs() < 1e-9);
        }
        assert_eq!(s.changed_flows().len(), paths.len());
    }

    #[test]
    fn untouched_component_is_not_resolved() {
        // Two disjoint components: flows {0} on link 0, {1} on link 1.
        let cap = vec![7.0, 3.0];
        let mut s = FairShareSolver::new(2);
        start(&mut s, 0, &[0], 1.0);
        start(&mut s, 1, &[1], 1.0);
        s.solve_dirty(&cap);
        assert_eq!(s.rate_of(0), 7.0);
        assert_eq!(s.rate_of(1), 3.0);

        // Adding a second flow on link 1 must not touch flow 0.
        start(&mut s, 2, &[1], 1.0);
        s.solve_dirty(&cap);
        assert!(s.changed_flows().all(|(f, _)| f != 0));
        assert_eq!(s.rate_of(0), 7.0);
        assert!((s.rate_of(1) - 1.5).abs() < 1e-12);
        assert!((s.rate_of(2) - 1.5).abs() < 1e-12);
    }

    /// Path of churn flow `f` over links 0..3: lengths 1–3 in varying
    /// orders, so arena spans differ in length and position.
    fn churn_path(f: u32) -> Vec<u32> {
        match f % 4 {
            0 => vec![0],
            1 => vec![0, 1],
            2 => vec![2, 1, 0],
            _ => vec![1, 2],
        }
    }

    /// Rates of the active flows against the oracle, with the flow in slot
    /// `f` on `path(f)` at weight 1.
    fn assert_matches_oracle(s: &FairShareSolver, cap: &[f64], path: fn(u32) -> Vec<u32>) {
        let live: Vec<(u32, f64)> = s.active_flows().collect();
        let paths: Vec<Vec<u32>> = live.iter().map(|&(f, _)| path(f)).collect();
        let want = max_min_rates(cap, &paths, None);
        for (&(f, got), want) in live.iter().zip(want) {
            assert_eq!(got, s.rate_of(f), "flow {f}");
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "flow {f}: got {got}, oracle {want}"
            );
        }
    }

    #[test]
    fn swap_remove_bookkeeping_survives_heavy_churn() {
        let cap = vec![100.0, 50.0, 70.0];
        let mut s = FairShareSolver::new(cap.len());
        for f in 0..16u32 {
            start(&mut s, f, &churn_path(f), 1.0);
        }
        s.solve_dirty(&cap);
        // Removed in arbitrary order; their solver ids go to later flows.
        let early = [3u32, 0, 15, 7, 8, 1];
        for f in early {
            s.flow_removed(f);
            s.solve_dirty(&cap);
        }
        s.check_incidence();
        assert_matches_oracle(&s, &cap, churn_path);

        // Thousands of later starts and removes, a sliding window of ~24
        // live flows, removed out of start order.
        for f in 16..4016u32 {
            start(&mut s, f, &churn_path(f), 1.0);
            if f >= 40 {
                let victim = f - 24 + (f * 7) % 5;
                if s.is_active(victim) {
                    s.flow_removed(victim);
                }
            }
            if f % 7 == 0 {
                s.solve_dirty(&cap);
            }
            if f % 500 == 0 {
                s.check_incidence();
            }
        }
        // Requeue the early flows onto links now crowded with late ones.
        for f in early {
            s.flow_started(f, &churn_path(f));
            s.check_incidence();
        }
        s.solve_dirty(&cap);
        s.check_incidence();
        assert_matches_oracle(&s, &cap, churn_path);
        for f in early {
            let sid = s.sid_of[f as usize];
            assert_eq!(&s.hops[s.hop_range(sid)], churn_path(f).as_slice());
            s.flow_removed(f);
        }
        s.solve_dirty(&cap);
        s.check_incidence();
        assert_matches_oracle(&s, &cap, churn_path);
    }

    /// Thousands of churned flows, never more than a few dozen live at
    /// once, leave the solver with no more ids than the peak live count
    /// and a hop arena of at most that many longest paths, while every
    /// checkpoint's rates match the oracle.
    #[test]
    fn solver_ids_and_hop_arena_stay_bounded_by_peak_live_flows() {
        let cap = vec![100.0, 50.0, 70.0];
        let mut s = FairShareSolver::new(cap.len());
        let mut peak = 0;
        for f in 0..4000u32 {
            start(&mut s, f, &churn_path(f), 1.0);
            peak = peak.max(s.active_flows().len());
            if f >= 20 {
                let victim = f - 20 + (f * 7) % 5;
                if s.is_active(victim) {
                    s.flow_removed(victim);
                }
            }
            if f % 3 == 0 {
                s.solve_dirty(&cap);
            }
            if f % 250 == 0 {
                s.solve_dirty(&cap);
                s.check_incidence();
                assert_matches_oracle(&s, &cap, churn_path);
            }
        }
        assert!(peak <= 24, "{peak} flows live at once");
        let ids = s.hop_len.len();
        assert!(ids <= peak, "{ids} solver ids for {peak} live flows");
        assert!(s.hops.len() <= peak * 3, "{} arena hops", s.hops.len());
        assert_eq!(s.hop_pos.len(), s.hops.len());
        assert_eq!(s.weight.len(), ids);
        assert_eq!(
            s.counters().events,
            4000 + (4000 - s.active_flows().len() as u64)
        );
    }

    /// A path longer than every earlier one re-strides the hop arena while
    /// a dozen flows are active: each keeps its path and its link-list
    /// back-pointers.
    #[test]
    fn a_longer_path_restrides_the_arena_under_live_flows() {
        fn path(f: u32) -> Vec<u32> {
            match f {
                12 => vec![3, 2, 1, 0],
                _ if f.is_multiple_of(2) => vec![f % 4],
                _ => vec![f % 4, (f + 1) % 4],
            }
        }
        let cap = vec![10.0, 20.0, 30.0, 40.0];
        let mut s = FairShareSolver::new(cap.len());
        for f in 0..13u32 {
            start(&mut s, f, &path(f), 1.0);
        }
        assert_eq!(s.stride, 4);
        s.check_incidence();
        for f in 0..13u32 {
            let sid = s.sid_of[f as usize];
            assert_eq!(&s.hops[s.hop_range(sid)], path(f).as_slice(), "flow {f}");
        }
        s.solve_dirty(&cap);
        assert_matches_oracle(&s, &cap, path);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let cap = vec![1.0];
        let mut s = FairShareSolver::new(1);
        start(&mut s, 0, &[0], 1.0);
        s.solve_dirty(&cap);
        let a = s.counters();
        assert_eq!(a.events, 1);
        assert_eq!(a.incremental_solves, 1);
        let mut m = SolverCounters::default();
        m.merge(&a);
        m.merge(&a);
        assert_eq!(m.events, 2);
    }

    // --- pod groups -------------------------------------------------------
    //
    // Two pods bridged by boundary links: links 0, 1 are pod 0, links 3, 4
    // pod 1, and links 2 (and 5, 6 where present) the boundary key 2.

    /// The same flows churned through a joint and a pod-grouped solver
    /// agree with the oracle and with each other at every step, and so do
    /// their per-link aggregates.
    #[test]
    fn pod_groups_match_joint_fill_and_oracle_under_cross_pod_churn() {
        let cap = vec![10.0, 4.0, 6.0, 8.0, 3.0];
        let paths: Vec<Vec<u32>> = vec![
            vec![0, 1],    // pod-local in pod 0
            vec![3],       // pod-local in pod 1
            vec![0, 2, 3], // cross-pod over the boundary
            vec![1, 2, 4], // another cross-pod flow
            vec![4],       // pod-local in pod 1
        ];
        let weights = [1.0, 1.0, 1.0, 2.0, 1.0];
        let mut joint = FairShareSolver::new(cap.len());
        let mut grouped = FairShareSolver::with_pod_key(vec![0, 0, 2, 1, 1]);
        let script: &[(bool, usize)] = &[
            (true, 0),
            (true, 2),
            (true, 1),
            (true, 3),
            (false, 2),
            (true, 4),
            (true, 2),
            (false, 0),
            (false, 3),
        ];
        let mut live: Vec<usize> = Vec::new();
        let mut ran = [false; 5];
        for &(add, f) in script {
            for s in [&mut joint, &mut grouped] {
                if add {
                    start_or_requeue(s, ran[f], f as u32, &paths[f], weights[f]);
                } else {
                    s.flow_removed(f as u32);
                }
                s.solve_dirty(&cap);
            }
            if add {
                ran[f] = true;
                live.push(f);
            } else {
                live.retain(|&x| x != f);
            }
            let opaths: Vec<Vec<u32>> = live.iter().map(|&f| paths[f].clone()).collect();
            let ow: Vec<f64> = live.iter().map(|&f| weights[f]).collect();
            let want = oracle(&cap, &opaths, &ow);
            for (i, &f) in live.iter().enumerate() {
                let (g, j) = (grouped.rate_of(f as u32), joint.rate_of(f as u32));
                assert!(
                    (g - want[i]).abs() <= 1e-9 * want[i].abs().max(1.0),
                    "flow {f}: grouped {g}, oracle {want:?}"
                );
                assert!(
                    (g - j).abs() <= 1e-12 * j.abs().max(1.0),
                    "flow {f}: {g} vs {j}"
                );
            }
            for l in 0..cap.len() {
                assert_eq!(
                    grouped.link_flow_count(l),
                    joint.link_flow_count(l),
                    "link {l}"
                );
                assert!(
                    (grouped.link_used()[l] - joint.link_used()[l]).abs() <= 1e-9,
                    "link_used mismatch on link {l}"
                );
            }
        }
    }

    /// A full solve is one joint fill with or without a pod key, so at
    /// weight one both solvers agree bit for bit, including `changed`.
    #[test]
    fn full_solve_is_bitwise_with_and_without_pod_key_at_weight_one() {
        let cap = vec![10.0, 4.0, 6.0, 8.0, 3.0];
        let paths: Vec<Vec<u32>> = vec![
            vec![0, 1],
            vec![3],
            vec![0, 2, 3],
            vec![1, 2, 4],
            vec![4],
            vec![2],
        ];
        let mut joint = FairShareSolver::new(cap.len());
        let mut grouped = FairShareSolver::with_pod_key(vec![0, 0, 2, 1, 1]);
        for s in [&mut joint, &mut grouped] {
            for (f, p) in paths.iter().enumerate() {
                start(s, f as u32, p, 1.0);
            }
            s.request_full();
            s.solve_full(&cap);
        }
        let want = max_min_rates(&cap, &paths, None);
        for f in 0..paths.len() as u32 {
            let g = grouped.rate_of(f);
            assert_eq!(g.to_bits(), joint.rate_of(f).to_bits(), "flow {f}");
            assert!((g - want[f as usize]).abs() <= 1e-9, "flow {f}: {g}");
        }
        for l in 0..cap.len() {
            assert_eq!(
                grouped.link_used()[l].to_bits(),
                joint.link_used()[l].to_bits(),
                "link {l}"
            );
        }
        assert!(grouped.changed_flows().eq(joint.changed_flows()));
    }

    /// Path of pod churn flow `f`: pod-local in pod 0 (links 0, 1) or pod
    /// 1 (3, 4), or cross-pod over boundary links 2, 5 and 6, of lengths
    /// 1–4.
    fn pod_churn_path(f: u32) -> Vec<u32> {
        match f % 6 {
            0 => vec![0],
            1 => vec![1, 0],
            2 => vec![0, 2, 3],
            3 => vec![4, 3],
            4 => vec![1, 5, 6, 4],
            _ => vec![3, 6, 0],
        }
    }

    /// Requeue flows removed early, after thousands of later starts and
    /// removes, in lockstep on a joint and a pod-grouped solver.
    #[test]
    fn pod_grouped_bookkeeping_survives_requeue_after_heavy_churn() {
        let cap = vec![10.0, 4.0, 6.0, 8.0, 3.0, 5.0, 7.0];
        let mut joint = FairShareSolver::new(cap.len());
        let mut grouped = FairShareSolver::with_pod_key(vec![0, 0, 2, 1, 1, 2, 2]);
        let check = |joint: &FairShareSolver, grouped: &FairShareSolver| {
            joint.check_incidence();
            grouped.check_incidence();
            let slots = |s: &FairShareSolver| s.active_flows().map(|(f, _)| f).collect::<Vec<_>>();
            assert_eq!(slots(grouped), slots(joint));
            assert_matches_oracle(grouped, &cap, pod_churn_path);
            for (f, g) in grouped.active_flows() {
                let j = joint.rate_of(f);
                assert!((g - j).abs() <= 1e-12 * j.max(1.0), "flow {f}: {g} vs {j}");
            }
        };
        let early = [2u32, 4, 0, 11, 5];
        for s in [&mut joint, &mut grouped] {
            for f in 0..12u32 {
                start(s, f, &pod_churn_path(f), 1.0);
            }
            for f in early {
                s.flow_removed(f);
            }
            s.solve_dirty(&cap);
        }
        check(&joint, &grouped);

        for f in 12..3012u32 {
            for s in [&mut joint, &mut grouped] {
                start(s, f, &pod_churn_path(f), 1.0);
                if f >= 30 {
                    let victim = f - 18 + (f * 5) % 4;
                    if s.is_active(victim) {
                        s.flow_removed(victim);
                    }
                }
                if f % 5 == 0 {
                    s.solve_dirty(&cap);
                }
            }
            if f % 500 == 0 {
                check(&joint, &grouped);
            }
        }
        for s in [&mut joint, &mut grouped] {
            for f in early {
                s.flow_started(f, &pod_churn_path(f));
                s.check_incidence();
            }
            s.solve_dirty(&cap);
        }
        check(&joint, &grouped);
    }

    /// Two pods dirtied on one tick with no cross-pod flow fill as two
    /// groups, each scanning only its own links: fewer scans than the
    /// joint fill, which rescans both pods every round. One cross-pod flow
    /// then merges them into one group.
    #[test]
    fn disjoint_pods_fill_as_separate_groups_until_a_flow_bridges_them() {
        // Each pod: three flows at distinct weights over two links, so its
        // fill runs several rounds at levels the other pod does not share.
        let cap = vec![12.0, 5.0, 9.0, 7.0, 100.0];
        let paths: Vec<Vec<u32>> = vec![vec![0], vec![0, 1], vec![1], vec![2], vec![2, 3], vec![3]];
        let weights = [1.0, 2.0, 3.0, 1.5, 2.5, 3.5];
        let mut joint = FairShareSolver::new(cap.len());
        let mut grouped = FairShareSolver::with_pod_key(vec![0, 0, 1, 1, 2]);
        for s in [&mut joint, &mut grouped] {
            for (f, p) in paths.iter().enumerate() {
                start(s, f as u32, p, weights[f]);
            }
            s.solve_dirty(&cap);
        }
        assert_eq!(grouped.pods.as_ref().map(|p| p.groups), Some(2));
        let (gs, js) = (
            grouped.counters().links_scanned,
            joint.counters().links_scanned,
        );
        assert!(gs < js, "grouped fill scanned {gs} links, joint {js}");
        assert_eq!(grouped.counters().flows_resolved, paths.len() as u64);
        let want = oracle(&cap, &paths, &weights);
        for (f, w) in want.iter().enumerate() {
            let g = grouped.rate_of(f as u32);
            assert!((g - w).abs() <= 1e-9 * w.max(1.0), "flow {f}: {g} vs {w}");
        }
        // The changed set keeps the joint fill's order.
        assert!(grouped.changed_flows().eq(joint.changed_flows()));

        start(&mut grouped, 6, &[1, 4, 2], 1.0);
        grouped.solve_dirty(&cap);
        assert_eq!(grouped.pods.as_ref().map(|p| p.groups), Some(1));
        assert_eq!(grouped.changed_flows().len(), 7);
        let mut paths = paths;
        paths.push(vec![1, 4, 2]);
        let weights = [&weights[..], &[1.0]].concat();
        let want = oracle(&cap, &paths, &weights);
        for (f, w) in want.iter().enumerate() {
            let g = grouped.rate_of(f as u32);
            assert!((g - w).abs() <= 1e-9 * w.max(1.0), "flow {f}: {g} vs {w}");
        }
    }

    /// A failure of the certificate names what broke.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "without a bottleneck")]
    fn certificate_rejects_an_unbottlenecked_flow() {
        let cap = vec![10.0];
        let mut s = FairShareSolver::new(1);
        start(&mut s, 0, &[0], 1.0);
        start(&mut s, 1, &[0], 1.0);
        s.solve_dirty(&cap);
        // Halve one flow's rate behind the solver's back.
        s.rate[s.sid_of[0] as usize] = 2.5;
        s.fill_finish();
        s.check_certificate(&cap);
    }
}

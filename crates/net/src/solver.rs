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
//! All scratch (remaining capacity, per-link load, component membership,
//! frozen marks) is held in reusable buffers with epoch stamps, so a solve
//! allocates nothing in steady state. Flow paths live in two append-only
//! flat arenas (`hops`, `hop_pos`) addressed by a per-flow span, so starting
//! or removing a flow allocates nothing either (amortized arena growth
//! aside).

use crate::linkset::LinkSet;
use serde::Serialize;

/// Sentinel for "not in the active set".
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

/// Incremental water-filling engine over a fixed link set.
///
/// Flows are identified by the simulator's dense flow indices; per-flow
/// state grows monotonically as flows are registered and is reused across
/// requeues. The solver owns the authoritative per-link `used`/`nflows`
/// aggregates the simulator's telemetry reads.
#[derive(Debug)]
pub struct FairShareSolver {
    nl: usize,

    // --- persistent active-set state ---
    /// Active flow ids, swap-remove order.
    active: Vec<u32>,
    /// flow id → index in `active`, or `NONE`.
    slot_of: Vec<u32>,
    /// flow id → `(off, len)` span of its path in `hops`/`hop_pos` (set
    /// when the flow first starts; kept across requeues).
    span: Vec<(u32, u32)>,
    /// Append-only arena of every started flow's links, in path order.
    hops: Vec<u32>,
    /// Parallel to `hops`: the position of hop `k`'s entry in
    /// `link_flows[hops[k]]` while its flow is active.
    hop_pos: Vec<u32>,
    /// flow id → max-min weight.
    weight: Vec<f64>,
    /// flow id → last solved rate (authoritative allocation).
    rate: Vec<f64>,
    /// link → `(flow, arena index of the hop)` for each active flow
    /// crossing it. The second element makes detach O(1) per hop: when an
    /// entry is swap-removed, the moved entry's `hop_pos` back-pointer is
    /// repaired without scanning.
    link_flows: Vec<Vec<(u32, u32)>>,
    /// link → allocated rate at the last solve.
    link_used: Vec<f64>,
    /// link → active flow count (maintained incrementally).
    link_nflows: Vec<u32>,
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
    comp_flows: Vec<u32>,
    /// BFS frontier position within `comp_links` (stepwise expansion).
    comp_head: usize,
    loaded: Vec<u32>,
    changed: Vec<u32>,
    /// Per-link saturation threshold for the current fill (from capacity).
    sat_thresh: Vec<f64>,
    /// Water level of the fill in progress (rate per unit weight).
    fill_level: f64,

    counters: SolverCounters,
}

impl FairShareSolver {
    /// New solver over `nl` links.
    pub fn new(nl: usize) -> Self {
        FairShareSolver {
            nl,
            active: Vec::new(),
            slot_of: Vec::new(),
            span: Vec::new(),
            hops: Vec::new(),
            hop_pos: Vec::new(),
            weight: Vec::new(),
            rate: Vec::new(),
            link_flows: vec![Vec::new(); nl],
            link_used: vec![0.0; nl],
            link_nflows: vec![0; nl],
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
            counters: SolverCounters::default(),
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> SolverCounters {
        self.counters
    }

    /// Flow ids currently active.
    pub fn active_flows(&self) -> &[u32] {
        &self.active
    }

    /// Whether `flow` is in the active set.
    pub fn is_active(&self, flow: u32) -> bool {
        (flow as usize) < self.slot_of.len() && self.slot_of[flow as usize] != NONE
    }

    /// Last solved rate of `flow` (0 until first solved).
    pub fn rate_of(&self, flow: u32) -> f64 {
        self.rate.get(flow as usize).copied().unwrap_or(0.0)
    }

    /// Per-link allocated rate at the last solve.
    pub fn link_used(&self) -> &[f64] {
        &self.link_used
    }

    /// Per-link active-flow counts.
    pub fn link_nflows(&self) -> &[u32] {
        &self.link_nflows
    }

    /// Flows whose rate was (re)assigned by the last solve. The simulator
    /// bumps completion epochs and reschedules only these.
    pub fn changed_flows(&self) -> &[u32] {
        &self.changed
    }

    /// True when a full (non-component) solve has been requested.
    pub fn needs_full(&self) -> bool {
        self.needs_full
    }

    fn ensure_flow(&mut self, flow: u32) {
        let want = flow as usize + 1;
        if self.slot_of.len() < want {
            self.slot_of.resize(want, NONE);
            self.span.resize(want, (0, 0));
            self.weight.resize(want, 1.0);
            self.rate.resize(want, 0.0);
            self.flow_mark.resize(want, 0);
            self.frozen.resize(want, 0);
        }
    }

    fn mark_dirty(&mut self, link: u32) {
        if !self.link_dirty[link as usize] {
            self.link_dirty[link as usize] = true;
            self.dirty_links.push(link);
        }
    }

    /// The arena index range of `flow`'s path.
    fn hop_range(&self, flow: u32) -> std::ops::Range<usize> {
        let (off, len) = self.span[flow as usize];
        off as usize..(off + len) as usize
    }

    /// Attach `flow` to the active set and every link on its stored path.
    fn attach(&mut self, flow: u32) {
        let fi = flow as usize;
        debug_assert_eq!(self.slot_of[fi], NONE, "flow already active");
        self.slot_of[fi] = self.active.len() as u32;
        self.active.push(flow);
        for k in self.hop_range(flow) {
            let l = self.hops[k] as usize;
            self.hop_pos[k] = self.link_flows[l].len() as u32;
            self.link_flows[l].push((flow, k as u32));
            self.link_nflows[l] += 1;
            self.mark_dirty(l as u32);
        }
    }

    /// A flow entered the active set with the given path and weight. The
    /// path is appended to the hop arena once; requeues reuse the span.
    pub fn flow_started(&mut self, flow: u32, path: &[u32], weight: f64) {
        self.counters.events += 1;
        self.ensure_flow(flow);
        let off = self.hops.len();
        assert!(off + path.len() <= NONE as usize, "hop arena exceeds u32");
        self.span[flow as usize] = (off as u32, path.len() as u32);
        self.hops.extend_from_slice(path);
        self.hop_pos.resize(self.hops.len(), 0);
        self.weight[flow as usize] = weight;
        self.attach(flow);
    }

    /// A previously-seen flow (aborted on a failed path) re-entered the
    /// active set on its original path.
    pub fn flow_requeued(&mut self, flow: u32) {
        self.counters.events += 1;
        self.ensure_flow(flow);
        self.attach(flow);
    }

    /// A flow left the active set (completed or aborted). O(hops):
    /// swap-remove from the active list and from every per-link flow list,
    /// repairing the moved entries' back-pointers.
    pub fn flow_removed(&mut self, flow: u32) {
        self.counters.events += 1;
        let fi = flow as usize;
        let slot = self.slot_of[fi];
        debug_assert_ne!(slot, NONE, "flow not active");
        self.active.swap_remove(slot as usize);
        if (slot as usize) < self.active.len() {
            self.slot_of[self.active[slot as usize] as usize] = slot;
        }
        self.slot_of[fi] = NONE;
        let old_rate = if self.rate[fi].is_finite() {
            self.rate[fi]
        } else {
            0.0
        };
        for k in self.hop_range(flow) {
            let l = self.hops[k] as usize;
            let p = self.hop_pos[k] as usize;
            self.link_flows[l].swap_remove(p);
            if p < self.link_flows[l].len() {
                let (_, moved_hop) = self.link_flows[l][p];
                self.hop_pos[moved_hop as usize] = p as u32;
            }
            self.link_nflows[l] -= 1;
            // Keep the aggregate roughly consistent until the next solve
            // re-derives it for the component.
            self.link_used[l] = (self.link_used[l] - old_rate).max(0.0);
            self.mark_dirty(l as u32);
        }
        self.rate[fi] = 0.0;
    }

    /// A link's capacity changed (failure or restore on a healthy fabric);
    /// its component must be re-solved.
    pub fn capacity_changed(&mut self, link: u32) {
        self.mark_dirty(link);
    }

    /// Request that the next solve be a full one (topology events whose
    /// effects cross component boundaries, e.g. PFC pause coupling).
    pub fn request_full(&mut self) {
        self.needs_full = true;
    }

    /// Drop all pending dirty state without solving (a full solve
    /// re-derives everything, so it starts from a clean slate).
    pub fn clear_dirty(&mut self) {
        for &l in &self.dirty_links {
            self.link_dirty[l as usize] = false;
        }
        self.dirty_links.clear();
        self.needs_full = false;
    }

    /// Full water-filling over every active flow, against `cap` (effective
    /// capacities — the simulator applies PFC pause factors before calling).
    /// All active flows are reported as changed.
    pub fn solve_full(&mut self, cap: &[f64]) {
        debug_assert_eq!(cap.len(), self.nl);
        self.counters.full_solves += 1;
        self.clear_dirty();
        self.comp_begin();
        self.comp_seed_all();
        self.fill_run(|l| cap[l as usize]);
        self.changed.clear();
        self.changed.extend_from_slice(&self.comp_flows);
        self.rebuild_link_used_full();
    }

    /// Component-local solve: gather the connected component(s) of the
    /// flow–link incidence graph reachable from the dirty links, water-fill
    /// just those, and leave every other flow's rate untouched.
    pub fn solve_dirty(&mut self, cap: &[f64]) {
        debug_assert_eq!(cap.len(), self.nl);
        debug_assert!(!self.needs_full, "full solve pending");
        if self.dirty_links.is_empty() {
            self.changed.clear();
            return;
        }
        self.counters.incremental_solves += 1;
        self.comp_begin();
        self.comp_seed_dirty();
        self.comp_expand(None);
        self.counters.component_links += self.comp_links.len() as u64;
        self.counters.component_flows += self.comp_flows.len() as u64;
        self.clear_dirty();
        self.fill_run(|l| cap[l as usize]);
        self.fill_finish();
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

    // --- stepwise component + fill engine --------------------------------
    //
    // `solve_full`/`solve_dirty` above are thin drivers over these steps;
    // the per-pod sharded solver (`crate::shard`) drives the same steps
    // across several domains at once — gather a component (`comp_*`), then
    // water-fill it (`fill_*`) — so the global and sharded paths share one
    // arithmetic kernel and cannot drift.

    /// Open a new component: bump the epoch and reset the gather buffers.
    pub(crate) fn comp_begin(&mut self) {
        self.epoch += 1;
        self.comp_links.clear();
        self.comp_flows.clear();
        self.comp_head = 0;
    }

    /// Seed the component with every dirty link. Dirty flags stay set —
    /// call [`FairShareSolver::clear_dirty`] once the component is
    /// gathered, as the drivers do.
    pub(crate) fn comp_seed_dirty(&mut self) {
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
    pub(crate) fn comp_seed_all(&mut self) {
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

    /// Pull one externally-discovered flow into the component (a cross-pod
    /// flow a sibling domain swept). Marks the flow and queues its links
    /// for expansion; returns whether it was new to this component.
    pub(crate) fn comp_seed_flow(&mut self, flow: u32) -> bool {
        let fi = flow as usize;
        if self.flow_mark[fi] == self.epoch {
            return false;
        }
        self.flow_mark[fi] = self.epoch;
        self.comp_flows.push(flow);
        for &l in &self.hops[self.hop_range(flow)] {
            if self.link_mark[l as usize] != self.epoch {
                self.link_mark[l as usize] = self.epoch;
                self.comp_links.push(l);
            }
        }
        true
    }

    /// Expand the component BFS until the link frontier is exhausted,
    /// optionally collecting every newly swept flow (the sharded driver
    /// inspects these for cross-domain membership).
    pub(crate) fn comp_expand(&mut self, mut newly: Option<&mut Vec<u32>>) {
        while self.comp_head < self.comp_links.len() {
            let l = self.comp_links[self.comp_head] as usize;
            self.comp_head += 1;
            for i in 0..self.link_flows[l].len() {
                let (f, _) = self.link_flows[l][i];
                if self.flow_mark[f as usize] != self.epoch {
                    self.flow_mark[f as usize] = self.epoch;
                    self.comp_flows.push(f);
                    if let Some(sink) = newly.as_deref_mut() {
                        sink.push(f);
                    }
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

    /// The gathered component flows.
    pub(crate) fn comp_flows(&self) -> &[u32] {
        &self.comp_flows
    }

    /// The gathered component links.
    pub(crate) fn comp_links(&self) -> &[u32] {
        &self.comp_links
    }

    /// Initialize the water-fill over the gathered component: reset
    /// remaining capacity / load / saturation thresholds for its links,
    /// unfreeze its flows, and build the loaded-link scan list.
    pub(crate) fn fill_begin<F: Fn(u32) -> f64>(&mut self, cap_of: F) {
        self.counters.flows_resolved += self.comp_flows.len() as u64;
        for i in 0..self.comp_links.len() {
            let l = self.comp_links[i] as usize;
            let cap = cap_of(l as u32);
            self.remaining[l] = cap;
            self.load[l] = 0.0;
            self.sat_thresh[l] = 1e-6 * cap.max(1.0);
        }
        for i in 0..self.comp_flows.len() {
            let f = self.comp_flows[i];
            let fi = f as usize;
            if self.span[fi].1 == 0 {
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
        let mut loaded = std::mem::take(&mut self.loaded);
        loaded.clear();
        loaded.extend(self.comp_links.iter().copied().filter(|&l| {
            // Only links carrying unfrozen weight participate in the scan.
            self.load[l as usize] > LOAD_EPS
        }));
        self.loaded = loaded;
        self.fill_level = 0.0;
    }

    /// One bottleneck scan: drop drained links from the scan list, then
    /// return the strict-minimum `(link, fill)` over the still-loaded ones
    /// — `None` when the component is exhausted. First-wins on exact ties,
    /// like the oracle.
    pub(crate) fn fill_min(&mut self) -> Option<(u32, f64)> {
        let mut loaded = std::mem::take(&mut self.loaded);
        loaded.retain(|&l| self.load[l as usize] > LOAD_EPS);
        self.counters.links_scanned += loaded.len() as u64;
        let mut best: Option<(u32, f64)> = None;
        for &l in &loaded {
            let li = l as usize;
            let fill = self.remaining[li] / self.load[li];
            if best.is_none_or(|(_, b)| fill < b) {
                best = Some((l, fill));
            }
        }
        self.loaded = loaded;
        best
    }

    /// Advance the fill level by `delta` and drain the loaded links. Flows
    /// on links that just saturated (or on the designated `bottleneck`,
    /// always included so float noise can never stall the loop) freeze at
    /// the new level; each newly frozen flow is reported to `frozen_out`
    /// when supplied (the sharded driver propagates cross-pod freezes to
    /// sibling domains within the same round).
    pub(crate) fn fill_drain(
        &mut self,
        delta: f64,
        bottleneck: Option<u32>,
        mut frozen_out: Option<&mut Vec<u32>>,
    ) {
        self.fill_level += delta;
        let loaded = std::mem::take(&mut self.loaded);
        for &l in &loaded {
            let li = l as usize;
            self.remaining[li] = (self.remaining[li] - delta * self.load[li]).max(0.0);
        }
        for &l in &loaded {
            let li = l as usize;
            let saturated = self.remaining[li] <= self.sat_thresh[li];
            if !(saturated || Some(l) == bottleneck) {
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
                if let Some(sink) = frozen_out.as_deref_mut() {
                    sink.push(f);
                }
            }
            self.load[li] = self.load[li].max(0.0);
        }
        self.loaded = loaded;
    }

    /// Freeze `flow` at the current fill level (a cross-pod flow frozen by
    /// a sibling domain this round). No-op if already frozen this epoch.
    pub(crate) fn fill_force(&mut self, flow: u32) {
        let fi = flow as usize;
        if self.frozen[fi] == self.epoch {
            return;
        }
        self.frozen[fi] = self.epoch;
        let w = self.weight[fi];
        self.rate[fi] = self.fill_level * w;
        for &l in &self.hops[self.hop_range(flow)] {
            self.load[l as usize] -= w;
        }
    }

    /// Run the gathered component's water-fill to completion — the serial
    /// single-domain drive of `fill_begin`/`fill_min`/`fill_drain`, the
    /// same algorithm as [`max_min_rates`](crate::max_min_rates).
    pub(crate) fn fill_run<F: Fn(u32) -> f64>(&mut self, cap_of: F) {
        self.fill_begin(&cap_of);
        while let Some((bottleneck, fill)) = self.fill_min() {
            self.fill_drain(fill.max(0.0), Some(bottleneck), None);
        }
    }

    /// Close a component solve: re-derive `link_used` for the component's
    /// links and report its flows as changed.
    pub(crate) fn fill_finish(&mut self) {
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

    /// Links of `flow`'s stored path (local link ids inside a domain).
    pub(crate) fn path_of(&self, flow: u32) -> &[u32] {
        &self.hops[self.hop_range(flow)]
    }

    /// Test hook: every active flow's hop `k` on link `l` satisfies
    /// `link_flows[l][hop_pos[k]] == (flow, k)`, and the per-link lists hold
    /// nothing else.
    #[cfg(test)]
    pub(crate) fn check_incidence(&self) {
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
        for (l, list) in self.link_flows.iter().enumerate() {
            assert_eq!(list.len(), self.link_nflows[l] as usize, "link {l}");
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
                if f < s.slot_of.len() && s.span[f].1 > 0 {
                    s.flow_requeued(f as u32);
                } else {
                    s.flow_started(f as u32, &paths[f], weights[f]);
                }
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
            s.flow_started(f as u32, p, 1.0);
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
        s.flow_started(0, &[0], 1.0);
        s.flow_started(1, &[1], 1.0);
        s.solve_dirty(&cap);
        assert_eq!(s.rate_of(0), 7.0);
        assert_eq!(s.rate_of(1), 3.0);

        // Adding a second flow on link 1 must not touch flow 0.
        s.flow_started(2, &[1], 1.0);
        s.solve_dirty(&cap);
        assert!(!s.changed_flows().contains(&0));
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

    /// Rates of the active flows against the oracle.
    fn assert_matches_oracle(s: &FairShareSolver, cap: &[f64]) {
        let live: Vec<u32> = s.active_flows().to_vec();
        let paths: Vec<Vec<u32>> = live.iter().map(|&f| churn_path(f)).collect();
        let want = max_min_rates(cap, &paths, None);
        for (i, &f) in live.iter().enumerate() {
            assert!(
                (s.rate_of(f) - want[i]).abs() <= 1e-9 * want[i].max(1.0),
                "flow {f}: got {}, oracle {}",
                s.rate_of(f),
                want[i]
            );
        }
    }

    #[test]
    fn swap_remove_bookkeeping_survives_heavy_churn() {
        let cap = vec![100.0, 50.0, 70.0];
        let mut s = FairShareSolver::new(cap.len());
        for f in 0..16u32 {
            s.flow_started(f, &churn_path(f), 1.0);
        }
        s.solve_dirty(&cap);
        // Removed in arbitrary order; their spans stay at the arena front.
        let early = [3u32, 0, 15, 7, 8, 1];
        for f in early {
            s.flow_removed(f);
            s.solve_dirty(&cap);
        }
        s.check_incidence();
        assert_matches_oracle(&s, &cap);

        // Thousands of later starts and removes, a sliding window of ~24
        // live flows, removed out of start order.
        for f in 16..4016u32 {
            s.flow_started(f, &churn_path(f), 1.0);
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
            s.flow_requeued(f);
            s.check_incidence();
        }
        s.solve_dirty(&cap);
        s.check_incidence();
        assert_matches_oracle(&s, &cap);
        for f in early {
            assert_eq!(s.path_of(f), churn_path(f).as_slice());
            s.flow_removed(f);
        }
        s.solve_dirty(&cap);
        s.check_incidence();
        assert_matches_oracle(&s, &cap);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let cap = vec![1.0];
        let mut s = FairShareSolver::new(1);
        s.flow_started(0, &[0], 1.0);
        s.solve_dirty(&cap);
        let a = s.counters();
        assert_eq!(a.events, 1);
        assert_eq!(a.incremental_solves, 1);
        let mut m = SolverCounters::default();
        m.merge(&a);
        m.merge(&a);
        assert_eq!(m.events, 2);
    }
}

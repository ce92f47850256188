//! Per-pod sharded max-min solver — struct-of-arrays over pod domains.
//!
//! [`ShardedSolver`] splits the incremental solver's state (flow rates,
//! demands, per-link active-flow lists) into one [`FairShareSolver`] per
//! *pod domain* plus a *boundary* pseudo-domain holding every link whose
//! endpoints do not share a pod (Agg↔Core spine links, cross-DC long
//! hauls). Pod-local flows live entirely inside one domain; a cross-pod
//! flow is split into per-domain path *segments*, registered in every
//! domain it touches.
//!
//! Solves decompose accordingly:
//!
//! * **Independent components** (no cross-pod flow swept): each involved
//!   domain water-fills its own component — these fills fan out over the
//!   `astral-exec` pool, and even serially each domain pays only its own
//!   component's bottleneck rounds instead of the cluster-wide joint fill
//!   (the round count of a joint fill is the number of *distinct* fill
//!   levels across all pods, so separate fills are asymptotically cheaper
//!   at high pod counts).
//! * **Coupled groups** (components chained across domains by cross-pod
//!   flows): the touched domains run one *level-synchronous* fill — every
//!   round takes the global minimum fill over all member domains, drains
//!   each member by that same delta, and propagates every frozen cross-pod
//!   flow to its sibling domains within the round. This replays exactly
//!   the freeze sequence of the global water-fill, so the reconciled rates
//!   converge to the same max-min allocation as the oracle.
//!
//! Both paths drive the same `comp_*`/`fill_*` stepwise kernel inside
//! [`FairShareSolver`], so the sharded and global solvers share one
//! arithmetic implementation and cannot drift.

use crate::linkset::LinkSet;
use crate::solver::{FairShareSolver, SolverCounters};
use astral_exec::Pool;
use astral_topo::{NodeId, NodeKind, Topology};
use std::fmt;

/// Sentinel for "not in the active set".
const NONE: u32 = u32::MAX;

/// Why a domain partition is invalid — mirrors the `PolicyError` /
/// `PlacementError` validation style: every constructor that can reject
/// has a `try_` form returning this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// No pod domain could be formed (e.g. a topology whose links all
    /// cross pods, or an explicit partition with zero domains).
    NoPodDomains,
    /// A declared domain contains no links — an empty pod cannot anchor
    /// flows and signals a wiring bug in the caller's partition.
    EmptyDomain {
        /// Index of the offending domain.
        domain: usize,
    },
    /// The same link was claimed by two domains.
    LinkClaimedTwice {
        /// The doubly-claimed link.
        link: u32,
        /// The domain that claimed it first.
        first: usize,
        /// The domain that claimed it again.
        second: usize,
    },
    /// A domain references a link id outside the topology.
    UnknownLink {
        /// The out-of-range link id.
        link: u32,
        /// The number of links that actually exist.
        nl: usize,
    },
    /// More domains than the `u16` domain index space can address.
    TooManyDomains {
        /// The requested domain count.
        domains: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShardError::NoPodDomains => write!(f, "no pod domains in partition"),
            ShardError::EmptyDomain { domain } => {
                write!(f, "domain {domain} contains no links")
            }
            ShardError::LinkClaimedTwice {
                link,
                first,
                second,
            } => write!(
                f,
                "link {link} claimed by both domain {first} and domain {second}"
            ),
            ShardError::UnknownLink { link, nl } => {
                write!(f, "link {link} out of range (topology has {nl} links)")
            }
            ShardError::TooManyDomains { domains } => {
                write!(f, "{domains} domains exceed the u16 domain index space")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// A validated assignment of every link to exactly one pod domain or the
/// boundary pseudo-domain (index [`DomainPartition::boundary`]).
#[derive(Debug, Clone)]
pub struct DomainPartition {
    nl: usize,
    /// Pod domain count (the boundary pseudo-domain is index `ndomains`).
    ndomains: usize,
    /// link → owning domain (boundary links map to `ndomains`).
    dom_of_link: Vec<u16>,
    /// link → its local index within the owning domain.
    local_of_link: Vec<u32>,
    /// domain → global link ids, in ascending order; entry `ndomains` is
    /// the boundary.
    links_of_dom: Vec<Vec<u32>>,
}

impl DomainPartition {
    /// Validate an explicit partition: `domains[d]` lists the global link
    /// ids of pod domain `d`; links listed nowhere become boundary links.
    pub fn try_new(nl: usize, domains: Vec<Vec<u32>>) -> Result<Self, ShardError> {
        if domains.is_empty() {
            return Err(ShardError::NoPodDomains);
        }
        let ndomains = domains.len();
        if ndomains >= u16::MAX as usize {
            return Err(ShardError::TooManyDomains { domains: ndomains });
        }
        let mut dom_of_link = vec![ndomains as u16; nl];
        for (d, links) in domains.iter().enumerate() {
            if links.is_empty() {
                return Err(ShardError::EmptyDomain { domain: d });
            }
            for &l in links {
                if l as usize >= nl {
                    return Err(ShardError::UnknownLink { link: l, nl });
                }
                let prev = dom_of_link[l as usize];
                if prev != ndomains as u16 {
                    return Err(ShardError::LinkClaimedTwice {
                        link: l,
                        first: prev as usize,
                        second: d,
                    });
                }
                dom_of_link[l as usize] = d as u16;
            }
        }
        let mut links_of_dom: Vec<Vec<u32>> = domains
            .into_iter()
            .map(|mut links| {
                links.sort_unstable();
                links
            })
            .collect();
        links_of_dom.push(
            (0..nl as u32)
                .filter(|&l| dom_of_link[l as usize] == ndomains as u16)
                .collect(),
        );
        let mut local_of_link = vec![0u32; nl];
        for links in &links_of_dom {
            for (i, &l) in links.iter().enumerate() {
                local_of_link[l as usize] = i as u32;
            }
        }
        Ok(DomainPartition {
            nl,
            ndomains,
            dom_of_link,
            local_of_link,
            links_of_dom,
        })
    }

    /// Derive the natural partition of a topology: one domain per
    /// `(datacenter, pod)` with any intra-pod link; links whose endpoints
    /// do not share a pod (Agg↔Core, anything touching a core switch or
    /// DC gateway) land in the boundary pseudo-domain.
    pub fn try_from_topology(topo: &Topology) -> Result<Self, ShardError> {
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
        let mut doms: std::collections::BTreeMap<(u32, u16), Vec<u32>> =
            std::collections::BTreeMap::new();
        for link in topo.links() {
            if let (Some(pa), Some(pb)) = (pod_of(link.src), pod_of(link.dst)) {
                if pa == pb {
                    doms.entry(pa).or_default().push(link.id.0);
                }
            }
        }
        if doms.is_empty() {
            return Err(ShardError::NoPodDomains);
        }
        Self::try_new(topo.links().len(), doms.into_values().collect())
    }

    /// Pod domain count (excluding the boundary pseudo-domain).
    pub fn ndomains(&self) -> usize {
        self.ndomains
    }

    /// Index of the boundary pseudo-domain.
    pub fn boundary(&self) -> usize {
        self.ndomains
    }

    /// Owning domain of a global link.
    pub fn domain_of_link(&self, link: u32) -> usize {
        self.dom_of_link[link as usize] as usize
    }

    /// Global link ids of a domain, ascending.
    pub fn links_of_domain(&self, domain: usize) -> &[u32] {
        &self.links_of_dom[domain]
    }
}

/// The sharded incremental solver: one [`FairShareSolver`] per domain,
/// global mirrors of the per-flow/per-link aggregates the simulator reads,
/// and the cross-domain reconciliation drivers. Drop-in for the simulator's
/// solver surface (`flow_started` … `solve_full`), producing the same
/// allocations as the global solver.
#[derive(Debug)]
pub struct ShardedSolver {
    part: DomainPartition,
    /// Per-domain solvers over local link ids; index `ndomains` is the
    /// boundary pseudo-domain.
    doms: Vec<FairShareSolver>,
    pool: Pool,

    // --- global per-flow mirrors (indexed by global flow id) ---
    active: Vec<u32>,
    slot_of: Vec<u32>,
    rate: Vec<f64>,
    /// flow → `(off, len)` span of its per-domain segments in `seg_arena`.
    /// Persists across requeues like paths do.
    seg_span: Vec<(u32, u32)>,
    /// Append-only arena of every started flow's segments as `(domain,
    /// local flow id)`, in path-first-touch order.
    seg_arena: Vec<(u16, u32)>,
    /// domain → next unused local flow id.
    next_local: Vec<u32>,
    /// domain → local flow id → global flow id.
    global_of: Vec<Vec<u32>>,

    // --- global per-link mirrors ---
    link_used: Vec<f64>,
    link_nflows: Vec<u32>,
    /// Global links whose `link_used` may be nonzero — the same tracked
    /// zeroing the global solver's full rebuild uses, so the two drivers
    /// stay bitwise identical.
    used_links: LinkSet,

    // --- changed-set assembly ---
    changed: Vec<u32>,
    changed_mark: Vec<u32>,
    changed_epoch: u32,

    // --- dirty tracking ---
    dirty_doms: Vec<u16>,
    dom_dirty: Vec<bool>,
    needs_full: bool,

    // --- reusable scratch ---
    seg_links: Vec<Vec<u32>>,
    touched: Vec<u16>,
    involved: Vec<u16>,
    involved_mark: Vec<bool>,
    newly: Vec<u32>,
    frozen_dom: Vec<u32>,
    frozen_all: Vec<(u16, u32)>,
    uf_parent: Vec<u16>,
    /// Involved domains as `(group root, domain)`, sorted: each run of one
    /// root is a fill group.
    grouped: Vec<(u16, u16)>,
    /// Domains filled on their own, moved out of `doms` for the pool.
    singles: Vec<(u16, FairShareSolver)>,
    /// One coupled group's (or the full solve's) member domains.
    members: Vec<u16>,

    /// Event/solve counters owned at this level; scan/resolve work is
    /// summed from the domain solvers on read.
    base: SolverCounters,
}

impl ShardedSolver {
    /// New sharded solver over a validated partition, fanning independent
    /// domain fills out on `pool`.
    pub fn new(part: DomainPartition, pool: Pool) -> Self {
        let nd = part.ndomains + 1; // + boundary
        let doms = part
            .links_of_dom
            .iter()
            .map(|links| FairShareSolver::new(links.len()))
            .collect();
        ShardedSolver {
            doms,
            pool,
            active: Vec::new(),
            slot_of: Vec::new(),
            rate: Vec::new(),
            seg_span: Vec::new(),
            seg_arena: Vec::new(),
            next_local: vec![0; nd],
            global_of: vec![Vec::new(); nd],
            link_used: vec![0.0; part.nl],
            link_nflows: vec![0; part.nl],
            used_links: LinkSet::new(part.nl),
            changed: Vec::new(),
            changed_mark: Vec::new(),
            changed_epoch: 0,
            dirty_doms: Vec::new(),
            dom_dirty: vec![false; nd],
            needs_full: false,
            seg_links: vec![Vec::new(); nd],
            touched: Vec::new(),
            involved: Vec::new(),
            involved_mark: vec![false; nd],
            newly: Vec::new(),
            frozen_dom: Vec::new(),
            frozen_all: Vec::new(),
            uf_parent: vec![0; nd],
            grouped: Vec::new(),
            singles: Vec::new(),
            members: Vec::new(),
            base: SolverCounters::default(),
            part,
        }
    }

    /// The partition this solver shards over.
    pub fn partition(&self) -> &DomainPartition {
        &self.part
    }

    /// Counter snapshot: events/solves counted here, per-round scan and
    /// resolve work summed over the domain solvers. Cross-pod flows are
    /// resolved once per touched domain, so `flows_resolved` /
    /// `component_flows` count segment work, not unique flows.
    pub fn counters(&self) -> SolverCounters {
        let mut c = self.base;
        for d in &self.doms {
            let dc = d.counters();
            c.links_scanned += dc.links_scanned;
            c.flows_resolved += dc.flows_resolved;
        }
        c
    }

    /// Flow ids currently active.
    pub fn active_flows(&self) -> &[u32] {
        &self.active
    }

    /// Last solved rate of `flow` (0 until first solved).
    pub fn rate_of(&self, flow: u32) -> f64 {
        self.rate.get(flow as usize).copied().unwrap_or(0.0)
    }

    /// Per-link allocated rate at the last solve (global link ids).
    pub fn link_used(&self) -> &[f64] {
        &self.link_used
    }

    /// Per-link active-flow counts (global link ids).
    pub fn link_nflows(&self) -> &[u32] {
        &self.link_nflows
    }

    /// Flows whose rate was (re)assigned by the last solve.
    pub fn changed_flows(&self) -> &[u32] {
        &self.changed
    }

    /// True when a full (cross-component) solve has been requested.
    pub fn needs_full(&self) -> bool {
        self.needs_full
    }

    /// Request that the next solve be a full one.
    pub fn request_full(&mut self) {
        self.needs_full = true;
    }

    fn ensure_flow(&mut self, flow: u32) {
        let want = flow as usize + 1;
        if self.slot_of.len() < want {
            self.slot_of.resize(want, NONE);
            self.rate.resize(want, 0.0);
            self.seg_span.resize(want, (0, 0));
            self.changed_mark.resize(want, 0);
        }
    }

    /// `flow`'s segments as `(domain, local flow id)`.
    fn segs(&self, flow: u32) -> &[(u16, u32)] {
        let (off, len) = self.seg_span[flow as usize];
        &self.seg_arena[off as usize..(off + len) as usize]
    }

    fn mark_dom_dirty(&mut self, d: u16) {
        if !self.dom_dirty[d as usize] {
            self.dom_dirty[d as usize] = true;
            self.dirty_doms.push(d);
        }
    }

    /// A flow entered the active set with the given global-link path.
    /// Splits the path into per-domain segments and registers each.
    pub fn flow_started(&mut self, flow: u32, path: &[u32], weight: f64) {
        self.base.events += 1;
        self.ensure_flow(flow);
        self.touched.clear();
        let mut touched = std::mem::take(&mut self.touched);
        for &gl in path {
            let d = self.part.dom_of_link[gl as usize];
            if self.seg_links[d as usize].is_empty() {
                touched.push(d);
            }
            self.seg_links[d as usize].push(self.part.local_of_link[gl as usize]);
        }
        let off = self.seg_arena.len();
        assert!(
            off + touched.len() <= NONE as usize,
            "segment arena exceeds u32"
        );
        self.seg_span[flow as usize] = (off as u32, touched.len() as u32);
        for &d in &touched {
            let di = d as usize;
            let local = self.next_local[di];
            self.next_local[di] = local + 1;
            let seg = std::mem::take(&mut self.seg_links[di]);
            self.doms[di].flow_started(local, &seg, weight);
            self.seg_links[di] = seg;
            self.seg_links[di].clear();
            self.global_of[di].push(flow);
            debug_assert_eq!(self.global_of[di].len() as u32, local + 1);
            self.seg_arena.push((d, local));
            self.mark_dom_dirty(d);
        }
        self.touched = touched;
        self.slot_of[flow as usize] = self.active.len() as u32;
        self.active.push(flow);
        for &gl in path {
            self.link_nflows[gl as usize] += 1;
        }
    }

    /// A previously-seen flow re-entered the active set on its original
    /// path (every domain solver re-attaches its stored segment).
    pub fn flow_requeued(&mut self, flow: u32) {
        self.base.events += 1;
        let fi = flow as usize;
        debug_assert_eq!(self.slot_of[fi], NONE, "flow already active");
        let (off, len) = self.seg_span[fi];
        for i in off as usize..(off + len) as usize {
            let (d, lf) = self.seg_arena[i];
            self.doms[d as usize].flow_requeued(lf);
            self.mark_dom_dirty(d);
            for j in 0..self.doms[d as usize].path_of(lf).len() {
                let ll = self.doms[d as usize].path_of(lf)[j];
                let gl = self.part.links_of_dom[d as usize][ll as usize];
                self.link_nflows[gl as usize] += 1;
            }
        }
        self.slot_of[fi] = self.active.len() as u32;
        self.active.push(flow);
    }

    /// A flow left the active set (completed or aborted).
    pub fn flow_removed(&mut self, flow: u32) {
        self.base.events += 1;
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
        let (off, len) = self.seg_span[fi];
        for i in off as usize..(off + len) as usize {
            let (d, lf) = self.seg_arena[i];
            self.doms[d as usize].flow_removed(lf);
            self.mark_dom_dirty(d);
            for j in 0..self.doms[d as usize].path_of(lf).len() {
                let ll = self.doms[d as usize].path_of(lf)[j];
                let gl = self.part.links_of_dom[d as usize][ll as usize] as usize;
                self.link_nflows[gl] -= 1;
                // Keep the aggregate roughly consistent until the next
                // solve re-derives it, like the global solver does.
                self.link_used[gl] = (self.link_used[gl] - old_rate).max(0.0);
            }
        }
        self.rate[fi] = 0.0;
    }

    /// A global link's capacity changed; its domain's component must be
    /// re-solved.
    pub fn capacity_changed(&mut self, link: u32) {
        let d = self.part.dom_of_link[link as usize];
        self.doms[d as usize].capacity_changed(self.part.local_of_link[link as usize]);
        self.mark_dom_dirty(d);
    }

    fn uf_find(&mut self, d: u16) -> u16 {
        let mut root = d;
        while self.uf_parent[root as usize] != root {
            root = self.uf_parent[root as usize];
        }
        let mut cur = d;
        while self.uf_parent[cur as usize] != root {
            let next = self.uf_parent[cur as usize];
            self.uf_parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn uf_union(&mut self, a: u16, b: u16) {
        let (ra, rb) = (self.uf_find(a), self.uf_find(b));
        // Lower domain index wins the root, so group ids are canonical.
        if ra < rb {
            self.uf_parent[rb as usize] = ra;
        } else if rb < ra {
            self.uf_parent[ra as usize] = rb;
        }
    }

    fn involve(&mut self, d: u16) {
        if !self.involved_mark[d as usize] {
            self.involved_mark[d as usize] = true;
            self.involved.push(d);
            self.uf_parent[d as usize] = d;
            let dom = &mut self.doms[d as usize];
            dom.comp_begin();
            dom.comp_seed_dirty();
            dom.clear_dirty();
        }
    }

    /// Component-local solve across domains. Gathers each dirty domain's
    /// component, chases cross-pod flows into sibling domains to a
    /// fixpoint, then fills: domain groups not chained by any cross-pod
    /// flow water-fill independently (in parallel on the pool); chained
    /// groups run the level-synchronous coupled fill.
    pub fn solve_dirty(&mut self, cap: &[f64]) {
        debug_assert_eq!(cap.len(), self.part.nl);
        debug_assert!(!self.needs_full, "full solve pending");
        if self.dirty_doms.is_empty() {
            self.changed.clear();
            return;
        }
        self.base.incremental_solves += 1;
        self.changed_epoch += 1;
        self.changed.clear();

        // Seed every dirty domain's component (ascending for canonical
        // group ordering).
        self.dirty_doms.sort_unstable();
        self.involved.clear();
        let dirty = std::mem::take(&mut self.dirty_doms);
        for &d in &dirty {
            self.dom_dirty[d as usize] = false;
            self.involve(d);
        }
        self.dirty_doms = dirty;
        self.dirty_doms.clear();

        // Cross-domain closure: expand every involved domain's BFS; any
        // newly swept cross-pod flow is seeded into (and unions) all its
        // sibling domains. Repeat until a full pass sweeps nothing new.
        loop {
            let mut work = false;
            let mut idx = 0;
            while idx < self.involved.len() {
                let d = self.involved[idx];
                idx += 1;
                let mut newly = std::mem::take(&mut self.newly);
                newly.clear();
                self.doms[d as usize].comp_expand(Some(&mut newly));
                for &lf in &newly {
                    let gf = self.global_of[d as usize][lf as usize] as usize;
                    let (off, len) = self.seg_span[gf];
                    if len > 1 {
                        for i in off as usize..(off + len) as usize {
                            let (d2, lf2) = self.seg_arena[i];
                            if d2 == d {
                                continue;
                            }
                            self.involve(d2);
                            self.doms[d2 as usize].comp_seed_flow(lf2);
                            self.uf_union(d, d2);
                        }
                    }
                }
                if !newly.is_empty() {
                    work = true;
                }
                self.newly = newly;
            }
            if !work {
                break;
            }
        }

        self.involved.sort_unstable();
        for i in 0..self.involved.len() {
            let d = self.involved[i] as usize;
            self.base.component_links += self.doms[d].comp_links().len() as u64;
            self.base.component_flows += self.doms[d].comp_flows().len() as u64;
        }

        // Partition involved domains into groups by union-find root, in
        // ascending (root, domain) order: singleton groups fill
        // independently, larger ones run the coupled fill.
        let involved = std::mem::take(&mut self.involved);
        let mut grouped = std::mem::take(&mut self.grouped);
        grouped.clear();
        for &d in &involved {
            grouped.push((self.uf_find(d), d));
        }
        grouped.sort_unstable();

        // Independent components: one fill per domain, fanned out on the
        // pool. Domains are temporarily moved out so `map_mut` gets a
        // contiguous mutable slice; results are deterministic because each
        // fill touches only its own domain.
        let mut singles = std::mem::take(&mut self.singles);
        for group in grouped.chunk_by(|a, b| a.0 == b.0) {
            if let [(_, d)] = *group {
                let dom = std::mem::replace(&mut self.doms[d as usize], FairShareSolver::new(0));
                singles.push((d, dom));
            }
        }
        if !singles.is_empty() {
            let part = &self.part;
            self.pool.map_mut(&mut singles, |(d, dom)| {
                let links = &part.links_of_dom[*d as usize];
                dom.fill_run(|ll| cap[links[ll as usize] as usize]);
                dom.fill_finish();
            });
            for (d, dom) in singles.drain(..) {
                self.doms[d as usize] = dom;
            }
        }
        self.singles = singles;

        // Coupled groups: level-synchronous fill, ascending root order.
        let mut members = std::mem::take(&mut self.members);
        for group in grouped.chunk_by(|a, b| a.0 == b.0) {
            if group.len() > 1 {
                members.clear();
                members.extend(group.iter().map(|&(_, d)| d));
                self.fill_group(&members, cap);
                for &d in &members {
                    self.doms[d as usize].fill_finish();
                }
            }
        }
        self.members = members;
        self.grouped = grouped;

        self.merge_component_results(&involved);
        for &d in &involved {
            self.involved_mark[d as usize] = false;
        }
        self.involved = involved;
    }

    /// Full solve: every domain's active set joins one coupled fill — the
    /// exact freeze sequence of the global `solve_full`, so the PFC
    /// fixpoint iterates identically in both modes.
    pub fn solve_full(&mut self, cap: &[f64]) {
        debug_assert_eq!(cap.len(), self.part.nl);
        self.base.full_solves += 1;
        self.needs_full = false;
        let mut dirty = std::mem::take(&mut self.dirty_doms);
        for &d in &dirty {
            self.dom_dirty[d as usize] = false;
        }
        dirty.clear();
        self.dirty_doms = dirty;
        self.changed_epoch += 1;

        let mut members = std::mem::take(&mut self.members);
        members.clear();
        for d in 0..self.doms.len() {
            self.doms[d].clear_dirty();
            if !self.doms[d].active_flows().is_empty() {
                members.push(d as u16);
            }
        }
        for &d in &members {
            let dom = &mut self.doms[d as usize];
            dom.comp_begin();
            dom.comp_seed_all();
        }
        self.fill_group(&members, cap);
        self.members = members;

        // Mirror the global solver's full-solve epilogue: all active flows
        // changed (in active order), link_used rebuilt from scratch.
        self.changed.clear();
        let active = std::mem::take(&mut self.active);
        for &f in &active {
            self.changed.push(f);
            self.changed_mark[f as usize] = self.changed_epoch;
            if let Some(&(d, lf)) = self.segs(f).first() {
                self.rate[f as usize] = self.doms[d as usize].rate_of(lf);
            }
        }
        debug_assert!(
            self.link_used
                .iter()
                .enumerate()
                .all(|(l, u)| u.to_bits() == 0 || self.used_links.contains(l as u32)),
            "nonzero link_used on an untracked link"
        );
        for &gl in self.used_links.as_slice() {
            self.link_used[gl as usize] = 0.0;
        }
        self.used_links.clear();
        for &f in &active {
            let r = self.rate[f as usize];
            if !r.is_finite() {
                continue;
            }
            let (off, len) = self.seg_span[f as usize];
            for &(d, lf) in &self.seg_arena[off as usize..(off + len) as usize] {
                for j in 0..self.doms[d as usize].path_of(lf).len() {
                    let ll = self.doms[d as usize].path_of(lf)[j];
                    let gl = self.part.links_of_dom[d as usize][ll as usize];
                    self.used_links.insert(gl);
                    self.link_used[gl as usize] += r;
                }
            }
        }
        self.active = active;
    }

    /// Level-synchronous coupled water-fill over `members` (components
    /// already gathered): each round advances every member by the global
    /// minimum fill delta, with the owning member freezing the bottleneck
    /// link's flows and cross-pod freezes forced into sibling domains.
    fn fill_group(&mut self, members: &[u16], cap: &[f64]) {
        for &d in members {
            let links = &self.part.links_of_dom[d as usize];
            self.doms[d as usize].fill_begin(|ll| cap[links[ll as usize] as usize]);
        }
        loop {
            let mut best: Option<(u16, u32, f64)> = None;
            for &d in members {
                if let Some((l, fill)) = self.doms[d as usize].fill_min() {
                    if best.is_none_or(|(_, _, b)| fill < b) {
                        best = Some((d, l, fill));
                    }
                }
            }
            let Some((bot_dom, bot_link, fill)) = best else {
                break;
            };
            let delta = fill.max(0.0);
            let mut frozen_all = std::mem::take(&mut self.frozen_all);
            frozen_all.clear();
            for &d in members {
                let mut frozen = std::mem::take(&mut self.frozen_dom);
                frozen.clear();
                let bottleneck = (d == bot_dom).then_some(bot_link);
                self.doms[d as usize].fill_drain(delta, bottleneck, Some(&mut frozen));
                for &lf in &frozen {
                    frozen_all.push((d, lf));
                }
                self.frozen_dom = frozen;
            }
            // Propagate cross-pod freezes within the round (saturation this
            // round depends only on `remaining`, so propagation order
            // cannot change the round's freeze set — exactly as in the
            // global fill).
            for &(d, lf) in &frozen_all {
                let gf = self.global_of[d as usize][lf as usize] as usize;
                let (off, len) = self.seg_span[gf];
                if len > 1 {
                    for j in off as usize..(off + len) as usize {
                        let (d2, lf2) = self.seg_arena[j];
                        if d2 != d {
                            self.doms[d2 as usize].fill_force(lf2);
                        }
                    }
                }
            }
            self.frozen_all = frozen_all;
        }
    }

    /// Fold per-domain component results into the global mirrors: changed
    /// flows (deduped across domains, ascending domain order), their
    /// rates, and `link_used` for component links.
    fn merge_component_results(&mut self, involved: &[u16]) {
        for &d in involved {
            let di = d as usize;
            for i in 0..self.doms[di].comp_flows().len() {
                let lf = self.doms[di].comp_flows()[i];
                let gf = self.global_of[di][lf as usize];
                if self.changed_mark[gf as usize] != self.changed_epoch {
                    self.changed_mark[gf as usize] = self.changed_epoch;
                    self.changed.push(gf);
                    self.rate[gf as usize] = self.doms[di].rate_of(lf);
                }
            }
            for i in 0..self.doms[di].comp_links().len() {
                let ll = self.doms[di].comp_links()[i];
                let gl = self.part.links_of_dom[di][ll as usize];
                self.used_links.insert(gl);
                self.link_used[gl as usize] = self.doms[di].link_used()[ll as usize];
            }
        }
    }

    /// Test hook: every domain's hop back-pointers hold, every active
    /// flow's segments are active in their domains and map back to it, and
    /// the global per-link flow counts equal the domains' counts.
    #[cfg(test)]
    pub(crate) fn check_incidence(&self) {
        for d in &self.doms {
            d.check_incidence();
        }
        for &f in &self.active {
            for &(d, lf) in self.segs(f) {
                let dom = &self.doms[d as usize];
                assert!(dom.is_active(lf), "flow {f}: segment {lf} inactive");
                assert_eq!(self.global_of[d as usize][lf as usize], f);
            }
        }
        for (gl, &n) in self.link_nflows.iter().enumerate() {
            let d = self.part.dom_of_link[gl] as usize;
            let ll = self.part.local_of_link[gl] as usize;
            assert_eq!(n, self.doms[d].link_nflows()[ll], "link {gl}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::max_min_rates;

    #[test]
    fn try_new_rejects_invalid_partitions() {
        assert_eq!(
            DomainPartition::try_new(4, vec![]).unwrap_err(),
            ShardError::NoPodDomains
        );
        assert_eq!(
            DomainPartition::try_new(4, vec![vec![0], vec![]]).unwrap_err(),
            ShardError::EmptyDomain { domain: 1 }
        );
        assert_eq!(
            DomainPartition::try_new(4, vec![vec![0, 1], vec![1]]).unwrap_err(),
            ShardError::LinkClaimedTwice {
                link: 1,
                first: 0,
                second: 1
            }
        );
        assert_eq!(
            DomainPartition::try_new(4, vec![vec![0, 9]]).unwrap_err(),
            ShardError::UnknownLink { link: 9, nl: 4 }
        );
    }

    #[test]
    fn try_new_assigns_unclaimed_links_to_boundary() {
        let p = DomainPartition::try_new(5, vec![vec![0, 1], vec![3]]).unwrap();
        assert_eq!(p.ndomains(), 2);
        assert_eq!(p.boundary(), 2);
        assert_eq!(p.domain_of_link(0), 0);
        assert_eq!(p.domain_of_link(3), 1);
        assert_eq!(p.domain_of_link(2), 2);
        assert_eq!(p.domain_of_link(4), 2);
        assert_eq!(p.links_of_domain(2), &[2, 4]);
    }

    /// Two pod domains bridged by a boundary link; pod-local and cross-pod
    /// flows churned through both the sharded and the global solver must
    /// produce the same rates (and match the oracle).
    #[test]
    fn sharded_matches_global_and_oracle_with_cross_pod_flows() {
        // links: 0,1 = pod A; 2 = boundary; 3,4 = pod B
        let cap = vec![10.0, 4.0, 6.0, 8.0, 3.0];
        let part = DomainPartition::try_new(5, vec![vec![0, 1], vec![3, 4]]).unwrap();
        let paths: Vec<Vec<u32>> = vec![
            vec![0, 1],    // pod-local A
            vec![3],       // pod-local B
            vec![0, 2, 3], // cross-pod A→B over the boundary
            vec![1, 2, 4], // another cross-pod
            vec![4],       // pod-local B
        ];
        let weights = [1.0, 1.0, 1.0, 2.0, 1.0];

        let mut sharded = ShardedSolver::new(part, Pool::with_threads(2));
        let mut global = FairShareSolver::new(cap.len());
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
        for &(add, f) in script {
            if add {
                if live.contains(&f) {
                    continue;
                }
                if sharded.rate_of(f as u32) == 0.0
                    && sharded.seg_span.get(f).is_none_or(|s| s.1 == 0)
                {
                    sharded.flow_started(f as u32, &paths[f], weights[f]);
                    global.flow_started(f as u32, &paths[f], weights[f]);
                } else {
                    sharded.flow_requeued(f as u32);
                    global.flow_requeued(f as u32);
                }
                live.push(f);
            } else {
                sharded.flow_removed(f as u32);
                global.flow_removed(f as u32);
                live.retain(|&x| x != f);
            }
            sharded.solve_dirty(&cap);
            global.solve_dirty(&cap);

            let opaths: Vec<Vec<u32>> = live.iter().map(|&f| paths[f].clone()).collect();
            let ow: Vec<f64> = live.iter().map(|&f| weights[f]).collect();
            let want = max_min_rates(&cap, &opaths, Some(&ow));
            for (i, &f) in live.iter().enumerate() {
                let s = sharded.rate_of(f as u32);
                let g = global.rate_of(f as u32);
                assert!(
                    (s - want[i]).abs() <= 1e-9 * want[i].abs().max(1.0),
                    "flow {f}: sharded {s}, oracle {want:?}"
                );
                assert!(
                    (s - g).abs() <= 1e-12 * g.abs().max(1.0),
                    "flow {f}: sharded {s} vs global {g}"
                );
            }
            // Mirrors agree with the global solver's aggregates.
            for l in 0..cap.len() {
                assert_eq!(
                    sharded.link_nflows()[l],
                    global.link_nflows()[l],
                    "nflows mismatch on link {l}"
                );
                assert!(
                    (sharded.link_used()[l] - global.link_used()[l]).abs() <= 1e-9,
                    "link_used mismatch on link {l}"
                );
            }
        }
    }

    /// A full solve through the sharded coupled fill must match the global
    /// full solve exactly (same freeze sequence, weight-1 flows → bitwise).
    #[test]
    fn sharded_full_solve_matches_global_bitwise_at_weight_one() {
        let cap = vec![10.0, 4.0, 6.0, 8.0, 3.0];
        let part = DomainPartition::try_new(5, vec![vec![0, 1], vec![3, 4]]).unwrap();
        let paths: Vec<Vec<u32>> = vec![
            vec![0, 1],
            vec![3],
            vec![0, 2, 3],
            vec![1, 2, 4],
            vec![4],
            vec![2],
        ];
        let mut sharded = ShardedSolver::new(part, Pool::with_threads(1));
        let mut global = FairShareSolver::new(cap.len());
        for (f, p) in paths.iter().enumerate() {
            sharded.flow_started(f as u32, p, 1.0);
            global.flow_started(f as u32, p, 1.0);
        }
        sharded.request_full();
        global.request_full();
        sharded.solve_full(&cap);
        global.solve_full(&cap);
        for f in 0..paths.len() as u32 {
            assert_eq!(
                sharded.rate_of(f).to_bits(),
                global.rate_of(f).to_bits(),
                "flow {f} rate diverged bitwise"
            );
        }
        for l in 0..cap.len() {
            assert_eq!(
                sharded.link_used()[l].to_bits(),
                global.link_used()[l].to_bits(),
                "link {l} used diverged bitwise"
            );
        }
        assert_eq!(sharded.changed_flows(), global.changed_flows());
    }

    /// Path of churn flow `f`: pod-local in A (links 0, 1) or B (3, 4),
    /// or cross-pod over boundary links 2, 5 and 6, of lengths 1–4.
    fn churn_path(f: u32) -> Vec<u32> {
        match f % 6 {
            0 => vec![0],
            1 => vec![1, 0],
            2 => vec![0, 2, 3],
            3 => vec![4, 3],
            4 => vec![1, 5, 6, 4],
            _ => vec![3, 6, 0],
        }
    }

    /// Requeue flows whose segment spans sit at the front of both arenas
    /// after thousands of later starts and removes, in lockstep with the
    /// global solver.
    #[test]
    fn arena_bookkeeping_survives_requeue_after_heavy_churn() {
        let cap = vec![10.0, 4.0, 6.0, 8.0, 3.0, 5.0, 7.0];
        let part = DomainPartition::try_new(7, vec![vec![0, 1], vec![3, 4]]).unwrap();
        let mut sharded = ShardedSolver::new(part, Pool::with_threads(1));
        let mut global = FairShareSolver::new(cap.len());
        let check = |sharded: &ShardedSolver, global: &FairShareSolver| {
            sharded.check_incidence();
            global.check_incidence();
            let live = sharded.active_flows().to_vec();
            assert_eq!(live, global.active_flows());
            let paths: Vec<Vec<u32>> = live.iter().map(|&f| churn_path(f)).collect();
            let want = max_min_rates(&cap, &paths, None);
            for (i, &f) in live.iter().enumerate() {
                let (s, g) = (sharded.rate_of(f), global.rate_of(f));
                assert!(
                    (s - want[i]).abs() <= 1e-9 * want[i].max(1.0),
                    "flow {f}: sharded {s}, oracle {}",
                    want[i]
                );
                assert!((s - g).abs() <= 1e-12 * g.max(1.0), "flow {f}: {s} vs {g}");
            }
        };

        for f in 0..12u32 {
            sharded.flow_started(f, &churn_path(f), 1.0);
            global.flow_started(f, &churn_path(f), 1.0);
        }
        let early = [2u32, 4, 0, 11, 5];
        for f in early {
            sharded.flow_removed(f);
            global.flow_removed(f);
        }
        sharded.solve_dirty(&cap);
        global.solve_dirty(&cap);
        check(&sharded, &global);

        for f in 12..3012u32 {
            sharded.flow_started(f, &churn_path(f), 1.0);
            global.flow_started(f, &churn_path(f), 1.0);
            if f >= 30 {
                let victim = f - 18 + (f * 5) % 4;
                if global.is_active(victim) {
                    sharded.flow_removed(victim);
                    global.flow_removed(victim);
                }
            }
            if f % 5 == 0 {
                sharded.solve_dirty(&cap);
                global.solve_dirty(&cap);
            }
            if f % 500 == 0 {
                check(&sharded, &global);
            }
        }
        for f in early {
            sharded.flow_requeued(f);
            global.flow_requeued(f);
            sharded.check_incidence();
        }
        sharded.solve_dirty(&cap);
        global.solve_dirty(&cap);
        check(&sharded, &global);
    }
}

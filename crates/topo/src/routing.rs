//! Valley-free ECMP routing over a fabric.
//!
//! Datacenter Clos fabrics route *up–down*: a packet climbs from its source
//! NIC toward the spine only as far as necessary, then descends to the
//! destination, never climbing again after its first downhill hop. The
//! [`Router`] computes, per destination NIC, the distance fields that make
//! hop-by-hop ECMP next-hop selection O(degree):
//!
//! * `dist_down(x)` — shortest *strictly downhill* distance from `x` to the
//!   destination (∞ if the destination is not below `x`).
//! * `dist_up(x)` — shortest valley-free distance from `x` (still free to
//!   climb) to the destination.
//!
//! Next-hop candidates at every switch are *all* links consistent with the
//! shortest valley-free distance — exactly the equal-cost set a production
//! switch hashes over. Path *selection* among candidates is the caller's
//! (the `astral-net` flow simulator applies the five-tuple hash there, which
//! is where hash polarization emerges).
//!
//! Cross-datacenter gateway peering links (tier 4 ↔ tier 4) are treated as
//! "up" moves so a path may traverse the long-haul segment while still in
//! its climbing phase, then descend inside the remote DC.
//!
//! A hop's candidates are derived on the fly from the destination's two
//! distance arrays and one adjacency shared by every destination, so a
//! destination costs O(nodes) of memory and a walk touches a few cache
//! lines per hop.

use crate::graph::Topology;
use crate::ids::{LinkId, NodeId, NodeKind};
use astral_sim::MulHashMap;
use std::cell::Cell;
use std::sync::OnceLock;

const INF: u16 = u16::MAX;
/// Hard bound on path length; anything longer indicates a routing bug.
const MAX_HOPS: usize = 64;

/// Routing failures on user-supplied topologies. Well-formed Clos fabrics
/// never produce these; hand-built [`Topology`] graphs with inconsistent
/// tiers or adjacency can, and so can a [`Router`] handed a topology other
/// than the one it was first used with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingError {
    /// A walk exceeded the hop bound — the link structure cycles, so
    /// valley-free forwarding cannot terminate.
    HopLimitExceeded {
        /// The hop bound that was exceeded.
        limit: usize,
    },
    /// The router is bound to another topology: the one it was first used
    /// with had a different node count, or an earlier structural epoch
    /// (see [`Topology::epoch`]). Its distance fields would be stale.
    TopologyMismatch {
        /// Node count of the topology the router is bound to.
        bound_nodes: usize,
        /// Epoch of the topology the router is bound to.
        bound_epoch: u64,
        /// Node count of the topology passed in.
        nodes: usize,
        /// Epoch of the topology passed in.
        epoch: u64,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::HopLimitExceeded { limit } => {
                write!(f, "routing loop: path exceeded {limit} hops")
            }
            RoutingError::TopologyMismatch {
                bound_nodes,
                bound_epoch,
                nodes,
                epoch,
            } => write!(
                f,
                "router bound to a topology of {bound_nodes} nodes at epoch \
                 {bound_epoch}, used with one of {nodes} nodes at epoch {epoch}"
            ),
        }
    }
}

impl std::error::Error for RoutingError {}

/// Which phase of a valley-free walk we are in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Still allowed to climb (or move laterally across DC gateways).
    Up,
    /// Committed to descending.
    Down,
}

/// Distance fields toward one destination NIC.
#[derive(Debug)]
pub struct DistField {
    /// The destination the fields point at.
    dst: NodeId,
    /// `dist_down[node]`: downhill-only distance to the destination.
    down: Vec<u16>,
    /// `dist_up[node]`: valley-free distance to the destination.
    up: Vec<u16>,
}

impl DistField {
    /// Downhill-only distance from `node` to the destination.
    pub fn down(&self, node: NodeId) -> Option<u16> {
        let d = self.down[node.index()];
        (d != INF).then_some(d)
    }

    /// Valley-free distance from `node` to the destination.
    pub fn up(&self, node: NodeId) -> Option<u16> {
        let d = self.up[node.index()];
        (d != INF).then_some(d)
    }
}

/// A next-hop candidate: the link to take and the phase after taking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Link to traverse.
    pub link: LinkId,
    /// Phase after the hop.
    pub phase: Phase,
}

/// One out-link in the shared adjacency, with its far end inline.
#[derive(Debug, Clone, Copy)]
struct Edge {
    link: LinkId,
    next: NodeId,
}

/// Every node's out-links split by move class, each class in ascending
/// link order: the topology half of candidate derivation, shared by all
/// destinations. Links that are neither up nor down moves (same-tier
/// links other than gateway peering) can never be candidates and are left
/// out.
#[derive(Debug)]
struct Adjacency {
    /// Node `i`'s down moves are `edges[off[2i]..off[2i + 1]]` and its up
    /// moves (gateway peering included) `edges[off[2i + 1]..off[2i + 2]]`.
    off: Vec<u32>,
    edges: Vec<Edge>,
}

impl Adjacency {
    fn new(topo: &Topology) -> Self {
        let n = topo.nodes().len();
        let mut off = Vec::with_capacity(2 * n + 1);
        let mut edges = Vec::with_capacity(topo.links().len());
        off.push(0);
        for i in 0..n {
            let cur = NodeId(i as u32);
            for down in [true, false] {
                for &l in topo.out_links(cur) {
                    let next = topo.link(l).dst;
                    let class_down = is_down_move(topo, cur, next);
                    if class_down == down && (class_down || is_up_move(topo, cur, next)) {
                        edges.push(Edge { link: l, next });
                    }
                }
                off.push(edges.len() as u32);
            }
        }
        Adjacency { off, edges }
    }

    fn down_moves(&self, node: NodeId) -> &[Edge] {
        let i = 2 * node.index();
        &self.edges[self.off[i] as usize..self.off[i + 1] as usize]
    }

    fn up_moves(&self, node: NodeId) -> &[Edge] {
        let i = 2 * node.index();
        &self.edges[self.off[i + 1] as usize..self.off[i + 2] as usize]
    }

    /// Writes the equal-cost next hops from `cur` in `phase` into `out`,
    /// in ascending link order: the links whose far end is exactly one hop
    /// closer to the destination by the distance the phase allows. This is
    /// the single candidate rule behind walks, [`Router::next_hops`] and
    /// [`Router::path_count`].
    fn candidates(&self, field: &DistField, cur: NodeId, phase: Phase, out: &mut Vec<Hop>) {
        out.clear();
        if cur == field.dst {
            return;
        }
        let (down, up) = (field.down[cur.index()], field.up[cur.index()]);
        let target = match phase {
            Phase::Up => up,
            Phase::Down => down,
        };
        if target == INF {
            return;
        }
        // A finite distance other than the destination's own is at least
        // 1, so `target - 1` is the far end's required distance. When
        // `down(cur)` is ∞ no downhill neighbour reaches the destination
        // either: duplex wiring would have given `cur` a downhill distance
        // through it (the invariant `compute_field` relies on), so the
        // down-move scan is skipped.
        if down != INF {
            for e in self.down_moves(cur) {
                if field.down[e.next.index()] == target - 1 {
                    out.push(Hop {
                        link: e.link,
                        phase: Phase::Down,
                    });
                }
            }
        }
        if phase == Phase::Up {
            let downs = out.len();
            for e in self.up_moves(cur) {
                if field.up[e.next.index()] == target - 1 {
                    out.push(Hop {
                        link: e.link,
                        phase: Phase::Up,
                    });
                }
            }
            // Each class is ascending; interleave them only when both
            // contributed.
            if downs > 0 && downs < out.len() {
                out.sort_unstable_by_key(|h| h.link);
            }
        }
    }
}

/// What a router keeps for the one topology it is bound to.
#[derive(Debug)]
struct Bound {
    nodes: usize,
    epoch: u64,
    adj: Adjacency,
    /// Distance fields indexed by destination node, each computed on its
    /// first use.
    fields: Vec<OnceLock<DistField>>,
}

impl Bound {
    fn field(&self, topo: &Topology, dst: NodeId) -> &DistField {
        self.fields[dst.index()].get_or_init(|| compute_field(topo, dst))
    }
}

thread_local! {
    /// Candidate buffer reused by every walk on this thread.
    static HOPS: Cell<Vec<Hop>> = const { Cell::new(Vec::new()) };
}

/// ECMP router with a per-destination distance-field table.
///
/// A router binds to the topology it is first used with: its adjacency
/// and field table are sized from that topology, and a later call with a
/// topology of another node count or a later [`Topology::epoch`] fails
/// with [`RoutingError::TopologyMismatch`] (the infallible methods panic
/// with the same message). Lookups are lock-free, so one router can serve
/// many simulations on many threads.
#[derive(Debug, Default)]
pub struct Router {
    bound: OnceLock<Bound>,
}

/// True if traversing `src → dst` counts as an "up" move.
fn is_up_move(topo: &Topology, src: NodeId, dst: NodeId) -> bool {
    let (ts, td) = (topo.node(src).kind.tier(), topo.node(dst).kind.tier());
    td > ts
        || (matches!(topo.node(src).kind, NodeKind::DcGate { .. })
            && matches!(topo.node(dst).kind, NodeKind::DcGate { .. }))
}

/// True if traversing `src → dst` counts as a "down" move.
fn is_down_move(topo: &Topology, src: NodeId, dst: NodeId) -> bool {
    topo.node(dst).kind.tier() < topo.node(src).kind.tier()
}

impl Router {
    /// A router bound to no topology yet.
    pub fn new() -> Self {
        Router::default()
    }

    /// Drop the binding and every distance field, so the router can serve
    /// a mutated or different topology.
    pub fn clear(&mut self) {
        self.bound = OnceLock::new();
    }

    /// The binding for `topo`, made on first use.
    fn bind(&self, topo: &Topology) -> Result<&Bound, RoutingError> {
        let b = self.bound.get_or_init(|| {
            let nodes = topo.nodes().len();
            Bound {
                nodes,
                epoch: topo.epoch(),
                adj: Adjacency::new(topo),
                fields: (0..nodes).map(|_| OnceLock::new()).collect(),
            }
        });
        let (nodes, epoch) = (topo.nodes().len(), topo.epoch());
        if nodes != b.nodes || epoch > b.epoch {
            return Err(RoutingError::TopologyMismatch {
                bound_nodes: b.nodes,
                bound_epoch: b.epoch,
                nodes,
                epoch,
            });
        }
        Ok(b)
    }

    /// [`Router::bind`], panicking on a mismatch.
    fn bound(&self, topo: &Topology) -> &Bound {
        self.bind(topo).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Distance fields toward `dst` (computed on first use, then kept).
    pub fn dist_field(&self, topo: &Topology, dst: NodeId) -> &DistField {
        self.bound(topo).field(topo, dst)
    }

    /// Equal-cost next hops from `cur` (in `phase`) toward `dst`, in
    /// deterministic (link-id) order. Empty when `cur == dst` or no route
    /// exists.
    pub fn next_hops(&self, topo: &Topology, cur: NodeId, phase: Phase, dst: NodeId) -> Vec<Hop> {
        let b = self.bound(topo);
        let mut hops = Vec::new();
        b.adj.candidates(b.field(topo, dst), cur, phase, &mut hops);
        hops
    }

    /// Walk a complete path from `src_nic` to `dst_nic`, using `choose` to
    /// pick among equal-cost candidates at each hop. `choose` receives the
    /// node we are at and the candidate hops (sorted by link id) and returns
    /// an index into them.
    ///
    /// Returns `None` when no valley-free route exists (e.g. cross-rail in a
    /// rail-only fabric).
    pub fn path_with<F>(
        &self,
        topo: &Topology,
        src_nic: NodeId,
        dst_nic: NodeId,
        choose: F,
    ) -> Option<Vec<LinkId>>
    where
        F: FnMut(NodeId, &[Hop]) -> usize,
    {
        self.try_path_with(topo, src_nic, dst_nic, choose)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Router::path_with`] for hand-built topologies:
    /// a cyclic link structure yields [`RoutingError::HopLimitExceeded`]
    /// and a topology other than the bound one
    /// [`RoutingError::TopologyMismatch`], instead of panicking.
    pub fn try_path_with<F>(
        &self,
        topo: &Topology,
        src_nic: NodeId,
        dst_nic: NodeId,
        choose: F,
    ) -> Result<Option<Vec<LinkId>>, RoutingError>
    where
        F: FnMut(NodeId, &[Hop]) -> usize,
    {
        let mut path = Vec::new();
        Ok(self
            .try_path_with_into(topo, src_nic, dst_nic, choose, &mut path)?
            .then_some(path))
    }

    /// Allocation-free variant of [`Router::try_path_with`]: the walk is
    /// written into `out` (cleared first), so hot callers can reuse one
    /// scratch buffer across flows. Returns `Ok(true)` when a route exists
    /// (`out` holds it — empty for `src_nic == dst_nic`), `Ok(false)` when
    /// the fabric offers none.
    pub fn try_path_with_into<F>(
        &self,
        topo: &Topology,
        src_nic: NodeId,
        dst_nic: NodeId,
        mut choose: F,
        out: &mut Vec<LinkId>,
    ) -> Result<bool, RoutingError>
    where
        F: FnMut(NodeId, &[Hop]) -> usize,
    {
        out.clear();
        let b = self.bind(topo)?;
        if src_nic == dst_nic {
            return Ok(true);
        }
        let field = b.field(topo, dst_nic);
        let mut hops = HOPS.take();
        let mut cur = src_nic;
        let mut phase = Phase::Up;
        let walked = loop {
            if cur == dst_nic {
                break Ok(true);
            }
            b.adj.candidates(field, cur, phase, &mut hops);
            debug_assert!(
                hops.iter()
                    .copied()
                    .eq(next_hops_in(topo, field, cur, phase)),
                "derived candidates at {cur:?} ({phase:?}) toward {dst_nic:?} differ from the adjacency scan"
            );
            if hops.is_empty() {
                out.clear();
                break Ok(false);
            }
            let idx = choose(cur, &hops);
            debug_assert!(idx < hops.len(), "chooser returned out-of-range index");
            let hop = hops[idx.min(hops.len() - 1)];
            out.push(hop.link);
            cur = topo.link(hop.link).dst;
            phase = hop.phase;
            if out.len() > MAX_HOPS {
                out.clear();
                break Err(RoutingError::HopLimitExceeded { limit: MAX_HOPS });
            }
        };
        HOPS.set(hops);
        walked
    }

    /// Shortest valley-free hop count from `src_nic` to `dst_nic`.
    pub fn distance(&self, topo: &Topology, src_nic: NodeId, dst_nic: NodeId) -> Option<u16> {
        let b = self.bound(topo);
        if src_nic == dst_nic {
            return Some(0);
        }
        b.field(topo, dst_nic).up(src_nic)
    }

    /// Number of distinct equal-cost shortest valley-free paths.
    pub fn path_count(&self, topo: &Topology, src_nic: NodeId, dst_nic: NodeId) -> u64 {
        let b = self.bound(topo);
        if src_nic == dst_nic {
            return 1;
        }
        let field = b.field(topo, dst_nic);
        let mut memo = MulHashMap::default();
        count_paths(topo, &b.adj, field, src_nic, Phase::Up, &mut memo)
    }
}

fn count_paths(
    topo: &Topology,
    adj: &Adjacency,
    field: &DistField,
    cur: NodeId,
    phase: Phase,
    memo: &mut MulHashMap<(NodeId, Phase), u64>,
) -> u64 {
    if cur == field.dst {
        return 1;
    }
    if let Some(&c) = memo.get(&(cur, phase)) {
        return c;
    }
    let mut hops = Vec::new();
    adj.candidates(field, cur, phase, &mut hops);
    let total = hops
        .into_iter()
        .map(|hop| count_paths(topo, adj, field, topo.link(hop.link).dst, hop.phase, memo))
        .sum();
    memo.insert((cur, phase), total);
    total
}

/// The reference candidate rule: a scan of every out-link of `cur`, in
/// ascending link order (the order [`Topology::add_link`] appends them),
/// keeping the links that move one hop closer to the destination. Debug
/// builds check every hop of every walk against it.
fn next_hops_in<'a>(
    topo: &'a Topology,
    field: &'a DistField,
    cur: NodeId,
    phase: Phase,
) -> impl Iterator<Item = Hop> + 'a {
    let target = match phase {
        Phase::Up => field.up(cur),
        Phase::Down => field.down(cur),
    }
    .filter(|_| cur != field.dst);
    topo.out_links(cur).iter().filter_map(move |&l| {
        let cur_d = target?;
        let next = topo.link(l).dst;
        let phase = if is_down_move(topo, cur, next) {
            field
                .down(next)
                .is_some_and(|d| d + 1 == cur_d)
                .then_some(Phase::Down)
        } else if phase == Phase::Up && is_up_move(topo, cur, next) {
            field
                .up(next)
                .is_some_and(|d| d + 1 == cur_d)
                .then_some(Phase::Up)
        } else {
            None
        }?;
        Some(Hop { link: l, phase })
    })
}

/// Compute distance fields toward `dst` with two passes:
/// a downhill BFS, then a Dijkstra over "up" moves seeded with the downhill
/// distances.
fn compute_field(topo: &Topology, dst: NodeId) -> DistField {
    let n = topo.nodes().len();
    let mut down = vec![INF; n];
    let mut up = vec![INF; n];
    down[dst.index()] = 0;

    // Downhill distances: BFS from dst, relaxing over *reverse* down moves.
    // A reverse down move from v is any link (u -> v) where u is above v,
    // i.e. we walk dst's uphill links forward.
    let mut frontier = vec![dst];
    let mut depth: u16 = 0;
    while !frontier.is_empty() {
        depth += 1;
        let mut next_frontier = Vec::new();
        for &v in &frontier {
            for &l in topo.out_links(v) {
                // (v -> u) with u above v means the reverse (u -> v) is a
                // down move; duplex wiring guarantees the reverse exists.
                let u = topo.link(l).dst;
                if is_up_move(topo, v, u)
                    && !matches!(topo.node(v).kind, NodeKind::DcGate { .. })
                    && down[u.index()] == INF
                    && topo.link_between(u, v).is_some()
                {
                    // Exclude gate-lateral from "down" reachability: a
                    // gate-gate hop is lateral, not downhill.
                    if topo.node(u).kind.tier() > topo.node(v).kind.tier() {
                        down[u.index()] = depth;
                        next_frontier.push(u);
                    }
                }
            }
        }
        frontier = next_frontier;
    }

    // Valley-free distances: dist_up(x) = min(dist_down(x),
    //   1 + dist_up(y)) over up moves (x -> y). Seed with dist_down and run
    // Dijkstra over reverse-up edges.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u16, u32)>> = BinaryHeap::new();
    for (i, &d) in down.iter().enumerate() {
        up[i] = d;
        if d != INF {
            heap.push(Reverse((d, i as u32)));
        }
    }
    while let Some(Reverse((d, yi))) = heap.pop() {
        if d > up[yi as usize] {
            continue;
        }
        let y = NodeId(yi);
        // Relax every x with an up move (x -> y): walk y's out links and
        // use the duplex-wiring invariant (the same one the BFS above
        // relies on) — an edge y -> x implies the reverse x -> y exists,
        // so the tier comparison alone identifies relaxable edges without
        // a per-edge map lookup.
        for &l in topo.out_links(y) {
            let x = topo.link(l).dst;
            if is_up_move(topo, x, y) {
                debug_assert!(topo.link_between(x, y).is_some(), "non-duplex wiring");
                let nd = d.saturating_add(1);
                if nd < up[x.index()] {
                    up[x.index()] = nd;
                    heap.push(Reverse((nd, x.0)));
                }
            }
        }
    }

    DistField { dst, down, up }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astral::{build_astral, AstralParams};
    use crate::baselines::{build_clos, build_rail_optimized, BaselineParams};
    use crate::crossdc::{build_cross_dc, CrossDcParams};
    use crate::ids::GpuId;

    fn fixture() -> (Topology, Router) {
        (build_astral(&AstralParams::sim_small()), Router::new())
    }

    /// GPUs on the same rail, same block: NIC→ToR→NIC = 2 hops.
    #[test]
    fn same_block_same_rail_is_two_hops() {
        let (t, r) = fixture();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(4)));
        assert_eq!(r.distance(&t, a, b), Some(2));
    }

    /// Same rail, different block, same pod: NIC→ToR→Agg→ToR→NIC = 4 hops.
    #[test]
    fn cross_block_same_rail_is_four_hops() {
        let (t, r) = fixture();
        let p = AstralParams::sim_small();
        let gpus_per_block = p.hosts_per_block as u32 * p.rails as u32;
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(gpus_per_block)));
        assert_eq!(r.distance(&t, a, b), Some(4));
    }

    /// Cross-rail (same host even): must climb to a Core = 6 hops.
    #[test]
    fn cross_rail_goes_through_core() {
        let (t, r) = fixture();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(1)));
        assert_eq!(r.distance(&t, a, b), Some(6));
        // The path's apex must be a Core switch.
        let path = r.path_with(&t, a, b, |_, _| 0).unwrap();
        let apex = path
            .iter()
            .map(|&l| t.node(t.link(l).dst).kind.tier())
            .max()
            .unwrap();
        assert_eq!(apex, 3);
    }

    /// Cross-pod same-rail also goes through Core (pods share cores).
    #[test]
    fn cross_pod_goes_through_core() {
        let (t, r) = fixture();
        let p = AstralParams::sim_small();
        let gpus_per_pod = p.hosts_per_block as u32 * p.rails as u32 * p.blocks_per_pod as u32;
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(gpus_per_pod)));
        assert_eq!(r.distance(&t, a, b), Some(6));
    }

    /// Every hop of a generated path must be a real link and the walk must
    /// land on the destination, valley-free.
    #[test]
    fn paths_are_wellformed_and_valley_free() {
        let (t, r) = fixture();
        let pairs = [(0u32, 9), (0, 37), (5, 250), (128, 3), (17, 17 + 32)];
        for (ga, gb) in pairs {
            let (a, b) = (t.gpu_nic(GpuId(ga)), t.gpu_nic(GpuId(gb)));
            let path = r.path_with(&t, a, b, |_, _| 0).unwrap();
            let mut cur = a;
            let mut seen_down = false;
            for &l in &path {
                let link = t.link(l);
                assert_eq!(link.src, cur, "discontinuous path");
                let up = is_up_move(&t, link.src, link.dst);
                if up {
                    assert!(!seen_down, "valley: up move after down move");
                } else {
                    seen_down = true;
                }
                cur = link.dst;
            }
            assert_eq!(cur, b);
            assert_eq!(path.len() as u16, r.distance(&t, a, b).unwrap());
        }
    }

    /// Different chooser decisions give different equal-length paths,
    /// and the candidate sets are deterministic.
    #[test]
    fn ecmp_offers_multiple_paths() {
        let (t, r) = fixture();
        let p = AstralParams::sim_small();
        let gpb = p.hosts_per_block as u32 * p.rails as u32;
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(gpb)));
        let p0 = r.path_with(&t, a, b, |_, _| 0).unwrap();
        let p1 = r.path_with(&t, a, b, |_, hops| hops.len() - 1).unwrap();
        assert_eq!(p0.len(), p1.len());
        assert_ne!(p0, p1);
        // Same-rail cross-block: dual ToR sides × aggs_per_group paths.
        let count = r.path_count(&t, a, b);
        assert_eq!(
            count,
            (p.tors_per_rail as u64) * (p.aggs_per_group() as u64)
        );
    }

    /// path_count for cross-rail traffic: side × agg × core fan-out up,
    /// then the downhill side is determined by group wiring.
    #[test]
    fn cross_rail_path_count_matches_structure() {
        let (t, r) = fixture();
        let p = AstralParams::sim_small();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(1)));
        // Up: 2 ToR sides × aggs_per_group aggs × cores_per_group cores.
        // Down from the core: exactly one agg per (group, rank) leads to the
        // dst rail's group per side → 2 down options at the core (dst sides).
        let expected = p.tors_per_rail as u64
            * p.aggs_per_group() as u64
            * p.cores_per_group() as u64
            * p.tors_per_rail as u64;
        assert_eq!(r.path_count(&t, a, b), expected);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let (t, r) = fixture();
        let a = t.gpu_nic(GpuId(0));
        assert_eq!(r.distance(&t, a, a), Some(0));
        assert_eq!(r.path_with(&t, a, a, |_, _| 0), Some(vec![]));
    }

    #[test]
    fn fields_are_kept_per_destination() {
        let (t, r) = fixture();
        let b = t.gpu_nic(GpuId(9));
        assert!(std::ptr::eq(r.dist_field(&t, b), r.dist_field(&t, b)));
        assert!(!std::ptr::eq(
            r.dist_field(&t, b),
            r.dist_field(&t, t.gpu_nic(GpuId(10)))
        ));
    }

    /// The derived candidates equal the reference adjacency scan at every
    /// node, in both phases, toward every NIC, on fabrics covering every
    /// move class: Astral's dual ToRs, the Clos and rail-optimized
    /// baselines, and a cross-DC fabric whose gateways peer laterally.
    #[test]
    fn derived_candidates_match_reference_scan() {
        let fabrics = [
            build_astral(&AstralParams::sim_small()),
            build_clos(&BaselineParams::sim_small(2.0)),
            build_rail_optimized(&BaselineParams::sim_small(2.0)),
            build_cross_dc(&CrossDcParams::sim_small(4.0)),
        ];
        for t in &fabrics {
            let r = Router::new();
            let b = r.bound(t);
            let is_gate = |n: NodeId| matches!(t.node(n).kind, NodeKind::DcGate { .. });
            let mut hops = Vec::new();
            let (mut derived, mut lateral) = (0usize, 0usize);
            for dst in t.hosts().iter().flat_map(|h| h.nics.iter().copied()) {
                let field = b.field(t, dst);
                for node in t.nodes() {
                    for phase in [Phase::Up, Phase::Down] {
                        b.adj.candidates(field, node.id, phase, &mut hops);
                        let reference: Vec<Hop> = next_hops_in(t, field, node.id, phase).collect();
                        assert_eq!(
                            hops,
                            reference,
                            "{} {:?} {phase:?} -> {dst:?}",
                            t.arch(),
                            node.id
                        );
                        derived += hops.len();
                        lateral += hops
                            .iter()
                            .filter(|h| is_gate(t.link(h.link).src) && is_gate(t.link(h.link).dst))
                            .count();
                    }
                }
            }
            assert!(derived > 0);
            assert_eq!(lateral > 0, t.arch() == "astral-crossdc", "{}", t.arch());
        }
    }

    /// A router serves the topology it was first used with: another node
    /// count, or the same fabric after a structural change, is a typed
    /// error (a panic with the same message from the infallible methods)
    /// until `clear` drops the binding.
    #[test]
    fn router_binds_to_its_first_topology() {
        let (t, mut r) = fixture();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(4)));
        assert_eq!(r.distance(&t, a, b), Some(2));

        let other = build_clos(&BaselineParams::sim_small(1.0));
        assert_ne!(other.nodes().len(), t.nodes().len());
        assert!(matches!(
            r.try_path_with(&other, a, b, |_, _| 0),
            Err(RoutingError::TopologyMismatch { .. })
        ));

        let mut grown = t.clone();
        grown.add_duplex(a, b, 1e9, astral_sim::SimDuration::from_nanos(600));
        let err = RoutingError::TopologyMismatch {
            bound_nodes: t.nodes().len(),
            bound_epoch: t.epoch(),
            nodes: t.nodes().len(),
            epoch: grown.epoch(),
        };
        assert_eq!(r.try_path_with(&grown, a, b, |_, _| 0), Err(err));
        let panic =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.distance(&grown, a, b)))
                .unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
        // The bound topology itself still routes.
        assert_eq!(r.distance(&t, a, b), Some(2));

        r.clear();
        assert_eq!(r.distance(&grown, a, b), Some(2));
        assert!(r.try_path_with(&other, a, b, |_, _| 0).is_err());
    }
}

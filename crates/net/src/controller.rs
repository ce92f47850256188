//! The centralized ECMP controller (paper §2.1, footnote 1; Figure 17).
//!
//! Astral keeps per-flow ECMP but makes it *managed*. The controller can
//! predict every switch's choice for a candidate UDP source port by running
//! the same hash the ASICs use (a *hash simulator*, [`simulate_route`]),
//! and uses it for **counter-driven rebalancing**: switches report ECN
//! counters every five seconds; flows crossing hot links are re-pointed by
//! reassigning their source ports to paths that minimize the maximum
//! projected link load. Reassignments take effect at the next collective
//! round. (The paper's initial per-pair port spreading is not modelled:
//! flows start on the ports their QPs were registered with, and
//! rebalancing moves the ones that collide.)

use crate::fivetuple::{ip_of_nic, FiveTuple, EPHEMERAL_BASE};
use crate::hash::EcmpHasher;
use crate::sim::NetworkSim;
use astral_topo::{LinkId, NodeId, Router, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// A flow as the controller sees it: endpoints, volume, and the source port
/// it currently owns.
#[derive(Debug, Clone)]
pub struct PlannedFlow {
    /// Source NIC.
    pub src: NodeId,
    /// Destination NIC.
    pub dst: NodeId,
    /// Bytes per round (load weight for balancing).
    pub bytes: u64,
    /// Current UDP source port.
    pub sport: u16,
}

/// Compute the exact path a tuple takes — the controller's hash simulator.
pub fn simulate_route(
    topo: &Topology,
    router: &Router,
    hasher: &EcmpHasher,
    src: NodeId,
    dst: NodeId,
    sport: u16,
) -> Option<Vec<LinkId>> {
    let hash = hasher.tuple_hash(&FiveTuple::roce(ip_of_nic(src), ip_of_nic(dst), sport));
    router.path_with(topo, src, dst, |node, hops| hash.choose(node, hops.len()))
}

/// Source-port candidates examined per flow during rebalancing.
const REBALANCE_CANDIDATES: u16 = 128;

/// The source ports a flow on `sport` may move to, in the order a
/// rebalance (or the recovery engine's steering) tries them: 128
/// candidates strided by 197 through the ephemeral range from the current
/// port, so successive candidates hash far apart.
pub fn candidate_sports(sport: u16) -> impl Iterator<Item = u16> {
    let base = sport.wrapping_sub(EPHEMERAL_BASE);
    (1..=REBALANCE_CANDIDATES).map(move |c| EPHEMERAL_BASE.wrapping_add(base.wrapping_add(c * 197)))
}

/// The centralized controller.
#[derive(Debug, Clone, Default)]
pub struct EcmpController;

impl EcmpController {
    /// Project the per-link byte load of a flow plan.
    pub fn project_load(
        &self,
        topo: &Topology,
        router: &Router,
        hasher: &EcmpHasher,
        flows: &[PlannedFlow],
    ) -> BTreeMap<LinkId, u64> {
        let mut load = BTreeMap::new();
        for f in flows {
            if let Some(path) = simulate_route(topo, router, hasher, f.src, f.dst, f.sport) {
                for l in path {
                    *load.entry(l).or_insert(0) += f.bytes;
                }
            }
        }
        load
    }

    /// One rebalancing round: reassign the source ports of flows crossing
    /// `hot_links` to minimize the maximum projected link load. Returns the
    /// number of flows whose port changed.
    pub fn rebalance(
        &self,
        topo: &Topology,
        router: &Router,
        hasher: &EcmpHasher,
        flows: &mut [PlannedFlow],
        hot_links: &[LinkId],
    ) -> usize {
        if hot_links.is_empty() {
            return 0;
        }
        let mut load = self.project_load(topo, router, hasher, flows);
        let hot: BTreeSet<LinkId> = hot_links.iter().copied().collect();

        // Victims: flows whose current path crosses a hot link, heaviest
        // first so the biggest contributors move first.
        let mut victims: Vec<usize> = (0..flows.len())
            .filter(|&i| {
                simulate_route(
                    topo,
                    router,
                    hasher,
                    flows[i].src,
                    flows[i].dst,
                    flows[i].sport,
                )
                .is_some_and(|p| p.iter().any(|l| hot.contains(l)))
            })
            .collect();
        victims.sort_by_key(|&i| std::cmp::Reverse(flows[i].bytes));

        let mut moved = 0usize;
        for i in victims {
            let f = flows[i].clone();
            let cur_path = match simulate_route(topo, router, hasher, f.src, f.dst, f.sport) {
                Some(p) => p,
                None => continue,
            };
            // Remove own contribution while evaluating alternatives.
            for l in &cur_path {
                *load.get_mut(l).expect("path was projected") -= f.bytes;
            }
            let score = |path: &[LinkId], load: &BTreeMap<LinkId, u64>| -> u64 {
                path.iter()
                    .map(|l| load.get(l).copied().unwrap_or(0) + f.bytes)
                    .max()
                    .unwrap_or(0)
            };
            let mut best_sport = f.sport;
            let mut best_path = cur_path.clone();
            let mut best_score = score(&cur_path, &load);
            for sport in candidate_sports(f.sport) {
                if let Some(path) = simulate_route(topo, router, hasher, f.src, f.dst, sport) {
                    let s = score(&path, &load);
                    if s < best_score {
                        best_score = s;
                        best_sport = sport;
                        best_path = path;
                    }
                }
            }
            if best_sport != f.sport {
                flows[i].sport = best_sport;
                moved += 1;
            }
            for l in &best_path {
                *load.entry(*l).or_insert(0) += f.bytes;
            }
        }
        moved
    }

    /// One counter-driven round against a *live* simulator: pull the
    /// hottest links straight from the sim's ECN telemetry (the 5-second
    /// switch counter reports), rebalance, and return how many flows moved.
    /// This is the full Figure-17 loop as one call — the sim supplies the
    /// topology, shared router, and production hash configuration, so the
    /// hash simulator can never drift from what the fabric actually runs.
    pub fn rebalance_from_sim(
        &self,
        sim: &NetworkSim<'_>,
        flows: &mut [PlannedFlow],
        top_k: usize,
    ) -> usize {
        let hot: Vec<LinkId> = sim
            .telemetry()
            .hottest_links_by_ecn(top_k)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        self.rebalance(
            sim.topology(),
            sim.router(),
            &sim.config().hasher,
            flows,
            &hot,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_topo::{build_astral, AstralParams, GpuId};

    fn fixture() -> (Topology, Router, EcmpHasher) {
        (
            build_astral(&AstralParams::sim_small()),
            Router::new(),
            EcmpHasher::default(),
        )
    }

    /// Per-flow ECMP is deterministic: the same tuples collide on the same
    /// links in every round (persistent polarization), unlike packet
    /// spraying where collisions are transient. This persistence is what
    /// makes counter-driven source-port reassignment (Figure 17) both
    /// necessary and sufficient.
    #[test]
    fn collisions_persist_across_rounds_until_reassigned() {
        let (t, r, h) = fixture();
        let p = AstralParams::sim_small();
        let gpb = p.hosts_per_block as u32 * p.rails as u32;
        let flows: Vec<PlannedFlow> = (0..8)
            .map(|i| PlannedFlow {
                src: t.gpu_nic(GpuId(i * p.rails as u32)),
                dst: t.gpu_nic(GpuId(gpb + i * p.rails as u32)),
                bytes: 1,
                sport: 50_000,
            })
            .collect();
        let ctl = EcmpController;
        let round1 = ctl.project_load(&t, &r, &h, &flows);
        let round2 = ctl.project_load(&t, &r, &h, &flows);
        assert_eq!(round1, round2, "per-flow ECMP must be deterministic");
        // Reassigning a sport changes the projection.
        let mut moved = flows.clone();
        moved[0].sport = 51_111;
        let p1: Vec<LinkId> =
            simulate_route(&t, &r, &h, flows[0].src, flows[0].dst, flows[0].sport).unwrap();
        let p2: Vec<LinkId> =
            simulate_route(&t, &r, &h, moved[0].src, moved[0].dst, moved[0].sport).unwrap();
        assert_eq!(p1.len(), p2.len());
    }

    #[test]
    fn rebalance_reduces_max_link_load() {
        let (t, r, h) = fixture();
        let ctl = EcmpController;
        let p = AstralParams::sim_small();
        let gpb = p.hosts_per_block as u32 * p.rails as u32;
        // Eight flows from distinct sources to distinct destinations, all
        // given the SAME sport → with uniform hashing they collide heavily.
        let mut flows: Vec<PlannedFlow> = (0..8)
            .map(|i| PlannedFlow {
                src: t.gpu_nic(GpuId(i * p.rails as u32)),
                dst: t.gpu_nic(GpuId(gpb + i * p.rails as u32)),
                bytes: 1 << 20,
                sport: 50_000,
            })
            .collect();
        let before = ctl.project_load(&t, &r, &h, &flows);
        let max_before = before.values().copied().max().unwrap();
        let hot: Vec<LinkId> = before
            .iter()
            .filter(|(_, &v)| v == max_before)
            .map(|(&l, _)| l)
            .collect();
        let moved = ctl.rebalance(&t, &r, &h, &mut flows, &hot);
        let after = ctl.project_load(&t, &r, &h, &flows);
        let max_after = after.values().copied().max().unwrap();
        assert!(max_after <= max_before);
        if max_before > (1 << 20) {
            assert!(moved > 0, "collisions existed but nothing moved");
            assert!(max_after < max_before, "rebalance failed to help");
        }
    }

    #[test]
    fn rebalance_without_hot_links_is_a_noop() {
        let (t, r, h) = fixture();
        let ctl = EcmpController;
        let mut flows = vec![PlannedFlow {
            src: t.gpu_nic(GpuId(0)),
            dst: t.gpu_nic(GpuId(32)),
            bytes: 100,
            sport: 50_000,
        }];
        assert_eq!(ctl.rebalance(&t, &r, &h, &mut flows, &[]), 0);
        assert_eq!(flows[0].sport, 50_000);
    }

    #[test]
    fn hash_simulator_matches_itself() {
        // Determinism: the same tuple always routes the same way.
        let (t, r, h) = fixture();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(200)));
        let p1 = simulate_route(&t, &r, &h, a, b, 51_000);
        let p2 = simulate_route(&t, &r, &h, a, b, 51_000);
        assert_eq!(p1, p2);
    }
}

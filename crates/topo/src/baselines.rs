//! Baseline production fabrics the paper compares against (§2.1, §6).
//!
//! * [`build_clos`] — a Meta/ByteDance-style 3-tier CLOS: ToR switches are
//!   *rail-agnostic* (a ToR pair serves all NICs of a host group), every ToR
//!   reaches every Aggregation switch of its pod, and the Agg–Core tier is
//!   oversubscribed.
//! * [`build_rail_optimized`] — an Alibaba-HPN-style fabric: same-rail ToRs
//!   (dual-ToR) at tier 1, but *full interconnection* at the Aggregation
//!   layer (every ToR reaches every Agg), plus tier-3 oversubscription.
//! * [`build_rail_only`] — Meta's HOTI'24 rail-only design: eight disjoint
//!   per-rail fabrics with no Core tier at all; cross-rail traffic must be
//!   forwarded through the intra-host NVLink domain (handled by the
//!   collectives layer, since the network has no route).
//!
//! All three reuse the host/NIC geometry of [`AstralParams`] so that
//! experiments vary exactly one architectural dimension at a time.

use crate::astral::AstralParams;
use crate::graph::{Topology, GBPS};
use crate::ids::{DcId, NodeId, NodeKind};
use serde::{Deserialize, Serialize};

/// Parameters for the oversubscribed baselines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineParams {
    /// Host/NIC geometry and link rates (shared with the Astral builder).
    pub base: AstralParams,
    /// Tier-3 (Agg→Core) oversubscription ratio; 1.0 = non-blocking,
    /// 2.0 = half the core bandwidth, etc.
    pub tier3_oversub: f64,
}

impl BaselineParams {
    /// Baseline sized like [`AstralParams::sim_small`] with the given
    /// oversubscription.
    pub fn sim_small(tier3_oversub: f64) -> Self {
        BaselineParams {
            base: AstralParams::sim_small(),
            tier3_oversub,
        }
    }
}

/// Build a rail-agnostic 3-tier CLOS (Meta \[20\] / ByteDance \[27\] style).
///
/// Block hosts are partitioned into `rails` host groups; each host group is
/// served by a dual-ToR pair that carries **all** rails of its hosts. Every
/// ToR uplinks to every Agg of the pod; every Agg uplinks to every Core with
/// capacity divided by `tier3_oversub`.
pub fn build_clos(p: &BaselineParams) -> Topology {
    let b = &p.base;
    assert!(
        b.hosts_per_block.is_multiple_of(b.rails as u16),
        "hosts_per_block must be divisible by rails for host-group ToRs"
    );
    assert!(
        p.tier3_oversub >= 1.0,
        "oversubscription ratio must be >= 1"
    );
    let mut topo = Topology::new("clos", b.rails, b.hb);
    let dc = DcId(0);
    let nic_bw = b.nic_port_gbps * GBPS;
    let lat = b.link_latency;

    let aggs_per_pod = b.aggs_per_group(); // every ToR reaches all of them
    let host_groups = b.rails as u16;
    let tors_per_block = host_groups * b.tors_per_rail as u16;

    // Single shared core bank. Per-ToR downlink capacity: its host group's
    // NICs, one port each.
    let cores_total = aggs_per_pod;
    let tor_down = (b.hosts_per_block / host_groups) as f64 * b.rails as f64 * nic_bw;
    // Pod aggregate into tier 2 = every ToR's uplink total (= downlink total).
    let agg_down_total = tors_per_block as f64 * b.blocks_per_pod as f64 * tor_down;
    let core_link_bw =
        agg_down_total / p.tier3_oversub / (aggs_per_pod as f64 * cores_total as f64);

    let cores: Vec<NodeId> = (0..cores_total)
        .map(|r| {
            topo.add_node(NodeKind::Core {
                dc,
                group: 0,
                rank: r,
            })
        })
        .collect();

    for pod in 0..b.pods {
        let aggs: Vec<NodeId> = (0..aggs_per_pod)
            .map(|k| {
                let agg = topo.add_node(NodeKind::Agg {
                    dc,
                    pod,
                    group: 0,
                    rank: k,
                });
                for &core in &cores {
                    topo.add_duplex(agg, core, core_link_bw, lat);
                }
                agg
            })
            .collect();

        for block in 0..b.blocks_per_pod {
            // Rail-agnostic ToRs: `rail` field records the *host group*.
            let mut tors = vec![NodeId(0); tors_per_block as usize];
            for hg in 0..host_groups {
                for side in 0..b.tors_per_rail {
                    let tor = topo.add_node(NodeKind::Tor {
                        dc,
                        pod,
                        block,
                        rail: hg as u8,
                        side,
                    });
                    tors[(hg * b.tors_per_rail as u16 + side as u16) as usize] = tor;
                    // Full interconnection at tier 2: ToR downlink capacity
                    // spread over every Agg of the pod.
                    let tor_down =
                        b.hosts_per_block as f64 / host_groups as f64 * b.rails as f64 * nic_bw;
                    let uplink_bw = tor_down / aggs_per_pod as f64;
                    for &agg in &aggs {
                        topo.add_duplex(tor, agg, uplink_bw, lat);
                    }
                }
            }

            let hosts_per_group = b.hosts_per_block / host_groups;
            for host in 0..b.hosts_per_block {
                let hg = host / hosts_per_group;
                let mut nics = Vec::with_capacity(b.rails as usize);
                for rail in 0..b.rails {
                    let host_id = crate::ids::HostId(topo.hosts().len() as u32);
                    let nic = topo.add_node(NodeKind::Nic {
                        host: host_id,
                        rail,
                    });
                    // Both NIC ports land on the host group's ToR pair —
                    // every rail of the host shares those two ToRs.
                    for side in 0..b.tors_per_rail {
                        let tor = tors[(hg * b.tors_per_rail as u16 + side as u16) as usize];
                        topo.add_duplex(nic, tor, nic_bw, lat);
                    }
                    nics.push(nic);
                }
                topo.add_host(dc, pod, block, nics);
            }
        }
    }

    topo.validate()
        .expect("clos builder produced an invalid fabric");
    topo
}

/// Build a rail-optimized fabric (Alibaba HPN \[39\] style): same-rail dual
/// ToRs like Astral, but tier 2 is fully interconnected — every ToR uplinks
/// to every Agg of its pod — and tier 3 is oversubscribed.
pub fn build_rail_optimized(p: &BaselineParams) -> Topology {
    let b = &p.base;
    assert!(
        p.tier3_oversub >= 1.0,
        "oversubscription ratio must be >= 1"
    );
    let mut topo = Topology::new("rail-optimized", b.rails, b.hb);
    let dc = DcId(0);
    let nic_bw = b.nic_port_gbps * GBPS;
    let lat = b.link_latency;

    let aggs_per_pod = b.aggs_per_group();
    let tors_per_block = b.rails as u16 * b.tors_per_rail as u16;
    let cores_total = aggs_per_pod;

    // ToR downlink capacity = hosts_per_block × nic port rate; spread it
    // over every Agg of the pod.
    let tor_down = b.hosts_per_block as f64 * nic_bw;
    let tor_uplink_bw = tor_down / aggs_per_pod as f64;
    let agg_down_per_pod = tors_per_block as f64 * b.blocks_per_pod as f64 * tor_down;
    let core_link_bw =
        agg_down_per_pod / p.tier3_oversub / (aggs_per_pod as f64 * cores_total as f64);

    let cores: Vec<NodeId> = (0..cores_total)
        .map(|r| {
            topo.add_node(NodeKind::Core {
                dc,
                group: 0,
                rank: r,
            })
        })
        .collect();

    for pod in 0..b.pods {
        let aggs: Vec<NodeId> = (0..aggs_per_pod)
            .map(|k| {
                let agg = topo.add_node(NodeKind::Agg {
                    dc,
                    pod,
                    group: 0,
                    rank: k,
                });
                for &core in &cores {
                    topo.add_duplex(agg, core, core_link_bw, lat);
                }
                agg
            })
            .collect();

        for block in 0..b.blocks_per_pod {
            let mut tors = vec![NodeId(0); tors_per_block as usize];
            for rail in 0..b.rails {
                for side in 0..b.tors_per_rail {
                    let idx = (rail as u16) * b.tors_per_rail as u16 + side as u16;
                    let tor = topo.add_node(NodeKind::Tor {
                        dc,
                        pod,
                        block,
                        rail,
                        side,
                    });
                    tors[idx as usize] = tor;
                    for &agg in &aggs {
                        topo.add_duplex(tor, agg, tor_uplink_bw, lat);
                    }
                }
            }

            for _host in 0..b.hosts_per_block {
                let mut nics = Vec::with_capacity(b.rails as usize);
                for rail in 0..b.rails {
                    let host_id = crate::ids::HostId(topo.hosts().len() as u32);
                    let nic = topo.add_node(NodeKind::Nic {
                        host: host_id,
                        rail,
                    });
                    for side in 0..b.tors_per_rail {
                        let idx = (rail as u16) * b.tors_per_rail as u16 + side as u16;
                        topo.add_duplex(nic, tors[idx as usize], nic_bw, lat);
                    }
                    nics.push(nic);
                }
                topo.add_host(dc, pod, block, nics);
            }
        }
    }

    topo.validate()
        .expect("rail-optimized builder produced an invalid fabric");
    topo
}

/// Build a rail-only fabric (Meta HOTI'24 \[46\]): one independent two-tier
/// fabric per rail, no Core switches. Cross-rail NICs have **no network
/// route** — traffic must transit the NVLink domain, which is exactly the
/// scalability limit the paper calls out for MoE all-to-all.
pub fn build_rail_only(b: &AstralParams) -> Topology {
    assert_eq!(b.pods, 1, "rail-only is a single flat fabric; use pods = 1");
    let mut topo = Topology::new("rail-only", b.rails, b.hb);
    let dc = DcId(0);
    let nic_bw = b.nic_port_gbps * GBPS;
    let fabric_bw = b.fabric_gbps * GBPS;
    let lat = b.link_latency;
    let aggs_per_group = b.aggs_per_group();

    // Per-rail aggregation groups, exactly like Astral tier 2 — minus cores.
    let mut aggs = vec![vec![NodeId(0); aggs_per_group as usize]; b.agg_groups() as usize];
    for (g, row) in aggs.iter_mut().enumerate() {
        for (k, slot) in row.iter_mut().enumerate() {
            *slot = topo.add_node(NodeKind::Agg {
                dc,
                pod: 0,
                group: g as u16,
                rank: k as u16,
            });
        }
    }

    for block in 0..b.blocks_per_pod {
        let groups = b.agg_groups();
        let mut tors = vec![NodeId(0); groups as usize];
        for rail in 0..b.rails {
            for side in 0..b.tors_per_rail {
                let g = (rail as u16) * b.tors_per_rail as u16 + side as u16;
                let tor = topo.add_node(NodeKind::Tor {
                    dc,
                    pod: 0,
                    block,
                    rail,
                    side,
                });
                tors[g as usize] = tor;
                for &agg in &aggs[g as usize] {
                    topo.add_duplex(tor, agg, fabric_bw, lat);
                }
            }
        }
        for _host in 0..b.hosts_per_block {
            let mut nics = Vec::with_capacity(b.rails as usize);
            for rail in 0..b.rails {
                let host_id = crate::ids::HostId(topo.hosts().len() as u32);
                let nic = topo.add_node(NodeKind::Nic {
                    host: host_id,
                    rail,
                });
                for side in 0..b.tors_per_rail {
                    let g = (rail as u16) * b.tors_per_rail as u16 + side as u16;
                    topo.add_duplex(nic, tors[g as usize], nic_bw, lat);
                }
                nics.push(nic);
            }
            topo.add_host(dc, 0, block, nics);
        }
    }

    topo.validate()
        .expect("rail-only builder produced an invalid fabric");
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GpuId;
    use crate::routing::Router;

    #[test]
    fn clos_turns_everything_at_tier2_within_pod() {
        let t = build_clos(&BaselineParams::sim_small(1.0));
        let r = Router::new();
        // Cross-rail, same pod, different block: ToRs share every Agg, so
        // 4 hops — no Core needed (unlike Astral's 6).
        let p = AstralParams::sim_small();
        let gpb = p.hosts_per_block as u32 * p.rails as u32;
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(gpb + 1)));
        assert_eq!(r.distance(&t, a, b), Some(4));
        // Cross-pod must cross a Core: 6 hops.
        let gpp = gpb * p.blocks_per_pod as u32;
        let c = t.gpu_nic(GpuId(gpp));
        assert_eq!(r.distance(&t, a, c), Some(6));
    }

    #[test]
    fn clos_host_nics_share_tor_pair() {
        let t = build_clos(&BaselineParams::sim_small(1.0));
        let host = &t.hosts()[0];
        let mut tors: Vec<NodeId> = host
            .nics
            .iter()
            .flat_map(|&nic| t.out_links(nic).iter().map(|&l| t.link(l).dst))
            .collect();
        tors.sort_unstable();
        tors.dedup();
        // All rails of the host land on the same 2 ToRs (rail-agnostic).
        assert_eq!(tors.len(), 2);
    }

    #[test]
    fn clos_oversubscription_thins_tier3() {
        let flat = build_clos(&BaselineParams::sim_small(1.0));
        let over = build_clos(&BaselineParams::sim_small(4.0));
        let flat23 = flat.tier_bandwidth(2, 3);
        let over23 = over.tier_bandwidth(2, 3);
        assert!((flat23 / over23 - 4.0).abs() < 1e-9);
        // Tiers 0-1 and 1-2 are unchanged.
        assert_eq!(flat.tier_bandwidth(0, 1), over.tier_bandwidth(0, 1));
        assert_eq!(flat.tier_bandwidth(1, 2), over.tier_bandwidth(1, 2));
        // At oversub 1 the fabric satisfies P2.
        let t12 = flat.tier_bandwidth(1, 2);
        assert!((t12 - flat23).abs() / t12 < 1e-9);
    }

    #[test]
    fn rail_optimized_keeps_rail_tors_but_mixes_tier2() {
        let t = build_rail_optimized(&BaselineParams::sim_small(1.0));
        let r = Router::new();
        let p = AstralParams::sim_small();
        // NIC uplinks go to same-rail ToRs (like Astral)...
        let nic = t.gpu_nic(GpuId(2));
        for &l in t.out_links(nic) {
            match t.node(t.link(l).dst).kind {
                NodeKind::Tor { rail, .. } => assert_eq!(rail, t.gpu_rail(GpuId(2))),
                _ => panic!("NIC uplink not a ToR"),
            }
        }
        // ...but cross-rail turns at tier 2 (4 hops, vs Astral's 6).
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(1)));
        assert_eq!(r.distance(&t, a, b), Some(4));
        // Same-rail cross-block also 4 hops but shares Aggs with all rails.
        let gpb = p.hosts_per_block as u32 * p.rails as u32;
        let c = t.gpu_nic(GpuId(gpb));
        assert_eq!(r.distance(&t, a, c), Some(4));
    }

    #[test]
    fn rail_only_has_no_cross_rail_route() {
        let mut p = AstralParams::sim_small();
        p.pods = 1;
        let t = build_rail_only(&p);
        let r = Router::new();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(1)));
        assert_eq!(r.distance(&t, a, b), None);
        assert_eq!(r.path_with(&t, a, b, |_, _| 0), None);
        // Same-rail is fully routable.
        let gpb = p.hosts_per_block as u32 * p.rails as u32;
        let c = t.gpu_nic(GpuId(gpb));
        assert_eq!(r.distance(&t, a, c), Some(4));
        assert_eq!(t.tier_count(3), 0, "rail-only has no Core tier");
    }

    #[test]
    fn baselines_preserve_host_injection_bandwidth() {
        // All architectures give each host rails × ports × 200G.
        let p = BaselineParams::sim_small(2.0);
        let expected =
            p.base.rails as f64 * p.base.tors_per_rail as f64 * p.base.nic_port_gbps * GBPS * 64.0; // hosts in sim_small
        for topo in [
            crate::astral::build_astral(&p.base),
            build_clos(&p),
            build_rail_optimized(&p),
        ] {
            assert!((topo.tier_bandwidth(0, 1) - expected).abs() < 1.0);
        }
    }
}

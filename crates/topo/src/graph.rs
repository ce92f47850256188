//! The port-level topology graph.
//!
//! A [`Topology`] is a directed multigraph of [`Node`]s and [`Link`]s plus the
//! host/GPU inventory attached to it. Links are directed (each physical cable
//! is two directed links), because congestion in these fabrics is
//! direction-specific — the paper's Figure 9 case is a congested *downlink*
//! between Agg and ToR.

use crate::ids::{DcId, GpuId, HostId, LinkId, NodeId, NodeKind};
use astral_sim::{Digest, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Gigabits per second, as bits/s.
pub const GBPS: f64 = 1e9;

/// A network node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Dense identifier (index into `Topology::nodes`).
    pub id: NodeId,
    /// Role and structural coordinates.
    pub kind: NodeKind,
}

/// A directed link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Dense identifier (index into `Topology::links`).
    pub id: LinkId,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Capacity in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation + forwarding latency.
    pub latency: SimDuration,
}

/// A GPU server: one NIC node per rail, all GPUs in one high-bandwidth
/// (NVLink) domain with its peers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// Dense identifier.
    pub id: HostId,
    /// Datacenter the host is deployed in.
    pub dc: DcId,
    /// Pod within the datacenter.
    pub pod: u16,
    /// Block within the pod.
    pub block: u16,
    /// NIC node per rail; `nics[r]` serves local GPU `r`.
    pub nics: Vec<NodeId>,
}

/// Global description of the intra-host (NVLink/NVSwitch) interconnect.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HbDomainSpec {
    /// GPUs per high-bandwidth domain. 8 = single host; larger values model
    /// NVSwitch domains spanning multiple hosts (paper Figure 14).
    pub gpus_per_domain: u32,
    /// Per-GPU unidirectional NVLink bandwidth in bits per second.
    /// The paper quotes 400–900 GB/s bidirectional; we default to
    /// 450 GB/s bidirectional = 225 GB/s ≈ 1.8 Tbps unidirectional.
    pub bandwidth_bps: f64,
    /// One-way NVLink latency.
    pub latency: SimDuration,
}

impl Default for HbDomainSpec {
    fn default() -> Self {
        HbDomainSpec {
            gpus_per_domain: 8,
            bandwidth_bps: 1800.0 * GBPS,
            latency: SimDuration::from_nanos(700),
        }
    }
}

/// A complete fabric: nodes, links, hosts, and GPU geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    hosts: Vec<Host>,
    /// Outgoing links per node.
    out_adj: Vec<Vec<LinkId>>,
    /// Incoming links per node. Derived from `links`, so it is skipped on
    /// serialization (leaving the serialized form unchanged) and rebuilt
    /// by [`Topology::rebuild_index`].
    #[serde(skip)]
    in_adj: Vec<Vec<LinkId>>,
    /// `(src, dst) -> link` for fast bidirectional lookups.
    #[serde(skip)]
    link_index: HashMap<(NodeId, NodeId), LinkId>,
    /// Rails (NICs, and GPUs) per host.
    rails: u8,
    /// Intra-host interconnect description.
    hb: HbDomainSpec,
    /// Human-readable architecture label ("astral", "clos", …).
    arch: String,
    /// Mutation counter: bumped on every structural change (nodes, links,
    /// hosts, HB domain). Route memos key their validity on it — a cached
    /// path is only trusted while the epoch it was computed at still holds.
    /// Runtime bookkeeping, not topology content, so it is skipped on
    /// serialization and starts at 0 after a round-trip.
    #[serde(skip)]
    epoch: u64,
}

impl Topology {
    /// An empty fabric with the given per-host rail count and HB domain spec.
    pub fn new(arch: impl Into<String>, rails: u8, hb: HbDomainSpec) -> Self {
        assert!(rails > 0, "hosts need at least one rail");
        Topology {
            nodes: Vec::new(),
            links: Vec::new(),
            hosts: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            link_index: HashMap::new(),
            rails,
            hb,
            arch: arch.into(),
            epoch: 0,
        }
    }

    /// The structural-mutation epoch. Any two calls returning the same
    /// value bracket a window in which no node/link/host/HB-domain change
    /// happened, so derived caches (route memos, distance fields) built
    /// inside the window are still valid.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Architecture label this fabric was built as.
    pub fn arch(&self) -> &str {
        &self.arch
    }

    /// Append a node, returning its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.epoch += 1;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, kind });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Append one directed link.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bandwidth_bps: f64,
        latency: SimDuration,
    ) -> LinkId {
        assert!(src.index() < self.nodes.len() && dst.index() < self.nodes.len());
        assert!(bandwidth_bps > 0.0, "links need positive capacity");
        self.epoch += 1;
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            src,
            dst,
            bandwidth_bps,
            latency,
        });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        self.link_index.insert((src, dst), id);
        id
    }

    /// Append a full-duplex cable (two directed links), returning
    /// `(src→dst, dst→src)`.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth_bps: f64,
        latency: SimDuration,
    ) -> (LinkId, LinkId) {
        (
            self.add_link(a, b, bandwidth_bps, latency),
            self.add_link(b, a, bandwidth_bps, latency),
        )
    }

    /// Register a host whose NIC nodes were already added.
    pub fn add_host(&mut self, dc: DcId, pod: u16, block: u16, nics: Vec<NodeId>) -> HostId {
        assert_eq!(
            nics.len(),
            self.rails as usize,
            "host must have one NIC per rail"
        );
        self.epoch += 1;
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host {
            id,
            dc,
            pod,
            block,
            nics,
        });
        id
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Host lookup.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.index()]
    }

    /// Outgoing links of a node.
    pub fn out_links(&self, id: NodeId) -> &[LinkId] {
        &self.out_adj[id.index()]
    }

    /// Incoming links of a node, in ascending link order (empty on a
    /// deserialized topology until [`Topology::rebuild_index`] runs).
    pub fn in_links(&self, id: NodeId) -> &[LinkId] {
        self.in_adj.get(id.index()).map_or(&[], Vec::as_slice)
    }

    /// The directed link from `src` to `dst`, if one exists.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.link_index.get(&(src, dst)).copied()
    }

    /// A NIC's edge links as `(uplink, downlink)` pairs in `out_links`
    /// order: each uplink to a ToR and that ToR's link back to the NIC.
    /// An uplink without a reverse link is skipped.
    pub fn nic_edges(&self, nic: NodeId) -> impl Iterator<Item = (LinkId, LinkId)> + '_ {
        self.out_links(nic).iter().filter_map(move |&up| {
            let down = self.link_between(self.link(up).dst, nic)?;
            Some((up, down))
        })
    }

    /// Rebuild the `(src,dst) -> link` index and the incoming-link
    /// adjacency (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        self.epoch += 1;
        self.link_index = self.links.iter().map(|l| ((l.src, l.dst), l.id)).collect();
        self.in_adj = vec![Vec::new(); self.nodes.len()];
        for l in &self.links {
            self.in_adj[l.dst.index()].push(l.id);
        }
    }

    /// Rails (GPUs / NICs) per host.
    pub fn rails(&self) -> u8 {
        self.rails
    }

    /// Intra-host interconnect description.
    pub fn hb_domain(&self) -> HbDomainSpec {
        self.hb
    }

    /// Total GPU count (hosts × rails).
    pub fn gpu_count(&self) -> u32 {
        self.hosts.len() as u32 * self.rails as u32
    }

    /// FNV-1a content fingerprint of the fabric: architecture label,
    /// rail/HB-domain specs, and every link's endpoints/capacity/latency
    /// plus every host's placement coordinates. Unlike [`Topology::epoch`]
    /// (a local mutation counter), the fingerprint is a pure function of
    /// the structure — two independently built identical fabrics agree —
    /// so it can serve as a content-addressed cache key (e.g. the what-if
    /// service's scenario digest).
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.write_bytes(self.arch.as_bytes());
        d.write_u8(self.rails);
        d.write_u32(self.hb.gpus_per_domain);
        d.write_f64(self.hb.bandwidth_bps);
        d.write_u64(self.hb.latency.as_nanos());
        d.write_u64(self.links.len() as u64);
        for l in &self.links {
            d.write_u32(l.src.0);
            d.write_u32(l.dst.0);
            d.write_f64(l.bandwidth_bps);
            d.write_u64(l.latency.as_nanos());
        }
        d.write_u64(self.hosts.len() as u64);
        for host in &self.hosts {
            d.write_u32(host.dc.0);
            d.write_bytes(&host.pod.to_le_bytes());
            d.write_bytes(&host.block.to_le_bytes());
        }
        d.finish()
    }

    /// Host a GPU lives on. GPUs are numbered host-major:
    /// `gpu = host * rails + rail`.
    pub fn gpu_host(&self, gpu: GpuId) -> HostId {
        HostId(gpu.0 / self.rails as u32)
    }

    /// Rail (local index) of a GPU.
    pub fn gpu_rail(&self, gpu: GpuId) -> u8 {
        (gpu.0 % self.rails as u32) as u8
    }

    /// The NIC node serving a GPU.
    pub fn gpu_nic(&self, gpu: GpuId) -> NodeId {
        let host = self.gpu_host(gpu);
        self.hosts[host.index()].nics[self.gpu_rail(gpu) as usize]
    }

    /// High-bandwidth (NVLink) domain a GPU belongs to.
    pub fn gpu_hb_domain(&self, gpu: GpuId) -> u32 {
        gpu.0 / self.hb.gpus_per_domain
    }

    /// True when two GPUs share an NVLink domain (communicate without the
    /// network fabric).
    pub fn same_hb_domain(&self, a: GpuId, b: GpuId) -> bool {
        self.gpu_hb_domain(a) == self.gpu_hb_domain(b)
    }

    /// GPUs of a host.
    pub fn host_gpus(&self, host: HostId) -> impl Iterator<Item = GpuId> + '_ {
        let rails = self.rails as u32;
        (0..rails).map(move |r| GpuId(host.0 * rails + r))
    }

    /// Aggregate one-directional bandwidth between two tiers, in bits/s:
    /// the sum over links whose `src` tier is `from` and `dst` tier is `to`.
    ///
    /// The paper's P2 ("identical aggregated bandwidth across all tiers")
    /// is checked by comparing `tier_bandwidth(0,1)`, `(1,2)`, and `(2,3)`.
    pub fn tier_bandwidth(&self, from: u8, to: u8) -> f64 {
        self.links
            .iter()
            .filter(|l| self.node(l.src).kind.tier() == from && self.node(l.dst).kind.tier() == to)
            .map(|l| l.bandwidth_bps)
            .sum()
    }

    /// Count nodes of a given tier.
    pub fn tier_count(&self, tier: u8) -> usize {
        self.nodes.iter().filter(|n| n.kind.tier() == tier).count()
    }

    /// Structural sanity checks shared by every builder:
    /// every NIC belongs to a registered host, every link endpoint exists,
    /// adjacency is consistent, and duplex pairing holds (every directed
    /// link has a reverse with equal capacity).
    pub fn validate(&self) -> Result<(), String> {
        let mut nic_owned = vec![false; self.nodes.len()];
        for host in &self.hosts {
            for &nic in &host.nics {
                match self.node(nic).kind {
                    NodeKind::Nic { host: h, .. } if h == host.id => {
                        nic_owned[nic.index()] = true;
                    }
                    _ => return Err(format!("host {} lists non-NIC node {nic}", host.id)),
                }
            }
        }
        for node in &self.nodes {
            if let NodeKind::Nic { .. } = node.kind {
                if !nic_owned[node.id.index()] {
                    return Err(format!("NIC {} is not attached to any host", node.id));
                }
            }
        }
        for link in &self.links {
            let rev = self
                .link_between(link.dst, link.src)
                .ok_or_else(|| format!("link {} has no reverse direction", link.id))?;
            let rev = self.link(rev);
            if (rev.bandwidth_bps - link.bandwidth_bps).abs() > 1e-6 {
                return Err(format!(
                    "asymmetric duplex capacity on {} <-> {}",
                    link.src, link.dst
                ));
            }
        }
        for (idx, out) in self.out_adj.iter().enumerate() {
            for &l in out {
                if self.link(l).src.index() != idx {
                    return Err(format!("adjacency of n{idx} lists foreign link {l}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        // 2 hosts × 2 rails, one ToR per rail.
        let mut t = Topology::new(
            "tiny",
            2,
            HbDomainSpec {
                gpus_per_domain: 2,
                ..HbDomainSpec::default()
            },
        );
        let dc = DcId(0);
        let tor0 = t.add_node(NodeKind::Tor {
            dc,
            pod: 0,
            block: 0,
            rail: 0,
            side: 0,
        });
        let tor1 = t.add_node(NodeKind::Tor {
            dc,
            pod: 0,
            block: 0,
            rail: 1,
            side: 0,
        });
        for h in 0..2u32 {
            let mut nics = Vec::new();
            for r in 0..2u8 {
                let nic = t.add_node(NodeKind::Nic {
                    host: HostId(h),
                    rail: r,
                });
                let tor = if r == 0 { tor0 } else { tor1 };
                t.add_duplex(nic, tor, 200.0 * GBPS, SimDuration::from_nanos(500));
                nics.push(nic);
            }
            t.add_host(dc, 0, 0, nics);
        }
        t
    }

    #[test]
    fn gpu_geometry() {
        let t = tiny();
        assert_eq!(t.gpu_count(), 4);
        assert_eq!(t.gpu_host(GpuId(3)), HostId(1));
        assert_eq!(t.gpu_rail(GpuId(3)), 1);
        assert_eq!(t.gpu_rail(GpuId(2)), 0);
        let nic = t.gpu_nic(GpuId(2));
        assert!(matches!(
            t.node(nic).kind,
            NodeKind::Nic {
                host: HostId(1),
                rail: 0
            }
        ));
    }

    #[test]
    fn hb_domain_membership() {
        let t = tiny();
        // 2 GPUs per domain → GPUs 0,1 share, 2,3 share, 1 vs 2 differ.
        assert!(t.same_hb_domain(GpuId(0), GpuId(1)));
        assert!(t.same_hb_domain(GpuId(2), GpuId(3)));
        assert!(!t.same_hb_domain(GpuId(1), GpuId(2)));
    }

    #[test]
    fn duplex_and_lookup() {
        let t = tiny();
        let nic = t.gpu_nic(GpuId(0));
        let tor = t
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Tor { rail: 0, .. }))
            .unwrap()
            .id;
        let up = t.link_between(nic, tor).unwrap();
        let down = t.link_between(tor, nic).unwrap();
        assert_eq!(t.link(up).bandwidth_bps, t.link(down).bandwidth_bps);
        assert_eq!(t.out_links(nic).len(), 1);
        assert_eq!(t.in_links(nic), &[down]);
        assert_eq!(t.in_links(tor).len(), 2);
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_orphan_nic() {
        let mut t = Topology::new("bad", 1, HbDomainSpec::default());
        let tor = t.add_node(NodeKind::Tor {
            dc: DcId(0),
            pod: 0,
            block: 0,
            rail: 0,
            side: 0,
        });
        let nic = t.add_node(NodeKind::Nic {
            host: HostId(0),
            rail: 0,
        });
        t.add_duplex(nic, tor, GBPS, SimDuration::ZERO);
        // No add_host call: the NIC is an orphan.
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_simplex_link() {
        let mut t = Topology::new("bad", 1, HbDomainSpec::default());
        let a = t.add_node(NodeKind::Tor {
            dc: DcId(0),
            pod: 0,
            block: 0,
            rail: 0,
            side: 0,
        });
        let b = t.add_node(NodeKind::Tor {
            dc: DcId(0),
            pod: 0,
            block: 1,
            rail: 0,
            side: 0,
        });
        t.add_link(a, b, GBPS, SimDuration::ZERO);
        assert!(t.validate().is_err());
    }

    #[test]
    fn tier_bandwidth_sums_direction() {
        let t = tiny();
        // 4 NIC→ToR links at 200G.
        assert_eq!(t.tier_bandwidth(0, 1), 4.0 * 200.0 * GBPS);
        assert_eq!(t.tier_bandwidth(1, 0), 4.0 * 200.0 * GBPS);
        assert_eq!(t.tier_bandwidth(1, 2), 0.0);
    }

    #[test]
    fn serde_round_trip_rebuilds_index() {
        let t = tiny();
        let json = serde_json::to_string(&t).unwrap();
        let mut back: Topology = serde_json::from_str(&json).unwrap();
        assert!(back.link_between(NodeId(2), NodeId(0)).is_none());
        assert!(back.in_links(NodeId(0)).is_empty());
        back.rebuild_index();
        assert!(back.link_between(NodeId(2), NodeId(0)).is_some());
        assert_eq!(back.in_links(NodeId(0)), t.in_links(NodeId(0)));
        assert_eq!(back.fingerprint(), t.fingerprint());
        assert_eq!(back.gpu_count(), t.gpu_count());
    }
}

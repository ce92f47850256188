//! The monitoring snapshot: everything the hierarchical analyzer reads.
//!
//! A [`Snapshot`] gathers one observation window of every monitoring layer
//! (paper Figure 8): application-layer NCCL progress, transport-layer QP
//! registry + per-QP byte tally + errCQE, network-layer sFlow paths, and
//! physical-layer per-host health and per-link counters. The analyzer is a
//! pure function of a snapshot (plus an on-demand INT prober), so diagnosis
//! is testable with both synthetic and simulation-produced data.

use astral_net::{ErrCqe, IntProbe, NetworkSim, QpId, QpRecord, QpTally};
use astral_sim::MulHashMap;
use astral_topo::{GpuId, HostId, LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The job under observation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobDesc {
    /// Job id.
    pub job: u32,
    /// Hosts allocated to the job.
    pub hosts: Vec<HostId>,
    /// Iterations the window should have completed.
    pub expected_iters: u32,
    /// Seer's expected per-iteration time — the forecast-derived threshold
    /// the paper uses for "abnormal judgment".
    pub expected_iter_s: f64,
}

/// Application-layer progress of one rank (the NCCL timeline summary).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RankProgress {
    /// GPU this rank runs on.
    pub gpu: GpuId,
    /// Host of the GPU.
    pub host: HostId,
    /// Completed iterations in the window.
    pub iters_done: u32,
    /// Work requests finished (start/finish counts expose where a hang
    /// sits).
    pub ops_done: u64,
    /// Mean per-iteration computation time observed.
    pub comp_time_s: f64,
    /// Mean per-iteration communication time observed.
    pub comm_time_s: f64,
    /// The rank emitted an explicit error log.
    pub error_log: Option<String>,
}

/// Physical-layer health of one host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostHealth {
    /// Host id.
    pub host: HostId,
    /// Mean GPU utilization.
    pub gpu_util: f64,
    /// ECC error count in the window.
    pub ecc_errors: u32,
    /// Fatal GPU error (Xid) if any.
    pub gpu_xid: Option<u32>,
    /// PCIe link trained below its rated width/generation.
    pub pcie_degraded: bool,
    /// Rack inlet air temperature, °C (cooling substrate telemetry).
    pub inlet_temp_c: f64,
    /// Active rack power cap as a fraction of nominal (1.0 = uncapped;
    /// below 1.0 the HVDC row is supply-limited — power substrate
    /// telemetry).
    pub power_cap_frac: f64,
    /// GPUs on this host are thermally throttling (DVFS clamp engaged).
    pub thermal_throttle: bool,
    /// Environment / container configuration check passed.
    pub env_ok: bool,
    /// Installed driver version.
    pub driver_version: String,
    /// Installed NCCL version.
    pub nccl_version: String,
}

impl HostHealth {
    /// A healthy host with fleet-standard software.
    pub fn healthy(host: HostId) -> Self {
        HostHealth {
            host,
            gpu_util: 0.95,
            ecc_errors: 0,
            gpu_xid: None,
            pcie_degraded: false,
            inlet_temp_c: 22.0,
            power_cap_frac: 1.0,
            thermal_throttle: false,
            env_ok: true,
            driver_version: "535.161.08".into(),
            nccl_version: "2.21.5".into(),
        }
    }
}

/// One observation window of the full monitoring stack.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Job metadata (host list + communication-group info).
    pub job: Option<JobDesc>,
    /// Application layer: per-rank progress.
    pub ranks: Vec<RankProgress>,
    /// Transport layer: QP registry (five-tuple ↔ app context).
    pub qp_registry: Vec<QpRecord>,
    /// Transport layer: bytes each QP delivered, with the span it
    /// delivered them over.
    pub qp_bytes: BTreeMap<QpId, QpTally>,
    /// Transport layer: observed rate as a fraction of the designated link
    /// bandwidth, per QP.
    pub qp_rate_frac: BTreeMap<QpId, f64>,
    /// Transport layer: completion-queue errors.
    pub err_cqe: Vec<ErrCqe>,
    /// Network layer: sFlow-reconstructed node path per QP.
    pub sflow: BTreeMap<QpId, Vec<NodeId>>,
    /// Physical layer: per-link PFC pause nanoseconds.
    pub link_pfc: BTreeMap<LinkId, u64>,
    /// Physical layer: per-link ECN marks.
    pub link_ecn: BTreeMap<LinkId, u64>,
    /// Physical layer: link up/down flap counts.
    pub link_flaps: BTreeMap<LinkId, u32>,
    /// Physical layer: per-host health.
    pub health: Vec<HostHealth>,
}

impl Snapshot {
    /// Copy the network-side layers out of a simulation's telemetry.
    pub fn harvest_network(&mut self, sim: &NetworkSim<'_>) {
        let t = sim.telemetry();
        self.qp_registry = sim.qp_records().collect();
        self.qp_bytes = t.qp_bytes.iter().map(|(q, &b)| (q, b)).collect();
        self.err_cqe = t.err_cqe.clone();
        self.sflow = self
            .qp_registry
            .iter()
            .filter_map(|r| Some((r.qp, sim.sflow_path(r.qp)?)))
            .collect();
        for (i, c) in t.link.iter().enumerate() {
            if c.pfc_pause_ns > 0 {
                self.link_pfc.insert(LinkId(i as u32), c.pfc_pause_ns);
            }
            if c.ecn_marks > 0 {
                self.link_ecn.insert(LinkId(i as u32), c.ecn_marks);
            }
        }
        self.link_flaps.extend(&t.link_flaps);
    }

    /// Health record of a host, if present.
    pub fn health_of(&self, host: HostId) -> Option<&HostHealth> {
        self.health.iter().find(|h| h.host == host)
    }

    /// QP registry entry lookup.
    pub fn qp(&self, qp: QpId) -> Option<&QpRecord> {
        self.qp_registry.iter().find(|r| r.qp == qp)
    }
}

/// On-demand INT-armed path probing (the analyzer drills down only for
/// flagged flows).
pub trait IntProber {
    /// Probe the path a tuple with `sport` takes from `src` to `dst`.
    fn probe(&self, src: NodeId, dst: NodeId, sport: u16) -> IntProbe;
}

impl IntProber for NetworkSim<'_> {
    fn probe(&self, src: NodeId, dst: NodeId, sport: u16) -> IntProbe {
        self.int_probe(src, dst, sport)
    }
}

/// A prober with canned answers (for pure-data tests).
#[derive(Default)]
pub struct CannedProber {
    /// Keyed by (src, dst); sport-insensitive.
    pub probes: MulHashMap<(NodeId, NodeId), IntProbe>,
}

impl IntProber for CannedProber {
    fn probe(&self, src: NodeId, dst: NodeId, _sport: u16) -> IntProbe {
        self.probes.get(&(src, dst)).cloned().unwrap_or(IntProbe {
            hops: Vec::new(),
            reached: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_net::{FlowSpec, NetConfig, QpContext};
    use astral_topo::{build_astral, AstralParams};

    #[test]
    fn harvest_copies_all_layers() {
        let topo = build_astral(&AstralParams::sim_small());
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        let qp = sim.register_qp_auto(
            topo.gpu_nic(GpuId(0)),
            topo.gpu_nic(GpuId(32)),
            QpContext::for_job(7, 0, GpuId(0), GpuId(32)),
        );
        sim.run_flows(&[FlowSpec {
            qp,
            bytes: 1 << 24,
            weight: 1.0,
        }]);
        let mut snap = Snapshot::default();
        snap.harvest_network(&sim);
        assert_eq!(snap.qp_registry.len(), 1);
        assert_eq!(snap.qp_registry[0].ctx.job, Some(7));
        assert!(snap.sflow.contains_key(&qp));
        assert!(snap.qp_bytes[&qp].bytes > 0.0);
    }

    #[test]
    fn canned_prober_returns_defaults() {
        let p = CannedProber::default();
        let probe = p.probe(NodeId(1), NodeId(2), 50_000);
        assert!(probe.reached);
        assert!(probe.hops.is_empty());
    }

    #[test]
    fn healthy_host_template() {
        let h = HostHealth::healthy(HostId(3));
        assert!(h.env_ok && !h.pcie_degraded && h.gpu_xid.is_none());
    }
}

//! Five-tuples and queue pairs.
//!
//! The monitoring system's hierarchical correlation (paper §3.2) pivots on
//! the five-tuple: application-layer communication groups are linked to
//! transport-layer QPs, and QPs are linked to network paths, through
//! `(src ip, dst ip, src port, dst port, protocol)`. RoCEv2 traffic uses UDP
//! destination port 4791; the *source* port is the ECMP entropy field, chosen
//! (and re-chosen by the controller) to steer path selection.

use astral_topo::{GpuId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// RoCEv2 UDP destination port.
pub const ROCE_PORT: u16 = 4791;
/// IANA ephemeral port range start, where RoCE source ports are drawn from.
pub const EPHEMERAL_BASE: u16 = 49152;

/// A transport five-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// UDP source port — the ECMP entropy knob.
    pub src_port: u16,
    /// UDP destination port (4791 for RoCEv2).
    pub dst_port: u16,
    /// IP protocol (17 = UDP).
    pub proto: u8,
}

impl FiveTuple {
    /// The RoCEv2 tuple between two NIC addresses with the given source port.
    pub fn roce(src_ip: u32, dst_ip: u32, src_port: u16) -> Self {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port: ROCE_PORT,
            proto: 17,
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{}/{}",
            self.src_ip >> 24,
            (self.src_ip >> 16) & 0xFF,
            (self.src_ip >> 8) & 0xFF,
            self.src_ip & 0xFF,
            self.src_port,
            self.dst_ip >> 24,
            (self.dst_ip >> 16) & 0xFF,
            (self.dst_ip >> 8) & 0xFF,
            self.dst_ip & 0xFF,
            self.dst_port,
            self.proto
        )
    }
}

/// Deterministic IPv4 address of a NIC node (10.0.0.0/8 mapped by node id).
pub fn ip_of_nic(nic: NodeId) -> u32 {
    0x0A00_0000 | (nic.0 & 0x00FF_FFFF)
}

/// A queue pair: the RDMA transport endpoint a flow runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QpId(pub u64);

impl fmt::Display for QpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// Metadata the application layer registers per QP so that the monitor can
/// correlate transport events back to ranks, groups, and jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QpContext {
    /// Sending GPU, if the QP belongs to a training job.
    pub src_gpu: Option<GpuId>,
    /// Receiving GPU.
    pub dst_gpu: Option<GpuId>,
    /// Communication group (e.g. a TP group id) within the job.
    pub group: Option<u32>,
    /// Training job id.
    pub job: Option<u32>,
}

impl QpContext {
    /// A QP with no application attribution (e.g. probe traffic).
    pub fn anonymous() -> Self {
        QpContext {
            src_gpu: None,
            dst_gpu: None,
            group: None,
            job: None,
        }
    }

    /// A QP attributed to a job's GPU pair.
    pub fn for_job(job: u32, group: u32, src_gpu: GpuId, dst_gpu: GpuId) -> Self {
        QpContext {
            src_gpu: Some(src_gpu),
            dst_gpu: Some(dst_gpu),
            group: Some(group),
            job: Some(job),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roce_defaults() {
        let t = FiveTuple::roce(0x0A000001, 0x0A000002, 50000);
        assert_eq!(t.dst_port, ROCE_PORT);
        assert_eq!(t.proto, 17);
    }

    #[test]
    fn nic_ips_are_unique_and_in_10slash8() {
        let a = ip_of_nic(NodeId(1));
        let b = ip_of_nic(NodeId(2));
        assert_ne!(a, b);
        assert_eq!(a >> 24, 10);
        assert_eq!(b >> 24, 10);
    }

    #[test]
    fn tuple_display_is_readable() {
        let t = FiveTuple::roce(ip_of_nic(NodeId(5)), ip_of_nic(NodeId(9)), 49152);
        let s = t.to_string();
        assert!(s.contains("10.0.0.5:49152"));
        assert!(s.contains("10.0.0.9:4791"));
    }
}

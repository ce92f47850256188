//! Network-side telemetry taps (paper §3.2, transport/network/physical
//! layers).
//!
//! The simulator populates these structures as it runs; the `astral-monitor`
//! crate consumes them exactly as the production analyzer consumes its
//! collectors:
//!
//! * **Transport layer** — a QP registry mapping [`QpId`] ↔ five-tuple ↔
//!   application context, millisecond-resolution per-QP byte samples (the
//!   ACL-mirrored RETH DMA-length trick), and `errCQE` events.
//! * **Network layer** — per-QP sFlow path records and an INT-style
//!   hop-by-hop probe (implemented on the simulator in
//!   [`crate::NetworkSim::int_probe`]).
//! * **Physical layer** — per-link cumulative ECN mark, PFC pause, and byte
//!   counters, plus utilization EWMA.

use crate::fivetuple::{FiveTuple, QpContext, QpId};
use astral_sim::{MulHashMap, SimTime, TimeSeries};
use astral_topo::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An RDMA completion-queue error event, as the transport monitor records it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrCqe {
    /// When the CQE error surfaced.
    pub time: SimTime,
    /// Failing queue pair.
    pub qp: QpId,
    /// The QP's five-tuple at failure time.
    pub tuple: FiveTuple,
}

/// Per-link physical-layer counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinkCounters {
    /// Cumulative ECN-marked bytes (proxy for mark count).
    pub ecn_marks: u64,
    /// Cumulative PFC pause time received, in nanoseconds.
    pub pfc_pause_ns: u64,
    /// Cumulative bytes carried.
    pub bytes: u64,
    /// Exponentially weighted utilization (0..1+) at the last recompute.
    pub util_ewma: f64,
}

/// All telemetry captured by one simulation.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// QP registry: transport identity ↔ application context.
    pub qp_info: HashMap<QpId, QpRecord>,
    /// Millisecond-level byte samples per QP (time, bytes delivered since
    /// the previous sample). The simulator appends to it for every active
    /// flow on every fluid step, so it hashes with [`MulHashMap`]'s
    /// multiplicative hasher rather than SipHash.
    pub qp_bytes: MulHashMap<QpId, TimeSeries>,
    /// CQE error events, in time order.
    pub err_cqe: Vec<ErrCqe>,
    /// sFlow-reconstructed path (node sequence) per QP, from the most recent
    /// flow on that QP.
    pub sflow_paths: HashMap<QpId, Vec<NodeId>>,
    /// Per-link counters, indexed by `LinkId`.
    pub link: Vec<LinkCounters>,
    /// Physical layer: cumulative link up/down transition counts (flap
    /// edges). A hard fail counts one edge, a restore of a hard-failed
    /// link another; capacity degrades are not transitions and do not
    /// count. A healthy fabric leaves this empty.
    pub link_flaps: HashMap<LinkId, u32>,
}

/// Registry entry for one queue pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QpRecord {
    /// The QP id.
    pub qp: QpId,
    /// Current five-tuple (the source port can be reassigned).
    pub tuple: FiveTuple,
    /// Source NIC node.
    pub src_nic: NodeId,
    /// Destination NIC node.
    pub dst_nic: NodeId,
    /// Application attribution.
    pub ctx: QpContext,
}

impl Telemetry {
    /// Fresh telemetry store for a fabric with `n_links` links.
    pub fn new(n_links: usize) -> Self {
        Telemetry {
            link: vec![LinkCounters::default(); n_links],
            ..Telemetry::default()
        }
    }

    /// Record a QP byte sample.
    pub fn sample_qp(&mut self, qp: QpId, t: SimTime, bytes: f64) {
        self.qp_bytes.entry(qp).or_default().push(t, bytes);
    }

    /// QPs whose five-tuple matches `tuple` (the monitor's transport→app
    /// pivot).
    pub fn qps_by_tuple(&self, tuple: &FiveTuple) -> Vec<QpId> {
        let mut qps: Vec<QpId> = self
            .qp_info
            .values()
            .filter(|r| &r.tuple == tuple)
            .map(|r| r.qp)
            .collect();
        qps.sort_unstable();
        qps
    }

    /// All errCQE events within a time window.
    pub fn err_cqe_in(&self, start: SimTime, end: SimTime) -> Vec<&ErrCqe> {
        self.err_cqe
            .iter()
            .filter(|e| e.time >= start && e.time < end)
            .collect()
    }

    /// Links ordered by ECN marks, hottest first.
    pub fn hottest_links_by_ecn(&self, top: usize) -> Vec<(LinkId, u64)> {
        let mut v: Vec<(LinkId, u64)> = self
            .link
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ecn_marks > 0)
            .map(|(i, c)| (LinkId(i as u32), c.ecn_marks))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(top);
        v
    }

    /// Total monitored bytes (for overhead accounting).
    pub fn total_bytes(&self) -> u64 {
        self.link.iter().map(|c| c.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fivetuple::ip_of_nic;
    use astral_sim::SimDuration;

    fn record(qp: u64, sport: u16) -> QpRecord {
        QpRecord {
            qp: QpId(qp),
            tuple: FiveTuple::roce(ip_of_nic(NodeId(1)), ip_of_nic(NodeId(2)), sport),
            src_nic: NodeId(1),
            dst_nic: NodeId(2),
            ctx: QpContext::anonymous(),
        }
    }

    #[test]
    fn tuple_pivot_finds_qps() {
        let mut t = Telemetry::new(4);
        t.qp_info.insert(QpId(1), record(1, 50_000));
        t.qp_info.insert(QpId(2), record(2, 50_001));
        t.qp_info.insert(QpId(3), record(3, 50_000));
        let tuple = FiveTuple::roce(ip_of_nic(NodeId(1)), ip_of_nic(NodeId(2)), 50_000);
        assert_eq!(t.qps_by_tuple(&tuple), vec![QpId(1), QpId(3)]);
    }

    #[test]
    fn qp_rate_series_resamples_to_ms() {
        let mut t = Telemetry::new(0);
        for ms in 0..10u64 {
            t.sample_qp(QpId(7), SimTime::from_millis(ms), 125_000.0); // 1 Gbps
        }
        let series = &t.qp_bytes[&QpId(7)];
        let rates = series.rate_bps(
            SimTime::ZERO,
            SimTime::from_millis(10),
            SimDuration::from_millis(1),
        );
        for (_, r) in rates {
            assert!((r - 1e9).abs() / 1e9 < 0.01);
        }
    }

    #[test]
    fn err_cqe_window_filter() {
        let mut t = Telemetry::new(0);
        for ms in [1u64, 5, 9] {
            t.err_cqe.push(ErrCqe {
                time: SimTime::from_millis(ms),
                qp: QpId(ms),
                tuple: record(ms, 50_000).tuple,
            });
        }
        assert_eq!(
            t.err_cqe_in(SimTime::from_millis(2), SimTime::from_millis(9))
                .len(),
            1
        );
    }

    #[test]
    fn hottest_links_sorted_desc() {
        let mut t = Telemetry::new(3);
        t.link[0].ecn_marks = 5;
        t.link[2].ecn_marks = 9;
        let hot = t.hottest_links_by_ecn(10);
        assert_eq!(hot, vec![(LinkId(2), 9), (LinkId(0), 5)]);
        assert_eq!(t.hottest_links_by_ecn(1).len(), 1);
    }
}

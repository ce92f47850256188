//! Network-side telemetry taps (paper §3.2, transport/network/physical
//! layers).
//!
//! The simulator populates these structures as it runs; the `astral-monitor`
//! crate consumes them exactly as the production analyzer consumes its
//! collectors:
//!
//! * **Transport layer** — a per-QP tally of delivered bytes over the span
//!   the QP carried traffic (what the ACL-mirrored RETH DMA-length trick
//!   measures, reduced to the one rate the analyzer reads) and `errCQE`
//!   events.
//! * **Physical layer** — per-link cumulative ECN mark, PFC pause and byte
//!   counters, and link flap counts.
//!
//! Per-QP identity is not copied here. The simulator's QP table is the one
//! record of each queue pair, and it answers the rest of the transport and
//! network layers as views: the QP registry mapping [`QpId`] ↔ five-tuple ↔
//! application context ([`crate::NetworkSim::qp_records`], as
//! [`QpRecord`]s), the per-QP sFlow path
//! ([`crate::NetworkSim::sflow_path`]), and the INT-style hop-by-hop probe
//! ([`crate::NetworkSim::int_probe`]).

use crate::fivetuple::{FiveTuple, QpContext, QpId};
use astral_sim::SimTime;
use astral_topo::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
}

/// The bytes one QP delivered: the first and last fluid step in which its
/// flows moved bytes, and the bytes moved, summed in step order from 0.
/// Its size does not grow with the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpTally {
    /// End of the first fluid step that delivered bytes.
    pub first: SimTime,
    /// End of the last fluid step that delivered bytes.
    pub last: SimTime,
    /// Bytes delivered.
    pub bytes: f64,
}

/// All telemetry captured by one simulation.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Delivered bytes per QP. The simulator adds to it for every active
    /// flow on every fluid step.
    pub qp_bytes: QpTable<QpTally>,
    /// CQE error events, in time order.
    pub err_cqe: Vec<ErrCqe>,
    /// Per-link counters, indexed by `LinkId`.
    pub link: Vec<LinkCounters>,
    /// Physical layer: cumulative link up/down transition counts (flap
    /// edges). A hard fail counts one edge, a restore of a hard-failed
    /// link another; capacity degrades are not transitions and do not
    /// count. A healthy fabric leaves this empty.
    pub link_flaps: BTreeMap<LinkId, u32>,
}

/// A per-QP table indexed by the ids [`crate::NetworkSim`] hands out
/// (1, 2, … in registration order): QP `q` owns slot `q.0 - 1`, so a
/// lookup is an index rather than a hash, and iteration runs in ascending
/// QP id.
#[derive(Debug, Clone)]
pub struct QpTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for QpTable<T> {
    fn default() -> Self {
        QpTable { slots: Vec::new() }
    }
}

impl<T> QpTable<T> {
    /// The slot of `qp`; `None` for `QpId(0)`, which is never assigned.
    fn slot(qp: QpId) -> Option<usize> {
        usize::try_from(qp.0.checked_sub(1)?).ok()
    }

    /// The entry of `qp`, if it has one.
    pub fn get(&self, qp: QpId) -> Option<&T> {
        self.slots.get(Self::slot(qp)?)?.as_ref()
    }

    /// The entry of `qp`, inserting `make()` first if it has none.
    fn get_or_insert_with(&mut self, qp: QpId, make: impl FnOnce() -> T) -> &mut T {
        self.slot_mut(qp).get_or_insert_with(make)
    }

    /// The slot of `qp`, growing the table to reach it. The table is as long
    /// as the largest id it holds, so ids must be the dense ones a
    /// simulator assigns.
    fn slot_mut(&mut self, qp: QpId) -> &mut Option<T> {
        let i = Self::slot(qp).unwrap_or_else(|| panic!("{qp} is not a valid QP id"));
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// Entries in ascending QP id.
    pub fn iter(&self) -> impl Iterator<Item = (QpId, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((QpId(i as u64 + 1), v.as_ref()?)))
    }
}

impl<T> std::ops::Index<QpId> for QpTable<T> {
    type Output = T;

    fn index(&self, qp: QpId) -> &T {
        self.get(qp).unwrap_or_else(|| panic!("no entry for {qp}"))
    }
}

/// Registry entry for one queue pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Add `bytes` that `qp` delivered in the fluid step ending at `t`.
    pub fn sample_qp(&mut self, qp: QpId, t: SimTime, bytes: f64) {
        let tally = self.qp_bytes.get_or_insert_with(qp, || QpTally {
            first: t,
            last: t,
            bytes: 0.0,
        });
        debug_assert!(t >= tally.last, "QP byte samples must be time-ordered");
        tally.last = t;
        tally.bytes += bytes;
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

    #[test]
    fn hottest_links_sorted_desc() {
        let mut t = Telemetry::new(3);
        t.link[0].ecn_marks = 5;
        t.link[2].ecn_marks = 9;
        let hot = t.hottest_links_by_ecn(10);
        assert_eq!(hot, vec![(LinkId(2), 9), (LinkId(0), 5)]);
        assert_eq!(t.hottest_links_by_ecn(1).len(), 1);
    }

    #[test]
    fn qp_tables_iterate_in_ascending_id() {
        let mut t: QpTable<u32> = QpTable::default();
        for q in [3u64, 1, 2] {
            *t.get_or_insert_with(QpId(q), || 0) += q as u32;
        }
        let entries: Vec<(QpId, u32)> = t.iter().map(|(q, &v)| (q, v)).collect();
        assert_eq!(entries, [(QpId(1), 1), (QpId(2), 2), (QpId(3), 3)]);
        assert!(t.get(QpId(9)).is_none());
        assert!(t.get(QpId(0)).is_none());
    }
}

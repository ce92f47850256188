//! Operator-timeline construction: the discrete-event heart of Seer.
//!
//! "With operator dependencies and operator execution time, any
//! discrete-event simulation tool can be used to construct the timeline"
//! (paper §4.3). [`schedule`] is that tool: a two-stream-per-device list
//! scheduler over the operator DAG — compute/memory operators serialize on
//! the device's compute stream, communication operators on its comm stream,
//! and data dependencies cross devices through the DAG edges. The pricing
//! of individual operators is abstracted behind [`OpPricer`], so the same
//! scheduler serves the Seer forecast (modeled durations) and the testbed
//! replay (ground-truth durations).

use astral_model::{OpId, OpKind, Operator, OperatorGraph, ParallelismConfig};
use astral_sim::{Digest, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Execution stream on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stream {
    /// Kernels and HBM traffic.
    Compute,
    /// NCCL communication.
    Comm,
}

/// Which stream an operator occupies.
fn stream_of(op: &Operator) -> Stream {
    match op.kind {
        OpKind::Comm { .. } => Stream::Comm,
        _ => Stream::Compute,
    }
}

/// One scheduled operator execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Operator id.
    pub op: OpId,
    /// Operator name.
    pub name: String,
    /// Device (pipeline stage).
    pub device: u32,
    /// Stream occupied.
    pub stream: Stream,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

/// A complete forecast timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline {
    /// Entries in execution (start-time) order.
    pub entries: Vec<TimelineEntry>,
    /// Iteration makespan.
    pub total: SimDuration,
    /// Busy time of each device's compute stream.
    pub compute_busy: Vec<SimDuration>,
    /// Busy time of each device's comm stream.
    pub comm_busy: Vec<SimDuration>,
}

impl Timeline {
    /// Relative deviation of this timeline's makespan vs a reference
    /// (the paper's accuracy metric: 0.3% for Hunyuan).
    pub fn deviation_vs(&self, reference: &Timeline) -> f64 {
        let a = self.total.as_secs_f64();
        let b = reference.total.as_secs_f64();
        if b <= 0.0 {
            return 0.0;
        }
        (a - b).abs() / b
    }

    /// Fraction of the makespan during which the busiest device's comm
    /// stream is active but its compute stream is idle — "exposed"
    /// communication (the paper observes ~15% of communication time remains
    /// after overlap).
    pub fn exposed_comm_fraction(&self) -> f64 {
        // Approximation from busy totals: exposed ≈ max(0, comm − idle
        // compute headroom) on the critical device.
        let total = self.total.as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        let mut worst: f64 = 0.0;
        for d in 0..self.compute_busy.len() {
            let comp = self.compute_busy[d].as_secs_f64();
            let comm = self.comm_busy[d].as_secs_f64();
            let exposed = (total - comp).min(comm).max(0.0);
            worst = worst.max(exposed / total);
        }
        worst
    }

    /// Entries of one device, start-ordered.
    pub fn device_entries(&self, device: u32) -> Vec<&TimelineEntry> {
        self.entries.iter().filter(|e| e.device == device).collect()
    }

    /// FNV-1a fingerprint over every entry's (op, device, stream, start,
    /// end) plus the makespan — the bitwise identity of the timeline, used
    /// to pin cached ≡ uncached forecasts and cross-width determinism.
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        for e in &self.entries {
            d.fold_word(e.op.0 as u64);
            d.fold_word(e.device as u64);
            d.fold_word(match e.stream {
                Stream::Compute => 0,
                Stream::Comm => 1,
            });
            d.fold_word(e.start.as_nanos());
            d.fold_word(e.end.as_nanos());
        }
        d.fold_word(self.total.as_nanos());
        d.finish()
    }

    /// Per-operator-family total durations (for timeline comparisons like
    /// Figure 12): `(base name, seconds)` sorted by descending time.
    pub fn by_operator_family(&self) -> Vec<(String, f64)> {
        let mut acc: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for e in &self.entries {
            let base = e.name.split('@').next().unwrap_or(&e.name).to_string();
            *acc.entry(base).or_insert(0.0) += e.end.saturating_since(e.start).as_secs_f64();
        }
        let mut v: Vec<(String, f64)> = acc.into_iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        v
    }
}

/// Prices one operator in seconds.
pub trait OpPricer {
    /// Duration of `op` under parallelism `par`.
    fn duration(&self, op: &Operator, par: &ParallelismConfig) -> f64;
}

/// Schedule a graph: deterministic two-stream list scheduling.
///
/// Ops become ready when all dependencies end; among ready ops, lower ids
/// run first (program order — the graphs encode 1F1B order through chain
/// edges, so this matches the framework's launch order).
pub fn schedule(
    graph: &OperatorGraph,
    par: &ParallelismConfig,
    pricer: &impl OpPricer,
) -> Timeline {
    let n = graph.ops.len();
    let devices = graph.devices as usize;
    let mut indegree = vec![0u32; n];
    let mut out_edges: Vec<Vec<u32>> = vec![Vec::new(); n];
    for op in &graph.ops {
        for d in &op.deps {
            indegree[op.id.0 as usize] += 1;
            out_edges[d.0 as usize].push(op.id.0);
        }
    }

    let mut ready_time = vec![SimTime::ZERO; n];
    let mut stream_free = vec![[SimTime::ZERO; 2]; devices];
    let mut compute_busy = vec![SimDuration::ZERO; devices];
    let mut comm_busy = vec![SimDuration::ZERO; devices];
    let mut entries = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<u32>> = (0..n as u32)
        .filter(|&i| indegree[i as usize] == 0)
        .map(Reverse)
        .collect();
    let mut scheduled = 0usize;

    while let Some(Reverse(i)) = heap.pop() {
        let op = &graph.ops[i as usize];
        let stream = stream_of(op);
        let sidx = match stream {
            Stream::Compute => 0,
            Stream::Comm => 1,
        };
        let dev = op.device as usize;
        let dur = SimDuration::from_secs_f64(pricer.duration(op, par).max(0.0));
        let start = ready_time[i as usize].max(stream_free[dev][sidx]);
        let end = start + dur;
        stream_free[dev][sidx] = end;
        match stream {
            Stream::Compute => compute_busy[dev] += dur,
            Stream::Comm => comm_busy[dev] += dur,
        }
        entries.push(TimelineEntry {
            op: op.id,
            name: op.name.clone(),
            device: op.device,
            stream,
            start,
            end,
        });
        scheduled += 1;
        for &j in &out_edges[i as usize] {
            ready_time[j as usize] = ready_time[j as usize].max(end);
            indegree[j as usize] -= 1;
            if indegree[j as usize] == 0 {
                heap.push(Reverse(j));
            }
        }
    }
    assert_eq!(scheduled, n, "graph has a cycle");

    entries.sort_by_key(|e| (e.start, e.op));
    let total = entries
        .iter()
        .map(|e| e.end)
        .max()
        .unwrap_or(SimTime::ZERO)
        .saturating_since(SimTime::ZERO);
    Timeline {
        entries,
        total,
        compute_busy,
        comm_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_model::{Collective, GroupKind, OperatorGraph};

    /// A pricer with fixed durations by kind.
    struct Fixed;
    impl OpPricer for Fixed {
        fn duration(&self, op: &Operator, _par: &ParallelismConfig) -> f64 {
            match op.kind {
                OpKind::Compute { .. } => 10.0,
                OpKind::Memory { .. } => 5.0,
                OpKind::Fused { .. } => 12.0,
                OpKind::Comm { .. } => 8.0,
            }
        }
    }

    fn par() -> ParallelismConfig {
        ParallelismConfig::new(1, 2, 1)
    }

    #[test]
    fn serial_chain_adds_up() {
        let mut g = OperatorGraph::new(1);
        let a = g.push("A", 0, OpKind::Compute { flops: 1.0 }, vec![]);
        let b = g.push("B", 0, OpKind::Memory { bytes: 1 }, vec![a]);
        g.push("C", 0, OpKind::Compute { flops: 1.0 }, vec![b]);
        let t = schedule(&g, &par(), &Fixed);
        assert_eq!(t.total, SimDuration::from_secs_f64(25.0));
        assert_eq!(t.entries.len(), 3);
    }

    #[test]
    fn comm_overlaps_independent_compute() {
        // A -> (B compute, C comm independent of B); C depends only on A.
        let mut g = OperatorGraph::new(1);
        let a = g.push("A", 0, OpKind::Compute { flops: 1.0 }, vec![]);
        g.push("B", 0, OpKind::Compute { flops: 1.0 }, vec![a]);
        g.push(
            "C",
            0,
            OpKind::Comm {
                coll: Collective::AllReduce,
                group: GroupKind::Dp,
                group_size: 2,
                bytes: 1,
            },
            vec![a],
        );
        let t = schedule(&g, &par(), &Fixed);
        // B (10) and C (8) overlap after A (10): makespan 20, not 28.
        assert_eq!(t.total, SimDuration::from_secs_f64(20.0));
    }

    #[test]
    fn same_stream_ops_serialize_even_if_independent() {
        let mut g = OperatorGraph::new(1);
        g.push("A", 0, OpKind::Compute { flops: 1.0 }, vec![]);
        g.push("B", 0, OpKind::Compute { flops: 1.0 }, vec![]);
        let t = schedule(&g, &par(), &Fixed);
        assert_eq!(t.total, SimDuration::from_secs_f64(20.0));
    }

    #[test]
    fn cross_device_dependency_transfers_time() {
        let mut g = OperatorGraph::new(2);
        let a = g.push("A", 0, OpKind::Compute { flops: 1.0 }, vec![]);
        let s = g.push(
            "Send",
            0,
            OpKind::Comm {
                coll: Collective::Send,
                group: GroupKind::Pp,
                group_size: 2,
                bytes: 1,
            },
            vec![a],
        );
        let r = g.push(
            "Recv",
            1,
            OpKind::Comm {
                coll: Collective::Recv,
                group: GroupKind::Pp,
                group_size: 2,
                bytes: 1,
            },
            vec![s],
        );
        g.push("B", 1, OpKind::Compute { flops: 1.0 }, vec![r]);
        let t = schedule(&g, &par(), &Fixed);
        // 10 (A) + 8 (send) + 8 (recv) + 10 (B) = 36.
        assert_eq!(t.total, SimDuration::from_secs_f64(36.0));
        let b = t.entries.iter().find(|e| e.name == "B").unwrap();
        assert_eq!(b.device, 1);
        assert_eq!(b.start, SimTime::from_secs_f64(26.0));
    }

    #[test]
    fn busy_accounting_and_family_rollup() {
        let mut g = OperatorGraph::new(1);
        let a = g.push("X@1", 0, OpKind::Compute { flops: 1.0 }, vec![]);
        g.push("X@2", 0, OpKind::Compute { flops: 1.0 }, vec![a]);
        let t = schedule(&g, &par(), &Fixed);
        assert_eq!(t.compute_busy[0], SimDuration::from_secs_f64(20.0));
        assert_eq!(t.comm_busy[0], SimDuration::ZERO);
        let fam = t.by_operator_family();
        assert_eq!(fam, vec![("X".to_string(), 20.0)]);
    }

    #[test]
    fn deviation_metric() {
        let mut g = OperatorGraph::new(1);
        g.push("A", 0, OpKind::Compute { flops: 1.0 }, vec![]);
        let t1 = schedule(&g, &par(), &Fixed);
        let mut t2 = t1.clone();
        t2.total = SimDuration::from_secs_f64(t1.total.as_secs_f64() * 1.003);
        assert!((t2.deviation_vs(&t1) - 0.003).abs() < 1e-9);
    }
}

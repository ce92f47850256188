//! Operator graphs: the execution unit Seer forecasts.
//!
//! A training or inference iteration is a DAG of operators — computation,
//! memory access, and communication (paper §4.3, Table 1). Each operator is
//! tagged with the pipeline *device* (stage) it executes on; Seer replays
//! the DAG with per-device compute and communication streams.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Operator identifier within a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Collective operation kind for communication operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Collective {
    /// Ring/two-level AllReduce.
    AllReduce,
    /// ReduceScatter.
    ReduceScatter,
    /// AllGather.
    AllGather,
    /// All-to-all (EP dispatch/combine).
    AllToAll,
    /// Point-to-point send (PP).
    Send,
    /// Point-to-point receive (PP).
    Recv,
    /// Broadcast.
    Broadcast,
}

/// Which logical communicator a comm operator runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroupKind {
    /// Tensor-parallel group.
    Tp,
    /// Data-parallel group.
    Dp,
    /// Expert-parallel group.
    Ep,
    /// Pipeline peer (send/recv).
    Pp,
}

/// What an operator does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// Pure computation.
    Compute {
        /// Floating-point operations.
        flops: f64,
    },
    /// Pure memory traffic (weight/activation loads from HBM).
    Memory {
        /// Bytes moved through HBM.
        bytes: u64,
    },
    /// Fused memory + computation (Table 1's "Mem. + Comp." rows).
    Fused {
        /// Floating-point operations.
        flops: f64,
        /// Bytes moved through HBM.
        bytes: u64,
    },
    /// Collective or point-to-point communication.
    Comm {
        /// Collective kind.
        coll: Collective,
        /// Communicator.
        group: GroupKind,
        /// Participants in the communicator.
        group_size: u32,
        /// Per-rank buffer bytes.
        bytes: u64,
    },
}

impl OpKind {
    /// Coarse classification (the "Types" column of Table 1).
    pub fn type_label(&self) -> &'static str {
        match self {
            OpKind::Compute { .. } => "Comp.",
            OpKind::Memory { .. } => "Mem.",
            OpKind::Fused { .. } => "Mem. + Comp.",
            OpKind::Comm { .. } => "Comm.",
        }
    }
}

/// One operator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Operator {
    /// Identifier (== index in the graph).
    pub id: OpId,
    /// Name, e.g. `"GQAQKVComputation"`.
    pub name: String,
    /// Pipeline device (stage) the operator runs on.
    pub device: u32,
    /// Work description.
    pub kind: OpKind,
    /// Operators that must complete first.
    pub deps: Vec<OpId>,
}

/// A DAG of operators.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OperatorGraph {
    /// Operators; `ops[i].id == OpId(i)`.
    pub ops: Vec<Operator>,
    /// Number of pipeline devices referenced.
    pub devices: u32,
}

impl OperatorGraph {
    /// Empty graph for `devices` pipeline stages.
    pub fn new(devices: u32) -> Self {
        OperatorGraph {
            ops: Vec::new(),
            devices,
        }
    }

    /// Append an operator; returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        device: u32,
        kind: OpKind,
        deps: Vec<OpId>,
    ) -> OpId {
        debug_assert!(device < self.devices);
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Operator {
            id,
            name: name.into(),
            device,
            kind,
            deps,
        });
        id
    }

    /// Operator lookup.
    pub fn op(&self, id: OpId) -> &Operator {
        &self.ops[id.0 as usize]
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the graph has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Add a dependency edge after construction (pipeline wiring creates
    /// edges that run against id order).
    pub fn add_dep(&mut self, op: OpId, dep: OpId) {
        debug_assert!((op.0 as usize) < self.ops.len() && (dep.0 as usize) < self.ops.len());
        self.ops[op.0 as usize].deps.push(dep);
    }

    /// Validate: ids are dense, devices are in range, dependency targets
    /// exist, no self-deps, and the graph is acyclic.
    pub fn validate(&self) -> Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            if op.id.0 as usize != i {
                return Err(format!("op at index {i} has id {}", op.id));
            }
            if op.device >= self.devices {
                return Err(format!("{} on unknown device {}", op.id, op.device));
            }
            for d in &op.deps {
                if d.0 as usize >= self.ops.len() {
                    return Err(format!("{} depends on unknown {d}", op.id));
                }
                if *d == op.id {
                    return Err(format!("{} depends on itself", op.id));
                }
            }
        }
        if self.topo_order().is_none() {
            return Err("operator graph contains a cycle".into());
        }
        Ok(())
    }

    /// A topological order of the operators, or `None` if cyclic (Kahn).
    pub fn topo_order(&self) -> Option<Vec<OpId>> {
        let n = self.ops.len();
        let mut indegree = vec![0u32; n];
        let mut out_edges: Vec<Vec<u32>> = vec![Vec::new(); n];
        for op in &self.ops {
            for d in &op.deps {
                indegree[op.id.0 as usize] += 1;
                out_edges[d.0 as usize].push(op.id.0);
            }
        }
        let mut queue: std::collections::VecDeque<u32> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(OpId(i));
            for &j in &out_edges[i as usize] {
                indegree[j as usize] -= 1;
                if indegree[j as usize] == 0 {
                    queue.push_back(j);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Total FLOPs in the graph.
    pub fn total_flops(&self) -> f64 {
        self.ops
            .iter()
            .map(|o| match o.kind {
                OpKind::Compute { flops } | OpKind::Fused { flops, .. } => flops,
                _ => 0.0,
            })
            .sum()
    }

    /// Total communication bytes (per-rank buffer sizes summed over comm
    /// ops).
    pub fn total_comm_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match o.kind {
                OpKind::Comm { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total HBM traffic.
    pub fn total_mem_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match o.kind {
                OpKind::Memory { bytes } | OpKind::Fused { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// Distinct `(name, type)` rows in first-appearance order — the Table-1
    /// inventory view.
    pub fn operator_inventory(&self) -> Vec<(String, &'static str)> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for op in &self.ops {
            let base = op.name.split('@').next().unwrap_or(&op.name).to_string();
            if seen.insert(base.clone()) {
                out.push((base, op.kind.type_label()));
            }
        }
        out
    }

    /// Operators of one device, in id order.
    pub fn device_ops(&self, device: u32) -> impl Iterator<Item = &Operator> {
        self.ops.iter().filter(move |o| o.device == device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OperatorGraph {
        let mut g = OperatorGraph::new(2);
        let a = g.push("LoadWeight", 0, OpKind::Memory { bytes: 100 }, vec![]);
        let b = g.push(
            "EmbeddingComputation",
            0,
            OpKind::Compute { flops: 1e6 },
            vec![a],
        );
        let c = g.push(
            "PPSend",
            0,
            OpKind::Comm {
                coll: Collective::Send,
                group: GroupKind::Pp,
                group_size: 2,
                bytes: 64,
            },
            vec![b],
        );
        g.push(
            "PPRecv",
            1,
            OpKind::Comm {
                coll: Collective::Recv,
                group: GroupKind::Pp,
                group_size: 2,
                bytes: 64,
            },
            vec![c],
        );
        g
    }

    #[test]
    fn wellformed_graph_validates() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn forward_dep_is_rejected() {
        let mut g = OperatorGraph::new(1);
        g.push("A", 0, OpKind::Compute { flops: 1.0 }, vec![]);
        g.ops[0].deps.push(OpId(5));
        assert!(g.validate().is_err());
    }

    #[test]
    fn totals() {
        let g = tiny();
        assert_eq!(g.total_flops(), 1e6);
        assert_eq!(g.total_comm_bytes(), 128);
        assert_eq!(g.total_mem_bytes(), 100);
    }

    #[test]
    fn inventory_dedups_by_base_name() {
        let mut g = OperatorGraph::new(1);
        g.push(
            "RMSNormComputation@L0",
            0,
            OpKind::Compute { flops: 1.0 },
            vec![],
        );
        g.push(
            "RMSNormComputation@L1",
            0,
            OpKind::Compute { flops: 1.0 },
            vec![],
        );
        g.push(
            "RMSNormLoadWeight@L0",
            0,
            OpKind::Memory { bytes: 1 },
            vec![],
        );
        let inv = g.operator_inventory();
        assert_eq!(
            inv,
            vec![
                ("RMSNormComputation".to_string(), "Comp."),
                ("RMSNormLoadWeight".to_string(), "Mem."),
            ]
        );
    }

    #[test]
    fn type_labels_match_table1() {
        assert_eq!(OpKind::Compute { flops: 0.0 }.type_label(), "Comp.");
        assert_eq!(OpKind::Memory { bytes: 0 }.type_label(), "Mem.");
        assert_eq!(
            OpKind::Fused {
                flops: 0.0,
                bytes: 0
            }
            .type_label(),
            "Mem. + Comp."
        );
        assert_eq!(
            OpKind::Comm {
                coll: Collective::AllReduce,
                group: GroupKind::Tp,
                group_size: 8,
                bytes: 0
            }
            .type_label(),
            "Comm."
        );
    }
}

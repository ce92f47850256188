//! # astral-net — flow-level RDMA network simulation
//!
//! The network substrate of the Astral reproduction: a fluid (flow-level)
//! simulator of RDMA traffic over the fabrics built by `astral-topo`,
//! reproducing the network behaviours the paper's evaluation depends on:
//!
//! * **ECMP with hash linearity** ([`EcmpHasher`]) — per-flow path selection
//!   exactly as commodity ASICs do it, including the polarization that
//!   uniform hash fleets exhibit.
//! * **Max-min fair rate allocation** ([`max_min_rates`]) — the DCQCN
//!   equilibrium, recomputed event by event by one incremental solver
//!   over just the component a change touches. With
//!   [`NetConfig::sharded_solver`] it fills each group of pods the
//!   component's flows join on its own, which keeps fleet-wide waves at
//!   O(pods) work; [`check_bottleneck_property`] states the max-min
//!   certificate debug builds check after every solve.
//! * **The centralized ECMP controller** ([`EcmpController`]) — initial
//!   source-port spreading plus ECN-counter-driven reassignment (Figure 17).
//! * **Failure injection** — dead links (errCQE after RTO) and degraded
//!   drains (PCIe-limited hosts) that trigger PFC pauses and head-of-line
//!   victims (§5's incidents).
//! * **Telemetry taps** ([`Telemetry`]) — per-QP delivered-byte tallies and
//!   ECN/PFC counters, plus the QP registry, sFlow paths and INT per-hop
//!   probes read straight off the simulator's QP table, feeding the
//!   `astral-monitor` analyzer.
//!
//! ```
//! use astral_net::{FlowSpec, NetConfig, NetworkSim, QpContext};
//! use astral_topo::{build_astral, AstralParams, GpuId};
//!
//! let topo = build_astral(&AstralParams::sim_small());
//! let mut sim = NetworkSim::new(&topo, NetConfig::default());
//! let qp = sim.register_qp_auto(topo.gpu_nic(GpuId(0)), topo.gpu_nic(GpuId(32)), QpContext::anonymous());
//! let stats = sim.run_flows(&[FlowSpec { qp, bytes: 1 << 20, weight: 1.0 }]);
//! assert!(stats[0].fct().is_some());
//! ```

#![warn(missing_docs)]

mod controller;
mod fairness;
mod fivetuple;
mod hash;
mod linkset;
mod sim;
mod solver;
mod telemetry;

pub use controller::{candidate_sports, simulate_route, EcmpController, PlannedFlow};
pub use fairness::{check_bottleneck_property, max_min_rates};
pub use fivetuple::{ip_of_nic, FiveTuple, QpContext, QpId, EPHEMERAL_BASE, ROCE_PORT};
pub use hash::{sport_layer, EcmpHasher, SaltMode};
pub use sim::{
    FlowEvent, FlowId, FlowSpec, FlowState, FlowStats, IntHop, IntProbe, NetConfig, NetError,
    NetworkSim, Segment, BASE_QUEUE_DELAY, DEFAULT_TRACE_CAPACITY, ECN_UTIL_THRESHOLD,
    MAX_QUEUE_DELAY, PFC_HOL_FACTOR, RTO,
};
pub use solver::SolverCounters;
pub use telemetry::{ErrCqe, LinkCounters, QpRecord, QpTable, QpTally, Telemetry};

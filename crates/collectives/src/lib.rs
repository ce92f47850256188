//! # astral-collectives — NCCL-style collectives over the Astral fabric
//!
//! Three layers:
//!
//! * [`cost`] — α–β analytic models (what Seer's basic modeling uses).
//! * [`plan`] — pure rank-level transfer schedules (ring, halving-doubling,
//!   pairwise all-to-all, pipelined broadcast, send/recv).
//! * [`CollectiveRunner`] — executes schedules on the `astral-net` flow
//!   simulator with NVLink (HB-domain) handling, PXN rail alignment, and
//!   hierarchical two-level AllReduce.
//!
//! ```
//! use astral_collectives::{CollectiveRunner, RunnerConfig};
//! use astral_topo::{build_astral, AstralParams, GpuId};
//!
//! let topo = build_astral(&AstralParams::sim_small());
//! let mut runner = CollectiveRunner::new(&topo, RunnerConfig::default());
//! // AllReduce 64 MiB over eight same-rail GPUs.
//! let group: Vec<GpuId> = (0..8).map(|h| GpuId(h * 4)).collect();
//! let result = runner.all_reduce(&group, 64 << 20);
//! assert!(result.duration.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod plan;
mod runner;

pub use plan::{
    halving_doubling_all_reduce, pairwise_all_to_all, ring_all_gather, ring_all_reduce,
    ring_all_reduce_step_into, ring_broadcast, ring_reduce_scatter, send_recv, Schedule, Transfer,
};
pub use runner::{merge_parallel, CollectiveResult, CollectiveRunner, RunnerConfig, STEP_OVERHEAD};

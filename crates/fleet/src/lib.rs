//! # astral-fleet — fleet-level multi-tenant scheduling
//!
//! The layer above a single training job: a seeded job-arrival workload
//! ([`generate_workload`]) is admitted onto one fabric by a placement
//! engine with pluggable policies ([`PlacementStrategy`]: first-fit,
//! rail-affine, blast-radius-aware spreading across the power/cooling
//! failure domains), and a fleet controller ([`try_run_fleet_campaign_with`])
//! drives every admitted segment through the cascade engine with
//! queueing, priority preemption, requeue-on-abort under bounded retry
//! budgets, and a shared spare pool with fleet-wide claim competition.
//!
//! Everything is deterministic: identical campaigns yield byte-identical
//! [`FleetReport`] fingerprints at any `ASTRAL_THREADS` width, because
//! every scheduling decision is made serially and only the independent
//! segment simulations fan out.
//!
//! ```
//! use astral_collectives::RunnerConfig;
//! use astral_exec::Pool;
//! use astral_fleet::{try_run_fleet_campaign_with, FleetCampaign, FleetPolicy, WorkloadConfig};
//! use astral_topo::{build_astral, AstralParams};
//!
//! let topo = build_astral(&AstralParams::sim_small());
//! let campaign = FleetCampaign {
//!     workload: WorkloadConfig { jobs: 3, ..WorkloadConfig::default() },
//!     ..FleetCampaign::default()
//! };
//! let policy = FleetPolicy::default();
//! let report =
//!     try_run_fleet_campaign_with(&Pool::from_env(), &topo, &policy, &campaign, RunnerConfig::default())
//!         .expect("valid policy and campaign");
//! assert_eq!(report.jobs.len(), 3);
//! ```

#![warn(missing_docs)]

mod controller;
mod placement;
mod policy;
mod report;
mod workload;

pub use controller::{
    try_run_fleet_campaign_traced, try_run_fleet_campaign_with, FleetCampaign, FleetFault,
    FleetFaultConfig, FleetFaultKind, EST_ITER_OVERHEAD,
};
pub use placement::{PlacementEngine, PlacementError, ROWS_PER_CDU_LOOP};
pub use policy::{FleetError, FleetPolicy, PlacementStrategy};
pub use report::{FleetReport, JobOutcome, JobStatus};
pub use workload::{generate_workload, template_by_name, JobClass, JobRequest, WorkloadConfig};

//! # astral-core — the Astral infrastructure facade
//!
//! Ties the substrates together the way the paper's Figure 1 does: the
//! network architecture at the bottom, the monitoring system and Seer on
//! top, plus the physical plant (power + cooling).
//!
//! * [`AstralInfrastructure`] — deploy a fabric, place jobs
//!   (block-local or fragmented), evaluate training runs on the simulated
//!   testbed, calibrate a Seer against it, and run fault-diagnosis
//!   pipelines.
//! * [`PlacementPolicy`] / [`place_job`] — the flexibility axis of §2.
//! * [`try_run_cascade_placed`] / [`RecoveryPolicy`] — the closed-loop
//!   failure lifecycle engine (detect → localize → mitigate → resume)
//!   with goodput/MTTR accounting (§5, Figure 10). It is an explicit
//!   state machine — each iteration advances, retries, rolls back to the
//!   last checkpoint, or aborts, and one ledger books its wall clock —
//!   on one run path:
//!   correlated power/cooling/optics cascades ([`CascadeScript`]) and
//!   network faults flow through the same lifecycle, with graceful
//!   degradation and Seer-gated proactive mitigation competing against
//!   the reactive ladder. [`try_run_training`] is the network-faults-only
//!   shorthand, and [`try_run_campaign_battery_with`] runs seeded
//!   [`FaultCampaign`]s in parallel.
//!
//! ```
//! use astral_core::{AstralInfrastructure, PlacementPolicy};
//! use astral_topo::AstralParams;
//!
//! let infra = AstralInfrastructure::deploy(AstralParams::sim_small());
//! assert_eq!(infra.scale().gpus_total, 256);
//! let placement = infra.place(64, PlacementPolicy::BlockLocal);
//! assert_eq!(placement.len(), 64);
//! ```

#![warn(missing_docs)]

pub mod cascade;
mod infra;
mod placement;
pub mod recovery;
pub mod replay;

pub use cascade::{
    rack_row_index, rack_rows, try_run_campaign_battery_with, try_run_cascade_placed, CampaignRun,
    CascadeAttribution, CascadeClass, CascadeReport, CascadeScript, FaultCampaign, HazardRates,
    SubstrateFault,
};
pub use infra::{AstralInfrastructure, JobEvaluation};
pub use placement::{place_job, pods_touched, PlacementPolicy};
pub use recovery::{
    trace_codes, try_run_training, AbortReason, FaultClass, FaultScript, Incident, InjectedFault,
    InjectionRecord, JobPlacement, MitigationAction, PolicyError, RecoveryPolicy, RecoveryReport,
    TrainingJobSpec,
};
pub use replay::{ReplayDivergence, ReplayOutcome, TraceReplayer};

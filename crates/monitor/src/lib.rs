//! # astral-monitor — full-stack monitoring and hierarchical diagnosis
//!
//! The reproduction of Astral's monitoring system (paper §3): layered
//! telemetry from the application layer (NCCL timeline) down to the
//! physical layer (per-link ECN/PFC counters, host health), and the
//! cross-host + hierarchical correlation analyzer that walks a failure
//! manifestation down to its root cause.
//!
//! * [`Snapshot`] — one observation window of all four monitoring layers.
//! * [`diagnose`] — the §3.3 algorithm as one drill-down: manifestation
//!   detection, threshold-agnostic cross-host comparison, Branch #1
//!   (computation → physical logs) and Branch #2 (communication → QP →
//!   path overlap / INT hop delays → switch counters), ending in one
//!   [`Diagnosis`] whose [`Culprit`] says where the fault sits.
//! * [`OnlineDetector`] — incremental per-iteration anomaly detection,
//!   the entry point the closed-loop recovery engine polls mid-training.
//! * [`GrayDetector`] — suspicion-scored classification of partial and
//!   intermittent faults (flapping links, degrading optics, slow hosts)
//!   that never trip a clean fail-stop alarm.
//! * [`CorrelationMiner`] — pairwise co-occurrence of anomaly signals
//!   over sliding windows of a recorded `astral-trace` timeline,
//!   distilled into the [`CorrelationPrior`] that orders the analyzer's
//!   drill-down (substrate-first when substrate onsets are independent
//!   of comm faults).
//! * [`run_fault_scenario`] — failure injection over the flow-level
//!   simulator, standing in for production incidents: one step per phase
//!   (fabric faults, the training window with mid-window link faults, the
//!   INT probe window, the snapshot harvest, per-rank symptoms), with the
//!   ground truth as a [`Culprit`] that [`Culprit::localizes`] scores a
//!   verdict against.
//! * [`mttlf`] — the Figure 10 time-to-locate model (manual bisection vs
//!   analyzer drill-down), priced by the paper-calibrated `MANUAL_*` and
//!   `ANALYZER_*` constants.
//! * [`offline`] — pre-delivery toolsets: wiring verification, config
//!   consistency, GPU burn.
//! * [`overhead`] — Appendix C monitoring-overhead accounting: free
//!   functions of the cluster size over the paper's constants
//!   (≈0.8 Mbit/s mirrored per node, 15-day INT retention).

#![warn(missing_docs)]

mod analyzer;
mod correlate;
mod gray;
pub mod mttlf;
pub mod offline;
mod online;
pub mod overhead;
mod scenario;
mod snapshot;
mod taxonomy;

pub use analyzer::{diagnose, Culprit, Diagnosis, FLAP_EDGES_MIN};
pub use correlate::{CorrelationMatrix, CorrelationMiner, CorrelationPrior, Signal, SIGNALS};
pub use gray::{GrayDetector, GrayEdge, GrayEvent, GrayPattern, GraySample, GrayVerdict};
pub use online::{OnlineAlarm, OnlineDetector};
pub use scenario::{run_fault_scenario, Fault, ScenarioConfig, ScenarioOutcome};
pub use snapshot::{CannedProber, HostHealth, IntProber, JobDesc, RankProgress, Snapshot};
pub use taxonomy::{
    manifestation_distribution, root_cause_distribution, CauseClass, Manifestation, RootCause,
};

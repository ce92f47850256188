//! # astral-power — the distributed HVDC power substrate
//!
//! Reproduces the power side of Astral's physical deployment (§2.2, §5):
//!
//! * [`PowerChain`] — AC/UPS vs HVDC delivery efficiency chains.
//! * [`HvdcUnit`] — per-row distributed HVDC with the 30% elastic rack
//!   budget and battery smoothing of training load swings (Figure 4).
//! * [`power_trace`] — GPU power traces from Seer timelines (Figure 15),
//!   priced by the per-activity intensities [`COMPUTE_INTENSITY`],
//!   [`MEMORY_INTENSITY`], [`COMM_INTENSITY`] and [`IDLE_INTENSITY`], and
//!   the daily tidal model with night-scheduled training (Figure 16).
//!
//! The paper's renewable supplement (§2.2: 22% of consumption from solar
//! and wind, 778 kt of CO₂ avoided) is not modelled.

#![warn(missing_docs)]

mod hvdc;
mod trace;

pub use hvdc::{HvdcUnit, PowerChain, PowerError, RackPower};
pub use trace::{
    peak_over_tdp, power_trace, DailyLoadModel, COMM_INTENSITY, COMPUTE_INTENSITY, IDLE_INTENSITY,
    MEMORY_INTENSITY,
};

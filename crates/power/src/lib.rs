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
//! * [`RenewableFleet`] — solar/wind supplement and CO₂ accounting.
//! * [`PowerDomains`] — which hosts share one HVDC unit: the power
//!   failure-domain query a blast-radius-aware fleet placement asks.

#![warn(missing_docs)]

mod domains;
mod hvdc;
mod renewable;
mod trace;

pub use domains::PowerDomains;
pub use hvdc::{HvdcUnit, PowerChain, PowerError, RackPower};
pub use renewable::{co2_avoided_kg, paper_renewable_kwh, RenewableFleet, GRID_KG_CO2_PER_KWH};
pub use trace::{
    peak_over_tdp, power_trace, DailyLoadModel, COMM_INTENSITY, COMPUTE_INTENSITY, IDLE_INTENSITY,
    MEMORY_INTENSITY,
};

//! # astral-cooling — air–liquid integrated cooling and PUE
//!
//! Reproduces the thermal side of Astral's physical deployment (§2.2):
//!
//! * [`RackRow`] — a steady-state rack-row thermal model showing how
//!   side-intake airflow spreads inter-rack temperature by ~1 °C while the
//!   bottom-up optimization collapses it to ~0.1 °C (Figure 5).
//! * [`FacilityConfig`] — the air–liquid integrated cooling system with a
//!   shared primary cold source, and the PUE accounting behind Figure 6's
//!   16.34% average improvement; the cooling plant's COPs are the
//!   constants [`AIR_COP`] and [`LIQUID_COP`].

#![warn(missing_docs)]

mod airflow;
mod integrated;

pub use airflow::{paper_row, Airflow, CoolingError, RackRow};
pub use integrated::{
    mean_pue_improvement, pue_evolution, FacilityConfig, AIR_COP, BAD_AIRFLOW_PENALTY, LIQUID_COP,
};

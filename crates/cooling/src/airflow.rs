//! Rack-row thermal model with airflow optimization (paper §2.2, Figure 5).
//!
//! High-density racks are cooled by a shared airflow. Two intake geometries
//! are modeled:
//!
//! * **Side intake** — cool air enters from both ends of the row. The air
//!   velocity near the outlets is high, which (Bernoulli) lowers static
//!   pressure and *reduces* the air drawn into nearby racks: racks close to
//!   the outlet run hotter, spreading inter-rack temperature by ~1 °C.
//! * **Bottom-up intake** — a raised floor with a much larger
//!   cross-sectional area delivers moderate-velocity air evenly; the
//!   spread collapses to ~0.1 °C.
//!
//! The model is a steady-state energy balance per rack:
//! `T_rack = T_inlet + Q / (ρ · c_p · V_rack)`, with the per-rack volumetric
//! flow `V_rack` set by the intake geometry.

use serde::{Deserialize, Serialize};

/// Air density × specific heat, J/(m³·K).
const RHO_CP: f64 = 1.2 * 1005.0;

/// Validation failures on user-supplied thermal-model inputs. The `try_`
/// constructors return these instead of letting NaN heat loads or zero
/// airflow poison every downstream temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoolingError {
    /// A heat load was NaN or infinite.
    NonFiniteHeat {
        /// The offending value, watts.
        value: f64,
    },
    /// A heat load that must be ≥ 0 was negative.
    NegativeHeat {
        /// The offending value, watts.
        value: f64,
    },
    /// The total supply airflow must be finite and > 0 (per-rack
    /// temperature divides by the rack's flow share of it).
    NonPositiveFlow {
        /// The offending flow, m³/s.
        flow_m3s: f64,
    },
    /// The inlet temperature was NaN or infinite.
    NonFiniteInlet {
        /// The offending value, °C.
        inlet_c: f64,
    },
    /// A row needs at least one rack.
    EmptyRow,
    /// A blend/boost fraction must lie in [0, 1].
    FracOutOfRange {
        /// The offending fraction.
        frac: f64,
    },
}

impl std::fmt::Display for CoolingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoolingError::NonFiniteHeat { value } => {
                write!(f, "heat load must be finite, got {value}")
            }
            CoolingError::NegativeHeat { value } => {
                write!(f, "heat load must be non-negative, got {value}")
            }
            CoolingError::NonPositiveFlow { flow_m3s } => {
                write!(f, "total airflow must be > 0 m³/s, got {flow_m3s}")
            }
            CoolingError::NonFiniteInlet { inlet_c } => {
                write!(f, "inlet temperature must be finite, got {inlet_c}")
            }
            CoolingError::EmptyRow => write!(f, "a rack row needs at least one rack"),
            CoolingError::FracOutOfRange { frac } => {
                write!(f, "fraction must lie in [0, 1], got {frac}")
            }
        }
    }
}

impl std::error::Error for CoolingError {}

/// Intake geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Airflow {
    /// Horizontal intake from both row ends (the problematic original).
    SideIntake,
    /// Vertical bottom-up intake (the optimization).
    BottomUp,
}

/// A row of racks under shared airflow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackRow {
    /// Heat load per rack, watts.
    pub heat_w: Vec<f64>,
    /// Supply (inlet) air temperature, °C.
    pub inlet_c: f64,
    /// Total supply airflow, m³/s.
    pub total_flow_m3s: f64,
}

impl RackRow {
    /// A uniform row.
    pub fn uniform(racks: usize, heat_w: f64, inlet_c: f64, total_flow_m3s: f64) -> Self {
        RackRow {
            heat_w: vec![heat_w; racks],
            inlet_c,
            total_flow_m3s,
        }
    }

    /// A validated row: heat loads finite and non-negative, inlet finite,
    /// total flow finite and strictly positive, at least one rack.
    pub fn try_new(
        heat_w: Vec<f64>,
        inlet_c: f64,
        total_flow_m3s: f64,
    ) -> Result<Self, CoolingError> {
        if heat_w.is_empty() {
            return Err(CoolingError::EmptyRow);
        }
        for &q in &heat_w {
            if !q.is_finite() {
                return Err(CoolingError::NonFiniteHeat { value: q });
            }
            if q < 0.0 {
                return Err(CoolingError::NegativeHeat { value: q });
            }
        }
        if !inlet_c.is_finite() {
            return Err(CoolingError::NonFiniteInlet { inlet_c });
        }
        if total_flow_m3s <= 0.0 || !total_flow_m3s.is_finite() {
            return Err(CoolingError::NonPositiveFlow {
                flow_m3s: total_flow_m3s,
            });
        }
        Ok(RackRow {
            heat_w,
            inlet_c,
            total_flow_m3s,
        })
    }

    /// Per-rack airflow share under the given geometry.
    ///
    /// Side intake: velocity is highest at the two row ends (the outlets of
    /// the supply ducts); the entrainment loss reduces effective flow into
    /// racks near the ends. Bottom-up: uniform.
    fn flow_share(&self, mode: Airflow) -> Vec<f64> {
        let n = self.heat_w.len();
        // Entrainment deficit decays with distance from the nearer row
        // end; its magnitude is the geometry's defect. Side intake: strong
        // (high outlet velocity, Bernoulli suction); bottom-up: a residual
        // plenum nonuniformity two orders smaller.
        let deficit = match mode {
            Airflow::SideIntake => 0.070,
            Airflow::BottomUp => 0.008,
        };
        let raw: Vec<f64> = (0..n)
            .map(|i| {
                let from_end = i.min(n - 1 - i) as f64;
                1.0 - deficit * (-from_end / 1.5).exp()
            })
            .collect();
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|r| r / sum).collect()
    }

    /// Steady-state rack temperatures, °C.
    pub fn temperatures(&self, mode: Airflow) -> Vec<f64> {
        self.flow_share(mode)
            .iter()
            .zip(&self.heat_w)
            .map(|(&share, &q)| {
                let v = share * self.total_flow_m3s;
                self.inlet_c + q / (RHO_CP * v)
            })
            .collect()
    }

    /// Steady-state rack temperatures with the flow-reroute mitigation
    /// engaged: louvers/valves steer a `boost` fraction of the supply from
    /// the geometric distribution toward a heat-proportional one (hot racks
    /// receive extra flow at the expense of cool ones). `boost = 0` is
    /// [`RackRow::temperatures`]; `boost = 1` equalizes temperatures at the
    /// row mean for the available flow. Total flow is conserved — reroute
    /// trades spread for nothing, which is exactly why it can hold a
    /// pump-degraded row below its throttle point.
    pub fn temperatures_rerouted(
        &self,
        mode: Airflow,
        boost: f64,
    ) -> Result<Vec<f64>, CoolingError> {
        if !(0.0..=1.0).contains(&boost) || !boost.is_finite() {
            return Err(CoolingError::FracOutOfRange { frac: boost });
        }
        let geo = self.flow_share(mode);
        let total_heat: f64 = self.heat_w.iter().sum();
        let n = self.heat_w.len();
        let shares: Vec<f64> = geo
            .iter()
            .zip(&self.heat_w)
            .map(|(&g, &q)| {
                let proportional = if total_heat > 0.0 {
                    q / total_heat
                } else {
                    1.0 / n as f64
                };
                (1.0 - boost) * g + boost * proportional
            })
            .collect();
        Ok(shares
            .iter()
            .zip(&self.heat_w)
            .map(|(&share, &q)| {
                let v = share * self.total_flow_m3s;
                if v > 0.0 {
                    self.inlet_c + q / (RHO_CP * v)
                } else {
                    self.inlet_c
                }
            })
            .collect())
    }

    /// Max − min rack temperature, °C (Figure 5's metric).
    pub fn temperature_spread(&self, mode: Airflow) -> f64 {
        let t = self.temperatures(mode);
        let max = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = t.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }

    /// Mean rack temperature, °C.
    pub fn mean_temperature(&self, mode: Airflow) -> f64 {
        let t = self.temperatures(mode);
        t.iter().sum::<f64>() / t.len() as f64
    }
}

/// The paper-scale row: parameters chosen so side intake spreads ≈1 °C and
/// bottom-up ≈0.1 °C (Figure 5's reported values).
pub fn paper_row() -> RackRow {
    RackRow::uniform(12, 40_000.0, 22.0, 2.4 * 12.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_intake_spread_matches_figure_5a() {
        let row = paper_row();
        let spread = row.temperature_spread(Airflow::SideIntake);
        assert!(
            (0.7..1.4).contains(&spread),
            "side-intake spread ≈1 °C, got {spread:.2}"
        );
    }

    #[test]
    fn bottom_up_spread_matches_figure_5b() {
        let row = paper_row();
        let spread = row.temperature_spread(Airflow::BottomUp);
        assert!(spread < 0.15, "bottom-up spread ≈0.11 °C, got {spread:.3}");
    }

    #[test]
    fn bottom_up_also_lowers_mean_hotspot() {
        let row = paper_row();
        // Identical total flow: the mean barely moves, but the max drops.
        let side = row.temperatures(Airflow::SideIntake);
        let bottom = row.temperatures(Airflow::BottomUp);
        let max_side = side.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let max_bottom = bottom.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max_bottom < max_side);
    }

    #[test]
    fn flow_shares_sum_to_one() {
        let row = paper_row();
        for mode in [Airflow::SideIntake, Airflow::BottomUp] {
            let s: f64 = row.flow_share(mode).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constructors_reject_bad_thermal_inputs() {
        assert!(matches!(
            RackRow::try_new(Vec::new(), 22.0, 1.0),
            Err(CoolingError::EmptyRow)
        ));
        assert!(matches!(
            RackRow::try_new(vec![f64::NAN], 22.0, 1.0),
            Err(CoolingError::NonFiniteHeat { .. })
        ));
        assert!(matches!(
            RackRow::try_new(vec![-1.0], 22.0, 1.0),
            Err(CoolingError::NegativeHeat { .. })
        ));
        assert!(matches!(
            RackRow::try_new(vec![1000.0; 4], 22.0, 0.0),
            Err(CoolingError::NonPositiveFlow { .. })
        ));
        assert!(matches!(
            RackRow::try_new(vec![1000.0; 4], f64::INFINITY, 1.0),
            Err(CoolingError::NonFiniteInlet { .. })
        ));
        assert!(RackRow::try_new(vec![1000.0; 4], 22.0, 1.0).is_ok());
    }

    #[test]
    fn flow_reroute_collapses_the_spread_without_extra_flow() {
        // A degraded pump: the paper row at 60% of its design flow.
        let p = paper_row();
        let row = RackRow::try_new(p.heat_w, p.inlet_c, p.total_flow_m3s * 0.6).unwrap();
        let raw = row.temperatures(Airflow::SideIntake);
        let rerouted = row.temperatures_rerouted(Airflow::SideIntake, 0.9).unwrap();
        let spread = |t: &[f64]| {
            t.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - t.iter().copied().fold(f64::INFINITY, f64::min)
        };
        assert!(spread(&rerouted) < spread(&raw) * 0.25);
        // The hottest rack gets strictly cooler — the point of the valve.
        let max = |t: &[f64]| t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max(&rerouted) < max(&raw));
        assert!(row.temperatures_rerouted(Airflow::SideIntake, 1.5).is_err());
    }

    #[test]
    fn hotter_racks_are_near_the_row_ends_with_side_intake() {
        let row = paper_row();
        let t = row.temperatures(Airflow::SideIntake);
        let mid = t.len() / 2;
        assert!(t[0] > t[mid]);
        assert!(t[t.len() - 1] > t[mid]);
    }
}

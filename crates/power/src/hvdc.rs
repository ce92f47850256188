//! The distributed HVDC power system (paper §2.2, Figure 4).
//!
//! Two delivery chains are modeled:
//!
//! * **Traditional AC + UPS** — medium-voltage transformer → double-
//!   conversion UPS → PDU. Every conversion loses energy, and the UPS
//!   battery's usable capacity fluctuates 20–30% under LLM load swings.
//! * **Distributed HVDC + battery** — transformer → rectifier → DC bus with
//!   the battery floating directly on it: one conversion fewer, finer
//!   compensation granularity, and native compatibility with solar/wind.
//!
//! Each HVDC unit powers one row of racks (plus its cooling), provisioning
//! the row's total TDP while letting any single rack elastically draw up to
//! +30% above its TDP.

use serde::{Deserialize, Serialize};

/// Validation failures on user-supplied power-model inputs. Well-formed
/// callers never produce these; the `try_` constructors and solvers return
/// them instead of silently propagating NaNs (or dividing by zero) through
/// downstream accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerError {
    /// A wattage (TDP, demand, battery) was NaN or infinite.
    NonFiniteWatts {
        /// The offending value.
        value: f64,
    },
    /// A wattage that must be ≥ 0 was negative.
    NegativeWatts {
        /// The offending value.
        value: f64,
    },
    /// A sampling interval that must be > 0 was zero, negative, or NaN.
    NonPositiveInterval {
        /// The offending interval, seconds.
        interval_s: f64,
    },
    /// A demand vector's length does not match the unit's rack count.
    DemandMismatch {
        /// Demand entries supplied.
        demand: usize,
        /// Racks on the unit.
        racks: usize,
    },
}

impl std::fmt::Display for PowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerError::NonFiniteWatts { value } => {
                write!(f, "wattage must be finite, got {value}")
            }
            PowerError::NegativeWatts { value } => {
                write!(f, "wattage must be non-negative, got {value}")
            }
            PowerError::NonPositiveInterval { interval_s } => {
                write!(f, "interval must be > 0 seconds, got {interval_s}")
            }
            PowerError::DemandMismatch { demand, racks } => {
                write!(f, "demand vector has {demand} entries for {racks} racks")
            }
        }
    }
}

impl std::error::Error for PowerError {}

fn check_watts(value: f64) -> Result<f64, PowerError> {
    if !value.is_finite() {
        return Err(PowerError::NonFiniteWatts { value });
    }
    if value < 0.0 {
        return Err(PowerError::NegativeWatts { value });
    }
    Ok(value)
}

/// A power delivery chain as a product of stage efficiencies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerChain {
    /// Named stages with their efficiencies in (0, 1].
    pub stages: Vec<(String, f64)>,
}

impl PowerChain {
    /// Traditional AC path: MV transformer, double-conversion UPS, PDU.
    pub fn traditional_ac() -> Self {
        PowerChain {
            stages: vec![
                ("MV transformer".into(), 0.985),
                ("UPS double conversion".into(), 0.90),
                ("PDU".into(), 0.985),
            ],
        }
    }

    /// Distributed HVDC path: MV transformer, rectifier, DC bus (battery
    /// floats on the bus — no conversion in the normal path).
    pub fn hvdc() -> Self {
        PowerChain {
            stages: vec![
                ("MV transformer".into(), 0.985),
                ("HVDC rectifier".into(), 0.965),
                ("DC bus".into(), 0.995),
            ],
        }
    }

    /// End-to-end delivery efficiency.
    pub fn efficiency(&self) -> f64 {
        self.stages.iter().map(|&(_, e)| e).product()
    }
}

/// One rack's power envelope.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RackPower {
    /// Thermal design power of the rack's equipment, watts.
    pub tdp_w: f64,
}

impl RackPower {
    /// A validated rack envelope: TDP must be finite and non-negative.
    pub fn try_new(tdp_w: f64) -> Result<Self, PowerError> {
        Ok(RackPower {
            tdp_w: check_watts(tdp_w)?,
        })
    }
}

/// One distributed HVDC unit serving a row of racks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HvdcUnit {
    /// Racks on this unit's DC bus.
    pub racks: Vec<RackPower>,
    /// Elastic headroom a single rack may draw above TDP (paper: 30%).
    pub elastic_frac: f64,
    /// Battery energy, watt-hours.
    pub battery_wh: f64,
}

impl HvdcUnit {
    /// A unit provisioned at the row's total TDP with the paper's 30%
    /// per-rack elasticity.
    pub fn for_row(racks: Vec<RackPower>, battery_wh: f64) -> Self {
        HvdcUnit {
            racks,
            elastic_frac: 0.30,
            battery_wh,
        }
    }

    /// [`HvdcUnit::for_row`] with validated inputs: every rack TDP and the
    /// battery energy must be finite and non-negative.
    pub fn try_for_row(racks: Vec<RackPower>, battery_wh: f64) -> Result<Self, PowerError> {
        for r in &racks {
            check_watts(r.tdp_w)?;
        }
        check_watts(battery_wh)?;
        Ok(HvdcUnit::for_row(racks, battery_wh))
    }

    /// Shared budget: the row's total TDP (paper: "the distributed HVDC
    /// power supply for shared racks remains constant, approximately their
    /// TDP").
    pub fn shared_budget_w(&self) -> f64 {
        self.racks.iter().map(|r| r.tdp_w).sum()
    }

    /// Allocate instantaneous demands: each rack may exceed its TDP by the
    /// elastic fraction as long as the row total stays within budget;
    /// excess demand is clipped (voltage droop / power capping).
    ///
    /// Panics on invalid input; use [`HvdcUnit::try_allocate`] to get the
    /// typed [`PowerError`] instead.
    pub fn allocate(&self, demand_w: &[f64]) -> Vec<f64> {
        match self.try_allocate(demand_w) {
            Ok(a) => a,
            Err(e) => panic!("HvdcUnit::allocate: {e}"),
        }
    }

    /// Fallible [`HvdcUnit::allocate`]: rejects a demand vector whose
    /// length disagrees with the rack count or whose entries are negative
    /// or non-finite.
    pub fn try_allocate(&self, demand_w: &[f64]) -> Result<Vec<f64>, PowerError> {
        if demand_w.len() != self.racks.len() {
            return Err(PowerError::DemandMismatch {
                demand: demand_w.len(),
                racks: self.racks.len(),
            });
        }
        for &d in demand_w {
            check_watts(d)?;
        }
        let mut alloc: Vec<f64> = demand_w
            .iter()
            .zip(&self.racks)
            .map(|(&d, r)| d.min(r.tdp_w * (1.0 + self.elastic_frac)))
            .collect();
        let budget = self.shared_budget_w();
        let total: f64 = alloc.iter().sum();
        if total > budget {
            let scale = budget / total;
            for a in &mut alloc {
                *a *= scale;
            }
        }
        Ok(alloc)
    }

    /// How long the battery can carry a grid-side supply deficit before the
    /// row must be power-capped (the HVDC ride-through window of §2.2: the
    /// battery floats on the DC bus and masks rectifier/grid sags). Uses
    /// the same half-charged starting state as [`HvdcUnit::smooth`].
    /// Returns `f64::INFINITY` when the deficit is non-positive.
    pub fn ride_through_s(&self, deficit_w: f64) -> f64 {
        if deficit_w <= 0.0 {
            return f64::INFINITY;
        }
        (self.battery_wh / 2.0) * 3600.0 / deficit_w
    }

    /// Battery smoothing: given a demand time series (watts, fixed
    /// interval), compute the grid-side draw with the battery absorbing
    /// deviations from the running mean. Returns `(grid_draw, relative
    /// fluctuation before, after)`.
    ///
    /// Panics on a non-positive interval; use [`HvdcUnit::try_smooth`] to
    /// get the typed [`PowerError`] instead.
    pub fn smooth(&self, demand_w: &[f64], interval_s: f64) -> (Vec<f64>, f64, f64) {
        match self.try_smooth(demand_w, interval_s) {
            Ok(r) => r,
            Err(e) => panic!("HvdcUnit::smooth: {e}"),
        }
    }

    /// Fallible [`HvdcUnit::smooth`]: rejects a zero/negative/NaN interval
    /// (the per-step energy conversion divides by it) and non-finite or
    /// negative demand samples.
    pub fn try_smooth(
        &self,
        demand_w: &[f64],
        interval_s: f64,
    ) -> Result<(Vec<f64>, f64, f64), PowerError> {
        if interval_s <= 0.0 || !interval_s.is_finite() {
            return Err(PowerError::NonPositiveInterval { interval_s });
        }
        for &d in demand_w {
            check_watts(d)?;
        }
        if demand_w.is_empty() {
            return Ok((Vec::new(), 0.0, 0.0));
        }
        let mean: f64 = demand_w.iter().sum::<f64>() / demand_w.len() as f64;
        let mut grid = Vec::with_capacity(demand_w.len());
        let mut soc_wh = self.battery_wh / 2.0;
        for &d in demand_w {
            let deviation = d - mean;
            // Battery absorbs the deviation while state-of-charge allows.
            let wh_needed = deviation * interval_s / 3600.0;
            let absorbed = if wh_needed > 0.0 {
                wh_needed.min(soc_wh)
            } else {
                wh_needed.max(soc_wh - self.battery_wh)
            };
            soc_wh -= absorbed;
            grid.push(d - absorbed * 3600.0 / interval_s);
        }
        let fluct = |xs: &[f64]| -> f64 {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let peak = xs.iter().fold(0.0f64, |a, &x| a.max((x - m).abs()));
            if m > 0.0 {
                peak / m
            } else {
                0.0
            }
        };
        Ok((grid.clone(), fluct(demand_w), fluct(&grid)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> HvdcUnit {
        HvdcUnit::for_row(vec![RackPower { tdp_w: 40_000.0 }; 8], 100_000.0)
    }

    #[test]
    fn hvdc_chain_beats_ac_chain() {
        let ac = PowerChain::traditional_ac().efficiency();
        let dc = PowerChain::hvdc().efficiency();
        assert!(dc > ac);
        assert!(ac > 0.85 && ac < 0.90, "AC ≈ 0.87: {ac}");
        assert!(dc > 0.93 && dc < 0.96, "HVDC ≈ 0.945: {dc}");
    }

    #[test]
    fn rack_can_exceed_tdp_by_30_percent() {
        let u = row();
        // One rack bursts to 1.3×TDP while others idle below TDP.
        let mut demand = vec![30_000.0; 8];
        demand[3] = 52_000.0; // 1.3 × 40k
        let alloc = u.allocate(&demand);
        assert!((alloc[3] - 52_000.0).abs() < 1.0);
        // Above 1.3× is clipped.
        demand[3] = 80_000.0;
        let alloc = u.allocate(&demand);
        assert!((alloc[3] - 52_000.0).abs() < 1.0);
    }

    #[test]
    fn row_budget_is_enforced() {
        let u = row();
        // Every rack trying to burst at once cannot exceed the shared TDP.
        let demand = vec![52_000.0; 8];
        let alloc = u.allocate(&demand);
        let total: f64 = alloc.iter().sum();
        assert!(total <= u.shared_budget_w() * 1.0001);
    }

    #[test]
    fn zero_interval_is_a_typed_error_not_a_division() {
        let u = row();
        let demand = vec![250_000.0; 4];
        assert_eq!(
            u.try_smooth(&demand, 0.0),
            Err(PowerError::NonPositiveInterval { interval_s: 0.0 })
        );
        assert!(matches!(
            u.try_smooth(&demand, f64::NAN),
            Err(PowerError::NonPositiveInterval { .. })
        ));
        assert!(matches!(
            u.try_smooth(&demand, -1.0),
            Err(PowerError::NonPositiveInterval { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "HvdcUnit::smooth")]
    fn smooth_panics_with_the_typed_message_on_zero_interval() {
        row().smooth(&[1.0], 0.0);
    }

    #[test]
    fn constructors_reject_non_finite_and_negative_watts() {
        assert!(matches!(
            RackPower::try_new(f64::NAN),
            Err(PowerError::NonFiniteWatts { .. })
        ));
        assert!(matches!(
            RackPower::try_new(-5.0),
            Err(PowerError::NegativeWatts { .. })
        ));
        assert!(RackPower::try_new(40_000.0).is_ok());
        assert!(matches!(
            HvdcUnit::try_for_row(
                vec![RackPower {
                    tdp_w: f64::INFINITY
                }],
                1.0
            ),
            Err(PowerError::NonFiniteWatts { .. })
        ));
        assert!(matches!(
            HvdcUnit::try_for_row(vec![RackPower { tdp_w: 1.0 }], -1.0),
            Err(PowerError::NegativeWatts { .. })
        ));
    }

    #[test]
    fn allocate_rejects_mismatched_or_bad_demand() {
        let u = row();
        assert_eq!(
            u.try_allocate(&[1.0; 3]),
            Err(PowerError::DemandMismatch {
                demand: 3,
                racks: 8
            })
        );
        let mut demand = vec![30_000.0; 8];
        demand[2] = f64::NAN;
        assert!(matches!(
            u.try_allocate(&demand),
            Err(PowerError::NonFiniteWatts { .. })
        ));
    }

    #[test]
    fn ride_through_window_scales_with_battery_and_deficit() {
        let u = row(); // 100 kWh battery, half charged
        let one_hour_at_50kw = u.ride_through_s(50_000.0);
        assert!((one_hour_at_50kw - 3600.0).abs() < 1.0);
        // Double the deficit, half the window.
        assert!((u.ride_through_s(100_000.0) - 1800.0).abs() < 1.0);
        assert_eq!(u.ride_through_s(0.0), f64::INFINITY);
        assert_eq!(u.ride_through_s(-10.0), f64::INFINITY);
    }

    #[test]
    fn battery_smooths_fluctuation() {
        let u = row();
        // Square-wave demand like training iterations: compute peaks, comm
        // troughs.
        let demand: Vec<f64> = (0..120)
            .map(|i| if i % 2 == 0 { 300_000.0 } else { 200_000.0 })
            .collect();
        let (_, before, after) = u.smooth(&demand, 1.0);
        assert!(before > 0.15, "raw fluctuation ≈ 20%: {before}");
        assert!(
            after < before * 0.2,
            "HVDC battery should flatten the draw: {after} vs {before}"
        );
    }
}

//! Green energy supplement (paper §2.2): roof-mounted solar and flatland
//! wind stations feed the HVDC bus directly. The 2024 report: 22% of
//! consumption renewable, 778 thousand tons of CO₂ avoided.

use astral_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Grid carbon intensity used for avoided-emission accounting,
/// kg CO₂ per kWh (China grid average).
pub const GRID_KG_CO2_PER_KWH: f64 = 0.581;

/// A renewable generation fleet attached to the DC bus.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RenewableFleet {
    /// Solar nameplate capacity, watts.
    pub solar_wp: f64,
    /// Wind nameplate capacity, watts.
    pub wind_wp: f64,
}

impl RenewableFleet {
    /// Solar output at hour `h` (bell over daytime, zero at night).
    pub fn solar_w(&self, h: u32) -> f64 {
        let h = h % 24;
        if !(6..=18).contains(&h) {
            return 0.0;
        }
        let x = (h as f64 - 12.0) / 6.0;
        self.solar_wp * (1.0 - x * x).max(0.0)
    }

    /// Wind output at hour `h` with a deterministic seeded gust model.
    pub fn wind_w(&self, h: u32, rng: &mut SimRng) -> f64 {
        let base = 0.25 + 0.15 * ((h as f64) * 0.7).sin().abs();
        (self.wind_wp * (base + 0.2 * rng.next_f64())).min(self.wind_wp)
    }

    /// Daily renewable energy in watt-hours.
    pub fn daily_wh(&self, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..24)
            .map(|h| self.solar_w(h) + self.wind_w(h, &mut rng))
            .sum()
    }
}

/// CO₂ avoided by `renewable_kwh` of generation, kilograms.
pub fn co2_avoided_kg(renewable_kwh: f64) -> f64 {
    renewable_kwh * GRID_KG_CO2_PER_KWH
}

/// Annual renewable kWh needed to avoid the paper's 778 kt of CO₂.
pub fn paper_renewable_kwh() -> f64 {
    778e6 / GRID_KG_CO2_PER_KWH
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solar_is_zero_at_night_and_peaks_at_noon() {
        let f = RenewableFleet {
            solar_wp: 1e6,
            wind_wp: 0.0,
        };
        assert_eq!(f.solar_w(2), 0.0);
        assert_eq!(f.solar_w(22), 0.0);
        assert!(f.solar_w(12) > f.solar_w(9));
        assert!((f.solar_w(12) - 1e6).abs() < 1.0);
    }

    #[test]
    fn daily_energy_is_seeded_and_bounded_by_the_hourly_models() {
        let f = RenewableFleet {
            solar_wp: 1e6,
            wind_wp: 1e6,
        };
        assert_eq!(f.daily_wh(7).to_bits(), f.daily_wh(7).to_bits());
        // Solar's daytime bell, 1 − ((h − 12)/6)² over h = 6..=18, sums to
        // 13 − 182/36 nameplate-hours; wind blows at 25–60% of nameplate
        // every hour.
        let solar: f64 = (0..24).map(|h| f.solar_w(h)).sum();
        assert!(
            (solar - 1e6 * (13.0 - 182.0 / 36.0)).abs() < 1.0,
            "solar {solar}"
        );
        let wind = f.daily_wh(7) - solar;
        assert!(
            (24.0 * 0.25e6..=24.0 * 0.6e6).contains(&wind),
            "wind {wind}"
        );
    }

    #[test]
    fn paper_co2_number_round_trips() {
        let kwh = paper_renewable_kwh();
        assert!((co2_avoided_kg(kwh) - 778e6).abs() < 1.0);
        // ~1.34 TWh of renewable generation — plausible for a hyperscale
        // fleet at 22%.
        assert!(kwh > 1e9 && kwh < 2e9);
    }
}

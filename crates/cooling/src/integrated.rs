//! The air–liquid integrated cooling system and PUE accounting
//! (paper §2.2 Optimization #2, Figure 6, §5 "Cooling system selection").
//!
//! Cold plates take the high-power components (GPUs), air handles the rest;
//! both share one primary cold source sized for 100% of the heat so the
//! liquid:air split can follow the workload. Liquid loops move heat far
//! more efficiently (higher COP) than air handlers, so PUE falls as the
//! liquid fraction rises. Both paths' COPs and the bad-airflow fan
//! penalty are the constants [`AIR_COP`], [`LIQUID_COP`] and
//! [`BAD_AIRFLOW_PENALTY`], shared by every facility generation.

use crate::airflow::Airflow;
use astral_power::PowerChain;
use serde::{Deserialize, Serialize};

/// Coefficient of performance of the air path (CRAH + chiller).
pub const AIR_COP: f64 = 3.2;
/// COP of the cold-plate liquid path.
pub const LIQUID_COP: f64 = 9.0;
/// Extra fan power penalty of a *badly organized* airflow (fraction of
/// air-side cooling power) — removed by the bottom-up optimization.
pub const BAD_AIRFLOW_PENALTY: f64 = 0.18;

/// Cooling power to remove `heat_w` with `liquid_frac` of the heat on cold
/// plates under the given airflow geometry.
fn cooling_power_w(heat_w: f64, liquid_frac: f64, airflow: Airflow) -> f64 {
    assert!((0.0..=1.0).contains(&liquid_frac));
    let liquid = heat_w * liquid_frac / LIQUID_COP;
    let mut air = heat_w * (1.0 - liquid_frac) / AIR_COP;
    if airflow == Airflow::SideIntake {
        air *= 1.0 + BAD_AIRFLOW_PENALTY;
    }
    liquid + air
}

/// A datacenter generation: power chain + cooling configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FacilityConfig {
    /// Power delivery chain.
    pub power: PowerChain,
    /// Fraction of IT heat on cold plates.
    pub liquid_frac: f64,
    /// Airflow geometry for the air-cooled remainder.
    pub airflow: Airflow,
    /// Miscellaneous facility overhead (lighting, offices) as a fraction of
    /// IT power.
    pub misc_frac: f64,
}

impl FacilityConfig {
    /// The traditional datacenter: AC/UPS power, all-air cooling with the
    /// original side-intake geometry.
    pub fn traditional() -> Self {
        FacilityConfig {
            power: PowerChain::traditional_ac(),
            liquid_frac: 0.0,
            airflow: Airflow::SideIntake,
            misc_frac: 0.03,
        }
    }

    /// The fully deployed Astral facility: HVDC power, bottom-up airflow,
    /// air–liquid integrated cooling with the GPU heat on cold plates.
    pub fn astral() -> Self {
        FacilityConfig {
            power: PowerChain::hvdc(),
            liquid_frac: 0.70,
            airflow: Airflow::BottomUp,
            misc_frac: 0.02,
        }
    }

    /// Power Usage Effectiveness: facility power over IT power.
    pub fn pue(&self) -> f64 {
        let it = 1.0f64;
        let power_loss = 1.0 / self.power.efficiency() - 1.0;
        let cooling = cooling_power_w(it, self.liquid_frac, self.airflow);
        (it + power_loss + cooling + self.misc_frac) / it
    }
}

/// The gradual deployment of Figure 6: month-by-month PUE as HVDC rollout,
/// airflow conversion, and cold-plate coverage progress over 18 months.
pub fn pue_evolution(months: u32) -> Vec<(u32, f64, f64)> {
    (0..months)
        .map(|m| {
            let progress = m as f64 / (months.saturating_sub(1)).max(1) as f64;
            let mut cfg = FacilityConfig::traditional();
            // HVDC rows convert early in the rollout (new rows arrive
            // HVDC-native).
            if progress > 0.15 {
                cfg.power = PowerChain::hvdc();
            }
            // Airflow conversion lands first (a facilities retrofit).
            if progress > 0.08 {
                cfg.airflow = Airflow::BottomUp;
            }
            // Cold-plate coverage ramps to 70% over the first 60% of the
            // rollout.
            cfg.liquid_frac = 0.70 * (progress / 0.55).min(1.0);
            cfg.misc_frac = 0.03 - 0.01 * progress;
            (m, cfg.pue(), FacilityConfig::traditional().pue())
        })
        .collect()
}

/// Mean relative PUE improvement of a rollout vs the traditional baseline.
pub fn mean_pue_improvement(evolution: &[(u32, f64, f64)]) -> f64 {
    let n = evolution.len() as f64;
    evolution
        .iter()
        .map(|&(_, astral, trad)| (trad - astral) / trad)
        .sum::<f64>()
        / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_pue_is_realistic() {
        let pue = FacilityConfig::traditional().pue();
        assert!(
            (1.40..1.60).contains(&pue),
            "traditional PUE ≈ 1.5: {pue:.3}"
        );
    }

    #[test]
    fn astral_pue_is_much_lower() {
        let pue = FacilityConfig::astral().pue();
        assert!((1.15..1.30).contains(&pue), "astral PUE ≈ 1.2: {pue:.3}");
    }

    #[test]
    fn full_deployment_improvement_matches_figure_6() {
        let trad = FacilityConfig::traditional().pue();
        let astral = FacilityConfig::astral().pue();
        let improvement = (trad - astral) / trad;
        // Paper: average PUE improved by 16.34% (we check the full-rollout
        // steady state lands in that band).
        assert!(
            (0.13..0.20).contains(&improvement),
            "improvement ≈16%: {:.2}%",
            improvement * 100.0
        );
    }

    #[test]
    fn evolution_is_monotonically_improving() {
        let evo = pue_evolution(18);
        assert_eq!(evo.len(), 18);
        for w in evo.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "PUE must not regress: {evo:?}");
        }
        assert!(evo.last().unwrap().1 < evo.first().unwrap().1 - 0.15);
    }

    #[test]
    fn liquid_fraction_drives_cooling_power_down() {
        let all_air = cooling_power_w(1.0, 0.0, Airflow::BottomUp);
        let mostly_liquid = cooling_power_w(1.0, 0.8, Airflow::BottomUp);
        assert!(mostly_liquid < all_air / 2.0);
    }

    #[test]
    fn airflow_geometry_taxes_the_air_path_only() {
        let side = cooling_power_w(1.0, 1.0, Airflow::SideIntake);
        let bottom = cooling_power_w(1.0, 1.0, Airflow::BottomUp);
        assert!((side - bottom).abs() < 1e-12, "pure-liquid is unaffected");
    }
}

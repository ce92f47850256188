//! Figure 6 — the evolution of PUE in production over the 18-month rollout.
//!
//! Paper: with the new cooling systems and power management, the average
//! PUE of the Astral infrastructure is reduced by up to 16.34%.

use crate::{Report, Scenario};
use astral_cooling::{mean_pue_improvement, pue_evolution, FacilityConfig};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig06",
        "Figure 6: PUE evolution in production",
        "average PUE improved by 16.34% vs the traditional facility",
    );

    let evo = pue_evolution(18);
    println!(
        "{:<8}{:>14}{:>16}{:>14}",
        "month", "astral PUE", "traditional", "improvement"
    );
    for &(m, astral, trad) in &evo {
        println!(
            "{:<8}{:>14.3}{:>16.3}{:>13.1}%",
            m,
            astral,
            trad,
            (trad - astral) / trad * 100.0
        );
    }

    let mean = mean_pue_improvement(&evo) * 100.0;
    let steady = (FacilityConfig::traditional().pue() - FacilityConfig::astral().pue())
        / FacilityConfig::traditional().pue()
        * 100.0;

    sc.series("month_astral_traditional_pue", &evo);
    sc.metric("mean_improvement_pct", mean);
    sc.metric("steady_state_improvement_pct", steady);
    sc.finish(&[
        (
            "mean improvement over rollout",
            format!("paper 16.34% average | measured {mean:.2}%"),
        ),
        (
            "steady-state improvement",
            format!("measured {steady:.2}% at full deployment"),
        ),
        (
            "absolute PUE",
            format!(
                "traditional {:.3} → astral {:.3}",
                FacilityConfig::traditional().pue(),
                FacilityConfig::astral().pue()
            ),
        ),
    ])
}

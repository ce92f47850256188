//! Figure 5 — temperature distribution under the two airflow geometries.
//!
//! Paper: side intake leaves inter-rack variation reaching 1 °C; the
//! bottom-up optimization brings it to 0.11 °C across all racks.

use crate::{Report, Scenario};
use astral_cooling::{paper_row, Airflow};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig05",
        "Figure 5: rack temperature distribution vs airflow",
        "side intake → ~1 °C inter-rack variation; bottom-up → 0.11 °C",
    );

    let row = paper_row();
    let side = row.temperatures(Airflow::SideIntake);
    let bottom = row.temperatures(Airflow::BottomUp);
    let spread_side = row.temperature_spread(Airflow::SideIntake);
    let spread_bottom = row.temperature_spread(Airflow::BottomUp);
    let mut temps: Vec<_> = side
        .iter()
        .zip(&bottom)
        .enumerate()
        .map(|(i, (&s, &b))| (i.to_string(), s, b))
        .collect();
    temps.push(("spread".into(), spread_side, spread_bottom));
    temps.push((
        "mean".into(),
        row.mean_temperature(Airflow::SideIntake),
        row.mean_temperature(Airflow::BottomUp),
    ));
    sc.table(
        "rack_temperatures",
        "rack | side intake (°C) | bottom-up (°C)",
        &temps,
    );

    sc.series("side_intake_temps_c", &side);
    sc.series("bottom_up_temps_c", &bottom);
    sc.metric("side_spread_c", spread_side);
    sc.metric("bottom_up_spread_c", spread_bottom);
    sc.finish(&[
        (
            "side-intake variation",
            format!("paper ~1 °C | measured {spread_side:.2} °C"),
        ),
        (
            "bottom-up variation",
            format!("paper 0.11 °C | measured {spread_bottom:.2} °C"),
        ),
    ])
}

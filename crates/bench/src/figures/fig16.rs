//! Figure 16 — GPU power usage over a day: the tidal pattern and the
//! constant-power-contract scheduling policy.
//!
//! Paper: inference power is high during the day and declines between
//! 10 p.m. and 8 a.m.; training is scheduled into the trough (cheap night
//! rentals) to keep total draw constant.

use crate::{Report, Scenario};
use astral_power::DailyLoadModel;

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig16",
        "Figure 16: daily GPU power (tidal pattern)",
        "inference tide: high day, low 10pm-8am; night-scheduled training \
         flattens total draw (constant-power contract)",
    );

    let tidal = DailyLoadModel {
        schedule_training_at_night: false,
        ..DailyLoadModel::default()
    };
    let flat = DailyLoadModel::default();

    let profile: Vec<(u64, f64, f64, f64)> = flat
        .day_profile()
        .into_iter()
        .map(|(h, i, t, tot)| (h as u64, i / 1e6, t / 1e6, tot / 1e6))
        .collect();
    sc.table(
        "day_profile",
        "hour | inference (MW) | training (MW) | total (MW)",
        &profile,
    );
    sc.table(
        "peak_to_trough",
        "load | ratio",
        &[
            ("inference only", tidal.tidal_ratio()),
            ("with night training", flat.tidal_ratio()),
        ],
    );
    sc.series("hour_inference_training_total_mw", &profile);
    sc.metric("inference_only_tidal_ratio", tidal.tidal_ratio());
    sc.metric("flattened_tidal_ratio", flat.tidal_ratio());
    sc.finish(&[
        (
            "tidal pattern",
            format!(
                "paper: high day / low 10pm-8am | inference-only ratio {:.2}",
                tidal.tidal_ratio()
            ),
        ),
        (
            "scheduling policy",
            format!(
                "paper: stable draw via night training | flattened ratio {:.2}",
                flat.tidal_ratio()
            ),
        ),
    ])
}

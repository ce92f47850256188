//! Figure 18 (Appendix B) — training performance with PP traffic across
//! datacenters vs the long-haul oversubscription ratio.
//!
//! Paper: 8:1 intra:cross oversubscription does not affect performance;
//! 32:1 causes 4.6% degradation. Long-haul fiber costs ≈70 $/km·month, so
//! the knee placement is an economic decision.

use crate::{Report, Scenario};
use astral_model::{GroupKind, ModelConfig, ParallelismConfig};
use astral_seer::NetworkSpec;

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig18",
        "Figure 18: PP across datacenters vs oversubscription",
        "8:1 oversubscription is free; 32:1 costs ~4.6%",
    );

    let seer = super::calibrated_seer();

    let mut model = ModelConfig::llama3_70b();
    model.layers = 64;
    let mut par = ParallelismConfig::new(8, 8, 16);
    par.microbatches = 16;

    let forecast = |net: NetworkSpec| seer(net).forecast_training(&model, &par).iteration_s;

    let base = forecast(NetworkSpec::astral());
    let mut degr_at = astral_sim::MulHashMap::default();
    let mut rows = vec![("single DC".to_string(), base, 0.0)];
    let mut sweep: Vec<(f64, f64)> = Vec::new();
    for ratio in [1.0f64, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let net = NetworkSpec::astral().with_crossdc(GroupKind::Pp, ratio, 300.0);
        let t = forecast(net);
        let d = (t / base - 1.0) * 100.0;
        degr_at.insert(ratio as u64, d);
        rows.push((format!("{ratio:.0}:1"), t, d));
        sweep.push((ratio, d));
    }
    sc.table(
        "pp_boundary_across_300_km",
        "oversubscription | iteration (s) | degradation (%)",
        &rows,
    );

    sc.series("oversub_ratio_vs_degradation_pct", &sweep);
    sc.metric("degradation_8to1_pct", degr_at[&8]);
    sc.metric("degradation_32to1_pct", degr_at[&32]);
    sc.finish(&[
        (
            "8:1 ratio",
            format!(
                "paper: does not affect performance | measured {:.2}% degradation",
                degr_at[&8]
            ),
        ),
        (
            "32:1 ratio",
            format!("paper: 4.6% degradation | measured {:.2}%", degr_at[&32]),
        ),
    ])
}

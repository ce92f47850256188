//! Figure 19 (Appendix) — training performance at scale: the near-linear
//! scaling that same-rail aggregation buys.
//!
//! Paper: Hunyuan-MoE training efficiency tracks GPU-scale expansion with
//! only a 0.6% performance loss at 8K GPUs.

use crate::{Report, Scenario};
use astral_model::{ModelConfig, ParallelismConfig};
use astral_seer::{GpuSpec, Seer, SeerConfig, Testbed};
use astral_topo::{build_astral, AstralParams};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig19",
        "Figure 19: training performance at scale (weak scaling)",
        "efficiency improvement consistent with GPU-scale expansion; 0.6% \
         loss at 8K GPUs",
    );

    let topo = build_astral(&AstralParams::sim_small());
    let testbed = Testbed::new(&topo, GpuSpec::h100());
    let mut calib_par = ParallelismConfig::new(4, 2, 4);
    calib_par.microbatches = 4;
    let cal = testbed.calibrate(&calib_par, 42);

    // Hunyuan-like MoE; weak scaling: grow DP (and the global batch with
    // it), keep per-replica work constant.
    let mut model = ModelConfig::hunyuan_moe_1t();
    model.layers = 32;
    let infra_seer = |par: &ParallelismConfig| {
        let mut net = astral_seer::NetworkSpec::astral();
        net.rails = 8;
        Seer::new(SeerConfig {
            gpu: GpuSpec::h100(),
            net,
            calibration: cal.clone(),
        })
        .forecast_training(&model, par)
    };

    println!(
        "{:<10}{:>10}{:>16}{:>18}{:>12}",
        "GPUs", "dp", "iteration (s)", "tokens/s/GPU", "efficiency"
    );
    let mut base_per_gpu = 0.0;
    let mut last_eff = 0.0;
    let mut sweep: Vec<(u64, f64)> = Vec::new();
    for (i, dp) in [4u32, 8, 16, 32, 64, 128, 256].into_iter().enumerate() {
        let mut par = ParallelismConfig::new(8, 4, dp);
        par.ep = 4.min(dp);
        par.microbatches = 8;
        let f = infra_seer(&par);
        let per_gpu = f.tokens_per_s / par.world() as f64;
        if i == 0 {
            base_per_gpu = per_gpu;
        }
        let eff = per_gpu / base_per_gpu * 100.0;
        last_eff = eff;
        sweep.push((par.world() as u64, eff));
        println!(
            "{:<10}{:>10}{:>16.3}{:>18.0}{:>11.2}%",
            par.world(),
            dp,
            f.iteration_s,
            per_gpu,
            eff
        );
    }

    sc.series("gpus_vs_efficiency_pct", &sweep);
    sc.metric("loss_at_max_scale_pct", 100.0 - last_eff);
    sc.finish(&[
        (
            "scaling loss at max scale",
            format!(
                "paper 0.6% at 8K GPUs | measured {:.2}% at 8192 GPUs",
                100.0 - last_eff
            ),
        ),
        (
            "mechanism",
            "same-rail DP rings + hierarchical collectives keep the ring \
             growth off the critical path"
                .to_string(),
        ),
    ])
}

//! Figure 14 — performance impact of the intra-host (NVLink/NVSwitch)
//! network scale.
//!
//! Paper: enlarging the HB domain helps the MoE model more than GPT-3
//! (all-to-all rides NVLink), and helps MoE inference in both prefill and
//! decoding.

use crate::{Report, Scenario};
use astral_model::{InferencePhase, ModelConfig, ParallelismConfig};
use astral_seer::NetworkSpec;

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig14",
        "Figure 14: impact of intra-host network scale",
        "MoE training benefits more than GPT-3 from a bigger HB domain; MoE \
         inference gains in both prefill and decoding",
    );

    let seer = super::calibrated_seer();

    let seer_for = |hb: u32| {
        let mut net = NetworkSpec::astral_with_hb_domain(hb);
        net.rails = 8;
        seer(net)
    };
    let domains = [8u32, 16, 32, 64];

    // (a) GPT-3-175B training (tp8 pp4 dp16, no EP): the same world size
    // as the MoE job.
    let gpt3 = ModelConfig::gpt3_175b();
    let mut gpt_par = ParallelismConfig::new(8, 4, 16);
    gpt_par.microbatches = 8;
    // (b) MoE training: in-production-like MoE with EP16 (MoE jobs run
    // smaller TP, so expert-parallel peers sit closer in the rank order).
    let mut moe = ModelConfig::hunyuan_moe_1t();
    moe.layers = 64;
    let mut moe_par = ParallelismConfig::new(4, 4, 32);
    moe_par.ep = 16;
    moe_par.microbatches = 8;

    let columns = |first| format!("{first} | HB 8 | HB 16 | HB 32 | HB 64");
    let mut gains = Vec::new();
    let mut rows = Vec::new();
    for (label, m, p) in [
        ("GPT-3-175B", &gpt3, &gpt_par),
        ("MoE (Hunyuan-like)", &moe, &moe_par),
    ] {
        let base = seer_for(8).forecast_training(m, p).iteration_s;
        let mut row = Vec::new();
        for &hb in &domains {
            let t = seer_for(hb).forecast_training(m, p).iteration_s;
            row.push(base / t);
        }
        rows.push((label, row[0], row[1], row[2], row[3]));
        gains.push((label, row[3]));
    }
    sc.table("normalized_training_throughput", &columns("model"), &rows);

    // (c,d) MoE inference prefill and decoding (tp8, ep within node).
    let mut inf_par = ParallelismConfig::new(4, 1, 16);
    inf_par.ep = 16;
    let mut inf_gains = Vec::new();
    let mut rows = Vec::new();
    for (label, phase) in [
        ("prefill", InferencePhase::Prefill { prompt_len: 2048 }),
        ("decoding", InferencePhase::Decode { context_len: 2048 }),
    ] {
        let base = seer_for(8)
            .forecast_inference(&moe, &inf_par, 16, phase)
            .iteration_s;
        let mut row = Vec::new();
        for &hb in &domains {
            let t = seer_for(hb)
                .forecast_inference(&moe, &inf_par, 16, phase)
                .iteration_s;
            row.push(base / t);
        }
        rows.push((label, row[0], row[1], row[2], row[3]));
        inf_gains.push((label, row[3]));
    }
    sc.table(
        "normalized_moe_inference_throughput",
        &columns("phase"),
        &rows,
    );

    sc.metric("gpt3_hb64_gain", gains[0].1);
    sc.metric("moe_hb64_gain", gains[1].1);
    sc.metric("prefill_hb64_gain", inf_gains[0].1);
    sc.metric("decode_hb64_gain", inf_gains[1].1);
    sc.series("hb_domains", &[8u64, 16, 32, 64]);
    sc.finish(&[
        (
            "MoE vs dense sensitivity",
            format!(
                "paper: MoE benefits more | at HB=64 GPT-3 ×{:.2}, MoE ×{:.2}",
                gains[0].1, gains[1].1
            ),
        ),
        (
            "inference",
            format!(
                "paper: larger HB helps prefill and decoding | prefill ×{:.2}, decode ×{:.2}",
                inf_gains[0].1, inf_gains[1].1
            ),
        ),
    ])
}

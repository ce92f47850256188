//! Figure 15 — GPU power usage over multiple iterations.
//!
//! Paper: training power peaks at the GPU's TDP during forward and backward
//! compute and drops in communication phases; inference peaks during
//! prefill and falls well below TDP during decoding.

use crate::{Report, Scenario};
use astral_model::{InferencePhase, ModelConfig, ParallelismConfig};
use astral_power::{peak_over_tdp, power_trace};
use astral_seer::{GpuSpec, Seer, SeerConfig};
use astral_sim::{SimDuration, SimTime, TimeSeries};

/// One iteration's power trace sampled at 20 even steps over `total`:
/// time (ms), power (W) and power as a multiple of TDP.
fn trace_steps(trace: &TimeSeries, total: SimDuration, gpu: &GpuSpec) -> Vec<(f64, f64, f64)> {
    (0..20)
        .map(|k| {
            let t = SimDuration::from_secs_f64(total.as_secs_f64() * k as f64 / 20.0);
            let w = trace
                .at(SimTime::ZERO + t)
                .map(|(_, w)| w)
                .unwrap_or(gpu.idle_w);
            (t.as_secs_f64() * 1e3, w, w / gpu.tdp_w)
        })
        .collect()
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig15",
        "Figure 15: GPU power usage over iterations",
        "training peaks ≈TDP in fwd/bwd, dips during comm; inference peaks \
         in prefill, stays low in decoding",
    );

    let gpu = GpuSpec::h100();
    let mut model = ModelConfig::llama3_8b();
    model.layers = 8;
    model.hidden = 2048;
    model.ffn_hidden = 8192;
    model.vocab = 32000;
    let mut par = ParallelismConfig::new(4, 2, 4);
    par.microbatches = 4;
    let seer = Seer::new(SeerConfig::h100_astral_basic());

    // (a) Training: one iteration's trace sampled at 50 µs.
    let train = seer.forecast_training(&model, &par).timeline;
    let trace = power_trace(&train, 0, &gpu, 5e-5);
    let peak = peak_over_tdp(&trace, &gpu);
    let min_w = trace
        .points()
        .iter()
        .map(|&(_, w)| w)
        .fold(f64::INFINITY, f64::min);
    sc.table(
        "a_training_trace_device_0",
        "t (ms) | power (W) | x TDP",
        &trace_steps(&trace, train.total, &gpu),
    );

    // (b) Inference: prefill vs decode power.
    let inf_par = ParallelismConfig::new(4, 1, 1);
    let prefill = seer
        .forecast_inference(
            &model,
            &inf_par,
            8,
            InferencePhase::Prefill { prompt_len: 2048 },
        )
        .timeline;
    let decode = seer
        .forecast_inference(
            &model,
            &inf_par,
            8,
            InferencePhase::Decode { context_len: 2048 },
        )
        .timeline;
    let p_trace = power_trace(&prefill, 0, &gpu, 5e-5);
    let d_trace = power_trace(&decode, 0, &gpu, 5e-5);
    let mean =
        |t: &TimeSeries| t.points().iter().map(|&(_, w)| w).sum::<f64>() / t.points().len() as f64;
    let prefill_peak = peak_over_tdp(&p_trace, &gpu);
    let decode_mean = mean(&d_trace);
    let phases = [
        ("training", &trace),
        ("inference prefill", &p_trace),
        ("inference decoding", &d_trace),
    ];
    let rows = phases.map(|(phase, t)| (phase, peak_over_tdp(t, &gpu), mean(t)));
    sc.table("b_power_by_phase", "phase | peak (x TDP) | mean (W)", &rows);

    sc.metric("training_peak_x_tdp", peak);
    sc.metric("training_floor_pct_tdp", min_w / gpu.tdp_w * 100.0);
    sc.metric("prefill_peak_x_tdp", prefill_peak);
    sc.metric("decode_mean_pct_tdp", decode_mean / gpu.tdp_w * 100.0);
    sc.finish(&[
        (
            "training peak",
            format!("paper: reaches/exceeds TDP | measured {:.2}×TDP", peak),
        ),
        (
            "comm-phase dip",
            format!(
                "paper: drops in communication | measured floor {:.0}% of TDP",
                min_w / gpu.tdp_w * 100.0
            ),
        ),
        (
            "inference contrast",
            format!(
                "paper: prefill ≈TDP, decode well below | {:.2}×TDP vs {:.0}% of TDP",
                prefill_peak,
                decode_mean / gpu.tdp_w * 100.0
            ),
        ),
    ])
}

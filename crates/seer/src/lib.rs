//! # astral-seer — operator-granular LLM performance forecasting
//!
//! The reproduction of Astral Seer (paper §4): given a model, a parallelism
//! layout, and hardware/network configuration suites, Seer produces an
//! operator-granular execution timeline *within seconds*, with accuracy
//! coming from self-correcting calibration against measured throughput.
//!
//! Pipeline: `astral-model` generates the operator DAG (profiler-converted
//! or handcrafted via the Chakra-like JSON), [`ModelPricer`] prices each
//! operator (Appendix-E basic modeling × fitted efficiency curves), and the
//! [`timeline`] list scheduler replays the DAG over per-device compute and
//! communication streams.
//!
//! The crate also contains the **testbed** ([`Testbed`]): the ground-truth
//! executor (hidden hardware laws + flow-level-simulated collectives) that
//! stands in for the production fleet — Seer calibrates against its
//! measurements and is verified against its timelines (Figure 12). Its
//! collectives pay the runner's fixed per-step launch cost,
//! `astral_collectives::STEP_OVERHEAD`, which the protocol-efficiency law
//! leaves untaxed; [`run_grid`] fans testbed × forecast points out on a
//! caller's pool.
//!
//! The what-if [`service`] keys its forecast cache with the workspace's
//! FNV-1a writer, `astral_sim::Digest`, and its cached forecasts use the
//! same tokens/s and MFU formula as [`Seer::forecast_training`].
//!
//! ```
//! use astral_seer::{Seer, SeerConfig};
//! use astral_model::{ModelConfig, ParallelismConfig};
//!
//! let mut model = ModelConfig::llama3_8b();
//! model.layers = 8;
//! let par = ParallelismConfig::new(4, 2, 2);
//! let seer = Seer::new(SeerConfig::h100_astral_basic());
//! let forecast = seer.forecast_training(&model, &par);
//! assert!(forecast.iteration_s > 0.0);
//! assert!(forecast.mfu > 0.0 && forecast.mfu <= 1.0);
//! ```

#![warn(missing_docs)]

mod basic;
mod calibrate;
pub mod grid;
mod hazard;
mod pricer;
pub mod service;
mod suites;
mod testbed;
pub mod timeline;
mod truth;

pub use basic::{t_addition, t_dp_comm, t_mem, t_multiplication, t_pp_comm, t_tp_comm};
pub use calibrate::{
    fit_curve, Calibration, CommCalibration, CommKind, CommScope, EfficiencyCurve,
};
pub use grid::{run_grid, GridOutcome, GridPoint};
pub use hazard::HazardForecaster;
pub use pricer::{scope_of, span_of, ModelPricer, OpClass, SeerConfig};
pub use service::{
    CacheStats, CachedForecast, LinkClass, ScenarioSpec, SeerService, WhatIf, WhatIfAnswer,
    WhatIfQuery,
};
pub use suites::{CrossDcSpec, GpuSpec, NetworkSpec};
pub use testbed::Testbed;
pub use timeline::{schedule, OpPricer, Stream, Timeline, TimelineEntry};
pub use truth::GroundTruth;

use astral_model::{
    build_inference, build_training_iteration, InferencePhase, ModelConfig, ParallelismConfig,
};

/// A complete Seer forecast.
#[derive(Debug, Clone)]
pub struct Forecast {
    /// The operator timeline.
    pub timeline: Timeline,
    /// Iteration (or inference-step) time in seconds.
    pub iteration_s: f64,
    /// Training tokens per second across the job (0 for inference).
    pub tokens_per_s: f64,
    /// Model FLOPs utilization: useful FLOPs over peak FLOPs × time × GPUs.
    pub mfu: f64,
}

/// The Seer forecasting component.
#[derive(Debug, Clone)]
pub struct Seer {
    cfg: SeerConfig,
}

impl Seer {
    /// A Seer with the given configuration suite.
    pub fn new(cfg: SeerConfig) -> Self {
        Seer { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &SeerConfig {
        &self.cfg
    }

    /// Forecast a prebuilt operator graph.
    pub fn forecast_graph(
        &self,
        graph: &astral_model::OperatorGraph,
        par: &ParallelismConfig,
    ) -> Timeline {
        let pricer = ModelPricer { cfg: &self.cfg };
        schedule(graph, par, &pricer)
    }

    /// Forecast one training iteration.
    pub fn forecast_training(&self, model: &ModelConfig, par: &ParallelismConfig) -> Forecast {
        let graph = build_training_iteration(model, par);
        let timeline = self.forecast_graph(&graph, par);
        let iteration_s = timeline.total.as_secs_f64();
        let (tokens_per_s, mfu) = training_rates(model, par, &self.cfg.gpu, iteration_s);
        Forecast {
            timeline,
            iteration_s,
            tokens_per_s,
            mfu,
        }
    }

    /// Forecast one inference step (prefill or a decode token).
    pub fn forecast_inference(
        &self,
        model: &ModelConfig,
        par: &ParallelismConfig,
        batch: u64,
        phase: InferencePhase,
    ) -> Forecast {
        let graph = build_inference(model, par, batch, phase);
        let timeline = self.forecast_graph(&graph, par);
        let iteration_s = timeline.total.as_secs_f64();
        let tokens = match phase {
            InferencePhase::Prefill { prompt_len } => batch * prompt_len,
            InferencePhase::Decode { .. } => batch,
        };
        Forecast {
            timeline,
            iteration_s,
            tokens_per_s: if iteration_s > 0.0 {
                tokens as f64 / iteration_s
            } else {
                0.0
            },
            mfu: 0.0,
        }
    }
}

/// Tokens per second and MFU (capped at 1) of one training iteration of
/// `model` under `par` on `gpu` that takes `iteration_s`; both are 0 for
/// an empty iteration. The one formula behind [`Seer::forecast_training`]
/// and the what-if service's cached forecasts.
fn training_rates(
    model: &ModelConfig,
    par: &ParallelismConfig,
    gpu: &GpuSpec,
    iteration_s: f64,
) -> (f64, f64) {
    if iteration_s > 0.0 {
        let tokens = par.global_batch() * model.seq_len;
        let useful_flops = model.train_flops_per_token(model.seq_len) * tokens as f64;
        let mfu = (useful_flops / (gpu.peak_flops * par.world() as f64 * iteration_s)).min(1.0);
        (tokens as f64 / iteration_s, mfu)
    } else {
        (0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> ModelConfig {
        let mut m = ModelConfig::llama3_8b();
        m.layers = 8;
        m.hidden = 2048;
        m.ffn_hidden = 8192;
        m.vocab = 32000;
        m.seq_len = 2048;
        m
    }

    #[test]
    fn forecast_is_fast_and_positive() {
        let seer = Seer::new(SeerConfig::h100_astral_basic());
        let t0 = std::time::Instant::now();
        let f = seer.forecast_training(&small_model(), &ParallelismConfig::new(4, 2, 4));
        let wall = t0.elapsed();
        assert!(f.iteration_s > 0.0);
        assert!(f.tokens_per_s > 0.0);
        // The paper's headline: forecasts within seconds (this one in well
        // under one).
        assert!(wall.as_secs_f64() < 5.0, "forecast took {wall:?}");
    }

    #[test]
    fn more_gpus_same_batch_is_faster_per_iteration() {
        let m = small_model();
        let seer = Seer::new(SeerConfig::h100_astral_basic());
        let mut small = ParallelismConfig::new(4, 2, 2);
        small.microbatches = 8;
        let mut large = ParallelismConfig::new(4, 2, 8);
        large.microbatches = 8;
        // Same per-replica work, 4× replicas → 4× global tokens at similar
        // iteration time → higher aggregate throughput.
        let fs = seer.forecast_training(&m, &small);
        let fl = seer.forecast_training(&m, &large);
        assert!(fl.tokens_per_s > 2.0 * fs.tokens_per_s);
    }

    #[test]
    fn mfu_is_reasonable_for_dense_training() {
        let seer = Seer::new(SeerConfig::h100_astral_basic());
        let mut par = ParallelismConfig::new(4, 2, 2);
        par.microbatches = 8;
        let f = seer.forecast_training(&small_model(), &par);
        // Uncalibrated basic modeling with overlap-free TP comm should
        // still land in a plausible MFU band.
        assert!(f.mfu > 0.2 && f.mfu <= 1.0, "mfu = {}", f.mfu);
    }

    #[test]
    fn calibrated_forecast_is_slower_than_ideal() {
        let m = small_model();
        let par = ParallelismConfig::new(4, 2, 2);
        let ideal = Seer::new(SeerConfig::h100_astral_basic());
        let mut cfg = SeerConfig::h100_astral_basic();
        cfg.calibration.compute = EfficiencyCurve::constant(0.5);
        cfg.calibration.memory = EfficiencyCurve::constant(0.5);
        let calibrated = Seer::new(cfg);
        let fi = ideal.forecast_training(&m, &par);
        let fc = calibrated.forecast_training(&m, &par);
        assert!(fc.iteration_s > fi.iteration_s * 1.5);
    }

    #[test]
    fn inference_decode_throughput_below_prefill() {
        let m = small_model();
        let par = ParallelismConfig::new(4, 1, 1);
        let seer = Seer::new(SeerConfig::h100_astral_basic());
        let pre =
            seer.forecast_inference(&m, &par, 8, InferencePhase::Prefill { prompt_len: 1024 });
        let dec =
            seer.forecast_inference(&m, &par, 8, InferencePhase::Decode { context_len: 1024 });
        assert!(pre.tokens_per_s > dec.tokens_per_s * 10.0);
    }
}

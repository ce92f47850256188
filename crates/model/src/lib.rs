//! # astral-model — LLM workload models
//!
//! The workload substrate of the Astral reproduction:
//!
//! * [`ModelConfig`] — dense and MoE transformer shapes with parameter /
//!   FLOP arithmetic, and templates for the models the paper evaluates
//!   (LLaMA 2/3, GPT-3-175B, a Hunyuan-like 1T MoE, a DeepSeek-R1-like MoE).
//! * [`ParallelismConfig`] — Megatron-style TP/PP/DP(+EP, ZeRO) layouts and
//!   communicator-group construction.
//! * [`OperatorGraph`] + [`build_training_iteration`] /
//!   [`build_inference`] — Table-1-faithful operator DAGs with 1F1B
//!   pipeline sequencing, the unit Seer forecasts.
//! * [`TABLE1`] — the paper's Table 1 as data: its 17 forward rows, each
//!   with its section, name and type label, and the formula of the op the
//!   builder emits for it.
//! * [`chakra`] — Chakra-like JSON trace interchange (profiler import and
//!   handcraft templates).
//!
//! ```
//! use astral_model::{build_training_iteration, ModelConfig, ParallelismConfig};
//!
//! let mut model = ModelConfig::llama3_8b();
//! model.layers = 8;
//! let par = ParallelismConfig::new(2, 2, 2);
//! let graph = build_training_iteration(&model, &par);
//! assert!(graph.topo_order().is_some());
//! ```

#![warn(missing_docs)]

mod builder;
pub mod chakra;
mod config;
mod ops;
mod parallel;

pub use builder::{
    build_inference, build_training_iteration, try_build_inference, try_build_training_iteration,
    BuildError, InferencePhase, Table1Row, TABLE1,
};
pub use config::{ModelConfig, MoeConfig};
pub use ops::{Collective, GroupKind, OpId, OpKind, Operator, OperatorGraph};
pub use parallel::{DpSync, ParallelismConfig};

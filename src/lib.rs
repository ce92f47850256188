//! # astral — reproduction of the Astral datacenter infrastructure
//!
//! A from-scratch Rust reproduction of *"Astral: A Datacenter
//! Infrastructure for Large Language Model Training at Scale"* (SIGCOMM
//! 2025): the same-rail network architecture, the full-stack monitoring
//! system with hierarchical root-cause analysis, the Seer operator-granular
//! performance forecaster, and the physical plant (distributed HVDC power,
//! air–liquid integrated cooling) — plus the baselines and the benchmark
//! harness that regenerates every figure and table of the paper's
//! evaluation.
//!
//! The workspace crates are re-exported under their short names:
//!
//! | module | contents |
//! |---|---|
//! | [`sim`] | discrete-event engine, RNG, statistics |
//! | [`exec`] | deterministic parallel execution (`ASTRAL_THREADS`) |
//! | [`topo`] | Astral + baseline fabrics, ECMP routing, wiring verify |
//! | [`net`] | flow-level RDMA simulation, ECMP controller, telemetry |
//! | [`collectives`] | NCCL-style schedules and the collective runner |
//! | [`model`] | LLM configs, parallelism, operator graphs |
//! | [`seer`] | forecasting, calibration, the cached what-if service |
//! | [`monitor`] | layered telemetry, analyzer, failure injection |
//! | [`power`] | HVDC, power traces |
//! | [`cooling`] | airflow thermal model, PUE |
//! | [`core`] | the orchestration facade |
//! | [`fleet`] | multi-tenant fleet scheduler: workloads, placement, spare pool |
//! | [`trace`] | structured event trace: records, ring buffer, JSONL, fingerprints |
//!
//! Start with [`core::AstralInfrastructure`] or the `examples/` directory.

pub use astral_collectives as collectives;
pub use astral_cooling as cooling;
pub use astral_core as core;
pub use astral_exec as exec;
pub use astral_fleet as fleet;
pub use astral_model as model;
pub use astral_monitor as monitor;
pub use astral_net as net;
pub use astral_power as power;
pub use astral_seer as seer;
pub use astral_sim as sim;
pub use astral_topo as topo;
pub use astral_trace as trace;

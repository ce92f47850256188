//! Parallel testbed × Seer scenario grids.
//!
//! Figure-12-style studies evaluate many (model, parallelism) points; each
//! needs a full testbed execution (flow-level collective measurements over
//! the real topology) plus two Seer forecasts. The points are independent
//! simulations, so they fan out on the [`astral_exec`] pool. Each task
//! builds its own [`Testbed`] — the measurement cache is deliberately
//! single-threaded — and every measured value is a deterministic function
//! of (topology, GPU, model, parallelism), so the grid result is
//! byte-identical at any thread count.

use crate::calibrate::Calibration;
use crate::suites::{GpuSpec, NetworkSpec};
use crate::testbed::Testbed;
use crate::timeline::Timeline;
use crate::truth::GroundTruth;
use crate::{Seer, SeerConfig};
use astral_exec::Pool;
use astral_model::{build_training_iteration, ModelConfig, ParallelismConfig};
use astral_topo::Topology;

/// One grid point: a labeled (model, parallelism) pair.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Display label for reports.
    pub label: String,
    /// Model configuration.
    pub model: ModelConfig,
    /// Parallelism layout.
    pub par: ParallelismConfig,
}

/// Outcome of one grid point: the ground-truth timeline, both forecasts,
/// and their deviations.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// The point's label.
    pub label: String,
    /// Ground-truth testbed timeline.
    pub testbed: Timeline,
    /// Uncalibrated (ideal-efficiency) forecast.
    pub basic: Timeline,
    /// Calibrated forecast.
    pub calibrated: Timeline,
    /// Deviation of the basic forecast vs the testbed, as a fraction.
    pub basic_dev: f64,
    /// Deviation of the calibrated forecast vs the testbed, as a fraction.
    pub calibrated_dev: f64,
}

/// Run a forecast-accuracy grid on `pool`: for every point, execute the
/// graph on the testbed and forecast it with an ideal and a calibrated
/// Seer. Outcomes come back in point order.
///
/// The two Seers and the ground-truth laws are built **once** and shared by
/// reference across the pool closure — per point only the (deliberately
/// single-threaded) testbed measurement cache is private, seeded from the
/// shared laws.
pub fn run_grid(
    pool: &Pool,
    topo: &Topology,
    gpu: &GpuSpec,
    net: &NetworkSpec,
    cal: &Calibration,
    points: &[GridPoint],
) -> Vec<GridOutcome> {
    let truth = GroundTruth::for_gpu(gpu.clone());
    let basic_seer = Seer::new(SeerConfig {
        gpu: gpu.clone(),
        net: net.clone(),
        calibration: Calibration::ideal(),
    });
    let calibrated_seer = Seer::new(SeerConfig {
        gpu: gpu.clone(),
        net: net.clone(),
        calibration: cal.clone(),
    });
    pool.map(points, |pt| {
        let testbed = Testbed::with_truth(topo, truth.clone());
        let graph = build_training_iteration(&pt.model, &pt.par);
        let reference = testbed.execute(&graph, &pt.par);
        let basic = basic_seer.forecast_graph(&graph, &pt.par);
        let calibrated = calibrated_seer.forecast_graph(&graph, &pt.par);
        GridOutcome {
            label: pt.label.clone(),
            basic_dev: basic.deviation_vs(&reference),
            calibrated_dev: calibrated.deviation_vs(&reference),
            testbed: reference,
            basic,
            calibrated,
        }
    })
}

//! GPU power traces (paper §5, Figures 15 & 16).
//!
//! * Per-iteration traces derive from Seer timelines: compute phases draw
//!   near (or above) TDP, communication phases drop well below, inference
//!   prefill peaks while decode idles.
//! * The daily trace exhibits the production *tidal* pattern: inference
//!   follows user activity (high day, low 10 p.m.–8 a.m.); training is
//!   scheduled into the trough to honor the constant-power utility
//!   contract.

use astral_seer::{GpuSpec, Stream, Timeline};
use astral_sim::TimeSeries;
use serde::{Deserialize, Serialize};

/// Power intensity (fraction of the TDP-to-idle band) of dense compute
/// kernels (fwd/bwd matmuls): can exceed TDP briefly.
pub const COMPUTE_INTENSITY: f64 = 1.05;
/// Power intensity of HBM-bound phases.
pub const MEMORY_INTENSITY: f64 = 0.70;
/// Power intensity of communication phases.
pub const COMM_INTENSITY: f64 = 0.30;
/// Power intensity with no activity.
pub const IDLE_INTENSITY: f64 = 0.0;

/// Sampled per-GPU power for one device of a timeline, watts at `dt_s`
/// intervals: each sample is the busiest active stream's `*_INTENSITY`
/// share of the GPU's TDP-to-idle band.
pub fn power_trace(timeline: &Timeline, device: u32, gpu: &GpuSpec, dt_s: f64) -> TimeSeries {
    let total = timeline.total.as_secs_f64();
    let entries = timeline.device_entries(device);
    let mut ts = TimeSeries::new();
    let steps = (total / dt_s).ceil() as usize;
    let band = gpu.tdp_w - gpu.idle_w;
    for k in 0..=steps {
        let t = k as f64 * dt_s;
        // Activity at time t: compute stream dominates; comm adds a little.
        let mut frac = IDLE_INTENSITY;
        for e in &entries {
            let (s, en) = (e.start.as_secs_f64(), e.end.as_secs_f64());
            if t >= s && t < en {
                let f = match e.stream {
                    Stream::Compute => {
                        // Memory-named ops draw less than matmuls.
                        if e.name.contains("LoadWeight") || e.name.contains("KVCache") {
                            MEMORY_INTENSITY
                        } else {
                            COMPUTE_INTENSITY
                        }
                    }
                    Stream::Comm => COMM_INTENSITY,
                };
                frac = frac.max(f);
            }
        }
        ts.push(
            astral_sim::SimTime::from_secs_f64(t),
            gpu.idle_w + band * frac,
        );
    }
    ts
}

/// Peak-to-TDP ratio of a trace.
pub fn peak_over_tdp(trace: &TimeSeries, gpu: &GpuSpec) -> f64 {
    trace
        .points()
        .iter()
        .map(|&(_, w)| w)
        .fold(0.0f64, f64::max)
        / gpu.tdp_w
}

/// Hourly cluster load model for one day (Figure 16): inference follows
/// the user diurnal curve; training fills the trough when
/// `schedule_training_at_night` (the constant-power contract policy).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DailyLoadModel {
    /// Cluster IT capacity in watts.
    pub capacity_w: f64,
    /// Fraction of capacity inference uses at the daily peak.
    pub inference_peak_frac: f64,
    /// Fraction at the nightly trough.
    pub inference_trough_frac: f64,
    /// Schedule training into the night trough (the paper's cheap-night
    /// pricing policy).
    pub schedule_training_at_night: bool,
}

impl Default for DailyLoadModel {
    fn default() -> Self {
        DailyLoadModel {
            capacity_w: 1e8,
            inference_peak_frac: 0.85,
            inference_trough_frac: 0.25,
            schedule_training_at_night: true,
        }
    }
}

impl DailyLoadModel {
    /// Inference demand fraction at hour `h` (0–23): high through the day,
    /// declining from 22:00 to a trough, recovering from 08:00.
    fn inference_frac(&self, h: u32) -> f64 {
        let h = h % 24;
        let day = match h {
            8..=9 => 0.6,
            10..=13 => 0.95,
            14..=18 => 1.0,
            19..=21 => 0.9,
            22..=23 => 0.45,
            0..=5 => 0.15,
            6..=7 => 0.3,
            _ => unreachable!(),
        };
        self.inference_trough_frac + (self.inference_peak_frac - self.inference_trough_frac) * day
    }

    /// Hourly (inference_w, training_w, total_w) over one day.
    pub fn day_profile(&self) -> Vec<(u32, f64, f64, f64)> {
        (0..24)
            .map(|h| {
                let inf = self.inference_frac(h) * self.capacity_w;
                let train = if self.schedule_training_at_night {
                    // Fill toward the daily peak level.
                    (self.capacity_w * self.inference_peak_frac - inf).max(0.0)
                } else {
                    0.0
                };
                (h, inf, train, inf + train)
            })
            .collect()
    }

    /// Peak-to-trough ratio of total draw (1.0 = perfectly flat).
    pub fn tidal_ratio(&self) -> f64 {
        let profile = self.day_profile();
        let max = profile.iter().map(|&(_, _, _, t)| t).fold(0.0, f64::max);
        let min = profile
            .iter()
            .map(|&(_, _, _, t)| t)
            .fold(f64::INFINITY, f64::min);
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_model::{ModelConfig, ParallelismConfig};
    use astral_seer::{Seer, SeerConfig};

    fn timeline() -> Timeline {
        let mut m = ModelConfig::llama3_8b();
        m.layers = 4;
        m.hidden = 2048;
        m.ffn_hidden = 8192;
        m.vocab = 32000;
        let mut par = ParallelismConfig::new(2, 2, 2);
        par.microbatches = 2;
        Seer::new(SeerConfig::h100_astral_basic())
            .forecast_training(&m, &par)
            .timeline
    }

    #[test]
    fn training_power_peaks_near_tdp_and_dips_in_comm() {
        let tl = timeline();
        let gpu = GpuSpec::h100();
        let trace = power_trace(&tl, 0, &gpu, 1e-4);
        let peak = peak_over_tdp(&trace, &gpu);
        assert!(peak >= 1.0, "compute phases reach/exceed TDP: {peak}");
        let min = trace
            .points()
            .iter()
            .map(|&(_, w)| w)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min < gpu.tdp_w * 0.6,
            "comm/idle phases dip well below TDP: {min}"
        );
    }

    #[test]
    fn tidal_pattern_shows_night_trough() {
        let m = DailyLoadModel {
            schedule_training_at_night: false,
            ..DailyLoadModel::default()
        };
        // Inference-only: strong tide.
        assert!(m.tidal_ratio() > 2.0);
        let afternoon = m.inference_frac(15);
        let night = m.inference_frac(3);
        assert!(afternoon > 2.0 * night);
    }

    #[test]
    fn night_training_flattens_the_draw() {
        let tidal = DailyLoadModel {
            schedule_training_at_night: false,
            ..DailyLoadModel::default()
        };
        let flat = DailyLoadModel::default();
        assert!(
            flat.tidal_ratio() < 1.05,
            "contract policy should flatten: {}",
            flat.tidal_ratio()
        );
        assert!(tidal.tidal_ratio() > flat.tidal_ratio() * 1.5);
    }
}

//! Online (in-training) anomaly detection: the incremental entry point the
//! failure-lifecycle engine calls once per iteration.
//!
//! The offline [`crate::diagnose`] digests a whole observation window; a
//! recovery controller cannot wait for one. [`OnlineDetector`] keeps a
//! rolling baseline of healthy iteration durations and raises an alarm the
//! moment an iteration either (a) reports flow aborts (errCQE — a
//! fail-stop manifestation) or (b) runs more than `SLOWDOWN_FACTOR` (2×)
//! slower than the baseline (fail-slow). Healthy iterations feed the
//! baseline; anomalous ones do not, so a fault cannot poison its own
//! detection.

use std::collections::VecDeque;

/// Healthy iterations kept in the rolling baseline.
const BASELINE_WINDOW: usize = 16;

/// Minimum healthy samples before slowdown detection activates.
const BASELINE_WARMUP: usize = 2;

/// An iteration slower than `SLOWDOWN_FACTOR` × baseline mean alarms.
const SLOWDOWN_FACTOR: f64 = 2.0;

/// What the detector saw in one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlineAlarm {
    /// Flows raised errCQE during the iteration (fail-stop).
    FlowAborts {
        /// Aborted flow count.
        count: usize,
    },
    /// The iteration ran `factor` × slower than the healthy baseline
    /// (fail-slow).
    Slowdown {
        /// Measured duration over baseline mean.
        factor: f64,
    },
}

/// Rolling per-iteration anomaly detector.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    baseline: VecDeque<f64>,
}

impl Default for OnlineDetector {
    fn default() -> Self {
        OnlineDetector::new()
    }
}

impl OnlineDetector {
    /// A detector with an empty baseline.
    pub fn new() -> Self {
        OnlineDetector {
            baseline: VecDeque::with_capacity(BASELINE_WINDOW),
        }
    }

    /// Mean of the healthy baseline, if warmed up.
    pub fn baseline_s(&self) -> Option<f64> {
        if self.baseline.len() < BASELINE_WARMUP {
            return None;
        }
        Some(self.baseline.iter().sum::<f64>() / self.baseline.len() as f64)
    }

    /// Feed one iteration's observables; `Some` means the lifecycle engine
    /// should enter recovery. Healthy iterations extend the baseline.
    pub fn observe_iteration(&mut self, iter_s: f64, aborted_flows: usize) -> Option<OnlineAlarm> {
        if aborted_flows > 0 {
            return Some(OnlineAlarm::FlowAborts {
                count: aborted_flows,
            });
        }
        if let Some(mean) = self.baseline_s() {
            let factor = iter_s / mean;
            if factor > SLOWDOWN_FACTOR {
                return Some(OnlineAlarm::Slowdown { factor });
            }
        }
        if self.baseline.len() == BASELINE_WINDOW {
            self.baseline.pop_front();
        }
        self.baseline.push_back(iter_s);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aborts_alarm_immediately_even_without_baseline() {
        let mut d = OnlineDetector::new();
        assert_eq!(
            d.observe_iteration(1.0, 3),
            Some(OnlineAlarm::FlowAborts { count: 3 })
        );
    }

    #[test]
    fn slowdown_needs_warmup_then_fires() {
        let mut d = OnlineDetector::new();
        // No baseline yet: even a huge duration passes.
        assert_eq!(d.observe_iteration(100.0, 0), None);
        assert_eq!(d.observe_iteration(1.0, 0), None);
        assert_eq!(d.observe_iteration(1.0, 0), None);
        // Baseline now ≈ 34; a slow iteration alarms once mean settles.
        for _ in 0..16 {
            assert_eq!(d.observe_iteration(1.0, 0), None);
        }
        let alarm = d.observe_iteration(5.0, 0);
        assert!(
            matches!(alarm, Some(OnlineAlarm::Slowdown { factor }) if factor > 2.0),
            "expected slowdown alarm, got {alarm:?}"
        );
    }

    #[test]
    fn anomalies_do_not_poison_the_baseline() {
        let mut d = OnlineDetector::new();
        for _ in 0..4 {
            d.observe_iteration(1.0, 0);
        }
        let before = d.baseline_s().unwrap();
        assert!(d.observe_iteration(10.0, 0).is_some());
        assert_eq!(d.baseline_s().unwrap(), before);
    }
}

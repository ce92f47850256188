//! Statistics utilities shared across the workspace.
//!
//! [`OnlineStats`] is a Welford accumulator for mean/variance without storing
//! samples. [`Summary`] computes order statistics (percentiles, median) from a
//! retained sample set. Both feed the monitoring analyzer (z-score outlier
//! detection) and the figure harnesses (reporting p50/p99 rows).

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample observed (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample observed (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Order statistics over a retained sample set.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Build from any sample iterator; NaNs are dropped.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        Summary { sorted }
    }

    /// Number of retained samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Linear-interpolated percentile, `p` in [0, 100].
    ///
    /// Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// Median (p50).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Median absolute deviation — a robust spread measure the analyzer
    /// prefers over stddev when a minority of hosts are faulty.
    pub fn mad(&self) -> Option<f64> {
        let med = self.median()?;
        let deviations = Summary::from_samples(self.sorted.iter().map(|x| (x - med).abs()));
        deviations.median()
    }

    /// Robust z-score of `x` (scaled MAD, consistent with stddev under
    /// normality via the 1.4826 factor).
    pub fn robust_zscore(&self, x: f64) -> Option<f64> {
        let med = self.median()?;
        let mad = self.mad()?;
        if mad <= f64::EPSILON {
            return Some(0.0);
        }
        Some((x - med) / (1.4826 * mad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut st = OnlineStats::new();
        for &x in &xs {
            st.push(x);
        }
        assert_eq!(st.count(), 8);
        assert!((st.mean() - 5.0).abs() < 1e-12);
        assert!((st.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(st.min(), 2.0);
        assert_eq!(st.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_benign() {
        let st = OnlineStats::new();
        assert_eq!(st.mean(), 0.0);
        assert_eq!(st.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert!((s.median().unwrap() - 50.5).abs() < 1e-9);
        assert!((s.percentile(99.0).unwrap() - 99.01).abs() < 0.011);
    }

    #[test]
    fn empty_summary_returns_none() {
        let s = Summary::from_samples(std::iter::empty());
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.mad(), None);
    }

    #[test]
    fn nan_samples_are_dropped() {
        let s = Summary::from_samples(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.median(), Some(2.0));
    }

    #[test]
    fn robust_zscore_resists_contamination() {
        // 90 good hosts at ~100, 10 faulty at 500: the faulty ones should
        // still stand out under the robust score.
        let samples: Vec<f64> = (0..90)
            .map(|i| 100.0 + (i % 5) as f64)
            .chain((0..10).map(|_| 500.0))
            .collect();
        let s = Summary::from_samples(samples);
        assert!(s.robust_zscore(500.0).unwrap() > 5.0);
        assert!(s.robust_zscore(102.0).unwrap().abs() < 2.0);
    }
}

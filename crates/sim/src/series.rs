//! Timestamped series of samples.
//!
//! Sampled traces (power draw, for one) are recorded as a [`TimeSeries`]:
//! `(SimTime, f64)` points in nondecreasing time order, with window queries
//! and fixed-interval resampling, the millisecond- versus second-level rate
//! views of paper §3.2 and Figure 9b.

use crate::stats::Summary;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A time-ordered sequence of `(time, value)` samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a sample. Samples must arrive in nondecreasing time order.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "time series samples must be time-ordered"
        );
        self.points.push((t, v));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Samples with `start <= t < end`.
    pub fn window(&self, start: SimTime, end: SimTime) -> &[(SimTime, f64)] {
        let lo = self.points.partition_point(|&(t, _)| t < start);
        let hi = self.points.partition_point(|&(t, _)| t < end);
        &self.points[lo..hi]
    }

    /// Order statistics over the values in a window.
    pub fn summarize(&self, start: SimTime, end: SimTime) -> Summary {
        Summary::from_samples(self.window(start, end).iter().map(|&(_, v)| v))
    }

    /// Sum of values in a window.
    pub fn sum(&self, start: SimTime, end: SimTime) -> f64 {
        self.window(start, end).iter().map(|&(_, v)| v).sum()
    }

    /// Resample by bucketing into fixed `interval` bins starting at `start`,
    /// aggregating each bin with `agg`. Empty bins yield `None` entries.
    ///
    /// Resampling per-message byte samples at 1 ms and at 1 s gives the
    /// millisecond- and second-level rate views the paper contrasts in
    /// Figure 9b.
    pub fn resample<F>(
        &self,
        start: SimTime,
        end: SimTime,
        interval: SimDuration,
        mut agg: F,
    ) -> Vec<(SimTime, Option<f64>)>
    where
        F: FnMut(&[f64]) -> f64,
    {
        assert!(!interval.is_zero(), "resample interval must be positive");
        let mut out = Vec::new();
        let mut bin_start = start;
        while bin_start < end {
            let bin_end = (bin_start + interval).min(end);
            let vals: Vec<f64> = self
                .window(bin_start, bin_end)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            let v = if vals.is_empty() {
                None
            } else {
                Some(agg(&vals))
            };
            out.push((bin_start, v));
            bin_start = bin_end;
        }
        out
    }

    /// Convert per-sample byte counts into a rate series (bits per second)
    /// over fixed intervals. Empty bins report a rate of zero — a silent link
    /// is a zero-rate link, not a missing measurement.
    pub fn rate_bps(
        &self,
        start: SimTime,
        end: SimTime,
        interval: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        let secs = interval.as_secs_f64();
        self.resample(start, end, interval, |vals| vals.iter().sum())
            .into_iter()
            .map(|(t, v)| (t, v.unwrap_or(0.0) * 8.0 / secs))
            .collect()
    }

    /// Last sample at or before `t`, if any.
    pub fn at(&self, t: SimTime) -> Option<(SimTime, f64)> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        idx.checked_sub(1).map(|i| self.points[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn series(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(ms, v) in points {
            s.push(t(ms), v);
        }
        s
    }

    #[test]
    fn window_is_half_open() {
        let s = series(&[(0, 1.0), (5, 2.0), (10, 3.0)]);
        let w = s.window(t(0), t(10));
        assert_eq!(w.len(), 2);
        assert_eq!(s.window(t(5), t(11)).len(), 2);
        assert_eq!(s.window(t(20), t(30)).len(), 0);
    }

    #[test]
    fn resample_marks_empty_bins() {
        let s = series(&[(0, 1.0), (1, 2.0), (9, 4.0)]);
        let bins = s.resample(t(0), t(12), SimDuration::from_millis(4), |v| v.iter().sum());
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].1, Some(3.0));
        assert_eq!(bins[1].1, None);
        assert_eq!(bins[2].1, Some(4.0));
    }

    #[test]
    fn rate_computation() {
        // 1000 bytes in each of two 1ms bins → 8 Mbps.
        let s = series(&[(0, 1000.0), (1, 1000.0)]);
        let rates = s.rate_bps(t(0), t(3), SimDuration::from_millis(1));
        assert_eq!(rates.len(), 3);
        assert!((rates[0].1 - 8e6).abs() < 1.0);
        assert!((rates[1].1 - 8e6).abs() < 1.0);
        assert_eq!(rates[2].1, 0.0);
    }

    #[test]
    fn ms_level_reveals_burst_that_second_level_hides() {
        // The Figure 9b scenario: a flow that bursts 125 MB in 100 ms then
        // idles. At second granularity it averages 1 Gbps; at ms granularity
        // the burst is 10 Gbps — only the fine view exposes the real rate.
        let mut s = TimeSeries::new();
        for ms in 0..100 {
            s.push(t(ms), 1.25e6);
        }
        let coarse = s.rate_bps(t(0), SimTime::from_secs(1), SimDuration::from_secs(1));
        let fine = s.rate_bps(t(0), SimTime::from_secs(1), SimDuration::from_millis(1));
        assert!((coarse[0].1 - 1e9).abs() / 1e9 < 0.01);
        assert!((fine[0].1 - 1e10).abs() / 1e10 < 0.01);
    }

    #[test]
    fn at_finds_latest_sample() {
        let s = series(&[(0, 1.0), (5, 2.0), (10, 3.0)]);
        assert_eq!(s.at(t(7)), Some((t(5), 2.0)));
        assert_eq!(s.at(t(10)), Some((t(10), 3.0)));
        assert_eq!(s.at(SimTime::ZERO), Some((t(0), 1.0)));
        assert_eq!(TimeSeries::new().at(t(1)), None);
    }

    #[test]
    fn summarize_window() {
        let s = series(&[(0, 1.0), (1, 3.0), (2, 5.0)]);
        let summary = s.summarize(t(0), t(3));
        assert_eq!(summary.median(), Some(3.0));
        assert_eq!(summary.count(), 3);
    }
}

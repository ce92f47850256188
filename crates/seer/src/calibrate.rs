//! Self-correcting calibration (paper §4.3, "Self-correction of modeling").
//!
//! Theoretical bandwidth over-predicts: real kernels warm up, messages pay
//! per-packet overheads, and congestion shaves throughput. Seer therefore
//! performs "a polynomial curve fit on the throughput measured from the
//! Astral infrastructure" and uses the *achieved* throughput in the basic
//! model. This module implements that loop:
//!
//! * [`EfficiencyCurve`] — a fitted polynomial `efficiency(log₂ size)` in
//!   (0, 1], clamped outside the measured domain.
//! * [`Calibration`] — the curve set Seer consults per operator class
//!   (compute / HBM / one per collective scope).
//! * [`fit_curve`] — least-squares fit from `(size, achieved/peak)` samples
//!   (measurements come from the flow-level simulator, our stand-in for the
//!   production fleet).

use astral_sim::{polyfit, Polynomial};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The algorithmic family of a collective — ring-based collectives, the
/// pairwise all-to-all, and point-to-point sends have different overhead
/// structures and therefore separate calibration curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CommKind {
    /// Ring-family collectives (AllReduce, ReduceScatter, AllGather,
    /// Broadcast).
    Ring,
    /// Pairwise all-to-all.
    AllToAll,
    /// Point-to-point send/recv.
    PointToPoint,
}

/// Keys into the communication-efficiency table: what kind of communicator
/// the collective ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CommScope {
    /// Inside an NVLink domain.
    Nvlink,
    /// Same-rail network fabric.
    Rail,
    /// Cross-rail (through Core switches).
    CrossRail,
    /// Cross-datacenter long haul.
    CrossDc,
}

/// A fitted efficiency curve over `log₂(size)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EfficiencyCurve {
    poly: Polynomial,
    /// Fitted domain in log₂(size); evaluation clamps into it.
    domain: (f64, f64),
}

impl EfficiencyCurve {
    /// The identity curve: efficiency 1 everywhere (uncalibrated Seer).
    pub fn ideal() -> Self {
        EfficiencyCurve {
            poly: Polynomial::new(vec![1.0]),
            domain: (0.0, 64.0),
        }
    }

    /// A constant-efficiency curve.
    pub fn constant(eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0);
        EfficiencyCurve {
            poly: Polynomial::new(vec![eff]),
            domain: (0.0, 64.0),
        }
    }

    /// Efficiency at `size` (FLOPs for compute, bytes otherwise), clamped
    /// to (0.01, 1].
    pub fn efficiency(&self, size: f64) -> f64 {
        let x = size.max(1.0).log2().clamp(self.domain.0, self.domain.1);
        self.poly.eval(x).clamp(0.01, 1.0)
    }

    /// The fitted polynomial coefficients, low-to-high — the curve's
    /// canonical content (used with [`EfficiencyCurve::domain`] by the
    /// what-if service to derive content-addressed cache digests).
    pub fn coefficients(&self) -> &[f64] {
        self.poly.coeffs()
    }

    /// The fitted `log₂(size)` domain evaluation clamps into.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }
}

/// Fit an efficiency curve from `(size, efficiency)` samples.
pub fn fit_curve(samples: &[(f64, f64)], degree: usize) -> EfficiencyCurve {
    assert!(
        samples.len() > degree,
        "need more samples than polynomial coefficients"
    );
    let xs: Vec<f64> = samples.iter().map(|&(s, _)| s.max(1.0).log2()).collect();
    let ys: Vec<f64> = samples.iter().map(|&(_, e)| e).collect();
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let poly = polyfit(&xs, &ys, degree).expect("efficiency fit failed");
    EfficiencyCurve {
        poly,
        domain: (lo, hi),
    }
}

/// Calibrated communication parameters for one (scope, collective family):
/// the measured per-step launch/latency overhead plus a bandwidth-efficiency
/// curve over message size. Separating α from the bandwidth term lets one
/// sweep generalize across group sizes — the measured time of a ring over
/// *n* ranks is `(n−1)·α̂ + volume / (bw · eff(bytes))`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommCalibration {
    /// Measured per-step overhead in seconds.
    pub alpha_s: f64,
    /// Achieved fraction of nominal link bandwidth vs message size.
    pub eff: EfficiencyCurve,
}

/// The calibration Seer consults when pricing operators.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Calibration {
    /// Arithmetic efficiency vs measured GPU FLOPS: `eff(log₂ flops)`.
    pub compute: EfficiencyCurve,
    /// HBM efficiency vs measured throughput: `eff(log₂ bytes)`.
    pub memory: EfficiencyCurve,
    /// Network calibration per (scope, collective family).
    pub comm: BTreeMap<(CommScope, CommKind), CommCalibration>,
}

impl Calibration {
    /// The uncalibrated basic model: every efficiency is 1 (theoretical
    /// bandwidth everywhere). This is the configuration the paper found to
    /// deviate by >5% when communication becomes the bottleneck.
    pub fn ideal() -> Self {
        Calibration {
            compute: EfficiencyCurve::ideal(),
            memory: EfficiencyCurve::ideal(),
            comm: BTreeMap::new(),
        }
    }

    /// Calibrated `(efficiency, alpha_override)` for a communication op of
    /// `bytes` on `scope`, falling back kind → scope-Ring → uncalibrated.
    pub fn comm_params(&self, scope: CommScope, kind: CommKind, bytes: u64) -> (f64, Option<f64>) {
        if let Some(c) = self.comm.get(&(scope, kind)) {
            return (c.eff.efficiency(bytes as f64), Some(c.alpha_s));
        }
        if let Some(c) = self.comm.get(&(scope, CommKind::Ring)) {
            return (c.eff.efficiency(bytes as f64), Some(c.alpha_s));
        }
        (1.0, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_curve_is_one_everywhere() {
        let c = EfficiencyCurve::ideal();
        for size in [1.0, 1e3, 1e9, 1e15] {
            assert_eq!(c.efficiency(size), 1.0);
        }
    }

    #[test]
    fn fit_recovers_a_saturating_law() {
        // eff(x) = x/(x+2^20) sampled over sizes 2^10..2^30.
        let samples: Vec<(f64, f64)> = (10..=30)
            .map(|i| {
                let s = (1u64 << i) as f64;
                (s, s / (s + (1 << 20) as f64))
            })
            .collect();
        let curve = fit_curve(&samples, 6);
        // Polynomials wiggle near the near-zero tail; accuracy is judged
        // where the curve carries signal (mid/large sizes).
        for &(s, e) in samples.iter().filter(|&&(s, _)| s >= (1 << 16) as f64) {
            let got = curve.efficiency(s);
            assert!((got - e).abs() < 0.06, "size {s}: {got} vs {e}");
        }
    }

    #[test]
    fn evaluation_clamps_outside_domain() {
        let samples: Vec<(f64, f64)> = (10..=20)
            .map(|i| ((1u64 << i) as f64, 0.5 + 0.02 * i as f64))
            .collect();
        let curve = fit_curve(&samples, 2);
        // Way outside the fitted range the polynomial could explode; the
        // clamp keeps it at the boundary value and inside (0.01, 1].
        let at_max = curve.efficiency((1u64 << 20) as f64);
        assert!((curve.efficiency(1e30) - at_max).abs() < 1e-9);
        assert!(curve.efficiency(1.0) > 0.0);
        assert!(curve.efficiency(1e30) <= 1.0);
    }

    #[test]
    fn calibration_lookup_falls_back_gracefully() {
        let mut cal = Calibration::ideal();
        assert_eq!(
            cal.comm_params(CommScope::CrossDc, CommKind::Ring, 1 << 20),
            (1.0, None)
        );
        cal.comm.insert(
            (CommScope::Rail, CommKind::Ring),
            CommCalibration {
                alpha_s: 8e-6,
                eff: EfficiencyCurve::constant(0.8),
            },
        );
        // Exact hit.
        let (e, a) = cal.comm_params(CommScope::Rail, CommKind::Ring, 1 << 20);
        assert!((e - 0.8).abs() < 1e-12);
        assert_eq!(a, Some(8e-6));
        // Kind missing → fall back to the scope's Ring parameters.
        let (e, a) = cal.comm_params(CommScope::Rail, CommKind::PointToPoint, 1 << 20);
        assert!((e - 0.8).abs() < 1e-12);
        assert_eq!(a, Some(8e-6));
    }

    #[test]
    #[should_panic(expected = "more samples")]
    fn fit_rejects_underdetermined() {
        fit_curve(&[(1024.0, 0.5)], 3);
    }
}

//! Mean Time To Locate Failure accounting (Figure 10).
//!
//! The paper reports MTTLF dropping from days/hours to minutes after the
//! monitoring system deployed: fail-stop ×12, fail-hang ×25, fail-slow ×5.
//! We model both regimes explicitly:
//!
//! * **Manual (before)** — operators bisect the job: replace/reboot
//!   machines in batches, one trial per bisection round, each round costing
//!   a restart-and-observe cycle (the paper's driver incident: ~1 hour per
//!   batch, 26 hours of experts bisecting 8K GPUs). Fail-hang is worst
//!   (nothing in the logs, every round needs a full timeout); fail-slow
//!   needs long observation windows per round.
//! * **Analyzer (after)** — localization cost is the telemetry queries the
//!   hierarchical drill-down actually issued, each priced at seconds.
//!
//! Each regime's costs are the paper-calibrated constants below
//! (`MANUAL_*` and `ANALYZER_*`); every caller prices with the same values.

use crate::analyzer::Diagnosis;
use crate::taxonomy::Manifestation;

/// Manual bisection: restart-and-observe cycle per round, seconds (the
/// paper's batch-replacement incident: ≈1 hour).
pub const MANUAL_ROUND_S: f64 = 900.0;
/// Manual bisection: extra observation per round for fail-slow (throughput
/// must be re-measured), seconds.
pub const MANUAL_SLOW_OBSERVE_S: f64 = 2700.0;
/// Manual bisection: extra timeout per round for fail-hang (no logs; wait
/// for the watchdog), seconds.
pub const MANUAL_HANG_TIMEOUT_S: f64 = 2700.0;

/// Time for manual bisection over `hosts` machines.
pub fn manual_locate_time_s(manifestation: Manifestation, hosts: usize) -> f64 {
    let rounds = (hosts.max(2) as f64).log2().ceil();
    let per_round = MANUAL_ROUND_S
        + match manifestation {
            Manifestation::FailSlow => MANUAL_SLOW_OBSERVE_S,
            Manifestation::FailHang => MANUAL_HANG_TIMEOUT_S,
            _ => 0.0,
        };
    // Fail-on-start at least reproduces instantly; others need a run per
    // round.
    let startup_discount = if manifestation == Manifestation::FailOnStart {
        0.3
    } else {
        1.0
    };
    rounds * per_round * startup_discount
}

/// Analyzer: seconds per telemetry query (collector round-trip +
/// correlation).
pub const ANALYZER_QUERY_S: f64 = 10.0;
/// Analyzer: fixed alerting/triage latency in seconds (a human still
/// confirms).
pub const ANALYZER_BASE_S: f64 = 600.0;
/// Analyzer: extra observation window for fail-slow (rates must be watched
/// long enough to separate congestion from noise), seconds.
pub const ANALYZER_SLOW_OBSERVE_S: f64 = 6000.0;
/// Analyzer: extra watchdog wait to confirm a fail-hang (nothing is in the
/// logs until timeouts fire), seconds.
pub const ANALYZER_HANG_OBSERVE_S: f64 = 720.0;

/// Time for the analyzer to locate, given its executed drill-down.
pub fn analyzer_locate_time_s(diagnosis: &Diagnosis) -> f64 {
    let observe = match diagnosis.manifestation {
        Manifestation::FailSlow => ANALYZER_SLOW_OBSERVE_S,
        Manifestation::FailHang => ANALYZER_HANG_OBSERVE_S,
        _ => 0.0,
    };
    ANALYZER_BASE_S + observe + diagnosis.queries as f64 * ANALYZER_QUERY_S
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Culprit;
    use crate::taxonomy::CauseClass;

    fn diag(queries: u32, m: Manifestation) -> Diagnosis {
        Diagnosis {
            manifestation: m,
            cause: CauseClass::GpuHardware,
            culprit: Culprit::Unknown,
            evidence: vec![],
            queries,
        }
    }

    #[test]
    fn manual_scales_with_log_hosts() {
        let t1k = manual_locate_time_s(Manifestation::FailStop, 1024);
        let t8k = manual_locate_time_s(Manifestation::FailStop, 8192);
        assert!(t8k > t1k);
        assert!((t8k / 900.0 - 13.0).abs() < 0.01, "8K hosts ≈ 13 rounds");
    }

    #[test]
    fn hang_is_the_most_expensive_manually() {
        let stop = manual_locate_time_s(Manifestation::FailStop, 1024);
        let hang = manual_locate_time_s(Manifestation::FailHang, 1024);
        let slow = manual_locate_time_s(Manifestation::FailSlow, 1024);
        assert!(hang > stop);
        assert!(slow > stop);
    }

    #[test]
    fn analyzer_is_minutes_not_hours() {
        let d = diag(40, Manifestation::FailStop);
        let t = analyzer_locate_time_s(&d);
        assert!(t < 1800.0, "analyzer should locate within minutes: {t}s");
        // The improvement factor over manual bisection lands in the
        // paper's order of magnitude (×12 for fail-stop).
        let manual = manual_locate_time_s(Manifestation::FailStop, 1024);
        let factor = manual / t;
        assert!((5.0..40.0).contains(&factor), "factor {factor}");
    }

    #[test]
    fn fail_slow_improves_least() {
        // The paper: fail-slow only shortens ~5× (observation windows are
        // irreducible), vs 12×/25× for stop/hang.
        let f = |mani: Manifestation| {
            manual_locate_time_s(mani, 1024) / analyzer_locate_time_s(&diag(40, mani))
        };
        let stop = f(Manifestation::FailStop);
        let hang = f(Manifestation::FailHang);
        let slow = f(Manifestation::FailSlow);
        assert!(
            slow < stop && slow < hang,
            "slow {slow} stop {stop} hang {hang}"
        );
        assert!(hang > stop, "hang benefits most: {hang} vs {stop}");
    }
}

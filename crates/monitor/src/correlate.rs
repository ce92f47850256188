//! Correlation mining over structured traces: pairwise co-occurrence of
//! anomaly signals (flow aborts, link faults, substrate onsets) across
//! sliding time windows, distilled into a [`CorrelationPrior`] the
//! [`crate::Analyzer`] uses to order its drill-down.
//!
//! The problem the prior solves is a real mis-ranking in the baseline
//! analyzer: errCQE telemetry is cumulative, so a link fault early in a
//! run leaves comm-error evidence in every later snapshot, and the
//! baseline drill-down — which checks communication evidence first —
//! blames the network for substrate cascades (cooling, power) that land
//! afterwards. Mining the recorded timeline recovers the structure the
//! point-in-time snapshot lost: when substrate-onset signals occur in
//! windows *without* fresh comm faults, the two fault processes are
//! independent, and the drill-down should consult substrate telemetry
//! before trusting stale comm errors. That is exactly the "correlated,
//! cross-layer failure signals" argument of the 99-Problems paper
//! (PAPERS.md) applied to our own analyzer.

use astral_trace::{TraceKind, TraceRecord};
use serde::{Deserialize, Serialize};

/// Number of distinct anomaly signals the miner tracks.
pub const SIGNALS: usize = 5;

/// Signal indices into the co-occurrence matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Signal {
    /// A flow aborted (errCQE raised) — kind [`TraceKind::FlowAbort`].
    FlowAbort = 0,
    /// A link hard-failed or degraded — [`TraceKind::LinkFail`] /
    /// [`TraceKind::LinkDegrade`].
    LinkFault = 1,
    /// A cooling cascade manifested — [`TraceKind::SubstrateOnset`] with
    /// the cooling class code.
    CoolingOnset = 2,
    /// A power cascade manifested (cap engaged after ride-through).
    PowerOnset = 3,
    /// An optics-batch cascade manifested.
    OpticsOnset = 4,
}

impl Signal {
    /// All signals, in matrix order.
    pub const ALL: [Signal; SIGNALS] = [
        Signal::FlowAbort,
        Signal::LinkFault,
        Signal::CoolingOnset,
        Signal::PowerOnset,
        Signal::OpticsOnset,
    ];

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Signal::FlowAbort => "flow_abort",
            Signal::LinkFault => "link_fault",
            Signal::CoolingOnset => "cooling_onset",
            Signal::PowerOnset => "power_onset",
            Signal::OpticsOnset => "optics_onset",
        }
    }

    /// Map a trace record to the signal it carries, if any. Substrate
    /// onsets discriminate on `aux`, which carries the cascade-class code
    /// (0 = power, 1 = cooling, 2 = optics — see `astral-core`).
    pub fn of_record(rec: &TraceRecord) -> Option<Signal> {
        match rec.kind() {
            Some(TraceKind::FlowAbort) => Some(Signal::FlowAbort),
            Some(TraceKind::LinkFail) | Some(TraceKind::LinkDegrade) => Some(Signal::LinkFault),
            Some(TraceKind::SubstrateOnset) => match rec.aux {
                0 => Some(Signal::PowerOnset),
                1 => Some(Signal::CoolingOnset),
                2 => Some(Signal::OpticsOnset),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Window width in trace-timestamp nanoseconds: signals landing in the
/// same window co-occur. Ten milliseconds of simulated *network* time. The
/// trace clock advances only through comm phases (compute time is not
/// materialized on the net-sim clock), so a full training iteration spans
/// ~10–20 ms and a whole run often fits in under a second. 10 ms co-locates
/// a fault with its same-iteration symptoms without merging the distinct
/// iterations an independent cascade lands several of later.
const WINDOW_NS: u64 = 10_000_000;

/// Minimum substrate-onset windows before the prior activates — below
/// this, there is no evidence to learn from.
const MIN_SUPPORT: u32 = 1;

/// Minimum fraction of substrate-onset windows free of comm faults for the
/// prior to call the processes independent.
const MIN_CONFIDENCE: f64 = 0.5;

/// Pairwise co-occurrence counts over sliding windows.
#[derive(Debug, Clone, Default)]
pub struct CorrelationMatrix {
    /// Windows that contained at least one signal.
    pub windows: u32,
    /// Windows in which each signal appeared.
    pub singles: [u32; SIGNALS],
    /// `pairs[a][b]`: windows in which signals `a` and `b` both appeared
    /// (symmetric; the diagonal equals `singles`).
    pub pairs: [[u32; SIGNALS]; SIGNALS],
}

/// Mines recorded timelines into a co-occurrence matrix and a learned
/// drill-down prior. Each [`CorrelationMiner::ingest`] call is one
/// *timeline* (one run's trace): every seeded run restarts its clock at
/// `t = 0`, so windows are keyed by `(timeline, t_ns / WINDOW_NS)` —
/// signals co-occur only when they landed in the same window of the
/// *same* run, never across runs that merely share the time axis.
#[derive(Debug, Clone, Default)]
pub struct CorrelationMiner {
    /// Timeline counter: bumped once per non-empty `ingest` call.
    timeline: u64,
    /// Per-window signal presence bitmasks, keyed by
    /// `(timeline, t_ns / WINDOW_NS)`. Sorted map for deterministic
    /// iteration.
    windows: std::collections::BTreeMap<(u64, u64), u8>,
}

impl CorrelationMiner {
    /// A miner with no timeline ingested.
    pub fn new() -> Self {
        CorrelationMiner::default()
    }

    /// Fold one run's trace into the per-window signal sets. The whole
    /// call is one timeline: records co-occur with each other (same
    /// window) but never with records from other `ingest` calls.
    pub fn ingest(&mut self, records: &[TraceRecord]) {
        let timeline = self.timeline;
        self.timeline += 1;
        for rec in records {
            if let Some(sig) = Signal::of_record(rec) {
                *self
                    .windows
                    .entry((timeline, rec.t_ns / WINDOW_NS))
                    .or_insert(0) |= 1 << (sig as usize);
            }
        }
    }

    /// The pairwise co-occurrence matrix over all ingested windows.
    pub fn matrix(&self) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::default();
        for &mask in self.windows.values() {
            m.windows += 1;
            for a in Signal::ALL {
                if mask & (1 << (a as usize)) == 0 {
                    continue;
                }
                m.singles[a as usize] += 1;
                for b in Signal::ALL {
                    if mask & (1 << (b as usize)) != 0 {
                        m.pairs[a as usize][b as usize] += 1;
                    }
                }
            }
        }
        // The diagonal double-counts itself in the loop above only once —
        // pairs[a][a] already equals singles[a].
        m
    }

    /// Distill the matrix into the analyzer's drill-down prior.
    pub fn prior(&self) -> CorrelationPrior {
        // Substrate-onset windows: cooling or power cascades manifesting.
        // (Optics onsets are excluded on purpose — an optics burst *is* a
        // comm fault, and comm-first drill-down is correct for it.)
        let comm_mask: u8 =
            (1 << (Signal::FlowAbort as usize)) | (1 << (Signal::LinkFault as usize));
        let sub_mask: u8 =
            (1 << (Signal::CoolingOnset as usize)) | (1 << (Signal::PowerOnset as usize));
        let mut sub_windows = 0u32;
        let mut sub_sans_comm = 0u32;
        for &mask in self.windows.values() {
            if mask & sub_mask != 0 {
                sub_windows += 1;
                if mask & comm_mask == 0 {
                    sub_sans_comm += 1;
                }
            }
        }
        CorrelationPrior {
            support: sub_windows,
            independence: if sub_windows > 0 {
                sub_sans_comm as f64 / sub_windows as f64
            } else {
                0.0
            },
        }
    }
}

/// The learned root-cause-ranking prior: whether substrate telemetry
/// should be consulted *before* (possibly stale, cumulative) comm-error
/// evidence in the analyzer's drill-down.
///
/// `Default` yields an inert prior (`suggests_substrate_first` = false),
/// so threading one through unconditionally is byte-identical to the
/// baseline analyzer when nothing was mined.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CorrelationPrior {
    /// Substrate-onset (cooling/power) windows observed.
    pub support: u32,
    /// Fraction of those windows free of comm faults — the evidence that
    /// the substrate and comm fault processes are independent.
    pub independence: f64,
}

impl CorrelationPrior {
    /// Should the analyzer check substrate telemetry before comm-error
    /// evidence?
    pub fn suggests_substrate_first(&self) -> bool {
        self.support >= MIN_SUPPORT && self.independence >= MIN_CONFIDENCE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One millisecond of trace time: the tests place records at multiples
    /// of it, so the 10 ms window spans ten units.
    const MS: u64 = 1_000_000;

    fn rec(t_ns: u64, kind: TraceKind, aux: u16) -> TraceRecord {
        TraceRecord::new(t_ns, kind, aux, 0, 0, 0, 0)
    }

    #[test]
    fn empty_trace_yields_inert_prior() {
        let miner = CorrelationMiner::new();
        let prior = miner.prior();
        assert!(!prior.suggests_substrate_first());
        assert_eq!(miner.matrix().windows, 0);
        assert!(!CorrelationPrior::default().suggests_substrate_first());
    }

    #[test]
    fn window_boundaries_split_cooccurrence() {
        let mut miner = CorrelationMiner::new();
        // Abort just before 10 ms and cooling onset at 10 ms are adjacent
        // but land in different windows: no co-occurrence.
        miner.ingest(&[
            rec(10 * MS - 1, TraceKind::FlowAbort, 0),
            rec(10 * MS, TraceKind::SubstrateOnset, 1),
        ]);
        let m = miner.matrix();
        assert_eq!(m.windows, 2);
        assert_eq!(
            m.pairs[Signal::FlowAbort as usize][Signal::CoolingOnset as usize],
            0
        );
        assert_eq!(m.singles[Signal::CoolingOnset as usize], 1);
        assert_eq!(
            m.pairs[Signal::CoolingOnset as usize][Signal::FlowAbort as usize],
            0
        );
        // Same window (10 ms up to 20 ms): they co-occur.
        let mut miner2 = CorrelationMiner::new();
        miner2.ingest(&[
            rec(10 * MS, TraceKind::FlowAbort, 0),
            rec(20 * MS - 1, TraceKind::SubstrateOnset, 1),
        ]);
        let m2 = miner2.matrix();
        assert_eq!(m2.windows, 1);
        assert_eq!(m2.singles[Signal::CoolingOnset as usize], 1);
        assert_eq!(
            m2.pairs[Signal::CoolingOnset as usize][Signal::FlowAbort as usize],
            1
        );
    }

    #[test]
    fn prior_fires_on_independent_substrate_onsets() {
        let mut miner = CorrelationMiner::new();
        // An early link fault + aborts, then a cooling onset in a clean
        // later window — the exact stale-errCQE shape.
        miner.ingest(&[
            rec(MS, TraceKind::LinkFail, 0),
            rec(2 * MS, TraceKind::FlowAbort, 0),
            rec(50 * MS, TraceKind::SubstrateOnset, 1),
        ]);
        let prior = miner.prior();
        assert_eq!(prior.support, 1);
        assert_eq!(prior.independence, 1.0);
        assert!(prior.suggests_substrate_first());
    }

    #[test]
    fn prior_stays_off_when_substrate_tracks_comm_faults() {
        let mut miner = CorrelationMiner::new();
        // Substrate onsets always inside comm-fault windows: dependent
        // processes, comm-first drill-down stays correct.
        miner.ingest(&[
            rec(MS / 10, TraceKind::LinkFail, 0),
            rec(MS / 5, TraceKind::SubstrateOnset, 0),
            rec(20 * MS + MS / 10, TraceKind::FlowAbort, 0),
            rec(20 * MS + MS / 5, TraceKind::SubstrateOnset, 1),
        ]);
        let prior = miner.prior();
        assert_eq!(prior.support, 2);
        assert_eq!(prior.independence, 0.0);
        assert!(!prior.suggests_substrate_first());
    }

    #[test]
    fn optics_onsets_do_not_activate_the_prior() {
        let mut miner = CorrelationMiner::new();
        miner.ingest(&[rec(50 * MS, TraceKind::SubstrateOnset, 2)]);
        assert_eq!(miner.prior().support, 0);
        assert!(!miner.prior().suggests_substrate_first());
        assert_eq!(miner.matrix().singles[Signal::OpticsOnset as usize], 1);
    }

    #[test]
    fn ingest_calls_are_isolated_timelines() {
        // Two runs both start at t = 0. In the same run, abort and onset
        // at 1 ms/2 ms co-occur; split across runs they must not, even
        // though the raw timestamps land in the same window index.
        let mut joint = CorrelationMiner::new();
        joint.ingest(&[
            rec(MS, TraceKind::FlowAbort, 0),
            rec(2 * MS, TraceKind::SubstrateOnset, 1),
        ]);
        assert_eq!(joint.matrix().windows, 1);
        assert_eq!(joint.prior().independence, 0.0);
        assert!(!joint.prior().suggests_substrate_first());

        let mut split = CorrelationMiner::new();
        split.ingest(&[rec(MS, TraceKind::FlowAbort, 0)]);
        split.ingest(&[rec(2 * MS, TraceKind::SubstrateOnset, 1)]);
        let m = split.matrix();
        assert_eq!(m.windows, 2);
        assert_eq!(
            m.pairs[Signal::FlowAbort as usize][Signal::CoolingOnset as usize],
            0
        );
        // The onset run has no comm fault at all: independent processes.
        assert_eq!(split.prior().independence, 1.0);
        assert!(split.prior().suggests_substrate_first());
    }
}

//! Gray-failure detection: suspicion-scored classification of partial,
//! intermittent faults (paper §6.2 — the faults that degrade jobs without
//! tripping a clean fail-stop alarm).
//!
//! A fail-stop fault (fiber cut, host crash) is obvious: flows abort, the
//! recovery ladder fires. Gray failures hide below that threshold — a link
//! that flaps up and down, an optic whose BER creeps so capacity decays a
//! few percent per iteration, a host whose ingress drains intermittently
//! slowly. Each individual observation looks like a one-off transient; the
//! *pattern across iterations* is the evidence.
//!
//! [`GrayDetector`] consumes one [`GraySample`] per training iteration
//! (flap-edge counters plus capacity-degraded links, both straight off the
//! simulator's physical-layer telemetry) and maintains a per-link suspicion
//! score: an EWMA of evidence that rises while evidence recurs and decays
//! gently through evidence gaps — absence of evidence is only weak evidence
//! of absence for an *intermittent* fault. Crossing the suspicion threshold
//! emits one [`GrayVerdict`] classifying the episode as flapping, degrading,
//! intermittent, or steady; hysteresis (a lower clear threshold) prevents a
//! borderline link from re-alarming every iteration. A healthy fabric
//! produces no samples with evidence and therefore never emits a verdict.

use crate::analyzer::FLAP_EDGES_MIN;
use astral_topo::LinkId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// EWMA weight of fresh evidence when a link shows evidence this
/// iteration.
const EWMA_ALPHA: f64 = 0.4;

/// Multiplicative suspicion decay for an iteration *without* evidence.
/// Deliberately gentle (close to 1): intermittent faults hide in the gaps,
/// so one quiet iteration should barely lower suspicion.
const GAP_DECAY: f64 = 0.9;

/// Consecutive capacity fractions to inspect for a monotone decline (the
/// degrading-optic signature).
const TREND_WINDOW: usize = 3;

/// Suspicion at or above this emits a [`GrayVerdict`].
const SUSPECT_ON: f64 = 0.5;

/// A suspect link clears (and may later open a fresh episode) only when
/// suspicion falls below this — hysteresis against re-alarms.
const CLEAR_BELOW: f64 = 0.2;

/// One capacity-degraded link observed this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrayEdge {
    /// The degraded link.
    pub link: LinkId,
    /// Surviving capacity fraction (0 < frac < 1; hard-failed links are
    /// fail-stop, not gray, and do not belong here).
    pub frac: f64,
    /// The link is a host edge (ToR→NIC) rather than a fabric link —
    /// evidence toward a slow *host* rather than a bad optic.
    pub host_edge: bool,
}

/// One iteration's worth of physical-layer evidence.
#[derive(Debug, Clone, Default)]
pub struct GraySample {
    /// Training iteration the sample covers.
    pub iter: u32,
    /// Cumulative flap-edge counters (`Telemetry::link_flaps`), not deltas —
    /// the detector differences them itself.
    pub flap_edges: Vec<(LinkId, u32)>,
    /// Links currently running below their provisioned capacity.
    pub degraded: Vec<GrayEdge>,
}

/// How a suspect episode presented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrayPattern {
    /// Recurrent up/down transitions on one link.
    Flapping,
    /// Monotonically declining capacity — the BER-creep optic signature.
    Degrading,
    /// Evidence with gaps: the fault comes and goes.
    Intermittent,
    /// Persistent partial degradation at a roughly constant level.
    Steady,
}

/// A link whose suspicion crossed the alarm threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrayVerdict {
    /// The suspect link.
    pub link: LinkId,
    /// Episode classification.
    pub pattern: GrayPattern,
    /// Suspicion score at the moment of crossing.
    pub suspicion: f64,
    /// Iteration the verdict fired.
    pub iter: u32,
    /// Any evidence for this link arrived on a host edge (ToR→NIC).
    pub host_edge: bool,
}

/// Detector output for one sample.
#[derive(Debug, Clone, PartialEq)]
pub enum GrayEvent {
    /// A link crossed the suspicion threshold.
    Suspect(GrayVerdict),
    /// A previously suspect link's suspicion decayed below the clear
    /// threshold; its episode state is reset.
    Cleared {
        /// The link that cleared.
        link: LinkId,
        /// Iteration the clear fired.
        iter: u32,
    },
}

#[derive(Debug, Clone, Default)]
struct LinkState {
    suspicion: f64,
    /// Cumulative counter value at the last sample (for differencing).
    edges_at_last: u32,
    /// Edges attributed to the current episode.
    episode_edges: u32,
    /// Last `TREND_WINDOW` capacity fractions, oldest first.
    fracs: Vec<f64>,
    /// Iterations inside this episode that brought no evidence.
    gaps: u32,
    host_edge: bool,
    suspect: bool,
}

/// Windowed, EWMA-scored gray-failure detector. Deterministic: all state
/// lives in ordered maps, so event order is a pure function of the sample
/// stream.
#[derive(Debug, Default)]
pub struct GrayDetector {
    links: BTreeMap<LinkId, LinkState>,
    muted: BTreeSet<LinkId>,
}

impl GrayDetector {
    /// A detector with no link under suspicion.
    pub fn new() -> Self {
        GrayDetector::default()
    }

    /// Stop scoring a link (it is already under probation or its host is
    /// quarantined — further evidence is expected and uninformative).
    /// Scoring state resets; the flap-edge baseline is kept so edges
    /// accrued while muted are never retroactively charged on unmute.
    pub fn mute(&mut self, link: LinkId) {
        self.muted.insert(link);
        if let Some(st) = self.links.get_mut(&link) {
            *st = LinkState {
                edges_at_last: st.edges_at_last,
                ..LinkState::default()
            };
        }
    }

    /// Resume scoring a link (probation ended).
    pub fn unmute(&mut self, link: LinkId) {
        self.muted.remove(&link);
    }

    /// Current suspicion score of a link (0 if untracked).
    pub fn suspicion(&self, link: LinkId) -> f64 {
        self.links.get(&link).map_or(0.0, |s| s.suspicion)
    }

    /// Whether a link is currently in a suspect episode.
    pub fn is_suspect(&self, link: LinkId) -> bool {
        self.links.get(&link).is_some_and(|s| s.suspect)
    }

    /// Feed one iteration of evidence; returns threshold crossings in
    /// ascending link order.
    pub fn observe(&mut self, sample: &GraySample) -> Vec<GrayEvent> {
        // Merge this sample's evidence per link. Degradation scores the
        // lost capacity fraction. Flap edges score sub-threshold until the
        // episode reaches `FLAP_EDGES_MIN`, full strength after: a single
        // transient (fail + restore = 2 edges, possibly split across the
        // samples of a retried iteration) must never reach the alarm
        // threshold, while a genuine flapper keeps accruing edges and
        // crosses at its `FLAP_EDGES_MIN`-th.
        let mut evidence: BTreeMap<LinkId, f64> = BTreeMap::new();
        for &(l, cum) in &sample.flap_edges {
            let st = self.links.entry(l).or_default();
            let fresh = cum.saturating_sub(st.edges_at_last);
            st.edges_at_last = cum;
            if fresh > 0 && !self.muted.contains(&l) {
                st.episode_edges += fresh;
                let strength = if st.episode_edges >= FLAP_EDGES_MIN {
                    1.0
                } else {
                    0.25
                };
                let e = evidence.entry(l).or_insert(0.0);
                *e = e.max(strength);
            }
        }
        for edge in &sample.degraded {
            if self.muted.contains(&edge.link) {
                continue;
            }
            let st = self.links.entry(edge.link).or_default();
            st.host_edge |= edge.host_edge;
            st.fracs.push(edge.frac);
            let over = st.fracs.len().saturating_sub(TREND_WINDOW);
            if over > 0 {
                st.fracs.drain(..over);
            }
            let e = evidence.entry(edge.link).or_insert(0.0);
            *e = e.max((1.0 - edge.frac).clamp(0.0, 1.0));
        }

        let mut events = Vec::new();
        let mut drop = Vec::new();
        for (&l, st) in self.links.iter_mut() {
            if self.muted.contains(&l) {
                continue;
            }
            match evidence.get(&l) {
                Some(&e) => {
                    st.suspicion = (1.0 - EWMA_ALPHA) * st.suspicion + EWMA_ALPHA * e;
                }
                None => {
                    st.suspicion *= GAP_DECAY;
                    st.gaps += 1;
                }
            }
            if !st.suspect && st.suspicion >= SUSPECT_ON {
                st.suspect = true;
                events.push(GrayEvent::Suspect(GrayVerdict {
                    link: l,
                    pattern: classify(st),
                    suspicion: st.suspicion,
                    iter: sample.iter,
                    host_edge: st.host_edge,
                }));
            } else if st.suspect && st.suspicion < CLEAR_BELOW {
                st.suspect = false;
                st.episode_edges = 0;
                st.gaps = 0;
                st.fracs.clear();
                events.push(GrayEvent::Cleared {
                    link: l,
                    iter: sample.iter,
                });
            } else if !st.suspect && st.suspicion < 0.02 && !evidence.contains_key(&l) {
                drop.push(l);
            }
        }
        for l in drop {
            self.links.remove(&l);
        }
        events
    }
}

/// Classify a threshold-crossing episode, most specific signature first.
fn classify(st: &LinkState) -> GrayPattern {
    if st.episode_edges >= FLAP_EDGES_MIN {
        return GrayPattern::Flapping;
    }
    if st.fracs.len() >= TREND_WINDOW && st.fracs.windows(2).all(|w| w[1] < w[0] - 1e-9) {
        return GrayPattern::Degrading;
    }
    if st.gaps > 0 {
        return GrayPattern::Intermittent;
    }
    GrayPattern::Steady
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> GrayDetector {
        GrayDetector::new()
    }

    fn flap_sample(iter: u32, link: LinkId, cum: u32) -> GraySample {
        GraySample {
            iter,
            flap_edges: vec![(link, cum)],
            degraded: Vec::new(),
        }
    }

    fn degrade_sample(iter: u32, link: LinkId, frac: f64, host_edge: bool) -> GraySample {
        GraySample {
            iter,
            flap_edges: Vec::new(),
            degraded: vec![GrayEdge {
                link,
                frac,
                host_edge,
            }],
        }
    }

    #[test]
    fn clean_stream_emits_nothing() {
        let mut d = det();
        for it in 0..50 {
            let ev = d.observe(&GraySample {
                iter: it,
                ..GraySample::default()
            });
            assert!(ev.is_empty(), "iter {it}: {ev:?}");
        }
        assert_eq!(d.suspicion(LinkId(0)), 0.0);
    }

    #[test]
    fn single_transient_stays_below_threshold() {
        let mut d = det();
        // One fail+restore as the recovery engine reports it: the fail
        // edge in the aborted attempt's sample, the restore edge in the
        // retry's sample. Then silence.
        assert!(d.observe(&flap_sample(1, LinkId(7), 1)).is_empty());
        assert!(d.observe(&flap_sample(1, LinkId(7), 2)).is_empty());
        for it in 2..30 {
            assert!(d.observe(&flap_sample(it, LinkId(7), 2)).is_empty());
        }
        assert!(!d.is_suspect(LinkId(7)));
    }

    #[test]
    fn recurrent_flaps_classify_as_flapping() {
        let mut d = det();
        // One edge per iteration: sub-threshold evidence for the first
        // two, full strength from the third edge on.
        assert!(d.observe(&flap_sample(1, LinkId(7), 2)).is_empty());
        assert!(d.observe(&flap_sample(2, LinkId(7), 4)).is_empty());
        let ev = d.observe(&flap_sample(3, LinkId(7), 6));
        match ev.as_slice() {
            [GrayEvent::Suspect(v)] => {
                assert_eq!(v.link, LinkId(7));
                assert_eq!(v.pattern, GrayPattern::Flapping);
                assert_eq!(v.iter, 3);
                assert!(!v.host_edge);
            }
            other => panic!("expected one Suspect, got {other:?}"),
        }
        // Still suspect: no duplicate verdict while the episode holds.
        assert!(d.observe(&flap_sample(4, LinkId(7), 8)).is_empty());
        assert!(d.is_suspect(LinkId(7)));
    }

    #[test]
    fn monotone_decay_classifies_as_degrading() {
        let mut d = det();
        let mut frac = 0.7;
        let mut verdict = None;
        for it in 1..=10 {
            for ev in d.observe(&degrade_sample(it, LinkId(3), frac, false)) {
                if let GrayEvent::Suspect(v) = ev {
                    verdict = Some(v);
                }
            }
            if verdict.is_some() {
                break;
            }
            frac *= 0.7;
        }
        let v = verdict.expect("degrading optic never crossed threshold");
        assert_eq!(v.pattern, GrayPattern::Degrading);
        assert_eq!(v.link, LinkId(3));
    }

    #[test]
    fn constant_partial_loss_is_steady() {
        let mut d = det();
        let mut verdict = None;
        for it in 1..=10 {
            for ev in d.observe(&degrade_sample(it, LinkId(5), 0.25, true)) {
                if let GrayEvent::Suspect(v) = ev {
                    verdict = Some(v);
                }
            }
            if verdict.is_some() {
                break;
            }
        }
        let v = verdict.expect("steady slow link never crossed threshold");
        assert_eq!(v.pattern, GrayPattern::Steady);
        assert!(v.host_edge);
    }

    #[test]
    fn on_off_evidence_is_intermittent() {
        let mut d = det();
        let mut verdict = None;
        for it in 1..=20 {
            let sample = if it % 2 == 1 {
                degrade_sample(it, LinkId(9), 0.25, true)
            } else {
                GraySample {
                    iter: it,
                    ..GraySample::default()
                }
            };
            for ev in d.observe(&sample) {
                if let GrayEvent::Suspect(v) = ev {
                    verdict = Some(v);
                }
            }
            if verdict.is_some() {
                break;
            }
        }
        let v = verdict.expect("intermittent fault never crossed threshold");
        assert_eq!(v.pattern, GrayPattern::Intermittent);
    }

    #[test]
    fn hysteresis_clears_then_reopens_a_fresh_episode() {
        let mut d = det();
        d.observe(&flap_sample(1, LinkId(2), 2));
        d.observe(&flap_sample(2, LinkId(2), 4));
        let ev = d.observe(&flap_sample(3, LinkId(2), 6));
        assert!(matches!(ev.as_slice(), [GrayEvent::Suspect(_)]));
        // Quiet iterations decay suspicion toward the clear threshold.
        let mut cleared_at = None;
        for it in 4..60 {
            for ev in d.observe(&flap_sample(it, LinkId(2), 6)) {
                if let GrayEvent::Cleared { link, iter } = ev {
                    assert_eq!(link, LinkId(2));
                    cleared_at = Some(iter);
                }
            }
            if cleared_at.is_some() {
                break;
            }
        }
        let cleared = cleared_at.expect("suspect link never cleared");
        assert!(!d.is_suspect(LinkId(2)));
        // A fresh burst (two full cycles = 4 new edges) opens a new episode
        // and alarms again — episode edge counts reset at clear, so the old
        // episode's edges do not leak into the new classification.
        let ev = d.observe(&flap_sample(cleared + 1, LinkId(2), 10));
        match ev.as_slice() {
            [GrayEvent::Suspect(v)] => assert_eq!(v.pattern, GrayPattern::Flapping),
            other => panic!("expected re-alarm, got {other:?}"),
        }
    }

    #[test]
    fn muted_links_never_alarm() {
        let mut d = det();
        d.mute(LinkId(4));
        for it in 1..=10 {
            let ev = d.observe(&flap_sample(it, LinkId(4), it * 2));
            assert!(ev.is_empty(), "iter {it}: {ev:?}");
        }
        d.unmute(LinkId(4));
        // After unmuting, differencing resumes from the baseline kept while
        // muted: only the 2 new edges count, not the 20 accrued under mute.
        assert!(d.observe(&flap_sample(11, LinkId(4), 22)).is_empty());
        assert!(!d.is_suspect(LinkId(4)));
        assert!(d.suspicion(LinkId(4)) < 0.5);
    }
}

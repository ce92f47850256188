//! The gray-failure path: feed the suspicion scorer (observe), act on its
//! verdicts once an iteration stands (attend): probation, proactive ToR
//! failover, and soft quarantine.

use super::{Engine, FaultClass, Incident, MitigationAction};
use astral_monitor::{GrayEdge, GrayEvent, GrayPattern, GraySample};
use astral_topo::LinkId;

/// Initial probation window, iterations, for a suspect flapping link;
/// doubles each time the probe finds fresh flap edges.
const GRAY_PROBATION_ITERS: u32 = 4;

/// One link's probation record: steered around, probed before readmission.
pub(super) struct Probation {
    /// Iteration the readmission probe runs.
    until_iter: u32,
    /// Escalation level: each failed probe doubles the next window.
    level: u32,
    /// Flap-edge counter at (re)entry — fresh edges fail the probe.
    edges_at_entry: u32,
}

impl Engine<'_> {
    /// Feed the suspicion scorer one iteration of physical-layer evidence:
    /// flap-edge counters and capacity-degraded links.
    pub(super) fn gray_observe(&mut self, it: u32) {
        if !self.policy.gray_detection {
            return;
        }
        let sim = self.runner.sim();
        let flaps = sim.telemetry().link_flaps.iter();
        let flap_edges = flaps.map(|(&l, &e)| (l, e)).collect();
        let edge = |(link, frac)| {
            let host_edge = self.host_edge_nic(link).is_some();
            GrayEdge {
                link,
                frac,
                host_edge,
            }
        };
        let degraded = sim.degraded_links().into_iter().map(edge).collect();
        let sample = GraySample {
            iter: it,
            flap_edges,
            degraded,
        };
        for ev in self.gray_detector.observe(&sample) {
            if let GrayEvent::Suspect(v) = ev {
                self.pending_verdicts.push(v);
            }
        }
    }

    /// Run due probation probes and act on pending suspicion verdicts,
    /// once for every iteration that stands.
    pub(super) fn gray_attend(&mut self, it: u32) {
        if !self.policy.gray_detection {
            return;
        }
        // Probation probes due this iteration: a quiet link readmits;
        // fresh flap edges double the next window (exponential backoff).
        let probations = self.probations.iter();
        let due = probations.filter_map(|(&l, p)| (p.until_iter <= it).then_some(l));
        let due: Vec<LinkId> = due.collect();
        for l in due {
            let edges_now = self.flap_edges(l);
            let p = self.probations.get_mut(&l).expect("due came from the map");
            if edges_now == p.edges_at_entry {
                self.probations.remove(&l);
                self.avoided_links.remove(&l);
                self.gray_detector.unmute(l);
                self.push_incident(Incident {
                    blamed: vec![l],
                    ..Incident::new(it, FaultClass::FlappingLink, MitigationAction::ProbeReadmit)
                });
            } else {
                p.edges_at_entry = edges_now;
                p.level += 1;
                p.until_iter = it + GRAY_PROBATION_ITERS * (1u32 << p.level.min(8));
            }
        }

        // Fresh verdicts, in arrival order.
        for v in std::mem::take(&mut self.pending_verdicts) {
            if self.avoided_links.contains(&v.link) {
                continue; // its pair already handled this batch
            }
            match v.pattern {
                GrayPattern::Degrading if v.host_edge => self.proactive_failover(it, v.link),
                GrayPattern::Steady | GrayPattern::Intermittent if v.host_edge => {
                    self.quarantine_host(it, v.link)
                }
                // Flapping, or misbehavior on a fabric link (no host to
                // quarantine, no sibling ToR): steer around it on probation.
                _ => self.begin_probation(it, v.link),
            }
        }
    }

    /// Steer every crossing QP off a suspect link and open its probation
    /// window. Detection rode existing telemetry: no locate time.
    fn begin_probation(&mut self, it: u32, link: LinkId) {
        self.steer_around(&[link]);
        let probation = Probation {
            until_iter: it + GRAY_PROBATION_ITERS,
            level: 0,
            edges_at_entry: self.flap_edges(link),
        };
        self.probations.insert(link, probation);
        let action = MitigationAction::LinkProbation;
        let mut incident = Incident::new(it, FaultClass::FlappingLink, action);
        incident.blamed = vec![link];
        self.push_incident(incident);
    }

    /// Fail a degrading optic's uplink pair over to the sibling ToR before
    /// it trips the fail-stop ladder. The pair never readmits: BER creep
    /// is monotone, so the module gets replaced off the critical path.
    fn proactive_failover(&mut self, it: u32, link: LinkId) {
        let l = self.topo.link(link);
        let mut pair: Vec<LinkId> = std::iter::once(link)
            .chain(self.topo.link_between(l.dst, l.src))
            .collect();
        pair.sort_unstable();
        pair.dedup();
        self.steer_around(&pair);
        let action = MitigationAction::ProactiveTorFailover;
        let mut incident = Incident::new(it, FaultClass::DegradingOptic, action);
        incident.locate_s = self.ledger.locate();
        incident.blamed = pair;
        self.push_incident(incident);
    }

    /// Soft-cordon the host behind a suspect edge link: checkpoint at this
    /// iteration boundary and swap a spare in, with no rollback. Without a
    /// free spare the host is only flagged for the fleet's avoid list and
    /// the job rides out the slowdown.
    fn quarantine_host(&mut self, it: u32, link: LinkId) {
        let Some(host) = self.host_edge_nic(link).and_then(|n| self.nic_host(n)) else {
            return;
        };
        // Further evidence from a quarantined host is uninformative.
        for (up, down) in self.host_edges(host) {
            self.gray_detector.mute(up);
            self.gray_detector.mute(down);
        }
        if self.quarantined.contains(&host) {
            return;
        }
        let Some(slot) = self.hosts.iter().position(|&h| h == host) else {
            return;
        };
        self.quarantined.push(host);
        let action = MitigationAction::Quarantine;
        let mut incident = Incident::new(it, FaultClass::GrayStraggler, action);
        incident.locate_s = self.ledger.locate();
        incident.blamed = vec![link];
        incident.cordoned = vec![host];
        if self.swap_in_spare(slot) {
            let checkpoint_s = self.ledger.checkpoint(it + 1);
            self.ledger.repair(self.policy.restart_overhead_s);
            incident.repair_s = self.policy.restart_overhead_s + checkpoint_s;
        }
        self.push_incident(incident);
    }

    /// Put `links` on the avoid list, mute their gray evidence, and steer
    /// every QP crossing them onto another path.
    fn steer_around(&mut self, links: &[LinkId]) {
        for &l in links {
            self.avoided_links.insert(l);
            self.gray_detector.mute(l);
        }
        for qp in self.runner.sim().qps_crossing(links) {
            self.steer_qp(qp, links);
        }
    }

    /// Flap edges the telemetry has counted on `link`.
    fn flap_edges(&self, link: LinkId) -> u32 {
        let flaps = &self.runner.sim().telemetry().link_flaps;
        flaps.get(&link).copied().unwrap_or(0)
    }
}

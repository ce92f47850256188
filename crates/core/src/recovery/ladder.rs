//! The fail-stop ladder: localize by probing each victim's path, steer
//! victims onto live source ports, back off and retry (failing over to the
//! sibling ToR), or cordon dead hosts and restart on spares.

use super::{AbortReason, Engine, FaultClass, Incident, MitigationAction};
use astral_net::{candidate_sports, QpId, EPHEMERAL_BASE};
use astral_sim::SimDuration;
use astral_topo::{GpuId, HostId, LinkId, NodeId, NodeKind};
use std::collections::BTreeSet;

/// Mitigate-and-retry attempts per iteration before escalating to a
/// checkpoint restart.
const RETRY_BUDGET: u32 = 3;

/// First retry backoff; doubles per attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(50);

/// Checkpoint restarts allowed before the job is declared lost.
const MAX_RESTARTS: u32 = 3;

impl Engine<'_> {
    /// The ladder for one alarm: localize, mitigate, charge the cost.
    pub(super) fn ladder(&mut self, it: u32, aborted: &[QpId], attempt: u32) -> Incident {
        let mut incident =
            Incident::new(it, FaultClass::TransientLink, MitigationAction::EcmpReroute);
        incident.retries = attempt;
        incident.locate_s = self.ledger.locate();

        // Past the retry budget, restart cordoning nothing (keeping the
        // class); past the restart budget, give up.
        if attempt > RETRY_BUDGET {
            let class = incident.class;
            let mut restart = self.restart_with_replacement(incident, Vec::new());
            restart.class = class;
            return restart;
        }

        // Pure slowdown: steer flows off the hottest (ECN-marked) links.
        if aborted.is_empty() {
            incident.class = FaultClass::FailSlow;
            incident.blamed = self.steer_off_hottest();
            return incident;
        }

        // Localization: probe each aborted QP's current path hop by hop;
        // the link after the last answering hop is the culprit.
        let mut blamed: BTreeSet<LinkId> = BTreeSet::new();
        let mut unreachable: Vec<QpId> = Vec::new();
        for &qp in aborted {
            let sim = self.runner.sim();
            let rec = sim.qp_record(qp).expect("registered QP");
            let (src, dst, sport) = (rec.src_nic, rec.dst_nic, rec.tuple.src_port);
            if sim.live_route_into(src, dst, sport, &mut self.route_buf) {
                continue; // healed (transient outage already over)
            }
            if let Some(path) = sim.qp_route(qp) {
                if let Some(&dead) = path.get(self.route_buf.len()) {
                    blamed.insert(dead);
                }
            }
            unreachable.push(qp);
        }
        incident.blamed = blamed.into_iter().collect();

        if unreachable.is_empty() {
            // Self-healed: move the victims off the flaky path anyway.
            for &qp in aborted {
                self.steer_qp(qp, &incident.blamed);
            }
            return incident;
        }

        let blamed = &incident.blamed;
        let dead_qps: Vec<QpId> = unreachable
            .into_iter()
            .filter(|&qp| !self.steer_qp(qp, blamed))
            .collect();

        if dead_qps.is_empty() {
            // Every victim found a live path: a host-edge culprit means
            // optical failover onto the surviving ToR port.
            if incident
                .blamed
                .iter()
                .any(|&l| self.host_edge_nic(l).is_some())
            {
                incident.class = FaultClass::OpticalDualTor;
                incident.action = MitigationAction::TorFailover;
            }
            // Exponential backoff before the retry. Transient links heal
            // inside the window and the clock runs past it, so the retry
            // sees a healed fabric.
            let backoff_s = BACKOFF_BASE.as_secs_f64() * (1 << attempt.min(16)) as f64;
            let backoff = SimDuration::from_secs_f64(backoff_s);
            let sim = self.runner.sim_mut();
            let now = sim.now();
            for l in self.pending_restores.drain(..) {
                sim.restore_link_at(now + backoff, l);
            }
            // Restores re-admit the failed attempt's flows: drain them so
            // the retry does not race their redeliveries.
            sim.run_until(now + backoff + SimDuration::from_micros(1));
            sim.run_until_idle();
            incident.repair_s = backoff.as_secs_f64();
            self.ledger.repair(incident.repair_s);
            return incident;
        }

        // No steerable path: some endpoint is off the fabric entirely —
        // a hard host fault. The dead side(s) are the job NICs that reach
        // a witness NIC (a spare's, else the last job host's) on none of
        // a handful of ports; cordon them and restart on spares.
        let witness = self.spares.first().or(self.hosts.last());
        let witness = self.topo.host(*witness.expect("job has hosts")).nics[0];
        let mut dead_hosts: BTreeSet<HostId> = BTreeSet::new();
        for &qp in &dead_qps {
            let sim = self.runner.sim();
            let rec = sim.qp_record(qp).expect("registered QP");
            for nic in [rec.src_nic, rec.dst_nic] {
                let Some(h) = self.nic_host(nic).filter(|h| self.hosts.contains(h)) else {
                    continue;
                };
                let reaches = nic == witness
                    || (0..8u16).any(|c| {
                        let sport = EPHEMERAL_BASE.wrapping_add(c.wrapping_mul(911));
                        sim.live_route_into(nic, witness, sport, &mut self.route_buf)
                    });
                if !reaches {
                    dead_hosts.insert(h);
                }
            }
        }
        if dead_hosts.is_empty() {
            // Unsteerable yet both ends alive: the fabric is partitioned
            // beyond what ECMP can route around.
            return self.abort(incident, AbortReason::FabricPartitioned);
        }
        let dead: Vec<HostId> = dead_hosts.into_iter().collect();
        self.restart_with_replacement(incident, dead)
    }

    /// Cordon `drained` hosts (possibly none) onto spares: a hard-host
    /// checkpoint restart, or an abort once restarts or spares run out.
    pub(super) fn restart_with_replacement(
        &mut self,
        mut incident: Incident,
        drained: Vec<HostId>,
    ) -> Incident {
        if self.restarts >= MAX_RESTARTS {
            return self.abort(incident, AbortReason::RestartBudgetExhausted);
        }
        for &h in &drained {
            let Some(slot) = self.hosts.iter().position(|&x| x == h) else {
                continue;
            };
            if !self.swap_in_spare(slot) {
                incident.cordoned = drained;
                return self.abort(incident, AbortReason::SparesExhausted);
            }
        }
        self.restarts += 1;
        incident.class = FaultClass::HardHost;
        incident.action = MitigationAction::RestartFromCheckpoint;
        incident.cordoned = drained;
        incident.repair_s = self.policy.restart_overhead_s;
        self.ledger.repair(incident.repair_s);
        incident
    }

    /// Give the job up for `reason`: the incident becomes its abort.
    pub(super) fn abort(&mut self, mut incident: Incident, reason: AbortReason) -> Incident {
        self.abort_reason = Some(reason);
        incident.action = MitigationAction::Abort;
        incident
    }

    /// Put the next granted spare (claims pop from the back) into job
    /// slot `slot`. Returns false when the grant is spent.
    pub(super) fn swap_in_spare(&mut self, slot: usize) -> bool {
        let Some(spare) = self.spares.pop() else {
            return false;
        };
        self.spares_claimed.push(spare);
        self.hosts[slot] = spare;
        self.group[slot] = GpuId(spare.0 * self.topo.rails() as u32);
        true
    }

    /// Symptom-level slowdown mitigation: steer every live QP off the two
    /// ECN-hottest links, which are returned as the blamed set.
    pub(super) fn steer_off_hottest(&mut self) -> Vec<LinkId> {
        let sim = self.runner.sim();
        let hot: Vec<LinkId> = sim
            .telemetry()
            .hottest_links_by_ecn(2)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        let qps: Vec<QpId> = sim.qp_records().map(|r| r.qp).collect();
        for qp in qps {
            self.steer_qp(qp, &hot);
        }
        hot
    }

    /// Steer one QP to the first candidate port (in the ECMP controller's
    /// rebalance order) whose path is alive and avoids `avoid` and the
    /// avoid list — a *different* path when both are empty, falling back
    /// to the current one. False when no candidate reaches.
    pub(super) fn steer_qp(&mut self, qp: QpId, avoid: &[LinkId]) -> bool {
        let sim = self.runner.sim();
        let rec = sim.qp_record(qp).expect("registered QP");
        let move_off = avoid.is_empty() && self.avoided_links.is_empty();
        let cur = if move_off { sim.qp_route(qp) } else { None };
        let mut pick: Option<u16> = None;
        for sport in candidate_sports(rec.tuple.src_port) {
            if !sim.live_route_into(rec.src_nic, rec.dst_nic, sport, &mut self.route_buf) {
                continue;
            }
            let path = &self.route_buf;
            if path
                .iter()
                .any(|l| avoid.contains(l) || self.avoided_links.contains(l))
            {
                continue;
            }
            if move_off && Some(path) == cur.as_ref() {
                pick.get_or_insert(sport);
                continue;
            }
            pick = Some(sport);
            break;
        }
        let Some(sport) = pick else {
            return false;
        };
        self.runner.sim_mut().reassign_sport(qp, sport);
        true
    }

    pub(super) fn nic_host(&self, nic: NodeId) -> Option<HostId> {
        match self.topo.node(nic).kind {
            NodeKind::Nic { host, .. } => Some(host),
            _ => None,
        }
    }

    /// A link is "host edge" when one endpoint is a NIC; returns that NIC.
    pub(super) fn host_edge_nic(&self, l: LinkId) -> Option<NodeId> {
        let link = self.topo.link(l);
        [link.src, link.dst]
            .into_iter()
            .find(|&n| matches!(self.topo.node(n).kind, NodeKind::Nic { .. }))
    }
}

//! The scripted-fault table: each network fault is pending until its
//! iteration, then fires once (fail-stop) or drives a gray fault at every
//! iteration top.

use super::{trace_codes, Engine, InjectedFault, InjectionRecord};
use astral_net::NetworkSim;
use astral_sim::SimTime;
use astral_topo::{HostId, LinkId, NodeId};
use astral_trace::TraceKind;

/// One scripted network fault and where it is in its life.
pub(super) struct ScriptedFault {
    fault: InjectedFault,
    state: FaultState,
}

impl ScriptedFault {
    /// A fault not yet due.
    pub(super) fn pending(&fault: &InjectedFault) -> Self {
        let state = FaultState::Pending;
        ScriptedFault { fault, state }
    }
}

enum FaultState {
    /// Its iteration has not come yet.
    Pending,
    /// Injected once and done (fail-stop), or a gray fault that found no
    /// target.
    Fired,
    /// A gray fault, acting at iteration tops from `next_it` on. That
    /// iteration only moves forward, so re-running an earlier one after a
    /// rollback is a no-op, never a double edge.
    Driving { next_it: u32, drive: GrayDrive },
}

/// How a gray fault acts on the fabric. It resolves its targets (link,
/// host) once at activation: a quarantine swap must not re-aim the fault
/// at the replacement host.
enum GrayDrive {
    /// Square wave: `downs_left` down phases of `down_len` iterations,
    /// `up_len` iterations up between them.
    Flap {
        link: LinkId,
        down: bool,
        downs_left: u32,
        down_len: u32,
        up_len: u32,
    },
    /// BER creep on one uplink pair: capacity falls by `decay` per
    /// iteration down to `floor`.
    Optic {
        links: [LinkId; 2],
        frac: f64,
        decay: f64,
        floor: f64,
    },
    /// Slow host ingress, toggling every iteration from `start_iter` when
    /// intermittent.
    Slow {
        host: HostId,
        factor: f64,
        intermittent: bool,
        start_iter: u32,
        degraded: bool,
    },
}

impl GrayDrive {
    /// Advance the fault to iteration top `it`, acting at `now`; true when
    /// it touched the fabric.
    fn tick(&mut self, next_it: &mut u32, it: u32, now: SimTime, sim: &mut NetworkSim) -> bool {
        if it < *next_it {
            return false;
        }
        *next_it = it + 1;
        match self {
            GrayDrive::Flap {
                link,
                down,
                downs_left,
                down_len,
                up_len,
            } => {
                if *down {
                    sim.restore_link_at(now, *link);
                    *next_it = it + *up_len;
                } else if *downs_left > 0 {
                    sim.fail_link_at(now, *link);
                    *downs_left -= 1;
                    *next_it = it + *down_len;
                } else {
                    return false;
                }
                *down = !*down;
            }
            GrayDrive::Optic {
                links,
                frac,
                decay,
                floor,
            } => {
                if *frac <= *floor {
                    return false;
                }
                *frac = (*frac * *decay).max(*floor);
                for &l in links.iter() {
                    sim.degrade_link_at(now, l, *frac);
                }
            }
            GrayDrive::Slow {
                host,
                factor,
                intermittent,
                start_iter,
                degraded,
            } => {
                let want = !*intermittent || (it - *start_iter).is_multiple_of(2);
                if want && !*degraded {
                    sim.degrade_host_at(now, *host, *factor);
                } else if !want && *degraded {
                    sim.restore_host_at(now, *host);
                }
                *degraded = want;
            }
        }
        true
    }
}

impl<'t> Engine<'t> {
    /// Fire the script's faults that are due at iteration `it`, in script
    /// order.
    pub(super) fn inject_due(&mut self, it: u32) {
        for i in 0..self.faults.len() {
            let entry = &self.faults[i];
            if !matches!(entry.state, FaultState::Pending) || entry.fault.at_iter() != it {
                continue;
            }
            let fault = entry.fault;
            let (blast, drive) = self.inject(fault);
            self.faults[i].state = match drive {
                Some(drive) => FaultState::Driving { next_it: it, drive },
                None => FaultState::Fired,
            };
            let (kind, sim) = (trace_codes::injected_kind(&fault), self.runner.sim_mut());
            sim.trace_record(TraceKind::FaultInject, kind, it, blast as u32, 0, 0);
            let blast_radius = blast;
            self.injections.push(InjectionRecord {
                fault,
                blast_radius,
            });
        }
    }

    /// Apply one scripted fault; returns its blast radius (the live QPs
    /// routed across the links it hits) and, for a gray fault, its drive.
    /// A fail-stop fault hard-fails its links now.
    fn inject(&mut self, fault: InjectedFault) -> (usize, Option<GrayDrive>) {
        let (links, drive) = match fault {
            InjectedFault::TransientLink { .. } => {
                // An interior link a live QP routes over. Its heal is not
                // pre-scheduled (`run_until_idle` inside the collective
                // would drain it and desync the runner's clock): recovery
                // restores it once its backoff has elapsed.
                let Some(l) = self.pick_interior_link() else {
                    return (0, None);
                };
                self.pending_restores.push(l);
                (vec![l], None)
            }
            // Kill the side the host's traffic is actually riding, so the
            // fault manifests regardless of how the QPs hashed.
            InjectedFault::OpticalUplink { host_index, .. } => {
                let pair = self.live_uplink_pair(self.job_host(host_index), None);
                (pair.to_vec(), None)
            }
            InjectedFault::HostFailure { host_index, .. } => {
                let edges = self.host_edges(self.job_host(host_index));
                (edges.flat_map(|(up, down)| [up, down]).collect(), None)
            }
            InjectedFault::FlappingLink {
                period,
                duty_cycle,
                flap_count,
                ..
            } => {
                // Same victim as TransientLink; the first down edge lands
                // in `drive_faults` this same iteration.
                let Some(link) = self.pick_interior_link() else {
                    return (0, None);
                };
                let period = period.max(2);
                let down_len = ((period as f64 * duty_cycle).round() as u32).clamp(1, period - 1);
                let drive = GrayDrive::Flap {
                    link,
                    down: false,
                    downs_left: flap_count,
                    down_len,
                    up_len: period - down_len,
                };
                (vec![link], Some(drive))
            }
            InjectedFault::DegradingOptic {
                host_index,
                decay_per_iter,
                floor,
                ..
            } => {
                let links = self.live_uplink_pair(self.job_host(host_index), None);
                let drive = GrayDrive::Optic {
                    links,
                    frac: 1.0,
                    decay: decay_per_iter.clamp(0.01, 0.999),
                    floor: floor.clamp(0.01, 0.99),
                };
                (links.to_vec(), Some(drive))
            }
            InjectedFault::SlowHost {
                at_iter,
                host_index,
                factor,
                intermittent,
            } => {
                let host = self.job_host(host_index);
                let drive = GrayDrive::Slow {
                    host,
                    factor: factor.clamp(0.01, 0.99),
                    intermittent,
                    start_iter: at_iter,
                    degraded: false,
                };
                // The slowdown drains the host's ingress: its downlinks.
                let ingress = self.host_edges(host).map(|(_, down)| down).collect();
                (ingress, Some(drive))
            }
        };
        let blast = self.runner.sim().qps_crossing(&links).len();
        if drive.is_none() {
            self.fail_now(&links);
        }
        (blast, drive)
    }

    /// Advance every driving gray fault to iteration top `it`, whatever
    /// the policy can see. Transitions land at `now` with the simulator
    /// idle, so the runner's virtual clock never desyncs.
    pub(super) fn drive_faults(&mut self, it: u32) {
        let now = self.runner.sim().now();
        let mut touched = false;
        for entry in &mut self.faults {
            if let FaultState::Driving { next_it, drive } = &mut entry.state {
                touched |= drive.tick(next_it, it, now, self.runner.sim_mut());
            }
        }
        // A restore re-admits failed flows: drain their redeliveries before
        // the runner's per-step clock starts.
        if touched {
            self.runner.sim_mut().run_until_idle();
        }
    }

    /// An interior (non-host-edge) link some live QP currently routes
    /// over, chosen deterministically via the run's RNG.
    fn pick_interior_link(&mut self) -> Option<LinkId> {
        let mut candidates: Vec<LinkId> = Vec::new();
        let sim = self.runner.sim();
        for rec in sim.qp_records() {
            if let Some(path) = sim.qp_route(rec.qp) {
                if path.len() >= 3 {
                    candidates.extend(&path[1..path.len() - 1]);
                }
            }
        }
        candidates.sort();
        candidates.dedup();
        let pick = self.rng.below(candidates.len().max(1) as u64) as usize;
        candidates.get(pick).copied()
    }

    /// The job's host for a scripted `host_index` (wrapping).
    fn job_host(&self, host_index: usize) -> HostId {
        self.hosts[host_index % self.hosts.len()]
    }

    /// Hard-fail `links` now, in order.
    fn fail_now(&mut self, links: &[LinkId]) {
        let now = self.runner.sim().now();
        for &l in links {
            self.runner.sim_mut().fail_link_at(now, l);
        }
    }

    /// The (uplink, downlink) pair of `host`'s first NIC: toward `tor` when
    /// that NIC is wired to it, else the uplink its traffic currently rides
    /// (the lowest-id live QP sourced there decides), else its first uplink.
    fn live_uplink_pair(&self, host: HostId, tor: Option<NodeId>) -> [LinkId; 2] {
        let (topo, sim) = (self.topo, self.runner.sim());
        let nic = topo.host(host).nics[0];
        let in_use = || {
            let rec = sim.qp_records().find(|r| r.src_nic == nic)?;
            sim.qp_route(rec.qp)?.first().copied()
        };
        let up = tor
            .and_then(|tor| topo.link_between(nic, tor))
            .or_else(in_use)
            .unwrap_or_else(|| topo.out_links(nic)[0]);
        let down = topo.link_between(topo.link(up).dst, nic).expect("duplex");
        [up, down]
    }

    /// Every edge link of `host` as `(uplink, downlink)` pairs, NIC by NIC.
    pub(super) fn host_edges(&self, host: HostId) -> impl Iterator<Item = (LinkId, LinkId)> + 't {
        let topo = self.topo;
        topo.host(host)
            .nics
            .iter()
            .flat_map(|&nic| topo.nic_edges(nic))
    }

    /// Kill a correlated optics batch: the modules share one switch
    /// linecard, so every victim loses its uplink toward the *same* ToR
    /// (the first victim's in-use one) and keeps its sibling. Killing
    /// in-use uplinks independently could cut opposite ToR sides of
    /// adjacent hosts and partition the pair under up–down routing.
    pub(super) fn fail_optics_batch(&mut self, victims: &[HostId]) {
        let mut batch_tor: Option<NodeId> = None;
        for &host in victims {
            let pair = self.live_uplink_pair(host, batch_tor);
            batch_tor.get_or_insert(self.topo.link(pair[0]).dst);
            self.fail_now(&pair);
        }
    }
}

//! Failure-injection scenarios: run a training job over the flow-level
//! simulator with one injected fault, and harvest the full-stack
//! monitoring snapshot plus ground truth.
//!
//! This is the reproduction's stand-in for 18 months of production
//! incidents (Figure 7/9/10): each [`Fault`] exercises the same telemetry
//! paths the corresponding production root cause does, so the hierarchical
//! analyzer can be evaluated for localization accuracy and time-to-locate.

use crate::analyzer::Culprit;
use crate::snapshot::{CannedProber, HostHealth, JobDesc, RankProgress, Snapshot};
use crate::taxonomy::RootCause;
use astral_collectives::{CollectiveRunner, RunnerConfig};
use astral_net::{FlowSpec, NetworkSim, QpId, QpTally, SolverCounters};
use astral_sim::{SimDuration, SimRng, SimTime};
use astral_topo::{GpuId, HostId, LinkId, NodeId, NodeKind, Topology};
use std::collections::BTreeSet;

/// An injectable fault with its ground-truth localization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Healthy run.
    None,
    /// An optical module/fiber dies: the link hard-fails mid-training.
    OpticalFiberCut,
    /// One NIC loses both ports (NIC hardware error).
    NicError {
        /// The failing host.
        host: HostId,
    },
    /// PCIe trains below rated width on one host: its drain degrades to
    /// `factor` of capacity (the §5 PFC-storm incident).
    PcieDegrade {
        /// The sick host.
        host: HostId,
        /// Remaining drain fraction.
        factor: f64,
    },
    /// Fatal GPU Xid on one host.
    GpuXid {
        /// The failing host.
        host: HostId,
    },
    /// ECC memory errors on one host.
    EccMemory {
        /// The failing host.
        host: HostId,
    },
    /// Broken environment/config on one host (fails at startup).
    HostEnvBad {
        /// The misconfigured host.
        host: HostId,
    },
    /// Environment/config fault surfacing at runtime (container OOM, cgroup
    /// limits, stale mounts): the job runs, then one host aborts.
    HostEnvRuntime {
        /// The misconfigured host.
        host: HostId,
    },
    /// A user-code bug: erratic behaviour on many hosts at once.
    UserCodeBug,
    /// A CCL bug hangs one rank's communicator.
    CclBugHang {
        /// The stuck host.
        host: HostId,
    },
    /// A misconfigured switch degrades all its links.
    SwitchMisconfig,
    /// A flapping link: repeated short outages.
    LinkFlap,
}

impl Fault {
    /// The root cause this fault models (for taxonomy accounting).
    pub fn root_cause(&self) -> RootCause {
        match self {
            Fault::None => RootCause::UserCode, // unused
            Fault::OpticalFiberCut => RootCause::OpticalFiber,
            Fault::NicError { .. } => RootCause::NicError,
            Fault::PcieDegrade { .. } => RootCause::HostEnvConfig,
            Fault::GpuXid { .. } => RootCause::GpuHardware,
            Fault::EccMemory { .. } => RootCause::Memory,
            Fault::HostEnvBad { .. } => RootCause::HostEnvConfig,
            Fault::HostEnvRuntime { .. } => RootCause::HostEnvConfig,
            Fault::UserCodeBug => RootCause::UserCode,
            Fault::CclBugHang { .. } => RootCause::CclBug,
            Fault::SwitchMisconfig => RootCause::SwitchConfig,
            Fault::LinkFlap => RootCause::LinkFlap,
        }
    }
}

/// Hosts allocated to a scenario's job (one rank on rail 0 of each).
const SCENARIO_HOSTS: u32 = 8;

/// Iterations in a scenario's observation window.
const SCENARIO_ITERS: u32 = 5;

/// AllReduce payload per iteration, bytes.
const ALLREDUCE_BYTES: u64 = 64 << 20;

/// Per-iteration computation time, seconds.
const COMP_BASE_S: f64 = 0.5;

/// Scenario parameters. The job itself is fixed: `SCENARIO_HOSTS` (8)
/// hosts train `SCENARIO_ITERS` (5) iterations, each `COMP_BASE_S`
/// (0.5 s) of compute and one `ALLREDUCE_BYTES` (64 MiB) AllReduce.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Host index stride: 1 = contiguous (one block); larger strides spread
    /// the job across blocks/pods so paths have more hops.
    pub host_stride: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            host_stride: 1,
            seed: 1,
        }
    }
}

/// An executed scenario: the snapshot, the INT probes taken while the
/// anomaly was live, and ground truth.
pub struct ScenarioOutcome {
    /// The harvested monitoring snapshot.
    pub snapshot: Snapshot,
    /// What was actually injected.
    pub fault: Fault,
    /// Ground truth: the device the fault landed on, `Culprit::Software`
    /// for a user-code bug, and `Culprit::Unknown` when nothing was
    /// injected (a healthy run, a host fault aimed off the job, a link
    /// fault that found no fabric link to hit).
    pub truth: Culprit,
    /// INT probes captured while the anomaly was live (the analyzer's
    /// drill-down source).
    pub prober: CannedProber,
    /// The simulator's rate-solver work over the whole scenario.
    pub solver: SolverCounters,
}

/// The scenario's job: `SCENARIO_HOSTS` hosts `host_stride` apart, one
/// rank on rail 0 of each.
struct Job {
    hosts: Vec<HostId>,
    group: Vec<GpuId>,
}

/// What the observation window ran.
struct Window {
    /// AllReduce time of each iteration, seconds.
    iter_s: Vec<f64>,
    /// The first iteration with failed flows.
    failed_at: Option<u32>,
}

/// Execute one fault scenario on `topo`: inject the fault, train through
/// the observation window, probe, harvest the snapshot and the per-rank
/// symptoms. Each step reports the device it injected the fault on; at
/// most one does, and that is the ground truth.
pub fn run_fault_scenario(topo: &Topology, fault: Fault, cfg: &ScenarioConfig) -> ScenarioOutcome {
    assert!(
        SCENARIO_HOSTS as usize * (cfg.host_stride as usize)
            < topo.hosts().len() + cfg.host_stride as usize,
        "strided job exceeds the fleet"
    );
    let hosts: Vec<HostId> = (0..SCENARIO_HOSTS)
        .map(|i| HostId(i * cfg.host_stride))
        .collect();
    let group = hosts
        .iter()
        .map(|h| GpuId(h.0 * topo.rails() as u32))
        .collect();
    let job = Job { hosts, group };
    let mut rng = SimRng::new(cfg.seed);
    let mut runner = CollectiveRunner::new(topo, RunnerConfig::default());

    let fabric = inject_fabric_fault(runner.sim_mut(), topo, fault);
    let (window, link) = run_window(&mut runner, topo, fault, &job.group, &mut rng);
    let prober = probe_window(runner.sim_mut());
    let mut snapshot = harvest(runner.sim(), topo, &job, &window);
    let symptom = push_rank_symptoms(&mut snapshot, topo, fault, &job, &window, &mut rng);

    ScenarioOutcome {
        snapshot,
        fault,
        truth: fabric.or(link).or(symptom).unwrap_or(Culprit::Unknown),
        prober,
        solver: runner.sim().solver_counters(),
    }
}

/// Step 1, fabric faults at t = 0: PCIe degrade, NIC error and switch
/// misconfig. Returns the device injected on.
fn inject_fabric_fault(sim: &mut NetworkSim<'_>, topo: &Topology, fault: Fault) -> Option<Culprit> {
    match fault {
        Fault::PcieDegrade { host, factor } => {
            sim.degrade_host_at(SimTime::ZERO, host, factor);
            Some(Culprit::Host(host))
        }
        Fault::NicError { host } => {
            for (up, down) in topo.nic_edges(topo.host(host).nics[0]) {
                sim.fail_link_at(SimTime::ZERO, up);
                sim.fail_link_at(SimTime::ZERO, down);
            }
            Some(Culprit::Host(host))
        }
        Fault::SwitchMisconfig => {
            // Degrade every egress of the first ToR serving rail 0.
            let first_rail0_tor = |kind: &NodeKind| {
                matches!(
                    kind,
                    NodeKind::Tor {
                        block: 0,
                        rail: 0,
                        side: 0,
                        ..
                    }
                )
            };
            let tor = topo
                .nodes()
                .iter()
                .find(|n| first_rail0_tor(&n.kind))
                .expect("topology has ToRs")
                .id;
            for &l in topo.out_links(tor) {
                sim.degrade_link_at(SimTime::ZERO, l, 0.15);
            }
            Some(Culprit::Switch(tor))
        }
        _ => None,
    }
}

/// Step 2, the observation window: `SCENARIO_ITERS` AllReduce iterations,
/// with the mid-window link faults landing after the first healthy one.
/// The fiber cut hard-fails a seeded pick of fabric link at iteration 1.
/// A flapper is *recurrent*: the same link drops and heals once per
/// iteration on iterations 1..=3 (6 up/down edges in the flap counters —
/// a single transient would log only 2). Returns the link hit.
fn run_window(
    runner: &mut CollectiveRunner<'_>,
    topo: &Topology,
    fault: Fault,
    group: &[GpuId],
    rng: &mut SimRng,
) -> (Window, Option<Culprit>) {
    let mut window = Window {
        iter_s: Vec::new(),
        failed_at: None,
    };
    let mut link = None;
    for it in 0..SCENARIO_ITERS {
        let sim = runner.sim_mut();
        let now = sim.now();
        match fault {
            Fault::OpticalFiberCut if it == 1 => {
                link = fabric_link(sim, topo, |n| rng.below(n.max(1) as u64) as usize);
                if let Some(l) = link {
                    sim.fail_link_at(now, l);
                }
            }
            Fault::LinkFlap if (1..=3).contains(&it) => {
                link = link.or_else(|| fabric_link(sim, topo, |_| 0));
                if let Some(l) = link {
                    sim.fail_link_at(now, l);
                    sim.restore_link_at(now + SimDuration::from_millis(30), l);
                }
            }
            _ => {}
        }
        let res = runner.all_reduce_flat(group, ALLREDUCE_BYTES);
        window.iter_s.push(res.duration.as_secs_f64());
        if res.failed_flows > 0 && window.failed_at.is_none() {
            window.failed_at = Some(it);
        }
    }
    (window, link.map(Culprit::Link))
}

/// The first fabric link (the hop past the NIC uplink) on one path of the
/// pool of every QP's sFlow path with three or more nodes, sorted; `pick`
/// chooses the path's index from the pool's size.
fn fabric_link(
    sim: &NetworkSim<'_>,
    topo: &Topology,
    pick: impl FnOnce(usize) -> usize,
) -> Option<LinkId> {
    let mut paths: Vec<Vec<NodeId>> = sim
        .qp_records()
        .filter_map(|r| sim.sflow_path(r.qp))
        .filter(|p| p.len() >= 3)
        .collect();
    paths.sort();
    let path = paths.get(pick(paths.len()))?;
    topo.link_between(path[1], path[2])
}

/// Step 3, the INT probe window: the analyzer's hop-by-hop probes run
/// while the anomaly is live, so one communication step is re-created on
/// every QP and each QP's path is probed 200 µs into it.
fn probe_window(sim: &mut NetworkSim<'_>) -> CannedProber {
    let qps: Vec<(QpId, NodeId, NodeId, u16)> = sim
        .qp_records()
        .map(|r| (r.qp, r.src_nic, r.dst_nic, r.tuple.src_port))
        .collect();
    let now = sim.now();
    for &(qp, ..) in &qps {
        let step = FlowSpec {
            qp,
            bytes: 32 << 20,
            weight: 1.0,
        };
        // A QP the fabric cannot route sends nothing.
        let _ = sim.inject_at(now, step);
    }
    sim.run_until(now + SimDuration::from_micros(200));
    let mut prober = CannedProber::default();
    for (_, src, dst, sport) in qps {
        prober
            .probes
            .insert((src, dst), sim.int_probe(src, dst, sport));
    }
    sim.run_until_idle();
    prober
}

/// Step 4, the snapshot harvest: the job, every network layer, and each
/// QP's rate as a fraction of its source NIC's port rate.
fn harvest(sim: &NetworkSim<'_>, topo: &Topology, job: &Job, window: &Window) -> Snapshot {
    let healthy_comm = window.iter_s.first().copied().unwrap_or(0.0);
    let mut snap = Snapshot {
        job: Some(JobDesc {
            job: 0,
            hosts: job.hosts.clone(),
            expected_iters: SCENARIO_ITERS,
            expected_iter_s: COMP_BASE_S + healthy_comm,
        }),
        ..Snapshot::default()
    };
    snap.harvest_network(sim);
    snap.qp_rate_frac = snap
        .qp_registry
        .iter()
        .filter_map(|rec| {
            let tally = snap.qp_bytes.get(&rec.qp)?;
            Some((rec.qp, rate_frac(tally, port_bps(topo, rec.src_nic)?)?))
        })
        .collect();
    snap
}

/// A NIC's port rate, bits/s: the capacity of its first uplink.
fn port_bps(topo: &Topology, nic: NodeId) -> Option<f64> {
    let up = *topo.out_links(nic).first()?;
    Some(topo.link(up).bandwidth_bps)
}

/// The rate a QP's byte tally shows as a fraction of `port_bps`: all its
/// bytes over its time span, capped at 1. `None` when the tally spans no
/// time.
fn rate_frac(tally: &QpTally, port_bps: f64) -> Option<f64> {
    let span = tally.last.saturating_since(tally.first).as_secs_f64();
    (span > 0.0).then(|| (tally.bytes * 8.0 / span / port_bps).min(1.0))
}

/// Step 5, per-rank symptoms: each job rank's progress, logs and host
/// health under the fault, then the stop a hard network fault forces at
/// the failing iteration. Returns the host (or software) the fault hit.
fn push_rank_symptoms(
    snap: &mut Snapshot,
    topo: &Topology,
    fault: Fault,
    job: &Job,
    window: &Window,
    rng: &mut SimRng,
) -> Option<Culprit> {
    // Hosts touched by errCQE QPs (for error-log attribution).
    let errored_qps: BTreeSet<QpId> = snap.err_cqe.iter().map(|e| e.qp).collect();
    let errored_hosts: BTreeSet<HostId> = snap
        .qp_registry
        .iter()
        .filter(|r| errored_qps.contains(&r.qp))
        .flat_map(|r| [r.ctx.src_gpu, r.ctx.dst_gpu])
        .flatten()
        .map(|g| topo.gpu_host(g))
        .collect();
    let mean_comm = window.iter_s.iter().sum::<f64>() / window.iter_s.len().max(1) as f64;
    let mut hit = None;
    for (i, (&host, &gpu)) in job.hosts.iter().zip(&job.group).enumerate() {
        let mut rank = RankProgress {
            gpu,
            host,
            iters_done: SCENARIO_ITERS,
            ops_done: 1000 * SCENARIO_ITERS as u64,
            comp_time_s: COMP_BASE_S * (1.0 + 0.002 * (i % 5) as f64),
            comm_time_s: mean_comm,
            error_log: None,
        };
        let mut health = HostHealth::healthy(host);
        hit = rank_symptom(fault, i, &mut rank, &mut health, rng).or(hit);
        // HostEnvBad blocks the whole job from starting.
        if matches!(fault, Fault::HostEnvBad { .. }) {
            rank.iters_done = 0;
            rank.ops_done = 0;
        }
        // Hard network faults stop the job at the failing iteration.
        if let Some(stop) = window.failed_at {
            rank.iters_done = rank.iters_done.min(stop + 1);
            if errored_hosts.contains(&host) {
                rank.error_log = Some("NCCL watchdog: transport retry exceeded (errCQE)".into());
            }
        }
        health.pcie_degraded =
            matches!(fault, Fault::PcieDegrade { host: sick, .. } if sick == host);
        snap.ranks.push(rank);
        snap.health.push(health);
    }
    hit
}

/// The `i`-th rank's own symptom of a host-level fault, applied to its
/// progress and host health. Returns the host (or software) hit, if the
/// fault hit this rank.
fn rank_symptom(
    fault: Fault,
    i: usize,
    rank: &mut RankProgress,
    health: &mut HostHealth,
    rng: &mut SimRng,
) -> Option<Culprit> {
    match fault {
        Fault::GpuXid { host } if host == rank.host => {
            rank.comp_time_s *= 8.0;
            rank.error_log = Some("CUDA error: an illegal memory access (Xid 79)".into());
            rank.iters_done = 2;
            health.gpu_xid = Some(79);
            health.gpu_util = 0.1;
        }
        Fault::EccMemory { host } if host == rank.host => {
            rank.comp_time_s *= 3.0;
            rank.error_log = Some("uncorrectable ECC error encountered".into());
            rank.iters_done = 2;
            health.ecc_errors = 17;
        }
        Fault::HostEnvBad { host } if host == rank.host => {
            rank.error_log = Some("NCCL WARN Bootstrap: no socket interface found".into());
            health.env_ok = false;
        }
        Fault::HostEnvRuntime { host } if host == rank.host => {
            rank.comp_time_s *= 6.0;
            rank.error_log = Some("container killed: cgroup memory limit".into());
            rank.iters_done = 3;
            health.env_ok = false;
        }
        Fault::UserCodeBug => {
            // Erratic on every third rank; the truth is software either way.
            if i.is_multiple_of(3) {
                rank.comp_time_s *= 4.0 + rng.next_f64();
                rank.error_log = Some("RuntimeError: shape mismatch in loss".into());
                rank.iters_done = 3;
            }
            return Some(Culprit::Software);
        }
        Fault::CclBugHang { host } if host == rank.host => {
            rank.iters_done = 2;
            rank.ops_done = 2000 + 37; // stuck mid-iteration
            rank.comm_time_s *= 50.0;
        }
        _ => return None,
    }
    Some(Culprit::Host(rank.host))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{diagnose, Diagnosis};
    use crate::correlate::CorrelationPrior;
    use crate::taxonomy::{CauseClass, Manifestation};
    use astral_net::Telemetry;
    use astral_topo::{build_astral, AstralParams};

    fn topo() -> Topology {
        build_astral(&AstralParams::sim_small())
    }

    /// The scenario's verdict, its ground truth, and whether the verdict
    /// localizes that truth.
    fn diagnosed(fault: Fault) -> (Diagnosis, Culprit, bool) {
        let t = topo();
        let out = run_fault_scenario(&t, fault, &ScenarioConfig::default());
        let d = diagnose(&out.snapshot, &out.prober, &CorrelationPrior::default());
        let hit = d.culprit.localizes(&out.truth, &t);
        (d, out.truth, hit)
    }

    #[test]
    fn healthy_scenario_is_clean() {
        let (d, truth, hit) = diagnosed(Fault::None);
        assert_eq!(truth, Culprit::Unknown);
        assert_eq!(d.culprit, Culprit::Unknown);
        assert!(!hit, "nothing localizes a healthy run");
    }

    #[test]
    fn host_fault_off_the_job_injects_nothing() {
        let t = topo();
        let out = run_fault_scenario(
            &t,
            Fault::GpuXid { host: HostId(40) },
            &ScenarioConfig::default(),
        );
        assert_eq!(out.truth, Culprit::Unknown);
        assert!(out.snapshot.health.iter().all(|h| h.gpu_xid.is_none()));
    }

    #[test]
    fn gpu_xid_is_localized() {
        let (d, truth, hit) = diagnosed(Fault::GpuXid { host: HostId(3) });
        assert_eq!(truth, Culprit::Host(HostId(3)));
        assert_eq!(d.cause, CauseClass::GpuHardware);
        assert_eq!(d.culprit, Culprit::Host(HostId(3)));
        assert!(hit);
    }

    #[test]
    fn pcie_degrade_found_via_pfc_drilldown() {
        let (d, truth, hit) = diagnosed(Fault::PcieDegrade {
            host: HostId(0),
            factor: 0.2,
        });
        assert_eq!(truth, Culprit::Host(HostId(0)));
        assert_eq!(d.manifestation, Manifestation::FailSlow);
        assert_eq!(d.cause, CauseClass::PcieBottleneck);
        assert!(hit);
        // The drill-down must have walked all four layers.
        assert!(d.evidence.len() >= 3, "evidence: {:?}", d.evidence);
    }

    #[test]
    fn fiber_cut_localized_by_path_overlap() {
        let (d, truth, hit) = diagnosed(Fault::OpticalFiberCut);
        assert!(matches!(truth, Culprit::Link(_)), "truth {truth:?}");
        assert_eq!(d.manifestation, Manifestation::FailStop);
        assert_eq!(d.cause, CauseClass::NicOrLink);
        // The cut link, one of its endpoint switches, or the NIC's host.
        assert!(hit, "{:?} does not localize {truth:?}", d.culprit);
    }

    #[test]
    fn link_flap_names_the_flapping_link_exactly() {
        let (d, truth, _) = diagnosed(Fault::LinkFlap);
        assert_eq!(d.cause, CauseClass::NicOrLink);
        // Three fail+restore cycles leave ≥ 6 flap edges on one link; the
        // physical-layer flap consult must name that exact link rather
        // than falling through to the path-overlap switch heuristic.
        assert!(matches!(truth, Culprit::Link(_)), "truth {truth:?}");
        assert_eq!(d.culprit, truth, "flapper not pinned to its link");
        assert!(
            d.evidence.iter().any(|e| e.contains("flapping")),
            "evidence: {:?}",
            d.evidence
        );
    }

    #[test]
    fn user_code_bug_raises_software_alarm() {
        let (d, truth, hit) = diagnosed(Fault::UserCodeBug);
        assert_eq!(truth, Culprit::Software);
        assert_eq!(d.cause, CauseClass::SoftwareOrUserCode);
        assert!(hit);
    }

    #[test]
    fn env_failure_is_fail_on_start() {
        let (d, _, _) = diagnosed(Fault::HostEnvBad { host: HostId(2) });
        assert_eq!(d.manifestation, Manifestation::FailOnStart);
        assert_eq!(d.cause, CauseClass::HostEnvironment);
        assert_eq!(d.culprit, Culprit::Host(HostId(2)));
    }

    #[test]
    fn ccl_hang_isolates_the_stuck_host() {
        let (d, _, _) = diagnosed(Fault::CclBugHang { host: HostId(5) });
        assert_eq!(d.manifestation, Manifestation::FailHang);
        assert_eq!(d.culprit, Culprit::Host(HostId(5)));
    }

    #[test]
    fn a_link_and_its_endpoint_switch_localize_each_other() {
        let t = topo();
        let l = t.link(LinkId(0));
        let (link, tor) = (Culprit::Link(l.id), Culprit::Switch(l.dst));
        assert!(tor.localizes(&link, &t) && link.localizes(&tor, &t));
        let elsewhere = t.out_links(l.dst).iter().find(|&&o| t.link(o).dst != l.src);
        let far = Culprit::Link(*elsewhere.expect("a ToR has several links"));
        assert!(!far.localizes(&link, &t));
        assert!(!Culprit::Unknown.localizes(&Culprit::Unknown, &t));
    }

    #[test]
    fn one_port_rate_of_bytes_reads_full_rate_at_any_port_speed() {
        for gbps in [100.0, 400.0] {
            let t = build_astral(&AstralParams {
                nic_port_gbps: gbps,
                ..AstralParams::sim_small()
            });
            let nic = t.host(HostId(0)).nics[0];
            let port = port_bps(&t, nic).expect("a NIC has an uplink");
            assert_eq!(port, gbps * 1e9);
            // One second of tally carrying exactly one port-second of
            // bytes, in two samples.
            let mut t = Telemetry::new(0);
            let (qp, half) = (QpId(1), port / 8.0 / 2.0);
            t.sample_qp(qp, SimTime::ZERO, half);
            t.sample_qp(qp, SimTime::from_secs(1), half);
            assert_eq!(rate_frac(&t.qp_bytes[qp], port), Some(1.0), "{gbps} G");
            let mut idle = Telemetry::new(0);
            idle.sample_qp(qp, SimTime::ZERO, half);
            assert_eq!(
                rate_frac(&idle.qp_bytes[qp], port),
                None,
                "no span, no rate"
            );
        }
    }
}

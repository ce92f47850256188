//! Failure-injection scenarios: run a training job over the flow-level
//! simulator with one injected fault, and harvest the full-stack
//! monitoring snapshot plus ground truth.
//!
//! This is the reproduction's stand-in for 18 months of production
//! incidents (Figure 7/9/10): each [`Fault`] exercises the same telemetry
//! paths the corresponding production root cause does, so the hierarchical
//! analyzer can be evaluated for localization accuracy and time-to-locate.

use crate::snapshot::{HostHealth, JobDesc, RankProgress, Snapshot};
use crate::taxonomy::RootCause;
use astral_collectives::{CollectiveRunner, RunnerConfig};
use astral_net::{NetworkSim, QpId};
use astral_sim::{SimRng, SimTime};
use astral_topo::{GpuId, HostId, LinkId, NodeId, Topology};

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

/// Ground truth of an executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum TruthCulprit {
    /// A host (or a device inside it).
    Host(HostId),
    /// A link.
    Link(LinkId),
    /// A switch.
    Switch(NodeId),
    /// Software, no single device.
    Software,
    /// Healthy.
    None,
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Hosts allocated to the job (one rank on rail 0 of each).
    pub hosts: usize,
    /// Iterations in the observation window.
    pub iters: u32,
    /// AllReduce payload per iteration.
    pub bytes: u64,
    /// Per-iteration computation time.
    pub comp_base_s: f64,
    /// Host index stride: 1 = contiguous (one block); larger strides spread
    /// the job across blocks/pods so paths have more hops.
    pub host_stride: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            hosts: 8,
            iters: 5,
            bytes: 64 << 20,
            comp_base_s: 0.5,
            host_stride: 1,
            seed: 1,
        }
    }
}

/// An executed scenario: the snapshot, the live runner (for INT probing),
/// and ground truth.
pub struct ScenarioOutcome<'t> {
    /// The harvested monitoring snapshot.
    pub snapshot: Snapshot,
    /// What was actually injected.
    pub fault: Fault,
    /// Ground-truth localization.
    pub truth: TruthCulprit,
    /// INT probes captured while the anomaly was live (the analyzer's
    /// drill-down source).
    pub prober: crate::snapshot::CannedProber,
    /// The collective runner (owns the network sim).
    pub runner: CollectiveRunner<'t>,
}

/// Every QP's sFlow node path with a link beyond the NIC uplink (three or
/// more nodes), sorted: the deterministic pool the link faults pick from.
fn fabric_paths(sim: &NetworkSim<'_>) -> Vec<Vec<NodeId>> {
    let mut paths: Vec<Vec<NodeId>> = sim
        .qp_records()
        .filter_map(|r| sim.sflow_path(r.qp))
        .filter(|p| p.len() >= 3)
        .collect();
    paths.sort();
    paths
}

/// Execute one fault scenario on `topo`.
pub fn run_fault_scenario<'t>(
    topo: &'t Topology,
    fault: Fault,
    cfg: &ScenarioConfig,
) -> ScenarioOutcome<'t> {
    let mut rng = SimRng::new(cfg.seed);
    let mut runner = CollectiveRunner::new(topo, RunnerConfig::default());
    assert!(
        cfg.hosts * (cfg.host_stride as usize) < topo.hosts().len() + cfg.host_stride as usize,
        "strided job exceeds the fleet"
    );
    let hosts: Vec<HostId> = (0..cfg.hosts as u32)
        .map(|i| HostId(i * cfg.host_stride))
        .collect();
    let group: Vec<GpuId> = hosts
        .iter()
        .map(|h| GpuId(h.0 * topo.rails() as u32))
        .collect();

    // --- Inject network-level faults ---
    let mut truth = TruthCulprit::None;
    let mut flap_link: Option<LinkId> = None;
    match fault {
        Fault::PcieDegrade { host, factor } => {
            runner
                .sim_mut()
                .degrade_host_at(SimTime::ZERO, host, factor);
            truth = TruthCulprit::Host(host);
        }
        Fault::NicError { host } => {
            for (up, down) in topo.nic_edges(topo.host(host).nics[0]) {
                runner.sim_mut().fail_link_at(SimTime::ZERO, up);
                runner.sim_mut().fail_link_at(SimTime::ZERO, down);
            }
            truth = TruthCulprit::Host(host);
        }
        Fault::SwitchMisconfig => {
            // Degrade every egress of the first ToR serving rail 0.
            let tor = topo
                .nodes()
                .iter()
                .find(|n| {
                    matches!(
                        n.kind,
                        astral_topo::NodeKind::Tor {
                            block: 0,
                            rail: 0,
                            side: 0,
                            ..
                        }
                    )
                })
                .expect("topology has ToRs")
                .id;
            for &l in topo.out_links(tor) {
                runner.sim_mut().degrade_link_at(SimTime::ZERO, l, 0.15);
            }
            truth = TruthCulprit::Switch(tor);
        }
        _ => {}
    }

    // --- Run the iterations ---
    let mut iter_durations: Vec<f64> = Vec::new();
    let mut failed_at: Option<u32> = None;
    for it in 0..cfg.iters {
        // Mid-window hard faults land after the first healthy iteration.
        if it == 1 && fault == Fault::OpticalFiberCut {
            // Cut a fabric link on an active QP's path
            // (deterministically: the lexicographically first path).
            let paths = fabric_paths(runner.sim());
            let link = paths
                .get(rng.below(paths.len().max(1) as u64) as usize)
                .and_then(|p| topo.link_between(p[1], p[2]));
            if let Some(l) = link {
                let now = runner.sim().now();
                runner.sim_mut().fail_link_at(now, l);
                truth = TruthCulprit::Link(l);
            }
        }
        // A flapper is *recurrent*: the same link drops and heals once per
        // iteration for three iterations (6 up/down edges in the flap
        // counters — a single transient would log only 2).
        if matches!(fault, Fault::LinkFlap) && (1..=3).contains(&it) {
            let link = flap_link.or_else(|| {
                let paths = fabric_paths(runner.sim());
                paths.first().and_then(|p| topo.link_between(p[1], p[2]))
            });
            if let Some(l) = link {
                let now = runner.sim().now();
                runner.sim_mut().fail_link_at(now, l);
                runner
                    .sim_mut()
                    .restore_link_at(now + astral_sim::SimDuration::from_millis(30), l);
                flap_link = Some(l);
                truth = TruthCulprit::Link(l);
            }
        }
        let res = runner.all_reduce_flat(&group, cfg.bytes);
        iter_durations.push(res.duration.as_secs_f64());
        if res.failed_flows > 0 && failed_at.is_none() {
            failed_at = Some(it);
        }
    }

    // --- Live INT probing window: the analyzer's hop-by-hop probes run
    // while the anomaly is active, so re-create one communication step and
    // probe every QP path mid-flight. ---
    let mut prober = crate::snapshot::CannedProber::default();
    {
        let qps: Vec<(astral_net::QpId, NodeId, NodeId, u16)> = runner
            .sim()
            .qp_records()
            .map(|r| (r.qp, r.src_nic, r.dst_nic, r.tuple.src_port))
            .collect();
        let now = runner.sim().now();
        for &(qp, _, _, _) in &qps {
            runner.sim_mut().inject_at(
                now,
                astral_net::FlowSpec {
                    qp,
                    bytes: 32 << 20,
                    weight: 1.0,
                },
            );
        }
        runner
            .sim_mut()
            .run_until(now + astral_sim::SimDuration::from_micros(200));
        for (_, src, dst, sport) in qps {
            let probe = runner.sim().int_probe(src, dst, sport);
            prober.probes.insert((src, dst), probe);
        }
        runner.sim_mut().run_until_idle();
    }

    // --- Build the snapshot ---
    let healthy_comm = iter_durations.first().copied().unwrap_or(0.0);
    let mut snap = Snapshot {
        job: Some(JobDesc {
            job: 0,
            hosts: hosts.clone(),
            expected_iters: cfg.iters,
            expected_iter_s: cfg.comp_base_s + healthy_comm,
        }),
        ..Snapshot::default()
    };
    snap.harvest_network(runner.sim());

    // QP rate fractions from the ms-level series.
    let port_rate = 200e9;
    for rec in &snap.qp_registry {
        if let Some(series) = snap.qp_series.get(&rec.qp) {
            let pts = series.points();
            if pts.len() >= 2 {
                let span = pts
                    .last()
                    .expect("nonempty")
                    .0
                    .saturating_since(pts[0].0)
                    .as_secs_f64();
                if span > 0.0 {
                    let bytes: f64 = pts.iter().map(|&(_, v)| v).sum();
                    snap.qp_rate_frac
                        .insert(rec.qp, (bytes * 8.0 / span / port_rate).min(1.0));
                }
            }
        }
    }

    // Hosts touched by errCQE QPs (for error-log attribution).
    let errored_qps: std::collections::HashSet<QpId> = snap.err_cqe.iter().map(|e| e.qp).collect();
    let host_errored = |h: HostId| -> bool {
        snap.qp_registry.iter().any(|r| {
            errored_qps.contains(&r.qp)
                && [r.ctx.src_gpu, r.ctx.dst_gpu]
                    .into_iter()
                    .flatten()
                    .any(|g| topo.gpu_host(g) == h)
        })
    };

    let mean_comm = iter_durations.iter().sum::<f64>() / iter_durations.len().max(1) as f64;
    for (i, &h) in hosts.iter().enumerate() {
        let mut comp = cfg.comp_base_s * (1.0 + 0.002 * (i % 5) as f64);
        let mut comm = mean_comm;
        let mut iters_done = cfg.iters;
        let mut ops_done = 1000 * cfg.iters as u64;
        let mut error_log = None;
        let mut health = HostHealth::healthy(h);

        match fault {
            Fault::GpuXid { host } if host == h => {
                comp *= 8.0;
                error_log = Some("CUDA error: an illegal memory access (Xid 79)".into());
                iters_done = 2;
                health.gpu_xid = Some(79);
                health.gpu_util = 0.1;
                truth = TruthCulprit::Host(h);
            }
            Fault::EccMemory { host } if host == h => {
                comp *= 3.0;
                error_log = Some("uncorrectable ECC error encountered".into());
                iters_done = 2;
                health.ecc_errors = 17;
                truth = TruthCulprit::Host(h);
            }
            Fault::HostEnvBad { host } if host == h => {
                error_log = Some("NCCL WARN Bootstrap: no socket interface found".into());
                iters_done = 0;
                ops_done = 0;
                health.env_ok = false;
                truth = TruthCulprit::Host(h);
            }
            Fault::HostEnvRuntime { host } if host == h => {
                comp *= 6.0;
                error_log = Some("container killed: cgroup memory limit".into());
                iters_done = 3;
                health.env_ok = false;
                truth = TruthCulprit::Host(h);
            }
            Fault::UserCodeBug => {
                if i % 3 == 0 {
                    comp *= 4.0 + rng.next_f64();
                    error_log = Some("RuntimeError: shape mismatch in loss".into());
                    iters_done = 3;
                }
                truth = TruthCulprit::Software;
            }
            Fault::CclBugHang { host } if host == h => {
                iters_done = 2;
                ops_done = 2000 + 37; // stuck mid-iteration
                comm = mean_comm * 50.0;
                truth = TruthCulprit::Host(h);
            }
            _ => {}
        }
        // HostEnvBad blocks the whole job from starting.
        if matches!(fault, Fault::HostEnvBad { .. }) {
            iters_done = 0;
            ops_done = 0;
        }
        // Hard network faults stop the job at the failing iteration.
        if let Some(stop) = failed_at {
            iters_done = iters_done.min(stop + 1);
            if host_errored(h) {
                error_log = Some("NCCL watchdog: transport retry exceeded (errCQE)".into());
            }
        }
        if matches!(fault, Fault::PcieDegrade { host, .. } if host == h) {
            health.pcie_degraded = true;
        }

        snap.ranks.push(RankProgress {
            gpu: group[i],
            host: h,
            iters_done,
            ops_done,
            comp_time_s: comp,
            comm_time_s: comm,
            error_log,
        });
        snap.health.push(health);
    }

    ScenarioOutcome {
        snapshot: snap,
        fault,
        truth,
        prober,
        runner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{Analyzer, Culprit};
    use crate::taxonomy::{CauseClass, Manifestation};
    use astral_topo::{build_astral, AstralParams};

    fn topo() -> Topology {
        build_astral(&AstralParams::sim_small())
    }

    fn diagnose(fault: Fault) -> (crate::analyzer::Diagnosis, TruthCulprit) {
        let t = topo();
        let out = run_fault_scenario(&t, fault, &ScenarioConfig::default());
        let d = Analyzer::new().diagnose(&out.snapshot, &out.prober);
        (d, out.truth)
    }

    #[test]
    fn healthy_scenario_is_clean() {
        let (d, truth) = diagnose(Fault::None);
        assert_eq!(truth, TruthCulprit::None);
        assert_eq!(d.culprit, Culprit::Unknown);
    }

    #[test]
    fn gpu_xid_is_localized() {
        let (d, truth) = diagnose(Fault::GpuXid { host: HostId(3) });
        assert_eq!(truth, TruthCulprit::Host(HostId(3)));
        assert_eq!(d.cause, CauseClass::GpuHardware);
        assert_eq!(d.culprit, Culprit::Host(HostId(3)));
    }

    #[test]
    fn pcie_degrade_found_via_pfc_drilldown() {
        let (d, truth) = diagnose(Fault::PcieDegrade {
            host: HostId(0),
            factor: 0.2,
        });
        assert_eq!(truth, TruthCulprit::Host(HostId(0)));
        assert_eq!(d.manifestation, Manifestation::FailSlow);
        assert_eq!(d.cause, CauseClass::PcieBottleneck);
        assert_eq!(d.culprit, Culprit::Host(HostId(0)));
        // The drill-down must have walked all four layers.
        assert!(d.evidence.len() >= 3, "evidence: {:?}", d.evidence);
    }

    #[test]
    fn fiber_cut_localized_by_path_overlap() {
        let (d, truth) = diagnose(Fault::OpticalFiberCut);
        assert_eq!(d.manifestation, Manifestation::FailStop);
        assert_eq!(d.cause, CauseClass::NicOrLink);
        // Localization must name the cut link or one of its endpoints.
        match (d.culprit, truth) {
            (Culprit::Switch(_), TruthCulprit::Link(_)) => {}
            (Culprit::Link(l), TruthCulprit::Link(t)) => assert_eq!(l, t),
            (Culprit::Host(_), TruthCulprit::Link(_)) => {}
            (c, t) => panic!("unexpected localization {c:?} vs truth {t:?}"),
        }
    }

    #[test]
    fn link_flap_names_the_flapping_link_exactly() {
        let (d, truth) = diagnose(Fault::LinkFlap);
        assert_eq!(d.cause, CauseClass::NicOrLink);
        // Three fail+restore cycles leave ≥ 6 flap edges on one link; the
        // physical-layer flap consult must name that exact link rather
        // than falling through to the path-overlap switch heuristic.
        match (d.culprit, truth) {
            (Culprit::Link(l), TruthCulprit::Link(t)) => assert_eq!(l, t),
            (c, t) => panic!("flapper not pinned to its link: {c:?} vs truth {t:?}"),
        }
        assert!(
            d.evidence.iter().any(|e| e.contains("flapping")),
            "evidence: {:?}",
            d.evidence
        );
    }

    #[test]
    fn user_code_bug_raises_software_alarm() {
        let (d, truth) = diagnose(Fault::UserCodeBug);
        assert_eq!(truth, TruthCulprit::Software);
        assert_eq!(d.cause, CauseClass::SoftwareOrUserCode);
    }

    #[test]
    fn env_failure_is_fail_on_start() {
        let (d, _) = diagnose(Fault::HostEnvBad { host: HostId(2) });
        assert_eq!(d.manifestation, Manifestation::FailOnStart);
        assert_eq!(d.cause, CauseClass::HostEnvironment);
        assert_eq!(d.culprit, Culprit::Host(HostId(2)));
    }

    #[test]
    fn ccl_hang_isolates_the_stuck_host() {
        let (d, _) = diagnose(Fault::CclBugHang { host: HostId(5) });
        assert_eq!(d.manifestation, Manifestation::FailHang);
        assert_eq!(d.culprit, Culprit::Host(HostId(5)));
    }
}

//! Cross-host + hierarchical correlation analysis (paper §3.3).
//!
//! The algorithm starts at the application layer (closest to the user's
//! perception), detects the failure manifestation, compares hosts
//! horizontally (threshold-agnostic outlier detection), then drills down:
//!
//! * **Branch #1 — computation anomalies**: a single anomalous host is
//!   correlated with its physical-layer logs (Xid, ECC, environment);
//!   anomalies on *many* hosts indicate software/user code and raise an
//!   alarm for manual intervention.
//! * **Branch #2 — communication anomalies**: errCQE events are mapped
//!   through the QP registry to five-tuples and sFlow paths; overlapping
//!   paths identify the failure point. Slow QPs (<50% of link rate)
//!   trigger INT hop-by-hop probes; the congested hop's switch counters
//!   (PFC pauses) and the drain host's PCIe state separate hardware drain
//!   bottlenecks from plain ECMP congestion.
//!
//! [`diagnose`] runs the layers as steps of one [`DrillDown`]: each step
//! appends its evidence and query count and either names a
//! `(cause, culprit)` finding or hands over to the next, and the one
//! finding becomes the [`Diagnosis`] in [`DrillDown::verdict`].

use crate::correlate::CorrelationPrior;
use crate::snapshot::{IntProber, Snapshot};
use crate::taxonomy::{CauseClass, Manifestation};
use astral_net::QpId;
use astral_sim::Summary;
use astral_topo::{HostId, LinkId, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// What the analyzer pinned the fault on — and, for an injected scenario,
/// where the fault really was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Culprit {
    /// A specific host (or its GPU/NIC/PCIe).
    Host(HostId),
    /// A specific link.
    Link(LinkId),
    /// A specific switch.
    Switch(NodeId),
    /// Software — no single device.
    Software,
    /// Could not be localized (as ground truth: nothing was injected).
    Unknown,
}

impl Culprit {
    /// Does this verdict localize the fault whose ground truth is `truth`?
    /// The device (or software) must match, except that a link and either
    /// of its endpoint switches localize each other, and a host localizes a
    /// link fault (the NIC side of the link). Nothing localizes `Unknown`.
    pub fn localizes(&self, truth: &Culprit, topo: &Topology) -> bool {
        let touches = |l: LinkId, s: NodeId| topo.link(l).src == s || topo.link(l).dst == s;
        match (*self, *truth) {
            (Culprit::Host(a), Culprit::Host(b)) => a == b,
            (Culprit::Software, Culprit::Software) => true,
            (Culprit::Link(a), Culprit::Link(b)) => a == b,
            (Culprit::Switch(a), Culprit::Switch(b)) => a == b,
            (Culprit::Switch(s), Culprit::Link(l)) | (Culprit::Link(l), Culprit::Switch(s)) => {
                touches(l, s)
            }
            (Culprit::Host(_), Culprit::Link(_)) => true,
            _ => false,
        }
    }
}

/// The analyzer's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Detected manifestation.
    pub manifestation: Manifestation,
    /// Cause family.
    pub cause: CauseClass,
    /// Localization.
    pub culprit: Culprit,
    /// The drill-down trace, layer by layer (human-readable evidence).
    pub evidence: Vec<String>,
    /// Telemetry queries issued (drives the MTTLF model).
    pub queries: u32,
}

/// Robust z-score beyond which a rank is an outlier.
const OUTLIER_Z: f64 = 3.5;

/// QP rate fraction below which a flow is "slow" (paper: 50%).
const SLOW_QP_FRAC: f64 = 0.5;

/// Per-hop delay above which a hop is congested.
const HOP_DELAY_THRESHOLD_US: f64 = 100.0;

/// Iteration time above `expected × this` counts as slow.
const SLOW_ITER_FACTOR: f64 = 1.15;

/// Rack inlet temperature above which the cooling substrate is suspect
/// (supply air should sit near the low twenties).
const INLET_ALARM_C: f64 = 32.0;

/// Power cap fraction below which the power substrate is suspect.
const POWER_CAP_ALARM_FRAC: f64 = 0.995;

/// Up/down transition count at which a link counts as *flapping* rather
/// than transiently failed: one hard fail + one restore is 2 edges; a
/// second fail on the same link makes the evidence recurrent.
pub const FLAP_EDGES_MIN: u32 = 3;

/// A step's conclusion: the cause family and where it sits.
type Finding = (CauseClass, Culprit);

/// A drill-down step that may conclude or hand over to the next one.
type Step<'s> = fn(&mut DrillDown<'s>) -> Option<Finding>;

/// Run the full hierarchical correlation over one snapshot.
///
/// The mined `prior` orders the substrate and errCQE steps. When it says
/// substrate onsets are independent of comm faults, substrate telemetry is
/// consulted *before* errCQE evidence — errCQE counters are cumulative, so
/// a link fault early in a run would otherwise shadow every later
/// cooling/power cascade as `NicOrLink`. Callers with nothing mined pass
/// `&CorrelationPrior::default()`, which keeps errCQE evidence first.
pub fn diagnose(snap: &Snapshot, prober: &dyn IntProber, prior: &CorrelationPrior) -> Diagnosis {
    let mut dd = DrillDown::start(snap);
    let (comm_outliers, focus) = dd.compare_hosts();
    let pair: [Step<'_>; 2] = if prior.suggests_substrate_first() {
        [DrillDown::substrate, DrillDown::err_cqe]
    } else {
        [DrillDown::err_cqe, DrillDown::substrate]
    };
    let (cause, culprit) = pair
        .into_iter()
        .find_map(|step| step(&mut dd))
        .or_else(|| dd.slow_qps(prober, &comm_outliers))
        .unwrap_or_else(|| dd.compute(&focus));
    dd.verdict(cause, culprit)
}

/// One drill-down in progress: the manifestation found at the application
/// layer, the evidence trail so far and the telemetry queries issued.
struct DrillDown<'s> {
    snap: &'s Snapshot,
    manifestation: Manifestation,
    evidence: Vec<String>,
    queries: u32,
}

impl<'s> DrillDown<'s> {
    /// Step 1, the application layer: one progress query per rank, and the
    /// manifestation they show.
    fn start(snap: &'s Snapshot) -> Self {
        let (manifestation, line) = manifestation(snap);
        DrillDown {
            snap,
            manifestation,
            evidence: vec![line],
            queries: snap.ranks.len() as u32,
        }
    }

    fn note(&mut self, line: impl Into<String>) {
        self.evidence.push(line.into());
    }

    /// The drill-down's one verdict.
    fn verdict(self, cause: CauseClass, culprit: Culprit) -> Diagnosis {
        Diagnosis {
            manifestation: self.manifestation,
            cause,
            culprit,
            evidence: self.evidence,
            queries: self.queries,
        }
    }

    /// Step 2, cross-host horizontal comparison: the hosts whose comm time
    /// stands out, and the computation focus — hosts whose compute time
    /// stands out, else those whose progress lags.
    fn compare_hosts(&mut self) -> (Vec<HostId>, Vec<HostId>) {
        let ranks = &self.snap.ranks;
        let comp = outliers(ranks.iter().map(|r| (r.host, r.comp_time_s)));
        let comm = outliers(ranks.iter().map(|r| (r.host, r.comm_time_s)));
        let laggards = outliers(ranks.iter().map(|r| (r.host, -(r.ops_done as f64))));
        self.queries += 3;
        (comm, if comp.is_empty() { laggards } else { comp })
    }

    /// The power/cooling drill-down. A substrate cascade manifests as
    /// stragglers on *every* host of one rack row; horizontal comparison
    /// alone would blame "software" (many hosts anomalous at once) or the
    /// straggler itself. Shared thermal or power-cap telemetry names the
    /// originating substrate instead. Cooling wins over power when it
    /// affects at least as many hosts (a pump fault heats the whole row; a
    /// grid sag caps the whole row — ties go to the hotter signal, thermal
    /// throttle, because caps are often *consequences* of thermal
    /// mitigation elsewhere).
    fn substrate(&mut self) -> Option<Finding> {
        let health = &self.snap.health;
        self.queries += health.len() as u32;
        let mut hot: Vec<(HostId, f64)> = health
            .iter()
            .filter(|h| h.thermal_throttle || h.inlet_temp_c > INLET_ALARM_C)
            .map(|h| (h.host, h.inlet_temp_c))
            .collect();
        let mut capped: Vec<(HostId, f64)> = health
            .iter()
            .filter(|h| h.power_cap_frac < POWER_CAP_ALARM_FRAC)
            .map(|h| (h.host, h.power_cap_frac))
            .collect();
        if hot.is_empty() && capped.is_empty() {
            return None;
        }
        self.queries += 1;
        if hot.len() >= capped.len() {
            hot.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let (hottest, temp) = hot[0];
            self.note(format!(
                "physical layer: {} host(s) with inlet above {:.0} °C or thermal throttle engaged \
                 (hottest {hottest} at {temp:.1} °C) — shared cooling substrate, \
                 not per-host compute",
                hot.len(),
                INLET_ALARM_C,
            ));
            return Some((CauseClass::Cooling, Culprit::Host(hottest)));
        }
        capped.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let (deepest, cap) = capped[0];
        self.note(format!(
            "physical layer: {} host(s) power-capped (deepest {deepest} at {:.0}% of nominal) — \
             HVDC row supply-limited past its battery ride-through",
            capped.len(),
            cap * 100.0,
        ));
        Some((CauseClass::PowerDelivery, Culprit::Host(deepest)))
    }

    /// Branch #2a, errCQE events: resolve the failed QPs to their sFlow
    /// paths, then consult the flap counters and the paths' overlap.
    fn err_cqe(&mut self) -> Option<Finding> {
        let snap = self.snap;
        if snap.err_cqe.is_empty() {
            return None;
        }
        self.note(format!(
            "transport layer: {} errCQE events; resolving QPs to paths",
            snap.err_cqe.len()
        ));
        self.queries += snap.err_cqe.len() as u32;
        let paths: Vec<&[NodeId]> = snap
            .err_cqe
            .iter()
            .filter_map(|e| snap.sflow.get(&e.qp))
            .map(Vec::as_slice)
            .collect();
        self.queries += paths.len() as u32;
        if paths.is_empty() {
            self.note("network layer: no path records for failed QPs");
            return Some((CauseClass::NicOrLink, Culprit::Unknown));
        }
        self.queries += 1;
        let culprit = match self.flapping_link() {
            Some(link) => Culprit::Link(link),
            None => self.failure_point(&paths),
        };
        Some((CauseClass::NicOrLink, culprit))
    }

    /// Physical layer first: recurrent up/down transitions on one link
    /// (≥ 3 edges: a fail + restore is only 2) separate a *flapping* link
    /// from a one-off transient or a clean fiber cut — the recurrence is
    /// the evidence, so the flapped link itself is the culprit, not the
    /// overlap switch.
    fn flapping_link(&mut self) -> Option<LinkId> {
        let (link, edges) = self
            .snap
            .link_flaps
            .iter()
            .filter(|&(_, &edges)| edges >= FLAP_EDGES_MIN)
            .map(|(&l, &edges)| (l, edges))
            .min_by_key(|&(_, edges)| std::cmp::Reverse(edges))?;
        self.note(format!(
            "physical layer: link {link} recorded {edges} up/down transitions — \
             recurrent flapping, not a one-off transient"
        ));
        Some(link)
    }

    /// Where the failed paths meet: a switch interior to all of them, else
    /// the host behind an endpoint NIC they all share, else the host behind
    /// the first path's source NIC.
    fn failure_point(&mut self, paths: &[&[NodeId]]) -> Culprit {
        let interior = |p: &[NodeId]| p[1..p.len() - 1].to_vec();
        let mut common = interior(paths[0]);
        for p in &paths[1..] {
            let nodes = interior(p);
            common.retain(|n| nodes.contains(n));
        }
        if !common.is_empty() && paths.len() > 1 {
            let node = common[0];
            self.note(format!(
                "network layer: {} failed paths overlap at {node}; flap counter consulted",
                paths.len()
            ));
            self.queries += 1;
            return Culprit::Switch(node);
        }
        let (src, dst) = (paths[0][0], paths[0][paths[0].len() - 1]);
        let nic = if paths.iter().all(|p| p[p.len() - 1] == dst) {
            dst
        } else if paths.iter().all(|p| p[0] == src) {
            src
        } else {
            self.note("network layer: single failed path; NIC uplink suspected");
            return endpoint_host(self.snap, src).map_or(Culprit::Unknown, Culprit::Host);
        };
        self.note(format!(
            "network layer: all failed paths share endpoint {nic} — NIC or its links"
        ));
        endpoint_host(self.snap, nic).map_or(Culprit::Unknown, Culprit::Host)
    }

    /// Branch #2b, slow QPs: when some QP runs below `SLOW_QP_FRAC` of its
    /// port and the job is slow or some host's comm time stands out, INT
    /// probes walk the four slowest paths hop by hop to the congested hop.
    fn slow_qps(&mut self, prober: &dyn IntProber, comm_outliers: &[HostId]) -> Option<Finding> {
        let snap = self.snap;
        let mut slow: Vec<(QpId, f64)> = snap
            .qp_rate_frac
            .iter()
            .filter(|&(_, &f)| f < SLOW_QP_FRAC)
            .map(|(&qp, &f)| (qp, f))
            .collect();
        self.queries += 1;
        let slow_job = self.manifestation == Manifestation::FailSlow || !comm_outliers.is_empty();
        if slow.is_empty() || !slow_job {
            return None;
        }
        self.note(format!(
            "transport layer: {} QPs below {:.0}% of link rate",
            slow.len(),
            SLOW_QP_FRAC * 100.0
        ));
        slow.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
        for (qp, frac) in slow.into_iter().take(4) {
            let Some(rec) = snap.qp(qp) else { continue };
            let probe = prober.probe(rec.src_nic, rec.dst_nic, rec.tuple.src_port);
            self.queries += 1;
            let Some(worst) = probe.hops.iter().max_by_key(|h| h.delay) else {
                continue;
            };
            let worst_us = worst.delay.as_nanos() as f64 / 1e3;
            if worst_us < HOP_DELAY_THRESHOLD_US {
                continue;
            }
            self.note(format!(
                "network layer: INT on {} ({:.0}% rate) shows {:.0}µs at hop {} (link {})",
                rec.tuple,
                frac * 100.0,
                worst_us,
                worst.node,
                worst.link
            ));
            return Some(self.congested_hop(worst.link));
        }
        self.note("INT probes found no congested hop");
        Some((CauseClass::Unknown, Culprit::Unknown))
    }

    /// The physical layer under a congested hop: PFC pauses with a
    /// PCIe-degraded drain host are the §5 incident; pauses without one are
    /// a fabric-side fault; no pauses at all is persistent ECMP congestion
    /// (the paper's fix: reassign UDP source ports).
    fn congested_hop(&mut self, link: LinkId) -> Finding {
        let snap = self.snap;
        self.queries += 1;
        let pfc: u64 = snap.link_pfc.values().sum();
        if pfc == 0 {
            self.note(
                "physical layer: no PFC; persistent ECMP congestion — reassigning UDP source ports",
            );
            return (CauseClass::Congestion, Culprit::Link(link));
        }
        self.note(format!(
            "physical layer: PFC pause counters elevated ({pfc} ns total)"
        ));
        self.queries += snap.health.len() as u32;
        if let Some(h) = snap.health.iter().find(|h| h.pcie_degraded) {
            self.note(format!(
                "physical layer: PCIe trained below rated width on {} — drain bottleneck triggering PFC storm",
                h.host
            ));
            return (CauseClass::PcieBottleneck, Culprit::Host(h.host));
        }
        self.note("no degraded host found; pauses attributed to fabric-side fault");
        (CauseClass::SwitchOrFabric, Culprit::Link(link))
    }

    /// Branch #1, computation anomalies: one focus host is correlated with
    /// its physical logs; several at once point at software.
    fn compute(&mut self, focus: &[HostId]) -> Finding {
        match *focus {
            [host] => self.single_host(host),
            [] => self.no_outlier(),
            ref many => {
                self.note(format!(
                    "app layer: {} hosts anomalous simultaneously — software/user code suspected; raising alarm",
                    many.len()
                ));
                (CauseClass::SoftwareOrUserCode, Culprit::Software)
            }
        }
    }

    fn single_host(&mut self, host: HostId) -> Finding {
        self.note(format!(
            "app layer: host {host} deviates from the fleet; descending to its physical logs"
        ));
        self.queries += 1;
        let log = self.snap.health_of(host).and_then(|h| {
            if let Some(xid) = h.gpu_xid {
                Some((
                    CauseClass::GpuHardware,
                    format!("physical layer: fatal GPU Xid {xid} on {host}"),
                ))
            } else if h.ecc_errors > 0 {
                Some((
                    CauseClass::GpuHardware,
                    format!("physical layer: {} ECC errors on {host}", h.ecc_errors),
                ))
            } else if !h.env_ok {
                Some((
                    CauseClass::HostEnvironment,
                    format!("physical layer: environment check failed on {host}"),
                ))
            } else {
                None
            }
        });
        let (cause, line) = log.unwrap_or_else(|| {
            let line = "physical layer: no fatal log matched; isolating host";
            (CauseClass::Unknown, line.to_string())
        });
        self.note(line);
        (cause, Culprit::Host(host))
    }

    /// No outlier host: a globally broken job may still show a failed
    /// environment check on some host; otherwise nothing is localized.
    fn no_outlier(&mut self) -> Finding {
        let health = &self.snap.health;
        if let Some(h) = health.iter().find(|h| !h.env_ok) {
            self.note(format!(
                "physical layer: environment check failed on {}",
                h.host
            ));
            self.queries += health.len() as u32;
            return (CauseClass::HostEnvironment, Culprit::Host(h.host));
        }
        self.note("no outlier host and no device-level log matched");
        (CauseClass::Unknown, Culprit::Unknown)
    }
}

/// The application-layer manifestation of a snapshot, with its evidence.
fn manifestation(snap: &Snapshot) -> (Manifestation, String) {
    let errored = snap.ranks.iter().filter(|r| r.error_log.is_some()).count();
    let max_iters = snap.ranks.iter().map(|r| r.iters_done).max().unwrap_or(0);
    let min_iters = snap.ranks.iter().map(|r| r.iters_done).min().unwrap_or(0);
    let expected = snap.job.as_ref().map(|j| j.expected_iters).unwrap_or(0);
    let expected_t = snap.job.as_ref().map(|j| j.expected_iter_s).unwrap_or(0.0);

    if errored > 0 && max_iters == 0 {
        let line = "app layer: error logs with zero completed iterations";
        return (Manifestation::FailOnStart, line.into());
    }
    if errored > 0 {
        let line = format!("app layer: {errored} ranks logged fatal errors");
        return (Manifestation::FailStop, line);
    }
    if expected > 0 && min_iters < expected {
        let line = format!(
            "app layer: progress stagnant at iteration {min_iters}/{expected} with no error logs"
        );
        return (Manifestation::FailHang, line);
    }
    let slowest_iter = snap
        .ranks
        .iter()
        .map(|r| r.comp_time_s + r.comm_time_s)
        .fold(0.0f64, f64::max);
    if expected_t > 0.0 && slowest_iter > expected_t * SLOW_ITER_FACTOR {
        let line = format!(
            "app layer: iteration {slowest_iter:.3}s exceeds Seer expectation {expected_t:.3}s"
        );
        return (Manifestation::FailSlow, line);
    }
    let line = "app layer: progress within Seer thresholds";
    (Manifestation::FailSlow, line.into())
}

/// The host owning a NIC endpoint: the first QP registry record with a
/// GPU behind that NIC, resolved to the rank on that GPU. `None` when no
/// record names a GPU there or no rank runs on it.
fn endpoint_host(snap: &Snapshot, nic: NodeId) -> Option<HostId> {
    for r in &snap.qp_registry {
        if r.src_nic == nic {
            if let Some(g) = r.ctx.src_gpu {
                return snap.ranks.iter().find(|rk| rk.gpu == g).map(|rk| rk.host);
            }
        }
        if r.dst_nic == nic {
            if let Some(g) = r.ctx.dst_gpu {
                return snap.ranks.iter().find(|rk| rk.gpu == g).map(|rk| rk.host);
            }
        }
    }
    None
}

/// Robust per-host outlier detection: hosts whose mean metric deviates by
/// more than `OUTLIER_Z` robust z-scores from the fleet.
fn outliers<I: Iterator<Item = (HostId, f64)>>(samples: I) -> Vec<HostId> {
    let mut per_host: std::collections::BTreeMap<HostId, (f64, u32)> =
        std::collections::BTreeMap::new();
    for (h, v) in samples {
        let e = per_host.entry(h).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }
    let means: Vec<(HostId, f64)> = per_host
        .into_iter()
        .map(|(h, (s, n))| (h, s / n as f64))
        .collect();
    let summary = Summary::from_samples(means.iter().map(|&(_, v)| v));
    let (med, mad) = match (summary.median(), summary.mad()) {
        (Some(m), Some(d)) => (m, d),
        _ => return Vec::new(),
    };
    means
        .into_iter()
        .filter(|&(_, v)| {
            if mad > f64::EPSILON {
                summary.robust_zscore(v).is_some_and(|s| s > OUTLIER_Z)
            } else {
                // Degenerate fleet (all identical): any host that moved by
                // a large relative margin is the outlier.
                (v - med).abs() > 0.5 * med.abs().max(1e-9)
            }
        })
        .map(|(h, _)| h)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CannedProber, HostHealth, JobDesc, RankProgress};
    use astral_net::{FiveTuple, QpContext, QpRecord};
    use astral_topo::GpuId;

    fn run(snap: &Snapshot) -> Diagnosis {
        diagnose(snap, &CannedProber::default(), &CorrelationPrior::default())
    }

    fn base_snapshot(hosts: u32) -> Snapshot {
        let mut s = Snapshot {
            job: Some(JobDesc {
                job: 0,
                hosts: (0..hosts).map(HostId).collect(),
                expected_iters: 10,
                expected_iter_s: 1.0,
            }),
            ..Snapshot::default()
        };
        for h in 0..hosts {
            s.ranks.push(RankProgress {
                gpu: GpuId(h * 4),
                host: HostId(h),
                iters_done: 10,
                ops_done: 1000,
                comp_time_s: 0.8 + 0.001 * (h % 3) as f64,
                comm_time_s: 0.15,
                error_log: None,
            });
            s.health.push(HostHealth::healthy(HostId(h)));
        }
        s
    }

    #[test]
    fn healthy_job_yields_no_culprit() {
        let snap = base_snapshot(16);
        let d = run(&snap);
        assert_eq!(d.culprit, Culprit::Unknown);
    }

    #[test]
    fn single_slow_host_with_xid_is_gpu_hardware() {
        let mut snap = base_snapshot(16);
        snap.ranks[5].comp_time_s = 4.0;
        snap.health[5].gpu_xid = Some(79);
        let d = run(&snap);
        assert_eq!(d.cause, CauseClass::GpuHardware);
        assert_eq!(d.culprit, Culprit::Host(HostId(5)));
        assert!(d.evidence.iter().any(|e| e.contains("Xid 79")));
    }

    #[test]
    fn many_slow_hosts_is_software() {
        let mut snap = base_snapshot(16);
        for i in [1usize, 4, 9, 12] {
            snap.ranks[i].comp_time_s = 5.0;
        }
        let d = run(&snap);
        assert_eq!(d.cause, CauseClass::SoftwareOrUserCode);
        assert_eq!(d.culprit, Culprit::Software);
    }

    #[test]
    fn hang_detected_from_stagnant_progress() {
        let mut snap = base_snapshot(8);
        for r in &mut snap.ranks {
            r.iters_done = 3;
        }
        let d = run(&snap);
        assert_eq!(d.manifestation, Manifestation::FailHang);
    }

    #[test]
    fn err_cqe_paths_overlap_to_switch() {
        let mut snap = base_snapshot(8);
        for r in &mut snap.ranks {
            r.error_log = Some("NCCL remote error".into());
        }
        // Two failed QPs whose paths share switch n100.
        for (i, (src, dst)) in [(NodeId(1), NodeId(2)), (NodeId(3), NodeId(4))]
            .into_iter()
            .enumerate()
        {
            let qp = QpId(i as u64 + 1);
            snap.qp_registry.push(QpRecord {
                qp,
                tuple: FiveTuple::roce(10, 20, 50_000),
                src_nic: src,
                dst_nic: dst,
                ctx: QpContext::anonymous(),
            });
            snap.err_cqe.push(astral_net::ErrCqe {
                time: astral_sim::SimTime::from_millis(5),
                qp,
                tuple: FiveTuple::roce(10, 20, 50_000),
            });
            snap.sflow
                .insert(qp, vec![src, NodeId(50 + i as u32), NodeId(100), dst]);
        }
        let d = run(&snap);
        assert_eq!(d.manifestation, Manifestation::FailStop);
        assert_eq!(d.cause, CauseClass::NicOrLink);
        assert_eq!(d.culprit, Culprit::Switch(NodeId(100)));
    }

    #[test]
    fn shared_endpoint_without_a_rank_is_not_pinned_on_host_zero() {
        let mut snap = base_snapshot(8);
        for r in &mut snap.ranks {
            r.error_log = Some("NCCL remote error".into());
        }
        // Two failed QPs into NIC n2 over disjoint interiors; the registry
        // names GPU 99 behind that NIC, and no rank runs there.
        for (i, src) in [NodeId(1), NodeId(3)].into_iter().enumerate() {
            let qp = QpId(i as u64 + 1);
            snap.qp_registry.push(QpRecord {
                qp,
                tuple: FiveTuple::roce(10, 20, 50_000),
                src_nic: src,
                dst_nic: NodeId(2),
                ctx: QpContext::for_job(0, 0, GpuId(4 * i as u32), GpuId(99)),
            });
            snap.err_cqe.push(astral_net::ErrCqe {
                time: astral_sim::SimTime::from_millis(5),
                qp,
                tuple: FiveTuple::roce(10, 20, 50_000),
            });
            snap.sflow
                .insert(qp, vec![src, NodeId(50 + i as u32), NodeId(2)]);
        }
        let d = run(&snap);
        assert_eq!(d.cause, CauseClass::NicOrLink);
        assert!(d.evidence.iter().any(|e| e.contains("share endpoint n2")));
        assert_eq!(d.culprit, Culprit::Unknown);
        // With a rank on that GPU the endpoint resolves to the rank's host.
        snap.ranks[5].gpu = GpuId(99);
        assert_eq!(run(&snap).culprit, Culprit::Host(HostId(5)));
    }

    #[test]
    fn recurrent_flap_edges_name_the_link_not_the_switch() {
        let mut snap = base_snapshot(8);
        for r in &mut snap.ranks {
            r.error_log = Some("NCCL remote error".into());
        }
        let qp = QpId(1);
        snap.qp_registry.push(QpRecord {
            qp,
            tuple: FiveTuple::roce(10, 20, 50_000),
            src_nic: NodeId(1),
            dst_nic: NodeId(2),
            ctx: QpContext::anonymous(),
        });
        snap.err_cqe.push(astral_net::ErrCqe {
            time: astral_sim::SimTime::from_millis(5),
            qp,
            tuple: FiveTuple::roce(10, 20, 50_000),
        });
        snap.sflow
            .insert(qp, vec![NodeId(1), NodeId(100), NodeId(2)]);
        // A fail + restore is 2 edges — below the flap threshold.
        snap.link_flaps.insert(LinkId(7), 2);
        let d = run(&snap);
        assert_ne!(d.culprit, Culprit::Link(LinkId(7)));
        // Three cycles = 6 edges: recurrent, the link itself is blamed.
        snap.link_flaps.insert(LinkId(7), 6);
        let d = run(&snap);
        assert_eq!(d.cause, CauseClass::NicOrLink);
        assert_eq!(d.culprit, Culprit::Link(LinkId(7)));
        assert!(d.evidence.iter().any(|e| e.contains("recurrent flapping")));
    }

    #[test]
    fn row_wide_thermal_throttle_is_cooling_not_software() {
        // Eight stragglers would normally trip the "multi-host → software"
        // heuristic; the substrate branch must claim them first because
        // every one of them carries cooling-substrate telemetry.
        let mut snap = base_snapshot(16);
        for i in 0..8usize {
            snap.ranks[i].comp_time_s = 2.0;
            snap.health[i].inlet_temp_c = 38.0 + i as f64;
            snap.health[i].thermal_throttle = true;
        }
        let d = run(&snap);
        assert_eq!(d.cause, CauseClass::Cooling);
        assert_eq!(d.culprit, Culprit::Host(HostId(7)), "hottest inlet wins");
        assert!(d.evidence.iter().any(|e| e.contains("cooling substrate")));
    }

    #[test]
    fn row_wide_power_cap_is_power_delivery() {
        let mut snap = base_snapshot(16);
        for i in 0..8usize {
            snap.ranks[i].comp_time_s = 1.6;
            snap.health[i].power_cap_frac = 0.7 - 0.01 * (i % 4) as f64;
        }
        let d = run(&snap);
        assert_eq!(d.cause, CauseClass::PowerDelivery);
        assert_eq!(d.culprit, Culprit::Host(HostId(3)), "deepest cap wins");
        assert!(d.evidence.iter().any(|e| e.contains("ride-through")));
    }

    #[test]
    fn wider_substrate_signal_wins_when_both_fire() {
        let mut snap = base_snapshot(16);
        for i in 0..6usize {
            snap.health[i].inlet_temp_c = 40.0;
            snap.health[i].thermal_throttle = true;
        }
        snap.health[10].power_cap_frac = 0.5;
        let d = run(&snap);
        assert_eq!(d.cause, CauseClass::Cooling, "6 hot hosts > 1 capped host");
    }
}

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

use crate::correlate::CorrelationPrior;
use crate::snapshot::{IntProber, Snapshot};
use crate::taxonomy::{CauseClass, Manifestation};
use astral_sim::Summary;
use astral_topo::{HostId, LinkId, NodeId};
use serde::{Deserialize, Serialize};

/// What the analyzer pinned the fault on.
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
    /// Could not be localized.
    Unknown,
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

/// The hierarchical correlation analyzer.
#[derive(Debug, Clone, Default)]
pub struct Analyzer;

impl Analyzer {
    /// The analyzer (its thresholds are the module's constants).
    pub fn new() -> Self {
        Analyzer
    }

    /// Run the full hierarchical correlation over one snapshot.
    pub fn diagnose(&self, snap: &Snapshot, prober: &dyn IntProber) -> Diagnosis {
        self.diagnose_inner(snap, prober, false)
    }

    /// [`Analyzer::diagnose`] with a mined [`CorrelationPrior`] ordering
    /// the drill-down. When the prior says substrate onsets are
    /// independent of comm faults, substrate telemetry is consulted
    /// *before* errCQE evidence — errCQE counters are cumulative, so a
    /// link fault early in a run would otherwise shadow every later
    /// cooling/power cascade as `NicOrLink`. An inert (default) prior
    /// reproduces [`Analyzer::diagnose`] byte for byte.
    pub fn diagnose_with_prior(
        &self,
        snap: &Snapshot,
        prober: &dyn IntProber,
        prior: &CorrelationPrior,
    ) -> Diagnosis {
        self.diagnose_inner(snap, prober, prior.suggests_substrate_first())
    }

    fn diagnose_inner(
        &self,
        snap: &Snapshot,
        prober: &dyn IntProber,
        substrate_first: bool,
    ) -> Diagnosis {
        let mut evidence = Vec::new();
        let mut queries = 0u32;

        // ---- Step 1: application layer — manifestation ----
        queries += snap.ranks.len() as u32;
        let manifestation = self.detect_manifestation(snap, &mut evidence);

        // ---- Step 2: cross-host horizontal comparison ----
        let comp_outliers = outliers(
            snap.ranks.iter().map(|r| (r.host, r.comp_time_s)),
            OUTLIER_Z,
        );
        let comm_outliers = outliers(
            snap.ranks.iter().map(|r| (r.host, r.comm_time_s)),
            OUTLIER_Z,
        );
        let progress_laggards = outliers(
            snap.ranks.iter().map(|r| (r.host, -(r.ops_done as f64))),
            OUTLIER_Z,
        );
        queries += 3;

        // The mined prior reorders the next two branches: when substrate
        // onsets were observed independent of comm faults, the (cheap,
        // per-host) substrate telemetry check runs before the errCQE
        // branch, so stale cumulative comm errors cannot shadow a live
        // cooling/power cascade.
        if substrate_first {
            queries += snap.health.len() as u32;
            if let Some(d) = self.branch_substrate(snap, manifestation, &mut evidence, &mut queries)
            {
                return d;
            }
            if !snap.err_cqe.is_empty() {
                return self.branch_comm_errcqe(snap, manifestation, evidence, queries);
            }
        } else {
            // Communication evidence takes priority when present: errCQEs
            // and slow QPs point at the network even when the app-layer
            // symptom is a hang or stop.
            if !snap.err_cqe.is_empty() {
                return self.branch_comm_errcqe(snap, manifestation, evidence, queries);
            }

            // ---- Substrate drill-down: correlated power/cooling evidence ----
            // A substrate cascade manifests as stragglers on *every* host
            // of one rack row; horizontal comparison alone would blame
            // "software" (many hosts anomalous at once) or the straggler
            // itself. The physical layer disambiguates: shared thermal or
            // power-cap telemetry names the originating substrate, not the
            // symptom.
            queries += snap.health.len() as u32;
            if let Some(d) = self.branch_substrate(snap, manifestation, &mut evidence, &mut queries)
            {
                return d;
            }
        }

        let slow_qps: Vec<_> = snap
            .qp_rate_frac
            .iter()
            .filter(|&(_, &f)| f < SLOW_QP_FRAC)
            .map(|(&qp, &f)| (qp, f))
            .collect();
        queries += 1;
        if !slow_qps.is_empty()
            && (manifestation == Manifestation::FailSlow || !comm_outliers.is_empty())
        {
            return self.branch_comm_slow(snap, prober, manifestation, slow_qps, evidence, queries);
        }

        // ---- Branch #1: computation anomalies ----
        let focus: Vec<HostId> = if !comp_outliers.is_empty() {
            comp_outliers
        } else {
            progress_laggards
        };
        match focus.as_slice() {
            [single] => {
                evidence.push(format!(
                    "app layer: host {single} deviates from the fleet; descending to its physical logs"
                ));
                queries += 1;
                if let Some(h) = snap.health_of(*single) {
                    if let Some(xid) = h.gpu_xid {
                        evidence.push(format!("physical layer: fatal GPU Xid {xid} on {single}"));
                        return Diagnosis {
                            manifestation,
                            cause: CauseClass::GpuHardware,
                            culprit: Culprit::Host(*single),
                            evidence,
                            queries,
                        };
                    }
                    if h.ecc_errors > 0 {
                        evidence.push(format!(
                            "physical layer: {} ECC errors on {single}",
                            h.ecc_errors
                        ));
                        return Diagnosis {
                            manifestation,
                            cause: CauseClass::GpuHardware,
                            culprit: Culprit::Host(*single),
                            evidence,
                            queries,
                        };
                    }
                    if !h.env_ok {
                        evidence.push(format!(
                            "physical layer: environment check failed on {single}"
                        ));
                        return Diagnosis {
                            manifestation,
                            cause: CauseClass::HostEnvironment,
                            culprit: Culprit::Host(*single),
                            evidence,
                            queries,
                        };
                    }
                }
                evidence.push("physical layer: no fatal log matched; isolating host".into());
                Diagnosis {
                    manifestation,
                    cause: CauseClass::Unknown,
                    culprit: Culprit::Host(*single),
                    evidence,
                    queries,
                }
            }
            [] => {
                // No outlier: if the job is globally broken with error logs,
                // check env on every host; otherwise unknown.
                if let Some(h) = snap.health.iter().find(|h| !h.env_ok) {
                    evidence.push(format!(
                        "physical layer: environment check failed on {}",
                        h.host
                    ));
                    queries += snap.health.len() as u32;
                    return Diagnosis {
                        manifestation,
                        cause: CauseClass::HostEnvironment,
                        culprit: Culprit::Host(h.host),
                        evidence,
                        queries,
                    };
                }
                evidence.push("no outlier host and no device-level log matched".into());
                Diagnosis {
                    manifestation,
                    cause: CauseClass::Unknown,
                    culprit: Culprit::Unknown,
                    evidence,
                    queries,
                }
            }
            many => {
                evidence.push(format!(
                    "app layer: {} hosts anomalous simultaneously — software/user code suspected; raising alarm",
                    many.len()
                ));
                Diagnosis {
                    manifestation,
                    cause: CauseClass::SoftwareOrUserCode,
                    culprit: Culprit::Software,
                    evidence,
                    queries,
                }
            }
        }
    }

    /// The power/cooling drill-down: when hosts carry substrate telemetry
    /// (elevated inlets / thermal throttle / power caps), the diagnosis is
    /// the substrate itself. Cooling wins over power when both fire on the
    /// same window with more hosts affected (a pump fault heats the whole
    /// row; a grid sag caps the whole row — ties go to the hotter signal,
    /// thermal throttle, because caps are often *consequences* of thermal
    /// mitigation elsewhere).
    fn branch_substrate(
        &self,
        snap: &Snapshot,
        manifestation: Manifestation,
        evidence: &mut Vec<String>,
        queries: &mut u32,
    ) -> Option<Diagnosis> {
        let mut hot: Vec<(HostId, f64)> = snap
            .health
            .iter()
            .filter(|h| h.thermal_throttle || h.inlet_temp_c > INLET_ALARM_C)
            .map(|h| (h.host, h.inlet_temp_c))
            .collect();
        let mut capped: Vec<(HostId, f64)> = snap
            .health
            .iter()
            .filter(|h| h.power_cap_frac < POWER_CAP_ALARM_FRAC)
            .map(|h| (h.host, h.power_cap_frac))
            .collect();
        if hot.is_empty() && capped.is_empty() {
            return None;
        }
        *queries += 1;
        if hot.len() >= capped.len() && !hot.is_empty() {
            hot.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let (hottest, temp) = hot[0];
            evidence.push(format!(
                "physical layer: {} host(s) with inlet above {:.0} °C or thermal throttle engaged \
                 (hottest {hottest} at {temp:.1} °C) — shared cooling substrate, \
                 not per-host compute",
                hot.len(),
                INLET_ALARM_C,
            ));
            return Some(Diagnosis {
                manifestation,
                cause: CauseClass::Cooling,
                culprit: Culprit::Host(hottest),
                evidence: std::mem::take(evidence),
                queries: *queries,
            });
        }
        capped.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let (deepest, cap) = capped[0];
        evidence.push(format!(
            "physical layer: {} host(s) power-capped (deepest {deepest} at {:.0}% of nominal) — \
             HVDC row supply-limited past its battery ride-through",
            capped.len(),
            cap * 100.0,
        ));
        Some(Diagnosis {
            manifestation,
            cause: CauseClass::PowerDelivery,
            culprit: Culprit::Host(deepest),
            evidence: std::mem::take(evidence),
            queries: *queries,
        })
    }

    fn detect_manifestation(&self, snap: &Snapshot, evidence: &mut Vec<String>) -> Manifestation {
        let errored = snap.ranks.iter().filter(|r| r.error_log.is_some()).count();
        let max_iters = snap.ranks.iter().map(|r| r.iters_done).max().unwrap_or(0);
        let min_iters = snap.ranks.iter().map(|r| r.iters_done).min().unwrap_or(0);
        let expected = snap.job.as_ref().map(|j| j.expected_iters).unwrap_or(0);
        let expected_t = snap.job.as_ref().map(|j| j.expected_iter_s).unwrap_or(0.0);

        if errored > 0 && max_iters == 0 {
            evidence.push("app layer: error logs with zero completed iterations".into());
            return Manifestation::FailOnStart;
        }
        if errored > 0 {
            evidence.push(format!("app layer: {errored} ranks logged fatal errors"));
            return Manifestation::FailStop;
        }
        if expected > 0 && min_iters < expected {
            evidence.push(format!(
                "app layer: progress stagnant at iteration {min_iters}/{expected} with no error logs"
            ));
            return Manifestation::FailHang;
        }
        let mean_iter = snap
            .ranks
            .iter()
            .map(|r| r.comp_time_s + r.comm_time_s)
            .fold(0.0f64, f64::max);
        if expected_t > 0.0 && mean_iter > expected_t * SLOW_ITER_FACTOR {
            evidence.push(format!(
                "app layer: iteration {mean_iter:.3}s exceeds Seer expectation {expected_t:.3}s"
            ));
            return Manifestation::FailSlow;
        }
        evidence.push("app layer: progress within Seer thresholds".into());
        Manifestation::FailSlow
    }

    /// Branch #2a: errCQE events — localization via path overlap.
    fn branch_comm_errcqe(
        &self,
        snap: &Snapshot,
        manifestation: Manifestation,
        mut evidence: Vec<String>,
        mut queries: u32,
    ) -> Diagnosis {
        evidence.push(format!(
            "transport layer: {} errCQE events; resolving QPs to paths",
            snap.err_cqe.len()
        ));
        queries += snap.err_cqe.len() as u32;

        // Collect the sFlow path of every failed QP.
        let mut paths: Vec<&Vec<NodeId>> = Vec::new();
        for e in &snap.err_cqe {
            if let Some(p) = snap.sflow.get(&e.qp) {
                paths.push(p);
            }
        }
        queries += paths.len() as u32;

        if paths.is_empty() {
            evidence.push("network layer: no path records for failed QPs".into());
            return Diagnosis {
                manifestation,
                cause: CauseClass::NicOrLink,
                culprit: Culprit::Unknown,
                evidence,
                queries,
            };
        }

        // Physical layer first: the link flap counters. Recurrent up/down
        // transitions on one link (≥ 3 edges: a fail + restore is only 2)
        // separate a *flapping* link from a one-off transient or a clean
        // fiber cut — the recurrence is the evidence, so the flapped link
        // itself is the culprit, not the overlap switch.
        queries += 1;
        let mut flapped: Vec<(LinkId, u32)> = snap
            .link_flaps
            .iter()
            .filter(|&(_, &edges)| edges >= FLAP_EDGES_MIN)
            .map(|(&l, &edges)| (l, edges))
            .collect();
        flapped.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        if let Some(&(link, edges)) = flapped.first() {
            evidence.push(format!(
                "physical layer: link {link} recorded {edges} up/down transitions — \
                 recurrent flapping, not a one-off transient"
            ));
            return Diagnosis {
                manifestation,
                cause: CauseClass::NicOrLink,
                culprit: Culprit::Link(link),
                evidence,
                queries,
            };
        }

        // Path overlap: intersect the *interior* nodes (switches).
        let mut common: Vec<NodeId> = paths[0][1..paths[0].len() - 1].to_vec();
        for p in &paths[1..] {
            let interior: std::collections::HashSet<NodeId> =
                p[1..p.len() - 1].iter().copied().collect();
            common.retain(|n| interior.contains(n));
        }

        // Also check the shared endpoint case (all failures touch one NIC).
        let first_src = paths[0].first().copied();
        let first_dst = paths[0].last().copied();
        let all_same_src = paths.iter().all(|p| p.first().copied() == first_src);
        let all_same_dst = paths.iter().all(|p| p.last().copied() == first_dst);

        if !common.is_empty() && paths.len() > 1 {
            let node = common[0];
            evidence.push(format!(
                "network layer: {} failed paths overlap at {node}; flap counter consulted",
                paths.len()
            ));
            queries += 1;
            return Diagnosis {
                manifestation,
                cause: CauseClass::NicOrLink,
                culprit: Culprit::Switch(node),
                evidence,
                queries,
            };
        }
        if all_same_src || all_same_dst {
            let nic = if all_same_dst { first_dst } else { first_src }.expect("non-empty path");
            // The registry maps the NIC back to its host.
            let host = snap
                .qp_registry
                .iter()
                .find(|r| r.src_nic == nic || r.dst_nic == nic)
                .and_then(|r| {
                    if r.src_nic == nic {
                        r.ctx.src_gpu
                    } else {
                        r.ctx.dst_gpu
                    }
                });
            evidence.push(format!(
                "network layer: all failed paths share endpoint {nic} — NIC or its links"
            ));
            let culprit = host
                .map(|_g| Culprit::Host(endpoint_host(snap, nic).unwrap_or(HostId(0))))
                .or_else(|| endpoint_host(snap, nic).map(Culprit::Host))
                .unwrap_or(Culprit::Unknown);
            return Diagnosis {
                manifestation,
                cause: CauseClass::NicOrLink,
                culprit,
                evidence,
                queries,
            };
        }
        // Single failed path: blame its first fabric link (the NIC uplink).
        evidence.push("network layer: single failed path; NIC uplink suspected".into());
        Diagnosis {
            manifestation,
            cause: CauseClass::NicOrLink,
            culprit: endpoint_host(snap, paths[0][0])
                .map(Culprit::Host)
                .unwrap_or(Culprit::Unknown),
            evidence,
            queries,
        }
    }

    /// Branch #2b: slow QPs — INT drill-down to the congested hop, then the
    /// switch's PFC counters and the drain host's PCIe state.
    fn branch_comm_slow(
        &self,
        snap: &Snapshot,
        prober: &dyn IntProber,
        manifestation: Manifestation,
        slow_qps: Vec<(astral_net::QpId, f64)>,
        mut evidence: Vec<String>,
        mut queries: u32,
    ) -> Diagnosis {
        evidence.push(format!(
            "transport layer: {} QPs below {:.0}% of link rate",
            slow_qps.len(),
            SLOW_QP_FRAC * 100.0
        ));

        // Probe the slowest QP's path hop by hop.
        let mut slowest = slow_qps.clone();
        slowest.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
        for (qp, frac) in slowest.into_iter().take(4) {
            let Some(rec) = snap.qp(qp) else { continue };
            let probe = prober.probe(rec.src_nic, rec.dst_nic, rec.tuple.src_port);
            queries += 1;
            let Some(worst) = probe.hops.iter().max_by_key(|h| h.delay) else {
                continue;
            };
            let worst_us = worst.delay.as_nanos() as f64 / 1e3;
            if worst_us < HOP_DELAY_THRESHOLD_US {
                continue;
            }
            evidence.push(format!(
                "network layer: INT on {} ({:.0}% rate) shows {:.0}µs at hop {} (link {})",
                rec.tuple,
                frac * 100.0,
                worst_us,
                worst.node,
                worst.link
            ));

            // Physical layer: PFC counters at and below the congested hop.
            queries += 1;
            let pfc_here = snap.link_pfc.get(&worst.link).copied().unwrap_or(0);
            let pfc_anywhere: u64 = snap.link_pfc.values().sum();
            if pfc_here > 0 || pfc_anywhere > 0 {
                evidence.push(format!(
                    "physical layer: PFC pause counters elevated ({} ns total)",
                    pfc_anywhere
                ));
                // Is a drain host's PCIe degraded? That is the §5 incident.
                queries += snap.health.len() as u32;
                if let Some(h) = snap.health.iter().find(|h| h.pcie_degraded) {
                    evidence.push(format!(
                        "physical layer: PCIe trained below rated width on {} — drain bottleneck triggering PFC storm",
                        h.host
                    ));
                    return Diagnosis {
                        manifestation,
                        cause: CauseClass::PcieBottleneck,
                        culprit: Culprit::Host(h.host),
                        evidence,
                        queries,
                    };
                }
                evidence
                    .push("no degraded host found; pauses attributed to fabric-side fault".into());
                return Diagnosis {
                    manifestation,
                    cause: CauseClass::SwitchOrFabric,
                    culprit: Culprit::Link(worst.link),
                    evidence,
                    queries,
                };
            }
            // No PFC: persistent ECMP congestion; recommend sport
            // reassignment (the paper's global routing optimization).
            evidence.push(
                "physical layer: no PFC; persistent ECMP congestion — reassigning UDP source ports"
                    .into(),
            );
            return Diagnosis {
                manifestation,
                cause: CauseClass::Congestion,
                culprit: Culprit::Link(worst.link),
                evidence,
                queries,
            };
        }
        evidence.push("INT probes found no congested hop".into());
        Diagnosis {
            manifestation,
            cause: CauseClass::Unknown,
            culprit: Culprit::Unknown,
            evidence,
            queries,
        }
    }
}

/// Host owning a NIC endpoint, resolved through the QP registry contexts.
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
/// more than `z` robust z-scores from the fleet.
fn outliers<I: Iterator<Item = (HostId, f64)>>(samples: I, z: f64) -> Vec<HostId> {
    let mut per_host: std::collections::HashMap<HostId, (f64, u32)> =
        std::collections::HashMap::new();
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
    let mut out: Vec<HostId> = means
        .into_iter()
        .filter(|&(_, v)| {
            if mad > f64::EPSILON {
                summary.robust_zscore(v).is_some_and(|s| s > z)
            } else {
                // Degenerate fleet (all identical): any host that moved by
                // a large relative margin is the outlier.
                (v - med).abs() > 0.5 * med.abs().max(1e-9)
            }
        })
        .map(|(h, _)| h)
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CannedProber, HostHealth, JobDesc, RankProgress};
    use astral_net::{FiveTuple, QpContext, QpId, QpRecord};
    use astral_topo::GpuId;

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
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
        assert_eq!(d.culprit, Culprit::Unknown);
    }

    #[test]
    fn single_slow_host_with_xid_is_gpu_hardware() {
        let mut snap = base_snapshot(16);
        snap.ranks[5].comp_time_s = 4.0;
        snap.health[5].gpu_xid = Some(79);
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
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
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
        assert_eq!(d.cause, CauseClass::SoftwareOrUserCode);
        assert_eq!(d.culprit, Culprit::Software);
    }

    #[test]
    fn hang_detected_from_stagnant_progress() {
        let mut snap = base_snapshot(8);
        for r in &mut snap.ranks {
            r.iters_done = 3;
        }
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
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
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
        assert_eq!(d.manifestation, Manifestation::FailStop);
        assert_eq!(d.cause, CauseClass::NicOrLink);
        assert_eq!(d.culprit, Culprit::Switch(NodeId(100)));
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
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
        assert_ne!(d.culprit, Culprit::Link(LinkId(7)));
        // Three cycles = 6 edges: recurrent, the link itself is blamed.
        snap.link_flaps.insert(LinkId(7), 6);
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
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
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
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
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
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
        let d = Analyzer::new().diagnose(&snap, &CannedProber::default());
        assert_eq!(d.cause, CauseClass::Cooling, "6 hot hosts > 1 capped host");
    }
}

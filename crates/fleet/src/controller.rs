//! The fleet controller: a discrete-event scheduler that admits a seeded
//! workload onto one fabric, runs every admitted segment through the
//! cascade engine, and arbitrates fleet-level recovery — queueing,
//! priority preemption, requeue-on-abort with bounded retry budgets, and
//! a shared spare pool with fleet-wide claim competition.
//!
//! ## Determinism
//!
//! Everything the controller decides is a pure function of the campaign:
//! events are drained from a `BTreeSet` keyed by `(time_bits, kind, id)`
//! (all event times are non-negative, so the `f64` bit pattern orders
//! like the value), admission and spare grants are decided serially, and
//! only then are the same-instant segment simulations fanned out on the
//! [`Pool`] — whose result slots come back in submission order at any
//! `ASTRAL_THREADS` width. Campaign fingerprints are therefore
//! byte-identical at any pool width.

use crate::placement::{PlacementEngine, PlacementError, ROWS_PER_CDU_LOOP};
use crate::policy::{FleetError, FleetPolicy};
use crate::report::{FleetReport, JobOutcome, JobStatus};
use crate::workload::{generate_workload, template_by_name, JobRequest, WorkloadConfig};
use astral_collectives::RunnerConfig;
use astral_core::{
    try_run_cascade_placed, CascadeReport, CascadeScript, InjectedFault, JobPlacement,
    SubstrateFault,
};
use astral_exec::Pool;
use astral_sim::{SimRng, SimTime, Summary};
use astral_topo::{HostId, Router, Topology};
use astral_trace::{TraceKind, TraceRecord, TraceRing};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Planning estimate of an iteration's wall-clock relative to its compute
/// time: the controller projects wall-clock fault times onto job-local
/// iteration clocks with it (communication + overhead margin on top of
/// `comp_s`). With [`FleetPolicy::seer_admission`] on, this fixed margin
/// is replaced by a cached Seer what-if forecast of the admitted job's
/// communication-overhead ratio.
pub const EST_ITER_OVERHEAD: f64 = 1.25;

/// Requeues allowed per job after aborts before it is declared failed
/// (preemption requeues are free).
const RETRY_BUDGET: u32 = 2;

/// Wall-clock to repair a cordoned host before it rejoins the fleet,
/// seconds.
const HOST_REPAIR_S: f64 = 600.0;

/// Wall-clock after which a gray-quarantined host drops off the avoid
/// list and is scheduled normally again, seconds.
const AVOID_CLEAR_S: f64 = 900.0;

/// Seer-backed admission estimator ([`FleetPolicy::seer_admission`]): one
/// what-if service over the campaign fabric whose content-addressed
/// forecast cache collapses repeat admissions of the same (model, scale)
/// onto a single pricing — the controller asks thousands of times and
/// prices each distinct shape once.
struct SeerAdmission {
    service: astral_seer::SeerService,
    rails: u32,
}

impl SeerAdmission {
    fn new(topo: &Topology) -> Self {
        let hb = topo.hb_domain();
        let rails = (topo.rails() as u32).max(1);
        let mut net = astral_seer::NetworkSpec::astral();
        net.hb_domain = hb.gpus_per_domain;
        net.nvlink_bw_bps = hb.bandwidth_bps;
        net.rails = rails;
        let base = astral_seer::ScenarioSpec {
            model: astral_model::ModelConfig::llama3_8b().with_layers(2),
            par: astral_model::ParallelismConfig::new(rails, 1, 1),
            cfg: astral_seer::SeerConfig {
                gpu: astral_seer::GpuSpec::h100(),
                net,
                calibration: astral_seer::Calibration::ideal(),
            },
            topo_fingerprint: topo.fingerprint(),
        };
        SeerAdmission {
            service: astral_seer::SeerService::new(base),
            rails,
        }
    }

    /// Estimated iteration wall-clock for an admitted request: the
    /// request's measured compute time scaled by Seer's forecast of the
    /// communication-overhead ratio at the admitted TP×DP shape (one host
    /// rail-width of TP, one DP replica per host). Falls back to the fixed
    /// [`EST_ITER_OVERHEAD`] margin for models outside the workload
    /// catalogue, and clamps the ratio to a sane planning band so one
    /// pathological forecast cannot skew fault projection arbitrarily.
    fn est_iter_s(&mut self, req: &JobRequest) -> f64 {
        let Some(model) = template_by_name(&req.model) else {
            return req.comp_s * EST_ITER_OVERHEAD;
        };
        let query = astral_seer::WhatIfQuery::of(vec![
            astral_seer::WhatIf::SwapModel { model },
            astral_seer::WhatIf::SetParallelism {
                tp: self.rails,
                pp: 1,
                dp: (req.hosts as u32).max(1),
            },
        ]);
        let ratio = self.service.answer(&query).forecast.comm_overhead_ratio;
        req.comp_s * ratio.clamp(1.0, 2.0)
    }
}

/// The shape of one fleet-level substrate fault (wall-clock scheduled,
/// unlike the job-local iteration-scheduled [`SubstrateFault`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetFaultKind {
    /// Pump/CDU degradation of one rack row's CDU loop.
    CoolingPump {
        /// Surviving airflow as a fraction of design, in (0, 1).
        flow_frac: f64,
    },
    /// Grid sag on one rack row's HVDC unit.
    GridSag {
        /// Surviving supply as a fraction of nominal, in (0, 1).
        supply_frac: f64,
        /// Job-local iterations until the grid recovers.
        duration_iters: u32,
        /// Battery capacity per rack, Wh.
        battery_wh_per_rack: f64,
    },
    /// A correlated optics-batch failure among one row's uplinks.
    OpticsBurst {
        /// Same-rail links killed in the window.
        links: usize,
    },
    /// A fail-slow host in one rack row: partial NIC/optic degradation
    /// that throttles a host without killing it (the gray-failure
    /// family). Projected onto the first job host in the row.
    SlowHost {
        /// Surviving ingress-capacity fraction while slow, in (0, 1).
        factor: f64,
    },
}

/// One fleet-level fault: a substrate incident landing at a wall-clock
/// instant in a rack row, projected onto every tenant whose placement
/// intersects the blast radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFault {
    /// Wall-clock the fault lands, seconds from campaign start.
    pub at_s: f64,
    /// Rack row (global pod-major block index) at the origin.
    pub row: usize,
    /// The substrate incident.
    pub kind: FleetFaultKind,
}

/// Seeded fleet-level fault timeline: scripted faults plus a Poisson
/// hazard over the campaign horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultConfig {
    /// Faults that land regardless of the hazard draw.
    pub scripted: Vec<FleetFault>,
    /// Mean inter-arrival of spontaneous faults, seconds; 0 disables the
    /// hazard draw.
    pub mean_interarrival_s: f64,
    /// Wall-clock horizon hazards are drawn over, seconds.
    pub horizon_s: f64,
    /// Hazard seed.
    pub seed: u64,
}

impl Default for FleetFaultConfig {
    fn default() -> Self {
        FleetFaultConfig {
            scripted: Vec::new(),
            mean_interarrival_s: 240.0,
            horizon_s: 1200.0,
            seed: 11,
        }
    }
}

impl FleetFaultConfig {
    /// A scripted-only timeline (no spontaneous hazard).
    pub fn scripted(faults: Vec<FleetFault>) -> Self {
        FleetFaultConfig {
            scripted: faults,
            mean_interarrival_s: 0.0,
            horizon_s: 0.0,
            seed: 0,
        }
    }

    /// Materialize the timeline against a `rows`-row fabric: scripted
    /// faults plus the seeded Poisson draw, sorted by onset. Identical
    /// inputs yield identical timelines.
    pub fn materialize(&self, rows: usize) -> Vec<FleetFault> {
        let mut faults = self.scripted.clone();
        if self.mean_interarrival_s > 0.0 && self.horizon_s > 0.0 && rows > 0 {
            let mut rng = SimRng::new(self.seed ^ 0x00fa_0175);
            let mut t = 0.0_f64;
            loop {
                t += rng.exponential(self.mean_interarrival_s);
                if t >= self.horizon_s {
                    break;
                }
                let row = rng.below(rows as u64) as usize;
                let kind = match rng.below(3) {
                    0 => FleetFaultKind::CoolingPump {
                        flow_frac: 0.38 + 0.04 * rng.below(3) as f64,
                    },
                    1 => FleetFaultKind::GridSag {
                        supply_frac: 0.55 + 0.1 * rng.chance(0.5) as u8 as f64,
                        duration_iters: 8 + rng.below(5) as u32,
                        battery_wh_per_rack: 6.0 + 3.0 * rng.below(3) as f64,
                    },
                    _ => FleetFaultKind::OpticsBurst {
                        links: 2 + rng.below(2) as usize,
                    },
                };
                faults.push(FleetFault { at_s: t, row, kind });
            }
        }
        faults.sort_by_key(|f| (f.at_s.to_bits(), f.row));
        faults
    }
}

/// One fleet campaign: a seeded workload meeting a seeded fault timeline.
/// The policy is passed separately so a sweep can replay the *same*
/// campaign under different placement / spare-pool policies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetCampaign {
    /// The job-arrival workload.
    pub workload: WorkloadConfig,
    /// The fleet-level fault timeline.
    pub faults: FleetFaultConfig,
}

// Event kinds, drained in key order at equal timestamps: repairs free
// capacity before completions, completions before arrivals, and the
// admission pass runs once everything at the instant has been applied.
const EVT_REPAIR: u8 = 0;
const EVT_COMPLETE: u8 = 1;
const EVT_ARRIVAL: u8 = 2;

/// Per-tenant scheduler state.
struct Tenant {
    req: JobRequest,
    /// Iterations still to train (checkpoint-retained progress subtracted
    /// at every requeue).
    remaining: u32,
    retries: u32,
    preemptions: u32,
    segments: u32,
    first_admit_s: Option<f64>,
    /// When the tenant last became schedulable (arrival or requeue).
    ready_s: f64,
    useful_hs: f64,
    alloc_hs: f64,
    spares_claimed: u32,
    status: Option<JobStatus>,
}

/// One in-flight admitted segment (the spare grant is
/// `placement.spares`).
struct Running {
    placement: JobPlacement,
    t_start: f64,
    t_end: f64,
    sim_iters: u32,
    report: CascadeReport,
}

/// Run a fleet campaign on an explicit [`Pool`] and runner configuration.
/// Same-instant admissions simulate concurrently; every scheduling
/// decision is made serially first, so the report — fingerprint included —
/// is byte-identical at any pool width.
pub fn try_run_fleet_campaign_with(
    pool: &Pool,
    topo: &Topology,
    policy: &FleetPolicy,
    campaign: &FleetCampaign,
    runner_cfg: RunnerConfig,
) -> Result<FleetReport, FleetError> {
    run_campaign_inner(pool, topo, policy, campaign, runner_cfg, None)
}

/// [`try_run_fleet_campaign_with`] that also records the controller's
/// scheduling decisions — admissions, preemptions, spare claims — as an
/// `astral-trace` timeline (ring capacity `trace_capacity`, `0` for the
/// net-layer default). Wall-clock seconds are stamped as nanoseconds via
/// [`SimTime::from_secs_f64`], so fleet records sort on the same axis as
/// job-local ones. Recording is observation only: the report is
/// byte-identical to the untraced entry point's.
pub fn try_run_fleet_campaign_traced(
    pool: &Pool,
    topo: &Topology,
    policy: &FleetPolicy,
    campaign: &FleetCampaign,
    runner_cfg: RunnerConfig,
    trace_capacity: usize,
) -> Result<(FleetReport, Vec<TraceRecord>), FleetError> {
    let cap = if trace_capacity == 0 {
        astral_net::DEFAULT_TRACE_CAPACITY
    } else {
        trace_capacity
    };
    let mut ring = TraceRing::with_capacity(cap);
    let report = run_campaign_inner(pool, topo, policy, campaign, runner_cfg, Some(&mut ring))?;
    Ok((report, ring.take()))
}

fn run_campaign_inner(
    pool: &Pool,
    topo: &Topology,
    policy: &FleetPolicy,
    campaign: &FleetCampaign,
    runner_cfg: RunnerConfig,
    mut trace: Option<&mut TraceRing>,
) -> Result<FleetReport, FleetError> {
    policy.validate()?;
    if campaign.workload.jobs == 0 {
        return Err(FleetError::EmptyWorkload);
    }
    let n_hosts = topo.hosts().len();
    if policy.spare_pool >= n_hosts {
        return Err(FleetError::PoolExceedsFleet {
            pool: policy.spare_pool,
            fleet: n_hosts,
        });
    }

    let engine = PlacementEngine::new(topo);
    let fleet_faults = campaign.faults.materialize(engine.rows().len());
    let workload = generate_workload(&campaign.workload);
    // Admission-time iteration estimator: Seer-backed when the policy asks
    // for it (decisions stay serial — the service's caches make repeats
    // cheap), the fixed planning margin otherwise.
    let mut seer_admission = policy.seer_admission.then(|| SeerAdmission::new(topo));
    // One warmed router shared by every segment of the campaign: routing
    // is a pure function of the topology (failures are capacity-level in
    // each segment's private simulator), so sharing is byte-identical to
    // per-segment routers while paying path setup once.
    let router = Arc::new(Router::new());

    // The spare pool is striped across rack rows, highest ids first, so a
    // single rack-row cascade cannot take out the whole pool.
    let mut spare_members: BTreeSet<HostId> = BTreeSet::new();
    {
        let mut per_row: Vec<Vec<HostId>> = engine.rows().to_vec();
        'fill: loop {
            let mut took = false;
            for row in per_row.iter_mut() {
                if spare_members.len() == policy.spare_pool {
                    break 'fill;
                }
                if let Some(h) = row.pop() {
                    spare_members.insert(h);
                    took = true;
                }
            }
            if !took {
                break;
            }
        }
    }
    let mut pool_spares = spare_members.clone();
    let mut free: BTreeSet<HostId> = topo
        .hosts()
        .iter()
        .map(|h| h.id)
        .filter(|h| !spare_members.contains(h))
        .collect();
    let schedulable = free.len();

    let mut tenants: BTreeMap<u32, Tenant> = workload
        .into_iter()
        .map(|req| {
            let ready_s = req.arrival_s;
            let remaining = req.iters;
            (
                req.id,
                Tenant {
                    req,
                    remaining,
                    retries: 0,
                    preemptions: 0,
                    segments: 0,
                    first_admit_s: None,
                    ready_s,
                    useful_hs: 0.0,
                    alloc_hs: 0.0,
                    spares_claimed: 0,
                    status: None,
                },
            )
        })
        .collect();

    let mut events: BTreeSet<(u64, u8, u32)> = tenants
        .values()
        .map(|t| (t.req.arrival_s.to_bits(), EVT_ARRIVAL, t.req.id))
        .collect();
    let mut queue: BTreeSet<u32> = BTreeSet::new();
    let mut running: BTreeMap<u32, Running> = BTreeMap::new();
    // Gray-quarantine verdicts harvested from completed segments: suspect
    // hosts are deprioritized (not banned) by placement until they clear.
    let mut avoid_until: BTreeMap<HostId, f64> = BTreeMap::new();
    let mut waits: Vec<f64> = Vec::new();
    let mut preemptions_total = 0u32;
    let mut spare_claims_total = 0u32;
    let mut gray_avoided_total = 0u32;
    let mut stranded_hs = 0.0_f64;
    let mut makespan = 0.0_f64;

    while let Some(&(t_bits, _, _)) = events.iter().next() {
        let now = f64::from_bits(t_bits);
        makespan = makespan.max(now);
        // Drain every event at this instant before admitting.
        while let Some(&key @ (bits, kind, id)) = events.iter().next() {
            if bits != t_bits {
                break;
            }
            events.remove(&key);
            match kind {
                EVT_ARRIVAL => {
                    queue.insert(id);
                }
                EVT_REPAIR => {
                    // A repaired host rejoins whichever set it came from.
                    let h = HostId(id);
                    if spare_members.contains(&h) {
                        pool_spares.insert(h);
                    } else {
                        free.insert(h);
                    }
                }
                EVT_COMPLETE => {
                    let run = running.remove(&id).expect("completion for unknown job");
                    let t = tenants.get_mut(&id).expect("unknown tenant");
                    let nh = run.placement.hosts.len() as f64;
                    let rec = &run.report.recovery;
                    t.alloc_hs += rec.total_s() * nh;
                    t.useful_hs += rec.useful_s * nh;
                    t.spares_claimed += rec.spares_claimed.len() as u32;
                    spare_claims_total += rec.spares_claimed.len() as u32;
                    if !rec.spares_claimed.is_empty() {
                        if let Some(ring) = trace.as_deref_mut() {
                            ring.record(
                                SimTime::from_secs_f64(now).as_nanos(),
                                TraceKind::SpareClaim,
                                t.req.class as u16,
                                id,
                                rec.spares_claimed.len() as u32,
                                u64::from(t.spares_claimed),
                                0,
                            );
                        }
                    }
                    for &h in &rec.quarantined {
                        avoid_until.insert(h, now + AVOID_CLEAR_S);
                        gray_avoided_total += 1;
                    }
                    // Cordoned hosts are dead from (estimated) cordon time
                    // until repairs finish; everything else returns now.
                    let mut dead: BTreeSet<HostId> = BTreeSet::new();
                    for inc in &rec.incidents {
                        for &h in &inc.cordoned {
                            if dead.insert(h) {
                                let frac = if run.sim_iters > 0 {
                                    inc.iter as f64 / run.sim_iters as f64
                                } else {
                                    1.0
                                };
                                let t_cordon = run.t_start + frac * (run.t_end - run.t_start);
                                stranded_hs += (now - t_cordon).max(0.0) + HOST_REPAIR_S;
                                events.insert(((now + HOST_REPAIR_S).to_bits(), EVT_REPAIR, h.0));
                            }
                        }
                    }
                    for &h in run.placement.hosts.iter().chain(&run.placement.spares) {
                        if dead.contains(&h) {
                            continue;
                        }
                        if spare_members.contains(&h) {
                            pool_spares.insert(h);
                        } else {
                            free.insert(h);
                        }
                    }
                    if rec.completed {
                        t.remaining = 0;
                        t.status = Some(JobStatus::Completed {
                            at_s: now,
                            deadline_met: t.req.deadline_s.map(|d| now <= d),
                        });
                    } else {
                        t.remaining = t.remaining.saturating_sub(rec.iters_done).max(1);
                        if t.retries < RETRY_BUDGET {
                            t.retries += 1;
                            t.ready_s = now;
                            queue.insert(id);
                        } else {
                            t.status = Some(JobStatus::Failed {
                                at_s: now,
                                reason: rec.abort,
                            });
                        }
                    }
                }
                _ => unreachable!("unknown event kind"),
            }
        }

        // Admission pass: highest class first, FIFO inside a class. The
        // snapshot is fixed before any placement, so preemption victims
        // requeued mid-pass wait for the next event.
        avoid_until.retain(|_, until| *until > now);
        let avoid: BTreeSet<HostId> = avoid_until.keys().copied().collect();
        let mut order: Vec<u32> = queue.iter().copied().collect();
        order.sort_by_key(|id| {
            let t = &tenants[id];
            (
                std::cmp::Reverse(t.req.class),
                t.req.arrival_s.to_bits(),
                t.req.id,
            )
        });
        let mut batch: Vec<(u32, JobPlacement, u32, CascadeScript)> = Vec::new();
        for id in order {
            let (need, class) = {
                let t = &tenants[&id];
                (t.req.hosts, t.req.class)
            };
            if need > schedulable {
                queue.remove(&id);
                let t = tenants.get_mut(&id).expect("unknown tenant");
                t.status = Some(JobStatus::Failed {
                    at_s: now,
                    reason: None,
                });
                continue;
            }
            let mut placed = engine.place_avoiding(need, policy.placement, &free, &avoid);
            if matches!(placed, Err(PlacementError::InsufficientCapacity { .. })) {
                // Victims: strictly lower class, youngest segments first.
                let mut victims: Vec<u32> = running
                    .keys()
                    .copied()
                    .filter(|v| tenants[v].req.class < class)
                    .collect();
                victims.sort_by_key(|v| {
                    let t = &tenants[v];
                    (
                        t.req.class,
                        std::cmp::Reverse(running[v].t_start.to_bits()),
                        std::cmp::Reverse(t.req.id),
                    )
                });
                let mut gain = 0usize;
                let mut chosen: Vec<u32> = Vec::new();
                for v in victims {
                    if free.len() + gain >= need {
                        break;
                    }
                    gain += running[&v]
                        .placement
                        .hosts
                        .iter()
                        .chain(&running[&v].placement.spares)
                        .filter(|h| !spare_members.contains(h))
                        .count();
                    chosen.push(v);
                }
                if free.len() + gain >= need {
                    for v in chosen {
                        preempt(
                            v,
                            now,
                            &mut running,
                            &mut tenants,
                            &mut free,
                            &mut pool_spares,
                            &spare_members,
                            &mut events,
                            &mut queue,
                        );
                        preemptions_total += 1;
                        if let Some(ring) = trace.as_deref_mut() {
                            ring.record(
                                SimTime::from_secs_f64(now).as_nanos(),
                                TraceKind::Preemption,
                                class as u16,
                                v,
                                id,
                                0,
                                0,
                            );
                        }
                    }
                    placed = engine.place_avoiding(need, policy.placement, &free, &avoid);
                }
            }
            let hosts = match placed {
                Ok(h) => h,
                Err(_) => continue, // stays queued
            };
            queue.remove(&id);
            for h in &hosts {
                free.remove(h);
            }
            // Fleet-wide claim competition: the grant is whatever is left
            // in the pool, lowest ids first.
            let grant_n = policy.spares_per_job.min(pool_spares.len());
            let granted: Vec<HostId> = pool_spares.iter().copied().take(grant_n).collect();
            for h in &granted {
                pool_spares.remove(h);
            }
            let t = tenants.get_mut(&id).expect("unknown tenant");
            t.first_admit_s.get_or_insert(now);
            waits.push(now - t.ready_s);
            t.segments += 1;
            let est_iter_s = match seer_admission.as_mut() {
                Some(seer) => seer.est_iter_s(&t.req),
                None => t.req.comp_s * EST_ITER_OVERHEAD,
            };
            let script = project_faults(&engine, &fleet_faults, &hosts, t, now, est_iter_s);
            let placement = JobPlacement {
                hosts,
                spares: granted,
            };
            if let Some(ring) = trace.as_deref_mut() {
                ring.record(
                    SimTime::from_secs_f64(now).as_nanos(),
                    TraceKind::Admission,
                    t.req.class as u16,
                    id,
                    placement.hosts.len() as u32,
                    placement.spares.len() as u64,
                    astral_sim::SimDuration::from_secs_f64(now - t.ready_s).as_nanos(),
                );
            }
            // Hosts and spare grant are committed now; the `Running`
            // entry is inserted once the batch has simulated. Safe:
            // admission order is class-descending, so nothing admitted
            // in this pass can be a preemption victim of a later entry
            // (victims need a strictly lower class).
            batch.push((id, placement, t.remaining, script));
        }

        if !batch.is_empty() {
            // All decisions above were serial; the segment simulations are
            // independent, so fan out. Result slots return in submission
            // order at any pool width.
            let reports: Vec<CascadeReport> = pool.map(&batch, |(id, placement, iters, script)| {
                let t = &tenants[id];
                let spec = astral_core::TrainingJobSpec {
                    hosts: placement.hosts.len(),
                    spares: placement.spares.len(),
                    iters: *iters,
                    bytes: t.req.bytes,
                    comp_s: t.req.comp_s,
                    seed: t.req.seed ^ ((t.segments as u64) << 32),
                };
                try_run_cascade_placed(
                    topo,
                    &policy.recovery,
                    &spec,
                    script,
                    runner_cfg,
                    placement,
                    Some(router.clone()),
                )
                .expect("recovery policy validated with the fleet policy")
            });
            for ((id, placement, iters, _), report) in batch.into_iter().zip(reports) {
                let t_end = now + report.recovery.total_s();
                events.insert((t_end.to_bits(), EVT_COMPLETE, id));
                running.insert(
                    id,
                    Running {
                        placement,
                        t_start: now,
                        t_end,
                        sim_iters: iters,
                        report,
                    },
                );
            }
        }
    }

    // Anything still queued can never be unblocked: no events remain.
    for id in queue {
        tenants.get_mut(&id).expect("unknown tenant").status = Some(JobStatus::Starved);
    }

    finalize(
        tenants,
        schedulable,
        n_hosts,
        makespan,
        stranded_hs,
        waits,
        preemptions_total,
        spare_claims_total,
        gray_avoided_total,
    )
}

/// Preempt one running segment at `now`: cancel its completion, pro-rate
/// its progress to the elapsed fraction, return every host (mid-segment
/// cordons are dropped — the segment's incidents never complete), and
/// requeue the remainder. Victims are requeued unconditionally and do not
/// consume a retry: preemption is the fleet's decision, not the job's
/// failure.
#[allow(clippy::too_many_arguments)]
fn preempt(
    id: u32,
    now: f64,
    running: &mut BTreeMap<u32, Running>,
    tenants: &mut BTreeMap<u32, Tenant>,
    free: &mut BTreeSet<HostId>,
    pool_spares: &mut BTreeSet<HostId>,
    spare_members: &BTreeSet<HostId>,
    events: &mut BTreeSet<(u64, u8, u32)>,
    queue: &mut BTreeSet<u32>,
) {
    let run = running.remove(&id).expect("preempting a job not running");
    events.remove(&(run.t_end.to_bits(), EVT_COMPLETE, id));
    let t = tenants.get_mut(&id).expect("unknown tenant");
    let dur = run.t_end - run.t_start;
    let elapsed = (now - run.t_start).max(0.0);
    let frac = if dur > 0.0 {
        (elapsed / dur).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let nh = run.placement.hosts.len() as f64;
    t.alloc_hs += elapsed * nh;
    t.useful_hs += frac * run.report.recovery.useful_s * nh;
    let retained = ((frac * run.sim_iters as f64) as u32).min(run.sim_iters);
    t.remaining = t.remaining.saturating_sub(retained).max(1);
    t.preemptions += 1;
    t.ready_s = now;
    queue.insert(id);
    for &h in run.placement.hosts.iter().chain(&run.placement.spares) {
        if spare_members.contains(&h) {
            pool_spares.insert(h);
        } else {
            free.insert(h);
        }
    }
}

/// Project the fleet-level fault timeline onto one segment's job-local
/// iteration clock: faults landing inside the segment's estimated span
/// whose blast radius (rack row for power, the whole CDU loop for
/// cooling) intersects the placement become [`SubstrateFault`]s at
/// `at_iter = (at_s − t_start) / est_iter_s`. Row indices stay global —
/// the cascade engine's substrate rows are global pod-major rows, and its
/// forced cordons filter to the job's own hosts.
fn project_faults(
    engine: &PlacementEngine,
    fleet_faults: &[FleetFault],
    hosts: &[HostId],
    tenant: &Tenant,
    t_start: f64,
    est_iter_s: f64,
) -> CascadeScript {
    let est_total = tenant.remaining as f64 * est_iter_s;
    let job_rows: BTreeSet<usize> = hosts.iter().filter_map(|&h| engine.row_of(h)).collect();
    let mut faults = Vec::new();
    let mut net_faults = Vec::new();
    for f in fleet_faults {
        if f.at_s < t_start || f.at_s >= t_start + est_total {
            continue;
        }
        let at_iter = (((f.at_s - t_start) / est_iter_s) as u32).min(tenant.remaining - 1);
        match f.kind {
            FleetFaultKind::CoolingPump { flow_frac } => {
                // A pump fault starves the whole CDU loop: every row of
                // the loop that carries job hosts sees the airflow loss.
                let cdu = f.row / ROWS_PER_CDU_LOOP;
                for row in (cdu * ROWS_PER_CDU_LOOP)..((cdu + 1) * ROWS_PER_CDU_LOOP) {
                    if job_rows.contains(&row) {
                        faults.push(SubstrateFault::CoolingPumpFault {
                            at_iter,
                            row,
                            flow_frac,
                        });
                    }
                }
            }
            FleetFaultKind::GridSag {
                supply_frac,
                duration_iters,
                battery_wh_per_rack,
            } => {
                if job_rows.contains(&f.row) {
                    faults.push(SubstrateFault::GridSag {
                        at_iter,
                        row: f.row,
                        supply_frac,
                        duration_iters,
                        battery_wh_per_rack,
                    });
                }
            }
            FleetFaultKind::OpticsBurst { links } => {
                if job_rows.contains(&f.row) {
                    faults.push(SubstrateFault::OpticsBurst { at_iter, links });
                }
            }
            FleetFaultKind::SlowHost { factor } => {
                // Gray faults ride the segment's network-fault script,
                // pinned to the first job host in the afflicted row (the
                // training engine addresses hosts by job-local index).
                if let Some(host_index) =
                    hosts.iter().position(|&h| engine.row_of(h) == Some(f.row))
                {
                    net_faults.push(InjectedFault::SlowHost {
                        at_iter,
                        host_index,
                        factor,
                        intermittent: false,
                    });
                }
            }
        }
    }
    faults.sort_by_key(|f| f.at_iter());
    CascadeScript { faults, net_faults }
}

/// Fold the terminal tenant states into the cluster-level report.
#[allow(clippy::too_many_arguments)]
fn finalize(
    tenants: BTreeMap<u32, Tenant>,
    schedulable: usize,
    n_hosts: usize,
    makespan: f64,
    stranded_hs: f64,
    waits: Vec<f64>,
    preemptions: u32,
    spare_claims: u32,
    gray_avoided: u32,
) -> Result<FleetReport, FleetError> {
    let mut jobs = Vec::with_capacity(tenants.len());
    let mut useful_completed = 0.0_f64;
    let mut alloc_total = 0.0_f64;
    let mut fairness_samples = Vec::with_capacity(tenants.len());
    let mut completed = 0usize;
    let mut stranded_tenants = 0usize;
    for (_, t) in tenants {
        let status = t.status.unwrap_or(JobStatus::Starved);
        if status.completed() {
            completed += 1;
            useful_completed += t.useful_hs;
        } else {
            stranded_tenants += 1;
        }
        alloc_total += t.alloc_hs;
        fairness_samples.push(t.useful_hs);
        jobs.push(JobOutcome {
            id: t.req.id,
            model: t.req.model,
            hosts: t.req.hosts,
            class: t.req.class.to_string(),
            arrival_s: t.req.arrival_s,
            first_admit_s: t.first_admit_s,
            status,
            retries: t.retries,
            preemptions: t.preemptions,
            useful_hs: t.useful_hs,
            alloc_hs: t.alloc_hs,
            spares_claimed: t.spares_claimed,
        });
    }
    let capacity_hs = n_hosts as f64 * makespan;
    let wait = Summary::from_samples(waits);
    Ok(FleetReport {
        jobs,
        makespan_s: makespan,
        fleet_hosts: schedulable,
        cluster_goodput: if alloc_total > 0.0 {
            useful_completed / alloc_total
        } else {
            0.0
        },
        utilization: if capacity_hs > 0.0 {
            alloc_total / capacity_hs
        } else {
            0.0
        },
        stranded_frac: if capacity_hs > 0.0 {
            stranded_hs / capacity_hs
        } else {
            0.0
        },
        fairness: FleetReport::jain(&fairness_samples),
        queue_wait_p50_s: wait.percentile(50.0).unwrap_or(0.0),
        queue_wait_p99_s: wait.percentile(99.0).unwrap_or(0.0),
        preemptions,
        spare_claims,
        gray_avoided,
        completed,
        stranded_tenants,
    })
}

//! The fleet controller: a discrete-event scheduler that admits a seeded
//! workload onto one fabric, runs every admitted segment through the
//! cascade engine, and arbitrates fleet-level recovery — queueing,
//! priority preemption, requeue-on-abort with bounded retry budgets, and
//! a shared spare pool with fleet-wide claim competition.
//!
//! ## Determinism
//!
//! Everything the controller decides is a pure function of the campaign:
//! typed events are drained from a `BTreeSet` keyed by `(time_bits, Event)`
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

/// One scheduled campaign event. The variants are declared in drain order:
/// at equal timestamps repairs free capacity before completions,
/// completions come before arrivals, and the admission pass runs once
/// everything at the instant has been applied. Inside one variant the
/// derived order is by host or tenant id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A cordoned host's repair finishes.
    Repair(HostId),
    /// A tenant's running segment ends.
    Complete(u32),
    /// A tenant arrives.
    Arrival(u32),
}

/// Where every idle host sits: the schedulable free set or the shared
/// spare pool. Pool membership is fixed for the campaign, so a host that
/// comes back (repaired, completed or preempted) always rejoins the set it
/// was taken from.
struct HostLedger {
    /// Schedulable hosts free now.
    free: BTreeSet<HostId>,
    /// Pool hosts not granted to a running segment.
    spares: BTreeSet<HostId>,
    /// Every pool host, granted or not.
    spare_members: BTreeSet<HostId>,
}

impl HostLedger {
    /// The spare pool is striped across rack rows, highest ids first, so a
    /// single rack-row cascade cannot take out the whole pool; every other
    /// host starts free.
    fn new(topo: &Topology, engine: &PlacementEngine, spare_pool: usize) -> Self {
        // Round k takes the k-th host from the end of every row that deep.
        let rows = engine.rows();
        let depth = rows.iter().map(Vec::len).max().unwrap_or(0);
        let spare_members: BTreeSet<HostId> = (1..=depth)
            .flat_map(|k| {
                rows.iter()
                    .filter_map(move |r| r.len().checked_sub(k).map(|i| r[i]))
            })
            .take(spare_pool)
            .collect();
        let free = topo
            .hosts()
            .iter()
            .map(|h| h.id)
            .filter(|h| !spare_members.contains(h))
            .collect();
        HostLedger {
            free,
            spares: spare_members.clone(),
            spare_members,
        }
    }

    fn is_spare(&self, h: &HostId) -> bool {
        self.spare_members.contains(h)
    }

    /// Return a host to the set it came from.
    fn release(&mut self, h: HostId) {
        if self.is_spare(&h) {
            self.spares.insert(h);
        } else {
            self.free.insert(h);
        }
    }

    /// Fleet-wide claim competition: a grant is whatever is left in the
    /// pool, up to `n`, lowest ids first.
    fn grant(&mut self, n: usize) -> Vec<HostId> {
        let granted: Vec<HostId> = self.spares.iter().copied().take(n).collect();
        for h in &granted {
            self.spares.remove(h);
        }
        granted
    }
}

/// Per-tenant scheduler state. `outcome` is the tenant's report row, kept
/// current as the campaign runs; it starts `Starved`, which is where a
/// tenant still queued when the events run out stays.
struct Tenant {
    req: JobRequest,
    /// Iterations still to train (checkpoint-retained progress subtracted
    /// at every requeue).
    remaining: u32,
    segments: u32,
    /// When the tenant last became schedulable (arrival or requeue).
    ready_s: f64,
    outcome: JobOutcome,
}

impl Tenant {
    fn new(req: JobRequest) -> Self {
        let outcome = JobOutcome {
            id: req.id,
            model: req.model.clone(),
            hosts: req.hosts,
            class: req.class.to_string(),
            arrival_s: req.arrival_s,
            first_admit_s: None,
            status: JobStatus::Starved,
            retries: 0,
            preemptions: 0,
            useful_hs: 0.0,
            alloc_hs: 0.0,
            spares_claimed: 0,
        };
        Tenant {
            remaining: req.iters,
            segments: 0,
            ready_s: req.arrival_s,
            outcome,
            req,
        }
    }
}

/// A segment admitted at the current instant, awaiting its simulation.
struct Admitted {
    id: u32,
    placement: JobPlacement,
    iters: u32,
    script: CascadeScript,
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
    ring: Option<&mut TraceRing>,
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
    Ok(Controller::new(topo, policy, campaign, runner_cfg, ring).run(pool))
}

/// The controller's whole state for one campaign: one event queue, one
/// host ledger, the tenants and their running segments, and the
/// campaign-wide tallies.
struct Controller<'a> {
    topo: &'a Topology,
    policy: &'a FleetPolicy,
    runner_cfg: RunnerConfig,
    engine: PlacementEngine,
    fleet_faults: Vec<FleetFault>,
    /// Admission-time iteration estimator: Seer-backed when the policy
    /// asks for it (decisions stay serial — the service's caches make
    /// repeats cheap), the fixed planning margin otherwise.
    seer: Option<SeerAdmission>,
    /// One warmed router shared by every segment of the campaign: routing
    /// is a pure function of the topology (failures are capacity-level in
    /// each segment's private simulator), so sharing is byte-identical to
    /// per-segment routers while paying path setup once.
    router: Arc<Router>,
    hosts: HostLedger,
    /// Hosts outside the spare pool: a larger job can never place.
    schedulable: usize,
    tenants: BTreeMap<u32, Tenant>,
    /// Keyed by `(time_bits, event)`: event times are non-negative, so
    /// the `f64` bit pattern orders like the value.
    events: BTreeSet<(u64, Event)>,
    queue: BTreeSet<u32>,
    running: BTreeMap<u32, Running>,
    /// Gray-quarantine verdicts harvested from completed segments: suspect
    /// hosts are deprioritized (not banned) by placement until they clear.
    avoid_until: BTreeMap<HostId, f64>,
    waits: Vec<f64>,
    preemptions: u32,
    spare_claims: u32,
    gray_avoided: u32,
    stranded_hs: f64,
    makespan: f64,
    ring: Option<&'a mut TraceRing>,
}

impl<'a> Controller<'a> {
    fn new(
        topo: &'a Topology,
        policy: &'a FleetPolicy,
        campaign: &FleetCampaign,
        runner_cfg: RunnerConfig,
        ring: Option<&'a mut TraceRing>,
    ) -> Self {
        let engine = PlacementEngine::new(topo);
        let fleet_faults = campaign.faults.materialize(engine.rows().len());
        let hosts = HostLedger::new(topo, &engine, policy.spare_pool);
        let tenants: BTreeMap<u32, Tenant> = generate_workload(&campaign.workload)
            .into_iter()
            .map(|req| (req.id, Tenant::new(req)))
            .collect();
        let events = tenants
            .values()
            .map(|t| (t.req.arrival_s.to_bits(), Event::Arrival(t.req.id)))
            .collect();
        Controller {
            topo,
            policy,
            runner_cfg,
            seer: policy.seer_admission.then(|| SeerAdmission::new(topo)),
            router: Arc::new(Router::new()),
            schedulable: hosts.free.len(),
            engine,
            fleet_faults,
            hosts,
            tenants,
            events,
            queue: BTreeSet::new(),
            running: BTreeMap::new(),
            avoid_until: BTreeMap::new(),
            waits: Vec::new(),
            preemptions: 0,
            spare_claims: 0,
            gray_avoided: 0,
            stranded_hs: 0.0,
            makespan: 0.0,
            ring,
        }
    }

    /// The event loop: apply every event at the earliest instant, run one
    /// admission pass, simulate what it admitted, repeat until no event is
    /// left.
    fn run(mut self, pool: &Pool) -> FleetReport {
        while let Some(&(t_bits, _)) = self.events.first() {
            let now = f64::from_bits(t_bits);
            self.makespan = self.makespan.max(now);
            while let Some(&(bits, event)) = self.events.first() {
                if bits != t_bits {
                    break;
                }
                self.events.pop_first();
                match event {
                    Event::Repair(h) => self.hosts.release(h),
                    Event::Complete(id) => self.complete(id, now),
                    Event::Arrival(id) => {
                        self.queue.insert(id);
                    }
                }
            }
            let batch = self.admit(now);
            self.start(pool, batch, now);
            if cfg!(debug_assertions) {
                self.check_ledger();
            }
        }
        self.finish()
    }

    /// Record one scheduling decision at wall-clock `now` when the
    /// campaign is traced.
    fn record(&mut self, now: f64, kind: TraceKind, aux: u16, a_b: (u32, u32), v_w: (u64, u64)) {
        if let Some(ring) = self.ring.as_deref_mut() {
            let t_ns = SimTime::from_secs_f64(now).as_nanos();
            ring.record(t_ns, kind, aux, a_b.0, a_b.1, v_w.0, v_w.1);
        }
    }

    /// A segment ended: account its host-seconds and spare claims, put its
    /// gray verdicts on the avoid list, send cordoned hosts to repair and
    /// return the rest, then finish the tenant or requeue it within its
    /// retry budget.
    fn complete(&mut self, id: u32, now: f64) {
        let run = self
            .running
            .remove(&id)
            .expect("completion for unknown job");
        let rec = &run.report.recovery;
        let t = self.tenants.get_mut(&id).expect("unknown tenant");
        let nh = run.placement.hosts.len() as f64;
        t.outcome.alloc_hs += rec.total_s() * nh;
        t.outcome.useful_hs += rec.useful_s * nh;
        let claimed = rec.spares_claimed.len() as u32;
        t.outcome.spares_claimed += claimed;
        self.spare_claims += claimed;
        if rec.completed {
            t.outcome.status = JobStatus::Completed {
                at_s: now,
                deadline_met: t.req.deadline_s.map(|d| now <= d),
            };
        } else {
            t.remaining = t.remaining.saturating_sub(rec.iters_done).max(1);
            if t.outcome.retries < RETRY_BUDGET {
                t.outcome.retries += 1;
                t.ready_s = now;
                self.queue.insert(id);
            } else {
                t.outcome.status = JobStatus::Failed {
                    at_s: now,
                    reason: rec.abort,
                };
            }
        }
        if claimed > 0 {
            let (class, total) = (t.req.class as u16, u64::from(t.outcome.spares_claimed));
            self.record(now, TraceKind::SpareClaim, class, (id, claimed), (total, 0));
        }
        for &h in &rec.quarantined {
            self.avoid_until.insert(h, now + AVOID_CLEAR_S);
            self.gray_avoided += 1;
        }
        // Cordoned hosts are dead from (estimated) cordon time until
        // repairs finish; everything else returns now.
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
                    self.stranded_hs += (now - t_cordon).max(0.0) + HOST_REPAIR_S;
                    let repaired = now + HOST_REPAIR_S;
                    self.events.insert((repaired.to_bits(), Event::Repair(h)));
                }
            }
        }
        for &h in run.placement.hosts.iter().chain(&run.placement.spares) {
            if !dead.contains(&h) {
                self.hosts.release(h);
            }
        }
    }

    /// The admission pass: highest class first, FIFO inside a class. The
    /// order is fixed before any placement, so preemption victims requeued
    /// mid-pass wait for the next event. A job larger than the schedulable
    /// fleet fails; one that does not fit even after preemption stays
    /// queued.
    fn admit(&mut self, now: f64) -> Vec<Admitted> {
        self.avoid_until.retain(|_, until| *until > now);
        let avoid: BTreeSet<HostId> = self.avoid_until.keys().copied().collect();
        let mut order: Vec<u32> = self.queue.iter().copied().collect();
        order.sort_by_key(|id| {
            let req = &self.tenants[id].req;
            (
                std::cmp::Reverse(req.class),
                req.arrival_s.to_bits(),
                req.id,
            )
        });
        let mut batch = Vec::new();
        for id in order {
            let need = self.tenants[&id].req.hosts;
            if need > self.schedulable {
                self.queue.remove(&id);
                let t = self.tenants.get_mut(&id).expect("unknown tenant");
                t.outcome.status = JobStatus::Failed {
                    at_s: now,
                    reason: None,
                };
                continue;
            }
            let strategy = self.policy.placement;
            let mut placed = self.engine.place(need, strategy, &self.hosts.free, &avoid);
            if matches!(placed, Err(PlacementError::InsufficientCapacity { .. }))
                && self.make_room(id, need, now)
            {
                placed = self.engine.place(need, strategy, &self.hosts.free, &avoid);
            }
            if let Ok(hosts) = placed {
                batch.push(self.commit(id, hosts, now));
            }
        }
        batch
    }

    /// Preempt strictly lower-class segments, youngest first, until `need`
    /// hosts would be free. Preempts nothing, and returns false, when even
    /// every candidate victim would not make room for tenant `id`.
    fn make_room(&mut self, id: u32, need: usize, now: f64) -> bool {
        let class = self.tenants[&id].req.class;
        let mut victims: Vec<u32> = self
            .running
            .keys()
            .copied()
            .filter(|v| self.tenants[v].req.class < class)
            .collect();
        victims.sort_by_key(|v| {
            let req = &self.tenants[v].req;
            (
                req.class,
                std::cmp::Reverse(self.running[v].t_start.to_bits()),
                std::cmp::Reverse(req.id),
            )
        });
        let mut gain = 0usize;
        let mut chosen = 0usize;
        for v in &victims {
            if self.hosts.free.len() + gain >= need {
                break;
            }
            let held = &self.running[v].placement;
            gain += held
                .hosts
                .iter()
                .chain(&held.spares)
                .filter(|h| !self.hosts.is_spare(h))
                .count();
            chosen += 1;
        }
        if self.hosts.free.len() + gain < need {
            return false;
        }
        for &v in &victims[..chosen] {
            self.preempt(v, now);
            self.preemptions += 1;
            self.record(now, TraceKind::Preemption, class as u16, (v, id), (0, 0));
        }
        true
    }

    /// Preempt one running segment at `now`: cancel its completion,
    /// pro-rate its progress to the elapsed fraction, return every host
    /// (mid-segment cordons are dropped — the segment's incidents never
    /// complete), and requeue the remainder. Victims are requeued
    /// unconditionally and do not consume a retry: preemption is the
    /// fleet's decision, not the job's failure.
    fn preempt(&mut self, id: u32, now: f64) {
        let run = self
            .running
            .remove(&id)
            .expect("preempting a job not running");
        self.events
            .remove(&(run.t_end.to_bits(), Event::Complete(id)));
        let t = self.tenants.get_mut(&id).expect("unknown tenant");
        let dur = run.t_end - run.t_start;
        let elapsed = (now - run.t_start).max(0.0);
        let frac = if dur > 0.0 {
            (elapsed / dur).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let nh = run.placement.hosts.len() as f64;
        t.outcome.alloc_hs += elapsed * nh;
        t.outcome.useful_hs += frac * run.report.recovery.useful_s * nh;
        let retained = ((frac * run.sim_iters as f64) as u32).min(run.sim_iters);
        t.remaining = t.remaining.saturating_sub(retained).max(1);
        t.outcome.preemptions += 1;
        t.ready_s = now;
        self.queue.insert(id);
        for &h in run.placement.hosts.iter().chain(&run.placement.spares) {
            self.hosts.release(h);
        }
    }

    /// Commit an admission: take the hosts and the spare grant, and project
    /// the fleet faults onto the segment's iteration clock. The `Running`
    /// entry is inserted once the batch has simulated. Safe: admission
    /// order is class-descending, so nothing admitted in this pass can be
    /// a preemption victim of a later entry (victims need a strictly lower
    /// class).
    fn commit(&mut self, id: u32, hosts: Vec<HostId>, now: f64) -> Admitted {
        self.queue.remove(&id);
        for h in &hosts {
            self.hosts.free.remove(h);
        }
        let spares = self.hosts.grant(self.policy.spares_per_job);
        let t = self.tenants.get_mut(&id).expect("unknown tenant");
        t.outcome.first_admit_s.get_or_insert(now);
        let wait = now - t.ready_s;
        self.waits.push(wait);
        t.segments += 1;
        let est_iter_s = match self.seer.as_mut() {
            Some(seer) => seer.est_iter_s(&t.req),
            None => t.req.comp_s * EST_ITER_OVERHEAD,
        };
        let script = project_faults(&self.engine, &self.fleet_faults, &hosts, t, now, est_iter_s);
        let (class, iters) = (t.req.class as u16, t.remaining);
        let placement = JobPlacement { hosts, spares };
        let n_hosts = placement.hosts.len() as u32;
        let n_spares = placement.spares.len() as u64;
        let wait_ns = astral_sim::SimDuration::from_secs_f64(wait).as_nanos();
        self.record(
            now,
            TraceKind::Admission,
            class,
            (id, n_hosts),
            (n_spares, wait_ns),
        );
        Admitted {
            id,
            placement,
            iters,
            script,
        }
    }

    /// Simulate this instant's admissions and schedule their completions.
    /// Every decision above was serial; the segment simulations are
    /// independent, so they fan out, and result slots return in
    /// submission order at any pool width.
    fn start(&mut self, pool: &Pool, batch: Vec<Admitted>, now: f64) {
        if batch.is_empty() {
            return;
        }
        let reports: Vec<CascadeReport> = pool.map(&batch, |seg| {
            let req = &self.tenants[&seg.id].req;
            let spec = astral_core::TrainingJobSpec {
                hosts: seg.placement.hosts.len(),
                spares: seg.placement.spares.len(),
                iters: seg.iters,
                bytes: req.bytes,
                comp_s: req.comp_s,
                seed: req.seed ^ ((self.tenants[&seg.id].segments as u64) << 32),
            };
            try_run_cascade_placed(
                self.topo,
                &self.policy.recovery,
                &spec,
                &seg.script,
                self.runner_cfg,
                &seg.placement,
                Some(self.router.clone()),
            )
            .expect("recovery policy validated with the fleet policy")
        });
        for (seg, report) in batch.into_iter().zip(reports) {
            let t_end = now + report.recovery.total_s();
            self.events
                .insert((t_end.to_bits(), Event::Complete(seg.id)));
            let run = Running {
                placement: seg.placement,
                t_start: now,
                t_end,
                sim_iters: seg.iters,
                report,
            };
            self.running.insert(seg.id, run);
        }
    }

    /// Debug-build host ledger, checked once per instant: every fabric host
    /// sits in exactly one place — the free set, the pool's free spares,
    /// one running segment's hosts or spares, or one pending repair.
    fn check_ledger(&self) {
        let mut places: BTreeMap<HostId, u32> =
            self.topo.hosts().iter().map(|h| (h.id, 0)).collect();
        let held = self
            .running
            .values()
            .flat_map(|r| r.placement.hosts.iter().chain(&r.placement.spares));
        let repairing = self.events.iter().filter_map(|(_, e)| match e {
            Event::Repair(h) => Some(h),
            _ => None,
        });
        let idle = self.hosts.free.iter().chain(&self.hosts.spares);
        for h in idle.chain(held).chain(repairing) {
            *places.get_mut(h).expect("ledger host outside the fabric") += 1;
        }
        let misplaced: Vec<(&HostId, &u32)> = places.iter().filter(|&(_, &n)| n != 1).collect();
        assert!(
            misplaced.is_empty(),
            "host ledger out of balance, (host, places held): {misplaced:?}"
        );
    }

    /// Fold the terminal tenant outcomes into the cluster-level report.
    fn finish(self) -> FleetReport {
        let mut jobs = Vec::with_capacity(self.tenants.len());
        let mut useful_completed = 0.0_f64;
        let mut alloc_total = 0.0_f64;
        let mut completed = 0usize;
        for t in self.tenants.into_values() {
            if t.outcome.status.completed() {
                completed += 1;
                useful_completed += t.outcome.useful_hs;
            }
            alloc_total += t.outcome.alloc_hs;
            jobs.push(t.outcome);
        }
        let useful: Vec<f64> = jobs.iter().map(|j| j.useful_hs).collect();
        let capacity_hs = self.topo.hosts().len() as f64 * self.makespan;
        let ratio = |x: f64, total: f64| if total > 0.0 { x / total } else { 0.0 };
        let wait = Summary::from_samples(self.waits);
        FleetReport {
            stranded_tenants: jobs.len() - completed,
            jobs,
            makespan_s: self.makespan,
            fleet_hosts: self.schedulable,
            cluster_goodput: ratio(useful_completed, alloc_total),
            utilization: ratio(alloc_total, capacity_hs),
            stranded_frac: ratio(self.stranded_hs, capacity_hs),
            fairness: FleetReport::jain(&useful),
            queue_wait_p50_s: wait.percentile(50.0).unwrap_or(0.0),
            queue_wait_p99_s: wait.percentile(99.0).unwrap_or(0.0),
            preemptions: self.preemptions,
            spare_claims: self.spare_claims,
            gray_avoided: self.gray_avoided,
            completed,
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

//! Cross-substrate cascade engine: correlated power/cooling/optics fault
//! campaigns flowing through the training lifecycle (paper §2.2 + §3).
//!
//! PR-1's [`crate::recovery`] engine injects *network* faults — a link
//! dies, flows abort, recovery reroutes. Real incidents start one layer
//! down: a grid sag trips an HVDC rectifier, the battery floats the rack
//! row for its ride-through window, and only *then* does a power cap
//! throttle every GPU in the row into stragglers; a cooling pump degrades
//! and the row's inlet temperatures ramp until DVFS clamps engage; an
//! optics batch fails and several same-rail links go dark in one window.
//! None of these kill the job outright — they degrade it, and the right
//! response is *graceful degradation*, not cordon-everything.
//!
//! This module models those cascades as deterministic state machines
//! driven by the recovery engine's iteration clock:
//!
//! * **[`SubstrateFault::GridSag`]** — supply drops to `supply_frac` of
//!   nominal; the row's battery (a real [`astral_power::HvdcUnit`]) rides
//!   the deficit for its ride-through window, after which the rack power
//!   cap engages and compute slows by `supply_frac^-0.7`.
//! * **[`SubstrateFault::CoolingPumpFault`]** — row airflow drops to
//!   `flow_frac`; rack temperatures follow a first-order lag toward the
//!   degraded steady state of [`astral_cooling::RackRow`], throttling
//!   above [`THROTTLE_C`] and forcing a cordon at [`CRITICAL_C`].
//! * **[`SubstrateFault::OpticsBurst`]** — a correlated batch of optical
//!   modules dies: the in-use uplinks of several same-rail NICs fail in
//!   one window, exercising PR-1's errCQE → localize → failover path.
//!
//! Every cascade emits substrate telemetry into the monitoring
//! [`astral_monitor::Snapshot`], so the hierarchical analyzer attributes
//! the incident to its *originating* substrate (power/cooling/network),
//! not the straggler symptom. Graceful mitigations — flow reroute +
//! thermal power cap, power-cap ride-through, straggler-aware micro-batch
//! rebalancing, and Seer-forecast-gated proactive checkpoints — compete
//! against the PR-1 reactive ladder inside seeded [`FaultCampaign`]s.

use crate::recovery::{
    Engine, FaultClass, InjectedFault, JobPlacement, PolicyError, RecoveryPolicy, RecoveryReport,
    TrainingJobSpec,
};
use astral_collectives::RunnerConfig;
use astral_cooling::{Airflow, RackRow};
use astral_monitor::{CauseClass, CorrelationPrior};
use astral_power::{HvdcUnit, RackPower};
use astral_seer::HazardForecaster;
use astral_sim::{MulHashMap, SimRng};
use astral_topo::{HostId, Router, Topology};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Rack inlet temperature at which GPUs begin thermally throttling, °C.
pub const THROTTLE_C: f64 = 45.0;
/// Rack temperature at which the DCIM force-cordons the hottest host, °C.
pub const CRITICAL_C: f64 = 50.0;
/// Supply air temperature, °C.
pub const INLET_C: f64 = 22.0;
/// Nominal rack heat load, watts (one job host per rack).
pub const RACK_TDP_W: f64 = 40_000.0;
/// Nominal per-rack supply airflow, m³/s.
pub const RACK_FLOW_M3S: f64 = 2.4;
/// First-order lag of rack temperature toward its steady state, per
/// iteration (thermal mass of a rack vs an iteration's wall-clock).
pub const TEMP_LAG: f64 = 0.35;
/// Compute slowdown per °C above [`THROTTLE_C`].
pub const SLOWDOWN_PER_DEG: f64 = 0.08;
/// Compute-time exponent of a power cap: `time ∝ cap^-CAP_EXPONENT`
/// (sub-linear — DVFS trades disproportionately little speed for power).
pub const CAP_EXPONENT: f64 = 0.7;
/// Flow-reroute blend engaged by graceful degradation (see
/// [`RackRow::temperatures_rerouted`]).
pub const REROUTE_BOOST: f64 = 0.9;

/// One scripted substrate fault — the *origin* of a cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubstrateFault {
    /// Grid sag / rectifier trip: row supply drops to `supply_frac` of
    /// nominal for `duration_iters`. The battery rides the deficit first;
    /// the cap (and the stragglers) only land once it is spent.
    GridSag {
        /// Iteration at whose start the sag lands.
        at_iter: u32,
        /// Rack row (global pod-major block index) hit by the sag.
        row: usize,
        /// Surviving supply as a fraction of nominal, in (0, 1).
        supply_frac: f64,
        /// Iterations until the grid recovers (counted from onset).
        duration_iters: u32,
        /// Battery capacity per rack, Wh — deliberately small, scaled to
        /// the simulator's compressed iteration clock.
        battery_wh_per_rack: f64,
    },
    /// Pump/CDU degradation: row airflow drops to `flow_frac` of design
    /// and stays there until a forced cordon triggers the facilities
    /// repair (or graceful degradation holds the row below critical).
    CoolingPumpFault {
        /// Iteration at whose start the pump degrades.
        at_iter: u32,
        /// Rack row (global pod-major block index) losing airflow.
        row: usize,
        /// Surviving airflow as a fraction of design, in (0, 1).
        flow_frac: f64,
    },
    /// A correlated optics-batch failure: the in-use uplinks of `links`
    /// consecutive job hosts (same rail) die in one window.
    OpticsBurst {
        /// Iteration at whose start the burst lands.
        at_iter: u32,
        /// Same-rail links killed in the window.
        links: usize,
    },
}

impl SubstrateFault {
    /// Iteration at whose start the fault lands.
    pub fn at_iter(&self) -> u32 {
        match *self {
            SubstrateFault::GridSag { at_iter, .. }
            | SubstrateFault::CoolingPumpFault { at_iter, .. }
            | SubstrateFault::OpticsBurst { at_iter, .. } => at_iter,
        }
    }

    /// The cascade class this fault originates.
    pub fn class(&self) -> CascadeClass {
        match self {
            SubstrateFault::GridSag { .. } => CascadeClass::Power,
            SubstrateFault::CoolingPumpFault { .. } => CascadeClass::Cooling,
            SubstrateFault::OpticsBurst { .. } => CascadeClass::Optics,
        }
    }
}

/// Which substrate a cascade originated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CascadeClass {
    /// Power-delivery substrate (grid / HVDC / battery).
    Power,
    /// Cooling substrate (pump / CDU / airflow).
    Cooling,
    /// Optical network substrate (module batch).
    Optics,
}

impl CascadeClass {
    /// Stable numeric code carried in `SubstrateOnset` trace records
    /// (`aux`) — part of the serialized trace format; append, never
    /// renumber. Matches `astral_monitor::Signal::of_record`'s decoding.
    pub fn code(self) -> u16 {
        match self {
            CascadeClass::Power => 0,
            CascadeClass::Cooling => 1,
            CascadeClass::Optics => 2,
        }
    }

    /// The analyzer cause a correct attribution names for this class.
    fn expected_cause(self) -> CauseClass {
        match self {
            CascadeClass::Power => CauseClass::PowerDelivery,
            CascadeClass::Cooling => CauseClass::Cooling,
            CascadeClass::Optics => CauseClass::NicOrLink,
        }
    }
}

impl std::fmt::Display for CascadeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CascadeClass::Power => "power",
            CascadeClass::Cooling => "cooling",
            CascadeClass::Optics => "optics",
        };
        write!(f, "{s}")
    }
}

/// A deterministic cascade schedule.
#[derive(Debug, Clone, Default)]
pub struct CascadeScript {
    /// Substrate faults, any order; each lands at its iteration.
    pub faults: Vec<SubstrateFault>,
    /// Network-layer faults (fail-stop *and* gray) riding the same
    /// campaign clock, handed to the recovery engine's injector — this is
    /// how a campaign mixes a flapping optic into a power-sag window.
    pub net_faults: Vec<InjectedFault>,
}

/// Per-iteration probabilities of each spontaneous substrate fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardRates {
    /// Grid sag probability per iteration.
    pub grid_sag: f64,
    /// Pump/CDU fault probability per iteration.
    pub pump: f64,
    /// Optics-batch burst probability per iteration.
    pub optics: f64,
}

impl HazardRates {
    /// No spontaneous faults — scripted cascades only.
    pub fn none() -> Self {
        HazardRates {
            grid_sag: 0.0,
            pump: 0.0,
            optics: 0.0,
        }
    }
}

/// A seeded fault campaign: scripted correlated faults plus per-substrate
/// hazard rates. Identical seeds materialize identical scripts, and
/// (through the engine's own determinism) byte-identical reports.
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    /// Faults that land regardless of the hazard draw.
    pub scripted: CascadeScript,
    /// Spontaneous per-substrate hazard rates.
    pub hazards: HazardRates,
    /// Iterations the campaign draws hazards over (keep a tail margin so
    /// late faults still get diagnosed before the run ends).
    pub horizon_iters: u32,
    /// Campaign seed: drives the hazard draw and the fault shapes.
    pub seed: u64,
}

impl FaultCampaign {
    /// A scripted-only campaign.
    pub fn scripted(script: CascadeScript, seed: u64) -> Self {
        FaultCampaign {
            scripted: script,
            hazards: HazardRates::none(),
            horizon_iters: 0,
            seed,
        }
    }

    /// Materialize the campaign into a concrete [`CascadeScript`]:
    /// scripted faults first, then one hazard draw per substrate per
    /// iteration of the horizon. Deterministic in `seed`.
    pub fn materialize(&self) -> CascadeScript {
        let mut faults = self.scripted.faults.clone();
        let mut rng = SimRng::new(self.seed);
        // Leave the final iterations fault-free so a late cascade still
        // manifests and gets attributed before the run ends.
        let draw_until = self.horizon_iters.saturating_sub(8);
        for it in 0..draw_until {
            if rng.chance(self.hazards.grid_sag) {
                faults.push(SubstrateFault::GridSag {
                    at_iter: it,
                    row: rng.below(2) as usize,
                    supply_frac: 0.55 + 0.1 * rng.chance(0.5) as u8 as f64,
                    duration_iters: 8 + rng.below(5) as u32,
                    battery_wh_per_rack: 6.0 + 3.0 * rng.below(3) as f64,
                });
            }
            if rng.chance(self.hazards.pump) {
                faults.push(SubstrateFault::CoolingPumpFault {
                    at_iter: it,
                    row: rng.below(2) as usize,
                    flow_frac: 0.38 + 0.04 * rng.below(3) as f64,
                });
            }
            if rng.chance(self.hazards.optics) {
                faults.push(SubstrateFault::OpticsBurst {
                    at_iter: it,
                    links: 2 + rng.below(2) as usize,
                });
            }
        }
        faults.sort_by_key(|f| f.at_iter());
        CascadeScript {
            faults,
            net_faults: self.scripted.net_faults.clone(),
        }
    }
}

/// Ground truth vs diagnosis for one injected cascade.
#[derive(Debug, Clone)]
pub struct CascadeAttribution {
    /// The substrate the cascade actually originated in.
    pub class: CascadeClass,
    /// Iteration the fault landed.
    pub onset_iter: u32,
    /// What the analyzer (or the abort-path localization) blamed, once it
    /// looked; `None` means the run ended before a diagnosis.
    pub diagnosed: Option<CauseClass>,
    /// Iteration of the diagnosis.
    pub diagnosed_iter: Option<u32>,
    /// Job hosts inside the cascade's blast radius at onset.
    pub blast_hosts: usize,
}

impl CascadeAttribution {
    /// Did the diagnosis name the originating substrate?
    pub fn correct(&self) -> bool {
        self.diagnosed == Some(self.class.expected_cause())
    }
}

/// Outcome of one cascade run: the recovery report plus per-cascade
/// attribution ground truth.
#[derive(Debug, Clone)]
pub struct CascadeReport {
    /// The engine's goodput/MTTR/incident accounting.
    pub recovery: RecoveryReport,
    /// One entry per injected cascade, in onset order.
    pub attributions: Vec<CascadeAttribution>,
}

impl CascadeReport {
    /// Fraction of injected cascades attributed to their originating
    /// substrate; `None` when nothing was injected.
    pub fn attribution_accuracy(&self) -> Option<f64> {
        if self.attributions.is_empty() {
            return None;
        }
        let correct = self.attributions.iter().filter(|a| a.correct()).count();
        Some(correct as f64 / self.attributions.len() as f64)
    }

    /// A deterministic fingerprint over every semantic field — float bits,
    /// incident sequence, attributions — but *excluding* solver counters,
    /// which legitimately differ between joint and pod-grouped fills
    /// (`NetConfig::sharded_solver`). Byte-identical fingerprints ⇒
    /// identical runs.
    pub fn fingerprint(&self) -> String {
        let mut s = self.recovery.fingerprint();
        for a in &self.attributions {
            s.push_str(&format!(
                "|casc:{:?}@{}→{:?}@{:?}·b{}",
                a.class, a.onset_iter, a.diagnosed, a.diagnosed_iter, a.blast_hosts
            ));
        }
        s
    }
}

/// Run one training job with `script`'s cascades flowing through the
/// recovery lifecycle — the single run path; a plain training run
/// ([`crate::try_run_training`]) has no substrate faults. `runner_cfg`
/// carries simulator settings (e.g. `NetConfig::sharded_solver` or
/// `NetConfig::trace`); `placement` puts the job and its spare grant
/// anywhere in the fabric; `router` optionally shares a warmed ECMP router
/// across runs on one topology (byte-identical results, setup paid once).
/// An invalid policy or job shape is rejected before anything runs.
pub fn try_run_cascade_placed(
    topo: &Topology,
    policy: &RecoveryPolicy,
    spec: &TrainingJobSpec,
    script: &CascadeScript,
    runner_cfg: RunnerConfig,
    placement: &JobPlacement,
    router: Option<Arc<Router>>,
) -> Result<CascadeReport, PolicyError> {
    validate(topo, policy, spec, placement)?;
    let prior = CorrelationPrior::default();
    let engine = Engine::new(
        topo, *policy, *spec, script, runner_cfg, placement, router, prior,
    );
    Ok(engine.run_parts())
}

/// Reject an invalid policy or job shape: no hosts, a placement that does
/// not cover exactly `spec.hosts` ranks, or a host outside the fabric or
/// listed twice.
fn validate(
    topo: &Topology,
    policy: &RecoveryPolicy,
    spec: &TrainingJobSpec,
    placement: &JobPlacement,
) -> Result<(), PolicyError> {
    policy.validate()?;
    if spec.hosts == 0 {
        return Err(PolicyError::EmptyJob);
    }
    if placement.hosts.len() != spec.hosts {
        return Err(PolicyError::PlacementSize {
            spec_hosts: spec.hosts,
            placed: placement.hosts.len(),
        });
    }
    let mut seen = BTreeSet::new();
    for &host in placement.hosts.iter().chain(&placement.spares) {
        if host.0 as usize >= topo.hosts().len() {
            return Err(PolicyError::HostOutsideFabric { host });
        }
        if !seen.insert(host) {
            return Err(PolicyError::DuplicateHost { host });
        }
    }
    Ok(())
}

/// One entry of a campaign battery: an independent (policy, job spec,
/// campaign) triple. A training battery passes
/// [`FaultCampaign::scripted`] campaigns.
pub type CampaignRun = (RecoveryPolicy, TrainingJobSpec, FaultCampaign);

/// Run a battery of independent cascade campaigns on `pool`, each on the
/// fleet-prefix placement, with one mined [`CorrelationPrior`] (plain
/// `Copy` data) shared by every run. Reports come back in submission order
/// and each run is an isolated simulation, so the output is byte-identical
/// to a serial loop at any thread count. Runs are validated up front in
/// submission order, so the first invalid one is reported at any width.
pub fn try_run_campaign_battery_with(
    pool: &astral_exec::Pool,
    topo: &Topology,
    runs: &[CampaignRun],
    runner_cfg: RunnerConfig,
    prior: CorrelationPrior,
) -> Result<Vec<CascadeReport>, PolicyError> {
    let prefix = |spec: &TrainingJobSpec| JobPlacement::prefix(spec.hosts, spec.spares);
    for (policy, spec, _) in runs {
        validate(topo, policy, spec, &prefix(spec))?;
    }
    // Shared-topology fast path: all runs ride one warmed ECMP router, so
    // the per-destination setup is paid once per battery instead of once
    // per run. Routing state is a pure function of the topology (failures
    // are capacity-level inside each private simulator), so results are
    // byte-identical to per-run routers.
    let router = Arc::new(Router::new());
    Ok(pool.map(runs, |(policy, spec, campaign)| {
        let (script, placement) = (campaign.materialize(), prefix(spec));
        let router = Some(router.clone());
        Engine::new(
            topo, *policy, *spec, &script, runner_cfg, &placement, router, prior,
        )
        .run_parts()
    }))
}

/// The physical rack rows of a fabric: one `(pod, block)` host group per
/// row, pod-major, each behind one HVDC unit and one CDU loop. This is the
/// failure-domain unit every substrate cascade blasts — fleet placement
/// policies spread tenants across these rows to bound the blast radius.
///
/// One pass in host-id order: a row opens at its first host, so rows come
/// out ordered by their lowest host id.
pub fn rack_rows(topo: &Topology) -> Vec<Vec<HostId>> {
    let mut row_of: MulHashMap<(u16, u16), usize> = MulHashMap::default();
    let mut rows: Vec<Vec<HostId>> = Vec::new();
    for h in topo.hosts() {
        let r = *row_of.entry((h.pod, h.block)).or_insert_with(|| {
            rows.push(Vec::new());
            rows.len() - 1
        });
        rows[r].push(h.id);
    }
    rows
}

/// Each host's `(row, position in its row)` within `rows`, the partition
/// [`rack_rows`] returns, indexed by host id.
pub fn rack_row_index(rows: &[Vec<HostId>]) -> Vec<(usize, usize)> {
    let mut at = vec![(0, 0); rows.iter().map(Vec::len).sum()];
    for (ri, row) in rows.iter().enumerate() {
        for (hi, h) in row.iter().enumerate() {
            at[h.index()] = (ri, hi);
        }
    }
    at
}

// ---------------------------------------------------------------------------
// The substrate state machines, driven by the recovery engine's clock.
// ---------------------------------------------------------------------------

/// What one iteration tick asks of the engine.
#[derive(Debug, Default)]
pub(crate) struct SubstrateTick {
    /// Hosts whose in-use uplink must die this iteration (optics burst).
    pub kill_uplinks: Vec<HostId>,
    /// Hosts past [`CRITICAL_C`] the DCIM force-cordons (at most one per
    /// tick — the hottest; draining it triggers the facilities repair).
    pub forced_cordon: Vec<HostId>,
}

/// Substrate telemetry of one host for the monitoring snapshot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostSubstrate {
    pub inlet_temp_c: f64,
    pub power_cap_frac: f64,
    pub thermal_throttle: bool,
}

struct SagState {
    supply_frac: f64,
    ride_through_s: f64,
    elapsed_s: f64,
    remaining_iters: u32,
    /// Attribution index, created only once the cap engages — a sag the
    /// battery rides out entirely never manifests, so there is nothing
    /// for the analyzer to attribute.
    attr: Option<usize>,
}

impl SagState {
    fn cap_active(&self) -> bool {
        self.elapsed_s > self.ride_through_s
    }
}

struct RowState {
    hosts: Vec<HostId>,
    temps: Vec<f64>,
    flow_frac: f64,
    pump_active: bool,
    rerouted: bool,
    thermal_cap: f64,
    cooling_attr: Option<usize>,
    sag: Option<SagState>,
}

impl RowState {
    fn new(hosts: Vec<HostId>) -> Self {
        let n = hosts.len();
        RowState {
            hosts,
            temps: vec![INLET_C; n],
            flow_frac: 1.0,
            pump_active: false,
            rerouted: false,
            thermal_cap: 1.0,
            cooling_attr: None,
            sag: None,
        }
    }

    /// Power cap currently applied to the row's racks (min of the sag cap
    /// and the graceful thermal cap).
    fn power_cap(&self) -> f64 {
        let sag_cap = match &self.sag {
            Some(s) if s.cap_active() => s.supply_frac,
            _ => 1.0,
        };
        sag_cap.min(self.thermal_cap)
    }

    /// Steady-state temperatures the row is lagging toward right now.
    fn target_temps(&self) -> Vec<f64> {
        let cap = self.power_cap();
        let row = RackRow {
            heat_w: vec![RACK_TDP_W * cap; self.hosts.len()],
            inlet_c: INLET_C,
            total_flow_m3s: RACK_FLOW_M3S * self.hosts.len() as f64 * self.flow_frac,
        };
        if self.rerouted {
            row.temperatures_rerouted(Airflow::SideIntake, REROUTE_BOOST)
                .expect("boost is a compile-time constant in [0,1]")
        } else {
            row.temperatures(Airflow::SideIntake)
        }
    }

    fn advance_temps(&mut self) {
        let targets = self.target_temps();
        for (t, target) in self.temps.iter_mut().zip(targets) {
            *t += (target - *t) * TEMP_LAG;
        }
    }

    /// The facilities repair that accompanies a forced cordon: airflow
    /// restored, graceful levers released, cascade closed.
    fn repair_pump(&mut self) {
        self.pump_active = false;
        self.flow_frac = 1.0;
        self.rerouted = false;
        self.thermal_cap = 1.0;
    }

    fn multiplier(&self, idx: usize) -> f64 {
        let mut m = 1.0;
        let t = self.temps[idx];
        if t > THROTTLE_C {
            m *= 1.0 + SLOWDOWN_PER_DEG * (t - THROTTLE_C);
        }
        let cap = self.power_cap();
        if cap < 1.0 {
            m *= cap.powf(-CAP_EXPONENT);
        }
        m
    }
}

/// The cascade driver the recovery engine consults once per iteration.
pub(crate) struct SubstrateState {
    rows: Vec<RowState>,
    /// `(row, position in row)` per host id.
    host_row: Vec<(usize, usize)>,
    script: Vec<SubstrateFault>,
    injected: Vec<bool>,
    rng: SimRng,
    rebalance: bool,
    temp_hazard: HazardForecaster,
    pub(crate) attributions: Vec<CascadeAttribution>,
}

impl SubstrateState {
    pub(crate) fn new(topo: &Topology, seed: u64, script: &CascadeScript) -> Self {
        // Rack row = one (pod, block) group, pod-major, matching the
        // physical deployment of a row of racks behind one HVDC unit and
        // one CDU loop (see [`rack_rows`]).
        let rows = rack_rows(topo);
        let host_row = rack_row_index(&rows);
        let rows: Vec<RowState> = rows.into_iter().map(RowState::new).collect();
        let injected = vec![false; script.faults.len()];
        SubstrateState {
            rows,
            host_row,
            script: script.faults.clone(),
            injected,
            rng: SimRng::new(seed ^ 0x5ca5_cade),
            rebalance: false,
            temp_hazard: HazardForecaster::rising(CRITICAL_C, 6),
            attributions: Vec::new(),
        }
    }

    /// Advance every cascade by one iteration: inject due faults, tick
    /// sag/thermal clocks, and report what the engine must do.
    pub(crate) fn begin_iter(
        &mut self,
        it: u32,
        last_iter_s: f64,
        job_hosts: &[HostId],
    ) -> SubstrateTick {
        let mut tick = SubstrateTick::default();
        self.inject_due(it, job_hosts, &mut tick);
        self.tick_sags(it, last_iter_s, job_hosts);
        self.tick_thermals(it, job_hosts, &mut tick);
        tick
    }

    /// Inject the scripted faults due at iteration `it`; an optics burst
    /// adds its victims to `tick`.
    fn inject_due(&mut self, it: u32, job_hosts: &[HostId], tick: &mut SubstrateTick) {
        for i in 0..self.script.len() {
            if self.injected[i] || self.script[i].at_iter() != it {
                continue;
            }
            self.injected[i] = true;
            match self.script[i] {
                SubstrateFault::GridSag {
                    row,
                    supply_frac,
                    duration_iters,
                    battery_wh_per_rack,
                    ..
                } => {
                    let ri = row % self.rows.len();
                    let n = self.rows[ri].hosts.len();
                    let racks: Vec<RackPower> = (0..n)
                        .map(|_| RackPower::try_new(RACK_TDP_W).expect("finite TDP"))
                        .collect();
                    let unit = HvdcUnit::try_for_row(racks, battery_wh_per_rack * n as f64)
                        .expect("cascade rack parameters are finite");
                    let deficit_w = (1.0 - supply_frac).max(0.0) * RACK_TDP_W * n as f64;
                    self.rows[ri].sag = Some(SagState {
                        supply_frac,
                        ride_through_s: unit.ride_through_s(deficit_w),
                        elapsed_s: 0.0,
                        remaining_iters: duration_iters,
                        attr: None,
                    });
                }
                SubstrateFault::CoolingPumpFault { row, flow_frac, .. } => {
                    let ri = row % self.rows.len();
                    let attr = self.push_attribution(
                        CascadeClass::Cooling,
                        it,
                        self.blast_of(ri, job_hosts),
                    );
                    let r = &mut self.rows[ri];
                    r.pump_active = true;
                    r.flow_frac = flow_frac;
                    r.cooling_attr = Some(attr);
                }
                SubstrateFault::OpticsBurst { links, .. } => {
                    let links = links.min(job_hosts.len()).max(1);
                    let start = self.rng.below(job_hosts.len() as u64) as usize;
                    let victims: Vec<HostId> = (0..links)
                        .map(|k| job_hosts[(start + k) % job_hosts.len()])
                        .collect();
                    self.push_attribution(CascadeClass::Optics, it, victims.len());
                    tick.kill_uplinks.extend(victims);
                }
            }
        }
    }

    /// Tick the sag clocks. The power cascade only *manifests* (and
    /// becomes attributable) once the battery is spent and the cap
    /// engages; a sag ridden out entirely leaves no trace.
    fn tick_sags(&mut self, it: u32, last_iter_s: f64, job_hosts: &[HostId]) {
        for ri in 0..self.rows.len() {
            let mut expired = false;
            let mut cap_onset = false;
            if let Some(sag) = &mut self.rows[ri].sag {
                sag.elapsed_s += last_iter_s;
                sag.remaining_iters = sag.remaining_iters.saturating_sub(1);
                expired = sag.remaining_iters == 0;
                cap_onset = !expired && sag.cap_active() && sag.attr.is_none();
            }
            if cap_onset {
                let blast = self.blast_of(ri, job_hosts);
                let attr = self.push_attribution(CascadeClass::Power, it, blast);
                if let Some(sag) = &mut self.rows[ri].sag {
                    sag.attr = Some(attr);
                }
            }
            if expired {
                self.rows[ri].sag = None;
            }
        }
    }

    /// Tick the thermal lags, then look for criticals: the hottest job
    /// host at or past [`CRITICAL_C`] is cordoned in `tick` and its row's
    /// pump repaired.
    fn tick_thermals(&mut self, it: u32, job_hosts: &[HostId], tick: &mut SubstrateTick) {
        let mut hottest: Option<(HostId, f64)> = None;
        let mut max_temp = f64::NEG_INFINITY;
        for row in &mut self.rows {
            if !row.pump_active && row.temps.iter().all(|&t| t - INLET_C < 0.01) {
                continue;
            }
            row.advance_temps();
            for (hi, &h) in row.hosts.iter().enumerate() {
                let t = row.temps[hi];
                max_temp = max_temp.max(t);
                if t >= CRITICAL_C && job_hosts.contains(&h) {
                    match hottest {
                        Some((_, best)) if best >= t => {}
                        _ => hottest = Some((h, t)),
                    }
                }
            }
        }
        if max_temp.is_finite() {
            self.temp_hazard.observe(it as f64, max_temp);
        }
        if let Some((victim, _)) = hottest {
            tick.forced_cordon.push(victim);
            let (ri, _) = self.host_row[victim.index()];
            self.rows[ri].repair_pump();
            self.temp_hazard.reset();
        }
    }

    fn blast_of(&self, row: usize, job_hosts: &[HostId]) -> usize {
        self.rows[row]
            .hosts
            .iter()
            .filter(|h| job_hosts.contains(h))
            .count()
    }

    fn push_attribution(&mut self, class: CascadeClass, onset: u32, blast: usize) -> usize {
        self.attributions.push(CascadeAttribution {
            class,
            onset_iter: onset,
            diagnosed: None,
            diagnosed_iter: None,
            blast_hosts: blast,
        });
        self.attributions.len() - 1
    }

    /// Is the Seer hazard forecast inside the proactive-checkpoint lead
    /// window? True when either the thermal trend crosses [`CRITICAL_C`]
    /// within `lead` iterations, or a riding-through battery is within
    /// `lead` iterations of exhaustion.
    pub(crate) fn hazard_imminent(&self, lead_iters: u32, last_iter_s: f64) -> bool {
        if self.temp_hazard.imminent(lead_iters as f64) {
            return true;
        }
        let step = last_iter_s.max(1e-9);
        self.rows.iter().any(|r| {
            r.sag.as_ref().is_some_and(|s| {
                !s.cap_active() && (s.ride_through_s - s.elapsed_s) / step <= lead_iters as f64
            })
        })
    }

    /// Substrate telemetry of one host, for the monitoring snapshot.
    pub(crate) fn telemetry(&self, host: HostId) -> HostSubstrate {
        let (ri, hi) = self.host_row[host.index()];
        let row = &self.rows[ri];
        let t = row.temps[hi];
        HostSubstrate {
            inlet_temp_c: t,
            power_cap_frac: row.power_cap(),
            thermal_throttle: t > THROTTLE_C,
        }
    }

    /// Compute-time multiplier of one host (1.0 = nominal). Every fabric
    /// host sits in a rack row.
    pub(crate) fn host_multiplier(&self, host: HostId) -> f64 {
        let (ri, hi) = self.host_row[host.index()];
        self.rows[ri].multiplier(hi)
    }

    /// Job-level compute multiplier. Without micro-batch rebalancing the
    /// slowest straggler paces every rank (synchronous data parallelism:
    /// the max); with it, work shifts toward the healthy hosts and the
    /// job runs at the harmonic mean.
    pub(crate) fn aggregate_multiplier(&self, job_hosts: &[HostId]) -> f64 {
        let ms = job_hosts.iter().map(|&h| self.host_multiplier(h));
        if self.rebalance {
            let inv: f64 = ms.map(|m| 1.0 / m).sum();
            job_hosts.len() as f64 / inv
        } else {
            ms.fold(1.0, f64::max)
        }
    }

    /// Attributions of the active, stressed cascades not yet diagnosed,
    /// row by row (a pumping row's cooling cascade before its capped sag).
    fn undiagnosed_stress(&self) -> Vec<usize> {
        let hot = |r: &RowState| r.pump_active && r.temps.iter().any(|&t| t > INLET_C + 10.0);
        self.rows
            .iter()
            .flat_map(|r| {
                let sag = r
                    .sag
                    .as_ref()
                    .filter(|s| s.cap_active())
                    .and_then(|s| s.attr);
                [r.cooling_attr.filter(|_| hot(r)), sag]
            })
            .flatten()
            .filter(|&a| self.attributions[a].diagnosed.is_none())
            .collect()
    }

    /// Is there an active, stressed cascade the engine has not yet
    /// diagnosed? (The physical-layer DCIM alarm.)
    pub(crate) fn stress_pending(&self) -> bool {
        !self.undiagnosed_stress().is_empty()
    }

    /// Record the analyzer's verdict against every pending stressed
    /// cascade, and (under graceful degradation) engage the mitigation
    /// ladder for the *diagnosed* substrate. Returns true when any
    /// graceful lever newly engaged.
    pub(crate) fn attend(&mut self, it: u32, cause: CauseClass, graceful: bool) -> bool {
        for a in self.undiagnosed_stress() {
            self.attributions[a].diagnosed = Some(cause);
            self.attributions[a].diagnosed_iter = Some(it);
        }
        if !graceful {
            return false;
        }
        let mut engaged = false;
        match cause {
            CauseClass::Cooling => {
                for r in &mut self.rows {
                    if r.pump_active && !r.rerouted {
                        // Flow reroute equalizes the spread; the thermal
                        // power cap sizes the heat to what the surviving
                        // flow can remove at the throttle point.
                        r.rerouted = true;
                        let nominal_dt = RACK_TDP_W / (1.2 * 1005.0 * RACK_FLOW_M3S * r.flow_frac);
                        let allowed_dt = THROTTLE_C - INLET_C;
                        r.thermal_cap = (allowed_dt / nominal_dt).clamp(0.3, 1.0);
                        engaged = true;
                    }
                }
            }
            CauseClass::PowerDelivery => {
                // Ride the cap: nothing to restore at the rack, the lever
                // is load-shaping (the rebalance below).
                engaged = self
                    .rows
                    .iter()
                    .any(|r| r.sag.as_ref().is_some_and(SagState::cap_active));
            }
            _ => {}
        }
        if engaged && !self.rebalance {
            self.rebalance = true;
        }
        engaged
    }

    /// Whether graceful micro-batch rebalancing is currently engaged.
    #[cfg(test)]
    fn rebalanced(&self) -> bool {
        self.rebalance
    }

    /// Resolve a pending optics attribution from the abort-path incident
    /// the recovery engine just handled.
    pub(crate) fn note_incident(&mut self, it: u32, class: FaultClass) {
        let diagnosed = match class {
            FaultClass::TransientLink
            | FaultClass::OpticalDualTor
            | FaultClass::FlappingLink
            | FaultClass::DegradingOptic => CauseClass::NicOrLink,
            FaultClass::HardHost => CauseClass::GpuHardware,
            // Fail-slow symptoms and gray host quarantines are degraded
            // states, not optics attributions.
            FaultClass::FailSlow | FaultClass::GrayStraggler => return,
        };
        if let Some(a) = self
            .attributions
            .iter_mut()
            .find(|a| a.class == CascadeClass::Optics && a.diagnosed.is_none())
        {
            a.diagnosed = Some(diagnosed);
            a.diagnosed_iter = Some(it);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_topo::{build_astral, AstralParams};

    fn state(script: CascadeScript) -> SubstrateState {
        let topo = build_astral(&AstralParams::sim_small());
        SubstrateState::new(&topo, 7, &script)
    }

    /// Rack row 0 starved to 40% airflow from iteration 0.
    fn pump_state() -> SubstrateState {
        state(CascadeScript {
            faults: vec![SubstrateFault::CoolingPumpFault {
                at_iter: 0,
                row: 0,
                flow_frac: 0.4,
            }],
            net_faults: Vec::new(),
        })
    }

    fn job_hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn rows_partition_the_fleet_pod_major() {
        let s = state(CascadeScript::default());
        // sim_small: 2 pods × 4 blocks × 8 hosts.
        assert_eq!(s.rows.len(), 8);
        assert!(s.rows.iter().all(|r| r.hosts.len() == 8));
        assert_eq!(s.rows[0].hosts[0], HostId(0));
        assert_eq!(s.host_row[9], (1, 1));
    }

    #[test]
    fn rack_rows_match_the_per_row_filter_on_sim_medium() {
        let topo = astral_topo::build_astral(&astral_topo::AstralParams::sim_medium());
        let rows = rack_rows(&topo);
        // sim_medium: 2 pods × 8 blocks × 16 hosts.
        assert_eq!(rows.len(), 16);
        // The rows partition the fleet: every host exactly once.
        let mut all = rows.concat();
        all.sort();
        let ids: Vec<HostId> = topo.hosts().iter().map(|h| h.id).collect();
        assert_eq!(all, ids);
        // Same rows in the same order as filtering the fleet once per
        // sorted (pod, block) key and ordering rows by their first host.
        let mut keys: Vec<(u16, u16)> = topo.hosts().iter().map(|h| (h.pod, h.block)).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut want: Vec<Vec<HostId>> = keys
            .iter()
            .map(|&k| {
                let in_row = topo.hosts().iter().filter(|h| (h.pod, h.block) == k);
                in_row.map(|h| h.id).collect()
            })
            .collect();
        want.sort_by_key(|r| r[0]);
        assert_eq!(rows, want);
    }

    #[test]
    fn pump_fault_ramps_temps_until_forced_cordon() {
        let mut s = pump_state();
        let hosts = job_hosts(16);
        let mut cordoned = None;
        for it in 0..20 {
            let tick = s.begin_iter(it, 0.8, &hosts);
            if let Some(&h) = tick.forced_cordon.first() {
                cordoned = Some((it, h));
                break;
            }
        }
        let (at, host) = cordoned.expect("an unmitigated pump fault must escalate");
        assert!(at >= 2, "the thermal lag gives detection a window, at={at}");
        assert_eq!(s.host_row[host.index()].0, 0, "cordon lands inside the row");
        // The cordon triggers the facilities repair.
        assert!(!s.rows[0].pump_active);
        assert!((s.rows[0].flow_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn graceful_cooling_mitigation_holds_the_row_below_critical() {
        let mut s = pump_state();
        let hosts = job_hosts(16);
        for it in 0..30 {
            let tick = s.begin_iter(it, 0.8, &hosts);
            assert!(
                tick.forced_cordon.is_empty(),
                "graceful row crossed critical at iter {it}"
            );
            if it == 2 {
                assert!(s.stress_pending(), "DCIM alarm must fire during the ramp");
                assert!(s.attend(it, CauseClass::Cooling, true));
                assert!(s.rebalanced());
            }
        }
        let peak = s.rows[0].temps.iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak < CRITICAL_C, "peak {peak:.1} °C");
        // The thermal cap slows the row, the harmonic rebalance softens it.
        let worst = s.aggregate_multiplier(&hosts);
        assert!(worst > 1.0 && worst < 1.4, "rebalanced multiplier {worst}");
    }

    #[test]
    fn grid_sag_caps_only_after_the_ride_through_window() {
        let script = CascadeScript {
            faults: vec![SubstrateFault::GridSag {
                at_iter: 0,
                row: 0,
                supply_frac: 0.6,
                duration_iters: 10,
                battery_wh_per_rack: 60.0,
            }],
            net_faults: Vec::new(),
        };
        let mut s = state(script);
        let hosts = job_hosts(16);
        s.begin_iter(0, 0.8, &hosts);
        // Battery still floating: no cap, full speed.
        assert!((s.telemetry(HostId(0)).power_cap_frac - 1.0).abs() < 1e-12);
        assert!((s.aggregate_multiplier(&hosts) - 1.0).abs() < 1e-12);
        // 60 Wh × 8 racks, half usable, 128 kW deficit → ~6.7 s.
        let mut capped_at = None;
        for it in 1..12 {
            s.begin_iter(it, 0.8, &hosts);
            if s.telemetry(HostId(0)).power_cap_frac < 1.0 {
                capped_at = Some(it);
                break;
            }
        }
        let at = capped_at.expect("the battery must run out");
        assert!(at >= 2, "ride-through must cover some iterations, at={at}");
        assert!(s.stress_pending());
        let m = s.aggregate_multiplier(&hosts);
        assert!(
            (m - 0.6_f64.powf(-CAP_EXPONENT)).abs() < 1e-9,
            "max multiplier {m}"
        );
        // The sag expires and the cap lifts.
        for it in 12..30 {
            s.begin_iter(it, 0.8, &hosts);
        }
        assert!((s.telemetry(HostId(0)).power_cap_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optics_burst_kills_same_window_uplinks_and_attributes_on_incident() {
        let script = CascadeScript {
            faults: vec![SubstrateFault::OpticsBurst {
                at_iter: 3,
                links: 3,
            }],
            net_faults: Vec::new(),
        };
        let mut s = state(script);
        let hosts = job_hosts(16);
        for it in 0..3 {
            assert!(s.begin_iter(it, 0.8, &hosts).kill_uplinks.is_empty());
        }
        let tick = s.begin_iter(3, 0.8, &hosts);
        assert_eq!(tick.kill_uplinks.len(), 3);
        assert_eq!(s.attributions.len(), 1);
        assert!(s.attributions[0].diagnosed.is_none());
        s.note_incident(3, FaultClass::OpticalDualTor);
        assert!(s.attributions[0].correct());
    }

    #[test]
    fn campaign_materialization_is_deterministic_in_the_seed() {
        let c = FaultCampaign {
            scripted: CascadeScript::default(),
            hazards: HazardRates {
                grid_sag: 0.05,
                pump: 0.05,
                optics: 0.05,
            },
            horizon_iters: 40,
            seed: 99,
        };
        let a = c.materialize();
        let b = c.materialize();
        assert_eq!(a.faults, b.faults);
        assert!(!a.faults.is_empty(), "5% × 3 × 32 draws should land faults");
        let different = FaultCampaign { seed: 100, ..c }.materialize();
        assert_ne!(a.faults, different.faults);
    }

    #[test]
    fn hazard_forecast_is_imminent_before_the_cordon() {
        let mut s = pump_state();
        let hosts = job_hosts(16);
        let mut warned_at = None;
        for it in 0..20 {
            let tick = s.begin_iter(it, 0.8, &hosts);
            if !tick.forced_cordon.is_empty() {
                let warned = warned_at.expect("forecast must precede the cordon");
                assert!(warned < it);
                return;
            }
            if warned_at.is_none() && s.hazard_imminent(3, 0.8) {
                warned_at = Some(it);
            }
        }
        panic!("cordon never happened");
    }
}

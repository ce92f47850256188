//! `fleet_tenancy`: seeded multi-tenant `FleetCampaign`s with cooling,
//! power and optics faults, a shared spare pool, preemption and Seer-backed
//! admission. The only workload that runs fleet-controller code.

use super::{ensure, ensure_unit, OpOut, Workload, WARM_SEED};
use crate::clock::Clock;
use crate::stats::{fnv_str, Rng};
use astral_collectives::RunnerConfig;
use astral_core::RecoveryPolicy;
use astral_exec::Pool;
use astral_fleet::{
    try_run_fleet_campaign_traced, try_run_fleet_campaign_with, FleetCampaign, FleetFaultConfig,
    FleetPolicy, FleetReport, WorkloadConfig,
};
use astral_topo::{build_astral, AstralParams, Topology};
use astral_trace::TraceKind;

pub struct Fleet {
    topo: Topology,
    policy: FleetPolicy,
    jobs: usize,
}

impl Workload for Fleet {
    const OP: &'static str = "bench.fleet";
    const SETUP_REPS: usize = 15;
    const GOLDEN_OPS: u64 = 4;
    const TAIL_PCT: f64 = 90.0;
    const PROBE_OPS: u64 = 1;

    fn setup(probe: bool, clock: &mut Clock) -> Self {
        let topo = clock.time_aside("topo.build", || build_astral(&AstralParams::sim_small()));
        let policy = FleetPolicy {
            seer_admission: true,
            recovery: RecoveryPolicy::gray_aware(),
            ..FleetPolicy::default()
        };
        let w = Fleet {
            topo,
            policy,
            jobs: if probe { 3 } else { 10 },
        };
        // Warm-up prefix: one campaign from outside the timed stream.
        let campaign = w.campaign(WARM_SEED, 0);
        let _ = clock.time_aside("fleet.warm_up", || w.run(&campaign));
        w
    }

    fn round_len(&self) -> u64 {
        1
    }

    fn op(&mut self, seed: u64, idx: u64, clock: &mut Clock) -> Result<OpOut, String> {
        let campaign = self.campaign(seed, idx);
        let report = if clock.tracing {
            // The controller's own timeline gives the segment count.
            let (report, trace) = clock.time("fleet.campaign", || {
                try_run_fleet_campaign_traced(
                    &Pool::with_threads(1),
                    &self.topo,
                    &self.policy,
                    &campaign,
                    runner_config(),
                    0,
                )
                .map_err(|e| format!("fleet campaign rejected: {e}"))
            })?;
            let admissions = trace
                .iter()
                .filter(|r| r.kind == TraceKind::Admission as u16)
                .count();
            clock.tally("fleet.segments", admissions as f64);
            report
        } else {
            clock.time("fleet.campaign", || self.run(&campaign))?
        };

        ensure(report.jobs.len() == self.jobs, || {
            format!("{} of {} tenants reported", report.jobs.len(), self.jobs)
        })?;
        ensure(
            report.completed + report.stranded_tenants == self.jobs,
            || {
                format!(
                    "{} completed + {} stranded != {} tenants",
                    report.completed, report.stranded_tenants, self.jobs
                )
            },
        )?;
        ensure_unit("cluster goodput", report.cluster_goodput)?;
        ensure_unit("utilization", report.utilization)?;
        ensure_unit("stranded fraction", report.stranded_frac)?;
        let admitted = report
            .jobs
            .iter()
            .filter(|j| j.first_admit_s.is_some())
            .count();
        clock.tally("fleet.admissions", admitted as f64);
        clock.tally("fleet.preemptions", report.preemptions as f64);
        clock.tally("fleet.spare_claims", report.spare_claims as f64);
        let alloc_hs: f64 = report.jobs.iter().map(|j| j.alloc_hs).sum();
        Ok(OpOut {
            sim_gpu_s: alloc_hs * self.topo.rails() as f64,
            fingerprint: fnv_str(&report.fingerprint()),
        })
    }
}

fn runner_config() -> RunnerConfig {
    let mut cfg = RunnerConfig::default();
    cfg.net.shard_threads = 1;
    cfg
}

impl Fleet {
    fn run(&self, campaign: &FleetCampaign) -> Result<FleetReport, String> {
        try_run_fleet_campaign_with(
            &Pool::with_threads(1),
            &self.topo,
            &self.policy,
            campaign,
            runner_config(),
        )
        .map_err(|e| format!("fleet campaign rejected: {e}"))
    }

    /// Seeded campaign of op `idx`: Poisson arrivals of 8-24-host tenants
    /// every 6 s on average, and a fault every 40 s over 400 s.
    fn campaign(&self, seed: u64, idx: u64) -> FleetCampaign {
        let mut rng = Rng::new(seed, idx);
        FleetCampaign {
            workload: WorkloadConfig {
                jobs: self.jobs,
                mean_interarrival_s: 6.0,
                min_hosts: 8,
                max_hosts: 24,
                iters: (10, 20),
                seed: rng.next(),
            },
            faults: FleetFaultConfig {
                scripted: Vec::new(),
                mean_interarrival_s: 40.0,
                horizon_s: 400.0,
                seed: rng.next(),
            },
        }
    }
}

//! `fault_campaign`: cascade and gray-fault campaigns under
//! `RecoveryPolicy::gray_aware()` via `try_run_cascade_placed` on
//! `sim_small`. Per-iteration collectives are small and every campaign
//! carries a substrate cascade plus four network faults, so incident
//! handling — not the per-iteration collective — does most of the work.

use super::{ensure, ensure_unit, warm_router, OpOut, Workload, WARM_SEED};
use crate::clock::Clock;
use crate::stats::{fnv_str, Rng};
use astral_collectives::{ring_all_reduce, RunnerConfig};
use astral_core::{
    try_run_cascade_placed, CascadeScript, InjectedFault, JobPlacement, RecoveryPolicy,
    SubstrateFault, TrainingJobSpec,
};
use astral_sim::SimDuration;
use astral_topo::{build_astral, AstralParams, HostId, Router, Topology};
use std::sync::Arc;

/// Substrate origin of a campaign's cascade.
#[derive(Debug, Clone, Copy)]
enum Origin {
    Pump,
    Grid,
    Optics,
    /// No substrate fault: network and gray faults only.
    None,
}

/// The round: each substrate origin at two job sizes, plus a gray-only
/// campaign (an odd count keeps the median inside one shape's cluster).
const ROUND: [(Origin, usize); 7] = [
    (Origin::Pump, 16),
    (Origin::Grid, 16),
    (Origin::Optics, 16),
    (Origin::Pump, 8),
    (Origin::Grid, 8),
    (Origin::Optics, 8),
    (Origin::None, 12),
];
const PROBE_ROUND: [(Origin, usize); 1] = [(Origin::Pump, 8)];
/// Iterations per campaign.
const ITERS: u32 = 30;
/// Spare hosts granted to each campaign's job.
const SPARES: usize = 4;

pub struct Campaign {
    topo: Topology,
    router: Arc<Router>,
    round: &'static [(Origin, usize)],
    hosts_per_block: usize,
}

impl Workload for Campaign {
    const OP: &'static str = "bench.campaign";
    const SETUP_REPS: usize = 15;
    const GOLDEN_OPS: u64 = 7;
    const TAIL_PCT: f64 = 95.0;
    const PROBE_OPS: u64 = 1;

    fn setup(probe: bool, clock: &mut Clock) -> Self {
        let params = AstralParams::sim_small();
        let topo = clock.time_aside("topo.build", || build_astral(&params));
        let router = clock.time_aside("topo.route_warm", || warm_router(&topo));
        let w = Campaign {
            topo,
            router,
            round: if probe { &PROBE_ROUND } else { &ROUND },
            hosts_per_block: params.hosts_per_block as usize,
        };
        // Warm-up prefix: one campaign from outside the timed stream.
        let (spec, script, placement) = w.inputs(WARM_SEED, 0, &mut Rng::new(WARM_SEED, 0));
        let _ = clock.time_aside("core.warm_up", || w.run(&spec, &script, &placement));
        w
    }

    fn round_len(&self) -> u64 {
        self.round.len() as u64
    }

    fn op(&mut self, seed: u64, idx: u64, clock: &mut Clock) -> Result<OpOut, String> {
        let (spec, script, placement) = self.inputs(seed, idx, &mut Rng::new(seed, idx));
        clock.time_aside("collectives.expand", || {
            ring_all_reduce(spec.hosts, spec.bytes)
        });
        clock.tally(
            "collectives.transfers",
            (2 * spec.hosts * (spec.hosts - 1)) as f64,
        );

        let report = clock.time("core.campaign", || self.run(&spec, &script, &placement))?;
        let rec = &report.recovery;
        ensure_unit("goodput", rec.goodput())?;
        ensure(rec.total_s() > 0.0, || "campaign accounted no time".into())?;
        if let Some(acc) = report.attribution_accuracy() {
            ensure_unit("attribution accuracy", acc)?;
            clock.tally("monitor.localization_accuracy", acc);
        }
        if let Some(m) = rec.mttlf_s() {
            clock.tally("monitor.mttlf_sim_s", m);
        }
        clock.tally("core.incidents", rec.incidents.len() as f64);
        clock.tally(
            "net.solves",
            (rec.solver.full_solves + rec.solver.incremental_solves) as f64,
        );
        clock.tally("net.links_scanned", rec.solver.links_scanned as f64);
        if clock.tracing {
            // The fault-free twin: what the campaign costs without recovery.
            let twin = clock.time_aside("core.twin", || {
                self.run(&spec, &CascadeScript::default(), &placement)
            })?;
            ensure_unit("twin goodput", twin.recovery.goodput())?;
        }
        Ok(OpOut {
            sim_gpu_s: rec.total_s() * spec.hosts as f64,
            fingerprint: fnv_str(&report.fingerprint()),
        })
    }
}

impl Campaign {
    fn run(
        &self,
        spec: &TrainingJobSpec,
        script: &CascadeScript,
        placement: &JobPlacement,
    ) -> Result<astral_core::CascadeReport, String> {
        let mut cfg = RunnerConfig::default();
        cfg.net.shard_threads = 1;
        try_run_cascade_placed(
            &self.topo,
            &RecoveryPolicy::gray_aware(),
            spec,
            script,
            cfg,
            placement,
            Some(self.router.clone()),
        )
        .map_err(|e| format!("policy rejected: {e}"))
    }

    /// Seeded inputs of op `idx`: job shape and placement (a block-aligned
    /// run of hosts, spares right after it), the substrate cascade landing
    /// on one of the job's rack rows, and four network faults — a
    /// flapping link, a fail-slow host, a degrading optic and a transient
    /// link — at seeded iterations.
    fn inputs(
        &self,
        seed: u64,
        idx: u64,
        rng: &mut Rng,
    ) -> (TrainingJobSpec, CascadeScript, JobPlacement) {
        let n = self.round.len() as u64;
        let mut order: Vec<usize> = (0..n as usize).collect();
        Rng::new(seed, (1 << 32) | (idx / n)).shuffle(&mut order);
        let (origin, hosts) = self.round[order[(idx % n) as usize]];
        let hpb = self.hosts_per_block;
        let blocks = self.topo.hosts().len() / hpb;
        let span = (hosts + SPARES).div_ceil(hpb);
        let first = rng.below((blocks - span + 1) as u64) as usize * hpb;
        let placement = JobPlacement {
            hosts: (first..first + hosts).map(|h| HostId(h as u32)).collect(),
            spares: (first + hosts..first + hosts + SPARES)
                .map(|h| HostId(h as u32))
                .collect(),
        };
        let row = first / hpb + rng.below((hosts / hpb).max(1) as u64) as usize;
        let at = 3 + rng.below(3) as u32;
        let faults = match origin {
            Origin::Pump => vec![SubstrateFault::CoolingPumpFault {
                at_iter: at,
                row,
                flow_frac: 0.38 + 0.04 * rng.below(2) as f64,
            }],
            Origin::Grid => vec![SubstrateFault::GridSag {
                at_iter: at,
                row,
                supply_frac: 0.55 + 0.1 * rng.below(2) as f64,
                duration_iters: 8 + rng.below(4) as u32,
                battery_wh_per_rack: 6.0,
            }],
            Origin::Optics => vec![SubstrateFault::OpticsBurst {
                at_iter: at,
                links: 2 + rng.below(2) as usize,
            }],
            Origin::None => Vec::new(),
        };
        let host = |rng: &mut Rng| rng.below(hosts as u64) as usize;
        let net_faults = vec![
            InjectedFault::FlappingLink {
                at_iter: 7 + rng.below(3) as u32,
                period: 4,
                duty_cycle: 0.5,
                flap_count: 2 + rng.below(2) as u32,
            },
            InjectedFault::SlowHost {
                at_iter: 13 + rng.below(3) as u32,
                host_index: host(rng),
                factor: 0.3,
                intermittent: rng.below(2) == 1,
            },
            InjectedFault::DegradingOptic {
                at_iter: 17 + rng.below(3) as u32,
                host_index: host(rng),
                decay_per_iter: 0.7,
                floor: 0.1,
            },
            InjectedFault::TransientLink {
                at_iter: 21 + rng.below(3) as u32,
                heal_after: SimDuration::from_millis(20),
            },
        ];
        let spec = TrainingJobSpec {
            hosts,
            spares: SPARES,
            iters: ITERS,
            bytes: if hosts > 8 { 1 << 20 } else { 256 << 10 },
            comp_s: 0.2,
            seed: rng.next(),
        };
        (spec, CascadeScript { faults, net_faults }, placement)
    }
}

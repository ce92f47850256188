//! `fabric_collectives`: a seeded stream of collectives on the 2,048-GPU
//! `sim_medium` fabric, all through `CollectiveRunner` over one shared,
//! warmed `Router`. The rate solver and the sim event loop do almost all
//! the work; no recovery, Seer or fleet code runs.

use super::{ensure, warm_router, OpOut, Workload};
use crate::clock::Clock;
use crate::stats::{fnv, Rng, FNV_BASIS};
use astral_collectives::{
    merge_parallel, pairwise_all_to_all, ring_all_gather, ring_all_reduce, ring_reduce_scatter,
    CollectiveResult, CollectiveRunner, RunnerConfig, Schedule,
};
use astral_net::FlowState;
use astral_topo::{build_astral, AstralParams, GpuId, HostId, Router, Topology};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    AllToAll,
    HierAllReduce,
    RingAllReduce,
    ReduceScatter,
    AllGather,
}

/// One op shape of a round.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: Kind,
    gpus: usize,
    /// `FragmentedAcrossPods` (hosts dealt alternately from both pods)
    /// instead of `BlockLocal` (consecutive hosts of one pod).
    fragmented: bool,
    /// Run on `NetConfig::sharded_solver`.
    sharded: bool,
}

const fn slot(kind: Kind, gpus: usize, fragmented: bool, sharded: bool) -> Slot {
    Slot {
        kind,
        gpus,
        fragmented,
        sharded,
    }
}

/// The round on `sim_medium`: flow-dense all-to-alls beside step-bound
/// all-reduces and reduce-scatter/all-gather, 128 to 512 GPUs, both
/// placements, cross-pod ops on the sharded solver. The mid-cost shape
/// (a 256-GPU fragmented all-reduce on the sharded solver) runs three
/// times, so the median op is the median of three times as many samples
/// of one shape; an odd slot count keeps it inside that shape's cluster.
const ROUND: [Slot; 15] = [
    slot(Kind::AllToAll, 512, false, false),
    slot(Kind::AllToAll, 256, true, false),
    slot(Kind::AllToAll, 256, true, true),
    slot(Kind::AllToAll, 128, true, false),
    slot(Kind::HierAllReduce, 512, true, false),
    slot(Kind::HierAllReduce, 256, false, false),
    slot(Kind::HierAllReduce, 128, false, false),
    slot(Kind::RingAllReduce, 128, true, false),
    slot(Kind::HierAllReduce, 256, true, true),
    slot(Kind::HierAllReduce, 256, true, true),
    slot(Kind::HierAllReduce, 256, true, true),
    slot(Kind::ReduceScatter, 256, true, false),
    slot(Kind::AllGather, 256, false, false),
    slot(Kind::ReduceScatter, 512, true, true),
    slot(Kind::AllGather, 512, true, false),
];

/// The probe round on `sim_small`: one op per span kind.
const PROBE_ROUND: [Slot; 4] = [
    slot(Kind::AllToAll, 64, true, false),
    slot(Kind::HierAllReduce, 64, false, false),
    slot(Kind::ReduceScatter, 64, true, false),
    slot(Kind::AllGather, 64, true, true),
];

pub struct Collectives {
    topo: Topology,
    router: Arc<Router>,
    round: &'static [Slot],
    /// Hosts of each pod, in id order.
    pods: Vec<Vec<HostId>>,
    hosts_per_block: usize,
    /// Bytes one flow may fall short by when it completes: one tick of the
    /// simulator's 1 ns clock at the fastest link's rate.
    tick_bytes: f64,
}

impl Workload for Collectives {
    const OP: &'static str = "bench.collective";
    const SETUP_REPS: usize = 3;
    const GOLDEN_OPS: u64 = 15;
    const TAIL_PCT: f64 = 90.0;
    const PROBE_OPS: u64 = 4;

    fn setup(probe: bool, clock: &mut Clock) -> Self {
        let params = if probe {
            AstralParams::sim_small()
        } else {
            AstralParams::sim_medium()
        };
        let topo = clock.time_aside("topo.build", || build_astral(&params));
        let router = clock.time_aside("topo.route_warm", || warm_router(&topo));
        let mut pods: Vec<Vec<HostId>> = Vec::new();
        for h in topo.hosts() {
            let p = h.pod as usize;
            if pods.len() <= p {
                pods.resize(p + 1, Vec::new());
            }
            pods[p].push(h.id);
        }
        let max_bps = topo
            .links()
            .iter()
            .map(|l| l.bandwidth_bps)
            .fold(0.0, f64::max);
        let w = Collectives {
            round: if probe { &PROBE_ROUND } else { &ROUND },
            pods,
            hosts_per_block: params.hosts_per_block as usize,
            tick_bytes: max_bps * 1e-9 / 8.0,
            topo,
            router,
        };
        // Warm-up: one small collective faults in the simulator's buffers.
        let group = w.hosts_gpus(&w.pods[0][..2]);
        clock.time_aside("net.warm_up", || {
            let mut r =
                CollectiveRunner::with_router(&w.topo, RunnerConfig::default(), w.router.clone());
            r.all_to_all(&group, 1 << 20)
        });
        w
    }

    fn round_len(&self) -> u64 {
        self.round.len() as u64
    }

    fn op(&mut self, seed: u64, idx: u64, clock: &mut Clock) -> Result<OpOut, String> {
        // The round's slots in a seeded order; shape parameters per op.
        let n = self.round_len();
        let mut order: Vec<usize> = (0..n as usize).collect();
        Rng::new(seed, (1 << 32) | (idx / n)).shuffle(&mut order);
        let slot = self.round[order[(idx % n) as usize]];
        let mut rng = Rng::new(seed, idx);
        let hosts = self.place(&slot, &mut rng);
        let group = self.hosts_gpus(&hosts);
        let bytes = (8 + 8 * rng.below(3)) << 20;
        let local = self.topo.hb_domain().gpus_per_domain as usize;

        let schedule = clock.time_aside("collectives.expand", || {
            schedule_of(slot.kind, group.len(), bytes, local)
        });
        let transfers: usize = schedule.steps.iter().map(Vec::len).sum();
        clock.tally("collectives.transfers", transfers as f64);

        let mut cfg = RunnerConfig::default();
        cfg.net.sharded_solver = slot.sharded;
        cfg.net.shard_threads = 1;
        let span = match (slot.sharded, slot.kind) {
            (true, _) => "net.sharded",
            (false, Kind::AllToAll) => "net.all_to_all",
            (false, Kind::HierAllReduce | Kind::RingAllReduce) => "net.all_reduce",
            (false, Kind::ReduceScatter | Kind::AllGather) => "net.rs_ag",
        };
        let (topo, router) = (&self.topo, &self.router);
        let (runner, res) = clock.time(span, || {
            let mut r = CollectiveRunner::with_router(topo, cfg, router.clone());
            let res = match slot.kind {
                Kind::AllToAll => r.all_to_all(&group, bytes),
                Kind::HierAllReduce => r.hierarchical_all_reduce(&group, bytes, local),
                Kind::RingAllReduce => r.all_reduce_flat(&group, bytes),
                Kind::ReduceScatter => r.reduce_scatter(&group, bytes),
                Kind::AllGather => r.all_gather(&group, bytes),
            };
            (r, res)
        });
        self.check(&group, &schedule, &runner, &res)?;

        clock.tally("collectives.network_bytes", res.network_bytes as f64);
        clock.tally(
            "net.solves",
            (res.solver.full_solves + res.solver.incremental_solves) as f64,
        );
        clock.tally("net.links_scanned", res.solver.links_scanned as f64);
        let mut fp = fnv(FNV_BASIS, res.duration.as_secs_f64().to_bits());
        fp = fnv(fp, res.network_bytes);
        fp = fnv(fp, res.nvlink_bytes);
        for d in &res.step_durations {
            fp = fnv(fp, d.as_secs_f64().to_bits());
        }
        Ok(OpOut {
            sim_gpu_s: res.duration.as_secs_f64() * group.len() as f64,
            fingerprint: fp,
        })
    }
}

impl Collectives {
    /// Every GPU of `hosts`, host-major (ranks of one host are adjacent,
    /// so consecutive ranks share an HB domain).
    fn hosts_gpus(&self, hosts: &[HostId]) -> Vec<GpuId> {
        hosts
            .iter()
            .flat_map(|&h| self.topo.host_gpus(h).collect::<Vec<_>>())
            .collect()
    }

    /// Seeded placement: block-aligned consecutive hosts of one pod, or a
    /// block-aligned run in each pod dealt alternately (every ring hop
    /// crosses pods, as `PlacementPolicy::FragmentedAcrossPods` does).
    /// Block alignment keeps an op shape's cost independent of the seed.
    fn place(&self, slot: &Slot, rng: &mut Rng) -> Vec<HostId> {
        let need = slot.gpus / self.topo.rails() as usize;
        if slot.fragmented {
            let per = need / self.pods.len();
            let runs: Vec<Vec<HostId>> = self
                .pods
                .iter()
                .map(|pod| {
                    let blocks = pod.len() / self.hosts_per_block;
                    let span = per.div_ceil(self.hosts_per_block);
                    let b = rng.below((blocks - span + 1) as u64) as usize;
                    pod[b * self.hosts_per_block..][..per].to_vec()
                })
                .collect();
            (0..per)
                .flat_map(|i| runs.iter().map(move |r| r[i]))
                .collect()
        } else {
            let pod = &self.pods[rng.below(self.pods.len() as u64) as usize];
            let blocks = pod.len() / self.hosts_per_block;
            let span = need.div_ceil(self.hosts_per_block);
            let b = rng.below((blocks - span + 1) as u64) as usize;
            pod[b * self.hosts_per_block..][..need].to_vec()
        }
    }

    /// Output checks: the runner moved exactly the schedule's bytes over
    /// the network and NVLink, every flow completed, and each flow
    /// delivered its bytes to within one tick of the simulator clock.
    fn check(
        &self,
        group: &[GpuId],
        schedule: &Schedule,
        runner: &CollectiveRunner<'_>,
        res: &CollectiveResult,
    ) -> Result<(), String> {
        let (mut net, mut nvlink) = (0u64, 0u64);
        for step in &schedule.steps {
            for t in step {
                if t.bytes == 0 || t.src == t.dst {
                    continue;
                }
                let (s, d) = (group[t.src], group[t.dst]);
                if self.topo.same_hb_domain(s, d) {
                    nvlink += t.bytes;
                } else {
                    net += t.bytes;
                    if self.topo.gpu_rail(s) != self.topo.gpu_rail(d) {
                        // PXN relay hop over NVLink at the source.
                        nvlink += t.bytes;
                    }
                }
            }
        }
        ensure(res.failed_flows == 0, || {
            format!("{} flows failed on a healthy fabric", res.failed_flows)
        })?;
        ensure(
            res.network_bytes == net && res.nvlink_bytes == nvlink,
            || {
                format!(
                    "runner moved {}/{} network/NVLink bytes, schedule has {net}/{nvlink}",
                    res.network_bytes, res.nvlink_bytes
                )
            },
        )?;
        let mut requested = 0u64;
        for f in runner.sim().all_stats() {
            ensure(f.state == FlowState::Done, || {
                format!("flow {:?} ended {:?}", f.id, f.state)
            })?;
            let short = f.bytes as f64 - f.delivered;
            ensure(short > -1e-6 && short <= self.tick_bytes, || {
                format!(
                    "flow {:?} delivered {} of {} bytes",
                    f.id, f.delivered, f.bytes
                )
            })?;
            requested += f.bytes;
        }
        ensure(requested == net, || {
            format!("flows requested {requested} bytes, schedule sends {net} over the network")
        })
    }
}

/// The rank-level schedule the runner expands for `kind`, built from the
/// public `plan` generators (the hierarchical all-reduce composes them the
/// way the runner does: NVLink reduce-scatter, per-local-index ring
/// all-reduce across domains, NVLink all-gather).
fn schedule_of(kind: Kind, n: usize, bytes: u64, local: usize) -> Schedule {
    match kind {
        Kind::AllToAll => pairwise_all_to_all(n, bytes),
        Kind::RingAllReduce => ring_all_reduce(n, bytes),
        Kind::ReduceScatter => ring_reduce_scatter(n, bytes),
        Kind::AllGather => ring_all_gather(n, bytes),
        Kind::HierAllReduce => {
            let domains = n / local;
            let in_domain = |d: usize| (0..local).map(|i| d * local + i).collect::<Vec<_>>();
            let mut s = merge_parallel(
                (0..domains)
                    .map(|d| (ring_reduce_scatter(local, bytes), in_domain(d)))
                    .collect(),
            );
            let across = merge_parallel(
                (0..local)
                    .map(|i| {
                        let ranks = (0..domains).map(|d| d * local + i).collect();
                        (ring_all_reduce(domains, bytes / local as u64), ranks)
                    })
                    .collect(),
            );
            let gather = merge_parallel(
                (0..domains)
                    .map(|d| (ring_all_gather(local, bytes), in_domain(d)))
                    .collect(),
            );
            s.steps.extend(across.steps);
            s.steps.extend(gather.steps);
            s
        }
    }
}

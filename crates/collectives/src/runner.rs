//! Execute collective schedules on the flow-level network simulator.
//!
//! [`CollectiveRunner`] maps rank-level [`Schedule`]s onto a topology:
//! transfers inside one NVLink (HB) domain ride the intra-host interconnect
//! analytically; everything else becomes RDMA flows in [`NetworkSim`].
//! Two NCCL behaviours that Astral's fabric is designed around are modeled
//! explicitly:
//!
//! * **PXN rail alignment** — a transfer to a different rail is forwarded
//!   over NVLink to the local GPU on the *destination's* rail and injected
//!   from that NIC, keeping the network hop same-rail (the paper's
//!   "NVLink-optimized network communication" [2,46] that makes same-rail
//!   traffic dominate even all-to-all).
//! * **Hierarchical (two-level) AllReduce** — local ReduceScatter over
//!   NVLink, per-rail inter-host AllReduce, local AllGather.

use crate::plan::{
    pairwise_all_to_all, ring_all_gather, ring_all_reduce, ring_broadcast, ring_reduce_scatter,
    send_recv, Schedule, Transfer,
};
use astral_net::{FlowSpec, FlowState, NetConfig, NetworkSim, QpContext, QpId, SolverCounters};
use astral_sim::{MulHashMap, SimDuration};
use astral_topo::{GpuId, NodeId, Topology};
use std::collections::HashMap;

/// Per-step launch overhead (kernel + proxy scheduling), added to every
/// schedule step's network/NVLink time.
pub const STEP_OVERHEAD: SimDuration = SimDuration::from_micros(8);

/// Runner configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerConfig {
    /// Network simulator configuration.
    pub net: NetConfig,
    /// Job id recorded in QP contexts (for the monitor's correlation).
    pub job: u32,
}

/// Outcome of one collective execution.
#[derive(Debug, Clone)]
pub struct CollectiveResult {
    /// Wall-clock duration of the whole collective.
    pub duration: SimDuration,
    /// Duration of each step.
    pub step_durations: Vec<SimDuration>,
    /// Bytes that crossed the network fabric.
    pub network_bytes: u64,
    /// Bytes that stayed on NVLink.
    pub nvlink_bytes: u64,
    /// Number of flows that failed (path death).
    pub failed_flows: usize,
    /// Rate-solver work attributable to this collective (counter delta
    /// across the run; see [`SolverCounters`]).
    pub solver: SolverCounters,
}

impl CollectiveResult {
    /// Algorithm bandwidth: per-rank buffer size over duration.
    pub fn algbw_bps(&self, bytes_per_rank: u64) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            bytes_per_rank as f64 * 8.0 / secs
        }
    }
}

/// Drives collective schedules over a borrowed topology.
pub struct CollectiveRunner<'a> {
    sim: NetworkSim<'a>,
    cfg: RunnerConfig,
    qp_cache: MulHashMap<(NodeId, NodeId), QpId>,
    group_ctr: u32,
    nvlink: NvlinkTally,
}

/// One step's NVLink bytes per GPU port, dense over the fabric's GPUs,
/// with the GPUs written since the last clear so clearing and the
/// busiest-port max cost the step's size rather than the fabric's.
#[derive(Debug)]
struct NvlinkTally {
    /// GPU → (bytes sent, bytes received) this step.
    bytes: Vec<(u64, u64)>,
    touched: Vec<u32>,
}

impl NvlinkTally {
    fn add(&mut self, gpu: GpuId, out: u64, inc: u64) {
        let slot = &mut self.bytes[gpu.0 as usize];
        if *slot == (0, 0) {
            self.touched.push(gpu.0);
        }
        slot.0 += out;
        slot.1 += inc;
    }

    /// The busiest port's bytes over the touched GPUs, then reset them.
    fn take_worst(&mut self) -> u64 {
        let mut worst = 0;
        for &g in &self.touched {
            let (out, inc) = std::mem::take(&mut self.bytes[g as usize]);
            worst = worst.max(out).max(inc);
        }
        self.touched.clear();
        worst
    }
}

impl<'a> CollectiveRunner<'a> {
    /// New runner over `topo`.
    pub fn new(topo: &'a Topology, cfg: RunnerConfig) -> Self {
        CollectiveRunner::with_router(topo, cfg, std::sync::Arc::new(astral_topo::Router::new()))
    }

    /// New runner over `topo` sharing an already-warmed ECMP router — the
    /// shared-topology fast path for batteries of independent runs on one
    /// fabric (see [`NetworkSim::with_router`]).
    pub fn with_router(
        topo: &'a Topology,
        cfg: RunnerConfig,
        router: std::sync::Arc<astral_topo::Router>,
    ) -> Self {
        CollectiveRunner {
            sim: NetworkSim::with_router(topo, cfg.net, router),
            cfg,
            qp_cache: MulHashMap::default(),
            group_ctr: 0,
            nvlink: NvlinkTally {
                bytes: vec![(0, 0); topo.gpu_count() as usize],
                touched: Vec::new(),
            },
        }
    }

    /// The underlying network simulator (telemetry access).
    pub fn sim(&self) -> &NetworkSim<'a> {
        &self.sim
    }

    /// Mutable access (failure injection between collectives).
    pub fn sim_mut(&mut self) -> &mut NetworkSim<'a> {
        &mut self.sim
    }

    /// Ring AllReduce over `group`, hierarchical when HB domains allow.
    pub fn all_reduce(&mut self, group: &[GpuId], bytes: u64) -> CollectiveResult {
        let local = self.uniform_hb_domain_size(group);
        if let Some(local) = local {
            if local > 1 && group.len() > local {
                return self.hierarchical_all_reduce(group, bytes, local);
            }
        }
        let s = ring_all_reduce(group.len(), bytes);
        self.run_schedule(group, &s)
    }

    /// Flat (never hierarchical) ring AllReduce — the ablation baseline.
    pub fn all_reduce_flat(&mut self, group: &[GpuId], bytes: u64) -> CollectiveResult {
        let s = ring_all_reduce(group.len(), bytes);
        self.run_schedule(group, &s)
    }

    /// Ring ReduceScatter.
    pub fn reduce_scatter(&mut self, group: &[GpuId], bytes: u64) -> CollectiveResult {
        let s = ring_reduce_scatter(group.len(), bytes);
        self.run_schedule(group, &s)
    }

    /// Ring AllGather.
    pub fn all_gather(&mut self, group: &[GpuId], bytes: u64) -> CollectiveResult {
        let s = ring_all_gather(group.len(), bytes);
        self.run_schedule(group, &s)
    }

    /// Pairwise AllToAll (EP dispatch/combine traffic).
    pub fn all_to_all(&mut self, group: &[GpuId], bytes: u64) -> CollectiveResult {
        let s = pairwise_all_to_all(group.len(), bytes);
        self.run_schedule(group, &s)
    }

    /// Pipelined broadcast from `group[0]`.
    pub fn broadcast(&mut self, group: &[GpuId], bytes: u64) -> CollectiveResult {
        let s = ring_broadcast(group.len(), bytes, 8);
        self.run_schedule(group, &s)
    }

    /// Point-to-point send (PP stage boundary).
    pub fn send(&mut self, src: GpuId, dst: GpuId, bytes: u64) -> CollectiveResult {
        let s = send_recv(bytes);
        self.run_schedule(&[src, dst], &s)
    }

    /// Two-level AllReduce: NVLink ReduceScatter, per-local-index inter-host
    /// AllReduce (same-rail when ranks are rail-aligned), NVLink AllGather.
    pub fn hierarchical_all_reduce(
        &mut self,
        group: &[GpuId],
        bytes: u64,
        local: usize,
    ) -> CollectiveResult {
        let n = group.len();
        assert!(n.is_multiple_of(local) && local > 1);
        let domains = n / local;

        // Phase 1: ReduceScatter inside each HB domain, all domains at once.
        let mut phase1 = merge_parallel(
            (0..domains)
                .map(|d| {
                    let map: Vec<usize> = (0..local).map(|i| d * local + i).collect();
                    (ring_reduce_scatter(local, bytes), map)
                })
                .collect(),
        );
        // Phase 2: inter-domain AllReduce per local index, concurrent.
        let phase2 = merge_parallel(
            (0..local)
                .map(|i| {
                    let map: Vec<usize> = (0..domains).map(|d| d * local + i).collect();
                    (ring_all_reduce(domains, bytes / local as u64), map)
                })
                .collect(),
        );
        // Phase 3: AllGather inside each domain.
        let phase3 = merge_parallel(
            (0..domains)
                .map(|d| {
                    let map: Vec<usize> = (0..local).map(|i| d * local + i).collect();
                    (ring_all_gather(local, bytes), map)
                })
                .collect(),
        );
        phase1.steps.extend(phase2.steps);
        phase1.steps.extend(phase3.steps);
        self.run_schedule(group, &phase1)
    }

    /// Execute a rank-level schedule on `group`. Thin driver over
    /// [`CollectiveRunner::run_stream`]: each step is copied into the
    /// reused step buffer.
    pub fn run_schedule(&mut self, group: &[GpuId], schedule: &Schedule) -> CollectiveResult {
        self.run_stream(group, |k, buf| {
            let Some(step) = schedule.steps.get(k) else {
                return false;
            };
            buf.clear();
            buf.extend_from_slice(step);
            true
        })
    }

    /// Execute a collective whose steps are *generated on demand*:
    /// `next_step(k, buf)` fills the reused buffer with step `k`'s
    /// transfers and returns `false` when the schedule is exhausted. This
    /// is the frontier-scale entry point — a 512K-rank AllReduce streams
    /// one step of transfers at a time into the simulator's solver domains
    /// instead of materializing the cluster-wide `Vec<Vec<Transfer>>`
    /// (see [`crate::plan::ring_all_reduce_step_into`]).
    pub fn run_stream(
        &mut self,
        group: &[GpuId],
        mut next_step: impl FnMut(usize, &mut Vec<Transfer>) -> bool,
    ) -> CollectiveResult {
        let topo = self.sim.topology();
        let hb = topo.hb_domain();
        let group_id = self.group_ctr;
        self.group_ctr += 1;

        let start = self.sim.now();
        let solver_before = self.sim.solver_counters();
        let mut virtual_now = start;
        let mut step_durations = Vec::new();
        let mut network_bytes = 0u64;
        let mut nvlink_bytes = 0u64;
        let mut failed = 0usize;

        // Reused across steps: one step's transfers and its flow ids.
        let mut step_buf: Vec<Transfer> = Vec::new();
        let mut flow_ids: Vec<astral_net::FlowId> = Vec::new();

        let mut k = 0usize;
        while next_step(k, &mut step_buf) {
            k += 1;
            let step_start = virtual_now;
            flow_ids.clear();

            for &Transfer { src, dst, bytes } in &step_buf {
                if bytes == 0 || src == dst {
                    continue;
                }
                let (sg, dg) = (group[src], group[dst]);
                let topo = self.sim.topology();
                if topo.same_hb_domain(sg, dg) {
                    self.nvlink.add(sg, bytes, 0);
                    self.nvlink.add(dg, 0, bytes);
                    nvlink_bytes += bytes;
                    continue;
                }
                // Network transfer: pick injection NIC.
                let (src_nic, dst_nic, relay_nvlink) = self.plan_nics(sg, dg);
                if relay_nvlink {
                    // PXN forwarding consumes NVLink at the source.
                    self.nvlink.add(sg, bytes, 0);
                    nvlink_bytes += bytes;
                }
                let qp = self.qp_for(src_nic, dst_nic, group_id, sg, dg);
                let id = self
                    .sim
                    .inject_at(
                        step_start,
                        FlowSpec {
                            qp,
                            bytes,
                            weight: 1.0,
                        },
                    )
                    .unwrap_or_else(|| {
                        panic!(
                            "no route {sg}→{dg} even with PXN on {}",
                            self.sim.topology().arch()
                        )
                    });
                network_bytes += bytes;
                flow_ids.push(id);
            }

            self.sim.run_until_idle();
            let net_end = if flow_ids.is_empty() {
                step_start
            } else {
                flow_ids
                    .iter()
                    .map(|&id| {
                        let (state, finish) = self.sim.flow_outcome(id);
                        if state == FlowState::Failed {
                            failed += 1;
                        }
                        finish.unwrap_or(self.sim.now())
                    })
                    .max()
                    .unwrap()
            };

            // NVLink time: the busiest GPU's port serializes its bytes.
            let nv_worst = self.nvlink.take_worst();
            let nv_time = if nv_worst > 0 {
                SimDuration::from_secs_f64(nv_worst as f64 * 8.0 / hb.bandwidth_bps) + hb.latency
            } else {
                SimDuration::ZERO
            };

            let net_time = net_end.saturating_since(step_start);
            let step_dur = net_time.max(nv_time) + STEP_OVERHEAD;
            step_durations.push(step_dur);
            virtual_now = step_start + step_dur;
        }

        CollectiveResult {
            duration: virtual_now.saturating_since(start),
            step_durations,
            network_bytes,
            nvlink_bytes,
            failed_flows: failed,
            solver: self.sim.solver_counters().since(&solver_before),
        }
    }

    /// Decide injection NICs for a cross-domain transfer; returns
    /// `(src_nic, dst_nic, used_pxn_relay)`. PXN is always on: a
    /// cross-rail transfer is relayed over NVLink to the source host's NIC
    /// on the destination's rail.
    fn plan_nics(&self, sg: GpuId, dg: GpuId) -> (NodeId, NodeId, bool) {
        let topo = self.sim.topology();
        let dst_nic = topo.gpu_nic(dg);
        let dr = topo.gpu_rail(dg);
        if topo.gpu_rail(sg) == dr {
            return (topo.gpu_nic(sg), dst_nic, false);
        }
        let host = topo.gpu_host(sg);
        (topo.host(host).nics[dr as usize], dst_nic, true)
    }

    fn qp_for(
        &mut self,
        src_nic: NodeId,
        dst_nic: NodeId,
        group: u32,
        sg: GpuId,
        dg: GpuId,
    ) -> QpId {
        if let Some(&qp) = self.qp_cache.get(&(src_nic, dst_nic)) {
            return qp;
        }
        let qp = self.sim.register_qp_auto(
            src_nic,
            dst_nic,
            QpContext::for_job(self.cfg.job, group, sg, dg),
        );
        self.qp_cache.insert((src_nic, dst_nic), qp);
        qp
    }

    /// HB-domain size if every domain touched by `group` contributes the
    /// same number of ranks (required for the two-level algorithm).
    fn uniform_hb_domain_size(&self, group: &[GpuId]) -> Option<usize> {
        let topo = self.sim.topology();
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for &g in group {
            *counts.entry(topo.gpu_hb_domain(g)).or_insert(0) += 1;
        }
        let mut sizes: Vec<usize> = counts.values().copied().collect();
        sizes.dedup();
        (sizes.len() == 1).then(|| sizes[0])
    }
}

/// Merge sub-schedules that run concurrently, remapping each one's ranks
/// through its rank map. Steps are zipped: step *k* of the merge is the
/// union of every sub-schedule's step *k*.
pub fn merge_parallel(parts: Vec<(Schedule, Vec<usize>)>) -> Schedule {
    let max_steps = parts.iter().map(|(s, _)| s.steps.len()).max().unwrap_or(0);
    let mut steps = vec![Vec::new(); max_steps];
    for (schedule, map) in parts {
        for (k, step) in schedule.steps.into_iter().enumerate() {
            for t in step {
                steps[k].push(Transfer {
                    src: map[t.src],
                    dst: map[t.dst],
                    bytes: t.bytes,
                });
            }
        }
    }
    Schedule { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_sim::SimTime;
    use astral_topo::{build_astral, build_rail_only, AstralParams};

    fn topo() -> Topology {
        build_astral(&AstralParams::sim_small())
    }

    fn rail0_group(topo: &Topology, hosts: usize) -> Vec<GpuId> {
        (0..hosts)
            .map(|h| GpuId((h * topo.rails() as usize) as u32))
            .collect()
    }

    #[test]
    fn same_rail_allreduce_uses_no_nvlink() {
        let t = topo();
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        let group = rail0_group(&t, 8);
        let res = r.all_reduce_flat(&group, 64 << 20);
        assert_eq!(res.nvlink_bytes, 0);
        assert!(res.network_bytes > 0);
        assert!(res.duration > SimDuration::ZERO);
        assert_eq!(res.failed_flows, 0);
        assert!(res.solver.events > 0, "network flows must hit the solver");
        assert!(res.solver.flows_resolved > 0);
    }

    #[test]
    fn nvlink_only_collective_does_no_solver_work() {
        let t = topo();
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        let group: Vec<GpuId> = (0..4).map(GpuId).collect();
        let res = r.all_reduce(&group, 1 << 20);
        assert_eq!(res.network_bytes, 0);
        assert_eq!(res.solver.events, 0);
        assert_eq!(res.solver.flows_resolved, 0);
    }

    #[test]
    fn allreduce_time_tracks_alpha_beta_model() {
        let t = topo();
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        let group = rail0_group(&t, 8);
        let bytes = 512u64 << 20;
        let res = r.all_reduce_flat(&group, bytes);
        let model = crate::cost::all_reduce(8, bytes, 200e9, 0.0);
        // The α–β model has no launch cost: take each step's fixed
        // overhead back out of the measured time.
        let launch = res.step_durations.len() as f64 * STEP_OVERHEAD.as_secs_f64();
        let measured = res.duration.as_secs_f64() - launch;
        // The ring over dedicated 200G NIC ports should match the α–β
        // model closely (chunked steps, no contention).
        assert!(
            (measured - model).abs() / model < 0.05,
            "measured {measured} vs model {model}"
        );
    }

    #[test]
    fn intra_host_allreduce_is_pure_nvlink() {
        let t = topo();
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        // GPUs 0..4 share an HB domain in sim_small.
        let group: Vec<GpuId> = (0..4).map(GpuId).collect();
        let res = r.all_reduce(&group, 1 << 20);
        assert_eq!(res.network_bytes, 0);
        assert!(res.nvlink_bytes > 0);
    }

    #[test]
    fn hierarchical_beats_flat_on_multi_host_groups() {
        let t = topo();
        let bytes = 256u64 << 20;
        // 8 hosts × full HB domains.
        let group: Vec<GpuId> = (0..32).map(GpuId).collect();
        let mut flat_runner = CollectiveRunner::new(&t, RunnerConfig::default());
        let flat = flat_runner.all_reduce_flat(&group, bytes);
        let mut hier_runner = CollectiveRunner::new(&t, RunnerConfig::default());
        let hier = hier_runner.all_reduce(&group, bytes);
        assert!(
            hier.duration < flat.duration,
            "hier {} vs flat {}",
            hier.duration,
            flat.duration
        );
        assert!(hier.nvlink_bytes > 0);
    }

    #[test]
    fn pxn_keeps_cross_rail_traffic_same_rail() {
        let t = topo();
        // Group spanning two rails across two hosts.
        let group = vec![GpuId(0), GpuId(1), GpuId(4), GpuId(5)];
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        let res = r.all_to_all(&group, 8 << 20);
        assert!(res.network_bytes > 0);
        // With PXN every network flow is rail-aligned: src/dst NIC rails
        // match for every registered QP.
        for rec in r.sim().qp_records() {
            let (s, d) = (rec.src_nic, rec.dst_nic);
            let topo = r.sim().topology();
            let rail_of = |nic| match topo.node(nic).kind {
                astral_topo::NodeKind::Nic { rail, .. } => rail,
                _ => unreachable!(),
            };
            assert_eq!(rail_of(s), rail_of(d), "PXN produced a cross-rail flow");
        }
    }

    #[test]
    fn rail_only_fabric_forces_pxn_fallback() {
        let mut p = AstralParams::sim_small();
        p.pods = 1;
        let t = build_rail_only(&p);
        let group = vec![GpuId(0), GpuId(1), GpuId(4), GpuId(5)];
        // The fabric cannot route cross-rail, so cross-rail transfers
        // must ride NVLink relays.
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        let res = r.all_to_all(&group, 8 << 20);
        assert_eq!(res.failed_flows, 0);
        assert!(res.nvlink_bytes > 0, "relay traffic must ride NVLink");
    }

    #[test]
    fn alltoall_volume_accounting() {
        let t = topo();
        let group = rail0_group(&t, 4);
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        let bytes = 4 << 20;
        let res = r.all_to_all(&group, bytes);
        // Pairwise a2a on one rail: all network, (n-1)/n·bytes per rank.
        assert_eq!(res.nvlink_bytes, 0);
        assert_eq!(res.network_bytes, 3 * (bytes / 4) * 4);
    }

    #[test]
    fn send_recv_crosses_network_once() {
        let t = topo();
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        let res = r.send(GpuId(0), GpuId(32), 1 << 20);
        assert_eq!(res.network_bytes, 1 << 20);
        assert_eq!(res.step_durations.len(), 1);
    }

    #[test]
    fn streamed_ring_allreduce_matches_materialized_schedule() {
        use crate::plan::ring_all_reduce_step_into;
        let t = topo();
        let group = rail0_group(&t, 8);
        let bytes = 64u64 << 20;

        let mut mat_runner = CollectiveRunner::new(&t, RunnerConfig::default());
        let mat = mat_runner.all_reduce_flat(&group, bytes);

        let n = group.len();
        let mut stream_runner = CollectiveRunner::new(&t, RunnerConfig::default());
        let streamed =
            stream_runner.run_stream(&group, |k, buf| ring_all_reduce_step_into(n, bytes, k, buf));

        assert_eq!(streamed.duration, mat.duration);
        assert_eq!(streamed.step_durations, mat.step_durations);
        assert_eq!(streamed.network_bytes, mat.network_bytes);
        assert_eq!(streamed.nvlink_bytes, mat.nvlink_bytes);
        assert_eq!(streamed.failed_flows, mat.failed_flows);
    }

    /// `failed_flows` and `step_durations` come from the per-flow outcome
    /// accessor; recompute both from full `stats()` and the abort events
    /// for a ring that loses rank 0's uplinks during its first step.
    #[test]
    fn outcome_accounting_matches_flow_stats_under_failure() {
        let t = topo();
        let group = rail0_group(&t, 4);
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        for &up in t.out_links(t.gpu_nic(group[0])) {
            r.sim_mut()
                .fail_link_at(SimTime::ZERO + SimDuration::from_micros(1), up);
        }
        let res = r.all_reduce_flat(&group, 64 << 20);
        let aborted_at: HashMap<u32, SimTime> = r
            .sim_mut()
            .drain_flow_events()
            .into_iter()
            .filter_map(|e| match e {
                astral_net::FlowEvent::Aborted { flow, at, .. } => Some((flow.0, at)),
                astral_net::FlowEvent::Requeued { .. } => None,
            })
            .collect();
        let sim = r.sim();
        let stats = sim.all_stats();
        assert!(res.failed_flows > 0, "rank 0's sends must fail");
        assert_eq!(
            res.failed_flows,
            stats
                .iter()
                .filter(|s| s.state == FlowState::Failed)
                .count()
        );
        for s in &stats {
            assert_eq!(sim.flow_outcome(s.id), (s.state, s.finish));
        }

        // Flows of one step share its start time; a step ends when its
        // last flow completes or aborts.
        let mut end_of_step: std::collections::BTreeMap<SimTime, SimTime> =
            std::collections::BTreeMap::new();
        for s in &stats {
            let end = match s.state {
                FlowState::Done => s.finish.unwrap(),
                FlowState::Failed => aborted_at[&s.id.0],
                other => panic!("flow {:?} left {other:?}", s.id),
            };
            let e = end_of_step.entry(s.start).or_insert(end);
            *e = (*e).max(end);
        }
        let want: Vec<SimDuration> = end_of_step
            .iter()
            .map(|(&start, &end)| end.saturating_since(start) + STEP_OVERHEAD)
            .collect();
        assert_eq!(res.step_durations, want);
    }

    /// A step's NVLink time is set by its busiest GPU port, counting sent
    /// and received bytes separately, and tallies reset between steps.
    #[test]
    fn nvlink_time_is_the_busiest_port_of_each_step() {
        let t = topo();
        let group: Vec<GpuId> = (0..4).map(GpuId).collect();
        let b = 1u64 << 20;
        let tr = |src, dst| Transfer { src, dst, bytes: b };
        let schedule = Schedule {
            // Incast into rank 0, then one send out of it.
            steps: vec![vec![tr(1, 0), tr(2, 0), tr(3, 0)], vec![tr(0, 1)]],
        };
        let mut r = CollectiveRunner::new(&t, RunnerConfig::default());
        let res = r.run_schedule(&group, &schedule);
        let hb = t.hb_domain();
        let nv = |bytes: u64| {
            SimDuration::from_secs_f64(bytes as f64 * 8.0 / hb.bandwidth_bps)
                + hb.latency
                + STEP_OVERHEAD
        };
        assert_eq!(res.network_bytes, 0);
        assert_eq!(res.step_durations, vec![nv(3 * b), nv(b)]);
    }

    #[test]
    fn merge_parallel_zips_steps() {
        let a = ring_reduce_scatter(2, 100);
        let b = ring_reduce_scatter(2, 100);
        let merged = merge_parallel(vec![(a, vec![0, 1]), (b, vec![2, 3])]);
        assert_eq!(merged.steps.len(), 1);
        assert_eq!(merged.steps[0].len(), 4);
    }
}

//! Property-based tests for collective schedules and cost models.

use astral_collectives::{
    cost, halving_doubling_all_reduce, merge_parallel, pairwise_all_to_all, ring_all_gather,
    ring_all_reduce, ring_all_reduce_step_into, ring_broadcast, ring_reduce_scatter, send_recv,
    CollectiveResult, CollectiveRunner, RunnerConfig, Schedule, STEP_OVERHEAD,
};
use astral_net::QpId;
use astral_sim::{SimDuration, SimTime};
use astral_topo::{build_astral, AstralParams, GpuId, LinkId, Topology};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The small Astral fabric the runner properties share (256 GPUs).
fn small_fabric() -> &'static Topology {
    static TOPO: OnceLock<Topology> = OnceLock::new();
    TOPO.get_or_init(|| build_astral(&AstralParams::sim_small()))
}

/// The (network, NVLink) bytes a runner must report for `schedule` on
/// `group`: a transfer inside an HB domain rides NVLink; any other crosses
/// the network, plus an NVLink relay hop at the source when the rails
/// differ (PXN).
fn expected_bytes(topo: &Topology, group: &[GpuId], schedule: &Schedule) -> (u64, u64) {
    let (mut net, mut nvlink) = (0, 0);
    for t in schedule.steps.iter().flatten() {
        if t.bytes == 0 || t.src == t.dst {
            continue;
        }
        let (s, d) = (group[t.src], group[t.dst]);
        if topo.same_hb_domain(s, d) {
            nvlink += t.bytes;
        } else {
            net += t.bytes;
            if topo.gpu_rail(s) != topo.gpu_rail(d) {
                nvlink += t.bytes;
            }
        }
    }
    (net, nvlink)
}

/// Change the simulator between two calls, as `kind` says: degrade a link,
/// fail and restore one, or move a QP to another source port. Link events
/// are run before returning, so the next call starts on a quiet simulator
/// and only the generation tells it that something changed. Returns
/// whether anything changed (a port move needs a registered QP).
fn mutate(runner: &mut CollectiveRunner<'_>, kind: u8, pick: u64) -> bool {
    let sim = runner.sim_mut();
    let now = sim.now();
    let link = LinkId((pick % sim.topology().links().len() as u64) as u32);
    match kind {
        1 => sim.degrade_link_at(now, link, 0.5),
        2 => {
            sim.fail_link_at(now, link);
            sim.restore_link_at(now, link);
        }
        3 => {
            let qps = sim.qp_records().count() as u64;
            if qps == 0 {
                return false;
            }
            let qp = QpId(pick % qps + 1);
            let port = sim.qp_record(qp).expect("registered").tuple.src_port;
            sim.reassign_sport(qp, port.wrapping_add(2) | 0xc000);
        }
        _ => return false,
    }
    sim.run_until_idle();
    true
}

/// Steps a run of `len` equal steps re-applies: the first is simulated,
/// the second recorded, the rest applied.
fn run_reapplies(len: usize) -> u64 {
    len.saturating_sub(2) as u64
}

/// The GPUs of `hosts`, host-major, on the small fabric (4 per host, one
/// HB domain each).
fn host_gpus(hosts: &[u32]) -> Vec<GpuId> {
    hosts
        .iter()
        .flat_map(|&h| (0..4).map(move |i| GpuId(h * 4 + i)))
        .collect()
}

/// Run `op` on a fresh runner: 0–2 ring ReduceScatter, AllGather and
/// AllReduce on `gpus`; 3 the hierarchical AllReduce over `hosts`' GPUs;
/// 4 a streamed ring AllReduce on `gpus` whose step `odd` sends one byte
/// more on its first transfer. Returns the group, the schedule that ran,
/// the result, and the steps a quiet, idle fabric must re-apply.
fn run_step_op(
    op: u8,
    gpus: Vec<GpuId>,
    hosts: &[u32],
    bytes: u64,
    odd: u64,
    traced: bool,
) -> (Vec<GpuId>, Schedule, CollectiveResult, u64, u64) {
    let mut cfg = RunnerConfig::default();
    cfg.net.trace = traced;
    let mut runner = CollectiveRunner::new(small_fabric(), cfg);
    let n = gpus.len();
    let (group, schedule, want) = match op {
        0 => (gpus, ring_reduce_scatter(n, bytes), run_reapplies(n - 1)),
        1 => (gpus, ring_all_gather(n, bytes), run_reapplies(n - 1)),
        2 => (gpus, ring_all_reduce(n, bytes), run_reapplies(2 * n - 2)),
        3 => {
            let (local, d) = (4, hosts.len());
            // Each phase runs one ring per domain or per local index, all
            // at once; only the inter-domain rings cross the network.
            let intra = |ring: Schedule| {
                merge_parallel(
                    (0..d)
                        .map(|h| (ring.clone(), (0..local).map(|i| h * local + i).collect()))
                        .collect(),
                )
            };
            let inter = merge_parallel(
                (0..local)
                    .map(|i| {
                        (
                            ring_all_reduce(d, bytes / local as u64),
                            (0..d).map(|h| h * local + i).collect(),
                        )
                    })
                    .collect(),
            );
            let schedule = intra(ring_reduce_scatter(local, bytes))
                .then(inter)
                .then(intra(ring_all_gather(local, bytes)));
            (host_gpus(hosts), schedule, run_reapplies(2 * d - 2))
        }
        _ => {
            let len = 2 * n - 2;
            let j = (odd % len as u64) as usize;
            let mut steps = ring_all_reduce(n, bytes).steps;
            steps[j][0].bytes += 1;
            let want = run_reapplies(j) + run_reapplies(len - 1 - j);
            (gpus, Schedule { steps }, want)
        }
    };
    let odd = (odd % (2 * n as u64 - 2)) as usize;
    let res = match op {
        0 => runner.reduce_scatter(&group, bytes),
        1 => runner.all_gather(&group, bytes),
        2 => runner.all_reduce_flat(&group, bytes),
        3 => runner.all_reduce(&group, bytes),
        _ => runner.run_stream(&group, |k, buf| {
            let more = ring_all_reduce_step_into(n, bytes, k, buf);
            if more && k == odd {
                buf[0].bytes += 1;
            }
            more
        }),
    };
    let reapplied = runner.reapplied_steps();
    (group, schedule, res, want, reapplied)
}

/// Schedule `kind` of link event on `link` at `at`: 0 a degrade, 1 a
/// fail, 2 a restore of the link degraded before the call.
fn schedule_event(runner: &mut CollectiveRunner<'_>, kind: u8, link: LinkId, at: SimTime) {
    let sim = runner.sim_mut();
    match kind {
        0 => sim.degrade_link_at(at, link, 0.5),
        1 => sim.fail_link_at(at, link),
        _ => sim.restore_link_at(at, link),
    }
}

proptest! {
    /// Ring AllReduce volume matches the α–β model exactly:
    /// every rank sends 2(n−1)·(bytes/n).
    #[test]
    fn ring_allreduce_volume(n in 2usize..32, chunks in 1u64..64) {
        let bytes = chunks * n as u64 * 1024; // divisible by n
        let s = ring_all_reduce(n, bytes);
        let per_rank = 2 * (n as u64 - 1) * (bytes / n as u64);
        prop_assert!(s.sent_by_rank(n).iter().all(|&x| x == per_rank));
        prop_assert!(s.received_by_rank(n).iter().all(|&x| x == per_rank));
    }

    /// No transfer ever sends to itself, and all ranks are in range.
    #[test]
    fn schedules_are_wellformed(n in 2usize..24, bytes in 1024u64..1_000_000) {
        for s in [
            ring_reduce_scatter(n, bytes),
            ring_all_gather(n, bytes),
            pairwise_all_to_all(n, bytes),
            ring_broadcast(n, bytes, 4),
        ] {
            for t in s.steps.iter().flatten() {
                prop_assert!(t.src < n && t.dst < n);
                prop_assert!(t.src != t.dst);
            }
        }
    }

    /// Halving-doubling matches ring AllReduce volume for powers of two.
    #[test]
    fn hd_matches_ring_volume(log_n in 1u32..6, chunks in 1u64..32) {
        let n = 1usize << log_n;
        let bytes = chunks * n as u64 * 1024;
        let hd = halving_doubling_all_reduce(n, bytes);
        let ring = ring_all_reduce(n, bytes);
        prop_assert_eq!(hd.total_bytes(), ring.total_bytes());
        prop_assert_eq!(hd.steps.len(), 2 * log_n as usize);
    }

    /// All-to-all sends each rank's buffer exactly once except its own
    /// slice.
    #[test]
    fn alltoall_conservation(n in 2usize..24, chunks in 1u64..64) {
        let bytes = chunks * n as u64 * 512;
        let s = pairwise_all_to_all(n, bytes);
        let per_rank = (n as u64 - 1) * (bytes / n as u64);
        prop_assert!(s.sent_by_rank(n).iter().all(|&x| x == per_rank));
        prop_assert!(s.received_by_rank(n).iter().all(|&x| x == per_rank));
    }

    /// Cost models are monotone: more bytes or less bandwidth never
    /// reduces time; larger groups never reduce all-to-all time.
    #[test]
    fn costs_are_monotone(
        n in 2usize..64,
        bytes in 1024u64..(1 << 30),
        bw in 1e9f64..1e12,
    ) {
        let a = 5e-6;
        prop_assert!(cost::all_reduce(n, bytes, bw, a) <= cost::all_reduce(n, bytes * 2, bw, a));
        prop_assert!(cost::all_reduce(n, bytes, bw, a) >= cost::all_reduce(n, bytes, bw * 2.0, a));
        prop_assert!(cost::all_to_all(n, bytes, bw, a) <= cost::all_to_all(n + 1, bytes, bw, a) + 1e-12);
        prop_assert!(cost::reduce_scatter(n, bytes, bw, a) <= cost::all_reduce(n, bytes, bw, a));
    }

    /// Hierarchical AllReduce never loses to flat when NVLink is at least
    /// as fast as the network.
    #[test]
    fn hierarchical_no_worse_than_flat(
        log_local in 1u32..4,
        log_domains in 1u32..4,
        bytes in (1u64 << 20)..(1 << 28),
    ) {
        let local = 1usize << log_local;
        let n = local << log_domains;
        let bytes = bytes / n as u64 * n as u64;
        let flat = cost::all_reduce(n, bytes, 400e9, 5e-6);
        let hier = cost::hierarchical_all_reduce(n, local, bytes, 400e9, 1800e9, 5e-6);
        prop_assert!(hier <= flat * 1.001, "hier {hier} flat {flat}");
    }

    /// The runner's memo of a repeated call. Random scripts of ring
    /// all-reduce, all-to-all and send on the small fabric, each call
    /// repeated 1–5 times, with a link degrade, a fail then restore, or a
    /// source-port move landing before one of the repeats. Every call
    /// moves exactly its schedule's network and NVLink bytes; three
    /// identical calls in a row re-apply at least once; and a repeat right
    /// after a change is always simulated. Debug builds check every
    /// re-apply against a real simulation of the call, trace records
    /// included when the case traces.
    #[test]
    fn runner_reapplies_only_unchanged_repeats(
        script in prop::collection::vec(
            (
                (0u8..3, prop::collection::btree_set(0u32..256, 2..6), 1u64..5, 1u32..6),
                (0u8..4, 0u32..5, any::<u64>()),
            ),
            1..5,
        ),
        traced in any::<bool>(),
    ) {
        let topo = small_fabric();
        let mut cfg = RunnerConfig::default();
        cfg.net.trace = traced;
        let mut runner = CollectiveRunner::new(topo, cfg);
        for ((op, ranks, chunks, repeats), (change, change_at, pick)) in script {
            let group: Vec<GpuId> = ranks.into_iter().map(GpuId).collect();
            let n = group.len();
            let bytes = chunks * n as u64 * (64 << 10);
            let (group, schedule) = match op {
                0 => (group, ring_all_reduce(n, bytes)),
                1 => (group, pairwise_all_to_all(n, bytes)),
                _ => (group[..2].to_vec(), send_recv(bytes)),
            };
            let want = expected_bytes(topo, &group, &schedule);
            // Calls since the last change or the entry's start, and the
            // re-applies among them.
            let (mut since, mut reapplied) = (0, 0);
            for call in 0..repeats {
                if call == change_at % repeats && mutate(&mut runner, change, pick) {
                    (since, reapplied) = (0, 0);
                }
                let before = runner.reapplied_calls();
                let res = runner.run_schedule(&group, &schedule);
                let this = runner.reapplied_calls() - before;
                prop_assert_eq!((res.network_bytes, res.nvlink_bytes), want);
                prop_assert_eq!(res.failed_flows, 0);
                prop_assert!(!(since == 0 && call > 0 && this > 0), "re-applied right after a change");
                reapplied += this;
                prop_assert!(since != 2 || reapplied > 0, "three identical calls, none re-applied");
                since += 1;
            }
        }
    }
    /// The runner's memo of a repeated step. Ring ReduceScatter,
    /// AllGather and AllReduce, the hierarchical AllReduce and a streamed
    /// ring AllReduce with one odd-bytes step, each on a fresh runner over
    /// an idle fabric, traced or not. Every call moves exactly its
    /// schedule's bytes, and each run of equal steps that crosses the
    /// network re-applies all its steps but the first two: an n-rank ring
    /// AllReduce re-applies 2n − 4. Debug builds check every re-applied
    /// step against a real simulation of it on a fork.
    #[test]
    fn runner_reapplies_repeated_steps(
        op in 0u8..5,
        gpus in prop::collection::btree_set(0u32..256, 2..8),
        hosts in prop::collection::btree_set(0u32..64, 2..6),
        chunks in 1u64..5,
        odd in any::<u64>(),
        traced in any::<bool>(),
    ) {
        let gpus: Vec<GpuId> = gpus.into_iter().map(GpuId).collect();
        let hosts: Vec<u32> = hosts.into_iter().collect();
        let bytes = chunks * 32 * (64 << 10);
        let (group, schedule, res, want, reapplied) =
            run_step_op(op, gpus, &hosts, bytes, odd, traced);
        prop_assert_eq!(
            (res.network_bytes, res.nvlink_bytes),
            expected_bytes(small_fabric(), &group, &schedule)
        );
        prop_assert_eq!(res.failed_flows, 0);
        prop_assert_eq!(res.step_durations.len(), schedule.steps.len());
        let want = if res.network_bytes > 0 { want } else { 0 };
        prop_assert_eq!(reapplied, want);
    }

    /// A link degrade, fail or restore scheduled inside a ring AllReduce,
    /// at a point of its first step or of the gap after it. Nothing is
    /// re-applied before the event fires (the simulator is not quiet), and
    /// it moves the generation, so the step after it is recorded afresh.
    /// When it fired after the step's last flow finished, the next step
    /// starts closer to the clock than the steps after it, so the step
    /// after that is recorded again: 2n − 4 re-applies, one fewer in that
    /// case, and none counted on when a flow failed. Debug builds check
    /// every re-applied step against a real simulation of it.
    #[test]
    fn scheduled_event_defers_step_reapplies(
        hosts in prop::collection::btree_set(0u32..64, 3..7),
        kind in 0u8..3,
        at in 0.0f64..1.0,
        pick in any::<u64>(),
        traced in any::<bool>(),
    ) {
        let topo = small_fabric();
        let group: Vec<GpuId> = hosts.into_iter().map(|h| GpuId(h * 4)).collect();
        let n = group.len();
        let uplinks: Vec<LinkId> =
            group.iter().flat_map(|&g| topo.out_links(topo.gpu_nic(g)).to_vec()).collect();
        let link = uplinks[(pick % uplinks.len() as u64) as usize];
        let bytes = 16u64 << 20;
        let runner = || {
            let mut cfg = RunnerConfig::default();
            cfg.net.trace = traced;
            let mut r = CollectiveRunner::new(topo, cfg);
            if kind == 2 {
                r.sim_mut().degrade_link_at(SimTime::ZERO, link, 0.5);
                r.sim_mut().run_until_idle();
            }
            r
        };
        // The same call undisturbed places the event inside its first
        // step or the gap after it.
        let first = runner().all_reduce_flat(&group, bytes).step_durations[0];
        let mut r = runner();
        let start = r.sim().now();
        let fire = start + SimDuration::from_nanos((first.as_nanos() as f64 * at) as u64);
        schedule_event(&mut r, kind, link, fire);
        let res = r.all_reduce_flat(&group, bytes);
        let full = 2 * n as u64 - 4;
        if res.failed_flows == 0 {
            let flows_end = start + (res.step_durations[0] - STEP_OVERHEAD);
            let want = full - u64::from(fire > flows_end);
            prop_assert_eq!(r.reapplied_steps(), want);
        } else {
            prop_assert!(r.reapplied_steps() <= full);
        }
    }
}

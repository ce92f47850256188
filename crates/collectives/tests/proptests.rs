//! Property-based tests for collective schedules and cost models.

use astral_collectives::{
    cost, halving_doubling_all_reduce, pairwise_all_to_all, ring_all_gather, ring_all_reduce,
    ring_broadcast, ring_reduce_scatter, send_recv, CollectiveRunner, RunnerConfig, Schedule,
};
use astral_net::QpId;
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
}

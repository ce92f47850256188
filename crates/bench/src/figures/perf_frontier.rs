//! Frontier scaling harness — pushing the simulator to the paper's
//! 128K–512K GPU deployment sizes with pod-grouped water-fills.
//!
//! Three fabric sizes (8K → 128K → 512K GPUs) run the same AllReduce-heavy
//! traffic pattern: every pod carries `roots` weighted reduce incasts, and
//! an arrival train of `waves` ticks (50µs apart) adds one sender to every
//! root fleet-wide per tick. Weights are globally distinct (dyadic, exact
//! in f64), so every pod's root links saturate at their own fill levels,
//! and message sizes outlive the whole train — each wave therefore
//! re-enters the solver with every prior wave still live. Without pod
//! groups that synchronized wave water-fills the union of all pods'
//! components jointly — the fill runs one round per distinct saturation
//! level while scanning every still-loaded link fleet-wide, O(pods²) link
//! scans per wave — whereas `NetConfig::sharded_solver` fills each pod
//! group on its own, O(pods), which is where the frontier throughput comes
//! from. A cross-pod phase (flows pod *p* → pod *p+1*) joins every pod into
//! one group through the boundary links, and a streamed ring AllReduce
//! ([`ring_all_reduce_step_into`]) shows collective expansion holding one
//! step of transfers resident instead of the whole `2(n−1)`-step schedule.
//!
//! Hard gates: at 128K GPUs the pod-grouped run must complete the incast
//! campaign ≥ 3× faster than the joint fill, deliver the same bytes, and
//! the cross-pod phase must be bitwise identical in both modes. All
//! wall-clock-derived metrics, tables and footer rows carry the
//! `wall_clock` prefix, so CI's determinism diff skips them and the
//! renderer prints them to stderr; every other metric, table cell and
//! the `solver` counters are gated by
//! `bench-baselines/BENCH_perf_frontier.json`.
//!
//! The 512K point runs pod-grouped only (the joint fill is the quadratic
//! cost grouping removes) with a reduced set of active pods; the fabric
//! itself is built and solved at full 524,288-GPU scale.

use crate::{Report, Scenario};
use astral_collectives::{ring_all_reduce_step_into, CollectiveRunner, RunnerConfig};
use astral_core::{place_job, PlacementPolicy};
use astral_net::{FlowSpec, NetConfig, NetworkSim, QpContext, QpId, SolverCounters};
use astral_sim::SimDuration;
use astral_topo::{build_astral, AstralParams, GpuId, Router, Topology};
use std::sync::Arc;
use std::time::Instant;

/// One point of the frontier sweep.
struct Frontier {
    label: &'static str,
    params: AstralParams,
    /// Pods driving incast traffic (all of them below 512K).
    pods_active: u32,
    /// Weighted reduce roots per pod. Each root adds one distance field,
    /// two `u16` arrays over every node of the fabric (4 bytes per node),
    /// beside the router's one shared adjacency; the root count is what
    /// bounds router memory at the 128K/512K scales.
    roots: usize,
    /// Arrival-train length: wave *t* adds one sender per root fleet-wide
    /// at `t0 + 50µs·t`, and all flows outlive the train.
    waves: usize,
    /// Whether the global incremental oracle also runs the campaign.
    run_global: bool,
}

fn astral(pods: u16, blocks_per_pod: u16, hosts_per_block: u16) -> AstralParams {
    AstralParams {
        pods,
        blocks_per_pod,
        hosts_per_block,
        ..AstralParams::sim_medium()
    }
}

/// GPU id layout of `build_astral`: pod-major, then block, host, rail.
fn gpu(p: &AstralParams, pod: u32, block: u32, host: u32, rail: u32) -> GpuId {
    let id = ((pod * p.blocks_per_pod as u32 + block) * p.hosts_per_block as u32 + host)
        * p.rails as u32
        + rail;
    GpuId(id)
}

struct IncastOut {
    wall: f64,
    sim_secs: f64,
    links_scanned: u64,
    solves: u64,
    counters: SolverCounters,
    flows: usize,
    delivered: f64,
}

fn run_incast(topo: &Topology, router: &Arc<Router>, f: &Frontier, sharded: bool) -> IncastOut {
    let cfg = NetConfig {
        sharded_solver: sharded,
        ..NetConfig::default()
    };
    let mut sim = NetworkSim::with_router(topo, cfg, Arc::clone(router));
    assert_eq!(
        sim.solver_is_sharded(),
        sharded,
        "solver mode did not engage as requested"
    );

    // Rail-0 NIC slots enumerate a pod's (block, host) pairs; the first
    // `roots` slots are the reduce roots and wave t claims slot
    // roots + t·roots + r as root r's new sender.
    let hosts = f.params.hosts_per_block as u32;
    let nic_at = |pod: u32, s: u32| topo.gpu_nic(gpu(&f.params, pod, s / hosts, s % hosts, 0));
    let mut waves: Vec<Vec<(QpId, f64)>> = vec![Vec::new(); f.waves];
    for pod in 0..f.pods_active {
        for r in 0..f.roots {
            let root = nic_at(pod, r as u32);
            for (t, wave) in waves.iter_mut().enumerate() {
                let src = nic_at(pod, (f.roots + t * f.roots + r) as u32);
                let qp = sim.register_qp_auto(src, root, QpContext::anonymous());
                // Globally distinct dyadic weights: every (pod, root)
                // incast water-fills to its own saturation levels, so the
                // joint global fill runs O(pods·roots) rounds where a pod
                // domain runs O(roots).
                let idx = (pod as usize * f.roots + r) * f.waves + t;
                wave.push((qp, 1.0 + idx as f64 / 8192.0));
            }
        }
    }

    // Unmeasured warm-up: every QP once, drained to idle — distance
    // fields and the QPs' cached routes are all hot before timing.
    let t0 = sim.now() + SimDuration::from_micros(1);
    for wave in &waves {
        for &(qp, weight) in wave {
            let spec = FlowSpec {
                qp,
                bytes: 64 << 10,
                weight,
            };
            sim.inject_at(t0, spec).unwrap();
        }
    }
    sim.run_until_idle();
    let base = sim.solver_counters();

    // Measured window: the arrival train only. Message sizes outlive the
    // whole train, so wave t re-solves with all prior waves live, and the
    // window closes at the last arrival before any flow completes — the
    // steady-state arrival-processing regime.
    let bytes = 32u64 << 20;
    let start = Instant::now();
    let t0 = sim.now() + SimDuration::from_micros(1);
    let mut ids = Vec::with_capacity(f.pods_active as usize * f.roots * f.waves);
    for (t, wave) in waves.iter().enumerate() {
        let at = t0 + SimDuration::from_micros(50 * t as u64);
        for &(qp, weight) in wave {
            ids.push(sim.inject_at(at, FlowSpec { qp, bytes, weight }).unwrap());
        }
    }
    let t_end = t0 + SimDuration::from_micros(50 * (f.waves as u64 - 1) + 10);
    sim.run_until(t_end);
    let wall = start.elapsed().as_secs_f64();
    let sim_secs = t_end.saturating_since(t0).as_secs_f64();

    let delivered: f64 = ids.iter().map(|&id| sim.stats(id).unwrap().delivered).sum();
    let counters = sim.solver_counters();
    IncastOut {
        wall,
        sim_secs,
        links_scanned: counters.links_scanned - base.links_scanned,
        solves: counters.incremental_solves + counters.full_solves
            - base.incremental_solves
            - base.full_solves,
        counters,
        flows: ids.len(),
        delivered,
    }
}

/// Cross-pod validation: one flow pod *p* → pod *p+1* per active pod, all
/// injected at one tick. Every flow crosses two pods and the boundary
/// links, so the pods join into one group and fill jointly.
fn run_crosspod(
    topo: &Topology,
    router: &Arc<Router>,
    f: &Frontier,
    sharded: bool,
) -> (f64, f64, f64) {
    let cfg = NetConfig {
        sharded_solver: sharded,
        ..NetConfig::default()
    };
    let mut sim = NetworkSim::with_router(topo, cfg, Arc::clone(router));
    let pods = f.pods_active.min(16);
    let qps: Vec<QpId> = (0..pods)
        .map(|p| {
            let src = topo.gpu_nic(gpu(&f.params, p, 1, 0, 1));
            let dst = topo.gpu_nic(gpu(&f.params, (p + 1) % pods, 1, 0, 1));
            sim.register_qp_auto(src, dst, QpContext::anonymous())
        })
        .collect();
    let run = |sim: &mut NetworkSim, bytes: u64| {
        let t0 = sim.now() + SimDuration::from_micros(1);
        let ids: Vec<_> = qps
            .iter()
            .map(|&qp| {
                sim.inject_at(
                    t0,
                    FlowSpec {
                        qp,
                        bytes,
                        weight: 1.0,
                    },
                )
                .unwrap()
            })
            .collect();
        sim.run_until_idle();
        let secs = sim.now().saturating_since(t0).as_secs_f64();
        let delivered: f64 = ids.iter().map(|&id| sim.stats(id).unwrap().delivered).sum();
        (secs, delivered)
    };
    run(&mut sim, 1 << 20); // warm-up: distance fields toward new roots
    let start = Instant::now();
    let (secs, delivered) = run(&mut sim, 16 << 20);
    (start.elapsed().as_secs_f64(), secs, delivered)
}

/// The rows of the sweep's tables, filled point by point: the incast
/// campaign, the solver work of each fill, and the wall-clock timings.
#[derive(Default)]
struct Tables {
    campaign: Vec<(&'static str, u32, usize, usize, f64)>,
    work: Vec<(&'static str, &'static str, u64, u64)>,
    wall_clock: Vec<(&'static str, &'static str, f64)>,
}

/// The sweep: 8K and 128K GPUs with the joint-fill oracle, and 512K
/// pod-grouped only with a reduced set of active pods.
fn points() -> [Frontier; 3] {
    [
        Frontier {
            label: "8k",
            params: astral(8, 4, 32),
            pods_active: 8,
            roots: 6,
            waves: 16,
            run_global: true,
        },
        Frontier {
            label: "128k",
            params: astral(64, 8, 32),
            pods_active: 64,
            roots: 4,
            waves: 24,
            run_global: true,
        },
        Frontier {
            label: "512k",
            params: astral(64, 16, 64),
            pods_active: 16,
            roots: 2,
            waves: 8,
            run_global: false,
        },
    ]
}

/// One frontier point: the incast campaign pod-grouped, the joint fill
/// it must agree with (when the point runs it), then the cross-pod phase.
/// Records the point's metrics and table rows, and returns its footer
/// fragment and the pod-grouped speedup over the joint fill.
fn frontier_point(sc: &mut Scenario, t: &mut Tables, f: &Frontier) -> (String, Option<f64>) {
    let build_start = Instant::now();
    let topo = build_astral(&f.params);
    let router = Arc::new(Router::new());
    let gpus = topo.gpu_count();
    let build_s = build_start.elapsed().as_secs_f64();

    let s1 = run_incast(&topo, &router, f, true);
    sc.solver(&s1.counters);

    let gpu_s_per_wall = s1.sim_secs * gpus as f64 / s1.wall.max(1e-12);
    let links = topo.links().len();
    t.campaign
        .push((f.label, gpus, links, s1.flows, s1.sim_secs));
    let pod_grouped = (f.label, "pod-grouped", s1.solves, s1.links_scanned);
    t.work.push(pod_grouped);
    t.wall_clock.push((f.label, "build (s)", build_s));
    t.wall_clock.push((f.label, "pod-grouped (s)", s1.wall));
    sc.metric(&format!("gpus_{}", f.label), gpus);
    sc.metric(&format!("incast_flows_{}", f.label), s1.flows as u64);
    sc.metric(&format!("sim_secs_{}", f.label), s1.sim_secs);
    sc.metric(
        &format!("sharded_links_scanned_{}", f.label),
        s1.links_scanned,
    );
    sc.metric(
        &format!("peak_arena_bytes_{}", f.label),
        s1.counters.peak_arena_bytes,
    );
    sc.metric(&format!("wall_clock_sharded_incast_s_{}", f.label), s1.wall);
    sc.metric(
        &format!("wall_clock_sim_gpu_s_per_s_sharded_{}", f.label),
        gpu_s_per_wall,
    );

    let mut row = format!(
        "{}: {} GPUs, {:.0} simulated-GPU-seconds per wall-second sharded",
        f.label, gpus, gpu_s_per_wall
    );
    // Past 128K the joint fill is skipped: its fleet-synchronized
    // O(pods²) cost is what this point demonstrates removing.
    let speedup = f.run_global.then(|| {
        let speedup = joint_fill(sc, t, &topo, &router, f, &s1);
        row.push_str(&format!(", {speedup:.1}x over global"));
        speedup
    });
    crosspod(sc, &topo, &router, f);
    (row, speedup)
}

/// The joint (global incremental) fill on the same campaign: deliveries
/// and simulated durations must match the pod-grouped run `s1`, and at
/// 128K GPUs the pod-grouped run must be ≥3× faster. Returns the speedup.
fn joint_fill(
    sc: &mut Scenario,
    t: &mut Tables,
    topo: &Topology,
    router: &Arc<Router>,
    f: &Frontier,
    s1: &IncastOut,
) -> f64 {
    let g = run_incast(topo, router, f, false);
    assert_eq!(g.flows, s1.flows);
    let drift = (g.delivered - s1.delivered).abs() / g.delivered.max(1.0);
    assert!(
        drift <= 1e-9,
        "[{}] sharded delivery drifted {drift:.2e} from the global solver",
        f.label
    );
    let sim_drift = (g.sim_secs - s1.sim_secs).abs() / g.sim_secs.max(1e-12);
    assert!(
        sim_drift <= 1e-9,
        "[{}] simulated durations diverged {sim_drift:.2e}",
        f.label
    );
    let speedup = g.wall / s1.wall.max(1e-12);
    t.work.push((f.label, "joint", g.solves, g.links_scanned));
    t.wall_clock.push((f.label, "joint (s)", g.wall));
    t.wall_clock.push((f.label, "speedup (x)", speedup));
    sc.metric(
        &format!("global_links_scanned_{}", f.label),
        g.links_scanned,
    );
    sc.metric(&format!("wall_clock_global_incast_s_{}", f.label), g.wall);
    sc.metric(&format!("wall_clock_speedup_{}", f.label), speedup);
    if f.label == "128k" {
        assert!(
            speedup >= 3.0,
            "128K sharded speedup {speedup:.2}x below the 3x gate"
        );
    }
    speedup
}

/// Cross-pod flows: every pod joins one group, and (when the point runs
/// the joint fill) the result must be bitwise mode-invariant.
fn crosspod(sc: &mut Scenario, topo: &Topology, router: &Arc<Router>, f: &Frontier) {
    let (xw_s, xsim_s, xdel_s) = run_crosspod(topo, router, f, true);
    sc.metric(&format!("crosspod_sim_secs_{}", f.label), xsim_s);
    sc.metric(&format!("wall_clock_crosspod_sharded_s_{}", f.label), xw_s);
    if f.run_global {
        let (xw_g, xsim_g, xdel_g) = run_crosspod(topo, router, f, false);
        assert_eq!(
            xsim_s.to_bits(),
            xsim_g.to_bits(),
            "[{}] cross-pod duration must be bitwise mode-invariant at weight 1",
            f.label
        );
        assert_eq!(xdel_s.to_bits(), xdel_g.to_bits());
        sc.metric(&format!("wall_clock_crosspod_global_s_{}", f.label), xw_g);
    }
}

/// Streamed collective expansion: a cross-pod ring AllReduce generated
/// one step at a time, never materializing the 2(n−1)-step schedule.
fn streamed_ring(sc: &mut Scenario, params: &AstralParams) {
    let topo = build_astral(params);
    let group = place_job(&topo, 64, PlacementPolicy::FragmentedAcrossPods { pods: 8 });
    let n = group.len();
    let ring_bytes = 8u64 << 20;
    let ring = |sharded: bool| {
        let cfg = RunnerConfig {
            net: NetConfig {
                sharded_solver: sharded,
                ..NetConfig::default()
            },
            ..RunnerConfig::default()
        };
        let mut runner = CollectiveRunner::new(&topo, cfg);
        let _ = runner.run_stream(&group, |k, buf| {
            ring_all_reduce_step_into(n, 1 << 20, k, buf)
        });
        let start = Instant::now();
        let r = runner.run_stream(&group, |k, buf| {
            ring_all_reduce_step_into(n, ring_bytes, k, buf)
        });
        (start.elapsed().as_secs_f64(), r)
    };
    let (ring_wall_s, ring_s) = ring(true);
    let (ring_wall_g, ring_g) = ring(false);
    assert_eq!(
        ring_s.duration, ring_g.duration,
        "streamed ring AllReduce must be solver-mode invariant"
    );
    assert_eq!(ring_s.network_bytes, ring_g.network_bytes);
    sc.solver(&ring_s.solver);
    let resident = n as u64;
    let materialized = 2 * (n as u64 - 1) * n as u64;
    let ring_ms = ring_s.duration.as_secs_f64() * 1e3;
    let columns = "ranks | simulated (ms) | transfers resident | transfers materialized";
    sc.table(
        "streamed_ring_allreduce",
        columns,
        &[(n, ring_ms, resident, materialized)],
    );
    sc.metric("ring_ranks", n as u64);
    sc.metric("ring_sim_secs", ring_s.duration.as_secs_f64());
    sc.metric("ring_transfers_resident", resident);
    sc.metric("ring_transfers_materialized", materialized);
    sc.metric("wall_clock_ring_sharded_s", ring_wall_s);
    sc.metric("wall_clock_ring_global_s", ring_wall_g);
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "perf_frontier",
        "Frontier scaling: pod-grouped water-fills, 8K → 128K → 512K GPUs",
        "pod groups turn the fleet-synchronized joint water-fill from \
         O(pods²) into O(pods) link scans; target ≥3× end-to-end at 128K \
         GPUs, cross-pod results bitwise mode-invariant",
    );

    let points = points();
    let mut speedup_128k = 0.0f64;
    let mut frontier_rows = Vec::new();
    let mut t = Tables::default();
    for f in &points {
        let (row, speedup) = frontier_point(&mut sc, &mut t, f);
        if let (Some(speedup), "128k") = (speedup, f.label) {
            speedup_128k = speedup;
        }
        frontier_rows.push(row);
    }
    let campaign = "point | GPUs | links | flows | simulated (s)";
    sc.table("incast_campaign", campaign, &t.campaign);
    let work = "point | fill | solves | links scanned";
    sc.table("incast_solver_work", work, &t.work);
    sc.table("wall_clock_frontier", "point | step | value", &t.wall_clock);
    streamed_ring(&mut sc, &points[0].params);

    // Footer rows carrying wall-clock-derived numbers keep the wall_clock
    // prefix in their key so CI's determinism diff skips them.
    sc.finish(&[
        (
            "wall_clock_speedup",
            format!("target ≥3x at 128K GPUs | measured {speedup_128k:.2}x"),
        ),
        (
            "determinism",
            "pod-grouped deliveries match the joint fill's, cross-pod \
             results bitwise mode-invariant"
                .to_string(),
        ),
        ("wall_clock_frontier", frontier_rows.join(" | ")),
    ])
}

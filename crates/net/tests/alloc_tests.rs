//! Heap allocations on the flow lifecycle, counted by a wrapping global
//! allocator. Once a simulator has carried a traffic pattern, repeating it
//! allocates only when the flow table (flow records, and the solver's id
//! and weight per slot) doubles, so allocations per flow tend to zero: the
//! solver's per-flow vectors and hop arenas are indexed by solver ids,
//! which follow live flows and are reused by every later round. A
//! simulator that retires its finished flows reuses its table slots too
//! and allocates nothing. Opening a new QP on a warmed router is held to
//! the same standard.

use astral_net::{FlowSpec, FlowState, NetConfig, NetworkSim, QpContext, QpId};
use astral_topo::{build_astral, AstralParams, GpuId, Router};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts this thread's allocations and reallocations, so tests running
/// on other threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counter is a plain thread-local `Cell`
// that never allocates (const-initialized, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per flow over `rounds` repeats of one step of traffic
/// (cross-block and cross-pod pairs on `sim_small`), after four warm-up
/// rounds; with `retire`, every round ends with `retire_finished`.
fn allocs_per_flow(cfg: NetConfig, rounds: usize, retire: bool) -> f64 {
    let topo = build_astral(&AstralParams::sim_small());
    let mut sim = NetworkSim::new(&topo, cfg);
    let qps: Vec<QpId> = (0..32u32)
        .map(|i| {
            let dst = if i % 2 == 0 { i + 32 } else { i + 64 };
            sim.register_qp_auto(
                topo.gpu_nic(GpuId(i)),
                topo.gpu_nic(GpuId(dst)),
                QpContext::anonymous(),
            )
        })
        .collect();
    let mut ids = Vec::with_capacity(qps.len());
    let mut round = |sim: &mut NetworkSim| {
        for (i, &qp) in qps.iter().enumerate() {
            let spec = FlowSpec {
                qp,
                bytes: (1 << 20) + (i as u64) * 4096,
                weight: 1.0,
            };
            ids.push(sim.inject(spec).expect("routed"));
        }
        sim.run_until_idle();
        for &id in &ids {
            assert_eq!(sim.flow_outcome(id).unwrap().0, FlowState::Done);
        }
        ids.clear();
        if retire {
            assert_eq!(sim.retire_finished(), qps.len());
        }
    };
    for _ in 0..4 {
        round(&mut sim);
    }
    let before = allocs();
    for _ in 0..rounds {
        round(&mut sim);
    }
    (allocs() - before) as f64 / (rounds * qps.len()) as f64
}

/// Both solvers start and finish flows without allocating: what is left
/// is amortized doubling of append-only stores, well under one allocation
/// per ten flows.
#[test]
fn flow_lifecycle_allocates_only_amortized_store_growth() {
    for sharded in [false, true] {
        let cfg = NetConfig {
            sharded_solver: sharded,
            ..NetConfig::default()
        };
        let per_flow = allocs_per_flow(cfg, 64, false);
        assert!(
            per_flow < 0.1,
            "sharded={sharded}: {per_flow} allocations per flow"
        );
    }
}

/// Retiring each round's flows hands their table slots to the next
/// round's (solver ids and hop spans are reused either way), so warmed
/// rounds of inject → run → retire allocate nothing at all, on both
/// solvers.
#[test]
fn retiring_rounds_allocate_nothing_after_warm_up() {
    for sharded in [false, true] {
        let cfg = NetConfig {
            sharded_solver: sharded,
            ..NetConfig::default()
        };
        let per_flow = allocs_per_flow(cfg, 64, true);
        assert_eq!(per_flow, 0.0, "sharded={sharded}");
    }
}

/// Registering a QP and injecting its first flow, on a router whose
/// distance fields are all built, allocates only when an append-only
/// store (QP tables, the sFlow and path arenas, flow records, the event
/// queue) doubles. Here 1,792 same-rail QPs, seven per `sim_small` GPU,
/// open in well under 0.1 allocations each; with a fresh sFlow `Vec` per
/// QP they took 1.53 each.
#[test]
fn opening_a_qp_allocates_only_amortized_store_growth() {
    let topo = build_astral(&AstralParams::sim_small());
    let (n, rails) = (topo.gpu_count(), topo.rails() as u32);
    let nic = |g: u32| topo.gpu_nic(GpuId(g % n));
    let router = Arc::new(Router::new());
    for g in 0..n {
        let _ = router.try_path_with(&topo, nic(g + rails), nic(g), |_, _| 0);
    }
    let cfg = NetConfig::default();
    let mut sim = NetworkSim::with_router(&topo, cfg, router);
    let pairs: Vec<_> = (0..n)
        .flat_map(|g| (1..=7).map(move |k| (g, g + k * rails)))
        .map(|(a, b)| (nic(a), nic(b)))
        .collect();
    assert_eq!(pairs.len(), 1_792);
    let before = allocs();
    for &(src, dst) in &pairs {
        let qp = sim.register_qp_auto(src, dst, QpContext::anonymous());
        let spec = FlowSpec {
            qp,
            bytes: 1 << 20,
            weight: 1.0,
        };
        sim.inject(spec).expect("same-rail pairs are routed");
    }
    let per_qp = (allocs() - before) as f64 / pairs.len() as f64;
    assert!(per_qp < 0.1, "{per_qp} allocations per new QP");
}

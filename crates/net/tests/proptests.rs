//! Property-based tests for the network layer.

use astral_net::{check_bottleneck_property, max_min_rates, simulate_route, EcmpHasher};
use astral_topo::{build_astral, AstralParams, GpuId, Router};
use proptest::prelude::*;

/// Random small fairness problems.
fn fairness_problem() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<u32>>)> {
    (2usize..8, 1usize..12).prop_flat_map(|(nl, nf)| {
        let caps = prop::collection::vec(1.0f64..1000.0, nl..=nl);
        let flows = prop::collection::vec(
            prop::collection::btree_set(0u32..nl as u32, 1..=nl.min(4)),
            nf..=nf,
        )
        .prop_map(|fs| {
            fs.into_iter()
                .map(|s| s.into_iter().collect::<Vec<u32>>())
                .collect::<Vec<_>>()
        });
        (caps, flows)
    })
}

proptest! {
    /// Weighted max-min allocations never violate capacity and satisfy
    /// the bottleneck property (every flow's rate per weight is maximal on
    /// some saturated link).
    #[test]
    fn max_min_is_feasible_and_bottlenecked(
        (caps, flows) in fairness_problem(),
        weights in prop::collection::vec(0.25f64..4.0, 12),
    ) {
        let w = &weights[..flows.len()];
        let rates = max_min_rates(&caps, &flows, Some(w));
        prop_assert_eq!(rates.len(), flows.len());
        for &r in &rates {
            prop_assert!(r >= 0.0);
        }
        prop_assert_eq!(
            check_bottleneck_property(&caps, &flows, Some(w), &rates),
            None,
            "caps={:?} flows={:?} weights={:?} rates={:?}", caps, flows, w, rates
        );
    }

    /// Work conservation: on every saturated link the shares sum to
    /// capacity; the allocation cannot be uniformly scaled up.
    #[test]
    fn max_min_is_work_conserving((caps, flows) in fairness_problem()) {
        let rates = max_min_rates(&caps, &flows, None);
        // Every flow crosses at least one saturated link; equivalently no
        // flow's rate can be increased without breaking capacity. Test by
        // attempting a tiny uniform increase for each flow.
        let mut used = vec![0.0; caps.len()];
        for (f, links) in flows.iter().enumerate() {
            for &l in links {
                used[l as usize] += rates[f];
            }
        }
        for (f, links) in flows.iter().enumerate() {
            let can_grow = links.iter().all(|&l| {
                used[l as usize] + 1e-6 * caps[l as usize] < caps[l as usize]
            });
            prop_assert!(!can_grow, "flow {f} could grow: rates={rates:?}");
        }
    }

    /// Doubling every weight leaves the allocation unchanged (scale
    /// invariance of weighted max-min).
    #[test]
    fn weighted_max_min_is_scale_invariant((caps, flows) in fairness_problem()) {
        let w1: Vec<f64> = (0..flows.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let w2: Vec<f64> = w1.iter().map(|w| w * 2.0).collect();
        let r1 = max_min_rates(&caps, &flows, Some(&w1));
        let r2 = max_min_rates(&caps, &flows, Some(&w2));
        for (a, b) in r1.iter().zip(&r2) {
            if a.is_finite() {
                prop_assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0));
            } else {
                prop_assert!(b.is_infinite());
            }
        }
    }

    /// Any sport routes to a valid path between any two NICs in an Astral
    /// fabric, and the path's length equals the router's distance.
    #[test]
    fn every_sport_routes_correctly(ga in 0u32..256, gb in 0u32..256, sport in 49152u16..) {
        let topo = build_astral(&AstralParams::sim_small());
        let router = Router::new();
        let hasher = EcmpHasher::default();
        let (a, b) = (topo.gpu_nic(GpuId(ga)), topo.gpu_nic(GpuId(gb)));
        if a == b { return Ok(()); }
        let path = simulate_route(&topo, &router, &hasher, a, b, sport).unwrap();
        prop_assert_eq!(path.len() as u16, router.distance(&topo, a, b).unwrap());
        let mut cur = a;
        for &l in &path {
            prop_assert_eq!(topo.link(l).src, cur);
            cur = topo.link(l).dst;
        }
        prop_assert_eq!(cur, b);
    }
}

// Byte-volume conservation through the failure lifecycle: flows hit by
// any number of fail→restore cycles on a path link are aborted,
// re-admitted, and still deliver exactly their byte volume — nothing is
// lost and nothing is double-counted across requeues.
proptest! {
    #[test]
    fn bytes_conserved_across_fail_restore_cycles(
        n_flows in 1usize..4,
        mb in 20u64..120,
        fail_us in 10u64..200,
        outage_ms in 1u64..12, // straddles the 4 ms RTO: stalls and aborts
        cycles in 1usize..3,
    ) {
        use astral_net::{FlowSpec, FlowState, NetConfig, NetworkSim, QpContext};
        use astral_sim::{SimDuration, SimTime};

        let topo = build_astral(&AstralParams::sim_small());
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        let bytes = mb * 1_000_000;
        let ids: Vec<_> = (0..n_flows)
            .map(|i| {
                let qp = sim.register_qp_auto(
                    topo.gpu_nic(GpuId(i as u32 * 4)),
                    topo.gpu_nic(GpuId((8 + i as u32) * 4)),
                    QpContext::anonymous(),
                );
                sim.inject(FlowSpec { qp, bytes, weight: 1.0 }).unwrap()
            })
            .collect();
        sim.run_until(SimTime::from_micros(5));
        // A mid-fabric link on the first flow's path (shared fabric, so
        // cycles may hit several flows at once).
        let victim = sim.stats(ids[0]).unwrap().path[1];
        for c in 0..cycles {
            let t0 = SimTime::from_micros(fail_us + c as u64 * 20_000);
            sim.fail_link_at(t0, victim);
            sim.restore_link_at(t0 + SimDuration::from_millis(outage_ms), victim);
        }
        sim.run_until_idle();
        for &id in &ids {
            let st = sim.stats(id).unwrap();
            prop_assert_eq!(st.state, FlowState::Done, "flow {:?} not done", id);
            prop_assert!(
                (st.delivered - bytes as f64).abs() < 1.0,
                "flow {:?} delivered {} of {}", id, st.delivered, bytes
            );
        }
    }
}

// Byte-volume conservation through the gray-failure lifecycle: partial
// degradation never kills a flow, only slows it, so any number of
// degrade→restore cycles — on a path link or on a whole host's ingress
// drains — must still deliver exactly the injected byte volume.
proptest! {
    #[test]
    fn bytes_conserved_across_degrade_restore_cycles(
        n_flows in 1usize..4,
        mb in 20u64..120,
        start_us in 10u64..200,
        frac_pct in 5u32..80,
        hold_ms in 1u64..12,
        cycles in 1usize..4,
        on_host_sel in 0u32..2,
    ) {
        use astral_net::{FlowSpec, FlowState, NetConfig, NetworkSim, QpContext};
        use astral_sim::{SimDuration, SimTime};

        let topo = build_astral(&AstralParams::sim_small());
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        let bytes = mb * 1_000_000;
        let ids: Vec<_> = (0..n_flows)
            .map(|i| {
                let qp = sim.register_qp_auto(
                    topo.gpu_nic(GpuId(i as u32 * 4)),
                    topo.gpu_nic(GpuId((8 + i as u32) * 4)),
                    QpContext::anonymous(),
                );
                sim.inject(FlowSpec { qp, bytes, weight: 1.0 }).unwrap()
            })
            .collect();
        sim.run_until(SimTime::from_micros(5));
        // Either a mid-fabric link on the first flow's path or the first
        // destination host's whole ingress (every rail's last hop).
        let victim = sim.stats(ids[0]).unwrap().path[1];
        let host = topo.hosts()[8].id;
        let frac = frac_pct as f64 / 100.0;
        let on_host = on_host_sel == 1;
        for c in 0..cycles {
            let t0 = SimTime::from_micros(start_us + c as u64 * 20_000);
            let t1 = t0 + SimDuration::from_millis(hold_ms);
            if on_host {
                sim.degrade_host_at(t0, host, frac);
                sim.restore_host_at(t1, host);
            } else {
                sim.degrade_link_at(t0, victim, frac);
                sim.restore_link_at(t1, victim);
            }
        }
        sim.run_until_idle();
        prop_assert!(
            sim.degraded_links().is_empty(),
            "restore must clear every degradation"
        );
        for &id in &ids {
            let st = sim.stats(id).unwrap();
            prop_assert_eq!(st.state, FlowState::Done, "flow {:?} not done", id);
            // Degrade cycles multiply the rate-change boundaries a flow
            // integrates across, so allow float accumulation at 1 ppm
            // (unlike the abort/re-admit path, which restarts the count).
            prop_assert!(
                (st.delivered - bytes as f64).abs() < 1e-6 * bytes as f64,
                "flow {:?} delivered {} of {}", id, st.delivered, bytes
            );
        }
    }
}

// ---------------------------------------------------------------------
// Incremental solver ≡ from-scratch oracle under churn
// ---------------------------------------------------------------------

/// One step of a randomized churn script.
#[derive(Debug, Clone, Copy)]
enum Churn {
    /// Inject a flow between two GPUs' NICs.
    Inject { src: u32, dst: u32, mb: u64 },
    /// Advance simulated time.
    Advance { us: u64 },
    /// Hard-fail a link on some live flow's path.
    Fail { pick: usize },
    /// Degrade a link on some live flow's path.
    Degrade { pick: usize, pct: u32 },
    /// Restore the most recently failed/degraded link.
    Restore,
}

fn churn_script() -> impl Strategy<Value = Vec<Churn>> {
    // The vendored proptest has no `prop_oneof`; pick the op kind from a
    // weighted selector and reuse the shared field pool. Injections and
    // advances dominate so scripts build up real concurrency.
    let op = (
        0u32..10,
        (0u32..256, 0u32..256),
        1u64..64,
        50u64..5_000,
        (0usize..8, 20u32..80),
    )
        .prop_map(|(kind, (src, dst), mb, us, (pick, pct))| match kind {
            0..=3 => Churn::Inject { src, dst, mb },
            4..=6 => Churn::Advance { us },
            7 => Churn::Fail { pick },
            8 => Churn::Degrade { pick, pct },
            _ => Churn::Restore,
        });
    prop::collection::vec(op, 4..24)
}

/// Apply one churn script to a simulator; returns the injected flow ids.
///
/// After every settled step `after_advance` sees the simulator, the flows
/// injected so far, and every link's capacity as the script's own
/// fail/degrade/restore ops set it (bits/s, before any PFC pause).
fn apply_churn(
    sim: &mut astral_net::NetworkSim<'_>,
    topo: &astral_topo::Topology,
    script: &[Churn],
    allow_degrade: bool,
    mut after_advance: impl FnMut(&astral_net::NetworkSim<'_>, &[astral_net::FlowId], &[f64]),
) -> Vec<astral_net::FlowId> {
    use astral_net::{FlowSpec, QpContext};
    use astral_sim::{SimDuration, SimTime};

    let mut ids = Vec::new();
    let mut touched: Vec<astral_topo::LinkId> = Vec::new();
    let orig: Vec<f64> = topo.links().iter().map(|l| l.bandwidth_bps).collect();
    let mut caps = orig.clone();
    let mut now = SimTime::ZERO;
    for &op in script {
        match op {
            Churn::Inject { src, dst, mb } => {
                if src == dst {
                    continue;
                }
                let qp = sim.register_qp_auto(
                    topo.gpu_nic(GpuId(src)),
                    topo.gpu_nic(GpuId(dst)),
                    QpContext::anonymous(),
                );
                if let Ok(id) = sim.inject_at(
                    now,
                    FlowSpec {
                        qp,
                        bytes: mb * 1_000_000,
                        weight: 1.0,
                    },
                ) {
                    ids.push(id);
                }
            }
            Churn::Advance { us } => {
                now += SimDuration::from_micros(us);
                sim.run_until(now);
                after_advance(sim, &ids, &caps);
            }
            Churn::Fail { pick } => {
                if ids.is_empty() {
                    continue;
                }
                let st = sim.stats(ids[pick % ids.len()]).unwrap();
                if let Some(&l) = st.path.first() {
                    sim.fail_link_at(now, l);
                    caps[l.index()] = 0.0;
                    touched.push(l);
                }
            }
            Churn::Degrade { pick, pct } => {
                if !allow_degrade || ids.is_empty() {
                    continue;
                }
                let st = sim.stats(ids[pick % ids.len()]).unwrap();
                // Mid-path fabric link, away from the NIC drains.
                if let Some(&l) = st.path.get(1) {
                    sim.degrade_link_at(now, l, pct as f64 / 100.0);
                    caps[l.index()] = orig[l.index()] * (pct as f64 / 100.0);
                    touched.push(l);
                }
            }
            Churn::Restore => {
                if let Some(l) = touched.pop() {
                    sim.restore_link_at(now, l);
                    caps[l.index()] = orig[l.index()];
                }
            }
        }
    }
    sim.run_until_idle();
    ids
}

proptest! {
    /// After every settled step of a churn sequence (inject/complete/fail/
    /// restore on a healthy fabric — the incremental path), the solver's
    /// per-flow rates equal a from-scratch `max_min_rates` run over the
    /// current active set and effective capacities.
    #[test]
    fn incremental_rates_match_oracle_under_churn(script in churn_script()) {
        use astral_net::{max_min_rates, NetConfig, NetworkSim};

        let topo = build_astral(&AstralParams::sim_small());
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        apply_churn(&mut sim, &topo, &script, false, |sim, ids, caps| {
            let (live, paths) = active_paths(sim, ids);
            let want = max_min_rates(caps, &paths, None);
            for (i, &id) in live.iter().enumerate() {
                let got = sim.current_rate(id).unwrap();
                let expect = if want[i].is_finite() { want[i] } else { 0.0 };
                assert!(
                    (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                    "flow {id:?}: solver {got} vs oracle {expect}"
                );
            }
        });
    }

    /// Under churn including degrade/restore (the PFC fixpoint path),
    /// every settled step matches a dense from-scratch reference: the
    /// simulator's fixpoint recomputed in the test over all links with
    /// `max_min_rates`, from the script's own link capacities.
    #[test]
    fn pfc_fixpoint_matches_dense_reference_under_churn(script in churn_script()) {
        use astral_net::{NetConfig, NetworkSim, PFC_HOL_FACTOR};

        let topo = build_astral(&AstralParams::sim_small());
        let mut sim = NetworkSim::new(&topo, NetConfig::default());
        let orig: Vec<f64> = topo.links().iter().map(|l| l.bandwidth_bps).collect();
        let ids = apply_churn(&mut sim, &topo, &script, true, |sim, ids, caps| {
            let (live, paths) = active_paths(sim, ids);
            let (rates, pause) = dense_pfc_fixpoint(&topo, caps, &orig, PFC_HOL_FACTOR, &paths);
            for (i, &id) in live.iter().enumerate() {
                let got = sim.current_rate(id).unwrap();
                let expect = if rates[i].is_finite() { rates[i] } else { 0.0 };
                assert!(
                    (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                    "flow {id:?}: simulator {got} vs dense reference {expect}"
                );
            }
            for (li, (&cap, &p)) in caps.iter().zip(&pause).enumerate() {
                let got = sim.effective_capacity(astral_topo::LinkId(li as u32));
                let expect = cap * (1.0 - p);
                assert!(
                    (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                    "link {li}: effective capacity {got} vs dense reference {expect}"
                );
            }
        });
        // The run must actually have exercised the solver.
        if !ids.is_empty() {
            let c = sim.solver_counters();
            prop_assert!(c.incremental_solves > 0 || c.full_solves > 0);
        }
    }
}

/// The flows the simulator reports `Active`, with their paths as link ids.
fn active_paths(
    sim: &astral_net::NetworkSim<'_>,
    ids: &[astral_net::FlowId],
) -> (Vec<astral_net::FlowId>, Vec<Vec<u32>>) {
    use astral_net::FlowState;
    ids.iter()
        .map(|&id| sim.stats(id).unwrap())
        .filter(|st| st.state == FlowState::Active)
        .map(|st| (st.id, st.path.iter().map(|l| l.0).collect()))
        .unzip()
}

/// Dense reference for the simulator's PFC fixpoint: up to four rounds of
/// `max_min_rates` over capacities scaled by the current pauses, each
/// followed by the head-of-line rule over every link. A degraded
/// (`0 < cap < 0.9·orig`), saturated (`used ≥ 0.98·cap`) drain pauses
/// each in-link of its source switch with severity
/// `(1 − cap/orig)·hol_factor`; a link keeps the largest severity it is
/// given. Returns the last round's rates and the pauses it produced.
fn dense_pfc_fixpoint(
    topo: &astral_topo::Topology,
    caps: &[f64],
    orig: &[f64],
    hol_factor: f64,
    paths: &[Vec<u32>],
) -> (Vec<f64>, Vec<f64>) {
    let nl = caps.len();
    let mut pause = vec![0.0f64; nl];
    let mut rates = Vec::new();
    for _ in 0..4 {
        let eff: Vec<f64> = caps
            .iter()
            .zip(&pause)
            .map(|(&c, &p)| if p > 0.0 { c * (1.0 - p) } else { c })
            .collect();
        rates = max_min_rates(&eff, paths, None);
        let mut used = vec![0.0f64; nl];
        for (path, &r) in paths.iter().zip(&rates) {
            if r.is_finite() {
                for &l in path {
                    used[l as usize] += r;
                }
            }
        }
        let mut next = vec![0.0f64; nl];
        for (ei, link) in topo.links().iter().enumerate() {
            let (cap, full) = (caps[ei], orig[ei]);
            let degraded = cap > 0.0 && cap < 0.9 * full;
            let saturated = cap > 0.0 && used[ei] >= 0.98 * cap;
            if degraded && saturated {
                let severity = (1.0 - cap / full) * hol_factor;
                for other in topo.links().iter().filter(|o| o.dst == link.src) {
                    let slot = &mut next[other.id.index()];
                    *slot = slot.max(severity);
                }
            }
        }
        let converged = next.iter().zip(&pause).all(|(a, b)| (a - b).abs() < 1e-9);
        pause = next;
        if converged {
            break;
        }
    }
    (rates, pause)
}

// ---------------------------------------------------------------------
// Pod-grouped fills ≡ oracle ≡ joint fills under churn
// ---------------------------------------------------------------------

proptest! {
    /// After every settled step of a churn sequence on the multi-pod
    /// fabric — injections spanning pods (joined through the boundary
    /// links) and fail/restore churn — the pod-grouped per-flow rates
    /// equal a from-scratch `max_min_rates` run over the current active
    /// set.
    #[test]
    fn sharded_rates_match_oracle_under_churn(script in churn_script()) {
        use astral_net::{max_min_rates, NetConfig, NetworkSim};

        let topo = build_astral(&AstralParams::sim_small());
        let mut sim = NetworkSim::new(
            &topo,
            NetConfig {
                sharded_solver: true,
                ..NetConfig::default()
            },
        );
        prop_assert!(
            sim.solver_is_sharded(),
            "sim_small must partition into pod domains"
        );
        apply_churn(&mut sim, &topo, &script, false, |sim, ids, caps| {
            let (live, paths) = active_paths(sim, ids);
            let want = max_min_rates(caps, &paths, None);
            for (i, &id) in live.iter().enumerate() {
                let got = sim.current_rate(id).unwrap();
                let expect = if want[i].is_finite() { want[i] } else { 0.0 };
                assert!(
                    (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                    "flow {id:?}: sharded solver {got} vs oracle {expect}"
                );
            }
        });
    }

    /// Pod-grouped and joint fills produce the same trajectory: identical
    /// per-flow rates at every settled step and identical final
    /// deliveries/FCTs, across churn including degrade/restore (whose PFC
    /// fixpoint runs joint full solves in both modes).
    #[test]
    fn sharded_equals_incremental_trajectory(script in churn_script()) {
        use astral_net::{FlowState, NetConfig, NetworkSim};

        let snapshot = |sim: &NetworkSim<'_>, ids: &[astral_net::FlowId]| -> Vec<f64> {
            ids.iter().map(|&id| sim.current_rate(id).unwrap()).collect()
        };

        let topo = build_astral(&AstralParams::sim_small());
        let mut global_steps: Vec<Vec<f64>> = Vec::new();
        let mut global = NetworkSim::new(&topo, NetConfig::default());
        let ids_g = apply_churn(&mut global, &topo, &script, true, |sim, ids, _| {
            global_steps.push(snapshot(sim, ids));
        });

        let mut sharded_steps: Vec<Vec<f64>> = Vec::new();
        let mut sharded = NetworkSim::new(
            &topo,
            NetConfig {
                sharded_solver: true,
                ..NetConfig::default()
            },
        );
        let ids_s = apply_churn(&mut sharded, &topo, &script, true, |sim, ids, _| {
            sharded_steps.push(snapshot(sim, ids));
        });

        prop_assert_eq!(ids_g.len(), ids_s.len());
        prop_assert_eq!(global_steps.len(), sharded_steps.len());
        for (k, (gs, ss)) in global_steps.iter().zip(&sharded_steps).enumerate() {
            prop_assert_eq!(gs.len(), ss.len());
            for (i, (g, s)) in gs.iter().zip(ss).enumerate() {
                prop_assert!(
                    (g - s).abs() <= 1e-12 * g.abs().max(1.0),
                    "step {}: flow #{} rate {} (global) vs {} (sharded)", k, i, g, s
                );
            }
        }
        for (&a, &b) in ids_g.iter().zip(&ids_s) {
            let (sa, sb) = (global.stats(a).unwrap(), sharded.stats(b).unwrap());
            prop_assert_eq!(sa.state, sb.state, "flow {:?} state diverged", a);
            prop_assert!(
                (sa.delivered - sb.delivered).abs() <= 1e-6 * sb.delivered.max(1.0),
                "flow {:?} delivered {} vs {}", a, sa.delivered, sb.delivered
            );
            if sa.state == FlowState::Done {
                let (fa, fb) = (sa.fct().unwrap(), sb.fct().unwrap());
                let (fa, fb) = (fa.as_secs_f64(), fb.as_secs_f64());
                prop_assert!(
                    (fa - fb).abs() <= 1e-6 * fb.max(1e-6),
                    "flow {:?} fct {} vs {}", a, fa, fb
                );
            }
        }
        // The sharded run must actually have exercised its solver.
        if !ids_s.is_empty() {
            let c = sharded.solver_counters();
            prop_assert!(c.incremental_solves > 0 || c.full_solves > 0);
        }
    }
}

// ---------------------------------------------------------------------
// The simulator's QP views ≡ a test-side model under churn
// ---------------------------------------------------------------------

/// One step of a QP-view churn script.
#[derive(Debug, Clone, Copy)]
enum QpChurn {
    /// Register a QP between two GPUs' NICs (possibly a loopback).
    Register {
        src: u32,
        dst: u32,
        sport: u16,
        job: u32,
    },
    /// Move a registered QP to another source port.
    Reassign { pick: usize, sport: u16 },
    /// Inject a flow on a registered QP.
    Inject { pick: usize, mb: u64 },
    /// Advance simulated time.
    Advance { us: u64 },
    /// Hard-fail one hop of a registered QP's current route.
    Fail { pick: usize, hop: usize },
    /// Restore the most recently failed link.
    Restore,
}

fn qp_churn_script() -> impl Strategy<Value = Vec<QpChurn>> {
    let op = (
        0u32..12,
        (0u32..64, 0u32..64),
        (49_152u16.., 0u32..4),
        (0usize..16, 0usize..8),
        (1u64..32, 50u64..3_000),
    )
        .prop_map(
            |(kind, (src, dst), (sport, job), (pick, hop), (mb, us))| match kind {
                0..=2 => QpChurn::Register {
                    src,
                    dst,
                    sport,
                    job,
                },
                3 | 4 => QpChurn::Reassign { pick, sport },
                5..=7 => QpChurn::Inject { pick, mb },
                8 | 9 => QpChurn::Advance { us },
                10 => QpChurn::Fail { pick, hop },
                _ => QpChurn::Restore,
            },
        );
    prop::collection::vec(op, 4..32)
}

/// The test's own record of one QP: what was registered, its current
/// source port, and the route its last routed flow was given.
struct ModelQp {
    src: astral_topo::NodeId,
    dst: astral_topo::NodeId,
    sport: u16,
    ctx: astral_net::QpContext,
    last_routed: Option<Vec<astral_topo::LinkId>>,
}

impl ModelQp {
    fn tuple(&self) -> astral_net::FiveTuple {
        use astral_net::{ip_of_nic, FiveTuple};
        FiveTuple::roce(ip_of_nic(self.src), ip_of_nic(self.dst), self.sport)
    }
}

/// Compare every QP view of `sim` with the model and with brute force:
/// the registry, each route view against a fresh `route()` walk, each
/// sFlow path against the last routed path, and the QPs crossing `probe`
/// against a filter over fresh walks.
fn check_qp_views(
    sim: &astral_net::NetworkSim<'_>,
    topo: &astral_topo::Topology,
    model: &[ModelQp],
    probe: &[astral_topo::LinkId],
) {
    use astral_net::{QpId, QpRecord};

    let records: Vec<QpRecord> = sim.qp_records().collect();
    assert_eq!(records.len(), model.len());
    let mut crossing = Vec::new();
    for (i, (rec, m)) in records.iter().zip(model).enumerate() {
        let qp = QpId(i as u64 + 1);
        let want = QpRecord {
            qp,
            tuple: m.tuple(),
            src_nic: m.src,
            dst_nic: m.dst,
            ctx: m.ctx,
        };
        assert_eq!(rec, &want);
        assert_eq!(sim.qp_record(qp).as_ref(), Some(&want));
        let fresh = sim.route(m.src, m.dst, &want.tuple);
        assert_eq!(sim.qp_route(qp), fresh, "route view of {qp}");
        let sflow = m.last_routed.as_ref().map(|p| {
            std::iter::once(m.src)
                .chain(p.iter().map(|&l| topo.link(l).dst))
                .collect::<Vec<_>>()
        });
        assert_eq!(sim.sflow_path(qp), sflow, "sFlow view of {qp}");
        if fresh.is_some_and(|p| p.iter().any(|l| probe.contains(l))) {
            crossing.push(qp);
        }
    }
    assert_eq!(sim.qps_crossing(probe), crossing);
    let unknown = QpId(model.len() as u64 + 1);
    assert!(sim.qp_record(unknown).is_none() && sim.qp_route(unknown).is_none());
    assert!(sim.sflow_path(unknown).is_none());
}

/// Drive one QP churn script on `sim`, keeping the model. Every choice
/// the script makes reads the model and fresh `route()` walks, never a
/// view, so a run with `check` off calls no view at all.
fn drive_qp_churn(
    sim: &mut astral_net::NetworkSim<'_>,
    topo: &astral_topo::Topology,
    script: &[QpChurn],
    check: bool,
) {
    use astral_net::{FlowSpec, QpContext, QpId};
    use astral_sim::{SimDuration, SimTime};

    let mut model: Vec<ModelQp> = Vec::new();
    let mut failed: Vec<astral_topo::LinkId> = Vec::new();
    let mut now = SimTime::ZERO;
    for (step, &op) in script.iter().enumerate() {
        match op {
            QpChurn::Register {
                src,
                dst,
                sport,
                job,
            } => {
                let (sg, dg) = (GpuId(src), GpuId(dst));
                let ctx = QpContext::for_job(job, step as u32, sg, dg);
                let (src, dst) = (topo.gpu_nic(sg), topo.gpu_nic(dg));
                let qp = sim.register_qp(src, dst, sport, ctx);
                assert_eq!(qp, QpId(model.len() as u64 + 1));
                model.push(ModelQp {
                    src,
                    dst,
                    sport,
                    ctx,
                    last_routed: None,
                });
            }
            QpChurn::Reassign { pick, sport } if !model.is_empty() => {
                let i = pick % model.len();
                sim.reassign_sport(QpId(i as u64 + 1), sport);
                model[i].sport = sport;
            }
            QpChurn::Inject { pick, mb } if !model.is_empty() => {
                let i = pick % model.len();
                let spec = FlowSpec {
                    qp: QpId(i as u64 + 1),
                    bytes: mb * 1_000_000,
                    weight: 1.0,
                };
                let route = sim.route(model[i].src, model[i].dst, &model[i].tuple());
                let id = sim.inject_at(now, spec);
                assert_eq!(id.is_ok(), route.is_some());
                if route.is_some() {
                    model[i].last_routed = route;
                }
            }
            QpChurn::Advance { us } => {
                now += SimDuration::from_micros(us);
                sim.run_until(now);
            }
            QpChurn::Fail { pick, hop } if !model.is_empty() => {
                let m = &model[pick % model.len()];
                let route = sim.route(m.src, m.dst, &m.tuple()).unwrap_or_default();
                if !route.is_empty() {
                    let l = route[hop % route.len()];
                    sim.fail_link_at(now, l);
                    failed.push(l);
                }
            }
            QpChurn::Restore => {
                if let Some(l) = failed.pop() {
                    sim.restore_link_at(now, l);
                }
            }
            _ => {}
        }
        if check && !model.is_empty() {
            // Probe the failed links plus one hop of one QP's route.
            let m = &model[step % model.len()];
            let mut probe = failed.clone();
            let route = sim.route(m.src, m.dst, &m.tuple()).unwrap_or_default();
            probe.extend(route.get(step % route.len().max(1)));
            check_qp_views(sim, topo, &model, &probe);
        }
    }
    sim.run_until_idle();
    if check {
        check_qp_views(sim, topo, &model, &failed);
    }
}

proptest! {
    /// The QP registry, route, sFlow and blast-radius views read the
    /// simulator's one QP table and agree, after every step of random
    /// register / reassign / inject / fail / restore churn, with a
    /// test-side model and with fresh ECMP walks — on Astral, where every
    /// pair routes, and on a rail-only fabric, where cross-rail QPs have
    /// no route. Reading the views changes nothing: a twin run that never
    /// calls them ends with the same solver counters (arena high-water
    /// mark included) and the same trace.
    #[test]
    fn qp_views_match_model_and_leave_the_sim_untouched(
        script in qp_churn_script(),
        rail_only in any::<bool>(),
    ) {
        use astral_net::{NetConfig, NetworkSim};

        let topo = if rail_only {
            let mut p = AstralParams::sim_small();
            p.pods = 1;
            astral_topo::build_rail_only(&p)
        } else {
            build_astral(&AstralParams::sim_small())
        };
        let cfg = NetConfig {
            trace: true,
            ..NetConfig::default()
        };
        let mut viewed = NetworkSim::new(&topo, cfg);
        drive_qp_churn(&mut viewed, &topo, &script, true);
        let mut twin = NetworkSim::new(&topo, cfg);
        drive_qp_churn(&mut twin, &topo, &script, false);
        prop_assert_eq!(viewed.solver_counters(), twin.solver_counters());
        let (a, b) = (viewed.take_trace(), twin.take_trace());
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(astral_trace::fingerprint(&a), astral_trace::fingerprint(&b));
    }
}

// ---------------------------------------------------------------------
// Retiring finished flows changes nothing a caller can observe
// ---------------------------------------------------------------------

/// One step of a retire script.
#[derive(Debug, Clone, Copy)]
enum RetireOp {
    /// Inject a flow on one of the script's QPs at the script clock.
    Inject { qp: usize, mb: u64 },
    /// Advance the script clock and run to it.
    Advance { us: u64 },
    /// Run until no events remain.
    Idle,
    /// Retire finished flows (the retiring sim only).
    Retire,
    /// Hard-fail a fabric link on some injected flow's path.
    Fail { pick: usize },
    /// Restore the most recently failed link.
    Restore,
}

fn retire_script() -> impl Strategy<Value = Vec<RetireOp>> {
    let op =
        (0u32..12, 0usize..64, 1u64..32, 100u64..3_000).prop_map(
            |(kind, pick, mb, us)| match kind {
                0..=3 => RetireOp::Inject { qp: pick, mb },
                4 | 5 => RetireOp::Advance { us },
                6 => RetireOp::Idle,
                7 | 8 => RetireOp::Retire,
                9 | 10 => RetireOp::Fail { pick },
                _ => RetireOp::Restore,
            },
        );
    prop::collection::vec(op, 4..40)
}

/// A flow event keyed by the flow's sequence number, which the retiring
/// sim and its twin share (their slots differ).
fn event_key(e: astral_net::FlowEvent) -> (bool, u32, astral_net::QpId, astral_sim::SimTime) {
    match e {
        astral_net::FlowEvent::Aborted { flow, qp, at } => (true, flow.seq(), qp, at),
        astral_net::FlowEvent::Requeued { flow, qp, at } => (false, flow.seq(), qp, at),
    }
}

proptest! {
    /// A simulator that retires finished flows runs exactly like a twin
    /// that never does. Scripts inject onto eight shared QPs, run, fail
    /// and restore fabric links — so `Failed` flows live across retires
    /// and are requeued later, into a table with reused slots — and
    /// retire at random points. After every step both report the same
    /// flow events, and every flow is either retired in the retiring sim
    /// (a typed error from every query, and `Done` in the twin) or has
    /// the same stats and rate in both. At the end both hold the same
    /// trace, telemetry and solver counters.
    #[test]
    fn retiring_sim_matches_a_twin_that_never_retires(script in retire_script()) {
        use astral_net::{FlowSpec, FlowState, NetConfig, NetError, NetworkSim, QpContext};
        use astral_sim::{SimDuration, SimTime};
        use std::collections::BTreeSet;

        let topo = build_astral(&AstralParams::sim_small());
        let cfg = NetConfig {
            trace: true,
            ..NetConfig::default()
        };
        let mut ret = NetworkSim::new(&topo, cfg);
        let mut twin = NetworkSim::new(&topo, cfg);
        let mut qps = Vec::new();
        for i in 0..8u32 {
            let dst = if i < 4 { (8 + i) * 4 } else { 128 + i * 4 };
            let (s, d) = (topo.gpu_nic(GpuId(i * 4)), topo.gpu_nic(GpuId(dst)));
            qps.push(ret.register_qp_auto(s, d, QpContext::anonymous()));
            prop_assert_eq!(twin.register_qp_auto(s, d, QpContext::anonymous()), qps[i as usize]);
        }
        let mut flows = Vec::new();
        let mut retired: BTreeSet<u32> = BTreeSet::new();
        let mut failed = Vec::new();
        let mut now = SimTime::ZERO;
        let last = script.len();
        for (step, &op) in script.iter().enumerate() {
            match op {
                RetireOp::Inject { qp, mb } => {
                    let spec = FlowSpec {
                        qp: qps[qp % qps.len()],
                        bytes: mb * 1_000_000,
                        weight: 1.0,
                    };
                    let (r, t) = (ret.inject_at(now, spec), twin.inject_at(now, spec));
                    let (r, t) = (r.expect("routed"), t.expect("routed"));
                    prop_assert_eq!(r.seq(), t.seq());
                    flows.push((r, t));
                }
                RetireOp::Advance { us } => {
                    now += SimDuration::from_micros(us);
                    ret.run_until(now);
                    twin.run_until(now);
                }
                RetireOp::Idle => {
                    ret.run_until_idle();
                    twin.run_until_idle();
                    now = now.max(twin.now());
                }
                RetireOp::Retire => {
                    let done: Vec<u32> = flows
                        .iter()
                        .filter(|&&(_, t)| twin.flow_outcome(t).unwrap().0 == FlowState::Done)
                        .map(|&(_, t)| t.seq())
                        .filter(|s| !retired.contains(s))
                        .collect();
                    prop_assert_eq!(ret.retire_finished(), done.len());
                    retired.extend(done);
                }
                RetireOp::Fail { pick } if !flows.is_empty() => {
                    let t = flows[pick % flows.len()].1;
                    if let Some(&l) = twin.stats(t).unwrap().path.get(1) {
                        ret.fail_link_at(now, l);
                        twin.fail_link_at(now, l);
                        failed.push(l);
                    }
                }
                RetireOp::Fail { .. } => {}
                RetireOp::Restore => {
                    if let Some(l) = failed.pop() {
                        ret.restore_link_at(now, l);
                        twin.restore_link_at(now, l);
                    }
                }
            }
            if step + 1 == last {
                ret.run_until_idle();
                twin.run_until_idle();
            }
            let (er, et) = (ret.drain_flow_events(), twin.drain_flow_events());
            prop_assert_eq!(
                er.into_iter().map(event_key).collect::<Vec<_>>(),
                et.into_iter().map(event_key).collect::<Vec<_>>()
            );
            for &(r, t) in &flows {
                let want = twin.stats(t).unwrap();
                if retired.contains(&t.seq()) {
                    prop_assert_eq!(want.state, FlowState::Done);
                    let gone = NetError::RetiredFlow(r);
                    prop_assert_eq!(ret.stats(r).err(), Some(gone));
                    prop_assert_eq!(ret.flow_outcome(r).err(), Some(gone));
                    prop_assert_eq!(ret.current_rate(r).err(), Some(gone));
                    continue;
                }
                let got = ret.stats(r).unwrap();
                prop_assert_eq!(
                    (got.qp, got.bytes, got.delivered.to_bits(), got.start, got.finish),
                    (want.qp, want.bytes, want.delivered.to_bits(), want.start, want.finish)
                );
                prop_assert_eq!((got.state, got.path), (want.state, want.path));
                prop_assert_eq!(
                    ret.current_rate(r).unwrap().to_bits(),
                    twin.current_rate(t).unwrap().to_bits()
                );
            }
            let live: Vec<u32> = ret.all_stats().iter().map(|s| s.id.seq()).collect();
            let want: Vec<u32> = flows
                .iter()
                .map(|&(_, t)| t.seq())
                .filter(|s| !retired.contains(s))
                .collect();
            prop_assert_eq!(live, want);
        }
        prop_assert_eq!(ret.now(), twin.now());
        prop_assert_eq!(ret.take_trace(), twin.take_trace());
        prop_assert_eq!(ret.solver_counters(), twin.solver_counters());
        let (a, b) = (ret.telemetry(), twin.telemetry());
        prop_assert!(a.qp_bytes.iter().eq(b.qp_bytes.iter()));
        prop_assert_eq!(&a.err_cqe, &b.err_cqe);
        prop_assert_eq!(&a.link_flaps, &b.link_flaps);
        prop_assert_eq!(format!("{:?}", a.link), format!("{:?}", b.link));
    }
}

//! Property-based tests over the topology builders and router.

use astral_topo::{
    build_astral, build_clos, build_rail_optimized, AstralParams, BaselineParams, GpuId, NodeKind,
    Phase, Router,
};
use proptest::prelude::*;

/// Strategy over small-but-varied Astral parameter sets.
fn params_strategy() -> impl Strategy<Value = AstralParams> {
    (1u16..=2, 2u16..=4, 1u8..=4, 1u8..=2).prop_map(|(pods, blocks, rails, tors)| {
        let mut p = AstralParams::sim_small();
        p.pods = pods;
        p.blocks_per_pod = blocks;
        p.hosts_per_block = 4; // keep aggs_per_group = 2 integral
        p.rails = rails;
        p.tors_per_rail = tors;
        p
    })
}

// The default configuration, so `ASTRAL_PROPTEST_CASES` can widen a run:
// with debug assertions on, every walk below also checks each hop's
// candidates against the reference adjacency scan.
proptest! {
    /// Every generated fabric validates and satisfies P2 (identical tier
    /// bandwidth).
    #[test]
    fn astral_builder_invariants(p in params_strategy()) {
        let t = build_astral(&p);
        prop_assert_eq!(t.validate(), Ok(()));
        prop_assert_eq!(t.gpu_count() as u64, p.scale().gpus_total);
        let t01 = t.tier_bandwidth(0, 1);
        let t12 = t.tier_bandwidth(1, 2);
        let t23 = t.tier_bandwidth(2, 3);
        prop_assert!((t01 - t12).abs() / t01 < 1e-9);
        prop_assert!((t12 - t23).abs() / t12 < 1e-9);
    }

    /// Router paths are connected, valley-free, loop-free, and match the
    /// reported distance, for arbitrary GPU pairs and arbitrary ECMP choices.
    #[test]
    fn router_paths_are_sound(
        p in params_strategy(),
        ga in 0u32..64,
        gb in 0u32..64,
        choice_seed in any::<u64>(),
    ) {
        let t = build_astral(&p);
        let n = t.gpu_count();
        let (ga, gb) = (GpuId(ga % n), GpuId(gb % n));
        let (a, b) = (t.gpu_nic(ga), t.gpu_nic(gb));
        let r = Router::new();
        let mut state = choice_seed;
        let path = r.path_with(&t, a, b, |_, hops| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % hops.len()
        });
        let path = path.expect("astral is fully connected");
        let dist = r.distance(&t, a, b).unwrap();
        prop_assert_eq!(path.len() as u16, dist);

        let mut cur = a;
        let mut went_down = false;
        let mut visited = std::collections::BTreeSet::new();
        for &l in &path {
            let link = t.link(l);
            prop_assert_eq!(link.src, cur);
            prop_assert!(visited.insert(link.src), "loop detected");
            let (ts, td) = (t.node(link.src).kind.tier(), t.node(link.dst).kind.tier());
            if td > ts {
                prop_assert!(!went_down, "valley routing");
            } else {
                went_down = true;
            }
            cur = link.dst;
        }
        prop_assert_eq!(cur, b);
    }

    /// All equal-cost candidates at every step lead to paths of equal total
    /// length (ECMP consistency).
    #[test]
    fn ecmp_candidates_are_truly_equal_cost(
        p in params_strategy(),
        ga in 0u32..64,
        gb in 0u32..64,
    ) {
        let t = build_astral(&p);
        let n = t.gpu_count();
        let (ga, gb) = (GpuId(ga % n), GpuId(gb % n));
        let (a, b) = (t.gpu_nic(ga), t.gpu_nic(gb));
        if a == b { return Ok(()); }
        let r = Router::new();
        let total = r.distance(&t, a, b).unwrap() as usize;
        // First-hop candidates: following any of them with first-choice
        // thereafter must complete in total-1 further hops.
        for hop in r.next_hops(&t, a, Phase::Up, b) {
            let mid = t.link(hop.link).dst;
            if mid == b { continue; }
            // Walk from mid with deterministic choices.
            let field_dist = match hop.phase {
                Phase::Up => r.dist_field(&t, b).up(mid),
                Phase::Down => r.dist_field(&t, b).down(mid),
            };
            prop_assert_eq!(field_dist, Some((total - 1) as u16));
        }
    }

    /// Baselines validate and keep host injection bandwidth identical to
    /// Astral for the same geometry.
    #[test]
    fn baselines_validate(oversub in 1.0f64..8.0) {
        let bp = BaselineParams::sim_small(oversub);
        for t in [build_clos(&bp), build_rail_optimized(&bp)] {
            prop_assert_eq!(t.validate(), Ok(()));
            let astral = build_astral(&bp.base);
            prop_assert!((t.tier_bandwidth(0, 1) - astral.tier_bandwidth(0, 1)).abs() < 1.0);
            // Oversubscription shows up at tier 3 only.
            let ratio = t.tier_bandwidth(1, 2) / t.tier_bandwidth(2, 3);
            prop_assert!((ratio - oversub).abs() / oversub < 1e-6);
        }
    }

    /// GPU ↔ NIC geometry is a bijection onto NIC nodes.
    #[test]
    fn gpu_nic_mapping_is_bijective(p in params_strategy()) {
        let t = build_astral(&p);
        let mut seen = std::collections::BTreeSet::new();
        for g in 0..t.gpu_count() {
            let nic = t.gpu_nic(GpuId(g));
            let is_nic = matches!(t.node(nic).kind, NodeKind::Nic { .. });
            prop_assert!(is_nic);
            prop_assert!(seen.insert(nic), "two GPUs share a NIC");
        }
        prop_assert_eq!(seen.len(), t.tier_count(0));
    }
}

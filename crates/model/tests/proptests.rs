//! Property-based tests for model configs, parallelism, and graphs.

use astral_model::{build_training_iteration, chakra, ModelConfig, ParallelismConfig};
use proptest::prelude::*;

fn small_model(layers: u32) -> ModelConfig {
    let mut m = ModelConfig::llama3_8b();
    m.layers = layers;
    m.hidden = 512;
    m.heads = 8;
    m.kv_heads = 2;
    m.ffn_hidden = 2048;
    m.vocab = 8192;
    m.seq_len = 256;
    m
}

proptest! {
    /// Rank ↔ coordinate mapping is a bijection for arbitrary layouts.
    #[test]
    fn rank_mapping_bijective(tp in 1u32..5, pp in 1u32..5, dp in 1u32..5) {
        let c = ParallelismConfig::new(tp, pp, dp);
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..c.world() {
            let (p, d, t) = c.coords_of(r);
            prop_assert!(p < pp && d < dp && t < tp);
            prop_assert_eq!(c.rank_of(p, d, t), r);
            prop_assert!(seen.insert((p, d, t)));
        }
    }

    /// Every generated training graph is a valid DAG whose comm ops carry
    /// positive byte counts and whose send/recv counts match.
    #[test]
    fn training_graphs_are_valid(
        pp in 1u32..4,
        tp in 1u32..4,
        dp in 1u32..3,
        mb in 1u32..5,
    ) {
        let m = small_model(pp * 2);
        let mut par = ParallelismConfig::new(tp, pp, dp);
        par.microbatches = mb;
        let g = build_training_iteration(&m, &par);
        prop_assert_eq!(g.validate(), Ok(()));
        let mut sends = 0usize;
        let mut recvs = 0usize;
        for op in &g.ops {
            if let astral_model::OpKind::Comm { bytes, coll, .. } = op.kind {
                prop_assert!(bytes > 0, "empty comm op {}", op.name);
                match coll {
                    astral_model::Collective::Send => sends += 1,
                    astral_model::Collective::Recv => recvs += 1,
                    _ => {}
                }
            }
        }
        prop_assert_eq!(sends, recvs);
        prop_assert_eq!(sends, 2 * (pp as usize - 1) * mb as usize);
    }

    /// Graph FLOPs scale linearly with microbatch count.
    #[test]
    fn flops_scale_with_microbatches(mb in 1u32..6) {
        let m = small_model(4);
        let mut p1 = ParallelismConfig::new(1, 2, 1);
        p1.microbatches = mb;
        let mut p2 = p1;
        p2.microbatches = 2 * mb;
        let f1 = build_training_iteration(&m, &p1).total_flops();
        let f2 = build_training_iteration(&m, &p2).total_flops();
        prop_assert!((f2 / f1 - 2.0).abs() < 1e-9);
    }

    /// Chakra JSON round trip is lossless for arbitrary generated graphs.
    #[test]
    fn chakra_round_trip(pp in 1u32..3, mb in 1u32..4) {
        let m = small_model(pp * 2);
        let mut par = ParallelismConfig::new(2, pp, 2);
        par.microbatches = mb;
        let g = build_training_iteration(&m, &par);
        let back = chakra::from_json(&chakra::to_json(&g)).unwrap();
        prop_assert_eq!(back.len(), g.len());
        prop_assert_eq!(back.total_flops(), g.total_flops());
        prop_assert_eq!(back.total_comm_bytes(), g.total_comm_bytes());
        prop_assert_eq!(back.total_mem_bytes(), g.total_mem_bytes());
    }

    /// Parameter count is monotone in every size knob.
    #[test]
    fn params_monotone(extra_layers in 1u32..32, extra_hidden in 1u64..16) {
        let base = small_model(4);
        let mut more_layers = base.clone();
        more_layers.layers += extra_layers;
        let mut wider = base.clone();
        wider.hidden += extra_hidden * 64;
        prop_assert!(more_layers.param_count() > base.param_count());
        prop_assert!(wider.param_count() > base.param_count());
    }
}

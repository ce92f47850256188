//! Pins the operator graphs the model builder emits. Every model template
//! is built over several layouts, training and inference, and every op's
//! name, device, kind (floats as their bits) and dependency list is folded
//! into one digest. Between them the cases take every branch of the
//! builder both ways: `tp`, `pp` and `dp` of 1 and above, `ep > 1` on a
//! MoE template, all three `DpSync` modes, `overlap_grad_sync` on and off,
//! gated and non-gated FFNs, and decode with and without a KV-cache load.
//! Two small models with odd sizes run at a `tp` that is not a power of
//! two, so that reordering the operands of a flops product changes its
//! bits: the templates' power-of-two sizes keep most such products exact.
//! One more case, pinned on its own, is chosen so that `0.4 * tokens` in
//! the backward attention flops rounds, and regrouping that product moves
//! the result's last bit. So a change to op order, naming, arithmetic or
//! wiring changes a digest.

use astral::model::{
    build_inference, build_training_iteration, DpSync, InferencePhase, ModelConfig, MoeConfig,
    OpKind, OperatorGraph, ParallelismConfig,
};
use astral::sim::Digest;

/// Digest of every case's graph. A refactor of the builder must leave it
/// unchanged; a deliberate change of the graphs re-records it and says why.
const MODEL_GRAPH_DIGEST: u64 = 0x4d0f_3520_7796_49e2;

/// Digest of [`backward_rounding_case`]'s graph.
const BACKWARD_ROUNDING_DIGEST: u64 = 0xadef_f17c_1e95_fac1;

fn layout(tp: u32, pp: u32, dp: u32, ep: u32, zero: DpSync, overlap: bool) -> ParallelismConfig {
    let mut par = ParallelismConfig::new(tp, pp, dp);
    par.ep = ep;
    par.zero = zero;
    par.overlap_grad_sync = overlap;
    par
}

/// `par` with `mbs` sequences per microbatch.
fn micro(mut par: ParallelismConfig, mbs: u32) -> ParallelismConfig {
    par.micro_batch_size = mbs;
    par
}

/// A two-layer model whose sizes have odd factors.
fn odd_model(moe: Option<MoeConfig>) -> ModelConfig {
    ModelConfig {
        name: "odd".into(),
        layers: 2,
        hidden: 1100,
        heads: 11,
        kv_heads: 1,
        ffn_hidden: 2931,
        vocab: 30011,
        seq_len: 1009,
        dtype_bytes: 2,
        gated_ffn: moe.is_some(),
        moe,
    }
}

fn odd_moe() -> ModelConfig {
    odd_model(Some(MoeConfig {
        experts: 7,
        top_k: 3,
        expert_ffn_hidden: 901,
    }))
}

/// Training cases: (model, layout).
fn training_cases() -> Vec<(ModelConfig, ParallelismConfig)> {
    use DpSync::{AllReduce, Zero1, Zero3};
    vec![
        (
            ModelConfig::llama3_70b(),
            layout(8, 8, 2, 1, AllReduce, true),
        ),
        (ModelConfig::llama3_70b(), layout(8, 4, 4, 1, Zero3, false)),
        (
            ModelConfig::llama3_8b(),
            layout(1, 1, 1, 1, AllReduce, false),
        ),
        (ModelConfig::llama3_8b(), layout(2, 2, 4, 1, Zero1, true)),
        (ModelConfig::llama2_70b(), layout(4, 2, 4, 1, Zero1, false)),
        (ModelConfig::gpt3_175b(), layout(8, 4, 2, 1, Zero3, true)),
        (
            ModelConfig::gpt3_175b(),
            layout(1, 2, 1, 1, AllReduce, true),
        ),
        (
            ModelConfig::hunyuan_moe_1t(),
            layout(2, 4, 4, 4, AllReduce, true),
        ),
        (
            ModelConfig::hunyuan_moe_1t(),
            layout(1, 2, 2, 1, Zero3, false),
        ),
        (
            ModelConfig::deepseek_r1_like(),
            layout(4, 1, 8, 8, Zero1, true),
        ),
        (odd_model(None), micro(layout(3, 2, 3, 1, Zero3, true), 2)),
        (odd_moe(), layout(7, 2, 3, 3, AllReduce, false)),
    ]
}

/// The odd dense model at `tp` 7 with three sequences per microbatch:
/// per-layer backward flops `f` and `tokens` for which
/// `2.0 * f * 0.4 * tokens` and `2.0 * f * (0.4 * tokens)` differ.
fn backward_rounding_case() -> (ModelConfig, ParallelismConfig) {
    let par = micro(layout(7, 1, 1, 1, DpSync::AllReduce, false), 3);
    (odd_model(None), par)
}

/// Inference cases: (model, layout, batch, phase).
fn inference_cases() -> Vec<(ModelConfig, ParallelismConfig, u64, InferencePhase)> {
    let prefill = InferencePhase::Prefill { prompt_len: 2048 };
    let decode = InferencePhase::Decode { context_len: 4096 };
    // A context no longer than the batch reads no KV cache.
    let short_decode = InferencePhase::Decode { context_len: 8 };
    let dense = layout(8, 2, 1, 1, DpSync::AllReduce, true);
    let odd = layout(7, 2, 3, 3, DpSync::AllReduce, true);
    vec![
        (ModelConfig::llama3_70b(), dense, 8, prefill),
        (ModelConfig::llama3_70b(), dense, 8, decode),
        (
            ModelConfig::llama3_8b(),
            layout(1, 1, 1, 1, DpSync::Zero3, true),
            8,
            decode,
        ),
        (ModelConfig::llama3_8b(), dense, 16, short_decode),
        (
            ModelConfig::gpt3_175b(),
            layout(8, 4, 1, 1, DpSync::AllReduce, true),
            4,
            prefill,
        ),
        (
            ModelConfig::hunyuan_moe_1t(),
            layout(2, 2, 4, 4, DpSync::AllReduce, true),
            8,
            decode,
        ),
        (
            ModelConfig::deepseek_r1_like(),
            layout(4, 1, 1, 1, DpSync::AllReduce, true),
            2,
            prefill,
        ),
        (
            odd_model(None),
            odd,
            3,
            InferencePhase::Prefill { prompt_len: 999 },
        ),
        (
            odd_moe(),
            odd,
            5,
            InferencePhase::Decode { context_len: 1003 },
        ),
    ]
}

fn fold_graph(d: &mut Digest, g: &OperatorGraph) {
    d.write_u32(g.devices);
    d.write_u64(g.ops.len() as u64);
    for op in &g.ops {
        d.write_u32(op.id.0);
        d.write_str(&op.name);
        d.write_u32(op.device);
        match op.kind {
            OpKind::Compute { flops } => {
                d.write_u8(0);
                d.write_f64(flops);
            }
            OpKind::Memory { bytes } => {
                d.write_u8(1);
                d.write_u64(bytes);
            }
            OpKind::Fused { flops, bytes } => {
                d.write_u8(2);
                d.write_f64(flops);
                d.write_u64(bytes);
            }
            OpKind::Comm {
                coll,
                group,
                group_size,
                bytes,
            } => {
                d.write_u8(3);
                d.write_str(&format!("{coll:?}/{group:?}"));
                d.write_u32(group_size);
                d.write_u64(bytes);
            }
        }
        d.write_u64(op.deps.len() as u64);
        for dep in &op.deps {
            d.write_u32(dep.0);
        }
    }
}

#[test]
fn every_template_keeps_its_operator_graph() {
    let mut d = Digest::new();
    let mut ops = 0;
    for (model, par) in training_cases() {
        let g = build_training_iteration(&model, &par);
        ops += g.len();
        fold_graph(&mut d, &g);
    }
    for (model, par, batch, phase) in inference_cases() {
        let g = build_inference(&model, &par, batch, phase);
        ops += g.len();
        fold_graph(&mut d, &g);
    }
    assert_eq!(
        d.finish(),
        MODEL_GRAPH_DIGEST,
        "operator graphs changed ({ops} ops): got {:#018x}",
        d.finish()
    );
}

#[test]
fn backward_flops_keep_their_grouping() {
    let (model, par) = backward_rounding_case();
    let g = build_training_iteration(&model, &par);
    let mut d = Digest::new();
    fold_graph(&mut d, &g);
    assert_eq!(
        d.finish(),
        BACKWARD_ROUNDING_DIGEST,
        "operator graph changed ({} ops): got {:#018x}",
        g.len(),
        d.finish()
    );
}

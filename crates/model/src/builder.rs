//! Operator-graph construction for training and inference iterations.
//!
//! Reproduces Seer's "operator dependency generation" (paper §4.3): a
//! training iteration becomes a DAG of Table-1 operators per pipeline stage
//! and microbatch, sequenced by the 1F1B (PipeDream-flush) schedule, wired
//! across stages through PPSend/PPRecv pairs, and closed by the DP gradient
//! synchronization dictated by the ZeRO mode. Inference builders produce
//! prefill (compute-bound) and decode (memory-bound, KV-cache) graphs.
//!
//! Table 1's forward rows are data, [`TABLE1`]: each row carries the
//! formula of the op it emits, and a forward layer is a loop over the
//! layer rows. Ops the table does not list (the backward pass, decode's
//! KV-cache read, a non-gated or MoE FFN, DP sync) keep their formulas
//! here.

use std::ops::Range;

use crate::config::ModelConfig;
use crate::ops::{Collective, GroupKind, OpId, OpKind, OperatorGraph};
use crate::parallel::{DpSync, ParallelismConfig};

/// Inference phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferencePhase {
    /// Prompt processing: all prompt tokens at once.
    Prefill {
        /// Prompt length in tokens.
        prompt_len: u64,
    },
    /// Autoregressive generation: one token per sequence per step.
    Decode {
        /// Current context (KV cache) length.
        context_len: u64,
    },
}

/// One forward row of the paper's Table 1 (LLaMA-3 operators in Seer).
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Table section: `"Input Embedding"`, `"Transformer Layer"` or
    /// `"Output Layer"`.
    pub section: &'static str,
    /// Operator family; every op the row emits is named `{name}@…`.
    pub name: &'static str,
    /// The paper's type label, spelled as [`OpKind::type_label`] spells it.
    pub label: &'static str,
    /// The op the row emits in a forward or inference pass, or `None` where
    /// the layout or model has no such op (a TP collective at `tp == 1`, the
    /// SwiGLU rows of a non-gated or MoE FFN).
    kind: fn(&Pass<'_>) -> Option<OpKind>,
}

const fn row(
    section: &'static str,
    name: &'static str,
    label: &'static str,
    kind: fn(&Pass<'_>) -> Option<OpKind>,
) -> Table1Row {
    Table1Row {
        section,
        name,
        label,
        kind,
    }
}

const EMBED: &str = "Input Embedding";
const LAYER: &str = "Transformer Layer";
const OUTPUT: &str = "Output Layer";

/// Table 1's 17 forward rows, in the paper's order. Stage 0 opens a
/// forward pass with the embedding rows, every stage runs the layer rows
/// once per layer, the last stage closes with `Logit`, and `PPRecv` and
/// `PPSend` cross the stage boundaries.
pub const TABLE1: [Table1Row; 17] = [
    row(EMBED, "LoadWeight", "Mem.", |p| {
        mem(p.model.embedding_params() * p.dt / p.tp)
    }),
    row(EMBED, "EmbeddingComputation", "Comp.", |p| {
        comp(p.tokens as f64 * p.h as f64)
    }),
    row(LAYER, "PPRecv", "Comm.", |p| p.boundary(Collective::Recv)),
    row(LAYER, "RMSNormLoadWeight", "Mem.", |p| mem(p.h * p.dt)),
    row(LAYER, "RMSNormComputation", "Comp.", |p| {
        comp(4.0 * p.tokens as f64 * p.h as f64)
    }),
    row(LAYER, "GQAQKVLoadWeight", "Mem.", |p| {
        mem(p.h * (p.h + 2 * p.kv) * p.dt / p.tp)
    }),
    row(LAYER, "GQAQKVComputation", "Comp.", |p| {
        comp(p.tokens as f64 * 2.0 * (p.h * (p.h + 2 * p.kv)) as f64 / p.tp as f64)
    }),
    row(LAYER, "GQACoreAttn", "Comp.", |p| {
        comp(p.tokens as f64 * 4.0 * p.attn_ctx as f64 * p.h as f64 / p.tp as f64)
    }),
    row(LAYER, "GQAAttnProjLoadWeight", "Mem.", |p| {
        mem(p.h * p.h * p.dt / p.tp)
    }),
    row(LAYER, "GQAAttnProjComputation", "Comp.", |p| {
        comp(p.tokens as f64 * 2.0 * (p.h * p.h) as f64 / p.tp as f64)
    }),
    row(LAYER, "AttnTPAllReduce", "Comm.", |p| p.tp_all_reduce()),
    row(LAYER, "SwiMLPUpProj", "Mem. + Comp.", |p| p.swiglu_proj()),
    row(LAYER, "SwiMLPGateProj", "Mem. + Comp.", |p| p.swiglu_proj()),
    row(LAYER, "SwiMLPDownProj", "Mem. + Comp.", |p| p.swiglu_proj()),
    row(LAYER, "MLPTPAllReduce", "Comm.", |p| p.tp_all_reduce()),
    row(LAYER, "PPSend", "Comm.", |p| p.boundary(Collective::Send)),
    row(OUTPUT, "Logit", "Mem. + Comp.", |p| {
        Some(OpKind::Fused {
            flops: p.logit_flops(),
            bytes: p.logit_bytes(),
        })
    }),
];

/// Where each kind of row sits in [`TABLE1`].
const EMBED_ROWS: Range<usize> = 0..2;
const PP_RECV: usize = 2;
const LAYER_ROWS: Range<usize> = 3..15;
const PP_SEND: usize = 15;
const LOGIT: usize = 16;

fn mem(bytes: u64) -> Option<OpKind> {
    Some(OpKind::Memory { bytes })
}

fn comp(flops: f64) -> Option<OpKind> {
    Some(OpKind::Compute { flops })
}

fn comm(coll: Collective, group: GroupKind, group_size: u32, bytes: u64) -> OpKind {
    OpKind::Comm {
        coll,
        group,
        group_size,
        bytes,
    }
}

/// Ids bracketing one (stage, microbatch, direction) op group.
#[derive(Debug, Clone, Copy)]
struct GroupEnds {
    first: OpId,
    last: OpId,
    send: Option<OpId>,
    recv: Option<OpId>,
}

/// Rejected model/parallelism combinations — both configs are user
/// supplied, so the checks surface as values rather than panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The model has no attention heads, so its KV width is undefined.
    NoAttentionHeads,
    /// `ParallelismConfig::validate` failed (zero degrees, ep ∤ dp, …).
    InvalidParallelism(String),
    /// The layer count does not divide evenly into pipeline stages.
    LayersNotDivisible {
        /// Model layer count.
        layers: u32,
        /// Pipeline-parallel degree.
        pp: u32,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoAttentionHeads => write!(f, "model has no attention heads"),
            BuildError::InvalidParallelism(why) => {
                write!(f, "invalid parallelism config: {why}")
            }
            BuildError::LayersNotDivisible { layers, pp } => {
                write!(f, "layers {layers} must divide evenly into pp {pp} stages")
            }
        }
    }
}

impl std::error::Error for BuildError {}

fn check_configs(model: &ModelConfig, par: &ParallelismConfig) -> Result<(), BuildError> {
    if model.heads == 0 {
        return Err(BuildError::NoAttentionHeads);
    }
    par.validate().map_err(BuildError::InvalidParallelism)?;
    if !model.layers.is_multiple_of(par.pp) {
        return Err(BuildError::LayersNotDivisible {
            layers: model.layers,
            pp: par.pp,
        });
    }
    Ok(())
}

/// Build the operator graph of one *training* iteration.
///
/// Devices are pipeline stages (TP peers execute the same timeline; TP
/// communication appears as ops on the stage's stream; DP replicas are
/// identical, so one pipeline is representative and DP sync ops carry the
/// DP group size).
///
/// Panics on invalid configs; [`try_build_training_iteration`] is the
/// fallible variant.
pub fn build_training_iteration(model: &ModelConfig, par: &ParallelismConfig) -> OperatorGraph {
    try_build_training_iteration(model, par).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`build_training_iteration`]: user-supplied configs that don't
/// fit together come back as a [`BuildError`].
pub fn try_build_training_iteration(
    model: &ModelConfig,
    par: &ParallelismConfig,
) -> Result<OperatorGraph, BuildError> {
    check_configs(model, par)?;
    let (pp, m) = (par.pp as usize, par.microbatches as usize);
    let mut g = OperatorGraph::new(par.pp);

    // Per-(stage, mb) groups, generated independently, then wired.
    let mut pass = |s: u32, k: usize, kind: PassKind| {
        let dir = if kind == PassKind::Forward {
            "fwd"
        } else {
            "bwd"
        };
        Pass::new(&mut g, model, par, s, kind).emit(&format!("@s{s}.mb{k}.{dir}"))
    };
    let (fwd, bwd): (Vec<Vec<GroupEnds>>, Vec<Vec<GroupEnds>>) = (0..par.pp)
        .map(|s| {
            (0..m)
                .map(|k| {
                    (
                        pass(s, k, PassKind::Forward),
                        pass(s, k, PassKind::Backward),
                    )
                })
                .unzip()
        })
        .unzip();

    // Cross-stage wiring: recv ← matching send.
    for s in 1..pp {
        for k in 0..m {
            for (to, from) in [(fwd[s][k], fwd[s - 1][k]), (bwd[s - 1][k], bwd[s][k])] {
                if let (Some(r), Some(snd)) = (to.recv, from.send) {
                    g.add_dep(r, snd);
                }
            }
        }
    }

    // 1F1B sequencing per stage: chain group k's first op after group k-1's
    // last op in schedule order.
    for (s, (f, b)) in fwd.iter().zip(&bwd).enumerate() {
        let warmup = (pp - s - 1).min(m);
        let steady = f[warmup..].iter().zip(&b[..m - warmup]);
        let tail = f[..warmup]
            .iter()
            .chain(steady.flat_map(|(f, b)| [f, b]))
            .chain(&b[m - warmup..])
            .reduce(|prev, next| {
                g.add_dep(next.first, prev.last);
                next
            })
            .expect("a stage runs at least one microbatch");
        // DP gradient synchronization: with overlap it launches alongside
        // the final backward group (bucketed grad reduce); without, it
        // waits for the backward to finish.
        let anchor = if par.overlap_grad_sync {
            tail.first
        } else {
            tail.last
        };
        emit_dp_sync(&mut g, model, par, s as u32, anchor);
    }

    debug_assert_eq!(g.validate(), Ok(()));
    Ok(g)
}

/// Build the operator graph of one inference step (single pipeline, `tp`
/// from `par`; `batch` sequences).
///
/// Panics on invalid configs; [`try_build_inference`] is the fallible
/// variant.
pub fn build_inference(
    model: &ModelConfig,
    par: &ParallelismConfig,
    batch: u64,
    phase: InferencePhase,
) -> OperatorGraph {
    try_build_inference(model, par, batch, phase).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`build_inference`].
pub fn try_build_inference(
    model: &ModelConfig,
    par: &ParallelismConfig,
    batch: u64,
    phase: InferencePhase,
) -> Result<OperatorGraph, BuildError> {
    check_configs(model, par)?;
    let mut g = OperatorGraph::new(par.pp);
    let phase_name = match phase {
        InferencePhase::Prefill { .. } => "prefill",
        InferencePhase::Decode { .. } => "decode",
    };
    let mut prev_send: Option<OpId> = None;
    for s in 0..par.pp {
        let kind = PassKind::Inference { batch, phase };
        let ends = Pass::new(&mut g, model, par, s, kind).emit(&format!("@s{s}.{phase_name}"));
        if let (Some(r), Some(snd)) = (ends.recv, prev_send) {
            g.add_dep(r, snd);
        }
        prev_send = ends.send;
    }
    debug_assert_eq!(g.validate(), Ok(()));
    Ok(g)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Forward,
    Backward,
    Inference { batch: u64, phase: InferencePhase },
}

/// One pass over one pipeline stage, emitted as a linear chain of ops: the
/// shapes every operator formula reads, and the chain's ends so far.
struct Pass<'a> {
    g: &'a mut OperatorGraph,
    model: &'a ModelConfig,
    par: &'a ParallelismConfig,
    kind: PassKind,
    stage: u32,
    tokens: u64,
    /// Attention context length.
    attn_ctx: u64,
    tp: u64,
    dt: u64,
    h: u64,
    kv: u64,
    first: Option<OpId>,
    last: Option<OpId>,
}

impl<'a> Pass<'a> {
    fn new(
        g: &'a mut OperatorGraph,
        model: &'a ModelConfig,
        par: &'a ParallelismConfig,
        stage: u32,
        kind: PassKind,
    ) -> Self {
        let (tokens, attn_ctx) = match kind {
            PassKind::Forward | PassKind::Backward => {
                (par.micro_batch_size as u64 * model.seq_len, model.seq_len)
            }
            PassKind::Inference { batch, phase } => match phase {
                InferencePhase::Prefill { prompt_len } => (batch * prompt_len, prompt_len),
                InferencePhase::Decode { context_len } => (batch, context_len),
            },
        };
        Pass {
            g,
            model,
            par,
            kind,
            stage,
            tokens,
            attn_ctx,
            tp: par.tp as u64,
            dt: model.dtype_bytes as u64,
            h: model.hidden,
            kv: model.kv_dim(),
            first: None,
            last: None,
        }
    }

    /// Emit the pass in its stage phases: boundary receive, stage head,
    /// layers, stage tail, boundary send. Every op name ends in `tag`.
    /// Returns the group's bracketing ops.
    fn emit(mut self, tag: &str) -> GroupEnds {
        let (s, pp) = (self.stage, self.par.pp);
        // Forward and inference flow from stage 0 to the last; backward
        // flows back.
        let (needs_recv, needs_send) = if self.kind == PassKind::Backward {
            (s + 1 < pp, s > 0)
        } else {
            (s > 0, s + 1 < pp)
        };
        let recv = if needs_recv {
            self.row(&TABLE1[PP_RECV], tag)
        } else {
            None
        };
        self.stage_head(tag);
        for l in 0..self.model.layers / pp {
            self.layer(tag, l);
        }
        self.stage_tail(tag);
        // The send is asynchronous: it depends on the group's last compute
        // op, but the next group chains off the compute op, not the send
        // (Megatron issues isend and moves on).
        let last = self.last.expect("pass emitted no ops");
        let send = if needs_send {
            self.row(&TABLE1[PP_SEND], tag)
        } else {
            None
        };
        GroupEnds {
            first: self.first.expect("pass emitted no ops"),
            last,
            send,
            recv,
        }
    }

    /// Backward starts at the loss: the last stage differentiates the
    /// logit projection first. Forward and inference start with the
    /// embedding on stage 0.
    fn stage_head(&mut self, tag: &str) {
        if self.kind == PassKind::Backward {
            if self.stage == self.par.pp - 1 {
                let kind = OpKind::Fused {
                    flops: 2.0 * self.logit_flops(),
                    bytes: self.logit_bytes(),
                };
                self.push("BwdLogit", tag, kind);
            }
        } else if self.stage == 0 {
            for row in &TABLE1[EMBED_ROWS] {
                self.row(row, tag);
            }
        }
    }

    /// Forward and inference end with the logit on the last stage; the
    /// embedding gradient write closes the backward pass on stage 0.
    fn stage_tail(&mut self, tag: &str) {
        if self.kind == PassKind::Backward {
            if self.stage == 0 {
                let bytes = self.tokens * self.h * self.dt;
                self.push("BwdEmbeddingGrad", tag, OpKind::Memory { bytes });
            }
        } else if self.stage == self.par.pp - 1 {
            self.row(&TABLE1[LOGIT], tag);
        }
    }

    fn layer(&mut self, tag: &str, l: u32) {
        let ltag = format!("{tag}.L{l}");
        let (model, par) = (self.model, self.par);
        // ZeRO-3 gathers the layer's parameter shard before using it.
        let training = !matches!(self.kind, PassKind::Inference { .. });
        if par.zero == DpSync::Zero3 && training && par.dp > 1 {
            let bytes = stage_sync_params(model, par, self.stage) * self.dt
                / (model.layers / par.pp) as u64;
            let kind = comm(Collective::AllGather, GroupKind::Dp, par.dp, bytes);
            self.push("Zero3ParamAllGather", &ltag, kind);
        }
        if self.kind == PassKind::Backward {
            self.layer_backward(&ltag);
        } else {
            self.layer_forward(&ltag);
        }
    }

    /// Table 1's layer rows in order, with the ops the table does not list
    /// slotted in: decode's KV-cache read before the core attention, and a
    /// non-gated or MoE FFN before the MLP's TP AllReduce.
    fn layer_forward(&mut self, ltag: &str) {
        for row in &TABLE1[LAYER_ROWS] {
            match row.name {
                "GQACoreAttn" => self.kv_cache_load(ltag),
                "MLPTPAllReduce" => self.ffn_outside_table(ltag),
                _ => {}
            }
            self.row(row, ltag);
        }
    }

    /// Decode reads the KV cache from HBM — the memory-bound core.
    fn kv_cache_load(&mut self, ltag: &str) {
        let inference = matches!(self.kind, PassKind::Inference { .. });
        if inference && self.attn_ctx > self.tokens {
            let bytes = self.tokens * 2 * self.attn_ctx * self.kv * self.dt / self.tp;
            self.push("KVCacheLoad", ltag, OpKind::Memory { bytes });
        }
    }

    /// The FFNs Table 1 does not list: a classic two-matrix MLP, or a MoE
    /// layer's router, EP dispatch, experts and EP combine. A gated dense
    /// FFN is the table's SwiMLP rows.
    fn ffn_outside_table(&mut self, ltag: &str) {
        let (model, par) = (self.model, self.par);
        let (tokens, h, dt, tp) = (self.tokens, self.h, self.dt, self.tp);
        match model.moe {
            None if model.gated_ffn => {}
            None => {
                for name in ["MLPUpProj", "MLPDownProj"] {
                    let kind = self.dense_ffn_proj();
                    self.push(name, ltag, kind);
                }
            }
            Some(moe) => {
                let flops = tokens as f64 * 2.0 * h as f64 * moe.experts as f64;
                self.push("MoERouter", ltag, OpKind::Compute { flops });
                self.push_some("EPDispatchAllToAll", ltag, self.ep_all_to_all());
                let kind = OpKind::Fused {
                    flops: tokens as f64
                        * moe.top_k as f64
                        * 2.0
                        * model.ffn_matrices() as f64
                        * (h * moe.expert_ffn_hidden) as f64
                        / tp as f64,
                    bytes: model.ffn_matrices() * h * moe.expert_ffn_hidden * dt / tp
                        * (moe.experts as u64 / par.ep as u64).max(1),
                };
                self.push("ExpertFFN", ltag, kind);
                self.push_some("EPCombineAllToAll", ltag, self.ep_all_to_all());
            }
        }
    }

    /// The backward of one layer: attention, then MLP gradients, each with
    /// its TP and EP collectives. Backward flops are ~2× forward (input
    /// grads + weight grads).
    fn layer_backward(&mut self, ltag: &str) {
        let f = self.model.fwd_flops_per_token_layer(self.attn_ctx) / self.tp as f64;
        let wbytes = self.model.active_params_per_layer() * self.dt / self.tp;
        let tokens = self.tokens as f64;
        let attn = OpKind::Fused {
            flops: 2.0 * f * 0.4 * tokens,
            bytes: wbytes / 2,
        };
        self.push("BwdAttn", ltag, attn);
        self.push_some("BwdAttnTPAllReduce", ltag, self.tp_all_reduce());
        self.push_some("BwdEPCombineAllToAll", ltag, self.ep_all_to_all());
        let mlp = OpKind::Fused {
            flops: 2.0 * f * 0.6 * tokens,
            bytes: wbytes / 2,
        };
        self.push("BwdMLP", ltag, mlp);
        self.push_some("BwdEPDispatchAllToAll", ltag, self.ep_all_to_all());
        self.push_some("BwdMLPTPAllReduce", ltag, self.tp_all_reduce());
    }

    /// Append `{name}{suffix}` to the chain.
    fn push(&mut self, name: &str, suffix: &str, kind: OpKind) -> OpId {
        let deps = self.last.map(|c| vec![c]).unwrap_or_default();
        let id = self.g.push([name, suffix].concat(), self.stage, kind, deps);
        self.last = Some(id);
        self.first.get_or_insert(id);
        id
    }

    fn push_some(&mut self, name: &str, suffix: &str, kind: Option<OpKind>) -> Option<OpId> {
        kind.map(|kind| self.push(name, suffix, kind))
    }

    fn row(&mut self, row: &Table1Row, suffix: &str) -> Option<OpId> {
        self.push_some(row.name, suffix, (row.kind)(self))
    }

    /// A pipeline-boundary transfer. The boundary tensor is sharded across
    /// the TP group (sequence parallelism), matching the paper's Eq. 5:
    /// `T_pp = b·s·h·f / tp / net_bw`.
    fn boundary(&self, coll: Collective) -> Option<OpKind> {
        let bytes = self.tokens * self.h * self.dt / self.tp;
        Some(comm(coll, GroupKind::Pp, 2, bytes))
    }

    /// A TP AllReduce of the full activation (Eq. 4), where `tp > 1`.
    fn tp_all_reduce(&self) -> Option<OpKind> {
        let bytes = self.tokens * self.h * self.dt;
        (self.par.tp > 1).then(|| comm(Collective::AllReduce, GroupKind::Tp, self.par.tp, bytes))
    }

    /// An EP all-to-all of the routed tokens, on a MoE model with `ep > 1`.
    fn ep_all_to_all(&self) -> Option<OpKind> {
        let moe = self.model.moe.filter(|_| self.par.ep > 1)?;
        let bytes = self.tokens * moe.top_k as u64 * self.h * self.dt / self.tp;
        Some(comm(
            Collective::AllToAll,
            GroupKind::Ep,
            self.par.ep,
            bytes,
        ))
    }

    /// One SwiGLU projection, on a gated dense model.
    fn swiglu_proj(&self) -> Option<OpKind> {
        (self.model.moe.is_none() && self.model.gated_ffn).then(|| self.dense_ffn_proj())
    }

    fn dense_ffn_proj(&self) -> OpKind {
        let ffn = self.model.ffn_hidden;
        OpKind::Fused {
            flops: self.tokens as f64 * 2.0 * (self.h * ffn) as f64 / self.tp as f64,
            bytes: self.h * ffn * self.dt / self.tp,
        }
    }

    fn logit_flops(&self) -> f64 {
        self.tokens as f64 * 2.0 * self.h as f64 * self.model.vocab as f64 / self.tp as f64
    }

    fn logit_bytes(&self) -> u64 {
        self.h * self.model.vocab * self.dt / self.tp
    }
}

/// Parameters a stage synchronizes over DP, accounting for expert sharding.
fn stage_sync_params(model: &ModelConfig, par: &ParallelismConfig, s: u32) -> u64 {
    let layers = (model.layers / par.pp) as u64;
    let dense = model.attn_params_per_layer() + 2 * model.hidden;
    let expert = model.ffn_params_per_layer() / par.ep as u64;
    let mut p = layers * (dense + expert) / par.tp as u64;
    if s == 0 || s == par.pp - 1 {
        p += model.embedding_params() / par.tp as u64;
    }
    p
}

/// Emit the end-of-iteration DP gradient synchronization.
fn emit_dp_sync(
    g: &mut OperatorGraph,
    model: &ModelConfig,
    par: &ParallelismConfig,
    s: u32,
    after: OpId,
) {
    if par.dp <= 1 {
        return;
    }
    let bytes = stage_sync_params(model, par, s) * model.dtype_bytes as u64;
    let dp = |coll| comm(coll, GroupKind::Dp, par.dp, bytes);
    match par.zero {
        DpSync::AllReduce => {
            g.push(
                format!("DPGradAllReduce@s{s}"),
                s,
                dp(Collective::AllReduce),
                vec![after],
            );
        }
        DpSync::Zero1 => {
            let rs = g.push(
                format!("ZeroGradReduceScatter@s{s}"),
                s,
                dp(Collective::ReduceScatter),
                vec![after],
            );
            g.push(
                format!("ZeroParamAllGather@s{s}"),
                s,
                dp(Collective::AllGather),
                vec![rs],
            );
        }
        DpSync::Zero3 => {
            // Per-layer AllGathers were already emitted inline; the tail is
            // the gradient ReduceScatter.
            g.push(
                format!("ZeroGradReduceScatter@s{s}"),
                s,
                dp(Collective::ReduceScatter),
                vec![after],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_configs_come_back_as_errors() {
        let m = small_model();
        let mut par = ParallelismConfig::new(1, 3, 1);
        par.microbatches = 2;
        // 4 layers cannot split into 3 stages.
        assert_eq!(
            try_build_training_iteration(&m, &par).err(),
            Some(BuildError::LayersNotDivisible { layers: 4, pp: 3 })
        );
        assert!(matches!(
            try_build_inference(&m, &par, 8, InferencePhase::Prefill { prompt_len: 128 }),
            Err(BuildError::LayersNotDivisible { .. })
        ));
        let zero = ParallelismConfig::new(0, 1, 1);
        assert!(matches!(
            try_build_training_iteration(&m, &zero),
            Err(BuildError::InvalidParallelism(_))
        ));
        // No heads: checked before anything divides by the head count.
        let headless = ModelConfig { heads: 0, ..m };
        assert_eq!(
            try_build_training_iteration(&headless, &par).err(),
            Some(BuildError::NoAttentionHeads)
        );
        let prefill = InferencePhase::Prefill { prompt_len: 128 };
        assert_eq!(
            try_build_inference(&headless, &par, 8, prefill).err(),
            Some(BuildError::NoAttentionHeads)
        );
    }

    fn small_model() -> ModelConfig {
        ModelConfig {
            name: "test-4l".into(),
            layers: 4,
            hidden: 1024,
            heads: 8,
            kv_heads: 2,
            ffn_hidden: 4096,
            vocab: 32000,
            seq_len: 2048,
            dtype_bytes: 2,
            gated_ffn: true,
            moe: None,
        }
    }

    #[test]
    fn training_graph_validates_and_covers_stages() {
        let m = small_model();
        let par = ParallelismConfig::new(2, 2, 2);
        let g = build_training_iteration(&m, &par);
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(g.devices, 2);
        for d in 0..2 {
            assert!(g.device_ops(d).count() > 0);
        }
        assert!(g.topo_order().is_some());
    }

    #[test]
    fn table1_operator_inventory_for_llama3() {
        // The LLaMA-3 dense graph must contain every Table-1 row, typed
        // with the paper's label.
        let m = ModelConfig::llama3_70b();
        let mut par = ParallelismConfig::new(8, 8, 1);
        par.microbatches = 8;
        let g = build_training_iteration(&m, &par);
        let inv = g.operator_inventory();
        for row in &TABLE1 {
            let (_, label) = inv
                .iter()
                .find(|(name, _)| name == row.name)
                .unwrap_or_else(|| panic!("operator {} missing", row.name));
            assert_eq!(*label, row.label, "{}", row.name);
        }
    }

    #[test]
    fn moe_graph_contains_alltoall() {
        let m = ModelConfig::hunyuan_moe_1t();
        let mut m2 = m.clone();
        m2.layers = 4;
        let mut par = ParallelismConfig::new(2, 2, 4);
        par.ep = 4;
        let g = build_training_iteration(&m2, &par);
        let inv = g.operator_inventory();
        assert!(inv.iter().any(|(n, _)| n == "EPDispatchAllToAll"));
        assert!(inv.iter().any(|(n, _)| n == "EPCombineAllToAll"));
        assert!(inv.iter().any(|(n, _)| n == "ExpertFFN"));
    }

    #[test]
    fn dense_graph_has_no_alltoall() {
        let g = build_training_iteration(&small_model(), &ParallelismConfig::new(2, 2, 2));
        assert!(!g
            .operator_inventory()
            .iter()
            .any(|(n, _)| n.contains("AllToAll")));
    }

    #[test]
    fn zero3_adds_param_allgathers_and_more_comm() {
        let m = small_model();
        let mut base = ParallelismConfig::new(1, 2, 4);
        base.microbatches = 4;
        let g_plain = build_training_iteration(&m, &base);
        let mut z3 = base;
        z3.zero = DpSync::Zero3;
        let g_zero3 = build_training_iteration(&m, &z3);
        assert!(g_zero3
            .operator_inventory()
            .iter()
            .any(|(n, _)| n == "Zero3ParamAllGather"));
        assert!(
            g_zero3.total_comm_bytes() > 2 * g_plain.total_comm_bytes(),
            "ZeRO-3 must be much heavier: {} vs {}",
            g_zero3.total_comm_bytes(),
            g_plain.total_comm_bytes()
        );
    }

    #[test]
    fn flops_match_config_arithmetic() {
        // Graph total flops ≈ 3 × fwd flops × tokens (fwd + 2×-weighted bwd).
        let m = small_model();
        let mut par = ParallelismConfig::new(1, 1, 1);
        par.microbatches = 2;
        par.micro_batch_size = 1;
        let g = build_training_iteration(&m, &par);
        let tokens = par.global_batch() * m.seq_len;
        let expected = m.train_flops_per_token(m.seq_len) * tokens as f64;
        let got = g.total_flops();
        assert!(
            (got - expected).abs() / expected < 0.05,
            "graph {got:.3e} vs config {expected:.3e}"
        );
    }

    #[test]
    fn pipeline_send_recv_pair_up() {
        let m = small_model();
        let mut par = ParallelismConfig::new(1, 4, 1);
        par.microbatches = 4;
        let g = build_training_iteration(&m, &par);
        let sends = g
            .ops
            .iter()
            .filter(|o| o.name.starts_with("PPSend"))
            .count();
        let recvs = g
            .ops
            .iter()
            .filter(|o| o.name.starts_with("PPRecv"))
            .count();
        assert_eq!(sends, recvs);
        // fwd: 3 boundaries × 4 mb, bwd: 3 × 4.
        assert_eq!(sends, 24);
    }

    #[test]
    fn decode_is_memory_dominated_prefill_compute_dominated() {
        let m = ModelConfig::llama3_8b();
        let par = ParallelismConfig::new(4, 1, 1);
        let prefill = build_inference(&m, &par, 8, InferencePhase::Prefill { prompt_len: 2048 });
        let decode = build_inference(&m, &par, 8, InferencePhase::Decode { context_len: 2048 });
        // Arithmetic intensity (flops/byte) collapses in decode.
        let ai_p = prefill.total_flops() / prefill.total_mem_bytes() as f64;
        let ai_d = decode.total_flops() / decode.total_mem_bytes() as f64;
        assert!(
            ai_p > 50.0 * ai_d,
            "prefill AI {ai_p:.1} vs decode AI {ai_d:.1}"
        );
    }

    #[test]
    fn microbatch_count_scales_ops_linearly() {
        let m = small_model();
        let mut p4 = ParallelismConfig::new(2, 2, 1);
        p4.microbatches = 4;
        let mut p8 = p4;
        p8.microbatches = 8;
        let g4 = build_training_iteration(&m, &p4);
        let g8 = build_training_iteration(&m, &p8);
        // DP sync ops are constant; everything else doubles.
        assert!(g8.len() > 2 * g4.len() - 8);
    }
}

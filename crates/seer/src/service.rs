//! Seer as an online what-if service (ROADMAP item 4).
//!
//! The paper's capacity-planning use case implies an *interactive* serving
//! path: an operator asks "what if I scale this job ×4 / swap the topology
//! / change TP×PP×DP / degrade a link class?" and expects an answer in
//! milliseconds, not a batch grid re-run. [`SeerService`] is that path:
//!
//! * A **content-addressed forecast cache** keyed on a canonical FNV-1a
//!   digest of the whole scenario — model config, parallelism layout,
//!   GPU/network spec, calibration, topology fingerprint — with
//!   hit/miss/evict counters ([`CacheStats`]) surfaced in bench reports.
//!   Two scenarios with the same digest are the same scenario, so a cached
//!   answer is bitwise the answer a cold forecast would produce.
//! * **Memoized operator sub-timings** shared across queries: every priced
//!   operator lands in a `(class dependency digest, operator shape)` keyed
//!   memo. The dependency digest of a class ([`OpClass`]) covers exactly
//!   the scenario slice that class's price reads — compute/HBM curves and
//!   the GPU for compute-stream ops, the network spec + comm calibration +
//!   group strides for each communicator kind — so a what-if that changes
//!   only the DP degree re-prices the DP/PP-comm subgraph (whose strides
//!   changed) and reuses every compute and TP-comm entry. Invalidation is
//!   by construction: a changed dependency slice changes the key, so a
//!   stale entry can never be served; superseded generations age out of
//!   the bounded memo FIFO (counted as evictions). This mirrors the
//!   dirty-component idiom of the incremental rate solver.
//! * A **[`WhatIfQuery`]/[`WhatIfAnswer`] API** driving thousands of
//!   queries per second on the [`astral_exec`] pool. Batches are answered
//!   with the same serial-decision / parallel-pricing split the fleet
//!   controller uses: digests, cache lookups and counters are computed
//!   serially in submission order, only the distinct cache misses fan out,
//!   and results merge back serially — so answers *and* counters are
//!   byte-identical at any `ASTRAL_THREADS` width.

use crate::calibrate::{Calibration, CommKind, CommScope, EfficiencyCurve};
use crate::pricer::{ModelPricer, OpClass, SeerConfig};
use crate::suites::{GpuSpec, NetworkSpec};
use crate::timeline::{schedule, OpPricer, Timeline};
use astral_exec::Pool;
use astral_model::{
    build_training_iteration, Collective, DpSync, GroupKind, ModelConfig, OpKind, Operator,
    ParallelismConfig,
};
use astral_sim::{Digest, MulHashMap};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

fn group_tag(g: GroupKind) -> u8 {
    match g {
        GroupKind::Tp => 0,
        GroupKind::Dp => 1,
        GroupKind::Ep => 2,
        GroupKind::Pp => 3,
    }
}

fn coll_tag(c: Collective) -> u8 {
    match c {
        Collective::AllReduce => 0,
        Collective::ReduceScatter => 1,
        Collective::AllGather => 2,
        Collective::AllToAll => 3,
        Collective::Broadcast => 4,
        Collective::Send => 5,
        Collective::Recv => 6,
    }
}

fn scope_tag(s: CommScope) -> u8 {
    match s {
        CommScope::Nvlink => 0,
        CommScope::Rail => 1,
        CommScope::CrossRail => 2,
        CommScope::CrossDc => 3,
    }
}

fn kind_tag(k: CommKind) -> u8 {
    match k {
        CommKind::Ring => 0,
        CommKind::AllToAll => 1,
        CommKind::PointToPoint => 2,
    }
}

fn feed_curve(d: &mut Digest, c: &EfficiencyCurve) {
    let coeffs = c.coefficients();
    d.write_u64(coeffs.len() as u64);
    for &k in coeffs {
        d.write_f64(k);
    }
    let (lo, hi) = c.domain();
    d.write_f64(lo);
    d.write_f64(hi);
}

fn feed_model(d: &mut Digest, m: &ModelConfig) {
    d.write_str(&m.name);
    d.write_u32(m.layers);
    d.write_u64(m.hidden);
    d.write_u32(m.heads);
    d.write_u32(m.kv_heads);
    d.write_u64(m.ffn_hidden);
    d.write_u64(m.vocab);
    d.write_u64(m.seq_len);
    d.write_u32(m.dtype_bytes);
    d.write_bool(m.gated_ffn);
    match &m.moe {
        None => d.write_u8(0),
        Some(moe) => {
            d.write_u8(1);
            d.write_u32(moe.experts);
            d.write_u32(moe.top_k);
            d.write_u64(moe.expert_ffn_hidden);
        }
    }
}

fn feed_par(d: &mut Digest, p: &ParallelismConfig) {
    d.write_u32(p.tp);
    d.write_u32(p.pp);
    d.write_u32(p.dp);
    d.write_u32(p.ep);
    d.write_u8(match p.zero {
        DpSync::AllReduce => 0,
        DpSync::Zero1 => 1,
        DpSync::Zero3 => 2,
    });
    d.write_u32(p.microbatches);
    d.write_u32(p.micro_batch_size);
    d.write_bool(p.overlap_grad_sync);
}

fn feed_gpu(d: &mut Digest, g: &GpuSpec) {
    d.write_str(&g.name);
    d.write_f64(g.peak_flops);
    d.write_f64(g.hbm_bw);
    d.write_u64(g.hbm_bytes);
    d.write_f64(g.tdp_w);
    d.write_f64(g.idle_w);
}

fn feed_net(d: &mut Digest, n: &NetworkSpec) {
    d.write_f64(n.rail_bw_bps);
    d.write_f64(n.nvlink_bw_bps);
    d.write_u32(n.hb_domain);
    d.write_u32(n.rails);
    d.write_f64(n.alpha_s);
    d.write_f64(n.nvlink_alpha_s);
    match &n.crossdc {
        None => d.write_u8(0),
        Some(x) => {
            d.write_u8(1);
            d.write_u8(group_tag(x.affected));
            d.write_f64(x.per_gpu_bw_bps);
            d.write_f64(x.latency_s);
        }
    }
}

/// `cal.comm` iterates in `(scope, kind)` order, which is also tag order.
fn feed_comm_cal(d: &mut Digest, cal: &Calibration) {
    d.write_u64(cal.comm.len() as u64);
    for ((s, k), c) in &cal.comm {
        d.write_u8(scope_tag(*s));
        d.write_u8(kind_tag(*k));
        d.write_f64(c.alpha_s);
        feed_curve(d, &c.eff);
    }
}

/// A fully resolved forecasting scenario — everything a forecast is a pure
/// function of, and therefore everything its cache digest covers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The model being trained.
    pub model: ModelConfig,
    /// The parallelism layout.
    pub par: ParallelismConfig,
    /// GPU, network, and calibration suites (the [`SeerConfig`] Seer
    /// prices with).
    pub cfg: SeerConfig,
    /// Fingerprint of the physical topology this scenario runs on
    /// ([`astral_topo::Topology::fingerprint`]); `0` when the scenario is
    /// purely spec-driven.
    pub topo_fingerprint: u64,
}

impl ScenarioSpec {
    /// The canonical FNV-1a content digest — the forecast-cache key. Two
    /// specs digest equal iff every field that can influence the forecast
    /// is equal (strings, integers, and exact float bit patterns).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u8(1); // digest schema version
        feed_model(&mut d, &self.model);
        feed_par(&mut d, &self.par);
        feed_gpu(&mut d, &self.cfg.gpu);
        feed_net(&mut d, &self.cfg.net);
        feed_curve(&mut d, &self.cfg.calibration.compute);
        feed_curve(&mut d, &self.cfg.calibration.memory);
        feed_comm_cal(&mut d, &self.cfg.calibration);
        d.write_u64(self.topo_fingerprint);
        d.finish()
    }
}

/// The bandwidth class a [`WhatIf::DegradeLinkClass`] query throttles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkClass {
    /// Intra-HB-domain NVLink bandwidth.
    Nvlink,
    /// Per-GPU rail (scale-out NIC) bandwidth.
    Rail,
    /// The cross-datacenter long haul (a no-op when the scenario has no
    /// cross-DC assignment).
    CrossDc,
}

/// One change a what-if query applies to the service's baseline scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WhatIf {
    /// Scale the job ×N: multiply the data-parallel degree (and with it
    /// the global batch) by `factor`.
    ScaleDp {
        /// DP multiplier (≥ 1).
        factor: u32,
    },
    /// Swap the network fabric: replace the network spec and the topology
    /// fingerprint it models.
    SwapTopology {
        /// The replacement network environment.
        net: NetworkSpec,
        /// Fingerprint of the replacement topology (`0` if spec-only).
        topo_fingerprint: u64,
    },
    /// Change the TP×PP×DP decomposition. Microbatches follow the
    /// `2·pp` convention of [`ParallelismConfig::new`]; ZeRO mode,
    /// microbatch size and overlap are inherited from the baseline, and
    /// the baseline's EP degree is kept when it still divides `dp`.
    SetParallelism {
        /// Tensor-parallel degree.
        tp: u32,
        /// Pipeline stages.
        pp: u32,
        /// Data-parallel replicas.
        dp: u32,
    },
    /// Degrade one bandwidth class to `factor` of its current value
    /// (gray-failure style what-if; `factor` in (0, 1]).
    DegradeLinkClass {
        /// Which link class is degraded.
        class: LinkClass,
        /// Surviving fraction of the class's bandwidth, in (0, 1].
        factor: f64,
    },
    /// Swap the model being trained.
    SwapModel {
        /// The replacement model.
        model: ModelConfig,
    },
    /// Swap the GPU device model.
    SwapGpu {
        /// The replacement GPU spec.
        gpu: GpuSpec,
    },
}

/// A what-if query: a sequence of changes applied, in order, on top of the
/// service's baseline scenario. An empty sequence asks about the baseline
/// itself.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WhatIfQuery {
    /// Changes applied left to right on the baseline.
    pub changes: Vec<WhatIf>,
}

impl WhatIfQuery {
    /// The baseline scenario, unchanged.
    pub fn baseline() -> Self {
        WhatIfQuery::default()
    }

    /// A single-change query.
    pub fn one(change: WhatIf) -> Self {
        WhatIfQuery {
            changes: vec![change],
        }
    }

    /// A multi-change query, applied left to right.
    pub fn of(changes: Vec<WhatIf>) -> Self {
        WhatIfQuery { changes }
    }
}

/// The compact forecast a cached scenario resolves to — every field a pure
/// (and bitwise-pinned) function of the scenario content.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CachedForecast {
    /// Iteration time, seconds.
    pub iteration_s: f64,
    /// Training tokens per second across the job.
    pub tokens_per_s: f64,
    /// Model FLOPs utilization.
    pub mfu: f64,
    /// Exposed-communication fraction of the makespan.
    pub exposed_comm_fraction: f64,
    /// Iteration time over the busiest device's compute-stream busy time
    /// (≥ 1): the communication/bubble overhead multiplier the fleet
    /// controller uses in place of its fixed planning margin.
    pub comm_overhead_ratio: f64,
    /// FNV-1a fingerprint of the full operator timeline
    /// ([`Timeline::fingerprint`]).
    pub timeline_fingerprint: u64,
}

impl CachedForecast {
    /// FNV-1a fingerprint over the exact bit patterns of every field —
    /// what the determinism gates compare across pool widths and between
    /// cached and uncached serving paths.
    pub fn bits_fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.write_f64(self.iteration_s);
        d.write_f64(self.tokens_per_s);
        d.write_f64(self.mfu);
        d.write_f64(self.exposed_comm_fraction);
        d.write_f64(self.comm_overhead_ratio);
        d.write_u64(self.timeline_fingerprint);
        d.finish()
    }
}

/// The answer to one what-if query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WhatIfAnswer {
    /// Content digest of the resolved scenario (the cache key).
    pub digest: u64,
    /// Whether the answer was served from the forecast cache (including
    /// same-batch deduplication onto an in-flight pricing).
    pub cache_hit: bool,
    /// The forecast.
    pub forecast: CachedForecast,
}

/// Hit/miss/evict counters of both service caches. All counters are
/// updated in the serial phases of [`SeerService::answer_batch`] (or by
/// order-independent sums over per-task counts), so they are byte-identical
/// at any pool width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Forecast-cache hits (including same-batch dedup hits).
    pub forecast_hits: u64,
    /// Forecast-cache misses (scenarios priced from scratch).
    pub forecast_misses: u64,
    /// Forecasts evicted by the FIFO capacity bound.
    pub forecast_evictions: u64,
    /// Operator-memo hits across all pricings.
    pub op_hits: u64,
    /// Operator-memo misses (operators priced by the model).
    pub op_misses: u64,
    /// Operator entries evicted by the FIFO capacity bound.
    pub op_evictions: u64,
}

impl CacheStats {
    /// Forecast-cache hit rate in [0, 1] (0 when no queries were served).
    pub fn hit_rate(&self) -> f64 {
        let total = self.forecast_hits + self.forecast_misses;
        if total == 0 {
            0.0
        } else {
            self.forecast_hits as f64 / total as f64
        }
    }

    /// Operator-memo hit rate in [0, 1] (0 when nothing was priced).
    pub fn op_hit_rate(&self) -> f64 {
        let total = self.op_hits + self.op_misses;
        if total == 0 {
            0.0
        } else {
            self.op_hits as f64 / total as f64
        }
    }
}

/// Key of one memoized operator timing: (class dependency digest,
/// operator shape digest).
type OpKey = (u64, u64);

/// Per-class dependency digests for one scenario: the digest of exactly
/// the scenario slice each [`OpClass`]'s price reads. A what-if that
/// leaves a slice untouched leaves that class's keys untouched — its
/// entries hit; a what-if that changes the slice changes every key — the
/// class's subgraph re-prices and can never be served stale.
fn class_dep_digests(spec: &ScenarioSpec) -> [u64; OpClass::COUNT] {
    let mut out = [0u64; OpClass::COUNT];
    // Compute-stream ops read the GPU's peak FLOPS / HBM bandwidth and the
    // compute/memory calibration curves; nothing else.
    let mut d = Digest::new();
    d.write_u8(0);
    d.write_f64(spec.cfg.gpu.peak_flops);
    d.write_f64(spec.cfg.gpu.hbm_bw);
    feed_curve(&mut d, &spec.cfg.calibration.compute);
    feed_curve(&mut d, &spec.cfg.calibration.memory);
    out[OpClass::Exec.index()] = d.finish();
    // A communicator's price reads the network spec, the comm calibration
    // table, and the rank stride its group kind derives from the
    // parallelism layout (TP groups are contiguous; DP/EP stride by tp;
    // PP strides by tp·dp).
    for g in [GroupKind::Tp, GroupKind::Dp, GroupKind::Ep, GroupKind::Pp] {
        let mut d = Digest::new();
        d.write_u8(1);
        d.write_u8(group_tag(g));
        feed_net(&mut d, &spec.cfg.net);
        feed_comm_cal(&mut d, &spec.cfg.calibration);
        let stride = match g {
            GroupKind::Tp => 1,
            GroupKind::Dp | GroupKind::Ep => spec.par.tp,
            GroupKind::Pp => spec.par.tp.saturating_mul(spec.par.dp),
        };
        d.write_u32(stride);
        out[OpClass::Comm(g).index()] = d.finish();
    }
    out
}

/// Shape digest of one operator: its kind tag plus every kind field the
/// pricer reads (names, ids and devices do not affect the price).
fn op_shape_key(op: &Operator) -> u64 {
    let mut d = Digest::new();
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
            d.write_u8(coll_tag(coll));
            d.write_u8(group_tag(group));
            d.write_u32(group_size);
            d.write_u64(bytes);
        }
    }
    d.finish()
}

/// [`ModelPricer`] behind the operator memo: look up (frozen snapshot,
/// then entries freshly priced in this task), price on miss, and record
/// fresh entries in first-compute order so the serial merge is
/// deterministic.
struct MemoPricer<'a> {
    base: ModelPricer<'a>,
    dep: [u64; OpClass::COUNT],
    frozen: &'a MulHashMap<OpKey, f64>,
    fresh_index: RefCell<MulHashMap<OpKey, usize>>,
    fresh: RefCell<Vec<(OpKey, f64)>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a> MemoPricer<'a> {
    fn new(
        cfg: &'a SeerConfig,
        dep: [u64; OpClass::COUNT],
        frozen: &'a MulHashMap<OpKey, f64>,
    ) -> Self {
        MemoPricer {
            base: ModelPricer { cfg },
            dep,
            frozen,
            fresh_index: RefCell::default(),
            fresh: RefCell::new(Vec::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }
}

impl OpPricer for MemoPricer<'_> {
    fn duration(&self, op: &Operator, par: &ParallelismConfig) -> f64 {
        let key = (self.dep[OpClass::of(op).index()], op_shape_key(op));
        if let Some(&t) = self.frozen.get(&key) {
            self.hits.set(self.hits.get() + 1);
            return t;
        }
        if let Some(&i) = self.fresh_index.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return self.fresh.borrow()[i].1;
        }
        let t = self.base.duration(op, par);
        self.misses.set(self.misses.get() + 1);
        self.fresh_index
            .borrow_mut()
            .insert(key, self.fresh.borrow().len());
        self.fresh.borrow_mut().push((key, t));
        t
    }
}

/// Outcome of pricing one scenario cold (against a frozen memo snapshot).
struct Priced {
    forecast: CachedForecast,
    /// Fresh memo entries in first-compute order.
    fresh: Vec<(OpKey, f64)>,
    op_hits: u64,
    op_misses: u64,
}

/// Summarize a scheduled timeline into the compact cached forecast, with
/// [`crate::Seer::forecast_training`]'s tokens/s and MFU formula.
fn summarize(spec: &ScenarioSpec, timeline: &Timeline) -> CachedForecast {
    let iteration_s = timeline.total.as_secs_f64();
    let (tokens_per_s, mfu) =
        crate::training_rates(&spec.model, &spec.par, &spec.cfg.gpu, iteration_s);
    let max_compute = timeline
        .compute_busy
        .iter()
        .map(|d| d.as_secs_f64())
        .fold(0.0f64, f64::max);
    let comm_overhead_ratio = if iteration_s > 0.0 && max_compute > 0.0 {
        (iteration_s / max_compute).max(1.0)
    } else {
        1.0
    };
    CachedForecast {
        iteration_s,
        tokens_per_s,
        mfu,
        exposed_comm_fraction: timeline.exposed_comm_fraction(),
        comm_overhead_ratio,
        timeline_fingerprint: timeline.fingerprint(),
    }
}

/// Price one scenario: expand the operator DAG, schedule it with the
/// memoizing pricer, and summarize. Pure — identical inputs produce
/// bitwise-identical outputs — which is what lets cache misses fan out on
/// the pool without affecting the answers.
fn price_scenario(spec: &ScenarioSpec, frozen: &MulHashMap<OpKey, f64>) -> Priced {
    let graph = build_training_iteration(&spec.model, &spec.par);
    let pricer = MemoPricer::new(&spec.cfg, class_dep_digests(spec), frozen);
    let timeline = schedule(&graph, &spec.par, &pricer);
    let forecast = summarize(spec, &timeline);
    Priced {
        forecast,
        fresh: pricer.fresh.into_inner(),
        op_hits: pricer.hits.get(),
        op_misses: pricer.misses.get(),
    }
}

/// Default forecast-cache capacity (scenarios).
const DEFAULT_FORECAST_CAPACITY: usize = 4096;
/// Default operator-memo capacity (priced entries).
const DEFAULT_OP_CAPACITY: usize = 1 << 20;

/// The incremental what-if query engine: a baseline scenario plus the
/// content-addressed forecast cache and the cross-query operator memo.
/// See the module docs for the serving architecture.
#[derive(Debug, Clone)]
pub struct SeerService {
    base: ScenarioSpec,
    forecast_capacity: usize,
    op_capacity: usize,
    forecasts: MulHashMap<u64, CachedForecast>,
    forecast_order: VecDeque<u64>,
    op_memo: MulHashMap<OpKey, f64>,
    op_order: VecDeque<OpKey>,
    stats: CacheStats,
}

impl SeerService {
    /// A service answering what-ifs against `base`, with default cache
    /// capacities.
    pub fn new(base: ScenarioSpec) -> Self {
        SeerService {
            base,
            forecast_capacity: DEFAULT_FORECAST_CAPACITY,
            op_capacity: DEFAULT_OP_CAPACITY,
            forecasts: MulHashMap::default(),
            forecast_order: VecDeque::new(),
            op_memo: MulHashMap::default(),
            op_order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Override the cache capacity bounds (forecast scenarios, memoized
    /// operator entries). Both caches evict FIFO past their bound.
    pub fn with_capacities(mut self, forecasts: usize, ops: usize) -> Self {
        self.forecast_capacity = forecasts.max(1);
        self.op_capacity = ops.max(1);
        self
    }

    /// The baseline scenario queries are applied on.
    pub fn baseline(&self) -> &ScenarioSpec {
        &self.base
    }

    /// Cache counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resolve a query into the full scenario it asks about.
    pub fn resolve(&self, query: &WhatIfQuery) -> ScenarioSpec {
        let mut spec = self.base.clone();
        for change in &query.changes {
            apply(&mut spec, change);
        }
        spec
    }

    /// Answer one query (serial; equivalent to a width-1 batch).
    pub fn answer(&mut self, query: &WhatIfQuery) -> WhatIfAnswer {
        self.answer_batch(&Pool::with_threads(1), std::slice::from_ref(query))
            .pop()
            .expect("one query yields one answer")
    }

    /// Answer a batch of queries on the given pool.
    ///
    /// Serial phase 1 resolves digests, counts hits/misses, and collects
    /// the distinct misses in first-occurrence order. The misses are
    /// priced in parallel against a frozen snapshot of the operator memo
    /// (pricing is pure, result slots return in submission order). Serial
    /// phase 2 merges fresh memo entries and forecasts back in submission
    /// order and applies the FIFO capacity bounds. Answers and counters
    /// are therefore byte-identical at any pool width.
    pub fn answer_batch(&mut self, pool: &Pool, queries: &[WhatIfQuery]) -> Vec<WhatIfAnswer> {
        struct Pending {
            digest: u64,
            hit: bool,
            cached: Option<CachedForecast>,
        }
        let mut pending: Vec<Pending> = Vec::with_capacity(queries.len());
        let mut in_flight: MulHashMap<u64, usize> = MulHashMap::default();
        let mut misses: Vec<(u64, ScenarioSpec)> = Vec::new();
        for query in queries {
            let spec = self.resolve(query);
            let digest = spec.digest();
            if let Some(f) = self.forecasts.get(&digest) {
                self.stats.forecast_hits += 1;
                pending.push(Pending {
                    digest,
                    hit: true,
                    cached: Some(*f),
                });
            } else {
                match in_flight.entry(digest) {
                    // Same-batch repeat of a miss: served by the first
                    // occurrence's pricing — a hit for accounting purposes.
                    std::collections::hash_map::Entry::Occupied(_) => {
                        self.stats.forecast_hits += 1;
                        pending.push(Pending {
                            digest,
                            hit: true,
                            cached: None,
                        });
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        self.stats.forecast_misses += 1;
                        slot.insert(misses.len());
                        misses.push((digest, spec));
                        pending.push(Pending {
                            digest,
                            hit: false,
                            cached: None,
                        });
                    }
                }
            }
        }

        let frozen = &self.op_memo;
        let priced: Vec<Priced> = pool.map(&misses, |m: &(u64, ScenarioSpec)| {
            price_scenario(&m.1, frozen)
        });

        // Merge, in submission order: operator entries first (duplicate
        // keys computed by concurrent tasks keep the first task's value —
        // they are bitwise equal by purity), then forecasts.
        for p in &priced {
            self.stats.op_hits += p.op_hits;
            self.stats.op_misses += p.op_misses;
            for &(key, t) in &p.fresh {
                if let std::collections::hash_map::Entry::Vacant(slot) = self.op_memo.entry(key) {
                    slot.insert(t);
                    self.op_order.push_back(key);
                }
            }
        }
        while self.op_memo.len() > self.op_capacity {
            match self.op_order.pop_front() {
                Some(key) => {
                    self.op_memo.remove(&key);
                    self.stats.op_evictions += 1;
                }
                None => break,
            }
        }
        let mut computed: MulHashMap<u64, CachedForecast> = MulHashMap::default();
        for ((digest, _), p) in misses.iter().zip(&priced) {
            computed.insert(*digest, p.forecast);
            self.forecasts.insert(*digest, p.forecast);
            self.forecast_order.push_back(*digest);
        }
        while self.forecasts.len() > self.forecast_capacity {
            match self.forecast_order.pop_front() {
                Some(digest) => {
                    self.forecasts.remove(&digest);
                    self.stats.forecast_evictions += 1;
                }
                None => break,
            }
        }

        pending
            .into_iter()
            .map(|p| WhatIfAnswer {
                digest: p.digest,
                cache_hit: p.hit,
                forecast: p.cached.unwrap_or_else(|| computed[&p.digest]),
            })
            .collect()
    }

    /// Forecast a query from scratch, bypassing both caches (nothing is
    /// read or written). The bitwise-equality oracle for the cached
    /// serving path.
    pub fn forecast_uncached(&self, query: &WhatIfQuery) -> CachedForecast {
        let empty = MulHashMap::default();
        price_scenario(&self.resolve(query), &empty).forecast
    }
}

/// Apply one change to a resolved scenario.
fn apply(spec: &mut ScenarioSpec, change: &WhatIf) {
    match change {
        WhatIf::ScaleDp { factor } => {
            spec.par.dp = spec.par.dp.saturating_mul((*factor).max(1));
            if !spec.par.dp.is_multiple_of(spec.par.ep) {
                spec.par.ep = 1;
            }
        }
        WhatIf::SwapTopology {
            net,
            topo_fingerprint,
        } => {
            spec.cfg.net = net.clone();
            spec.topo_fingerprint = *topo_fingerprint;
        }
        WhatIf::SetParallelism { tp, pp, dp } => {
            let mut par = ParallelismConfig::new((*tp).max(1), (*pp).max(1), (*dp).max(1));
            par.zero = spec.par.zero;
            par.micro_batch_size = spec.par.micro_batch_size;
            par.overlap_grad_sync = spec.par.overlap_grad_sync;
            if par.dp.is_multiple_of(spec.par.ep) {
                par.ep = spec.par.ep;
            }
            spec.par = par;
        }
        WhatIf::DegradeLinkClass { class, factor } => {
            let f = factor.clamp(1e-3, 1.0);
            match class {
                LinkClass::Nvlink => spec.cfg.net.nvlink_bw_bps *= f,
                LinkClass::Rail => spec.cfg.net.rail_bw_bps *= f,
                LinkClass::CrossDc => {
                    if let Some(x) = &mut spec.cfg.net.crossdc {
                        x.per_gpu_bw_bps *= f;
                    }
                }
            }
        }
        WhatIf::SwapModel { model } => spec.model = model.clone(),
        WhatIf::SwapGpu { gpu } => spec.cfg.gpu = gpu.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> ModelConfig {
        let mut m = ModelConfig::llama3_8b();
        m.layers = 4;
        m.hidden = 2048;
        m.ffn_hidden = 8192;
        m.vocab = 32000;
        m.seq_len = 2048;
        m
    }

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            model: small_model(),
            par: ParallelismConfig::new(4, 2, 4),
            cfg: SeerConfig::h100_astral_basic(),
            topo_fingerprint: 0xfeed,
        }
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = base_spec();
        assert_eq!(a.digest(), a.digest());
        assert_eq!(a.digest(), a.clone().digest());
        // Every axis of the key must move the digest.
        let mut m = a.clone();
        m.model.layers += 1;
        assert_ne!(a.digest(), m.digest());
        let mut p = a.clone();
        p.par.dp *= 2;
        assert_ne!(a.digest(), p.digest());
        let mut g = a.clone();
        g.cfg.gpu.peak_flops *= 1.0 + 1e-15; // one-ulp-ish change
        assert_ne!(a.digest(), g.digest());
        let mut n = a.clone();
        n.cfg.net.rail_bw_bps *= 0.5;
        assert_ne!(a.digest(), n.digest());
        let mut c = a.clone();
        c.cfg.calibration.compute = EfficiencyCurve::constant(0.5);
        assert_ne!(a.digest(), c.digest());
        let mut t = a.clone();
        t.topo_fingerprint ^= 1;
        assert_ne!(a.digest(), t.digest());
    }

    #[test]
    fn calibration_digest_is_map_order_independent() {
        use crate::calibrate::CommCalibration;
        let entry = |alpha| CommCalibration {
            alpha_s: alpha,
            eff: EfficiencyCurve::constant(0.8),
        };
        let mut a = base_spec();
        a.cfg
            .calibration
            .comm
            .insert((CommScope::Rail, CommKind::Ring), entry(1e-6));
        a.cfg
            .calibration
            .comm
            .insert((CommScope::Nvlink, CommKind::Ring), entry(2e-6));
        let mut b = base_spec();
        // Insert in the opposite order.
        b.cfg
            .calibration
            .comm
            .insert((CommScope::Nvlink, CommKind::Ring), entry(2e-6));
        b.cfg
            .calibration
            .comm
            .insert((CommScope::Rail, CommKind::Ring), entry(1e-6));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn dp_change_dirties_dp_and_pp_comm_but_not_exec_or_tp() {
        let a = base_spec();
        let mut b = a.clone();
        b.par.dp *= 2;
        let da = class_dep_digests(&a);
        let db = class_dep_digests(&b);
        assert_eq!(da[OpClass::Exec.index()], db[OpClass::Exec.index()]);
        assert_eq!(
            da[OpClass::Comm(GroupKind::Tp).index()],
            db[OpClass::Comm(GroupKind::Tp).index()]
        );
        // DP stride (tp) is unchanged — DP entries stay valid; the DP
        // group *size* lives in the shape key, so grown groups re-price.
        assert_eq!(
            da[OpClass::Comm(GroupKind::Dp).index()],
            db[OpClass::Comm(GroupKind::Dp).index()]
        );
        // PP strides by tp·dp: its subgraph is dirty.
        assert_ne!(
            da[OpClass::Comm(GroupKind::Pp).index()],
            db[OpClass::Comm(GroupKind::Pp).index()]
        );
    }

    #[test]
    fn tp_change_dirties_every_comm_class() {
        let a = base_spec();
        let mut b = a.clone();
        b.par.tp *= 2;
        let da = class_dep_digests(&a);
        let db = class_dep_digests(&b);
        assert_eq!(da[OpClass::Exec.index()], db[OpClass::Exec.index()]);
        for g in [GroupKind::Dp, GroupKind::Ep, GroupKind::Pp] {
            assert_ne!(
                da[OpClass::Comm(g).index()],
                db[OpClass::Comm(g).index()],
                "{g:?} must be dirtied by a TP change"
            );
        }
        // TP comm ops carry their group size in the shape key, so even
        // with an identical dep digest a changed TP degree changes the
        // key; the stride axis is covered by the other classes.
    }

    #[test]
    fn changed_tp_never_serves_a_stale_tp_comm_entry() {
        // Warm the service at tp=4, then query tp=2: every answer must be
        // bitwise identical to a cold forecast of the tp=2 scenario.
        let mut svc = SeerService::new(base_spec());
        let warm = WhatIfQuery::baseline();
        let probe = WhatIfQuery::one(WhatIf::SetParallelism {
            tp: 2,
            pp: 2,
            dp: 4,
        });
        svc.answer(&warm);
        let served = svc.answer(&probe);
        let cold = SeerService::new(base_spec()).forecast_uncached(&probe);
        assert_eq!(
            served.forecast.bits_fingerprint(),
            cold.bits_fingerprint(),
            "memoized serving diverged from the cold oracle after a TP change"
        );
        assert!(served.forecast.iteration_s > 0.0);
    }

    #[test]
    fn dp_only_change_reuses_compute_and_tp_entries() {
        let mut svc = SeerService::new(base_spec());
        svc.answer(&WhatIfQuery::baseline());
        let before = svc.stats();
        let ans = svc.answer(&WhatIfQuery::one(WhatIf::ScaleDp { factor: 2 }));
        let after = svc.stats();
        assert!(!ans.cache_hit);
        let hits = after.op_hits - before.op_hits;
        let misses = after.op_misses - before.op_misses;
        assert!(
            hits > 0,
            "a DP-only what-if must reuse compute/TP entries (got {hits} hits, {misses} misses)"
        );
        assert!(
            misses > 0,
            "a DP-only what-if must re-price the dirty DP subgraph"
        );
        // And the memoized answer still matches the cold oracle bitwise.
        let cold = SeerService::new(base_spec())
            .forecast_uncached(&WhatIfQuery::one(WhatIf::ScaleDp { factor: 2 }));
        assert_eq!(ans.forecast.bits_fingerprint(), cold.bits_fingerprint());
    }

    #[test]
    fn repeat_queries_hit_and_answers_are_bitwise_stable() {
        let mut svc = SeerService::new(base_spec());
        let q = WhatIfQuery::one(WhatIf::DegradeLinkClass {
            class: LinkClass::Rail,
            factor: 0.5,
        });
        let first = svc.answer(&q);
        assert!(!first.cache_hit);
        let second = svc.answer(&q);
        assert!(second.cache_hit);
        assert_eq!(
            first.forecast.bits_fingerprint(),
            second.forecast.bits_fingerprint()
        );
        assert_eq!(svc.stats().forecast_hits, 1);
        assert_eq!(svc.stats().forecast_misses, 1);
    }

    #[test]
    fn batch_dedup_counts_repeats_as_hits() {
        let mut svc = SeerService::new(base_spec());
        let q = WhatIfQuery::one(WhatIf::ScaleDp { factor: 4 });
        let batch = vec![q.clone(), q.clone(), q];
        let answers = svc.answer_batch(&Pool::with_threads(2), &batch);
        assert_eq!(answers.len(), 3);
        assert!(!answers[0].cache_hit);
        assert!(answers[1].cache_hit && answers[2].cache_hit);
        assert_eq!(
            answers[0].forecast.bits_fingerprint(),
            answers[2].forecast.bits_fingerprint()
        );
        assert_eq!(svc.stats().forecast_misses, 1);
        assert_eq!(svc.stats().forecast_hits, 2);
    }

    #[test]
    fn forecast_cache_evicts_fifo_past_capacity() {
        let mut svc = SeerService::new(base_spec()).with_capacities(1, 1 << 20);
        let dp2 = WhatIfQuery::one(WhatIf::ScaleDp { factor: 2 });
        svc.answer(&WhatIfQuery::baseline());
        svc.answer(&dp2);
        let s = svc.stats();
        assert_eq!(s.forecast_evictions, 1);
        // One forecast is held: each miss inserted one, each eviction
        // dropped one, and the newest survived.
        assert_eq!(s.forecast_misses - s.forecast_evictions, 1);
        assert!(svc.answer(&dp2).cache_hit);
        // The baseline was evicted: querying it again is a miss.
        svc.answer(&WhatIfQuery::baseline());
        assert_eq!(svc.stats().forecast_misses, 3);
    }

    #[test]
    fn degrading_a_link_class_slows_the_forecast() {
        let mut svc = SeerService::new(base_spec());
        let base = svc.answer(&WhatIfQuery::baseline()).forecast;
        let slow = svc
            .answer(&WhatIfQuery::one(WhatIf::DegradeLinkClass {
                class: LinkClass::Nvlink,
                factor: 0.25,
            }))
            .forecast;
        assert!(
            slow.iteration_s > base.iteration_s,
            "4x slower NVLink must lengthen the iteration ({} vs {})",
            slow.iteration_s,
            base.iteration_s
        );
    }

    #[test]
    fn crossdc_degrade_without_crossdc_is_the_baseline() {
        let svc = SeerService::new(base_spec());
        let q = WhatIfQuery::one(WhatIf::DegradeLinkClass {
            class: LinkClass::CrossDc,
            factor: 0.5,
        });
        assert_eq!(
            svc.resolve(&q).digest(),
            svc.baseline().digest(),
            "a cross-DC degrade on a single-DC scenario must be a no-op"
        );
    }
}

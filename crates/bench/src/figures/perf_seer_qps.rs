//! What-if service throughput — Seer as an interactive query engine.
//!
//! The paper's capacity-planning use implies serving "what if I scale this
//! job ×4 / swap the topology / change TP×PP×DP / degrade a link class?"
//! at interactive cost. This bench drives thousands of seeded randomized
//! [`WhatIfQuery`]s through [`SeerService`] and reports:
//!
//! * **QPS** cold (first pass over the stream on a fresh service: every
//!   distinct scenario priced once, repeats served from the
//!   content-addressed cache) and warm (second pass: pure cache hits).
//! * **Cache hit rate** and the full hit/miss/evict counter set of both
//!   the forecast cache and the operator memo.
//! * **Warm-over-cold speedup**, hard-gated at ≥5× on the median of five
//!   fresh cold/warm pairs.
//!
//! Hard determinism gates: answers fingerprint byte-identically at pool
//! widths 1, 2 and 8; every distinct query's cached answer is bitwise
//! equal to a from-scratch uncached forecast; and a DP-degree sweep must
//! reuse memoized compute/TP-comm entries (the dirty-subgraph
//! invalidation this service exists for). All wall-clock-derived metrics
//! carry the `wall_clock` prefix so CI's determinism diff skips them.

use crate::{Report, Scenario};
use astral_exec::Pool;
use astral_model::{ModelConfig, ParallelismConfig};
use astral_seer::{
    CacheStats, Calibration, CommCalibration, CommKind, CommScope, EfficiencyCurve, GpuSpec,
    LinkClass, NetworkSpec, ScenarioSpec, SeerConfig, SeerService, WhatIf, WhatIfQuery,
};
use astral_sim::{Digest, SimRng};
use std::time::Instant;

/// Queries in the headline stream.
const QUERIES: usize = 2048;
/// Batch size the stream is served in (matches an interactive burst).
const BATCH: usize = 256;
/// Fresh cold/warm pass pairs the headline timings take the median of.
const HEADLINE_PAIRS: usize = 5;

/// A small-but-real calibration: constant sub-unity efficiency curves plus
/// per-scope comm entries, so pricing exercises the full calibrated path
/// (not the ideal-efficiency shortcut) while staying exactly reproducible.
fn calibration() -> Calibration {
    let mut cal = Calibration::ideal();
    cal.compute = EfficiencyCurve::constant(0.85);
    cal.memory = EfficiencyCurve::constant(0.80);
    for (scope, alpha_s, eff) in [
        (CommScope::Nvlink, 3e-6, 0.85),
        (CommScope::Rail, 9e-6, 0.75),
        (CommScope::CrossRail, 14e-6, 0.65),
        (CommScope::CrossDc, 1e-3, 0.55),
    ] {
        cal.comm.insert(
            (scope, CommKind::Ring),
            CommCalibration {
                alpha_s,
                eff: EfficiencyCurve::constant(eff),
            },
        );
    }
    cal
}

/// The baseline every what-if perturbs: a depth-scaled LLaMA-3-8B on the
/// calibrated Astral H100 fabric at TP4×PP2×DP4. Deep enough (32 layers)
/// that pricing a scenario dominates digesting it — the regime the cache
/// exists for.
fn baseline() -> ScenarioSpec {
    let mut model = ModelConfig::llama3_8b();
    model.layers = 32;
    model.hidden = 2048;
    model.ffn_hidden = 8192;
    model.vocab = 32000;
    model.seq_len = 2048;
    ScenarioSpec {
        model,
        par: ParallelismConfig::new(4, 2, 4),
        cfg: SeerConfig {
            gpu: GpuSpec::h100(),
            net: NetworkSpec::astral(),
            calibration: calibration(),
        },
        topo_fingerprint: 0x5eed_ca11,
    }
}

/// The headline what-if mix: scale-out, topology swaps, parallelism
/// re-shapes, link-class degradations.
fn query_mix() -> Vec<WhatIfQuery> {
    let mut mix = vec![WhatIfQuery::baseline()];
    for factor in [2u32, 4, 8] {
        mix.push(WhatIfQuery::one(WhatIf::ScaleDp { factor }));
    }
    for hb in [16u32, 32, 64] {
        mix.push(WhatIfQuery::one(WhatIf::SwapTopology {
            net: NetworkSpec::astral_with_hb_domain(hb),
            topo_fingerprint: 0x5eed_ca11 ^ hb as u64,
        }));
    }
    for (tp, pp, dp) in [
        (2u32, 2u32, 8u32),
        (8, 2, 2),
        (4, 4, 2),
        (2, 4, 4),
        (8, 1, 4),
        (4, 1, 8),
        (2, 1, 16),
        (8, 4, 1),
    ] {
        mix.push(WhatIfQuery::one(WhatIf::SetParallelism { tp, pp, dp }));
    }
    for class in [LinkClass::Nvlink, LinkClass::Rail] {
        for factor in [0.5, 0.25] {
            mix.push(WhatIfQuery::one(WhatIf::DegradeLinkClass { class, factor }));
        }
    }
    mix
}

/// The seeded randomized stream: `QUERIES` draws from the mix.
fn stream(mix: &[WhatIfQuery]) -> Vec<WhatIfQuery> {
    let mut rng = SimRng::new(0x5eed_09b5);
    (0..QUERIES)
        .map(|_| mix[rng.below(mix.len() as u64) as usize].clone())
        .collect()
}

/// Serve the whole stream in batches on the given pool, returning the
/// answers' FNV fingerprint and the wall-clock.
fn serve(svc: &mut SeerService, pool: &Pool, queries: &[WhatIfQuery]) -> (u64, f64) {
    let start = Instant::now();
    let mut fp = Digest::new();
    for batch in queries.chunks(BATCH) {
        for a in svc.answer_batch(pool, batch) {
            fp.fold_word(a.digest);
            fp.fold_word(a.forecast.bits_fingerprint());
        }
    }
    (fp.finish(), start.elapsed().as_secs_f64())
}

/// Hard gate 1: byte-identical answers at pool widths 1, 2, 8 (fresh
/// service per width — cold pricing fans out on the pool). Records each
/// width's cold-pass wall clock and returns the answers' fingerprint.
fn width_gate(sc: &mut Scenario, queries: &[WhatIfQuery]) -> u64 {
    let mut fp_by_width = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut svc = SeerService::new(baseline());
        let (fp, wall) = serve(&mut svc, &Pool::with_threads(threads), queries);
        fp_by_width.push(fp);
        sc.metric(&format!("wall_clock_cold_pass_w{threads}_s"), wall);
    }
    assert!(
        fp_by_width.iter().all(|&f| f == fp_by_width[0]),
        "answer fingerprints diverged across pool widths: {fp_by_width:x?}"
    );
    fp_by_width[0]
}

/// Hard gate 2: every distinct query's cached answer is bitwise equal to
/// a from-scratch forecast that bypasses both caches.
fn uncached_gate(mix: &[WhatIfQuery]) {
    let mut svc = SeerService::new(baseline());
    for (i, q) in mix.iter().enumerate() {
        let cached = svc.answer(q).forecast;
        let cold = svc.forecast_uncached(q);
        assert_eq!(
            cached.bits_fingerprint(),
            cold.bits_fingerprint(),
            "query {i}: cached answer diverged bitwise from the uncached oracle"
        );
    }
}

/// Headline passes: cold (fresh service) then warm (same service, same
/// stream — pure hits), repeated on `HEADLINE_PAIRS` fresh services.
/// Returns the cold and warm wall clocks of the pair with the median
/// warm-over-cold speedup, so one descheduled pass on a shared machine
/// cannot decide the 5× gate on its own, and the first cold pass's cache
/// statistics.
fn headline(pool: &Pool, queries: &[WhatIfQuery], fp: u64) -> (f64, f64, CacheStats) {
    let mut timed = Vec::with_capacity(HEADLINE_PAIRS);
    let mut cold_stats = None;
    for _ in 0..HEADLINE_PAIRS {
        let mut svc = SeerService::new(baseline());
        let (fp_cold, wall_cold) = serve(&mut svc, pool, queries);
        let cold = svc.stats();
        let (fp_warm, wall_warm) = serve(&mut svc, pool, queries);
        let warm = svc.stats();
        assert_eq!(
            fp_cold, fp_warm,
            "warm pass answers diverged from the cold pass"
        );
        assert_eq!(fp_cold, fp, "headline pass diverged from the width gate");
        assert_eq!(
            warm.forecast_misses, cold.forecast_misses,
            "the warm pass must price nothing new"
        );
        timed.push((wall_cold, wall_warm));
        cold_stats.get_or_insert(cold);
    }
    let speedup_of = |&(cold, warm): &(f64, f64)| cold / warm.max(1e-12);
    timed.sort_by(|a, b| speedup_of(a).total_cmp(&speedup_of(b)));
    let (wall_cold, wall_warm) = timed[HEADLINE_PAIRS / 2];
    (wall_cold, wall_warm, cold_stats.expect("one pair at least"))
}

/// Hard gate 4: dirty-subgraph memoization. A DP-degree sweep on a fresh
/// service must reuse compute/TP-comm entries across points — only the
/// DP/PP-comm subgraphs re-price. Returns the sweep's op-memo reuse.
fn dp_sweep_reuse() -> f64 {
    let mut sweep_svc = SeerService::new(baseline());
    sweep_svc.answer(&WhatIfQuery::baseline());
    let before = sweep_svc.stats();
    for factor in [2u32, 4, 8] {
        sweep_svc.answer(&WhatIfQuery::one(WhatIf::ScaleDp { factor }));
    }
    let after = sweep_svc.stats();
    let sweep_hits = after.op_hits - before.op_hits;
    let sweep_misses = after.op_misses - before.op_misses;
    let sweep_reuse = sweep_hits as f64 / (sweep_hits + sweep_misses).max(1) as f64;
    println!(
        "dp sweep x2/x4/x8: {sweep_hits} op-memo hits, {sweep_misses} re-priced \
         ({:.1}% reuse)",
        sweep_reuse * 100.0
    );
    assert!(
        sweep_hits > 0 && sweep_misses > 0,
        "a DP sweep must both reuse entries and re-price the dirty subgraph \
         ({sweep_hits} hits, {sweep_misses} misses)"
    );
    sweep_reuse
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "perf_seer_qps",
        "What-if service: content-addressed forecast cache + operator memo",
        "a content-addressed forecast cache and dirty-subgraph operator \
         memoization serve thousands of what-if queries per second with \
         hit rate >= 0.8, warm-over-cold speedup >= 5x, and answers \
         byte-identical cached-vs-uncached and at any pool width",
    );

    let mix = query_mix();
    let queries = stream(&mix);
    println!(
        "stream: {} queries over {} distinct what-ifs, batches of {}",
        queries.len(),
        mix.len(),
        BATCH
    );

    let fp_cold = width_gate(&mut sc, &queries);
    uncached_gate(&mix);
    let (wall_cold, wall_warm, cold_stats) = headline(&Pool::from_env(), &queries, fp_cold);

    let qps_cold = queries.len() as f64 / wall_cold.max(1e-12);
    let qps_warm = queries.len() as f64 / wall_warm.max(1e-12);
    let speedup = wall_cold / wall_warm.max(1e-12);
    let hit_rate = cold_stats.hit_rate();
    println!(
        "cold: {:.0} qps ({:.1}ms), warm: {:.0} qps ({:.1}ms) -> {:.1}x; \
         hit rate {:.4} ({} hits / {} misses), op memo {} hits / {} misses [wall_clock]",
        qps_cold,
        wall_cold * 1e3,
        qps_warm,
        wall_warm * 1e3,
        speedup,
        hit_rate,
        cold_stats.forecast_hits,
        cold_stats.forecast_misses,
        cold_stats.op_hits,
        cold_stats.op_misses,
    );

    // Hard gate 3: cache effectiveness.
    assert!(
        speedup >= 5.0,
        "warm-over-cold speedup {speedup:.2}x below the 5x gate"
    );
    assert!(
        hit_rate >= 0.8,
        "cold-pass hit rate {hit_rate:.3} below the 0.8 gate"
    );
    let sweep_reuse = dp_sweep_reuse();

    sc.metric("queries_total", queries.len() as u64);
    sc.metric("distinct_whatifs", mix.len() as u64);
    sc.metric("batch_size", BATCH as u64);
    sc.metric("answers_fingerprint", fp_cold);
    sc.metric("forecast_hit_rate", hit_rate);
    sc.metric("forecast_hits", cold_stats.forecast_hits);
    sc.metric("forecast_misses", cold_stats.forecast_misses);
    sc.metric("forecast_evictions", cold_stats.forecast_evictions);
    sc.metric("op_memo_hits", cold_stats.op_hits);
    sc.metric("op_memo_misses", cold_stats.op_misses);
    sc.metric("op_memo_hit_rate", cold_stats.op_hit_rate());
    sc.metric("dp_sweep_op_reuse", sweep_reuse);
    sc.metric("wall_clock_cold_s", wall_cold);
    sc.metric("wall_clock_warm_s", wall_warm);
    sc.metric("wall_clock_qps_cold", qps_cold);
    sc.metric("wall_clock_qps_warm", qps_warm);
    sc.metric("wall_clock_warm_speedup", speedup);

    // Footer rows carrying wall-clock-derived numbers keep the wall_clock
    // prefix so CI's determinism diff skips them.
    sc.finish(&[
        (
            "wall_clock_qps",
            format!(
                "target: thousands of queries/second | measured {qps_cold:.0} cold, \
                 {qps_warm:.0} warm ({speedup:.1}x)"
            ),
        ),
        (
            "cache hit rate",
            format!("target >= 0.8 | measured {hit_rate:.4} on the cold pass"),
        ),
        (
            "bitwise pinning",
            "answers byte-identical at pool widths 1/2/8 and cached == uncached \
             for every distinct what-if"
                .to_string(),
        ),
    ])
}

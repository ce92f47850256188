//! `whatif_zipf`: `SeerService::answer` over Zipf-popular what-ifs drawn
//! from 324 distinct scenarios, with the forecast cache bounded below the
//! number of scenarios, so cache hits run beside pricing, inserts and
//! evictions. No network simulation runs: this is the control workload
//! on which `net` and `core` changes must show no effect.

use super::{ensure, ensure_unit, OpOut, Workload, WARM_SEED};
use crate::clock::Clock;
use crate::stats::{fnv, Rng, FNV_BASIS};
use astral_model::{ModelConfig, ParallelismConfig};
use astral_seer::{
    Calibration, CommCalibration, CommKind, CommScope, EfficiencyCurve, GpuSpec, LinkClass,
    NetworkSpec, ScenarioSpec, SeerConfig, SeerService, WhatIf, WhatIfQuery,
};
use astral_topo::{build_astral, AstralParams, HbDomainSpec};

/// Forecast-cache capacity: below the 324 distinct scenarios.
const FORECAST_CAPACITY: usize = 96;
/// Operator-memo capacity.
const OP_CAPACITY: usize = 1 << 16;
/// Zipf exponent of scenario popularity.
const ZIPF_S: f64 = 1.0;
/// Seed of the frozen popularity order of the scenarios.
const POPULARITY_SEED: u64 = 0x2195_0ec5;
/// Queries answered in setup to fill the caches.
const WARM_QUERIES: u64 = 512;
/// Every this many ops, a cache hit is checked against the uncached
/// forecast.
const ORACLE_EVERY: u64 = 32;

pub struct WhatIfZipf {
    svc: SeerService,
    scenarios: Vec<WhatIfQuery>,
    /// GPUs of each resolved scenario.
    world: Vec<f64>,
    /// Scenario index of each popularity rank.
    by_rank: Vec<usize>,
    /// Cumulative Zipf weights over ranks, normalized to 1.
    cdf: Vec<f64>,
}

impl Workload for WhatIfZipf {
    const OP: &'static str = "bench.query";
    const SETUP_REPS: usize = 9;
    const GOLDEN_OPS: u64 = 256;
    const TAIL_PCT: f64 = 99.9;
    const PROBE_OPS: u64 = 16;

    fn setup(probe: bool, clock: &mut Clock) -> Self {
        // The fabrics the what-ifs name, fingerprinted from real builds.
        let fps: Vec<u64> = clock.time_aside("topo.build", || {
            [8u32, 16, 32]
                .iter()
                .map(|&hb| {
                    let mut p = AstralParams::sim_medium();
                    p.hb = HbDomainSpec {
                        gpus_per_domain: hb,
                        ..p.hb
                    };
                    build_astral(&p).fingerprint()
                })
                .collect()
        });
        let mut scenarios = scenarios(&fps);
        if probe {
            scenarios.truncate(6);
        }
        let svc = clock.time_aside("seer.service_new", || {
            SeerService::new(baseline(fps[0])).with_capacities(FORECAST_CAPACITY, OP_CAPACITY)
        });
        let world = scenarios
            .iter()
            .map(|q| svc.resolve(q).par.world() as f64)
            .collect();
        // Popularity ranks are fixed, so every seed serves the same mix;
        // the seed draws the query sequence.
        let mut by_rank: Vec<usize> = (0..scenarios.len()).collect();
        Rng::new(POPULARITY_SEED, 0).shuffle(&mut by_rank);
        let weights: Vec<f64> = (1..=scenarios.len())
            .map(|r| (r as f64).powf(-ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let mut w = WhatIfZipf {
            svc,
            scenarios,
            world,
            by_rank,
            cdf,
        };
        if !probe {
            for i in 0..WARM_QUERIES {
                let q = &w.scenarios[w.draw(WARM_SEED, i)];
                clock.time_aside("seer.warm_up", || w.svc.answer(q));
            }
        }
        w
    }

    fn round_len(&self) -> u64 {
        1
    }

    fn op(&mut self, seed: u64, idx: u64, clock: &mut Clock) -> Result<OpOut, String> {
        let s = self.draw(seed, idx);
        let q = &self.scenarios[s];
        let svc = &mut self.svc;
        let a = clock.time("seer.answer", || svc.answer(q));
        clock.relabel_last(if a.cache_hit { "seer.hit" } else { "seer.miss" });

        ensure(a.digest == self.svc.resolve(q).digest(), || {
            format!("answer digest {:x} is not its scenario's", a.digest)
        })?;
        let f = &a.forecast;
        ensure(f.iteration_s > 0.0 && f.tokens_per_s > 0.0, || {
            format!("non-positive forecast {f:?}")
        })?;
        ensure_unit("mfu", f.mfu)?;
        ensure_unit("exposed comm fraction", f.exposed_comm_fraction)?;
        if a.cache_hit && idx.is_multiple_of(ORACLE_EVERY) {
            let cold = clock.time_aside("seer.forecast_uncached", || self.svc.forecast_uncached(q));
            ensure(cold.bits_fingerprint() == f.bits_fingerprint(), || {
                format!("cached answer {f:?} differs from uncached {cold:?}")
            })?;
        }
        Ok(OpOut {
            sim_gpu_s: f.iteration_s * self.world[s],
            fingerprint: fnv(fnv(FNV_BASIS, a.digest), f.bits_fingerprint()),
        })
    }

    fn window_done(&mut self, clock: &mut Clock) {
        let st = self.svc.stats();
        let answered = (st.forecast_hits + st.forecast_misses).max(1) as f64;
        clock.tally("seer.forecast_hit_rate", st.hit_rate());
        clock.tally("seer.op_memo_hit_rate", st.op_hit_rate());
        clock.tally(
            "seer.evictions_per_query",
            (st.forecast_evictions + st.op_evictions) as f64 / answered,
        );
    }
}

impl WhatIfZipf {
    /// Scenario of op `idx` of the stream of `seed`: a Zipf draw over the
    /// popularity ranks.
    fn draw(&self, seed: u64, idx: u64) -> usize {
        let u = Rng::new(seed, idx).unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.by_rank[rank]
    }
}

/// A calibrated, exactly reproducible pricing setup: sub-unity efficiency
/// curves plus per-scope comm entries.
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

/// The baseline every what-if perturbs: a 32-layer LLaMA-3-8B-shaped model
/// at TP4 x PP2 x DP4 on H100s and the Astral fabric.
fn baseline(topo_fingerprint: u64) -> ScenarioSpec {
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
        topo_fingerprint,
    }
}

/// 12 layouts x 3 scale-outs x 3 rail degradations x 3 fabrics = 324
/// distinct scenarios (`fps` holds the fabrics' fingerprints, HB domain
/// 8, 16 and 32).
fn scenarios(fps: &[u64]) -> Vec<WhatIfQuery> {
    const LAYOUTS: [(u32, u32, u32); 12] = [
        (4, 2, 4),
        (2, 2, 8),
        (8, 2, 2),
        (4, 4, 2),
        (2, 4, 4),
        (8, 1, 4),
        (4, 1, 8),
        (2, 1, 16),
        (8, 4, 1),
        (1, 2, 16),
        (4, 2, 8),
        (2, 8, 2),
    ];
    let mut out = Vec::new();
    for (tp, pp, dp) in LAYOUTS {
        for factor in [1u32, 2, 4] {
            for degrade in [1.0, 0.5, 0.25] {
                for (i, hb) in [8u32, 16, 32].into_iter().enumerate() {
                    let mut changes = vec![WhatIf::SetParallelism { tp, pp, dp }];
                    if factor > 1 {
                        changes.push(WhatIf::ScaleDp { factor });
                    }
                    if degrade < 1.0 {
                        changes.push(WhatIf::DegradeLinkClass {
                            class: LinkClass::Rail,
                            factor: degrade,
                        });
                    }
                    if hb != 8 {
                        changes.push(WhatIf::SwapTopology {
                            net: NetworkSpec::astral_with_hb_domain(hb),
                            topo_fingerprint: fps[i],
                        });
                    }
                    out.push(WhatIfQuery::of(changes));
                }
            }
        }
    }
    out
}

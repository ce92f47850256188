//! The simulated testbed: ground truth for Seer to calibrate against and
//! be verified against.
//!
//! The paper verifies Seer against production runs (Figure 12). Our
//! production stand-in executes the same operator graph with
//! *ground-truth* pricing: compute/memory operators use the hidden hardware
//! laws of [`GroundTruth`], and communication operators are **measured on
//! the flow-level network simulator** — actual collective schedules run
//! over the actual topology with ECMP, contention, and NVLink domains.
//! The testbed also produces the profiling samples Seer's self-correction
//! fits its polynomial efficiency curves to.

use crate::calibrate::{fit_curve, Calibration, CommCalibration, CommKind, CommScope};
use crate::suites::GpuSpec;
use crate::timeline::{schedule, OpPricer, Timeline};
use crate::truth::GroundTruth;
use astral_collectives::{CollectiveRunner, RunnerConfig, STEP_OVERHEAD};
use astral_model::{Collective, GroupKind, OpKind, Operator, OperatorGraph, ParallelismConfig};
use astral_sim::SimRng;
use astral_topo::{GpuId, Topology};
use std::cell::RefCell;
use std::collections::HashMap;

/// Key for the collective-measurement cache.
type CommKey = (Collective, GroupKind, u32, u64);

/// The testbed: a topology plus ground-truth laws.
pub struct Testbed<'a> {
    topo: &'a Topology,
    truth: GroundTruth,
    /// Rank → GPU mapping; identity (rank r → GPU r) by default.
    placement: Option<Vec<GpuId>>,
    comm_cache: RefCell<HashMap<CommKey, f64>>,
}

impl<'a> Testbed<'a> {
    /// A testbed of `gpu` devices attached to `topo`.
    pub fn new(topo: &'a Topology, gpu: GpuSpec) -> Self {
        Testbed {
            topo,
            truth: GroundTruth::for_gpu(gpu),
            placement: None,
            comm_cache: RefCell::new(HashMap::new()),
        }
    }

    /// A testbed over pre-built ground-truth laws. Lets grid fan-out share
    /// one [`GroundTruth`] across pool tasks instead of re-deriving it per
    /// point.
    pub fn with_truth(topo: &'a Topology, truth: GroundTruth) -> Self {
        Testbed {
            topo,
            truth,
            placement: None,
            comm_cache: RefCell::new(HashMap::new()),
        }
    }

    /// Use an explicit rank → GPU placement (e.g. a fragmented cross-pod
    /// allocation) instead of the default contiguous one.
    pub fn with_placement(mut self, placement: Vec<GpuId>) -> Self {
        self.placement = Some(placement);
        self
    }

    /// The ground-truth laws (tests and figure harnesses may inspect them;
    /// Seer itself must not).
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Representative GPU group for a communicator of `kind`/`size` under
    /// contiguous placement (rank *r* → GPU *r*).
    fn group_gpus(&self, par: &ParallelismConfig, kind: GroupKind, size: u32) -> Vec<GpuId> {
        if let Some(map) = &self.placement {
            assert!(
                map.len() as u32 >= par.world(),
                "placement covers {} ranks but the job has {}",
                map.len(),
                par.world()
            );
        } else {
            assert!(
                par.world() <= self.topo.gpu_count(),
                "job of {} GPUs does not fit the {}-GPU testbed",
                par.world(),
                self.topo.gpu_count()
            );
        }
        let ranks: Vec<u32> = match kind {
            GroupKind::Tp => (0..size).collect(),
            GroupKind::Dp | GroupKind::Ep => (0..size).map(|d| d * par.tp).collect(),
            GroupKind::Pp => (0..size).map(|p| p * par.tp * par.dp).collect(),
        };
        match &self.placement {
            None => ranks.into_iter().map(GpuId).collect(),
            Some(map) => ranks
                .into_iter()
                .map(|r| {
                    *map.get(r as usize)
                        .expect("placement must cover every rank")
                })
                .collect(),
        }
    }

    /// The calibration scope a concrete GPU group lives in.
    pub fn scope_of_group(&self, gpus: &[GpuId]) -> CommScope {
        let first_dc = self.topo.host(self.topo.gpu_host(gpus[0])).dc;
        let crosses_dc = gpus
            .iter()
            .any(|&g| self.topo.host(self.topo.gpu_host(g)).dc != first_dc);
        if crosses_dc {
            return CommScope::CrossDc;
        }
        let in_one_domain = gpus.iter().all(|&g| self.topo.same_hb_domain(g, gpus[0]));
        if in_one_domain {
            return CommScope::Nvlink;
        }
        let rail0 = self.topo.gpu_rail(gpus[0]);
        if gpus.iter().all(|&g| self.topo.gpu_rail(g) == rail0) {
            CommScope::Rail
        } else {
            CommScope::CrossRail
        }
    }

    /// Measure one collective on the flow-level simulator (cached), with
    /// the protocol-efficiency law applied on top of the fluid result.
    pub fn measure_collective(
        &self,
        par: &ParallelismConfig,
        coll: Collective,
        kind: GroupKind,
        group_size: u32,
        bytes: u64,
    ) -> f64 {
        let key = (coll, kind, group_size, bytes);
        if let Some(&d) = self.comm_cache.borrow().get(&key) {
            return d;
        }
        let gpus = self.group_gpus(par, kind, group_size);
        let scope = self.scope_of_group(&gpus);
        let mut runner = CollectiveRunner::new(self.topo, RunnerConfig::default());
        let fluid = match coll {
            Collective::AllReduce => runner.all_reduce(&gpus, bytes),
            Collective::ReduceScatter => runner.reduce_scatter(&gpus, bytes),
            Collective::AllGather => runner.all_gather(&gpus, bytes),
            Collective::AllToAll => runner.all_to_all(&gpus, bytes),
            Collective::Broadcast => runner.broadcast(&gpus, bytes),
            Collective::Send => runner.send(gpus[0], gpus[1 % gpus.len()], bytes),
            Collective::Recv => {
                let d = STEP_OVERHEAD.as_secs_f64();
                self.comm_cache.borrow_mut().insert(key, d);
                return d;
            }
        };
        // The protocol-efficiency law taxes the wire time only; per-step
        // launch overheads are already real time, not lost bandwidth.
        let steps = fluid.step_durations.len() as f64;
        let overhead = steps * STEP_OVERHEAD.as_secs_f64();
        let wire = (fluid.duration.as_secs_f64() - overhead).max(0.0);
        let secs = overhead + wire / self.truth.comm_protocol_eff(scope, bytes as f64);
        self.comm_cache.borrow_mut().insert(key, secs);
        secs
    }

    /// Execute a graph end to end with ground-truth pricing, producing the
    /// "production" timeline Seer is verified against.
    pub fn execute(&self, graph: &OperatorGraph, par: &ParallelismConfig) -> Timeline {
        let pricer = TruthPricer { testbed: self };
        schedule(graph, par, &pricer)
    }

    /// Run the self-correction measurement campaign (paper §4.3): noisy
    /// compute/HBM microbenchmarks plus collective sweeps on the flow
    /// simulator, fitted into polynomial efficiency curves.
    pub fn calibrate(&self, par: &ParallelismConfig, seed: u64) -> Calibration {
        let mut rng = SimRng::new(seed);

        // Arithmetic: sample kernels from 2^24 to 2^38 FLOPs.
        let compute_samples: Vec<(f64, f64)> = (24..=38)
            .map(|i| {
                let flops = (1u64 << i) as f64;
                (flops, self.truth.measure_compute_eff(flops, &mut rng))
            })
            .collect();
        // HBM: streams from 64 KiB to 16 GiB.
        let memory_samples: Vec<(f64, f64)> = (16..=34)
            .map(|i| {
                let bytes = (1u64 << i) as f64;
                (bytes, self.truth.measure_memory_eff(bytes, &mut rng))
            })
            .collect();

        // Network: sweep each (scope, collective family) the pricer will
        // consult and compare measured durations against the α–β ideal to
        // get achieved-bandwidth fractions.
        let mut comm = HashMap::new();
        let hb = self.topo.hb_domain().gpus_per_domain.min(par.world());
        let rails = self.topo.rails() as u32;
        let sweeps: Vec<(CommScope, CommKind, Collective, GroupKind, u32)> = vec![
            (
                CommScope::Nvlink,
                CommKind::Ring,
                Collective::AllReduce,
                GroupKind::Tp,
                hb.max(2),
            ),
            (
                CommScope::Rail,
                CommKind::Ring,
                Collective::AllReduce,
                GroupKind::Dp,
                8.min(par.dp.max(2)),
            ),
            (
                CommScope::Rail,
                CommKind::PointToPoint,
                Collective::Send,
                GroupKind::Pp,
                2,
            ),
            (
                CommScope::CrossRail,
                CommKind::AllToAll,
                Collective::AllToAll,
                GroupKind::Tp,
                (2 * rails).min(par.world()),
            ),
            (
                CommScope::Rail,
                CommKind::AllToAll,
                Collective::AllToAll,
                GroupKind::Dp,
                8.min(par.dp.max(2)),
            ),
        ];
        for (scope, ckind, coll, gkind, size) in sweeps {
            if size < 2 {
                continue;
            }
            let gpus = self.group_gpus(par, gkind, size);
            if self.scope_of_group(&gpus) != scope {
                continue;
            }
            let n = size as usize;
            // Steps and per-rank wire volume factor of the swept collective.
            let (steps, vol_factor) = match coll {
                Collective::AllReduce => (2.0 * (n - 1) as f64, 2.0 * (n - 1) as f64 / n as f64),
                Collective::AllToAll => ((n - 1) as f64, (n - 1) as f64 / n as f64),
                Collective::Send => (1.0, 1.0),
                _ => unreachable!("calibration sweeps are fixed above"),
            };
            let bw = match scope {
                CommScope::Nvlink => self.topo.hb_domain().bandwidth_bps,
                _ => 400e9,
            };

            // Measure, then split α from the bandwidth term: the smallest
            // sizes are overhead-dominated, so α̂ comes from a least-squares
            // intercept of measured-time vs wire volume.
            let mut pts: Vec<(f64, f64)> = Vec::new(); // (wire_bits, secs)
            for i in 16..=28 {
                let bytes = 1u64 << i;
                let measured = self.measure_collective(par, coll, gkind, size, bytes);
                pts.push((vol_factor * bytes as f64 * 8.0, measured));
            }
            // α̂ from the smallest (overhead-dominated) sample, after
            // subtracting its (near-negligible) ideal wire time.
            let (min_wire_bits, min_secs) = pts[0];
            let alpha_s = ((min_secs - min_wire_bits / bw) / steps).max(0.0);

            // Residual bandwidth efficiency after removing the overhead;
            // overhead-dominated samples carry no bandwidth signal, so only
            // sizes where the wire term is substantial enter the fit.
            let samples: Vec<(f64, f64)> = pts
                .iter()
                .enumerate()
                .filter_map(|(k, &(wire_bits, secs))| {
                    let bytes = 1u64 << (16 + k);
                    let wire_secs = secs - steps * alpha_s;
                    if wire_secs < 0.25 * secs {
                        return None;
                    }
                    let eff = (wire_bits / bw / wire_secs).clamp(0.01, 1.0);
                    Some((bytes as f64, eff))
                })
                .collect();
            if samples.len() < 5 {
                continue;
            }
            comm.insert(
                (scope, ckind),
                CommCalibration {
                    alpha_s,
                    eff: fit_curve(&samples, 4),
                },
            );
        }
        // Scopes without a measurable group keep a conservative prior.
        let mut cal = Calibration {
            compute: fit_curve(&compute_samples, 5),
            memory: fit_curve(&memory_samples, 5),
            comm,
        };
        for scope in [
            CommScope::Nvlink,
            CommScope::Rail,
            CommScope::CrossRail,
            CommScope::CrossDc,
        ] {
            cal.comm
                .entry((scope, CommKind::Ring))
                .or_insert_with(|| CommCalibration {
                    alpha_s: 10e-6,
                    eff: crate::calibrate::EfficiencyCurve::constant(0.75),
                });
        }
        cal
    }
}

/// Ground-truth pricer used by [`Testbed::execute`].
struct TruthPricer<'b, 'a> {
    testbed: &'b Testbed<'a>,
}

impl OpPricer for TruthPricer<'_, '_> {
    fn duration(&self, op: &Operator, par: &ParallelismConfig) -> f64 {
        let truth = &self.testbed.truth;
        // Expert-parallel operators suffer the routing-imbalance straggler
        // factor Seer cannot model (paper §4.3: MoE deviation is higher
        // "due to unpredictable expert selection").
        let imbalance = if op.name.starts_with("ExpertFFN")
            || (matches!(
                op.kind,
                OpKind::Comm {
                    group: astral_model::GroupKind::Ep,
                    ..
                }
            )) {
            truth.moe_imbalance
        } else {
            1.0
        };
        imbalance
            * match op.kind {
                OpKind::Compute { flops } => truth.compute_secs(flops),
                OpKind::Memory { bytes } => truth.memory_secs(bytes as f64),
                OpKind::Fused { flops, bytes } => truth
                    .compute_secs(flops)
                    .max(truth.memory_secs(bytes as f64)),
                OpKind::Comm {
                    coll,
                    group,
                    group_size,
                    bytes,
                } => self
                    .testbed
                    .measure_collective(par, coll, group, group_size, bytes),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_topo::{build_astral, AstralParams};

    fn fixture() -> Topology {
        build_astral(&AstralParams::sim_small())
    }

    fn small_par() -> ParallelismConfig {
        let mut p = ParallelismConfig::new(4, 2, 4);
        p.microbatches = 4;
        p
    }

    #[test]
    fn scope_detection() {
        let topo = fixture();
        let tb = Testbed::new(&topo, GpuSpec::h100());
        // GPUs 0..4 share one HB domain in sim_small.
        assert_eq!(
            tb.scope_of_group(&[GpuId(0), GpuId(1), GpuId(2)]),
            CommScope::Nvlink
        );
        // Rail-aligned across hosts.
        assert_eq!(
            tb.scope_of_group(&[GpuId(0), GpuId(4), GpuId(8)]),
            CommScope::Rail
        );
        // Mixed rails across hosts.
        assert_eq!(
            tb.scope_of_group(&[GpuId(0), GpuId(5)]),
            CommScope::CrossRail
        );
    }

    #[test]
    fn collective_measurements_are_cached_and_positive() {
        let topo = fixture();
        let tb = Testbed::new(&topo, GpuSpec::h100());
        let par = small_par();
        let d1 = tb.measure_collective(&par, Collective::AllReduce, GroupKind::Dp, 4, 1 << 24);
        let d2 = tb.measure_collective(&par, Collective::AllReduce, GroupKind::Dp, 4, 1 << 24);
        assert!(d1 > 0.0);
        assert_eq!(d1, d2, "second call must hit the cache");
        assert_eq!(tb.comm_cache.borrow().len(), 1);
    }

    #[test]
    fn measured_times_exceed_alpha_beta_ideal() {
        // Protocol losses + chunked steps make the testbed slower than the
        // ideal model — that is the gap calibration must learn.
        let topo = fixture();
        let tb = Testbed::new(&topo, GpuSpec::h100());
        let par = small_par();
        let bytes = 1u64 << 26;
        let measured = tb.measure_collective(&par, Collective::AllReduce, GroupKind::Dp, 4, bytes);
        let ideal = astral_collectives::cost::all_reduce(4, bytes, 400e9, 12e-6);
        assert!(
            measured > ideal,
            "measured {measured} should exceed ideal {ideal}"
        );
    }

    #[test]
    fn calibration_learns_the_truth_laws() {
        let topo = fixture();
        let tb = Testbed::new(&topo, GpuSpec::h100());
        let par = small_par();
        let cal = tb.calibrate(&par, 42);
        // The fitted compute curve must track the hidden law within noise
        // across the realistic kernel-size range (tiny kernels sit below
        // the curve's clamp floor and carry no signal).
        for i in [30u32, 33, 36] {
            let flops = (1u64 << i) as f64;
            let fitted = cal.compute.efficiency(flops);
            let truth = tb.truth().compute_eff(flops);
            assert!(
                (fitted - truth).abs() / truth < 0.12,
                "flops 2^{i}: fitted {fitted} vs truth {truth}"
            );
        }
        // Every scope has at least a Ring curve.
        for scope in [
            CommScope::Nvlink,
            CommScope::Rail,
            CommScope::CrossRail,
            CommScope::CrossDc,
        ] {
            assert!(cal.comm.contains_key(&(scope, CommKind::Ring)));
        }
    }

    #[test]
    fn testbed_executes_a_training_graph() {
        let topo = fixture();
        let tb = Testbed::new(&topo, GpuSpec::h100());
        let par = small_par();
        let mut model = astral_model::ModelConfig::llama3_8b();
        model.layers = 4;
        model.hidden = 1024;
        model.ffn_hidden = 4096;
        model.vocab = 32000;
        model.seq_len = 1024;
        let graph = astral_model::build_training_iteration(&model, &par);
        let timeline = tb.execute(&graph, &par);
        assert!(timeline.total.as_secs_f64() > 0.0);
        assert_eq!(timeline.entries.len(), graph.len());
    }
}

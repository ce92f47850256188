//! The four closed-loop workloads. Each is driven by one caller on one
//! thread: an op's input is generated from `(seed, op index)` by the
//! benchmark, the program sees only that input, and the output is checked
//! after the timed call returns.

use crate::clock::Clock;
use astral_topo::{Router, Topology};
use std::sync::Arc;

pub mod campaign;
pub mod collectives;
pub mod fleet;
pub mod whatif;

/// Seed of the warm-up ops run in setup: fixed, so setup does the same
/// work whatever the run's seed.
pub const WARM_SEED: u64 = 0x0077_a12d;

/// What a successful op hands back to the harness.
#[derive(Debug, Clone, Copy)]
pub struct OpOut {
    /// Simulated GPU-seconds the op covered.
    pub sim_gpu_s: f64,
    /// Fingerprint of the op's output (exact bits).
    pub fingerprint: u64,
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Root span name of one op.
    const OP: &'static str;
    /// Setup repetitions per run (`setup_s` is their median).
    const SETUP_REPS: usize;
    /// Ops in the committed golden stream.
    const GOLDEN_OPS: u64;
    /// Nominal tail percentile (see `stats::tail_percentile`).
    const TAIL_PCT: f64;
    /// Ops a traced run of another workload runs on the probe instance.
    const PROBE_OPS: u64;

    /// Build everything the timed ops need, including a warm-up prefix.
    /// Setup does not depend on the run's seed, so its time does not
    /// either. `probe` builds the small instance a traced run of another
    /// workload uses to measure this workload's layers.
    fn setup(probe: bool, clock: &mut Clock) -> Self;

    /// Ops per stratified round: every round holds the same mix of op
    /// shapes, and a timed window ends on a round boundary.
    fn round_len(&self) -> u64;

    /// Run op `idx` of the stream of `seed`; only calls made through
    /// `clock.time` count toward its latency.
    fn op(&mut self, seed: u64, idx: u64, clock: &mut Clock) -> Result<OpOut, String>;

    /// Tally counters that accumulate over the whole window.
    fn window_done(&mut self, _clock: &mut Clock) {}
}

/// `Err` with `msg` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// `Err` unless `x` is finite and in `[0, 1]`.
pub fn ensure_unit(what: &str, x: f64) -> Result<(), String> {
    ensure((0.0..=1.0).contains(&x), || {
        format!("{what} = {x} outside [0, 1]")
    })
}

/// A router with every NIC's distance field and next-hop table built:
/// the lazy routing set-up a long-running fabric has already paid.
pub fn warm_router(topo: &Topology) -> Arc<Router> {
    let router = Arc::new(Router::new());
    let nics: Vec<_> = topo.hosts().iter().flat_map(|h| h.nics.clone()).collect();
    for (i, &dst) in nics.iter().enumerate() {
        // Walking any path toward `dst` builds its whole next-hop table;
        // the next host's NIC on the same rail always has one.
        let src = nics[(i + topo.rails() as usize) % nics.len()];
        let _ = router.try_path_with(topo, src, dst, |_, _| 0);
    }
    router
}

//! Host-speed reference: a frozen kernel timed interleaved with the
//! workload, so host time can be reported at nominal reference speed.
//!
//! The host this benchmark runs on drifts: the same single-threaded op
//! stream runs tens of percent slower in some batches of runs than in
//! others while on-CPU time tracks wall time. The kernel below mixes five
//! costs the workloads pay and is sampled throughout every timed window:
//!
//! - a sort (branchy, cache-resident integer work, like event queues);
//! - an open-addressed hash table (probing loops, like the route memo and
//!   the what-if caches);
//! - independent random loads from a table far larger than L2
//!   (cache-missing memory traffic);
//! - a progressive-filling max-min pass over random flow-to-link
//!   incidences (the rate solver's access pattern);
//! - allocation churn: short-lived vectors and hash maps of varied size,
//!   as every simulation and pricing call makes. Of the five parts, this
//!   one moved most like the workloads when the host sped up.
//!
//! A host-time value `t` measured while the kernel read `r` ms is reported
//! as `t × REF_NOMINAL_MS / r`; the raw value and the reading are reported
//! beside it.
//!
//! Nothing here may change once baselines exist: the kernel *is* the unit
//! of normalized time.

use crate::stats::{median, Rng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal kernel time, ms: the reading normalized metrics are scaled to.
pub const REF_NOMINAL_MS: f64 = 1.0;
/// Keys sorted per kernel run (128 KiB: L2-resident).
const SORT_KEYS: usize = 16_384;
/// Hash-table slots (power of two; 256 KiB of key/value pairs).
const TABLE_SLOTS: usize = 1 << 14;
/// Inserts, then as many lookups, per kernel run.
const TABLE_OPS: usize = 6_000;
/// Cache-missing table length (u64 slots): 32 MiB, sixteen times a 2 MiB L2.
const BIG_SLOTS: usize = 4 << 20;
/// Random loads from the cache-missing table per kernel run.
const BIG_LOADS: usize = 5_000;
/// Links of the water-filling pass.
const WF_LINKS: usize = 32_768;
/// Flows of the water-filling pass, each crossing `WF_HOPS` random links.
const WF_FLOWS: usize = 4_096;
const WF_HOPS: usize = 4;
/// Filling rounds per kernel run.
const WF_ROUNDS: usize = 2;
/// Vector-plus-map allocations per kernel run.
const ALLOC_ROUNDS: u64 = 400;
/// Entries inserted into each short-lived map.
const ALLOC_MAP_ENTRIES: usize = 64;
/// Readings on each side of an instant that its local speed is the
/// median of (about a second of window at the harness's cadence).
const NEIGHBOURS: usize = 12;

/// The reference kernel and its readings, stamped on the run's clock.
pub struct HostRef {
    keys: Vec<u64>,
    table: Vec<(u64, u64)>,
    big: Vec<u64>,
    wf_cap: Vec<f64>,
    wf_links: Vec<u32>,
    wf_rem: Vec<f64>,
    wf_count: Vec<u32>,
    wf_rate: Vec<f64>,
    wf_active: Vec<bool>,
    rng: Rng,
    origin: Instant,
    /// `(seconds since origin at the reading's midpoint, reading in ms)`.
    samples: Vec<(f64, f64)>,
}

impl HostRef {
    /// Allocate and fill the kernel's buffers.
    pub fn new(origin: Instant) -> Self {
        let mut rng = Rng::new(0x05ee_d0f0_4e55, 0);
        let big = (0..BIG_SLOTS).map(|_| rng.next()).collect();
        let wf_cap = (0..WF_LINKS).map(|_| 1.0 + rng.below(8) as f64).collect();
        let wf_links = (0..WF_FLOWS * WF_HOPS)
            .map(|_| rng.below(WF_LINKS as u64) as u32)
            .collect();
        HostRef {
            keys: vec![0; SORT_KEYS],
            table: vec![(0, 0); TABLE_SLOTS],
            big,
            wf_cap,
            wf_links,
            wf_rem: vec![0.0; WF_LINKS],
            wf_count: vec![0; WF_LINKS],
            wf_rate: vec![0.0; WF_FLOWS],
            wf_active: vec![true; WF_FLOWS],
            rng,
            origin,
            samples: Vec::new(),
        }
    }

    /// Run the kernel once, record and return the reading in ms.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        for k in self.keys.iter_mut() {
            *k = self.rng.next();
        }
        self.keys.sort_unstable();
        black_box(&self.keys);

        // Linear-probing table; key 0 marks an empty slot.
        let mask = TABLE_SLOTS - 1;
        self.table.fill((0, 0));
        for i in 0..TABLE_OPS as u64 {
            let key = (self.rng.next() & 0xffff) | 1;
            let mut h = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) as usize;
            while self.table[h].0 != 0 && self.table[h].0 != key {
                h = (h + 1) & mask;
            }
            self.table[h] = (key, i);
        }
        let mut acc = 0u64;
        for _ in 0..TABLE_OPS {
            let key = (self.rng.next() & 0xffff) | 1;
            let mut h = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) as usize;
            while self.table[h].0 != 0 {
                if self.table[h].0 == key {
                    acc = acc.wrapping_add(self.table[h].1);
                    break;
                }
                h = (h + 1) & mask;
            }
        }

        for _ in 0..BIG_LOADS {
            let v = self.big[self.rng.next() as usize & (BIG_SLOTS - 1)];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v >> 3;
            }
        }
        black_box(acc);
        self.water_fill();
        for i in 0..ALLOC_ROUNDS {
            let n = 64 + self.rng.below(4096);
            let v: Vec<u64> = (0..n).map(|x| x ^ i).collect();
            let mut m = HashMap::with_capacity(ALLOC_MAP_ENTRIES);
            for &x in v.iter().take(ALLOC_MAP_ENTRIES) {
                m.insert(x, i);
            }
            black_box((&v, &m));
        }
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        let mid = ((t0 - self.origin) + (t1 - t0) / 2).as_secs_f64();
        self.samples.push((mid, ms));
        ms
    }

    /// A few rounds of progressive filling: find the tightest link share,
    /// raise every active flow by it, freeze flows on saturated links.
    fn water_fill(&mut self) {
        self.wf_rem.copy_from_slice(&self.wf_cap);
        self.wf_count.fill(0);
        self.wf_rate.fill(0.0);
        self.wf_active.fill(true);
        for &l in &self.wf_links {
            self.wf_count[l as usize] += 1;
        }
        for _ in 0..WF_ROUNDS {
            let share = self
                .wf_rem
                .iter()
                .zip(&self.wf_count)
                .filter(|(_, &n)| n > 0)
                .map(|(&r, &n)| r / n as f64)
                .fold(f64::INFINITY, f64::min);
            if !share.is_finite() {
                break;
            }
            for (f, hops) in self.wf_links.chunks_exact(WF_HOPS).enumerate() {
                if self.wf_active[f] {
                    self.wf_rate[f] += share;
                    for &l in hops {
                        self.wf_rem[l as usize] -= share;
                    }
                }
            }
            for (f, hops) in self.wf_links.chunks_exact(WF_HOPS).enumerate() {
                if self.wf_active[f] && hops.iter().any(|&l| self.wf_rem[l as usize] <= 1e-9) {
                    self.wf_active[f] = false;
                    for &l in hops {
                        self.wf_count[l as usize] -= 1;
                    }
                }
            }
        }
        black_box(&self.wf_rate);
    }

    /// Every reading taken so far.
    pub fn readings(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// Local kernel time at `t` seconds since origin: the median of the
    /// readings nearest in time on either side.
    pub fn local_ms(&self, t: f64) -> f64 {
        let s = &self.samples;
        assert!(!s.is_empty(), "no host-reference reading taken");
        let pos = s.partition_point(|x| x.0 < t);
        let lo = pos.saturating_sub(NEIGHBOURS);
        let hi = (pos + NEIGHBOURS).min(s.len());
        let near: Vec<f64> = s[lo..hi].iter().map(|x| x.1).collect();
        median(&near)
    }

    /// Scale factor from raw host time at `t` to nominal reference speed.
    pub fn factor_at(&self, t: f64) -> f64 {
        REF_NOMINAL_MS / self.local_ms(t)
    }
}

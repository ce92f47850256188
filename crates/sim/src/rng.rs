//! Deterministic, splittable random number generation.
//!
//! Every stochastic choice in the reproduction (failure arrival times, which
//! rack a fault lands on, telemetry jitter, …) draws from a [`SimRng`].
//! `SimRng` is a SplitMix64-seeded xoshiro256++ generator implemented here so
//! the exact stream is pinned by this repository, independent of `rand`
//! version bumps. It implements [`rand::RngCore`], so the full `rand`
//! combinator surface (`gen_range`, distributions, `SliceRandom`) works.
//!
//! [`SimRng::split`] derives an independent child stream from a label, which
//! lets subsystems (network jitter vs. failure injection) consume randomness
//! without perturbing each other's sequences when one of them changes.

use crate::Digest;
use rand::{Error, RngCore};

/// Splittable deterministic RNG (xoshiro256++ core, SplitMix64 seeding).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derive an independent child generator for `label`.
    ///
    /// The child's stream is a pure function of (parent state, label), and
    /// deriving it advances the parent by exactly one step regardless of how
    /// much the child is later used.
    pub fn split(&mut self, label: &str) -> SimRng {
        let mut h = Digest::new();
        h.write_bytes(label.as_bytes());
        SimRng::new(self.next_u64() ^ h.finish())
    }

    /// Next value in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Requires `lo < hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Requires `n > 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Sample an exponential inter-arrival with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.next_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + stddev * z
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Pick an index according to non-negative `weights` (need not sum to 1).
    ///
    /// Returns `None` if the total weight is zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().sum();
        if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return Some(i);
            }
        }
        Some(weights.len() - 1)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        // xoshiro256++
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_child_usage() {
        let mut p1 = SimRng::new(7);
        let mut c1 = p1.split("net");
        let _ = c1.next_u64(); // consume from child

        let mut p2 = SimRng::new(7);
        let _c2 = p2.split("net"); // never used

        // Parents must agree regardless of child consumption.
        for _ in 0..100 {
            assert_eq!(p1.next_u64(), p2.next_u64());
        }
    }

    #[test]
    fn split_label_changes_stream() {
        let mut p = SimRng::new(7);
        let mut a = p.clone().split("a");
        let mut b = p.split("b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::new(9);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.15, "var was {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(21);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio was {ratio}");
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(33);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "50 items should shuffle");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut r = SimRng::new(1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}

//! Order statistics, the tail-percentile rule, and the benchmark's own
//! seeded generator and fingerprint hash.

/// Linear-interpolated percentile (`q` in [0, 100]) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

fn percentile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Samples strictly above the `q`th percentile's rank among `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q / 100.0 * n as f64).ceil() as usize).min(n)
}

/// The tail percentile a workload reports: its nominal percentile when at
/// least ten samples lie beyond it, otherwise the highest lower rung of
/// the ladder that has ten. `None` when even p50 has fewer than ten.
pub fn tail_percentile(n: usize, nominal: f64) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&q| q <= nominal)
        .find(|&q| beyond(n, q) >= 10)
}

/// SplitMix64: the benchmark's input generator. Frozen so that a seed
/// names the same inputs in every version of the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a fold of one 64-bit word into a running fingerprint.
pub fn fnv(acc: u64, x: u64) -> u64 {
    let mut h = acc;
    for b in x.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis: the fingerprint of an empty stream.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of a string.
pub fn fnv_str(s: &str) -> u64 {
    s.bytes().fold(FNV_BASIS, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.9), Some(99.0));
        assert_eq!(tail_percentile(150, 95.0), Some(90.0));
        assert_eq!(tail_percentile(15, 95.0), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }
}

//! The workspace's one FNV-1a 64-bit digest.
//!
//! Content fingerprints (topology, Seer scenarios and timelines, rng split
//! labels, bench answer streams) are all FNV-1a folds from the same offset
//! basis. Two feeding styles exist and are not interchangeable: the
//! byte-wise `write_*` methods fold one byte per multiply (canonical
//! FNV-1a over a byte encoding), while [`Digest::fold_word`] folds a whole
//! 64-bit word per multiply. Each fingerprint keeps the style it was
//! defined with, so every committed value stays bit-identical.

/// FNV-1a offset basis (64-bit): the digest of empty input.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An incremental FNV-1a 64-bit digest over a canonical byte encoding:
/// integers little-endian, floats via [`f64::to_bits`], strings as length
/// then bytes. The methods are `#[inline]` because the what-if service
/// digests every query on its cache-hit path, in another crate.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// A fresh digest at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    /// Feed raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feed one byte.
    #[inline]
    pub fn write_u8(&mut self, x: u8) {
        self.write_bytes(&[x]);
    }

    /// Feed a `u32`, little-endian.
    #[inline]
    pub fn write_u32(&mut self, x: u32) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Feed a `u64`, little-endian.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Feed an `f64` as its exact bit pattern.
    #[inline]
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// Feed a bool as one byte.
    #[inline]
    pub fn write_bool(&mut self, x: bool) {
        self.write_u8(x as u8);
    }

    /// Feed a string as length then bytes (prefix-free).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Fold a whole 64-bit word in one multiply. Not the byte-wise
    /// encoding: `fold_word(x)` and `write_u64(x)` give different digests.
    #[inline]
    pub fn fold_word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(FNV_PRIME);
    }

    /// The digest value accumulated so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // FNV-1a 64 test vectors: "" and "a".
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::new();
        d.write_bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn word_fold_is_one_multiply_per_word() {
        let mut d = Digest::new();
        d.fold_word(0x61);
        let mut b = Digest::new();
        b.write_u8(0x61);
        // A word below 256 folds like its single byte…
        assert_eq!(d.finish(), b.finish());
        // …but a full word is not its eight little-endian bytes.
        let mut w = Digest::new();
        w.fold_word(1 << 40);
        let mut le = Digest::new();
        le.write_u64(1 << 40);
        assert_ne!(w.finish(), le.finish());
    }
}

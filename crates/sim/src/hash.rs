//! A deterministic multiplicative hasher for maps keyed by internal ids.
//!
//! std's default `RandomState` runs SipHash-1-3 under a per-process random
//! key: collision-resistant against chosen keys, but several times the cost
//! of the lookup itself when the key is a pair of small integers. Simulator
//! hot paths key maps by dense ids no adversary chooses, so one rotate, xor
//! and multiply per word (the Fx scheme) is enough, and the fixed start
//! state makes iteration order reproducible across runs.

use std::hash::{BuildHasherDefault, Hasher};

/// Fx's odd multiplier (the hasher rustc and Firefox use).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiplicative hasher. Not collision-resistant against
/// chosen keys; use it only for internal ids.
#[derive(Debug, Default, Clone, Copy)]
pub struct MulHasher {
    hash: u64,
}

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`MulHasher`]: the one std hash map the root
/// `clippy.toml` allows, since every run iterates it in the same order.
#[allow(clippy::disallowed_types)]
pub type MulHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<MulHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<MulHasher>::default().hash_one(v)
    }

    #[test]
    fn fixed_start_state_is_reproducible() {
        assert_eq!(hash_of(&(3u32, 7u32)), hash_of(&(3u32, 7u32)));
        assert_ne!(hash_of(&(3u32, 7u32)), hash_of(&(7u32, 3u32)));
        // Byte-slice writes fold trailing bytes in as a zero-padded word.
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2][..]));
    }

    #[test]
    fn map_round_trips_id_pairs() {
        let mut m: MulHashMap<(u32, u32), u64> = MulHashMap::default();
        for a in 0..64u32 {
            for b in 0..64u32 {
                m.insert((a, b), (a as u64) << 32 | b as u64);
            }
        }
        assert_eq!(m.len(), 64 * 64);
        assert_eq!(m[&(5, 9)], 5 << 32 | 9);
    }
}

//! ECMP hashing with the *hash linearity* property.
//!
//! Commodity switching ASICs hash the five-tuple with CRC-family functions,
//! which are **linear** in their input bits: flipping a source-port bit XORs
//! a fixed pattern into the hash value (Zhang et al., ATC'21 [50,51] — the
//! property the paper's optimized ECMP exploits). We reproduce that
//! structure exactly:
//!
//! ```text
//! H(switch, tuple) = B(switch, ip/port/proto fields without sport)
//!                    XOR  L(sport)
//! ```
//!
//! where `L` is linear over GF(2): `L(a ^ b) = L(a) ^ L(b)`. The centralized
//! controller therefore *knows* how changing a flow's UDP source port will
//! move it, which is what makes source-port reassignment a precise path
//! selector rather than a dice roll.
//!
//! Two salt modes model the polarization axis:
//! * [`SaltMode::Uniform`] — every switch computes the identical hash, as
//!   fleets of same-vendor ASICs with default seeds do. Downstream choices
//!   correlate with upstream ones → **hash polarization**.
//! * [`SaltMode::PerSwitch`] — each switch perturbs the hash with its own
//!   salt (vendor "hash offset" feature), decorrelating the stages.

use crate::fivetuple::FiveTuple;
use astral_topo::NodeId;
use serde::{Deserialize, Serialize};

/// How switches diversify their hash functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SaltMode {
    /// All switches use the same hash (polarization-prone; production
    /// default for commodity fleets).
    #[default]
    Uniform,
    /// Each switch mixes its node id into the hash.
    PerSwitch,
}

/// ECMP hasher shared by the simulated switches of one fabric.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EcmpHasher {
    /// Salt diversification mode.
    pub salt: SaltMode,
    /// Fabric-wide hash seed (vendor default seed).
    pub seed: u64,
}

impl Default for EcmpHasher {
    fn default() -> Self {
        EcmpHasher {
            salt: SaltMode::Uniform,
            seed: 0xA57A_1234_5678_9ABC,
        }
    }
}

/// Per-bit XOR patterns of the linear source-port layer: `L(sport)` is the
/// XOR of `SPORT_BASIS[i]` over the set bits of `sport`. The patterns are
/// fixed odd constants, mimicking CRC remainders of the 16 sport bit
/// positions.
const SPORT_BASIS: [u64; 16] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0x1F83_D9AB_FB41_BD6B,
    0x5BE0_CD19_137E_2179,
    0x8F1B_BCDC_BFA5_3E0B,
    0xCA62_C1D6_6ED9_EBA1,
    0x6A09_E667_F3BC_C909,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
    0x510E_527F_ADE6_82D1,
    0x9B05_688C_2B3E_6C1F,
    0xE07F_A9D6_3B2F_59ED,
    0x71C3_41A3_9D67_8F43,
];

/// `L(sport)`: the GF(2)-linear sport layer.
///
/// Basis patterns are derived with a strong mixer so that any 6-bit window
/// of the hash sees a full-rank projection of the sport bits (the handpicked
/// `SPORT_BASIS` constants turned out rank-deficient in some windows).
pub fn sport_layer(sport: u16) -> u64 {
    let mut acc = 0u64;
    for (bit, basis) in SPORT_BASIS.iter().enumerate() {
        if sport & (1 << bit) != 0 {
            acc ^= mix(*basis ^ (bit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }
    acc
}

/// A strong non-linear mix for the non-sport fields (splitmix64 finalizer).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl EcmpHasher {
    /// Hash a tuple at a switch.
    ///
    /// In [`SaltMode::Uniform`] the sport layer `L` is shared by every
    /// switch, so changing the sport XORs the *same* pattern into every
    /// hop's hash — "relative path control" (ATC'21): paths move together,
    /// and the jointly reachable path set is a strict subset (polarization).
    /// In [`SaltMode::PerSwitch`] each switch additionally rotates `L` by a
    /// private amount — still linear per switch, but decorrelated across
    /// hops, as fleets with per-device hash seeds/polynomials behave.
    pub fn hash(&self, switch: NodeId, tuple: &FiveTuple) -> u64 {
        self.tuple_hash(tuple).hash(switch)
    }

    /// Pick one of `n` equal-cost candidates, as a switch would.
    ///
    /// Even in [`SaltMode::Uniform`] each switch samples its own bit window
    /// of the shared hash value (the per-device "hash offset" every vendor
    /// ships, and the standard mitigation in multi-tier Clos): selection
    /// stages decorrelate, while the hash itself — and therefore which path
    /// a given tuple takes — stays fully deterministic and predictable by
    /// the controller's hash simulator. The polarization that remains is
    /// the *persistent* kind: the same tuples collide on the same links in
    /// every collective round until a source port is reassigned, which is
    /// precisely the pathology Figure 17's controller loop repairs.
    pub fn choose(&self, switch: NodeId, tuple: &FiveTuple, n: usize) -> usize {
        self.tuple_hash(tuple).choose(switch, n)
    }

    /// The switch-independent part of hashing `tuple`, computed once for a
    /// whole route walk: the seed and field mix and the sport layer.
    pub(crate) fn tuple_hash(&self, tuple: &FiveTuple) -> TupleHash {
        let fields = self.seed
            ^ ((tuple.src_ip as u64) << 32 | tuple.dst_ip as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ ((tuple.dst_port as u64) << 8 | tuple.proto as u64);
        let sport = sport_layer(tuple.src_port);
        TupleHash(match self.salt {
            SaltMode::Uniform => TupleState::Uniform(mix(fields) ^ sport),
            SaltMode::PerSwitch => TupleState::PerSwitch { fields, sport },
        })
    }
}

/// One five-tuple hashed for a route walk ([`EcmpHasher::tuple_hash`]):
/// each hop adds only its switch's part — the selection window, plus the
/// salt and sport rotation in [`SaltMode::PerSwitch`]. [`EcmpHasher::hash`]
/// and [`EcmpHasher::choose`] are defined through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TupleHash(TupleState);

#[derive(Debug, Clone, Copy)]
enum TupleState {
    /// Every switch computes this same value.
    Uniform(u64),
    /// The unmixed seed/field word and `L(sport)`, before the switch salt.
    PerSwitch { fields: u64, sport: u64 },
}

impl TupleHash {
    /// The tuple's hash at `switch`.
    pub(crate) fn hash(&self, switch: NodeId) -> u64 {
        match self.0 {
            TupleState::Uniform(h) => h,
            TupleState::PerSwitch { fields, sport } => {
                let salt = mix(switch.0 as u64 ^ 0xD6E8_FEB8_6659_FD93);
                let rot = (salt % 63) as u32 + 1;
                mix(fields ^ salt) ^ sport.rotate_left(rot)
            }
        }
    }

    /// The index among `n` equal-cost candidates that `switch` picks.
    pub(crate) fn choose(&self, switch: NodeId, n: usize) -> usize {
        debug_assert!(n > 0);
        let shift = (mix(switch.0 as u64 ^ 0x9E37_79B9_7F4A_7C15) % 48) as u32;
        (self.hash(switch).rotate_right(shift) % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fivetuple::ip_of_nic;

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple::roce(ip_of_nic(NodeId(3)), ip_of_nic(NodeId(77)), sport)
    }

    /// The defining linearity property: H(s1) ^ H(s2) depends only on
    /// s1 ^ s2, not on the rest of the tuple or the switch.
    #[test]
    fn sport_layer_is_linear() {
        for (a, b) in [(0u16, 1), (49152, 50000), (0xFFFF, 0x1234), (7, 7)] {
            assert_eq!(
                sport_layer(a) ^ sport_layer(b),
                sport_layer(a ^ b) ^ sport_layer(0) ^ sport_layer(0)
            );
        }
        // And in the full hash: the XOR difference is switch-independent.
        let h = EcmpHasher::default();
        let d1 = h.hash(NodeId(1), &tuple(50000)) ^ h.hash(NodeId(1), &tuple(50003));
        let d2 = h.hash(NodeId(9), &tuple(50000)) ^ h.hash(NodeId(9), &tuple(50003));
        assert_eq!(d1, d2);
        assert_eq!(d1, sport_layer(50000 ^ 50003));
    }

    #[test]
    fn uniform_salt_polarizes_switch_choices() {
        // With uniform salt, every switch computes the same hash value →
        // same residues → correlated choices.
        let h = EcmpHasher {
            salt: SaltMode::Uniform,
            ..EcmpHasher::default()
        };
        let t = tuple(51234);
        assert_eq!(h.hash(NodeId(1), &t), h.hash(NodeId(2), &t));
    }

    #[test]
    fn per_switch_salt_decorrelates() {
        let h = EcmpHasher {
            salt: SaltMode::PerSwitch,
            ..EcmpHasher::default()
        };
        let t = tuple(51234);
        assert_ne!(h.hash(NodeId(1), &t), h.hash(NodeId(2), &t));
    }

    #[test]
    fn sport_controls_choice() {
        // Across the ephemeral range, a flow must be steerable to every one
        // of n candidate indices by sport choice alone.
        let h = EcmpHasher::default();
        for n in [2usize, 3, 4, 8, 64] {
            let mut seen = vec![false; n];
            for sport in 49152..49152 + 1024 {
                seen[h.choose(NodeId(5), &tuple(sport), n)] = true;
            }
            assert!(seen.iter().all(|&s| s), "n={n} not fully steerable");
        }
    }

    #[test]
    fn choices_spread_roughly_evenly() {
        let h = EcmpHasher::default();
        let n = 8usize;
        let mut counts = vec![0usize; n];
        for sport in 49152..=65535u16 {
            counts[h.choose(NodeId(5), &tuple(sport), n)] += 1;
        }
        let total: usize = counts.iter().sum();
        for &c in &counts {
            let frac = c as f64 / total as f64;
            assert!((frac - 1.0 / n as f64).abs() < 0.02, "skewed: {counts:?}");
        }
    }

    #[test]
    fn different_pairs_hash_differently() {
        let h = EcmpHasher::default();
        let t1 = FiveTuple::roce(ip_of_nic(NodeId(3)), ip_of_nic(NodeId(4)), 50000);
        let t2 = FiveTuple::roce(ip_of_nic(NodeId(3)), ip_of_nic(NodeId(5)), 50000);
        assert_ne!(h.hash(NodeId(1), &t1), h.hash(NodeId(1), &t2));
    }

    /// The single-shot hash as it read before walks hashed once: the
    /// per-walk form must reproduce it bit for bit.
    fn reference_choose(h: &EcmpHasher, switch: NodeId, tuple: &FiveTuple, n: usize) -> usize {
        let (salt, rot) = match h.salt {
            SaltMode::Uniform => (0, 0),
            SaltMode::PerSwitch => {
                let s = mix(switch.0 as u64 ^ 0xD6E8_FEB8_6659_FD93);
                (s, (s % 63) as u32 + 1)
            }
        };
        let base = mix(h.seed
            ^ salt
            ^ ((tuple.src_ip as u64) << 32 | tuple.dst_ip as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ ((tuple.dst_port as u64) << 8 | tuple.proto as u64));
        let hash = base ^ sport_layer(tuple.src_port).rotate_left(rot);
        let shift = (mix(switch.0 as u64 ^ 0x9E37_79B9_7F4A_7C15) % 48) as u32;
        (hash.rotate_right(shift) % n as u64) as usize
    }

    #[test]
    fn tuple_hash_matches_single_shot_hash() {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            x = mix(x.wrapping_add(0x9E37_79B9_7F4A_7C15));
            x
        };
        for salt in [SaltMode::Uniform, SaltMode::PerSwitch] {
            for _ in 0..64 {
                let h = EcmpHasher { salt, seed: next() };
                let r = next();
                let tuple = FiveTuple::roce(
                    ip_of_nic(NodeId(r as u32 % 4096)),
                    ip_of_nic(NodeId((r >> 32) as u32 % 4096)),
                    (r >> 16) as u16,
                );
                let walk = h.tuple_hash(&tuple);
                for _ in 0..16 {
                    let r = next();
                    let switch = NodeId(r as u32 % 8192);
                    let n = 1 + (r >> 32) as usize % 64;
                    let want = reference_choose(&h, switch, &tuple, n);
                    assert_eq!(walk.choose(switch, n), want);
                    assert_eq!(h.choose(switch, &tuple, n), want);
                }
            }
        }
    }
}

//! Offline API-compatible subset of `proptest`.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of proptest it uses: the [`Strategy`]
//! trait with `prop_map`/`prop_flat_map`, numeric range strategies, tuple
//! composition, `prop::collection::{vec, btree_set}`, `any::<T>()`, and
//! the `proptest!`/`prop_assert!`/`prop_assert_eq!` macros.
//!
//! Differences from real proptest, acceptable for this workspace's tests:
//! cases are generated from a fixed per-test seed (deterministic across
//! runs) and failures are reported by the standard panic machinery without
//! input shrinking.
//!
//! Two environment variables widen a run without touching the tests:
//! `ASTRAL_PROPTEST_CASES` sets the case count of properties that use the
//! default configuration (64 cases when unset; an explicit
//! `ProptestConfig::with_cases` is left alone), and `ASTRAL_PROPTEST_SEED`
//! is mixed into every per-test seed (unset or 0 keeps the fixed seeds).

use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::ops::{Range, RangeFrom, RangeInclusive};

/// Error type of a property body (`return Ok(())` / `prop_assume` style
/// early exits unify against this).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

/// Test-runner configuration (subset: case count only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: env_override("ASTRAL_PROPTEST_CASES").map_or(64, |n| {
                u32::try_from(n)
                    .unwrap_or_else(|_| panic!("ASTRAL_PROPTEST_CASES={n} is too large"))
            }),
        }
    }
}

/// An unsigned integer read from the environment variable `var`; panics on
/// a value that does not parse, so a typo cannot silently shrink a run.
fn env_override(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    Some(
        raw.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{var}={raw:?} is not an unsigned integer")),
    )
}

/// Deterministic SplitMix64 generator driving value generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed directly.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Derive a stable seed from the property name (FNV-1a).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::new(h)
    }

    /// The generator a property runs on: the name-derived seed, mixed with
    /// `ASTRAL_PROPTEST_SEED` when that is set.
    pub fn for_property(name: &str) -> Self {
        let mut rng = TestRng::from_name(name);
        rng.state ^= env_override("ASTRAL_PROPTEST_SEED").unwrap_or(0);
        rng
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in [0, n) without modulo bias worth worrying about here.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate an intermediate value, then generate from the strategy it
    /// selects.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy yielding a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------
// Numeric ranges
// ---------------------------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    rng.next_u64() as $t
                } else {
                    lo.wrapping_add(rng.below(span as u64) as $t)
                }
            }
        }
        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                (self.start..=<$t>::MAX).generate(rng)
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + rng.next_f64() * (hi - lo)
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

// ---------------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------------

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, broad-magnitude values.
        (rng.next_f64() - 0.5) * 2e12
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------

/// Collection strategies (`prop::collection` in the prelude).
pub mod collection {
    use super::{BTreeSet, Strategy, TestRng};

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<T>` with sizes in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<T>` with sizes in `size` (best effort when
    /// the element universe is smaller than the requested size).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < 64 + target * 16 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Define property tests: each generated case binds the patterns from
/// their strategies and runs the body; assertion failures panic with the
/// standard test machinery (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::TestRng::for_property(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__cfg.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    // Property bodies may `return Ok(())` to skip a case,
                    // mirroring real proptest's Result-typed bodies.
                    #[allow(clippy::redundant_closure_call)]
                    let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = __outcome {
                        panic!("property {} failed: {:?}", stringify!($name), e);
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// The commonly-imported surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestRng,
    };

    /// Namespace alias matching `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(42);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::generate(&(5u64..=5), &mut rng);
            assert_eq!(w, 5);
            let x = Strategy::generate(&(-2.0f64..3.0), &mut rng);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn collections_and_combinators() {
        let mut rng = TestRng::new(7);
        let s = prop::collection::vec(0u32..10, 2..5).prop_map(|v| v.len());
        for _ in 0..100 {
            let n = Strategy::generate(&s, &mut rng);
            assert!((2..5).contains(&n));
        }
        let fm = (1usize..4).prop_flat_map(|n| prop::collection::btree_set(0u32..10, n..=n));
        for _ in 0..100 {
            let set = Strategy::generate(&fm, &mut rng);
            assert!(!set.is_empty() && set.len() < 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_binds_patterns((a, b) in (0u32..10, 0u32..10), c in any::<u64>()) {
            prop_assert!(a < 10 && b < 10);
            let _ = c;
            prop_assert_eq!(a + b, b + a);
        }
    }
}

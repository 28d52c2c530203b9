//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors the
//! slice of proptest's API its property tests use: [`Strategy`] with
//! `prop_map` / `prop_flat_map` / `boxed`, range and tuple strategies,
//! [`collection::vec`], [`prelude::any`], [`prelude::Just`], and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from upstream, deliberate for a zero-dependency shim:
//!
//! * **no shrinking** — a failing case reports its case number and seed, but
//!   is not minimized;
//! * **deterministic seeding** — each test function derives its RNG seed from
//!   its name, so failures reproduce without a persistence file.

#![forbid(unsafe_code)]

pub use rand;

use rand::rngs::StdRng;
use rand::Rng;

/// Runner configuration (subset of upstream's `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The random generator handed to strategies.
pub type TestRng = StdRng;

/// A generator of random values (no shrinking in this shim).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Build a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
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

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategies {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
    (A: 0, B: 1, C: 2, D: 3, E: 4);
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
}

/// `any::<T>()` support: uniform draws over a type's whole domain.
pub trait Arbitrary: Sized {
    /// Draw one uniform value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<u64>()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<u32>()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.gen::<u32>() & 0xFF) as u8
    }
}

/// Strategy wrapper returned by [`prelude::any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Sizes accepted by [`vec()`]: a fixed length or a length range.
    pub trait SizeRange {
        /// Draw a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec<T>` with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Derive a stable 64-bit seed from a test name.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a; any stable hash works — it only namespaces RNG streams.
    let mut h = 0xcbf29ce484222325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use super::collection;
    pub use super::{BoxedStrategy, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Uniform strategy over a type's whole domain (subset of upstream's
    /// `any`).
    pub fn any<T: super::Arbitrary>() -> super::Any<T> {
        super::Any(std::marker::PhantomData)
    }
}

/// Assert a condition inside a property; panics with context on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Assert equality inside a property; panics with context on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Assert inequality inside a property; panics with context on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Property-test declaration macro (subset of upstream's `proptest!`).
///
/// Each declared test runs `config.cases` random cases with a seed derived
/// from the test's name; the case number is reported on panic via the
/// standard panic message location.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                use $crate::Strategy as _;
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng: $crate::TestRng = <$crate::TestRng as $crate::rand::SeedableRng>::
                    seed_from_u64($crate::seed_for(stringify!($name)));
                for __case in 0..__cfg.cases {
                    let __run = |__rng: &mut $crate::TestRng| {
                        $(let $arg = ($strat).generate(__rng);)+
                        $body
                    };
                    let __result = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| __run(&mut __rng)),
                    );
                    if let Err(payload) = __result {
                        eprintln!(
                            "proptest shim: {} failed at case {}/{} (no shrinking)",
                            stringify!($name), __case + 1, __cfg.cases
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( $(#[$meta])* fn $name( $($arg in $strat),+ ) $body )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng: TestRng = rand::SeedableRng::seed_from_u64(1);
        let s = (1usize..=5).prop_flat_map(|n| collection::vec(0u32..10, n));
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..=5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
        let b = (0usize..3).boxed();
        assert!(b.generate(&mut rng) < 3);
        let j = Just(vec![1, 2]);
        assert_eq!(j.generate(&mut rng), vec![1, 2]);
        let t = (0u32..4, any::<bool>()).generate(&mut rng);
        assert!(t.0 < 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        fn macro_works(x in 0usize..10, flips in collection::vec(any::<bool>(), 0..4)) {
            prop_assert!(x < 10);
            prop_assert!(flips.len() < 4);
            prop_assert_eq!(x, x);
        }
    }
}

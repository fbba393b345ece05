//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the slice of proptest it uses: the `proptest!` macro with an optional
//! `#![proptest_config(..)]` header, `any::<T>()` and integer-range
//! strategies, and the `prop_assert*` macros. Each generated test runs its
//! body `config.cases` times over a deterministic per-test random stream
//! (seeded from the test name), so failures are reproducible. Shrinking is
//! not implemented — a failing case panics with the drawn values left in
//! the assertion message.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Test-runner configuration.
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each test body runs.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// The deterministic random stream driving the generated tests
    /// (splitmix64; seeded from the test name).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Builds the stream for the named test.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the test name gives a stable per-test seed
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: h }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from the strategy.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end - self.start) as u64;
                    assert!(span > 0, "empty range strategy");
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (*self.end() - *self.start()) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    *self.start() + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize);

    /// The strategy returned by [`crate::arbitrary::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub(crate) core::marker::PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.end - self.len.start) as u64;
            assert!(span > 0, "empty length range");
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A `Vec` strategy drawing its length from `len` and each element
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// The `Arbitrary` trait and the `any` entry point.
pub mod arbitrary {
    use crate::strategy::Any;
    use crate::test_runner::TestRng;

    /// Types with a canonical uniform strategy.
    pub trait Arbitrary: Sized {
        /// Draws one uniformly random value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The canonical strategy for `T` (`any::<u64>()` etc.).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Generates `#[test]` functions that run their body over many random
/// draws from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $(
        $(#[$meta:meta])*
        fn $name:ident($($parm:pat in $strategy:expr),+ $(,)?) $body:block
     )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    let _ = case;
                    $(let $parm = $crate::strategy::Strategy::sample(&($strategy), &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($parm:pat in $strategy:expr),+ $(,)?) $body:block
     )*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::Config::default())]
            $(
                $(#[$meta])*
                fn $name($($parm in $strategy),+) $body
            )*
        }
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the rest of the current case when the assumption fails.
///
/// The full-featured crate redraws a fresh case; the stand-in simply
/// continues to the next iteration, which preserves soundness (no
/// assertion runs on an excluded input).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0u32..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn any_u64_draws_vary(a in any::<u64>(), b in any::<u64>()) {
            // the two draws come from one stream, so they almost surely differ
            prop_assert_ne!(a, b);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(x in 0u64..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = crate::test_runner::TestRng::deterministic("t");
        let mut b = crate::test_runner::TestRng::deterministic("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

//! Offline stand-in for the `proptest` property-testing crate.
//!
//! The container build has no crates-io access, so the real `proptest`
//! cannot be fetched. This shim implements the surface the workspace's
//! property tests use: the [`strategy::Strategy`] trait with `prop_map`,
//! literal-string and integer-range strategies, `collection::vec`,
//! `prop_oneof!`, `ProptestConfig::with_cases`, and the `proptest!` macro.
//!
//! Differences from real proptest, deliberate and safe for these tests:
//!
//! * string strategies are **literal** (every `prop_oneof!` alternative in
//!   this workspace is a single plain literal, so regex semantics coincide);
//! * failing cases are reported by panic without shrinking;
//! * generation is deterministic per test (seeded from the test name), so
//!   CI failures reproduce locally.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A generator of random values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among alternatives (built by `prop_oneof!`).
    pub struct OneOf<S>(pub Vec<S>);

    impl<S: Strategy> Strategy for OneOf<S> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            let idx = (rng.next_u64() % self.0.len() as u64) as usize;
            self.0[idx].generate(rng)
        }
    }

    /// Literal string strategy (real proptest treats `&str` as a regex; the
    /// alternatives used in this workspace are all plain literals, for which
    /// the semantics agree).
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, _rng: &mut TestRng) -> String {
            (*self).to_string()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `elem` and a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Per-test deterministic RNG (splitmix64 seeded from the test name).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name.
        pub fn from_name(name: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= u64::from(b);
                seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: seed }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Number-of-cases configuration for a `proptest!` block.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Cases generated per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Uniform choice among same-typed alternative strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($alt:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![$($alt),+])
    };
}

/// Assert inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        assert!($cond $(, $($fmt)+)?)
    };
}

/// Assert equality inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)+)?) => {
        assert_eq!($left, $right $(, $($fmt)+)?)
    };
}

/// Define property tests: each `fn name(arg in strategy, …) { body }` becomes
/// a `#[test]` running `cases` deterministic generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                let __strategies = ($($strat,)+);
                for __case in 0..__config.cases {
                    let ($($arg,)+) = {
                        let ($(ref $arg,)+) = __strategies;
                        ($($crate::strategy::Strategy::generate($arg, &mut __rng),)+)
                    };
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn letters() -> impl Strategy<Value = String> {
        crate::collection::vec(prop_oneof!["a", "b"], 0..6).prop_map(|v| v.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn generated_words_are_over_the_alphabet(word in letters()) {
            prop_assert!(word.chars().all(|c| c == 'a' || c == 'b'));
            prop_assert!(word.len() < 6);
        }

        #[test]
        fn ranges_stay_in_bounds(n in 3usize..9, s in -4i64..4) {
            prop_assert!((3..9).contains(&n));
            prop_assert!((-4..4).contains(&s));
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

//! Offline shim for the subset of `proptest` used by this workspace.
//!
//! Provides the [`proptest!`] macro, the [`Strategy`](strategy::Strategy)
//! trait with `prop_map` / `prop_recursive` / `boxed`, [`prop_oneof!`],
//! [`Just`](strategy::Just), `any::<T>()`, integer-range and
//! regex-character-class strategies, and
//! the [`collection`] combinators (`vec`, `btree_set`, `btree_map`).
//!
//! Differences from real proptest: generation is a fixed number of random
//! cases seeded deterministically per test (no persistence files), and
//! failing cases are reported by the panicking assertion without input
//! shrinking. That trades debuggability for zero dependencies, which is
//! what an air-gapped build environment needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod test_runner {
    //! Test-case driver types used by the [`proptest!`](crate::proptest) macro.

    /// Per-test configuration. Only `cases` is honoured by the shim.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Accepted for API compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 128,
                max_shrink_iters: 0,
            }
        }
    }

    /// Deterministic generator state (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator from an explicit seed.
        pub fn from_seed(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        /// Creates a generator whose seed is derived from the test name, so
        /// different properties explore different sequences.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Self::from_seed(h)
        }

        /// Next pseudo-random 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: usize) -> usize {
            assert!(bound > 0, "below(0)");
            (self.next_u64() % bound as u64) as usize
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};
    use std::sync::Arc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Builds a recursive strategy: `recurse` receives the strategy for
        /// the previous depth and returns the strategy for one level deeper.
        /// `_desired_size` and `_expected_branch_size` are accepted for API
        /// compatibility; the shim bounds growth by `depth` alone.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let base = self.boxed();
            let mut current = base.clone();
            for _ in 0..depth {
                let deeper = recurse(current).boxed();
                // Lean 2:1 toward the base case so sizes stay small.
                current = Union::new(vec![base.clone(), base.clone(), deeper]).boxed();
            }
            current
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy {
                inner: Arc::new(self),
            }
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T> {
        inner: Arc<dyn Strategy<Value = T>>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.inner.generate(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of one fixed value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among several strategies (the [`prop_oneof!`](crate::prop_oneof) arms).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; `arms` must be nonempty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len());
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// `&str` strategies interpret the string as a small regex subset:
    /// one character class followed by a `{min,max}` repetition, e.g.
    /// `"[a-z]{0,6}"`. Anything else generates the literal string.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            match parse_class_repeat(self) {
                Some((alphabet, min, max)) => {
                    let len = min + rng.below(max - min + 1);
                    (0..len)
                        .map(|_| alphabet[rng.below(alphabet.len())])
                        .collect()
                }
                None => (*self).to_owned(),
            }
        }
    }

    fn parse_class_repeat(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pattern.strip_prefix('[')?;
        let (class, rest) = rest.split_once(']')?;
        let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
        let (min, max) = counts.split_once(',')?;
        let (min, max) = (min.trim().parse().ok()?, max.trim().parse().ok()?);
        if min > max {
            return None;
        }
        let chars: Vec<char> = class.chars().collect();
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                let (lo, hi) = (chars[i], chars[i + 2]);
                if lo > hi {
                    return None;
                }
                alphabet.extend((lo..=hi).filter(|c| c.is_ascii()));
                i += 3;
            } else {
                alphabet.push(chars[i]);
                i += 1;
            }
        }
        if alphabet.is_empty() {
            None
        } else {
            Some((alphabet, min, max))
        }
    }

    /// Strategy for any [`Arbitrary`](crate::arbitrary::Arbitrary) type.
    pub struct Any<T> {
        _marker: PhantomData<fn() -> T>,
    }

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any {
                _marker: PhantomData,
            }
        }
    }

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Creates the canonical strategy for `T` (`any::<T>()`).
    pub fn any<T: crate::arbitrary::Arbitrary>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }
}

pub mod arbitrary {
    //! Default value generation for primitive types.

    use crate::test_runner::TestRng;

    /// Types with a canonical generation strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // Mix in boundary values often: they find edge bugs.
                    match rng.next_u64() % 8 {
                        0 => 0 as $t,
                        1 => <$t>::MAX,
                        2 => <$t>::MIN,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64().is_multiple_of(2)
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            char::from_u32((rng.next_u64() % 0x7f) as u32).unwrap_or('a')
        }
    }
}

pub mod collection {
    //! Collection strategies: `vec`, `btree_set`, `btree_map`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors of elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.start + rng.below(self.size.end - self.size.start);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy producing `BTreeSet`s (duplicates collapse, so the set may
    /// be smaller than the drawn length).
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates ordered sets of elements from `element`.
    pub fn btree_set<S: Strategy>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        assert!(size.start < size.end, "empty size range");
        BTreeSetStrategy { element, size }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let len = self.size.start + rng.below(self.size.end - self.size.start);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy producing `BTreeMap`s (duplicate keys collapse).
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// Generates ordered maps with keys from `key` and values from `value`.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        assert!(size.start < size.end, "empty size range");
        BTreeMapStrategy { key, value, size }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let len = self.size.start + rng.below(self.size.end - self.size.start);
            (0..len)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

pub mod prelude {
    //! Everything a property test needs in scope.

    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*)
    };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*)
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests. Each `fn` runs `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $(let $arg = $crate::strategy::Strategy::generate(&$strategy, &mut rng);)*
                    $body
                }));
                if let Err(payload) = result {
                    eprintln!(
                        "proptest shim: property {} failed at case {}/{} (no shrinking)",
                        stringify!($name),
                        case + 1,
                        config.cases
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_class_strategy_obeys_bounds() {
        let mut rng = crate::test_runner::TestRng::from_seed(3);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{0,6}", &mut rng);
            assert!(s.len() <= 6);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn union_uses_every_arm() {
        let mut rng = crate::test_runner::TestRng::from_seed(9);
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(Strategy::generate(&strat, &mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    proptest! {
        #[test]
        fn vec_lengths_in_range(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
        }

        #[test]
        fn recursive_terminates(n in (0i64..10).prop_recursive(3, 8, 2, |inner| {
            inner.prop_map(|x| x.saturating_add(1))
        })) {
            prop_assert!((0..14).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

        #[test]
        fn config_cases_is_honoured(n in 0usize..10) {
            prop_assert!(n < 10);
        }
    }
}

//! Deterministic stand-in for the subset of
//! [proptest](https://docs.rs/proptest) this workspace uses.
//!
//! It implements random-input generation with the same `proptest!` /
//! `Strategy` surface — `prop_map`, `prop_flat_map`, `collection::vec`,
//! `collection::btree_set`, integer-range and tuple strategies, `any`,
//! and a simple-character-class string strategy — but no shrinking: a
//! failing case panics with the ordinary assertion message. Inputs are
//! seeded deterministically, so failures reproduce across runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration (only the case count is honoured).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// The random source handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic per-run generator.
    pub fn deterministic() -> Self {
        Self(StdRng::seed_from_u64(0x5EED_CAFE_F00D_D00D))
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.gen()
    }

    /// Uniform sample from a range (delegates to the rand shim).
    pub fn sample<S: rand::SampleRange>(&mut self, range: S) -> S::Output {
        self.0.gen_range(range)
    }
}

/// A generator of random values of type [`Strategy::Value`].
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
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

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.sample(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.sample(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Pattern strategy for strings: supports `[class]{lo,hi}` with literal
/// characters, `a-b` ranges and `\n` / `\t` / `\\` escapes in the class —
/// the only regex shape the workspace's fuzz tests use.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, lo, hi) = parse_simple_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string pattern: {self:?}"));
        let len = rng.sample(lo..=hi);
        (0..len)
            .map(|_| class[rng.sample(0..class.len())])
            .collect()
    }
}

/// Parses `[<class>]{lo,hi}` into (expanded class, lo, hi).
fn parse_simple_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let (class_src, rest) = rest.split_at(close);
    let rest = rest.strip_prefix(']')?.strip_prefix('{')?;
    let rest = rest.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);

    let mut class = Vec::new();
    let mut chars = class_src.chars().peekable();
    while let Some(c) = chars.next() {
        let c = if c == '\\' {
            match chars.next()? {
                'n' => '\n',
                't' => '\t',
                other => other,
            }
        } else {
            c
        };
        if chars.peek() == Some(&'-') && chars.clone().nth(1).is_some() {
            chars.next(); // consume '-'
            let end = chars.next()?;
            for v in c as u32..=end as u32 {
                class.push(char::from_u32(v)?);
            }
        } else {
            class.push(c);
        }
    }
    (!class.is_empty()).then_some((class, lo, hi))
}

/// Full-type-range strategy, mirroring `proptest::arbitrary::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types [`any`] can generate.
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Vec of `size`-range length with elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.sample(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// BTreeSet built from up to `size`-range samples (duplicates merge,
    /// so the set may come out smaller than the drawn length, exactly as
    /// with real proptest's collection strategies before shrinking).
    pub fn btree_set<S: Strategy>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let len = rng.sample(self.size.clone());
            let mut set = BTreeSet::new();
            // Up to 4x oversampling: duplicates merge, so reaching the
            // drawn length can take more than `len` draws.
            for _ in 0..len * 4 {
                if set.len() >= len {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Assertion that aborts the current case (plain `assert!` here — the
/// shim has no shrinking phase to unwind into).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Property-test block: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic();
            for _case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::deterministic();
        let s = (1u32..5, 0i32..3);
        for _ in 0..100 {
            let (a, b) = s.generate(&mut rng);
            assert!((1..5).contains(&a) && (0..3).contains(&b));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = crate::TestRng::deterministic();
        let s = (2u32..10).prop_flat_map(|n| (0..n).prop_map(move |v| (n, v)));
        for _ in 0..100 {
            let (n, v) = s.generate(&mut rng);
            assert!(v < n);
        }
    }

    #[test]
    fn vec_strategy_honours_size() {
        let mut rng = crate::TestRng::deterministic();
        let s = crate::collection::vec(0u8..4, 2..6);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn string_pattern_generates_matching_chars() {
        let mut rng = crate::TestRng::deterministic();
        let s = "[ -~\n]{0,40}";
        for _ in 0..50 {
            let text = Strategy::generate(&s, &mut rng);
            assert!(text.len() <= 40);
            assert!(text.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u32..10, v in crate::collection::vec(0u8..3, 0..5)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 5);
        }
    }
}

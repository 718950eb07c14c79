//! Minimal offline stand-in for `proptest` 1.x.
//!
//! Random case generation only — **failing inputs are not shrunk**; the
//! failure message includes the `Debug` form of the generated inputs
//! instead. Generation is deterministic: every test function draws from
//! a fixed-seed RNG, so failures reproduce across runs.

#![forbid(unsafe_code)]

/// Strategies: how values are generated.
pub mod strategy {
    use crate::test_runner::{TestRng, TestRunner};
    use rand::{Rng, RngCore};
    use std::fmt::Debug;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Erases the strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }

        /// Produces a value tree (shim: a single sampled value).
        fn new_tree(&self, runner: &mut TestRunner) -> Result<JustTree<Self::Value>, String>
        where
            Self: Sized,
            Self::Value: Clone,
        {
            Ok(JustTree(self.generate(runner.rng_mut())))
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// A sampled value (proptest's `ValueTree` without shrinking).
    pub trait ValueTree {
        /// The carried type.
        type Value;
        /// The sampled value.
        fn current(&self) -> Self::Value;
    }

    /// The shim's only `ValueTree`: wraps the sampled value directly.
    #[derive(Debug, Clone)]
    pub struct JustTree<T>(pub T);

    impl<T: Clone> ValueTree for JustTree<T> {
        type Value = T;
        fn current(&self) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among boxed strategies (`prop_oneof!`).
    pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        /// A union over `options`, sampled uniformly.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Self(options)
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.0.len());
            self.0[i].generate(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// Strings from a small regex subset: a sequence of `.`-or-`[class]`
    /// atoms (or literal characters), each optionally followed by
    /// `{m,n}`. Covers the patterns the workspace's fuzz tests use.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    enum Atom {
        /// `.`: any printable char except newline.
        AnyChar,
        /// `[...]`: one of an explicit set.
        Class(Vec<char>),
        /// A literal character.
        Literal(char),
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Vec<char> {
        let mut set = Vec::new();
        let mut prev: Option<char> = None;
        loop {
            match chars.next() {
                None => panic!("regex shim: unterminated character class"),
                Some(']') => break,
                Some('-') => {
                    // Range if both endpoints are present; literal `-`
                    // at the start or end of the class.
                    match (prev, chars.peek()) {
                        (Some(lo), Some(&hi)) if hi != ']' => {
                            chars.next();
                            for c in (lo as u32 + 1)..=(hi as u32) {
                                if let Some(c) = char::from_u32(c) {
                                    set.push(c);
                                }
                            }
                            prev = None;
                        }
                        _ => {
                            set.push('-');
                            prev = Some('-');
                        }
                    }
                }
                Some(c) => {
                    set.push(c);
                    prev = Some(c);
                }
            }
        }
        assert!(!set.is_empty(), "regex shim: empty character class");
        set
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut chars = pattern.chars().peekable();
        let mut out = String::new();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::AnyChar,
                '[' => Atom::Class(parse_class(&mut chars)),
                '\\' => Atom::Literal(chars.next().expect("regex shim: trailing backslash")),
                other => Atom::Literal(other),
            };
            let (lo, hi) = if chars.peek() == Some(&'{') {
                chars.next();
                let rep: String = chars.by_ref().take_while(|&c| c != '}').collect();
                let (lo, hi) = rep
                    .split_once(',')
                    .unwrap_or_else(|| panic!("regex shim: unsupported repeat `{{{rep}}}`"));
                (
                    lo.trim().parse::<usize>().expect("repeat lower bound"),
                    hi.trim().parse::<usize>().expect("repeat upper bound"),
                )
            } else {
                (1, 1)
            };
            let count = rng.gen_range(lo..=hi);
            for _ in 0..count {
                match &atom {
                    Atom::Literal(c) => out.push(*c),
                    Atom::Class(set) => out.push(set[rng.gen_range(0..set.len())]),
                    Atom::AnyChar => {
                        // Printable ASCII usually, other planes sometimes.
                        let c = match rng.gen_range(0..10u32) {
                            0 => char::from_u32(rng.gen_range(0xA0..0x2FFFu32)).unwrap_or('¿'),
                            1 => '\t',
                            _ => char::from(rng.gen_range(0x20..0x7Fu8)),
                        };
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// `any::<T>()`: the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// See [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized + Debug {
        /// Draws an arbitrary value over the type's whole domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Half raw bit patterns (hits NaN, infinities, subnormals),
            // half ordinary magnitudes.
            if rng.next_u64() & 1 == 0 {
                f64::from_bits(rng.next_u64())
            } else {
                rng.gen_range(-1.0e6..1.0e6)
            }
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            if rng.next_u64() & 1 == 0 {
                f32::from_bits(rng.next_u32())
            } else {
                rng.gen_range(-1.0e6f32..1.0e6f32)
            }
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// A `Vec` of `size.start..size.end` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "collection::vec: empty size range");
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::fmt::Debug;

    /// Uniform choice from a fixed list of values.
    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "sample::select: empty options");
        Select(options)
    }

    /// See [`select`].
    pub struct Select<T>(Vec<T>);

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.gen_range(0..self.0.len())].clone()
        }
    }
}

/// Test execution: configuration, runner, and failure type.
pub mod test_runner {
    use rand::SeedableRng;

    /// The RNG handed to strategies.
    pub type TestRng = rand::rngs::StdRng;

    /// How many cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// Drives strategies; the shim only carries the RNG.
    pub struct TestRunner {
        rng: TestRng,
    }

    impl TestRunner {
        /// A runner seeded from the config (fixed seed: deterministic).
        pub fn new(_config: &ProptestConfig) -> Self {
            Self {
                rng: TestRng::seed_from_u64(0x0BAC_C0DE_5EED_2024),
            }
        }

        /// A runner with a fixed, deterministic seed.
        pub fn deterministic() -> Self {
            Self {
                rng: TestRng::seed_from_u64(0xDE7E_2814_1571_C000),
            }
        }

        /// The runner's RNG.
        pub fn rng_mut(&mut self) -> &mut TestRng {
            &mut self.rng
        }
    }

    /// A failed property (from `prop_assert!` and friends).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// A failure with `message`.
        pub fn fail(message: String) -> Self {
            Self(message)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` that runs the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut runner = $crate::test_runner::TestRunner::new(&config);
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(
                        &$strat,
                        runner.rng_mut(),
                    );)+
                    let inputs = format!("{:?}", ($(&$arg,)+));
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "proptest case {}/{} failed: {}\ninputs (no shrinking): {}",
                            case + 1, config.cases, e, inputs,
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current property if `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current property if the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}", left, right),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}: {:?} != {:?}", format!($($fmt)+), left, right),
            ));
        }
    }};
}

/// Uniform choice among the given strategies (all yielding one type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs(xs in prop::collection::vec(0i64..100, 1..20), k in 1usize..5) {
            prop_assert!(xs.len() < 20, "len {}", xs.len());
            prop_assert!(xs.iter().all(|&x| (0..100).contains(&x)));
            prop_assert_eq!(k.min(5), k);
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0usize..4).prop_map(|i| i * 2),
            (10usize..14).prop_map(|i| i + 1),
        ]) {
            prop_assert!(v % 2 == 0 || (11..15).contains(&v), "v {v}");
        }

        #[test]
        fn regex_subset(s in "[a-c0-2_]{0,8}", t in ".{0,10}") {
            prop_assert!(s.len() <= 8);
            prop_assert!(s.chars().all(|c| "abc012_".contains(c)));
            prop_assert!(t.chars().count() <= 10);
        }

        #[test]
        fn select_picks_member(v in prop::sample::select(vec!["a", "b"])) {
            prop_assert!(v == "a" || v == "b");
        }
    }

    #[test]
    fn new_tree_current_is_deterministic() {
        use crate::strategy::{Strategy, ValueTree};
        let strat = crate::collection::vec(0i64..50, 1..10);
        let a = strat
            .new_tree(&mut TestRunner::deterministic())
            .unwrap()
            .current();
        let b = strat
            .new_tree(&mut TestRunner::deterministic())
            .unwrap()
            .current();
        assert_eq!(a, b);
    }
}

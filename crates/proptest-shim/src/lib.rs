//! A minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build container for this repository has no access to crates.io, so
//! the workspace vendors the *subset* of the proptest API its test suites
//! actually use: the [`proptest!`] macro, `prop_assert*` / [`prop_assume!`],
//! [`any`](arbitrary::any), range / tuple strategies, `prop_map` / `prop_filter`,
//! `prop::sample::select`, `prop::bool::ANY` and `prop::num::f64` classes.
//!
//! Semantics intentionally mirror upstream where it matters for these
//! suites:
//!
//! - each `#[test]` runs `ProptestConfig::cases` generated cases;
//! - `prop_assert*` failures abort the *case* with a formatted message
//!   (the panic reports the deterministic case index so a failure is
//!   reproducible — generation is seeded by test name + case index);
//! - `prop_assume!` rejects the case without counting it as run.
//!
//! Shrinking is **not** implemented: a failing case panics immediately.
//!
//! [`proptest`]: https://crates.io/crates/proptest

pub mod test_runner {
    /// Why a test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case was rejected (e.g. by `prop_assume!`); it is retried
        /// with fresh inputs and does not count as a run case.
        Reject(String),
        /// The case failed an assertion.
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Mirror of `proptest::test_runner::Config` — only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic per-case RNG (splitmix64 core), seeded from the test
    /// path and case index so every run of the suite sees the same inputs.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_case(test_path: &str, case: u64) -> Self {
            // FNV-1a over the test path, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_path.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut rng = TestRng {
                state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            // A few warm-up draws decorrelate nearby case indices.
            rng.next_u64();
            rng.next_u64();
            rng
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub fn next_u128(&mut self) -> u128 {
            ((self.next_u64() as u128) << 64) | self.next_u64() as u128
        }

        pub fn next_bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform u64 in `[lo, hi)`; `hi > lo` required.
        pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
            debug_assert!(hi > lo);
            let span = hi - lo;
            // Rejection-free: modulo bias is irrelevant for test generation
            // at these span sizes, but reject the worst of it anyway.
            if span.is_power_of_two() {
                lo + (self.next_u64() & (span - 1))
            } else {
                lo + self.next_u64() % span
            }
        }

        /// Uniform u64 in `[lo, hi]` (inclusive; supports the full range).
        pub fn range_u64_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
            if hi == u64::MAX {
                // `hi + 1` would overflow; sample by rejection instead.
                loop {
                    let v = self.next_u64();
                    if v >= lo {
                        return v;
                    }
                }
            } else {
                self.range_u64(lo, hi + 1)
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// Generation-only mirror of `proptest::strategy::Strategy`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }
    }

    /// `Strategy` is implemented for references so hoisted strategies can
    /// be reused across cases without being consumed.
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of one value (`proptest::strategy::Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) whence: &'static str,
        pub(crate) f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1024 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter({:?}) rejected 1024 consecutive values",
                self.whence
            );
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for ::core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    rng.range_u64(self.start as u64, self.end as u64) as $t
                }
            }
            impl Strategy for ::core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.range_u64_inclusive(*self.start() as u64, *self.end() as u64) as $t
                }
            }
            impl Strategy for ::core::ops::RangeFrom<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.range_u64_inclusive(self.start as u64, <$t>::MAX as u64) as $t
                }
            }
        )*};
    }
    int_range_strategies!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for ::core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    let off = rng.range_u64(0, span);
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }
    signed_range_strategies!(i8, i16, i32, i64, isize);

    impl Strategy for ::core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($n:tt $s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (0 A)
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical full-range strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    /// Mirror of `proptest::arbitrary::any`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    // Bias ~1/8 of draws toward edge values, as upstream does.
                    match rng.next_u64() & 7 {
                        0 => [0 as $t, 1, <$t>::MAX, <$t>::MAX - 1]
                            [(rng.next_u64() & 3) as usize],
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    arbitrary_uint!(u8, u16, u32, u64, usize);

    impl Arbitrary for u128 {
        fn arbitrary_value(rng: &mut TestRng) -> u128 {
            match rng.next_u64() & 7 {
                0 => [0u128, 1, u128::MAX, u64::MAX as u128][(rng.next_u64() & 3) as usize],
                _ => rng.next_u128(),
            }
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    match rng.next_u64() & 7 {
                        0 => [0 as $t, 1, -1, <$t>::MAX, <$t>::MIN]
                            [(rng.next_u64() % 5) as usize],
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    arbitrary_int!(i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_bool()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[derive(Debug, Clone, Copy)]
    pub struct BoolStrategy;

    /// Mirror of `proptest::bool::ANY`.
    pub const ANY: BoolStrategy = BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_bool()
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[derive(Debug, Clone)]
    pub struct Select<T: Clone>(Vec<T>);

    /// Mirror of `proptest::sample::select`: uniform choice from a pool.
    pub fn select<T: Clone>(pool: Vec<T>) -> Select<T> {
        assert!(!pool.is_empty(), "sample::select on an empty pool");
        Select(pool)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.range_u64(0, self.0.len() as u64) as usize].clone()
        }
    }
}

pub mod num {
    pub mod f64 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use core::ops::BitOr;

        /// Bitflag union of f64 classes, as in `proptest::num::f64`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct FloatClass(u32);

        pub const ZERO: FloatClass = FloatClass(1);
        pub const SUBNORMAL: FloatClass = FloatClass(2);
        pub const NORMAL: FloatClass = FloatClass(4);
        pub const INFINITE: FloatClass = FloatClass(8);
        pub const POSITIVE: FloatClass = FloatClass(16);
        pub const NEGATIVE: FloatClass = FloatClass(32);

        impl BitOr for FloatClass {
            type Output = FloatClass;
            fn bitor(self, rhs: FloatClass) -> FloatClass {
                FloatClass(self.0 | rhs.0)
            }
        }

        impl Strategy for FloatClass {
            type Value = f64;
            fn generate(&self, rng: &mut TestRng) -> f64 {
                let sign_allowed = self.0 & (POSITIVE.0 | NEGATIVE.0);
                let classes = self.0 & (ZERO.0 | SUBNORMAL.0 | NORMAL.0 | INFINITE.0);
                let classes = if classes == 0 { NORMAL.0 } else { classes };
                let picks: Vec<u32> = [ZERO.0, SUBNORMAL.0, NORMAL.0, INFINITE.0]
                    .into_iter()
                    .filter(|c| classes & c != 0)
                    .collect();
                let class = picks[rng.range_u64(0, picks.len() as u64) as usize];
                let sign = match sign_allowed {
                    x if x == POSITIVE.0 => 0u64,
                    x if x == NEGATIVE.0 => 1u64 << 63,
                    _ => (rng.next_u64() & 1) << 63,
                };
                let bits = if class == ZERO.0 {
                    sign
                } else if class == SUBNORMAL.0 {
                    sign | rng.range_u64(1, 1u64 << 52)
                } else if class == INFINITE.0 {
                    sign | (0x7ffu64 << 52)
                } else {
                    // Normal: exponent field uniform in [1, 2046], i.e.
                    // log-uniform magnitudes across the whole normal range.
                    let exp = rng.range_u64(1, 2047);
                    let mant = rng.next_u64() & ((1u64 << 52) - 1);
                    sign | (exp << 52) | mant
                };
                f64::from_bits(bits)
            }
        }
    }
}

pub mod prelude {
    /// `prop::` namespace, as re-exported by the upstream prelude.
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Assert a condition inside a `proptest!` body; on failure the current
/// case aborts with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l,
            r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            format!($($fmt)+),
            l,
            r
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l
        );
    }};
}

/// Reject the current case (retried with fresh inputs, not counted).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Mirror of the upstream `proptest!` macro for the forms used in this
/// workspace: an optional `#![proptest_config(..)]` inner attribute
/// followed by `#[test] fn name(arg in strategy, ..) { .. }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        #[test]
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            #[test]
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                // Hoist each strategy out of the loop (the generated value
                // shadows the strategy binding inside the loop body).
                $( let $arg = $strat; )+
                let mut __ran: u32 = 0;
                let mut __case: u64 = 0;
                let __max_rejects: u64 = __config.cases as u64 * 16 + 4096;
                while __ran < __config.cases {
                    if __case > __config.cases as u64 + __max_rejects {
                        panic!(
                            "proptest {}: too many rejected cases ({} run of {})",
                            stringify!($name), __ran, __config.cases
                        );
                    }
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    __case += 1;
                    let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> = {
                        $( let $arg = $crate::strategy::Strategy::generate(&$arg, &mut __rng); )+
                        #[allow(unused_mut)]
                        let mut __body = move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                            $body
                            ::core::result::Result::Ok(())
                        };
                        __body()
                    };
                    match __outcome {
                        ::core::result::Result::Ok(()) => __ran += 1,
                        ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                            panic!(
                                "proptest {} failed at case index {} (deterministic seed):\n{}",
                                stringify!($name), __case - 1, __msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

//! Offline stand-in for `proptest`.
//!
//! Supports the subset of the `proptest!` DSL this workspace's tests use:
//!
//! * `#![proptest_config(ProptestConfig::with_cases(n))]` headers,
//! * parameters bound with `name in strategy` where the strategy is a numeric
//!   range, a character-class regex literal (`"[a-z]{0,10}"`), or
//!   `proptest::collection::vec(strategy, size_range)`,
//! * parameters bound with `name: type` (drawn via [`Arbitrary`]),
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Cases are generated from a deterministic per-test seed. There is no
//! shrinking: a failing case panics with the regular assertion message, and
//! the generated inputs can be recovered from the panic (tests here assert
//! exact roundtrips, so the message carries the offending value).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration; only the case count is meaningful.
#[derive(Clone, Debug)]
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
        // The real crate defaults to 256; 64 keeps the seed suites fast while
        // still exercising varied inputs.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG for a named property test.
#[doc(hidden)]
pub fn __rng_for(test_name: &str) -> StdRng {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    test_name.hash(&mut h);
    StdRng::seed_from_u64(0xE7A1_0000 ^ h.finish())
}

/// A value generator. Unlike the real crate there is no shrinking tree; a
/// strategy just produces values.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),+ $(,)?) => {
        $(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )+
    };
}
impl_range_strategy!(f32, f64, usize, u32, u64, i32, i64);

/// String literals act as regex strategies. Only the pattern shape the
/// workspace uses is supported: one character class with an optional
/// `{m}` / `{m,n}` repetition, e.g. `"[a-zA-Z0-9_/\\[\\]]{1,60}"`.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        generate_from_class_pattern(self, rng)
    }
}

fn generate_from_class_pattern(pattern: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut i = 0;

    // Character class.
    assert!(
        i < chars.len() && chars[i] == '[',
        "proptest-compat: only `[class]{{m,n}}` regex strategies are supported, got {pattern:?}"
    );
    i += 1;
    let mut class: Vec<char> = Vec::new();
    while i < chars.len() && chars[i] != ']' {
        let c = if chars[i] == '\\' {
            i += 1;
            assert!(i < chars.len(), "dangling escape in {pattern:?}");
            chars[i]
        } else {
            chars[i]
        };
        // Range like a-z (a '-' with a preceding class member and a
        // following non-']' char).
        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
            let hi = chars[i + 2];
            for code in (c as u32)..=(hi as u32) {
                class.push(char::from_u32(code).unwrap());
            }
            i += 3;
        } else {
            class.push(c);
            i += 1;
        }
    }
    assert!(i < chars.len(), "unterminated class in {pattern:?}");
    i += 1; // consume ']'

    // Repetition.
    let (min, max) = if i < chars.len() && chars[i] == '{' {
        let close = chars[i..].iter().position(|&c| c == '}').expect("unterminated repetition") + i;
        let body: String = chars[i + 1..close].iter().collect();
        let (lo, hi) = match body.split_once(',') {
            Some((lo, hi)) => (lo.trim().parse().unwrap(), hi.trim().parse().unwrap()),
            None => {
                let n: usize = body.trim().parse().unwrap();
                (n, n)
            }
        };
        i = close + 1;
        (lo, hi)
    } else {
        (1, 1)
    };
    assert!(i == chars.len(), "trailing pattern syntax unsupported in {pattern:?}");
    assert!(!class.is_empty(), "empty character class in {pattern:?}");

    let len = if min == max { min } else { rng.gen_range(min..=max) };
    (0..len).map(|_| class[rng.gen_range(0..class.len())]).collect()
}

pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Strategy for `Vec<S::Value>` with a length drawn from `sizes`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    pub fn vec<S: Strategy>(element: S, sizes: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(sizes.start < sizes.end, "empty size range");
        VecStrategy { element, min: sizes.start, max: sizes.end - 1 }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.min..=self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Types drawable without an explicit strategy (`name: type` parameters).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<bool>()
    }
}

macro_rules! impl_arbitrary_num {
    ($($t:ty),+ $(,)?) => {
        $(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )+
    };
}
impl_arbitrary_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// The `proptest!` block: an optional config header followed by test
/// functions whose parameters are generated per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!((<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr); ) => {};
    (($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::__rng_for(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                $crate::__proptest_bind!(__rng; $($params)*);
                $body
            }
        }
        $crate::__proptest_fns!(($cfg); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident; ) => {};
    ($rng:ident; $name:ident : $ty:ty $(, $($rest:tt)*)?) => {
        let $name: $ty = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
        $($crate::__proptest_bind!($rng; $($rest)*);)?
    };
    ($rng:ident; $pat:pat in $strat:expr $(, $($rest:tt)*)?) => {
        let $pat = $crate::Strategy::generate(&($strat), &mut $rng);
        $($crate::__proptest_bind!($rng; $($rest)*);)?
    };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::__rng_for;
    use crate::prelude::*;

    #[test]
    fn regex_subset_generates_in_class() {
        let mut rng = __rng_for("regex_subset");
        for _ in 0..500 {
            let s = crate::Strategy::generate(&"[a-zA-Z0-9_/\\[\\]]{1,60}", &mut rng);
            assert!((1..=60).contains(&s.chars().count()), "{s:?}");
            assert!(s
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '[' | ']')));
        }
        let s = crate::Strategy::generate(&"[xyz]{0,3}", &mut rng);
        assert!(s.chars().count() <= 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_all_param_forms(
            x in 0u64..100,
            v in collection::vec(-1.0f64..1.0, 1..5),
            s in "[ab]{2,4}",
            flag: bool,
        ) {
            prop_assert!(x < 100);
            prop_assert!((1..5).contains(&v.len()));
            prop_assert!(v.iter().all(|y| (-1.0..1.0).contains(y)));
            prop_assert!((2..=4).contains(&s.len()));
            let _: bool = flag;
        }
    }
}

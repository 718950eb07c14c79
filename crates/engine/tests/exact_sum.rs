//! `ExactSum` against a big-integer reference.
//!
//! The reference keeps the sum of the finite inputs as an exact integer
//! multiple of 2^-1074 (the smallest subnormal), in 32-bit digits, and
//! never rounds. `ExactSum::value` is then checked against the
//! *definition* of round-to-nearest-even rather than a second rounding
//! routine: its result `r` must lie within half an ulp of the exact sum
//! (the midpoints to its neighbours, as exact integers, bracket the
//! sum), must be even when the sum sits on a midpoint, and is ±inf
//! exactly when the sum reaches `2^1024 − 2^970`. Zeros keep the sign
//! IEEE addition gives them, non-finite inputs give what IEEE gives, and
//! adding a sum's [`ExactSum::partials`] — how a page header is added —
//! reads the same, whichever way the inputs were cut into pages.

use std::cmp::Ordering;

use backsort_engine::ExactSum;
use proptest::prelude::*;

/// A non-negative big integer, least significant 32-bit digit first.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Big(Vec<u32>);

impl Big {
    fn zero() -> Self {
        Big(Vec::new())
    }

    /// `|x|` as a multiple of 2^-1074 (`x` finite).
    fn of(x: f64) -> Self {
        let bits = x.to_bits();
        let biased = (bits >> 52) & 0x7FF;
        let fraction = bits & ((1 << 52) - 1);
        let (m, shift) = if biased == 0 {
            (fraction, 0)
        } else {
            (fraction | 1 << 52, biased - 1)
        };
        Big(vec![m as u32, (m >> 32) as u32]).shl(shift as usize)
    }

    fn trim(mut self) -> Self {
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
        self
    }

    fn shl(&self, by: usize) -> Self {
        let (digits, bits) = (by / 32, by % 32);
        let mut out = vec![0u32; digits];
        let mut carry = 0u32;
        for &d in &self.0 {
            let wide = (u64::from(d) << bits) | u64::from(carry);
            out.push(wide as u32);
            carry = (wide >> 32) as u32;
        }
        out.push(carry);
        Big(out).trim()
    }

    fn add(&self, other: &Big) -> Self {
        let mut out = Vec::new();
        let mut carry = 0u64;
        for i in 0..self.0.len().max(other.0.len()) {
            let s = u64::from(*self.0.get(i).unwrap_or(&0))
                + u64::from(*other.0.get(i).unwrap_or(&0))
                + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        out.push(carry as u32);
        Big(out).trim()
    }

    /// `self − other`, requiring `self ≥ other`.
    fn sub(&self, other: &Big) -> Self {
        let mut out = Vec::new();
        let mut borrow = 0i64;
        for i in 0..self.0.len() {
            let mut d = i64::from(self.0[i]) - i64::from(*other.0.get(i).unwrap_or(&0)) - borrow;
            borrow = i64::from(d < 0);
            if d < 0 {
                d += 1 << 32;
            }
            out.push(d as u32);
        }
        assert_eq!(borrow, 0, "sub underflow");
        Big(out).trim()
    }

    fn cmp(&self, other: &Big) -> Ordering {
        let (a, b) = (self.clone().trim(), other.clone().trim());
        a.0.len()
            .cmp(&b.0.len())
            .then_with(|| a.0.iter().rev().cmp(b.0.iter().rev()))
    }
}

/// The exact sum of the finite inputs as sign and magnitude.
fn reference(values: &[f64]) -> (bool, Big) {
    let (mut pos, mut neg) = (Big::zero(), Big::zero());
    for &x in values.iter().filter(|x| x.is_finite()) {
        if x.is_sign_negative() {
            neg = neg.add(&Big::of(x));
        } else {
            pos = pos.add(&Big::of(x));
        }
    }
    match pos.cmp(&neg) {
        Ordering::Less => (true, neg.sub(&pos)),
        _ => (false, pos.sub(&neg)),
    }
}

/// Checks that `r` is `values`' exact sum rounded to nearest, ties to
/// even, with IEEE's answers for zeros and non-finite inputs.
fn check(values: &[f64], r: f64) -> Result<(), TestCaseError> {
    let nan = values.iter().any(|x| x.is_nan());
    let pos_inf = values.contains(&f64::INFINITY);
    let neg_inf = values.contains(&f64::NEG_INFINITY);
    if nan || (pos_inf && neg_inf) {
        prop_assert!(r.is_nan(), "{values:?} → {r}");
        return Ok(());
    }
    if pos_inf || neg_inf {
        prop_assert_eq!(
            r,
            if pos_inf {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        );
        return Ok(());
    }
    let (negative, exact) = reference(values);
    if exact.0.is_empty() {
        let negative_zero = values.iter().all(|x| x.to_bits() == (-0.0f64).to_bits());
        prop_assert_eq!(
            r.to_bits(),
            if negative_zero { -0.0f64 } else { 0.0 }.to_bits()
        );
        return Ok(());
    }
    prop_assert_eq!(r.is_sign_negative(), negative, "sign of {}", r);
    let twice = exact.shl(1);
    let big = |x: f64| Big::of(x);
    // 2^1024 as a multiple of 2^-1074 — the value `inf` stands for when
    // rounding with an unbounded exponent.
    let overflow = Big(vec![1]).shl(1024 + 1074);
    let max = big(f64::MAX);
    if r.is_infinite() {
        // At or past the midpoint between MAX (odd) and 2^1024.
        prop_assert!(twice.cmp(&max.add(&overflow)) != Ordering::Less);
        return Ok(());
    }
    let a = r.abs();
    let below = if a.to_bits() == 0 {
        Big::zero()
    } else {
        big(f64::from_bits(a.to_bits() - 1))
    };
    let above = if a == f64::MAX {
        overflow
    } else {
        big(f64::from_bits(a.to_bits() + 1))
    };
    let (low_mid, high_mid) = (big(a).add(&below), big(a).add(&above));
    let even = a.to_bits() & 1 == 0;
    let lower_ok = match twice.cmp(&low_mid) {
        Ordering::Greater => true,
        Ordering::Equal => even,
        Ordering::Less => false,
    };
    let upper_ok = match twice.cmp(&high_mid) {
        Ordering::Less => true,
        Ordering::Equal => even,
        Ordering::Greater => false,
    };
    prop_assert!(
        lower_ok && upper_ok,
        "{values:?} → {r:e} is not the nearest"
    );
    Ok(())
}

fn sum_of(values: &[f64]) -> ExactSum {
    let mut sum = ExactSum::new();
    values.iter().for_each(|&v| sum.add(v));
    sum
}

/// Finite values over the whole exponent range, subnormals included.
fn wide() -> impl Strategy<Value = f64> {
    (any::<bool>(), 0u64..0x7FF, any::<u64>()).prop_map(|(neg, exp, frac)| {
        f64::from_bits(u64::from(neg) << 63 | exp << 52 | frac & ((1 << 52) - 1))
    })
}

/// Values near one magnitude, so they cancel and carry.
fn clustered() -> impl Strategy<Value = f64> {
    (-60i32..60, -1_000_000i64..1_000_000).prop_map(|(e, m)| m as f64 * 2f64.powi(e))
}

fn special() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![
        0.0,
        -0.0,
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        1.0,
        -1.0,
        f64::EPSILON,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ])
}

/// A mix of the three, with a random subset mirrored (so large terms
/// cancel and what is left is small), shuffled.
fn inputs() -> impl Strategy<Value = Vec<f64>> {
    let value = prop_oneof![wide(), wide(), clustered(), clustered(), special()];
    (prop::collection::vec(value, 0..40), any::<u64>()).prop_map(|(mut values, mut x)| {
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mirrored: Vec<f64> = values
            .iter()
            .filter(|_| next() % 2 == 0)
            .map(|v| -v)
            .collect();
        values.extend(mirrored);
        for i in (1..values.len()).rev() {
            values.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        values
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn the_sum_is_the_exact_sum_rounded_once(values in inputs()) {
        check(&values, sum_of(&values).value())?;
    }

    #[test]
    fn finite_values_over_the_whole_range(values in prop::collection::vec(wide(), 0..60)) {
        check(&values, sum_of(&values).value())?;
    }

    /// Cut the inputs into "pages" anywhere: adding each page's partials
    /// reads exactly what adding the values does.
    #[test]
    fn adding_partials_is_adding_the_values(
        values in inputs(),
        cuts in prop::collection::vec(any::<usize>(), 0..4),
    ) {
        let whole = sum_of(&values).value();
        let mut at: Vec<usize> = cuts.iter().map(|i| i % (values.len() + 1)).collect();
        at.extend([0, values.len()]);
        at.sort_unstable();
        let mut paged = ExactSum::new();
        for page in at.windows(2).map(|w| &values[w[0]..w[1]]) {
            match sum_of(page).partials() {
                Some(partials) => {
                    let mut magnitudes: Vec<f64> = partials.iter().map(|p| p.abs()).collect();
                    magnitudes.dedup();
                    prop_assert_eq!(magnitudes.len(), partials.len(), "partials overlap");
                    partials.iter().for_each(|&p| paged.add(p));
                }
                // No finite partials: a non-finite value or a page sum
                // past the range — a reader decodes such a page.
                None => page.iter().for_each(|&v| paged.add(v)),
            }
        }
        prop_assert_eq!(paged.value().to_bits(), whole.to_bits(), "{:?}", values);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Longer runs than an adder holds in registers, all in one window.
    #[test]
    fn runs_longer_than_the_pending_sum_holds(
        values in prop::collection::vec(
            (any::<bool>(), 0u64..1 << 52).prop_map(|(neg, frac)| {
                f64::from_bits(u64::from(neg) << 63 | 0x3FF0_0000_0000_0000 | frac)
            }),
            1_000..3_000,
        ),
    ) {
        check(&values, sum_of(&values).value())?;
    }
}

#[test]
fn hand_picked_edges() {
    let tiny = f64::from_bits(1);
    for values in [
        vec![],
        vec![-0.0],
        vec![-0.0, 0.0],
        vec![1e308, 1e308, -1e308],
        vec![f64::MAX, f64::MAX],
        vec![f64::MAX, f64::MAX / 2f64.powi(53)],
        vec![1.0, f64::EPSILON / 2.0],
        vec![1.0, f64::EPSILON / 2.0, tiny],
        vec![1.0 + f64::EPSILON, f64::EPSILON / 2.0],
        vec![tiny; 7],
        vec![f64::MIN_POSITIVE, -tiny],
        vec![1e300, 1.0, -1e300, 1e-300],
    ] {
        check(&values, sum_of(&values).value()).unwrap_or_else(|e| panic!("{values:?}: {e}"));
    }
}

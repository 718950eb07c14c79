//! Value statistics with one definition on every path.
//!
//! A page header (BSTF3, [`crate::tsfile`]) stores a page's `min`, `max`
//! and sum, and the aggregate fold adds whole pages from those headers
//! beside points it decoded. The answers must not depend on which pages
//! came from a header, so both paths use the same two definitions:
//!
//! * **SUM** is the exactly rounded sum of the values' `f64` images —
//!   [`ExactSum`] adds every value without rounding and rounds once, when
//!   the result is read. Any association of the same values (a page
//!   summed at write time, then added to a query's running sum; pages
//!   regrouped by compaction) rounds to the same `f64`, bit for bit.
//!   Non-finite inputs follow IEEE: a NaN, or both infinities, give NaN;
//!   one infinity gives itself. An exact zero is `-0.0` only when every
//!   input was `-0.0`, as in IEEE addition.
//! * **MIN/MAX** order values as IEEE `totalOrder` does on the non-NaN
//!   values (`-0.0` below `+0.0`) and skip NaN ([`min_of`], [`max_of`]),
//!   so the fold is associative and commutative, ±0 included.

use crate::batch::ColumnSlice;

/// Limbs of the fixed-point accumulator. Bit `i` weighs `2^(i − 1074)`:
/// a finite `f64` touches bits 0..2098, and the rest is headroom for
/// carries (2^77 additions) and the two's-complement sign.
const LIMBS: usize = 34;

/// Values an [`Adder`] sums in registers before it settles them: each is
/// below 2^60 within its window, so 1,024 of them fit an `i128`.
const PENDING_MAX: u32 = 1024;

const NEG_ZERO: u64 = 1 << 63;
const FRACTION: u64 = (1 << 52) - 1;

/// Bits in a non-finite-input set.
const SAW_NAN: u8 = 1;
const SAW_POS_INF: u8 = 2;
const SAW_NEG_INF: u8 = 4;

/// An exact sum of `f64`s: a two's-complement fixed-point integer wide
/// enough to hold any sum of finite `f64`s without rounding, plus what it
/// has seen of the non-finite ones.
///
/// Add values with [`add`](Self::add), or many through one
/// [`adder`](Self::adder) — or the partials another sum reported with
/// [`partials`](Self::partials), which is how a page header is added —
/// and round once with [`value`](Self::value).
#[derive(Debug, Clone)]
pub struct ExactSum {
    /// Least significant limb first.
    limbs: [u64; LIMBS],
    /// `SAW_*` bits.
    non_finite: u8,
    /// Whether every input so far was `-0.0` (vacuously true when empty):
    /// the sign an exact zero rounds to.
    only_negative_zeros: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

/// A run of additions into an [`ExactSum`], settled into it when dropped.
///
/// Consecutive values of one magnitude share an eight-binade window, so
/// the adder sums their integer significands, aligned within the window,
/// in an `i128` it holds in registers and carries them into the limbs
/// only when a value lands in another window: the common add is a few
/// register operations, not a read-modify-write chain through memory.
#[derive(Debug)]
pub struct Adder<'a> {
    sum: &'a mut ExactSum,
    /// The sum of the values taken since the last settle, in units of
    /// bit `8 · window`.
    pending: i128,
    window: u64,
    count: u32,
    non_finite: u8,
    only_negative_zeros: bool,
}

impl Adder<'_> {
    /// Adds `x` exactly.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let biased = (bits >> 52) & 0x7FF;
        if biased == 0x7FF {
            self.non_finite |= if x.is_nan() {
                SAW_NAN
            } else if x > 0.0 {
                SAW_POS_INF
            } else {
                SAW_NEG_INF
            };
            return;
        }
        self.only_negative_zeros &= bits == NEG_ZERO;
        // x = m · 2^(shift − 1074), shift in 0..=2045.
        let (m, shift) = if biased == 0 {
            (bits & FRACTION, 0)
        } else {
            ((bits & FRACTION) | 1 << 52, biased - 1)
        };
        let window = shift >> 3;
        if window != self.window || self.count == PENDING_MAX {
            self.settle();
            self.window = window;
        }
        let v = (m << (shift & 7)) as i64;
        self.pending += i128::from(if bits >> 63 == 0 { v } else { -v });
        self.count += 1;
    }

    fn settle(&mut self) {
        settle(&mut self.sum.limbs, 8 * self.window as usize, self.pending);
        (self.pending, self.count) = (0, 0);
    }
}

impl Drop for Adder<'_> {
    fn drop(&mut self) {
        self.settle();
        self.sum.non_finite |= self.non_finite;
        self.sum.only_negative_zeros &= self.only_negative_zeros;
    }
}

impl ExactSum {
    /// The empty sum (reads as `-0.0`, the identity of IEEE addition).
    pub fn new() -> Self {
        Self {
            limbs: [0; LIMBS],
            non_finite: 0,
            only_negative_zeros: true,
        }
    }

    /// An [`Adder`] for many values in a row.
    #[inline]
    pub fn adder(&mut self) -> Adder<'_> {
        Adder {
            sum: self,
            pending: 0,
            window: 0,
            count: 0,
            non_finite: 0,
            only_negative_zeros: true,
        }
    }

    /// Adds `x` exactly.
    pub fn add(&mut self, x: f64) {
        self.adder().add(x);
    }

    /// The IEEE result of the non-finite inputs, if there were any.
    fn non_finite_value(&self) -> Option<f64> {
        match self.non_finite {
            0 => None,
            SAW_POS_INF => Some(f64::INFINITY),
            SAW_NEG_INF => Some(f64::NEG_INFINITY),
            _ => Some(f64::NAN),
        }
    }

    /// The sum's sign and magnitude (the fixed-point integer, negated
    /// out of two's complement when negative).
    fn magnitude(&self) -> (bool, [u64; LIMBS]) {
        let mut mag = self.limbs;
        let negative = mag.last().is_some_and(|top| top >> 63 == 1);
        if negative {
            let mut carry = true;
            for slot in &mut mag {
                let (s, c) = (!*slot).overflowing_add(u64::from(carry));
                *slot = s;
                carry = c;
            }
        }
        (negative, mag)
    }

    /// The sum rounded once to the nearest `f64`, ties to even; `±inf`
    /// when it is at least `2^1024 − 2^970` in magnitude.
    pub fn value(&self) -> f64 {
        if let Some(v) = self.non_finite_value() {
            return v;
        }
        let (negative, mag) = self.magnitude();
        let Some(top) = top_bit(&mag) else {
            return if self.only_negative_zeros { -0.0 } else { 0.0 };
        };
        let rounded = if top < 53 {
            // At most 53 significant bits: exact.
            scaled(bits_at(&mag, 0), 0)
        } else {
            // The 53 bits from `top` down, the rounding bit below them,
            // and whether anything below that is set.
            let lo = top.saturating_sub(63);
            let window = bits_at(&mag, lo) << (63 - (top - lo));
            let mut mantissa = window >> 11;
            let round = window >> 10 & 1 == 1;
            let sticky = window & 0x3FF != 0 || any_below(&mag, lo);
            let mut lsb = top - 52;
            if round && (sticky || mantissa & 1 == 1) {
                mantissa += 1;
                if mantissa == 1 << 53 {
                    mantissa >>= 1;
                    lsb += 1;
                }
            }
            scaled(mantissa, lsb)
        };
        if negative {
            -rounded
        } else {
            rounded
        }
    }

    /// The sum as non-overlapping `f64` partials in increasing magnitude
    /// whose exact sum is this sum — what a page header stores, and what
    /// [`add`](Self::add)ing them back into another `ExactSum` restores.
    /// `None` when a non-finite value was added or the sum's magnitude
    /// reaches `2^1024` (no finite partials can hold it). A zero sum is
    /// the one partial `±0.0` it reads as, so its sign survives.
    pub fn partials(&self) -> Option<Vec<f64>> {
        if self.non_finite != 0 {
            return None;
        }
        let (negative, mut mag) = self.magnitude();
        let mut out = Vec::new();
        while let Some(top) = top_bit(&mag) {
            if top >= 1024 + 1074 {
                return None;
            }
            let lsb = top.saturating_sub(52);
            let width = top - lsb + 1;
            let m = bits_at(&mag, lsb) & (u64::MAX >> (64 - width));
            clear_bits(&mut mag, lsb, width);
            let partial = scaled(m, lsb);
            out.push(if negative { -partial } else { partial });
        }
        if out.is_empty() {
            out.push(self.value());
        }
        out.reverse();
        Some(out)
    }
}

/// Adds the signed `value`, in units of bit `lsb` (`lsb ≤ 2040`,
/// `|value| < 2^71`), to the two's-complement `limbs`, carrying (or
/// borrowing) upward.
fn settle(limbs: &mut [u64; LIMBS], lsb: usize, value: i128) {
    if value == 0 {
        return;
    }
    let (limb, off) = (lsb / 64, lsb % 64);
    let (mag, negative) = (value.unsigned_abs(), value < 0);
    let low = mag << off;
    let top = match off {
        0 => 0,
        _ => (mag >> (128 - off)) as u64,
    };
    let step = |slot: &mut u64, by: u64, carry: bool| {
        let (s, c1, c2);
        if negative {
            (s, c1) = slot.overflowing_sub(by);
            (*slot, c2) = s.overflowing_sub(u64::from(carry));
        } else {
            (s, c1) = slot.overflowing_add(by);
            (*slot, c2) = s.overflowing_add(u64::from(carry));
        }
        c1 | c2
    };
    let mut carry = false;
    let words = [low as u64, (low >> 64) as u64, top];
    for (slot, word) in limbs.iter_mut().skip(limb).zip(words) {
        carry = step(slot, word, carry);
    }
    for slot in limbs.iter_mut().skip(limb + 3) {
        if !carry {
            break;
        }
        carry = step(slot, 0, true);
    }
}

/// The position of the highest set bit, `None` for zero.
fn top_bit(mag: &[u64; LIMBS]) -> Option<usize> {
    let limb = mag.iter().rposition(|&w| w != 0)?;
    let word = mag.get(limb)?;
    Some(limb * 64 + 63 - word.leading_zeros() as usize)
}

/// The 64 bits of `mag` from bit `lo` up (zeros past the top).
fn bits_at(mag: &[u64; LIMBS], lo: usize) -> u64 {
    let (limb, off) = (lo / 64, lo % 64);
    let low = mag.get(limb).copied().unwrap_or(0) >> off;
    let high = match off {
        0 => 0,
        _ => mag.get(limb + 1).copied().unwrap_or(0) << (64 - off),
    };
    low | high
}

/// Whether any bit of `mag` below bit `lo` is set.
fn any_below(mag: &[u64; LIMBS], lo: usize) -> bool {
    let (limb, off) = (lo / 64, lo % 64);
    mag.iter().take(limb).any(|&w| w != 0)
        || mag
            .get(limb)
            .is_some_and(|&w| off > 0 && w & (u64::MAX >> (64 - off)) != 0)
}

/// Clears `width` (1..=64) bits of `mag` from bit `lo` up.
fn clear_bits(mag: &mut [u64; LIMBS], lo: usize, width: usize) {
    for bit in lo..lo + width {
        if let Some(w) = mag.get_mut(bit / 64) {
            *w &= !(1 << (bit % 64));
        }
    }
}

/// `m · 2^(lsb − 1074)` for `m < 2^53`: exact whenever the result is
/// finite (one multiplication by a power of two), `inf` past the largest
/// `f64`.
fn scaled(m: u64, lsb: usize) -> f64 {
    let exp = lsb as i64 - 1074;
    if exp > 1023 {
        return f64::INFINITY;
    }
    let pow2 = if exp >= -1022 {
        f64::from_bits(((exp + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (exp + 1074))
    };
    m as f64 * pow2
}

/// The smaller of two values in `totalOrder` on the non-NaN values
/// (`-0.0 < +0.0`); a NaN loses to anything.
#[inline]
pub fn min_of(a: f64, b: f64) -> f64 {
    if b < a || (b == a && b.is_sign_negative()) || a.is_nan() {
        b
    } else {
        a
    }
}

/// The larger of two values in `totalOrder` on the non-NaN values
/// (`+0.0 > -0.0`); a NaN loses to anything.
#[inline]
pub fn max_of(a: f64, b: f64) -> f64 {
    if b > a || (b == a && a.is_sign_negative()) || a.is_nan() {
        b
    } else {
        a
    }
}

/// Calls `each` with every value's `f64` image, in order — the one
/// conversion sums and extremes are taken over (booleans are 0 and 1;
/// text is parsed, 0 when it does not parse, as `TsValue::as_f64`).
#[inline]
pub(crate) fn for_each_image(values: ColumnSlice<'_>, mut each: impl FnMut(f64)) {
    match values {
        ColumnSlice::Int(s) => s.iter().for_each(|&v| each(f64::from(v))),
        ColumnSlice::Long(s) => s.iter().for_each(|&v| each(v as f64)),
        ColumnSlice::Float(s) => s.iter().for_each(|&v| each(f64::from(v))),
        ColumnSlice::Double(s) => s.iter().for_each(|&v| each(v)),
        ColumnSlice::Bool(s) => s.iter().for_each(|&v| each(f64::from(u8::from(v)))),
        ColumnSlice::Text(s) => s.iter().for_each(|v| each(v.parse().unwrap_or(0.0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(values: &[f64]) -> f64 {
        let mut sum = ExactSum::new();
        values.iter().for_each(|&v| sum.add(v));
        sum.value()
    }

    #[test]
    fn sums_that_naive_addition_gets_wrong() {
        assert_eq!(exact(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(exact(&[0.1; 10]), 1.0);
        assert_eq!(exact(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(exact(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(exact(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        let tiny = f64::from_bits(1);
        assert_eq!(exact(&[tiny, tiny, tiny]).to_bits(), 3);
        assert_eq!(
            exact(&[1.0, f64::EPSILON / 2.0]),
            1.0,
            "a tie rounds to even"
        );
        assert_eq!(
            exact(&[1.0, f64::EPSILON / 2.0, tiny]),
            1.0 + f64::EPSILON,
            "the sticky bit breaks the tie"
        );
    }

    #[test]
    fn zeros_keep_the_sign_ieee_gives_them() {
        assert_eq!(exact(&[]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(exact(&[-0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(exact(&[-0.0, 0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(exact(&[2.5, -2.5]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn non_finite_inputs_follow_ieee() {
        assert!(exact(&[1.0, f64::NAN]).is_nan());
        assert!(exact(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert_eq!(exact(&[f64::INFINITY, 1.0, f64::MAX]), f64::INFINITY);
        assert_eq!(exact(&[f64::NEG_INFINITY, -0.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn partials_restore_the_sum_bit_for_bit() {
        let values = [1e300, 3.0, -7e-310, 0.1, 1e-20, -1e300, 2.0f64.powi(-1000)];
        let mut whole = ExactSum::new();
        values.iter().for_each(|&v| whole.add(v));
        let partials = whole.partials().expect("finite");
        assert!(partials.len() > 1);
        assert!(
            partials.windows(2).all(|w| w[0].abs() < w[1].abs()),
            "increasing magnitude: {partials:?}"
        );
        let mut again = ExactSum::new();
        partials.iter().for_each(|&p| again.add(p));
        assert_eq!(again.value().to_bits(), whole.value().to_bits());
        assert_eq!(again.partials(), Some(partials));
        for zeros in [&[-0.0][..], &[-0.0, 0.0], &[1.0, -1.0]] {
            let mut page = ExactSum::new();
            zeros.iter().for_each(|&v| page.add(v));
            let mut query = ExactSum::new();
            page.partials()
                .expect("finite")
                .iter()
                .for_each(|&p| query.add(p));
            assert_eq!(query.value().to_bits(), page.value().to_bits(), "{zeros:?}");
        }
        let mut special = ExactSum::new();
        special.add(f64::NAN);
        assert_eq!(special.partials(), None);
        let mut huge = ExactSum::new();
        huge.add(f64::MAX);
        huge.add(f64::MAX);
        assert_eq!(huge.partials(), None, "2·MAX has no finite partials");
    }

    #[test]
    fn extremes_order_signed_zeros_and_skip_nan() {
        let fold =
            |xs: &[f64], init: f64, f: fn(f64, f64) -> f64| xs.iter().fold(init, |a, &b| f(a, b));
        for xs in [
            [0.0, -0.0, f64::NAN],
            [-0.0, f64::NAN, 0.0],
            [f64::NAN, 0.0, -0.0],
        ] {
            assert_eq!(
                fold(&xs, f64::INFINITY, min_of).to_bits(),
                (-0.0f64).to_bits()
            );
            assert_eq!(
                fold(&xs, f64::NEG_INFINITY, max_of).to_bits(),
                0.0f64.to_bits()
            );
        }
        assert_eq!(min_of(f64::NAN, 3.0), 3.0);
        assert_eq!(max_of(3.0, f64::NAN), 3.0);
    }
}

//! Exact dyadic arithmetic over `i128`.
//!
//! The certifier re-derives every feasibility claim without floating
//! point, so a rounding artifact in the solver can never hide a real
//! violation (or invent a phantom one). Every `f64` input is converted
//! *exactly* — an IEEE-754 double is a dyadic rational `m * 2^e`, so the
//! conversion is lossless — and so is every sum, product, floor and
//! fractional part formed from one. [`Rat`] is therefore exactly that: a
//! numerator over a power of two, in lowest terms. Aligning two values is a
//! shift and reducing one is a `trailing_zeros`; there is no gcd, and the
//! replay path divides once, and only when a threshold is crossed inside an
//! event-free run of steps (to find the step). All arithmetic is checked:
//! instead of wrapping or saturating, an operation that would overflow
//! `i128` returns [`RatError::Overflow`] and the certification reports
//! "could not decide" rather than a wrong verdict.
//!
//! The one quantity in the whole checker that is *not* dyadic, the Gomory
//! ratio `f0/(1-f0)`, is never formed: `certificate.rs` compares against it
//! by cross-multiplying with its (positive) denominator.
//!
//! Magnitudes: the window is the one a reduced `i128` fraction with a
//! power-of-two denominator has — numerators below `2^127`, denominators up
//! to `2^126`. Paper-shaped instances (seconds up to ~1e5, bytes up to
//! ~1e13, 64-bit dyadic denominators, sums over a few thousand steps) stay
//! far inside it; overflow is a defensive boundary, not an expected path.

use std::cmp::Ordering;
use std::fmt;

/// Arithmetic failure in exact dyadic computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatError {
    /// An intermediate product or sum exceeded `i128`.
    Overflow,
    /// A `f64` input was NaN or infinite and has no rational value.
    NonFinite,
}

impl fmt::Display for RatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatError::Overflow => write!(f, "exact arithmetic overflowed i128"),
            RatError::NonFinite => write!(f, "non-finite f64 has no rational value"),
        }
    }
}

/// `n * 2^s`, or `Overflow` when that leaves `i128` (`s < 128`).
fn shl(n: i128, s: u32) -> Result<i128, RatError> {
    let r = n << s;
    if r >> s == n {
        Ok(r)
    } else {
        Err(RatError::Overflow)
    }
}

/// An unsigned 256-bit integer: wide enough for the product of any two
/// `i128` magnitudes, which is what cross-multiplying a comparison by the
/// Gomory ratio's denominator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct U256 {
    hi: u128,
    lo: u128,
}

impl U256 {
    /// `a * b`, exactly (schoolbook over 64-bit halves).
    fn product(a: u128, b: u128) -> U256 {
        const LOW: u128 = u64::MAX as u128;
        let (a1, a0, b1, b0) = (a >> 64, a & LOW, b >> 64, b & LOW);
        let (ll, lh, hl, hh) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
        let mid = (ll >> 64) + (lh & LOW) + (hl & LOW);
        U256 {
            hi: hh + (lh >> 64) + (hl >> 64) + (mid >> 64),
            lo: (mid << 64) | (ll & LOW),
        }
    }

    /// `self * 2^s` for `s < 128`; `None` when a set bit leaves the top.
    fn shl(self, s: u32) -> Option<U256> {
        if s == 0 {
            return Some(self);
        }
        if self.hi >> (128 - s) != 0 {
            return None;
        }
        Some(U256 { hi: self.hi << s | self.lo >> (128 - s), lo: self.lo << s })
    }
}

/// An exact dyadic rational `num / 2^shift` in lowest terms: `num` is odd
/// whenever `shift > 0`, and `shift <= 126` so the denominator is an `i128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rat {
    num: i128,
    shift: u32,
}

/// Largest denominator exponent: `2^126` is the largest power of two an
/// `i128` holds.
const MAX_SHIFT: u32 = 126;

impl Rat {
    /// Exact zero.
    pub const ZERO: Rat = Rat { num: 0, shift: 0 };

    /// `num / 2^shift` brought to lowest terms (`shift <= 126`).
    pub(crate) fn reduced(num: i128, shift: u32) -> Rat {
        if num == 0 {
            return Rat::ZERO;
        }
        let t = num.trailing_zeros().min(shift);
        Rat { num: num >> t, shift: shift - t }
    }

    /// An exact integer.
    pub fn from_int(n: i128) -> Rat {
        Rat { num: n, shift: 0 }
    }

    /// Exact (lossless) conversion of a finite `f64`.
    ///
    /// Decomposes the IEEE-754 bit pattern into `sign * mantissa * 2^e`
    /// and keeps it as it is. Errors with [`RatError::NonFinite`] on
    /// NaN/±inf and [`RatError::Overflow`] when `|x|` is so large
    /// (≳ 1.7e38) or so close to zero (subnormal territory) that the
    /// numerator or denominator exceeds `i128`.
    pub fn from_f64_exact(x: f64) -> Result<Rat, RatError> {
        if !x.is_finite() {
            return Err(RatError::NonFinite);
        }
        if x == 0.0 {
            return Ok(Rat::ZERO);
        }
        let bits = x.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exp2) = if raw_exp == 0 {
            (frac, -1074) // subnormal: no implicit leading bit
        } else {
            (frac | (1 << 52), raw_exp - 1075)
        };
        // lowest terms: an odd mantissa times (or over) a power of two
        let tz = mantissa.trailing_zeros();
        let (mantissa, exp2) = ((mantissa >> tz) as i128, exp2 + tz as i32);
        let (num, shift) = if exp2 >= 0 {
            // mantissa << exp2 fits iff bit-length(mantissa) + exp2 <= 127
            if exp2 as u32 >= mantissa.leading_zeros() {
                return Err(RatError::Overflow);
            }
            (mantissa << exp2, 0)
        } else {
            if -exp2 > MAX_SHIFT as i32 {
                return Err(RatError::Overflow);
            }
            (mantissa, -exp2 as u32)
        };
        Ok(Rat { num: if x < 0.0 { -num } else { num }, shift })
    }

    /// Numerator of the reduced fraction.
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator of the reduced fraction: a positive power of two.
    pub fn denom(&self) -> i128 {
        1 << self.shift
    }

    /// Exponent of the reduced denominator.
    pub(crate) fn shift(&self) -> u32 {
        self.shift
    }

    /// The numerator of this value written over `2^shift`, a denominator at
    /// least its own.
    pub(crate) fn numer_over(&self, shift: u32) -> Result<i128, RatError> {
        shl(self.num, shift - self.shift)
    }

    /// True for exact zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Sign of the value: -1, 0 or 1.
    pub fn signum(&self) -> i32 {
        self.num.signum() as i32
    }

    /// Both numerators over the larger of the two denominators.
    fn aligned(&self, o: &Rat) -> Result<(i128, i128, u32), RatError> {
        let shift = self.shift.max(o.shift);
        Ok((shl(self.num, shift - self.shift)?, shl(o.num, shift - o.shift)?, shift))
    }

    /// Checked addition.
    pub fn add(&self, o: &Rat) -> Result<Rat, RatError> {
        let (a, b, shift) = self.aligned(o)?;
        Ok(Rat::reduced(a.checked_add(b).ok_or(RatError::Overflow)?, shift))
    }

    /// Checked subtraction.
    pub fn sub(&self, o: &Rat) -> Result<Rat, RatError> {
        self.add(&Rat {
            num: o.num.checked_neg().ok_or(RatError::Overflow)?,
            shift: o.shift,
        })
    }

    /// Checked multiplication.
    pub fn mul(&self, o: &Rat) -> Result<Rat, RatError> {
        if self.num == 0 || o.num == 0 {
            return Ok(Rat::ZERO);
        }
        // cancel an even (hence integer) factor against the other side's
        // denominator before multiplying: what overflows then is the
        // reduced result itself, not an intermediate
        let s1 = self.num.trailing_zeros().min(o.shift);
        let s2 = o.num.trailing_zeros().min(self.shift);
        let num = (self.num >> s1)
            .checked_mul(o.num >> s2)
            .ok_or(RatError::Overflow)?;
        let shift = (self.shift - s2) + (o.shift - s1);
        if shift > MAX_SHIFT {
            return Err(RatError::Overflow);
        }
        Ok(Rat { num, shift })
    }

    /// Checked multiplication by an integer (common case: `k * ct`).
    pub fn mul_int(&self, k: i128) -> Result<Rat, RatError> {
        self.mul(&Rat::from_int(k))
    }

    /// Fractional part `self − ⌊self⌋`, in `[0, 1)`.
    pub fn frac(&self) -> Rat {
        // the low `shift` bits of a two's-complement numerator are its
        // non-negative remainder modulo the denominator — odd, so already
        // in lowest terms, whenever there is a denominator at all
        Rat { num: self.num & (self.denom() - 1), shift: self.shift }
    }

    /// Exact three-way comparison (checked: aligning can overflow).
    pub fn cmp_exact(&self, o: &Rat) -> Result<Ordering, RatError> {
        // differing signs decide without any shift
        let (ls, rs) = (self.num.signum(), o.num.signum());
        if ls != rs {
            return Ok(ls.cmp(&rs));
        }
        let (a, b, _) = self.aligned(o)?;
        Ok(a.cmp(&b))
    }

    /// True when `self <= o` (exact).
    pub fn le(&self, o: &Rat) -> Result<bool, RatError> {
        Ok(self.cmp_exact(o)? != Ordering::Greater)
    }

    /// Larger of two values.
    pub fn max(&self, o: &Rat) -> Result<Rat, RatError> {
        Ok(if self.cmp_exact(o)? == Ordering::Less { *o } else { *self })
    }

    /// Exact `self · p/q ≤ h` for `self`, `p`, `q` all positive, without
    /// forming the left side (which is not dyadic): multiplying through by
    /// `q` and both denominators, all positive, leaves
    /// `p·num·2^a ≤ q·h.num·2^b` with one of `a`, `b` zero. The products are
    /// taken 256 bits wide, so this decides wherever a reduced `i128`
    /// fraction `self · p/q` could have been compared — and beyond: the side
    /// whose shift leaves 256 bits is the larger one.
    pub(crate) fn times_ratio_le(&self, p: i128, q: i128, h: &Rat) -> bool {
        if h.num <= 0 {
            return false;
        }
        let low = self.shift.min(h.shift);
        let lhs = U256::product(p.unsigned_abs(), self.num.unsigned_abs()).shl(h.shift - low);
        let rhs = U256::product(q.unsigned_abs(), h.num.unsigned_abs()).shl(self.shift - low);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l <= r,
            (None, _) => false,
            (_, None) => true,
        }
    }

    /// `self · p/q` written out in lowest terms, for a rejection message
    /// only — no verdict reads it. Needs `self > 0` and odd, coprime
    /// `p, q > 0` (the numerators of `f0` and `1 − f0`): then the only
    /// factor that cancels is the odd one `num` shares with `q`, and the
    /// reduced pair overflows exactly where the general fraction this
    /// replaces did.
    pub(crate) fn times_ratio_display(&self, p: i128, q: i128) -> Result<String, RatError> {
        let (mut a, mut c) = (self.num >> self.num.trailing_zeros(), q);
        while a != c {
            if a < c {
                (a, c) = (c, a);
            }
            a -= c;
            a >>= a.trailing_zeros();
        }
        let n = p.checked_mul(self.num / c).ok_or(RatError::Overflow)?;
        let d = (q / c).checked_mul(self.denom()).ok_or(RatError::Overflow)?;
        Ok(if d == 1 { format!("{n}") } else { format!("{n}/{d}") })
    }

    /// Nearest `f64`, for reporting only — never used in a comparison.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.denom() as f64
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.shift == 0 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.denom())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fraction::{Frac, FracError};
    use proptest::prelude::*;

    /// `n / d` for a power-of-two `d`.
    fn r(n: i128, d: i128) -> Rat {
        assert_eq!(d.count_ones(), 1, "dyadic denominators only");
        Rat::reduced(n, d.trailing_zeros())
    }

    fn x(v: f64) -> Rat {
        Rat::from_f64_exact(v).unwrap()
    }

    #[test]
    fn normalization_invariants() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-6, 4), r(-3, 2));
        assert_eq!(r(0, 8), Rat::ZERO);
        assert_eq!(r(8, 8), Rat::from_int(1));
        assert_eq!((r(12, 8).numer(), r(12, 8).denom()), (3, 2));
        // an integer keeps its even numerator: there is nothing to cancel
        assert_eq!((r(12, 1).numer(), r(12, 1).denom()), (12, 1));
        assert!(r(-3, 16).denom() > 0);
    }

    #[test]
    fn arithmetic_is_exact() {
        let (a, b) = (r(1, 8), r(3, 8));
        assert_eq!(a.add(&b).unwrap(), r(1, 2));
        assert_eq!(a.sub(&b).unwrap(), r(-1, 4));
        assert_eq!(a.mul(&b).unwrap(), r(3, 64));
        assert_eq!(a.mul_int(24).unwrap(), Rat::from_int(3));
        assert_eq!(r(6, 1).mul(&r(5, 4)).unwrap(), r(15, 2));
        assert_eq!(r(-9, 4).frac(), r(3, 4));
        assert_eq!(r(7, 1).frac(), Rat::ZERO);
        // the classic float counterexample, seen exactly: the doubles 0.1
        // and 0.2 do not add up to the double 0.3, and the sum is known
        let sum = x(0.1).add(&x(0.2)).unwrap();
        assert_ne!(sum, x(0.3));
        assert_eq!(sum, r(3 * 3602879701896397, 1 << 55));
        // ... whereas the general fraction the oracle keeps does 1/10 + 2/10
        let tenth = Frac::new(1, 10).unwrap();
        assert_eq!(tenth.add(&Frac::new(2, 10).unwrap()), Frac::new(3, 10));
        assert_eq!(tenth.div(&Frac::new(2, 10).unwrap()), Frac::new(1, 2));
        assert_eq!(tenth.div(&Frac::ZERO), Err(FracError::DivisionByZero));
    }

    #[test]
    fn comparisons_are_exact() {
        assert_eq!(r(1, 4).cmp_exact(&r(2, 8)).unwrap(), Ordering::Equal);
        assert_eq!(r(1, 4).cmp_exact(&r(257, 1024)).unwrap(), Ordering::Less);
        assert!(r(-1, 2).le(&Rat::ZERO).unwrap());
        assert_eq!(r(1, 2).max(&r(5, 8)).unwrap(), r(5, 8));
        assert_eq!(r(1, 2).signum(), 1);
        assert_eq!(r(-1, 2).signum(), -1);
        assert_eq!(Rat::ZERO.signum(), 0);
    }

    #[test]
    fn f64_conversion_is_lossless() {
        for v in [
            0.0, 1.0, -1.0, 0.5, 0.1, 0.064678, 646.78, 1e12, -3.25, 1e-9,
            f64::from_bits(0x3ff0000000000001), // 1.0 + ulp
        ] {
            // exact round trip through the dyadic decomposition
            assert_eq!(x(v).to_f64(), v, "lossy conversion of {v}");
        }
        // 0.1 really is the dyadic 3602879701896397 / 2^55, not 1/10
        let tenth = x(0.1);
        assert_eq!(tenth.numer(), 3602879701896397);
        assert_eq!(tenth.denom(), 1i128 << 55);
    }

    #[test]
    fn f64_conversion_rejects_edge_cases() {
        assert_eq!(Rat::from_f64_exact(f64::NAN), Err(RatError::NonFinite));
        assert_eq!(Rat::from_f64_exact(f64::INFINITY), Err(RatError::NonFinite));
        assert_eq!(Rat::from_f64_exact(1e300), Err(RatError::Overflow));
        assert_eq!(Rat::from_f64_exact(5e-324), Err(RatError::Overflow));
        // non-dyadic values below ~2^-75 need a denominator beyond i128
        assert_eq!(Rat::from_f64_exact(1e-30), Err(RatError::Overflow));
        // the window's edges: 2^-126 is the last denominator, 2^126 and
        // (2^53 - 1) * 2^74 the last numerators
        assert_eq!(x(2f64.powi(-126)).denom(), 1 << 126);
        assert_eq!(Rat::from_f64_exact(2f64.powi(-127)), Err(RatError::Overflow));
        assert_eq!(x(2f64.powi(126)).numer(), 1 << 126);
        assert_eq!(Rat::from_f64_exact(2f64.powi(127)), Err(RatError::Overflow));
        let widest = ((1u64 << 53) - 1) as f64;
        assert!(Rat::from_f64_exact(widest * 2f64.powi(74)).is_ok());
        assert_eq!(Rat::from_f64_exact(widest * 2f64.powi(75)), Err(RatError::Overflow));
        // but the whole paper-shaped range works
        for v in [1e-20, 1e30, 1e13, 0.000_1] {
            assert!(Rat::from_f64_exact(v).is_ok(), "{v} should convert");
        }
    }

    /// Regression: comparing two dyadic rationals whose raw cross
    /// product exceeds `i128` must still decide, because their
    /// power-of-two denominators cancel. This is exactly the shape of
    /// `total_time.le(budget)` over measured wall-clock seconds, which
    /// used to fail stochastically depending on the measured bits.
    #[test]
    fn cmp_cancels_common_denominator_factors_before_cross_multiplying() {
        let a = r((1i128 << 65) + 1, 1i128 << 69); // ~0.0625
        let b = r(3, 1i128 << 62); // ~6.5e-19
        // raw cross product num(a) * den(b) ≈ 2^127 overflows; aligned to
        // the larger denominator the numerators are tiny
        assert_eq!(a.cmp_exact(&b).unwrap(), Ordering::Greater);
        assert!(b.le(&a).unwrap());
        assert_eq!(a.max(&b).unwrap(), a);
        // opposite signs never shift at all
        let neg = r(-((1i128 << 65) + 1), 1i128 << 69);
        assert_eq!(neg.cmp_exact(&a).unwrap(), Ordering::Less);
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        let big = Rat::from_int(i128::MAX / 2);
        assert_eq!(big.mul(&big), Err(RatError::Overflow));
        assert_eq!(big.mul_int(3), Err(RatError::Overflow));
        assert_eq!(big.add(&big).unwrap().add(&big), Err(RatError::Overflow));
        // aligning `big` to quarters needs two more bits than there are
        assert_eq!(big.cmp_exact(&r(1, 4)), Err(RatError::Overflow));
        assert_eq!(big.add(&r(1, 4)), Err(RatError::Overflow));
        // a denominator past 2^126 is an overflow too
        assert_eq!(r(1, 1 << 64).mul(&r(1, 1 << 63)), Err(RatError::Overflow));
        assert_eq!(r(1, 1 << 63).mul(&r(1, 1 << 63)).unwrap(), r(1, 1 << 126));
    }

    /// A value sitting on `i128::MIN` — where the Euclid `gcd` this type
    /// replaced ended in an `abs()` that panics in debug and wraps in
    /// release — goes through every operation as `Overflow` or the correct
    /// value.
    #[test]
    fn i128_min_never_panics_or_wraps() {
        let min = i128::MIN;
        let edge = Rat::from_int(min);
        let one = Rat::from_int(1);
        assert_eq!(r(min, 2), Rat::from_int(-(1i128 << 126)));
        assert_eq!(r(min, 1 << 126), Rat::from_int(-2));
        assert_eq!((edge.numer(), edge.denom(), edge.signum()), (min, 1, -1));
        assert_eq!(edge.add(&one).unwrap(), Rat::from_int(min + 1));
        assert_eq!(edge.sub(&one), Err(RatError::Overflow));
        assert_eq!(one.sub(&edge), Err(RatError::Overflow));
        assert_eq!(Rat::ZERO.sub(&edge), Err(RatError::Overflow));
        assert_eq!(edge.add(&edge), Err(RatError::Overflow));
        assert_eq!(edge.mul(&one).unwrap(), edge);
        assert_eq!(edge.mul(&r(1, 2)).unwrap(), Rat::from_int(-(1i128 << 126)));
        assert_eq!(edge.mul(&r(3, 2)), Err(RatError::Overflow));
        assert_eq!(edge.mul(&Rat::from_int(-1)), Err(RatError::Overflow));
        assert_eq!(edge.mul_int(2), Err(RatError::Overflow));
        assert_eq!(edge.mul(&Rat::ZERO).unwrap(), Rat::ZERO);
        assert_eq!(edge.cmp_exact(&edge).unwrap(), Ordering::Equal);
        assert_eq!(edge.cmp_exact(&one).unwrap(), Ordering::Less);
        assert_eq!(edge.cmp_exact(&Rat::from_int(min + 1)).unwrap(), Ordering::Less);
        assert_eq!(edge.cmp_exact(&r(-1, 2)), Err(RatError::Overflow));
        assert!(edge.le(&Rat::ZERO).unwrap());
        assert_eq!(edge.max(&one).unwrap(), one);
        assert_eq!(edge.frac(), Rat::ZERO);
        assert_eq!(r(min + 1, 2).frac(), r(1, 2));
        assert_eq!(edge.to_f64(), -(2f64.powi(127)));
        assert_eq!(edge.to_string(), min.to_string());
        assert!(!one.times_ratio_le(1, 3, &edge));
    }

    #[test]
    fn display_reads_naturally() {
        assert_eq!(r(3, 1).to_string(), "3");
        assert_eq!(r(-1, 2).to_string(), "-1/2");
        assert_eq!(r(10, 4).to_string(), "5/2");
    }

    #[test]
    fn wide_products_and_shifts_are_exact() {
        let max = u128::MAX;
        assert_eq!(U256::product(0, max), U256 { hi: 0, lo: 0 });
        assert_eq!(U256::product(3, 5), U256 { hi: 0, lo: 15 });
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        assert_eq!(U256::product(max, max), U256 { hi: max - 1, lo: 1 });
        assert_eq!(U256::product(1 << 100, 1 << 100), U256 { hi: 1 << 72, lo: 0 });
        let v = U256 { hi: 1, lo: (1 << 127) | 1 };
        assert_eq!(v.shl(0), Some(v));
        assert_eq!(v.shl(1), Some(U256 { hi: 3, lo: 2 }));
        assert_eq!(v.shl(126), Some(U256 { hi: (1 << 126) | (1 << 125), lo: 1 << 126 }));
        assert_eq!(v.shl(127), Some(U256 { hi: (1 << 127) | (1 << 126), lo: 1 << 127 }));
        assert_eq!(U256 { hi: 2, lo: 0 }.shl(127), None);
        assert!(U256 { hi: 1, lo: 0 } > U256 { hi: 0, lo: max });
    }

    /// One `f64` from the families the certifier meets or must refuse:
    /// full 53-bit mantissas at exponents across (and past) the window,
    /// integers near `2^53` and `9e15`, small integers and halves,
    /// subnormals and both zeros.
    fn arb_f64() -> impl Strategy<Value = f64> {
        (0u8..8, 0..=u64::MAX, -130i32..=130).prop_map(|(family, bits, exp)| {
            let unit = ((bits >> 11) | 1 << 52) as f64 / (1u64 << 52) as f64; // [1, 2)
            let sign = if bits & 1 == 1 { -1.0 } else { 1.0 };
            match family {
                0 | 1 => sign * unit * 2f64.powi(exp),
                2 => sign * unit * 2f64.powi(exp / 8),
                3 => sign * (((1u64 << 53) - 1 - (bits >> 60)) as f64),
                4 => sign * (9.0e15 + (bits >> 58) as f64),
                5 => sign * ((bits >> 56) as f64) / 2.0,
                6 => sign * f64::from_bits(bits >> 12), // subnormal
                _ => sign * 0.0,
            }
        })
    }

    /// A dyadic of 1 to 100 significant bits over a denominator up to
    /// `2^100`: the whole range from "every cross product fits" to "the
    /// reference overflows".
    fn arb_dyadic() -> impl Strategy<Value = Rat> {
        (0..=u64::MAX, 0..=u64::MAX, 1u32..=100, 0u32..=100, any::<bool>()).prop_map(
            |(hi, lo, bits, shift, negative)| {
                let n = (((hi as i128) << 64 | lo as i128) & i128::MAX) >> (127 - bits);
                Rat::reduced(if negative { -n } else { n }, shift)
            },
        )
    }

    /// New and reference values are the same number, written the same way.
    fn same(new: &Rat, old: &Frac) -> bool {
        (new.numer(), new.denom()) == (old.numer(), old.denom())
            && new.to_string() == old.to_string()
            && new.to_f64().to_bits() == old.to_f64().to_bits()
            && (new.is_zero(), new.signum()) == (old.is_zero(), old.signum())
    }

    fn same_result(new: Result<Rat, RatError>, old: Result<Frac, FracError>) -> bool {
        match (new, old) {
            (Ok(n), Ok(o)) => same(&n, &o),
            (Err(RatError::Overflow), Err(FracError::Overflow)) => true,
            (Err(RatError::NonFinite), Err(FracError::NonFinite)) => true,
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A random program of additions, subtractions, products and
        /// integer multiples over random doubles, run on the dyadic type
        /// and on the general fraction it replaced: every intermediate is
        /// the same reduced pair or the same error, prints and rounds the
        /// same, and orders the same against every other one.
        #[test]
        fn dyadic_ops_agree_with_the_general_fraction(
            inputs in prop::collection::vec(arb_f64(), 2..6),
            program in prop::collection::vec((0u8..5, 0usize..64, 0usize..64, -40i64..40), 1..24),
        ) {
            let mut vals: Vec<(Rat, Frac)> = Vec::new();
            for &v in &inputs {
                let (new, old) = (Rat::from_f64_exact(v), Frac::from_f64_exact(v));
                prop_assert!(same_result(new, old), "from_f64_exact({v:e}): {new:?} vs {old:?}");
                if let (Ok(n), Ok(o)) = (new, old) {
                    vals.push((n, o));
                }
            }
            prop_assume!(!vals.is_empty());
            for &(op, i, j, k) in &program {
                let ((a, fa), (b, fb)) = (vals[i % vals.len()], vals[j % vals.len()]);
                let (new, old) = match op {
                    0 => (a.add(&b), fa.add(&fb)),
                    1 => (a.sub(&b), fa.sub(&fb)),
                    2 => (a.mul(&b), fa.mul(&fb)),
                    3 => (a.mul_int(k as i128), fa.mul_int(k as i128)),
                    _ => (a.max(&b), fa.max(&fb)),
                };
                prop_assert!(same_result(new, old), "op {op} on {a} and {b} (k = {k}): {new:?} vs {old:?}");
                let cmp = (a.cmp_exact(&b), fa.cmp_exact(&fb));
                prop_assert!(
                    matches!(cmp, (Ok(n), Ok(o)) if n == o)
                        || matches!(cmp, (Err(RatError::Overflow), Err(FracError::Overflow))),
                    "cmp of {a} and {b}: {cmp:?}"
                );
                prop_assert_eq!(a.le(&b).ok(), fa.le(&fb).ok());
                // floor and fractional part, where the reference can form them
                if let Ok(old_frac) = crate::fraction::frac_rat(&fa) {
                    prop_assert!(same(&a.frac(), &old_frac), "frac({a})");
                    let floor = a.sub(&a.frac()).unwrap();
                    prop_assert!(same(&floor, &crate::fraction::floor_rat(&fa).unwrap()), "floor({a})");
                }
                if let (Ok(n), Ok(o)) = (new, old) {
                    vals.push((n, o));
                }
            }
        }

        /// The cross-multiplied comparison against `f0/(1-f0)` decides
        /// exactly what the materialized ratio decided wherever that could
        /// decide at all, and the rejection message prints the same digits.
        #[test]
        fn ratio_comparison_agrees_with_the_materialized_ratio(
            f0 in arb_dyadic(), t in arb_dyadic(), h in arb_dyadic(), nudge in -2i64..=2,
        ) {
            let (f0, t) = (f0.frac(), if t.signum() < 0 { Rat::ZERO.sub(&t).unwrap() } else { t });
            prop_assume!(!f0.is_zero() && !t.is_zero());
            let one_minus = Rat::from_int(1).sub(&f0).unwrap();
            let (p, q) = (f0.numer(), one_minus.numer());
            let as_frac = |v: &Rat| Frac::new(v.numer(), v.denom()).unwrap();
            let ratio = as_frac(&f0).div(&as_frac(&one_minus)).unwrap();
            prop_assert_eq!((ratio.numer(), ratio.denom()), (p, q));
            let exact = ratio.mul(&as_frac(&t));
            match (&exact, t.times_ratio_display(p, q)) {
                (Ok(e), Ok(s)) => prop_assert_eq!(e.to_string(), s),
                (Err(FracError::Overflow), Err(RatError::Overflow)) => {}
                (e, s) => prop_assert!(false, "{e:?} vs {s:?}"),
            }
            // against a random bound, and against ones hugging the value
            let mut bounds = vec![h];
            if let Ok(e) = &exact {
                let near = f64::from_bits((e.to_f64().to_bits() as i64 + nudge) as u64);
                bounds.extend(Rat::from_f64_exact(near).ok());
            }
            for h in bounds {
                if let Ok(decided) = exact.and_then(|e| e.le(&as_frac(&h))) {
                    prop_assert_eq!(t.times_ratio_le(p, q, &h), decided, "{}·{}/{} vs {}", t, p, q, h);
                }
            }
        }
    }
}

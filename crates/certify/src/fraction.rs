//! Test-only reference implementations: the general `i128` fraction the
//! certifier computed with before [`crate::Rat`] became a dyadic type, and
//! the `check_gomory` written on top of it, both exactly as they were at
//! commit b860911. Nothing here is compiled into the library — the
//! differential tests in `rational.rs` and `certificate.rs` drive the
//! production arithmetic against these and demand equal values, equal
//! overflow verdicts and byte-identical messages.

use insitu_types::GomoryVar;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Arithmetic failure in the reference fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FracError {
    /// An intermediate product or sum exceeded `i128`.
    Overflow,
    /// Division by an exact zero.
    DivisionByZero,
    /// A `f64` input was NaN or infinite and has no rational value.
    NonFinite,
}

/// Euclid, verbatim — including the closing `abs()`, which panics (debug)
/// or wraps (release) on `i128::MIN`; the tests never hand it one.
fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a.abs()
}

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1` as invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frac {
    num: i128,
    den: i128,
}

impl Frac {
    /// Exact zero.
    pub const ZERO: Frac = Frac { num: 0, den: 1 };

    /// Builds a normalized rational; errors on a zero denominator.
    pub fn new(num: i128, den: i128) -> Result<Frac, FracError> {
        if den == 0 {
            return Err(FracError::DivisionByZero);
        }
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = num.checked_neg().ok_or(FracError::Overflow)?;
            den = den.checked_neg().ok_or(FracError::Overflow)?;
        }
        Ok(Frac { num, den })
    }

    /// An exact integer.
    pub fn from_int(n: i128) -> Frac {
        Frac { num: n, den: 1 }
    }

    /// Exact (lossless) conversion of a finite `f64`.
    ///
    /// Decomposes the IEEE-754 bit pattern into `sign * mantissa * 2^e`
    /// and builds the corresponding dyadic rational. Errors with
    /// [`FracError::NonFinite`] on NaN/±inf and [`FracError::Overflow`]
    /// when `|x|` is so large (≳ 1.7e38) or so close to zero (subnormal
    /// territory) that the numerator or denominator exceeds `i128`.
    pub fn from_f64_exact(x: f64) -> Result<Frac, FracError> {
        if !x.is_finite() {
            return Err(FracError::NonFinite);
        }
        if x == 0.0 {
            return Ok(Frac::ZERO);
        }
        let bits = x.to_bits();
        let negative = bits >> 63 == 1;
        let raw_exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = (bits & ((1u64 << 52) - 1)) as i128;
        let (mut mantissa, mut exp2) = if raw_exp == 0 {
            (frac, -1074i64) // subnormal: no implicit leading bit
        } else {
            (frac | (1i128 << 52), raw_exp - 1075)
        };
        // strip factors of two so 2^-exp2 stays as small as possible
        while mantissa & 1 == 0 && mantissa != 0 {
            mantissa >>= 1;
            exp2 += 1;
        }
        let (num, den) = if exp2 >= 0 {
            // mantissa << exp2 fits iff bit-length(mantissa) + exp2 <= 127
            if exp2 > mantissa.leading_zeros() as i64 - 1 {
                return Err(FracError::Overflow);
            }
            (mantissa << exp2, 1i128)
        } else {
            if -exp2 >= 127 {
                return Err(FracError::Overflow);
            }
            (mantissa, 1i128 << -exp2)
        };
        Frac::new(if negative { -num } else { num }, den)
    }

    /// Numerator (after normalization).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (after normalization, always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// True for exact zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Sign of the value: -1, 0 or 1.
    pub fn signum(&self) -> i32 {
        self.num.signum() as i32
    }

    /// Checked addition.
    pub fn add(&self, o: &Frac) -> Result<Frac, FracError> {
        // cross-multiply over the gcd of the denominators to delay overflow
        let g = gcd(self.den, o.den);
        let lhs_scale = o.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)
            .and_then(|a| o.num.checked_mul(rhs_scale).and_then(|b| a.checked_add(b)))
            .ok_or(FracError::Overflow)?;
        let den = self.den.checked_mul(lhs_scale).ok_or(FracError::Overflow)?;
        Frac::new(num, den)
    }

    /// Checked subtraction.
    pub fn sub(&self, o: &Frac) -> Result<Frac, FracError> {
        self.add(&Frac {
            num: o.num.checked_neg().ok_or(FracError::Overflow)?,
            den: o.den,
        })
    }

    /// Checked multiplication.
    pub fn mul(&self, o: &Frac) -> Result<Frac, FracError> {
        // reduce cross factors first to delay overflow
        let g1 = gcd(self.num, o.den);
        let g2 = gcd(o.num, self.den);
        let (an, ad) = (self.num / g1.max(1), self.den / g2.max(1));
        let (bn, bd) = (o.num / g2.max(1), o.den / g1.max(1));
        let num = an.checked_mul(bn).ok_or(FracError::Overflow)?;
        let den = ad.checked_mul(bd).ok_or(FracError::Overflow)?;
        Frac::new(num, den)
    }

    /// Checked division.
    pub fn div(&self, o: &Frac) -> Result<Frac, FracError> {
        if o.num == 0 {
            return Err(FracError::DivisionByZero);
        }
        self.mul(&Frac { num: o.den, den: o.num })
    }

    /// Checked multiplication by an integer (common case: `k * ct`).
    pub fn mul_int(&self, k: i128) -> Result<Frac, FracError> {
        self.mul(&Frac::from_int(k))
    }

    /// Exact three-way comparison (checked: cross products can overflow).
    pub fn cmp_exact(&self, o: &Frac) -> Result<Ordering, FracError> {
        // differing signs decide without any multiplication
        let (ls, rs) = (self.num.signum(), o.num.signum());
        if ls != rs {
            return Ok(ls.cmp(&rs));
        }
        // scale by the denominators' gcd, mirroring `add`: dyadic inputs
        // (every f64 is `m / 2^k`) share large power-of-two factors, and
        // the raw cross product `num * den` of two measured wall-clock
        // values sits right at the 2^127 boundary
        let g = gcd(self.den, o.den);
        let lhs = self.num.checked_mul(o.den / g).ok_or(FracError::Overflow)?;
        let rhs = o.num.checked_mul(self.den / g).ok_or(FracError::Overflow)?;
        Ok(lhs.cmp(&rhs))
    }

    /// True when `self <= o` (exact).
    pub fn le(&self, o: &Frac) -> Result<bool, FracError> {
        Ok(self.cmp_exact(o)? != Ordering::Greater)
    }

    /// Larger of two rationals.
    pub fn max(&self, o: &Frac) -> Result<Frac, FracError> {
        Ok(if self.cmp_exact(o)? == Ordering::Less { *o } else { *self })
    }

    /// Nearest `f64`, for reporting only — never used in a comparison.
    #[allow(clippy::wrong_self_convention)] // verbatim; the lint exempts `pub` API, which this was
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl fmt::Display for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Exact floor of a rational (denominator is normalized positive).
pub fn floor_rat(r: &Frac) -> Result<Frac, FracError> {
    Frac::new(r.numer().div_euclid(r.denom()), 1)
}

/// Exact fractional part in `[0, 1)`.
pub fn frac_rat(r: &Frac) -> Result<Frac, FracError> {
    r.sub(&floor_rat(r)?)
}

fn rat(x: f64, what: &str) -> Result<Frac, String> {
    Frac::from_f64_exact(x).map_err(|e| format!("{what} {x} not exactly representable: {e:?}"))
}

fn overflow(what: &str) -> impl Fn(FracError) -> String + '_ {
    move |e| format!("rational arithmetic failed while {what}: {e:?}")
}

/// Replays a Gomory mixed-integer derivation exactly and checks dominance.
///
/// Shifted space: `t_j = x_j − bound_j` (or `bound_j − x_j` when
/// `at_upper`), all `t_j ≥ 0`. The attested base equality becomes
/// `Σ d_j t_j = b′` with `d_j = ±coeff_j`; with `f0 = frac(b′) ∈ (0,1)`
/// the GMI cut is `Σ g_j t_j ≥ f0` where for integral `t_j`
/// `g_j = min(frac(d_j), f0·(1−frac(d_j))/(1−f0))` and for continuous
/// `t_j` `g_j = max(d_j,0) + f0/(1−f0)·max(−d_j,0)`. The recorded cut is
/// valid iff its shifted coefficients dominate (`h_j ≥ g_j`) and its
/// shifted right-hand side is no larger than `f0` — then
/// `Σ h t ≥ Σ g t ≥ f0 ≥ rhs_t` for every feasible point.
pub fn check_gomory(
    vars: &[GomoryVar],
    base_rhs: f64,
    cut: &[(usize, f64)],
    cut_rhs: f64,
) -> Result<(), String> {
    if vars.is_empty() {
        return Err("gomory base row has no variables".into());
    }
    // variable -> position in `vars` (and in `exact` below)
    let mut base: BTreeMap<usize, usize> = BTreeMap::new();
    for (k, g) in vars.iter().enumerate() {
        if base.insert(g.var, k).is_some() {
            return Err(format!("duplicate variable {} in base row", g.var));
        }
    }
    // each variable's exact (coeff, bound), converted once for all three
    // loops; shifted right-hand side b' = base_rhs - sum coeff_j * bound_j
    let mut bp = rat(base_rhs, "base rhs")?;
    let mut exact: Vec<(Frac, Frac)> = Vec::with_capacity(vars.len());
    for g in vars {
        let coeff = rat(g.coeff, "base coefficient")?;
        let bound = rat(g.bound, "shift bound")?;
        let shift = coeff
            .mul(&bound)
            .map_err(overflow("shifting the base row"))?;
        bp = bp.sub(&shift).map_err(overflow("shifting the base row"))?;
        exact.push((coeff, bound));
    }
    let f0 = frac_rat(&bp).map_err(overflow("taking frac(b')"))?;
    if f0.is_zero() {
        return Err("base row is integral at the recorded basis (f0 = 0)".into());
    }
    let one = Frac::from_int(1);
    let one_minus_f0 = one.sub(&f0).map_err(overflow("computing 1-f0"))?;
    let ratio = f0
        .div(&one_minus_f0)
        .map_err(overflow("computing f0/(1-f0)"))?;

    // recorded cut, indexed; every term must sit on a base-row variable
    let mut rec: BTreeMap<usize, Frac> = BTreeMap::new();
    for &(v, c) in cut {
        if !base.contains_key(&v) {
            return Err(format!("cut references variable {v} outside its base row"));
        }
        if rec.insert(v, rat(c, "cut coefficient")?).is_some() {
            return Err(format!("duplicate variable {v} in cut"));
        }
    }

    for (g, &(d, bound)) in vars.iter().zip(&exact) {
        let d = if g.at_upper {
            Frac::ZERO.sub(&d).map_err(overflow("negating d_j"))?
        } else {
            d
        };
        let exact = if g.integral {
            // the integer treatment is only sound when the shift keeps the
            // variable on the integer lattice
            if !frac_rat(&bound)
                .map_err(overflow("checking bound integrality"))?
                .is_zero()
            {
                return Err(format!(
                    "variable {} flagged integral but its shift bound {} is not",
                    g.var, g.bound
                ));
            }
            let fj = frac_rat(&d).map_err(overflow("taking frac(d_j)"))?;
            let alt = ratio
                .mul(&one.sub(&fj).map_err(overflow("computing 1-f_j"))?)
                .map_err(overflow("scaling 1-f_j"))?;
            if fj.le(&alt).map_err(overflow("comparing GMI branches"))? {
                fj
            } else {
                alt
            }
        } else {
            let pos = d.max(&Frac::ZERO).map_err(overflow("max(d,0)"))?;
            let neg = Frac::ZERO.sub(&d).map_err(overflow("-d"))?;
            let neg = neg.max(&Frac::ZERO).map_err(overflow("max(-d,0)"))?;
            pos.add(&ratio.mul(&neg).map_err(overflow("scaling max(-d,0)"))?)
                .map_err(overflow("continuous GMI coefficient"))?
        };
        // shifted recorded coefficient h_j = ±c_j (0 when the var is absent)
        let c = rec.get(&g.var).copied().unwrap_or(Frac::ZERO);
        let h = if g.at_upper {
            Frac::ZERO.sub(&c).map_err(overflow("negating h_j"))?
        } else {
            c
        };
        if !exact.le(&h).map_err(overflow("dominance comparison"))? {
            return Err(format!(
                "cut coefficient on variable {} is {} in shifted space, \
                 below the exact GMI coefficient {}",
                g.var, h, exact
            ));
        }
    }

    // shifted recorded rhs must not exceed f0
    let mut rhs_t = rat(cut_rhs, "cut rhs")?;
    for (&v, c) in &rec {
        let shift = c
            .mul(&exact[base[&v]].1)
            .map_err(overflow("shifting the cut rhs"))?;
        rhs_t = rhs_t.sub(&shift).map_err(overflow("shifting the cut rhs"))?;
    }
    if !rhs_t.le(&f0).map_err(overflow("rhs dominance"))? {
        return Err(format!(
            "cut rhs is {rhs_t} in shifted space, above the exact GMI rhs {f0}"
        ));
    }
    Ok(())
}


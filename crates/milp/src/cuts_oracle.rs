//! Test-only reference implementations: the general `i128` fraction the
//! separator computed with before `Q` became a dyadic type, its outward
//! rounding, and the `derive_gomory` written on top of them — all exactly
//! as they were at commit b860911. Nothing here is compiled into the
//! library; the differential tests in `cuts.rs` drive the production code
//! against these and demand equal values, equal overflow verdicts and cut
//! candidates that are equal field for field.

use super::*;

/// A reduced `i128` rational. Every operation is checked: `None` means
/// "would overflow", and callers respond by skipping the cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Q {
    /// Numerator (carries the sign).
    pub(super) n: i128,
    /// Denominator, always positive.
    pub(super) d: i128,
}

/// `gcd(|a|, |b|)`, at least 1. Unsigned: `|i128::MIN|` has no `i128`.
/// Binary (shift-and-subtract): nearly every operand pair here has a power
/// of two on one side — f64s are dyadic — where a 128-bit `%` per step is
/// the expensive way to count trailing zeros.
pub(super) fn gcd(a: i128, b: i128) -> u128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    if a == 0 || b == 0 {
        return (a | b).max(1);
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            (a, b) = (b, a);
        }
        b -= a;
        if b == 0 || a == 1 {
            return a << shift;
        }
    }
}

/// [`gcd`] as a divisor for `i128` operands; `None` only for `2¹²⁷`
/// (both arguments `i128::MIN`).
pub(super) fn gcd_i(a: i128, b: i128) -> Option<i128> {
    i128::try_from(gcd(a, b)).ok()
}

/// [`Q::from_f64`] refuses numerators at or beyond this magnitude — inside
/// `i128` (`2¹²⁷ ≈ 1.7e38`) with a little room to spare.
const FROM_F64_LIMIT: u128 = 1.5e38_f64 as u128;

impl Q {
    pub(super) const ZERO: Q = Q { n: 0, d: 1 };
    pub(super) const ONE: Q = Q { n: 1, d: 1 };

    /// `n / d` in lowest terms with a positive denominator; `None` when
    /// `d` is zero or a reduced magnitude does not fit `i128` (a `2¹²⁷`
    /// that came in as `i128::MIN`).
    pub(super) fn make(n: i128, d: i128) -> Option<Q> {
        if d == 0 {
            return None;
        }
        let g = gcd(n, d);
        let num = i128::try_from(n.unsigned_abs() / g).ok()?;
        let den = i128::try_from(d.unsigned_abs() / g).ok()?;
        Some(Q { n: if (n < 0) != (d < 0) { -num } else { num }, d: den })
    }

    /// Exact conversion: every finite f64 is the dyadic rational
    /// `±mantissa · 2^exponent`, read off the bits. `None` when the
    /// denominator would pass `2¹²⁶` or the numerator reach
    /// [`FROM_F64_LIMIT`].
    pub(super) fn from_f64(x: f64) -> Option<Q> {
        if !x.is_finite() {
            return None;
        }
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        // value = mant · 2^exp (subnormals have no implicit leading one)
        let (mant, exp) = if biased == 0 { (frac, -1074) } else { (frac | (1 << 52), biased - 1075) };
        if mant == 0 {
            return Some(Q::ZERO);
        }
        // lowest terms: an odd mantissa over (or times) a power of two
        let tz = mant.trailing_zeros();
        let (mant, exp) = ((mant >> tz) as u128, exp + tz as i32);
        let (num, den) = if exp >= 0 {
            // a shift that would push a set bit out is beyond the limit too
            if exp as u32 >= mant.leading_zeros() || mant << exp >= FROM_F64_LIMIT {
                return None;
            }
            ((mant << exp) as i128, 1)
        } else {
            if exp < -126 {
                return None;
            }
            (mant as i128, 1i128 << -exp)
        };
        Some(Q { n: if x < 0.0 { -num } else { num }, d: den })
    }

    pub(super) fn is_zero(&self) -> bool {
        self.n == 0
    }

    pub(super) fn add(&self, o: &Q) -> Option<Q> {
        let g = gcd_i(self.d, o.d)?;
        let (da, db) = (self.d / g, o.d / g);
        let n = self.n.checked_mul(db)?.checked_add(o.n.checked_mul(da)?)?;
        Q::make(n, self.d.checked_mul(db)?)
    }

    pub(super) fn sub(&self, o: &Q) -> Option<Q> {
        self.add(&Q { n: o.n.checked_neg()?, d: o.d })
    }

    pub(super) fn mul(&self, o: &Q) -> Option<Q> {
        // cross-reduce before multiplying to delay overflow
        let g1 = gcd_i(self.n, o.d)?;
        let g2 = gcd_i(o.n, self.d)?;
        let n = (self.n / g1).checked_mul(o.n / g2)?;
        let d = (self.d / g2).checked_mul(o.d / g1)?;
        Q::make(n, d)
    }

    pub(super) fn div(&self, o: &Q) -> Option<Q> {
        if o.n == 0 {
            return None;
        }
        self.mul(&Q::make(o.d, o.n)?)
    }

    pub(super) fn neg(&self) -> Option<Q> {
        Some(Q { n: self.n.checked_neg()?, d: self.d })
    }

    /// `⌊self⌋` as a rational.
    pub(super) fn floor(&self) -> Q {
        Q { n: self.n.div_euclid(self.d), d: 1 }
    }

    /// Fractional part in `[0, 1)`.
    pub(super) fn frac(&self) -> Option<Q> {
        self.sub(&self.floor())
    }

    /// Exact comparison; `None` on overflow of the cross products.
    pub(super) fn cmp(&self, o: &Q) -> Option<std::cmp::Ordering> {
        let g1 = gcd_i(self.n, o.n)?;
        let g2 = gcd_i(self.d, o.d)?;
        let a = (self.n / g1).checked_mul(o.d / g2)?;
        let b = (o.n / g1).checked_mul(self.d / g2)?;
        // dividing both numerators by g1 can flip both signs when g1 "sees"
        // negative values — it cannot: gcd() returns a positive value.
        Some(a.cmp(&b))
    }

    pub(super) fn le(&self, o: &Q) -> Option<bool> {
        Some(self.cmp(o)? != std::cmp::Ordering::Greater)
    }

    pub(super) fn min(&self, o: &Q) -> Option<Q> {
        Some(if self.le(o)? { *self } else { *o })
    }

    pub(super) fn to_f64(self) -> f64 {
        self.n as f64 / self.d as f64
    }
}

/// Smallest f64 `≥ x` reachable within a few ulps of the rounded quotient
/// (outward rounding for cut coefficients).
pub(super) fn f64_at_least(x: &Q) -> Option<f64> {
    let mut f = x.to_f64();
    if !f.is_finite() {
        return None;
    }
    // to_f64 is within a few ulps of exact; walk up until provably >= x
    for _ in 0..8 {
        if x.le(&Q::from_f64(f)?)? {
            return Some(f);
        }
        f = next_up(f);
    }
    None
}

/// Largest f64 `≤ x` (outward rounding for cut right-hand sides).
pub(super) fn f64_at_most(x: &Q) -> Option<f64> {
    Some(-f64_at_least(&x.neg()?)?)
}

/// Turns one recorded tableau row `Σ αⱼ xⱼ = β` into a proven GMI cut.
/// All arithmetic after recording is exact; returns `None` whenever the
/// row is unusable (dense, overflowing, shallow, or infinite-bound).
#[allow(clippy::too_many_arguments)]
pub(super) fn derive_gomory(
    model: &Model,
    sf: &StandardForm,
    view: &TableauView<'_>,
    alpha: &[f64],
    beta: f64,
    integral: &[bool],
    x: &[f64],
) -> Option<CutCandidate> {
    let n_struct = sf.n_struct;
    // record the base row: coefficients above noise, each with the bound
    // its variable is shifted from
    struct BaseVar {
        col: usize,
        coeff: f64,
        bound: f64,
        /// `coeff` and `bound` as exact rationals, converted once.
        exact: (Q, Q),
        at_upper: bool,
        int_shift: bool,
    }
    let mut base: Vec<BaseVar> = Vec::new();
    for (col, &a) in alpha.iter().enumerate() {
        if a.abs() <= COEF_EPS || !a.is_finite() {
            continue;
        }
        if base.len() >= MAX_BASE_NNZ {
            return None;
        }
        // standard form gives every column a finite lower bound, so basic
        // survivors (numerical leakage from other rows) shift from below
        let at_upper = !view.is_basic(col) && view.at_upper(col);
        let bound = if at_upper { sf.upper[col] } else { sf.lower[col] };
        if !bound.is_finite() {
            return None;
        }
        let int_shift = col < n_struct
            && integral[col]
            && bound.fract() == 0.0
            && bound.abs() < 9.0e15;
        let exact = (Q::from_f64(a)?, Q::from_f64(bound)?);
        base.push(BaseVar { col, coeff: a, bound, exact, at_upper, int_shift });
    }
    if base.is_empty() {
        return None;
    }
    // b' = β − Σ αⱼ·boundⱼ ;  f₀ = frac(b')
    let mut bp = Q::from_f64(beta)?;
    for v in &base {
        bp = bp.sub(&v.exact.0.mul(&v.exact.1)?)?;
    }
    let f0 = bp.frac()?;
    if f0.is_zero() {
        return None;
    }
    let f0_f = f0.to_f64();
    if !(GOMORY_MIN_FRAC..=1.0 - GOMORY_MIN_FRAC).contains(&f0_f) {
        return None;
    }
    let ratio = f0.div(&Q::ONE.sub(&f0)?)?;
    // per-variable GMI coefficient in shifted space, rounded outward into
    // the original space; the rhs is f₀ back-shifted by the recorded
    // coefficients, rounded down
    let mut cut: Vec<(usize, f64)> = Vec::new();
    let mut target = f0;
    for v in &base {
        let d = if v.at_upper { v.exact.0.neg()? } else { v.exact.0 };
        let g = if v.int_shift {
            let fj = d.frac()?;
            fj.min(&ratio.mul(&Q::ONE.sub(&fj)?)?)?
        } else if Q::ZERO.le(&d)? {
            d
        } else {
            ratio.mul(&d.neg()?)?
        };
        let mag = f64_at_least(&g)?;
        let c = if v.at_upper { -mag } else { mag };
        if c != 0.0 {
            cut.push((v.col, c));
            target = target.add(&Q::from_f64(c)?.mul(&v.exact.1)?)?;
        }
    }
    let cut_rhs = f64_at_most(&target)?;
    let proof = CutProof::Gomory {
        vars: base
            .iter()
            .map(|v| GomoryVar {
                var: v.col,
                coeff: v.coeff,
                bound: v.bound,
                integral: v.int_shift,
                at_upper: v.at_upper,
            })
            .collect(),
        base_rhs: beta,
        cut: cut.clone(),
        cut_rhs,
    };
    // substitute slacks (s_r = b_r − Σ a_rk·x_k, Ge rows sign-flipped in
    // standard form) to land the cut in model-variable space
    let nv = model.num_vars();
    let mut coefs = vec![0.0; nv];
    let mut rhs = cut_rhs;
    for &(col, c) in &cut {
        if col < n_struct {
            coefs[col] += c;
        } else {
            let con = &model.cons[col - n_struct];
            let sign = if matches!(con.cmp, Cmp::Ge) { -1.0 } else { 1.0 };
            rhs -= c * sign * con.rhs;
            for &(v, coef) in &con.expr.terms {
                coefs[v.0] -= c * sign * coef;
            }
        }
    }
    let norm: f64 = coefs.iter().map(|c| c.abs()).sum::<f64>() + rhs.abs();
    if !norm.is_finite() {
        return None;
    }
    let safe_rhs = rhs - RHS_MARGIN * (1.0 + norm);
    let lhs: f64 = coefs.iter().zip(x.iter()).map(|(c, xv)| c * xv).sum();
    let violation = safe_rhs - lhs;
    if violation < GOMORY_MIN_VIOLATION {
        return None;
    }
    let con = Constraint {
        expr: LinExpr::sum(
            coefs
                .iter()
                .enumerate()
                .filter(|&(_, c)| *c != 0.0)
                .map(|(v, &c)| (Var(v), c)),
        ),
        cmp: Cmp::Ge,
        rhs: safe_rhs,
    };
    let key = cut_key(&con);
    Some(CutCandidate { con, proof, key, violation, gomory: true })
}


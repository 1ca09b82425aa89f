//! Cutting-plane separation: Gomory mixed-integer cuts and knapsack cover
//! cuts, with a bounded, deterministically ordered root cut pool.
//!
//! # What gets separated
//!
//! * **Gomory mixed-integer (GMI) cuts** are read off the optimal simplex
//!   tableau of the LP relaxation through [`TableauView`]: every basis row
//!   whose basic variable is an integer model variable with a fractional
//!   value yields the base equality `Σⱼ αⱼ xⱼ = β` (over structural *and*
//!   slack columns), which the GMI formula turns into a valid inequality
//!   that the current vertex violates by the fractional part `f₀`.
//! * **Cover cuts** come from `≤` rows whose terms are all positive over
//!   binary variables: a *cover* `C` with `Σ_{v∈C} a_v > rhs` proves that
//!   not all of `C` can be 1 at once — `Σ_{v∈C} x_v ≤ |C| − 1`. Covers are
//!   found greedily by descending LP value and trimmed to a minimal one.
//!
//! # Exactness contract
//!
//! Every coefficient of every emitted cut is derived in `i128` rational
//! arithmetic from the *recorded* f64 base row, then rounded **outward**
//! (coefficients up, right-hand side down) so the recorded
//! [`CutProof`] dominates the exact GMI inequality — the property
//! `certify::check_certificate` re-verifies. Anything that cannot be
//! represented or would overflow simply skips the cut: separation is an
//! optimization, never a soundness obligation.
//!
//! Gomory proofs live in the **standard-form column space**: variable
//! indices below the structural count are model variables, indices beyond
//! it denote the slack of that row. The applied model-space cut substitutes
//! each slack by its defining row (`s_r = b_r − Σ a_rk x_k`) and subtracts
//! a small safety margin from the right-hand side to absorb the f64
//! substitution rounding; the substitution itself is attested by the same
//! trust boundary as the LP bounds (see `docs/CERTIFY.md`).
//!
//! # The root pool
//!
//! [`separate_root`] runs up to [`CUT_ROUNDS`] rounds: separate, dedup
//! against every cut ever tried (bit-exact keys), rank by violation,
//! append up to the remaining [`MAX_CUTS`] budget, warm re-solve the LP
//! dual-simplex style from the extended basis, then age the pool — a cut slack at the re-solved vertex for
//! [`CUT_AGE_ROUNDS`] consecutive rounds is evicted (its slack column is
//! necessarily basic, so the basis survives the row deletion) and the LP is
//! re-solved once more. The loop is fully serial and runs before any worker
//! thread spawns, so the resulting pool is bitwise identical at any thread
//! count.

use std::collections::BTreeSet;
use std::ops::Range;

use insitu_types::{CutProof, GomoryVar};

use crate::error::SolveError;
use crate::expr::{LinExpr, Var};
use crate::model::{Cmp, Constraint, Model, VarKind};
use crate::options::SolveOptions;
use crate::revised::TableauView;
use crate::simplex::{solve_lowered, LpPoint};
use crate::solution::Solution;
use crate::standard::{ColMap, StandardForm};

/// Keep only base-row coefficients above this magnitude; smaller entries
/// are BTRAN noise and recording them would poison the exact derivation.
const COEF_EPS: f64 = 1e-11;
/// Gomory rows are only used when the basic value's fractional part lies
/// in `[GOMORY_MIN_FRAC, 1 − GOMORY_MIN_FRAC]` — near-integral rows give
/// shallow, numerically fragile cuts.
const GOMORY_MIN_FRAC: f64 = 0.01;
/// Minimum violation of the *applied* model-space Gomory cut at the
/// current vertex (after outward rounding and the safety margin).
const GOMORY_MIN_VIOLATION: f64 = 1e-3;
/// Minimum violation `Σ_{v∈C} x*_v − (|C| − 1)` for a cover cut.
const COVER_MIN_VIOLATION: f64 = 0.01;
/// Skip Gomory base rows wider than this: the proof is recorded verbatim
/// in the certificate and very dense rows bloat it without helping.
const MAX_BASE_NNZ: usize = 512;
/// Relative safety margin subtracted from an applied Gomory cut's rhs to
/// absorb f64 rounding in the slack substitution (weakens, never
/// invalidates).
const RHS_MARGIN: f64 = 1e-7;
/// A pool cut slack (beyond feasibility noise) at this many consecutive
/// re-solved vertices is evicted.
const CUT_AGE_ROUNDS: u8 = 2;
/// Bound-improvement stall threshold (relative) that ends the root loop.
const STALL_TOL: f64 = 1e-9;
/// Maximum root separation rounds; separation stops early when a round
/// adds no cut or the bound stalls.
pub(crate) const CUT_ROUNDS: usize = 8;
/// Hard cap on the root pool. A round that over-generates keeps its
/// most-violated cuts.
const MAX_CUTS: usize = 64;

// ---------------------------------------------------------------------------
// exact rational arithmetic (separator-local; the checker in `certify` has
// its own independent implementation — solver and auditor must not share)
// ---------------------------------------------------------------------------

/// A reduced `i128` rational. Every operation is checked: `None` means
/// "would overflow", and callers respond by skipping the cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct R {
    /// Numerator (carries the sign).
    n: i128,
    /// Denominator, always positive.
    d: i128,
}

/// `gcd(|a|, |b|)`, at least 1. Unsigned: `|i128::MIN|` has no `i128`.
/// Binary (shift-and-subtract): nearly every operand pair here has a power
/// of two on one side — f64s are dyadic — where a 128-bit `%` per step is
/// the expensive way to count trailing zeros.
fn gcd(a: i128, b: i128) -> u128 {
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
fn gcd_i(a: i128, b: i128) -> Option<i128> {
    i128::try_from(gcd(a, b)).ok()
}

/// [`R::from_f64`] refuses numerators at or beyond this magnitude — inside
/// `i128` (`2¹²⁷ ≈ 1.7e38`) with a little room to spare.
const FROM_F64_LIMIT: u128 = 1.5e38_f64 as u128;

impl R {
    const ZERO: R = R { n: 0, d: 1 };
    const ONE: R = R { n: 1, d: 1 };

    /// `n / d` in lowest terms with a positive denominator; `None` when
    /// `d` is zero or a reduced magnitude does not fit `i128` (a `2¹²⁷`
    /// that came in as `i128::MIN`).
    fn make(n: i128, d: i128) -> Option<R> {
        if d == 0 {
            return None;
        }
        let g = gcd(n, d);
        let num = i128::try_from(n.unsigned_abs() / g).ok()?;
        let den = i128::try_from(d.unsigned_abs() / g).ok()?;
        Some(R { n: if (n < 0) != (d < 0) { -num } else { num }, d: den })
    }

    /// Exact conversion: every finite f64 is the dyadic rational
    /// `±mantissa · 2^exponent`, read off the bits. `None` when the
    /// denominator would pass `2¹²⁶` or the numerator reach
    /// [`FROM_F64_LIMIT`].
    fn from_f64(x: f64) -> Option<R> {
        if !x.is_finite() {
            return None;
        }
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        // value = mant · 2^exp (subnormals have no implicit leading one)
        let (mant, exp) = if biased == 0 { (frac, -1074) } else { (frac | (1 << 52), biased - 1075) };
        if mant == 0 {
            return Some(R::ZERO);
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
        Some(R { n: if x < 0.0 { -num } else { num }, d: den })
    }

    fn is_zero(&self) -> bool {
        self.n == 0
    }

    fn add(&self, o: &R) -> Option<R> {
        let g = gcd_i(self.d, o.d)?;
        let (da, db) = (self.d / g, o.d / g);
        let n = self.n.checked_mul(db)?.checked_add(o.n.checked_mul(da)?)?;
        R::make(n, self.d.checked_mul(db)?)
    }

    fn sub(&self, o: &R) -> Option<R> {
        self.add(&R { n: o.n.checked_neg()?, d: o.d })
    }

    fn mul(&self, o: &R) -> Option<R> {
        // cross-reduce before multiplying to delay overflow
        let g1 = gcd_i(self.n, o.d)?;
        let g2 = gcd_i(o.n, self.d)?;
        let n = (self.n / g1).checked_mul(o.n / g2)?;
        let d = (self.d / g2).checked_mul(o.d / g1)?;
        R::make(n, d)
    }

    fn div(&self, o: &R) -> Option<R> {
        if o.n == 0 {
            return None;
        }
        self.mul(&R::make(o.d, o.n)?)
    }

    fn neg(&self) -> Option<R> {
        Some(R { n: self.n.checked_neg()?, d: self.d })
    }

    /// `⌊self⌋` as a rational.
    fn floor(&self) -> R {
        R { n: self.n.div_euclid(self.d), d: 1 }
    }

    /// Fractional part in `[0, 1)`.
    fn frac(&self) -> Option<R> {
        self.sub(&self.floor())
    }

    /// Exact comparison; `None` on overflow of the cross products.
    fn cmp(&self, o: &R) -> Option<std::cmp::Ordering> {
        let g1 = gcd_i(self.n, o.n)?;
        let g2 = gcd_i(self.d, o.d)?;
        let a = (self.n / g1).checked_mul(o.d / g2)?;
        let b = (o.n / g1).checked_mul(self.d / g2)?;
        // dividing both numerators by g1 can flip both signs when g1 "sees"
        // negative values — it cannot: gcd() returns a positive value.
        Some(a.cmp(&b))
    }

    fn le(&self, o: &R) -> Option<bool> {
        Some(self.cmp(o)? != std::cmp::Ordering::Greater)
    }

    fn min(&self, o: &R) -> Option<R> {
        Some(if self.le(o)? { *self } else { *o })
    }

    fn to_f64(self) -> f64 {
        self.n as f64 / self.d as f64
    }
}

/// Smallest f64 `≥ x` reachable within a few ulps of the rounded quotient
/// (outward rounding for cut coefficients).
fn f64_at_least(x: &R) -> Option<f64> {
    let mut f = x.to_f64();
    if !f.is_finite() {
        return None;
    }
    // to_f64 is within a few ulps of exact; walk up until provably >= x
    for _ in 0..8 {
        if x.le(&R::from_f64(f)?)? {
            return Some(f);
        }
        f = next_up(f);
    }
    None
}

/// Largest f64 `≤ x` (outward rounding for cut right-hand sides).
fn f64_at_most(x: &R) -> Option<f64> {
    Some(-f64_at_least(&x.neg()?)?)
}

/// `f64::next_up` (open-coded: stable since 1.86, but spelled out so the
/// bit manipulation is auditable next to the proofs that depend on it).
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    if x == 0.0 {
        return f64::from_bits(1);
    }
    f64::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
}

// ---------------------------------------------------------------------------
// candidates, keys, the pool
// ---------------------------------------------------------------------------

/// Bit-exact identity of a cut row in model space: comparison direction,
/// sorted `(var, coeff-bits)` terms, and rhs bits. Used for dedup across
/// separation rounds.
type CutKey = (bool, Vec<(usize, u64)>, u64);

fn cut_key(con: &Constraint) -> CutKey {
    let mut terms: Vec<(usize, u64)> = con
        .expr
        .terms
        .iter()
        .map(|&(v, c)| (v.0, c.to_bits()))
        .collect();
    terms.sort_unstable();
    (matches!(con.cmp, Cmp::Ge), terms, con.rhs.to_bits())
}

/// One separated cut: the model-space row to append, its validity proof,
/// and ranking metadata.
#[derive(Debug, Clone)]
struct CutCandidate {
    /// Model-space inequality to append.
    con: Constraint,
    /// Exact-arithmetic validity certificate.
    proof: CutProof,
    /// Dedup identity.
    key: CutKey,
    /// Violation at the LP vertex the cut was separated from.
    violation: f64,
    /// True for Gomory cuts (cover otherwise).
    gomory: bool,
}

/// A pool member with its activity-aging counter.
struct ActiveCut {
    proof: CutProof,
    idle: u8,
}

/// Everything [`separate_root`] hands back to the search: the augmented
/// (frozen) model and its lowering, the re-solved root optimum over it, the
/// surviving cut proofs, and separation counters. `relax.iterations` and
/// `point.telemetry` are *cumulative* over the incoming root solve plus
/// every separation re-solve, so the caller seeds its counters exactly as
/// it would from a cut-free root.
pub(crate) struct RootCuts {
    /// Base model plus the surviving pool rows (appended after
    /// `base_rows`).
    pub(crate) model: Model,
    /// `model` in standard form — the one lowering every tree LP edits.
    pub(crate) sf: StandardForm,
    /// Optimum of `model`'s LP relaxation.
    pub(crate) relax: Solution,
    /// Basis/telemetry snapshot matching `relax`.
    pub(crate) point: LpPoint,
    /// Validity proofs of the surviving pool cuts, in row order.
    pub(crate) proofs: Vec<CutProof>,
    /// Gomory candidates generated across all rounds (pre-selection).
    pub(crate) gomory_generated: usize,
    /// Cover candidates generated across all rounds (pre-selection).
    pub(crate) cover_generated: usize,
    /// Pool cuts evicted by aging.
    pub(crate) aged_out: usize,
}

// ---------------------------------------------------------------------------
// cover separation
// ---------------------------------------------------------------------------

/// Separates violated cover cuts from `model.cons[rows]` at `values`.
/// Only `≤` rows with all-positive coefficients over binary variables
/// qualify. Deterministic: rows scanned in order, members sorted.
fn cover_cuts_into(
    model: &Model,
    rows: Range<usize>,
    values: &[f64],
    out: &mut Vec<CutCandidate>,
) {
    'rows: for ri in rows {
        let con = &model.cons[ri];
        if !matches!(con.cmp, Cmp::Le) || con.expr.terms.is_empty() {
            continue;
        }
        let Some(rhs) = R::from_f64(con.rhs) else { continue };
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(con.expr.terms.len());
        for &(v, c) in &con.expr.terms {
            let var = &model.vars[v.0];
            if c <= 0.0
                || var.kind != VarKind::Integer
                || var.lower != 0.0
                || var.upper != 1.0
            {
                continue 'rows;
            }
            terms.push((v.0, c));
        }
        // greedy: largest LP value first (ties to the lowest index)
        let mut order: Vec<usize> = (0..terms.len()).collect();
        order.sort_by(|&a, &b| {
            values[terms[b].0]
                .total_cmp(&values[terms[a].0])
                .then_with(|| terms[a].0.cmp(&terms[b].0))
        });
        let mut cover: Vec<usize> = Vec::new();
        let mut sum = R::ZERO;
        let mut covered = false;
        for &k in &order {
            let Some(a) = R::from_f64(terms[k].1) else { continue 'rows };
            let Some(s) = sum.add(&a) else { continue 'rows };
            sum = s;
            cover.push(k);
            if rhs.le(&sum) == Some(true) && sum != rhs {
                covered = true;
                break;
            }
        }
        if !covered {
            continue;
        }
        // trim to a minimal cover from the tail: dropping the smallest-value
        // member never decreases the violation while the weight still
        // exceeds the capacity
        while cover.len() > 1 {
            let last = *cover.last().expect("non-empty cover");
            let Some(a) = R::from_f64(terms[last].1) else { continue 'rows };
            let Some(rest) = sum.sub(&a) else { continue 'rows };
            if rhs.le(&rest) == Some(true) && rest != rhs {
                sum = rest;
                cover.pop();
            } else {
                break;
            }
        }
        let lhs: f64 = cover.iter().map(|&k| values[terms[k].0]).sum();
        let violation = lhs - (cover.len() as f64 - 1.0);
        if violation < COVER_MIN_VIOLATION {
            continue;
        }
        let mut members: Vec<usize> = cover.iter().map(|&k| terms[k].0).collect();
        members.sort_unstable();
        let mut row: Vec<(usize, f64)> = terms.clone();
        row.sort_unstable_by_key(|&(v, _)| v);
        let expr = LinExpr::sum(members.iter().map(|&v| (Var(v), 1.0)));
        let con = Constraint {
            expr,
            cmp: Cmp::Le,
            rhs: members.len() as f64 - 1.0,
        };
        let key = cut_key(&con);
        out.push(CutCandidate {
            con,
            proof: CutProof::Cover {
                row,
                rhs: rhs.to_f64(),
                members,
            },
            key,
            violation,
            gomory: false,
        });
    }
}

// ---------------------------------------------------------------------------
// Gomory separation
// ---------------------------------------------------------------------------

/// Separates GMI cuts from the optimal tableau of `point.basis` over
/// `sf`, the lowering of `model`. Requires every model variable to map to
/// a single structural column ([`ColMap::Direct`], true for
/// finite-lower-bound models); otherwise quietly separates nothing.
fn gomory_cuts_into(
    model: &Model,
    sf: &StandardForm,
    point: &LpPoint,
    out: &mut Vec<CutCandidate>,
) {
    if !sf.var_map.iter().all(|m| matches!(m, ColMap::Direct(_))) {
        return;
    }
    let Some(mut view) = TableauView::new(sf, &point.basis) else { return };
    let n_struct = sf.n_struct;
    let integral: Vec<bool> = model
        .vars
        .iter()
        .map(|v| v.kind == VarKind::Integer)
        .collect();
    let mut alpha: Vec<f64> = Vec::new();
    for r in 0..view.nrows() {
        let j0 = view.basic_col(r);
        if j0 >= n_struct || !integral[j0] {
            continue;
        }
        let xb = view.basic_value(r);
        let f = xb - xb.floor();
        if !(GOMORY_MIN_FRAC..=1.0 - GOMORY_MIN_FRAC).contains(&f) {
            continue;
        }
        let beta = view.row(r, &mut alpha);
        if let Some(cand) =
            derive_gomory(model, sf, &view, &alpha, beta, &integral, &point.x)
        {
            out.push(cand);
        }
    }
}

/// Turns one recorded tableau row `Σ αⱼ xⱼ = β` into a proven GMI cut.
/// All arithmetic after recording is exact; returns `None` whenever the
/// row is unusable (dense, overflowing, shallow, or infinite-bound).
#[allow(clippy::too_many_arguments)]
fn derive_gomory(
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
        exact: (R, R),
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
        let exact = (R::from_f64(a)?, R::from_f64(bound)?);
        base.push(BaseVar { col, coeff: a, bound, exact, at_upper, int_shift });
    }
    if base.is_empty() {
        return None;
    }
    // b' = β − Σ αⱼ·boundⱼ ;  f₀ = frac(b')
    let mut bp = R::from_f64(beta)?;
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
    let ratio = f0.div(&R::ONE.sub(&f0)?)?;
    // per-variable GMI coefficient in shifted space, rounded outward into
    // the original space; the rhs is f₀ back-shifted by the recorded
    // coefficients, rounded down
    let mut cut: Vec<(usize, f64)> = Vec::new();
    let mut target = f0;
    for v in &base {
        let d = if v.at_upper { v.exact.0.neg()? } else { v.exact.0 };
        let g = if v.int_shift {
            let fj = d.frac()?;
            fj.min(&ratio.mul(&R::ONE.sub(&fj)?)?)?
        } else if R::ZERO.le(&d)? {
            d
        } else {
            ratio.mul(&d.neg()?)?
        };
        let mag = f64_at_least(&g)?;
        let c = if v.at_upper { -mag } else { mag };
        if c != 0.0 {
            cut.push((v.col, c));
            target = target.add(&R::from_f64(c)?.mul(&v.exact.1)?)?;
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

// ---------------------------------------------------------------------------
// the root loop
// ---------------------------------------------------------------------------

/// Runs root-node separation rounds over `base` (lowered as `sf`, with LP
/// optimum `relax`/`point`), returning the augmented model, its lowering,
/// its re-solved LP optimum, and the surviving pool (see [`RootCuts`]).
/// Fully serial and deterministic; the caller freezes the returned model
/// for the whole tree. The model is lowered again only when its row set
/// changes — a round's append, an aging eviction — and that one form
/// serves both the warm re-solve and the next round's Gomory separation.
pub(crate) fn separate_root(
    base: &Model,
    mut sf: StandardForm,
    opts: &SolveOptions,
    relax: Solution,
    point: LpPoint,
) -> Result<RootCuts, SolveError> {
    let base_rows = base.cons.len();
    let mut model = base.clone();
    let mut relax = relax;
    let mut point = point;
    let mut active: Vec<ActiveCut> = Vec::new();
    let mut seen: BTreeSet<CutKey> = BTreeSet::new();
    let (mut gomory_generated, mut cover_generated) = (0usize, 0usize);
    let mut aged_out = 0usize;
    let mut total_pivots = relax.iterations;
    let mut total_tele = point.telemetry;

    for _round in 0..CUT_ROUNDS {
        let budget = MAX_CUTS.saturating_sub(active.len());
        if budget == 0 {
            break;
        }
        let mut cands: Vec<CutCandidate> = Vec::new();
        cover_cuts_into(&model, 0..base_rows, &relax.values, &mut cands);
        gomory_cuts_into(&model, &sf, &point, &mut cands);
        for c in &cands {
            if c.gomory {
                gomory_generated += 1;
            } else {
                cover_generated += 1;
            }
        }
        cands.retain(|c| !seen.contains(&c.key));
        cands.sort_by(|a, b| a.key.cmp(&b.key));
        cands.dedup_by(|a, b| a.key == b.key);
        cands.sort_by(|a, b| {
            b.violation.total_cmp(&a.violation).then_with(|| a.key.cmp(&b.key))
        });
        cands.truncate(budget);
        if cands.is_empty() {
            break;
        }
        // append the round's cuts and warm re-solve from the extended
        // basis: each new row's slack column enters basic at its row
        let prev_obj = relax.objective;
        let ncols_old = point.basis.at_upper.len();
        let mut hint = point.basis.clone();
        for (i, cand) in cands.into_iter().enumerate() {
            hint.basic.push(ncols_old + i);
            hint.at_upper.push(false);
            seen.insert(cand.key);
            active.push(ActiveCut { proof: cand.proof, idle: 0 });
            model.cons.push(cand.con);
        }
        sf = StandardForm::from_model(&model)?;
        let (r2, p2) = solve_lowered(&sf, opts, Some(&hint))?;
        total_pivots += r2.iterations;
        total_tele.absorb(&p2.telemetry);
        relax = r2;
        point = p2;
        let stalled =
            (relax.objective - prev_obj).abs() <= STALL_TOL * (1.0 + prev_obj.abs());

        // aging: a cut slack at the re-solved vertex for CUT_AGE_ROUNDS
        // consecutive rounds leaves the pool
        for (i, a) in active.iter_mut().enumerate() {
            let con = &model.cons[base_rows + i];
            let lhs = con.expr.eval(&relax.values);
            let slack = match con.cmp {
                Cmp::Le => con.rhs - lhs,
                Cmp::Ge => lhs - con.rhs,
                Cmp::Eq => 0.0,
            };
            if slack > 1e-7 * (1.0 + con.rhs.abs()) {
                a.idle += 1;
            } else {
                a.idle = 0;
            }
        }
        let evict: Vec<usize> = active
            .iter()
            .enumerate()
            .filter(|(_, a)| a.idle >= CUT_AGE_ROUNDS)
            .map(|(i, _)| i)
            .collect();
        if !evict.is_empty() {
            let m_now = model.cons.len();
            let ncols_now = point.basis.at_upper.len();
            let n_struct = ncols_now - m_now;
            let removed_rows: BTreeSet<usize> =
                evict.iter().map(|&i| base_rows + i).collect();
            let removed_cols: BTreeSet<usize> =
                removed_rows.iter().map(|&r| n_struct + r).collect();
            // an optimal basis keeps every positive-slack column basic, so
            // deleting those rows+columns leaves a square basis; anything
            // else would mean the snapshot is stale — keep the cuts then
            if removed_cols.iter().all(|j| point.basis.basic.contains(j)) {
                let remap = |j: usize| {
                    if j < n_struct {
                        j
                    } else {
                        let r = j - n_struct;
                        n_struct + r - removed_rows.range(..r).count()
                    }
                };
                let mut hint = crate::simplex::Basis {
                    basic: point
                        .basis
                        .basic
                        .iter()
                        .filter(|j| !removed_cols.contains(j))
                        .map(|&j| remap(j))
                        .collect(),
                    at_upper: point
                        .basis
                        .at_upper
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| !removed_cols.contains(j))
                        .map(|(_, &u)| u)
                        .collect(),
                };
                hint.basic.sort_unstable();
                let mut kept_cons = Vec::with_capacity(m_now - removed_rows.len());
                for (r, con) in model.cons.drain(..).enumerate() {
                    if !removed_rows.contains(&r) {
                        kept_cons.push(con);
                    }
                }
                model.cons = kept_cons;
                for &i in evict.iter().rev() {
                    active.remove(i);
                }
                aged_out += evict.len();
                sf = StandardForm::from_model(&model)?;
                let (r3, p3) = solve_lowered(&sf, opts, Some(&hint))?;
                total_pivots += r3.iterations;
                total_tele.absorb(&p3.telemetry);
                relax = r3;
                point = p3;
            }
        }
        if stalled {
            break;
        }
    }

    relax.iterations = total_pivots;
    point.telemetry = total_tele;
    Ok(RootCuts {
        proofs: active.into_iter().map(|a| a.proof).collect(),
        model,
        sf,
        relax,
        point,
        gomory_generated,
        cover_generated,
        aged_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn r(x: f64) -> R {
        R::from_f64(x).expect("representable")
    }

    #[test]
    fn rational_round_trip_and_ops() {
        assert_eq!(r(0.5), R { n: 1, d: 2 });
        assert_eq!(r(-2.25).frac().unwrap(), R { n: 3, d: 4 });
        assert_eq!(r(1.5).add(&r(0.25)).unwrap(), r(1.75));
        assert_eq!(r(1.0).div(&r(3.0)).unwrap(), R { n: 1, d: 3 });
        assert_eq!(r(7.0).floor(), r(7.0));
        assert!(r(0.1).to_f64() - 0.1 == 0.0); // exact dyadic of the f64 0.1
        assert!(R::from_f64(f64::NAN).is_none());
    }

    /// The conversion `from_f64` replaced: double until integral, then
    /// reduce. Kept here as the oracle for the bit decoder.
    fn from_f64_by_doubling(x: f64) -> Option<R> {
        if !x.is_finite() {
            return None;
        }
        let (mut num, mut den) = (x, 1i128);
        while num != num.trunc() {
            num *= 2.0;
            den = den.checked_mul(2)?;
        }
        if num.abs() >= 1.5e38 {
            return None;
        }
        R::make(num as i128, den)
    }

    #[test]
    fn from_f64_decodes_bits_like_the_doubling_loop() {
        let mut xs = vec![
            0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 2.5, 1e-7, 1e-11, 7.0e15, 9.0e15, 1e22, -1e30,
            2f64.powi(100), 2f64.powi(126), 2f64.powi(127), 1.4999e38, 1.5e38, -1.5e38, 1.6e38,
            3e38, f64::MAX, f64::MIN_POSITIVE, 5e-324, 2f64.powi(-126), 2f64.powi(-127),
            3.0 * 2f64.powi(-126), 3.0 * 2f64.powi(-128), (1u64 << 53) as f64 - 1.0,
        ];
        // a deterministic sweep over magnitudes and mantissa patterns
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mant = (state >> 11) as f64 / (1u64 << 53) as f64 + 0.5;
            xs.push(mant * 2f64.powi((state % 300) as i32 - 150));
            xs.push(-((state % 1000) as f64) / 64.0);
        }
        for x in xs {
            assert_eq!(R::from_f64(x), from_f64_by_doubling(x), "x = {x:e}");
        }
        assert!(R::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn binary_gcd_agrees_with_euclid() {
        fn euclid(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a.max(1)
        }
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..4000 {
            // mixed widths, shared odd factors and shared powers of two
            let wide = |n: &mut dyn FnMut() -> u64| ((n() as i128) << 64 | n() as i128) >> (n() % 120);
            let common = (next() % 1000 + 1) as i128;
            let (a, b) = match i % 4 {
                0 => (wide(&mut next), wide(&mut next)),
                1 => (wide(&mut next), 1i128 << (next() % 127)),
                2 => ((next() % 100_000) as i128 * common, (next() % 100_000) as i128 * common),
                _ => (-(wide(&mut next).abs()), (next() as i128) << (next() % 60)),
            };
            assert_eq!(gcd(a, b), euclid(a.unsigned_abs(), b.unsigned_abs()), "gcd({a}, {b})");
        }
    }

    #[test]
    fn i128_min_never_panics_or_wraps() {
        let min = i128::MIN;
        // |MIN| = 2¹²⁷ is a u128, not an i128
        assert_eq!(gcd(min, min), 1u128 << 127);
        assert_eq!(gcd(min, 0), 1u128 << 127);
        assert_eq!(gcd(min, 6), 2);
        assert_eq!(gcd(0, 0), 1);
        assert_eq!(gcd_i(min, min), None);
        // reduced values that fit are kept, with the sign on the numerator...
        assert_eq!(R::make(min, 2), Some(R { n: -(1i128 << 126), d: 1 }));
        assert_eq!(R::make(min, -4), Some(R { n: 1i128 << 125, d: 1 }));
        assert_eq!(R::make(min, min), Some(R::ONE));
        // ...and ones that do not are refused instead of wrapping
        assert_eq!(R::make(min, 1), None);
        assert_eq!(R::make(min, -1), None);
        assert_eq!(R::make(min, 3), None);
        assert_eq!(R::make(1, min), None);
        // a value sitting exactly on MIN flows through every operation as
        // `None` (the cut is skipped) or a correct result
        let edge = R { n: min, d: 1 };
        assert_eq!(edge.neg(), None);
        assert_eq!(edge.add(&R::ONE), Some(R { n: min + 1, d: 1 }));
        assert_eq!(edge.sub(&R::ONE), None);
        assert_eq!(edge.mul(&R { n: 1, d: 2 }), Some(R { n: -(1i128 << 126), d: 1 }));
        assert_eq!(edge.mul(&R::ONE), None);
        assert_eq!(edge.cmp(&edge), None);
        assert_eq!(edge.le(&R::ZERO), None);
        assert_eq!(edge.floor(), edge);
        assert_eq!(edge.frac(), None);
    }

    #[test]
    fn directed_rounding_brackets_exact_value() {
        // 1/3 is not a dyadic rational: at_least must round up, at_most down
        let third = R { n: 1, d: 3 };
        let up = f64_at_least(&third).unwrap();
        let down = f64_at_most(&third).unwrap();
        assert!(third.le(&R::from_f64(up).unwrap()).unwrap());
        assert!(R::from_f64(down).unwrap().le(&third).unwrap());
        assert!(down < up, "1/3 is not dyadic, so the bracket is strict");
        // exactly representable values pass through unchanged
        assert_eq!(f64_at_least(&r(0.75)).unwrap(), 0.75);
        assert_eq!(f64_at_most(&r(0.75)).unwrap(), 0.75);
    }

    fn knapsack() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.binary("x");
        let y = m.binary("y");
        let z = m.binary("z");
        m.add_con(
            LinExpr::new().term(x, 3.0).term(y, 2.0).term(z, 2.0),
            Cmp::Le,
            4.0,
        );
        m.set_objective(LinExpr::new().term(x, 3.0).term(y, 2.0).term(z, 1.5));
        m
    }

    #[test]
    fn cover_separation_finds_minimal_violated_cover() {
        let m = knapsack();
        let mut out = Vec::new();
        cover_cuts_into(&m, 0..1, &[1.0, 0.9, 0.1], &mut out);
        assert_eq!(out.len(), 1);
        let c = &out[0];
        assert!(!c.gomory);
        // greedy picks x then y (3 + 2 > 4), already minimal
        match &c.proof {
            CutProof::Cover { members, rhs, .. } => {
                assert_eq!(members, &vec![0, 1]);
                assert_eq!(*rhs, 4.0);
            }
            _ => panic!("expected a cover proof"),
        }
        assert_eq!(c.con.rhs, 1.0);
        assert!((c.violation - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cover_separation_skips_satisfied_rows_and_non_binary() {
        let m = knapsack();
        let mut out = Vec::new();
        // integral point: no violated cover exists
        cover_cuts_into(&m, 0..1, &[1.0, 0.0, 0.0], &mut out);
        assert!(out.is_empty());
        // non-binary variable disqualifies the row
        let mut m2 = Model::new(Sense::Maximize);
        let x = m2.int_var("x", 0.0, 2.0);
        let y = m2.binary("y");
        m2.add_con(LinExpr::new().term(x, 3.0).term(y, 2.0), Cmp::Le, 4.0);
        cover_cuts_into(&m2, 0..1, &[0.9, 0.9], &mut out);
        assert!(out.is_empty());
    }

    /// Brute-force check: every integer-feasible point of the model
    /// satisfies every cut row appended beyond `base_rows`.
    fn assert_cuts_valid(model: &Model, base_rows: usize) {
        let n = model.num_vars();
        assert!(n <= 16, "brute force only for tiny models");
        let bounds: Vec<(i64, i64)> = model
            .vars
            .iter()
            .map(|v| (v.lower.ceil() as i64, v.upper.floor() as i64))
            .collect();
        let mut point = vec![0.0; n];
        let mut idx = vec![0i64; n];
        for (i, &(lo, _)) in bounds.iter().enumerate() {
            idx[i] = lo;
        }
        'all: loop {
            for i in 0..n {
                point[i] = idx[i] as f64;
            }
            let feasible = model.cons[..base_rows].iter().all(|c| {
                let lhs = c.expr.eval(&point);
                match c.cmp {
                    Cmp::Le => lhs <= c.rhs + 1e-9,
                    Cmp::Ge => lhs >= c.rhs - 1e-9,
                    Cmp::Eq => (lhs - c.rhs).abs() <= 1e-9,
                }
            });
            if feasible {
                for c in &model.cons[base_rows..] {
                    let lhs = c.expr.eval(&point);
                    let ok = match c.cmp {
                        Cmp::Le => lhs <= c.rhs + 1e-9,
                        Cmp::Ge => lhs >= c.rhs - 1e-9,
                        Cmp::Eq => (lhs - c.rhs).abs() <= 1e-9,
                    };
                    assert!(ok, "cut {c:?} cuts off integer point {point:?}");
                }
            }
            // odometer
            for i in 0..n {
                idx[i] += 1;
                if idx[i] <= bounds[i].1 {
                    continue 'all;
                }
                idx[i] = bounds[i].0;
            }
            break;
        }
    }

    /// A 2-var model whose LP optimum is fractional: max x+y st
    /// 2x + 2y <= 5 → LP vertex hits 2.5, integer optimum 2.
    fn fractional_pair() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        m.add_con(LinExpr::new().term(x, 2.0).term(y, 2.0), Cmp::Le, 5.0);
        m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
        m
    }

    #[test]
    fn gomory_cut_is_violated_by_vertex_and_valid_for_integers() {
        let m = fractional_pair();
        let opts = SolveOptions::default();
        let sf = StandardForm::from_model(&m).unwrap();
        let (relax, point) = solve_lowered(&sf, &opts, None).unwrap();
        assert!((relax.objective - 2.5).abs() < 1e-6);
        let mut out = Vec::new();
        gomory_cuts_into(&m, &sf, &point, &mut out);
        assert!(!out.is_empty(), "fractional basic integer row must separate");
        let mut cut_model = m.clone();
        for c in &out {
            // violated at the LP vertex
            let lhs = c.con.expr.eval(&relax.values);
            assert!(lhs < c.con.rhs - 1e-4, "cut not violated at vertex");
            assert!(c.gomory);
            cut_model.cons.push(c.con.clone());
        }
        assert_cuts_valid(&cut_model, m.cons.len());
    }

    #[test]
    fn separate_root_tightens_bound_and_is_deterministic() {
        let m = fractional_pair();
        let opts = SolveOptions::default();
        let run = || {
            let sf = StandardForm::from_model(&m).unwrap();
            let (relax, point) = solve_lowered(&sf, &opts, None).unwrap();
            separate_root(&m, sf, &opts, relax, point).unwrap()
        };
        let a = run();
        // the GMI cut from x+y = 2.5 closes the gap to the integer hull
        assert!(a.relax.objective <= 2.5 - 1e-4, "bound must tighten");
        assert!(!a.proofs.is_empty() && a.proofs.len() <= MAX_CUTS);
        assert_eq!(a.model.cons.len(), m.cons.len() + a.proofs.len());
        assert_cuts_valid(&a.model, m.cons.len());
        let b = run();
        assert_eq!(a.proofs, b.proofs, "root pool must be bitwise reproducible");
        assert_eq!(a.relax.objective.to_bits(), b.relax.objective.to_bits());
    }
}

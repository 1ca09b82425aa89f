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
//! Every coefficient of every emitted cut is derived exactly from the
//! *recorded* f64 base row, then rounded **outward** (coefficients up,
//! right-hand side down) so the recorded [`CutProof`] dominates the exact
//! GMI inequality — the property `certify::check_certificate` re-verifies.
//! Anything that cannot be represented or would overflow simply skips the
//! cut: separation is an optimization, never a soundness obligation.
//!
//! The arithmetic is dyadic (`R`, a numerator over a power of two): an f64
//! is one, and so is every sum, product and fractional part of the base
//! row, so aligning is a shift and reducing a `trailing_zeros`. The single
//! non-dyadic quantity of the GMI formula, `f₀/(1−f₀)`, is the quotient of
//! two odd numerators `p/q` and is never formed: `min(fⱼ, p/q·(1−fⱼ))` is
//! decided by `fⱼ ≤ f₀`, and `p/q·t ≤ h` by `p·t ≤ q·h` in 256-bit products
//! (`RatioTimes`). What is left of the general fraction this replaced is
//! its window — a row is used exactly where that fraction's lowest terms fit
//! `i128`, so the pool is the same, cut for cut — and one odd gcd per
//! ratio-scaled coefficient, because the outward rounding starts from the
//! quotient of the *reduced* numerator and denominator, each rounded on its
//! own, and emits that estimate whenever it already lies above the exact
//! value (starting from the unreduced pair moves ≈2 % of cuts by an ulp).
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
// exact dyadic arithmetic (separator-local; the checker in `certify` has its
// own independent implementation — solver and auditor must not share)
// ---------------------------------------------------------------------------

/// An exact dyadic rational `n / 2^k` in lowest terms (`n` odd whenever
/// `k > 0`, `k <= 126`, `n != i128::MIN`) — which is what an f64 is, and
/// every sum, product and fractional part of f64s. Aligning is a shift and
/// reducing a `trailing_zeros`: no gcd, no 128-bit division. Every operation
/// is checked: `None` means "would overflow", and callers respond by
/// skipping the cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct R {
    /// Numerator (carries the sign).
    n: i128,
    /// Binary logarithm of the denominator.
    k: u32,
}

/// [`R::from_f64`] refuses numerators at or beyond this magnitude — inside
/// `i128` (`2¹²⁷ ≈ 1.7e38`) with a little room to spare.
const FROM_F64_LIMIT: u128 = 1.5e38_f64 as u128;

/// `n · 2^s` for `s < 128`, `None` when that leaves `i128`.
fn shl(n: i128, s: u32) -> Option<i128> {
    let r = n << s;
    (r >> s == n).then_some(r)
}

impl R {
    const ZERO: R = R { n: 0, k: 0 };
    const ONE: R = R { n: 1, k: 0 };

    /// `n / 2^k` in lowest terms; `None` for the one magnitude (`2¹²⁷`,
    /// arriving as `i128::MIN`) whose negation has no `i128`.
    fn make(n: i128, k: u32) -> Option<R> {
        if n == 0 {
            return Some(R::ZERO);
        }
        let t = n.trailing_zeros().min(k);
        let n = n >> t;
        (n != i128::MIN).then_some(R { n, k: k - t })
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
        let (num, k) = if exp >= 0 {
            // a shift that would push a set bit out is beyond the limit too
            if exp as u32 >= mant.leading_zeros() || mant << exp >= FROM_F64_LIMIT {
                return None;
            }
            ((mant << exp) as i128, 0)
        } else {
            if exp < -126 {
                return None;
            }
            (mant as i128, -exp as u32)
        };
        Some(R { n: if x < 0.0 { -num } else { num }, k })
    }

    fn is_zero(&self) -> bool {
        self.n == 0
    }

    fn add(&self, o: &R) -> Option<R> {
        let k = self.k.max(o.k);
        R::make(shl(self.n, k - self.k)?.checked_add(shl(o.n, k - o.k)?)?, k)
    }

    fn sub(&self, o: &R) -> Option<R> {
        self.add(&o.neg()?)
    }

    fn mul(&self, o: &R) -> Option<R> {
        if self.n == 0 || o.n == 0 {
            return Some(R::ZERO);
        }
        // cancel an even (hence integer) factor against the other side's
        // denominator first: what overflows then is the reduced result
        let s1 = self.n.trailing_zeros().min(o.k);
        let s2 = o.n.trailing_zeros().min(self.k);
        let k = (self.k - s2) + (o.k - s1);
        if k > 126 {
            return None;
        }
        R::make((self.n >> s1).checked_mul(o.n >> s2)?, k)
    }

    fn neg(&self) -> Option<R> {
        Some(R { n: self.n.checked_neg()?, k: self.k })
    }

    /// Fractional part `self − ⌊self⌋` in `[0, 1)`: the low `k` bits of the
    /// two's-complement numerator, odd (so already reduced) whenever `k > 0`.
    fn frac(&self) -> R {
        R { n: self.n & ((1 << self.k) - 1), k: self.k }
    }

    /// Exact comparison. Total: when aligning one side overflows, that side
    /// is the one of larger magnitude.
    fn cmp(&self, o: &R) -> std::cmp::Ordering {
        let signs = self.n.signum().cmp(&o.n.signum());
        if signs.is_ne() {
            return signs;
        }
        let k = self.k.max(o.k);
        match (shl(self.n, k - self.k), shl(o.n, k - o.k)) {
            (Some(a), Some(b)) => a.cmp(&b),
            // same sign, and only one side is ever shifted
            (None, _) => self.n.cmp(&0),
            (_, None) => 0.cmp(&o.n),
        }
    }

    fn le(&self, o: &R) -> bool {
        self.cmp(o).is_le()
    }

    fn to_f64(self) -> f64 {
        self.n as f64 / (1i128 << self.k) as f64
    }
}

/// Smallest f64 `≥ x` reachable within a few ulps of the rounded quotient
/// (outward rounding for cut coefficients).
fn f64_at_least(x: &R) -> Option<f64> {
    at_least_from(x.to_f64(), |f| x.le(f))
}

/// Walks up from the `estimate` of some exact value until `below(f)` proves
/// that value `≤ f`. The estimate is within a few ulps of exact; it is
/// returned as it is when it already lies above, so the emitted double is a
/// function of the estimate, not only of the value.
fn at_least_from(estimate: f64, below: impl Fn(&R) -> bool) -> Option<f64> {
    let mut f = estimate;
    if !f.is_finite() {
        return None;
    }
    for _ in 0..8 {
        if below(&R::from_f64(f)?) {
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

/// An unsigned 256-bit integer: wide enough for the product of any two
/// `i128` magnitudes, which is what cross-multiplying a comparison by the
/// Gomory ratio's denominator produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct U256 {
    hi: u128,
    lo: u128,
}

impl U256 {
    /// `a · b`, exactly (schoolbook over 64-bit halves).
    fn product(a: u128, b: u128) -> U256 {
        const LOW: u128 = u64::MAX as u128;
        let (a1, a0, b1, b0) = (a >> 64, a & LOW, b >> 64, b & LOW);
        let (ll, lh, hl, hh) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
        let mid = (ll >> 64) + (lh & LOW) + (hl & LOW);
        U256 { hi: hh + (lh >> 64) + (hl >> 64) + (mid >> 64), lo: (mid << 64) | (ll & LOW) }
    }

    /// `self · 2^s` for `s < 128`; `None` when a set bit leaves the top.
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

/// The one quantity of the GMI formula that is not dyadic: `p/q · t`, with
/// `p/q = f₀/(1−f₀)` (the odd numerators of `f₀` and `1−f₀` over their common
/// power of two) and `t > 0` dyadic. Its outward rounding compares by
/// cross-multiplying with `q > 0` — no quotient is ever formed.
struct RatioTimes {
    p: u128,
    q: u128,
    t: R,
}

impl RatioTimes {
    /// Exact `p/q · t ≤ h`: multiplied through by `q` and both denominators,
    /// `p·t.n·2^a ≤ q·h.n·2^b` with one of `a`, `b` zero, the products taken
    /// 256 bits wide. Total — the side whose shift leaves 256 bits is the
    /// larger one.
    fn le(&self, h: &R) -> bool {
        if h.n <= 0 {
            return false;
        }
        let low = self.t.k.min(h.k);
        let lhs = U256::product(self.p, self.t.n.unsigned_abs()).shl(h.k - low);
        let rhs = U256::product(self.q, h.n.unsigned_abs()).shl(self.t.k - low);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l <= r,
            (None, _) => false,
            (_, None) => true,
        }
    }

    /// The quotient of the value's *lowest-terms* numerator and denominator,
    /// each rounded to f64 on its own: the estimate the general fraction this
    /// type replaced gave, and `None` exactly where that fraction left
    /// `i128`. `p`, `q` and `t`'s denominator are coprime in pairs, so the
    /// only common factor is the odd one `t.n` shares with `q` — one
    /// subtract-and-shift gcd, the last one on this path, kept because the
    /// two roundings do not commute with cancelling it.
    fn estimate(&self) -> Option<f64> {
        let tn = self.t.n.unsigned_abs();
        let (mut a, mut c) = (tn >> tn.trailing_zeros(), self.q);
        while a != c {
            if a < c {
                (a, c) = (c, a);
            }
            a -= c;
            a >>= a.trailing_zeros();
        }
        let n = i128::try_from(self.p.checked_mul(tn / c)?).ok()?;
        let d = i128::try_from((self.q / c).checked_mul(1 << self.t.k)?).ok()?;
        Some(n as f64 / d as f64)
    }

    /// Whether [`Self::estimate`] exists — answered without the gcd when the
    /// pair already fits `i128` before anything is cancelled.
    fn in_window(&self) -> bool {
        let inside = |n: Option<u128>| n.is_some_and(|n| n <= i128::MAX as u128);
        let unreduced = inside(self.p.checked_mul(self.t.n.unsigned_abs()))
            && inside(self.q.checked_mul(1 << self.t.k));
        unreduced || self.estimate().is_some()
    }

    /// Outward rounding, like [`f64_at_least`]: the walk starts from
    /// [`Self::estimate`], which is the emitted coefficient whenever it
    /// already lies above the exact value.
    fn at_least(&self) -> Option<f64> {
        at_least_from(self.estimate()?, |f| self.le(f))
    }
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
            if rhs.le(&sum) && sum != rhs {
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
            if rhs.le(&rest) && rest != rhs {
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
    let f0 = bp.frac();
    if f0.is_zero() {
        return None;
    }
    let f0_f = f0.to_f64();
    if !(GOMORY_MIN_FRAC..=1.0 - GOMORY_MIN_FRAC).contains(&f0_f) {
        return None;
    }
    // f₀/(1−f₀) = p/q: the two share their power-of-two denominator
    let (p, q) = (f0.n.unsigned_abs(), R::ONE.sub(&f0)?.n.unsigned_abs());
    // per-variable GMI coefficient in shifted space, rounded outward into
    // the original space; the rhs is f₀ back-shifted by the recorded
    // coefficients, rounded down
    let mut cut: Vec<(usize, f64)> = Vec::new();
    let mut target = f0;
    for v in &base {
        let d = if v.at_upper { v.exact.0.neg()? } else { v.exact.0 };
        let mag = if v.int_shift {
            // min(fⱼ, p/q·(1−fⱼ)), and fⱼ is the smaller one exactly when
            // fⱼ ≤ f₀. The row stays inside the window the general fraction
            // had: it is skipped when the second operand has no `i128`
            // lowest terms, whether or not the minimum needs it — widening
            // that changes which cuts exist, so it is not done in passing
            let fj = d.frac();
            let alt = RatioTimes { p, q, t: R::ONE.sub(&fj)? };
            if fj.le(&f0) {
                if !alt.in_window() {
                    return None;
                }
                f64_at_least(&fj)?
            } else {
                alt.at_least()?
            }
        } else if d.n >= 0 {
            f64_at_least(&d)?
        } else {
            // p/q·(−d) for a continuous variable with negative d
            RatioTimes { p, q, t: d.neg()? }.at_least()?
        };
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

/// The general `i128` fraction this module computed with before [`R`] was a
/// dyadic type, kept as the reference the tests compare against.
#[cfg(test)]
#[path = "cuts_oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::{self, gcd, gcd_i, Q};
    use super::*;
    use crate::model::Sense;
    use proptest::prelude::*;

    fn r(x: f64) -> R {
        R::from_f64(x).expect("representable")
    }

    /// The reference fraction with the same value.
    fn q_of(v: &R) -> Q {
        Q { n: v.n, d: 1 << v.k }
    }

    /// `new` and `old` are the same number in the same lowest terms.
    fn same(new: Option<R>, old: Option<Q>) -> bool {
        new.map(|v| q_of(&v)) == old
    }

    #[test]
    fn rational_round_trip_and_ops() {
        assert_eq!(r(0.5), R { n: 1, k: 1 });
        assert_eq!(r(-2.25).frac(), R { n: 3, k: 2 });
        assert_eq!(r(1.5).add(&r(0.25)).unwrap(), r(1.75));
        assert_eq!(r(1.5).mul(&r(0.25)).unwrap(), R { n: 3, k: 3 });
        assert_eq!(r(6.0).mul(&r(1.25)).unwrap(), r(7.5));
        assert_eq!(r(7.0).frac(), R::ZERO);
        assert_eq!(r(0.75).cmp(&r(0.5)), std::cmp::Ordering::Greater);
        assert!(r(-3.0).le(&r(-2.5)) && r(2.0).le(&r(2.0)) && !r(2.0).le(&r(-2.5)));
        assert!(r(0.1).to_f64() - 0.1 == 0.0); // exact dyadic of the f64 0.1
        assert!(R::from_f64(f64::NAN).is_none());
        // a comparison whose alignment leaves i128 is still decided
        let (wide, fine) = (R { n: 1 << 120, k: 0 }, R { n: 1, k: 100 });
        assert!(fine.le(&wide) && !wide.le(&fine));
        assert!(wide.neg().unwrap().le(&fine.neg().unwrap()));
    }

    /// The conversion `from_f64` replaced: double until integral, then
    /// reduce. Kept here as the oracle for the bit decoder.
    fn from_f64_by_doubling(x: f64) -> Option<Q> {
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
        Q::make(num as i128, den)
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
            assert!(same(R::from_f64(x), from_f64_by_doubling(x)), "x = {x:e}");
            assert_eq!(R::from_f64(x).map(|v| q_of(&v)), Q::from_f64(x), "x = {x:e}");
        }
        assert!(R::from_f64(f64::INFINITY).is_none());
    }

    /// The reference's own gcd (shift-and-subtract) against Euclid — the
    /// oracle is only as good as its reduction.
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
        // the reference: |MIN| = 2¹²⁷ is a u128, not an i128
        assert_eq!(gcd(min, min), 1u128 << 127);
        assert_eq!(gcd(min, 6), 2);
        assert_eq!(gcd_i(min, min), None);
        assert_eq!(Q::make(min, 2), Some(Q { n: -(1i128 << 126), d: 1 }));
        assert_eq!(Q::make(min, 1), None);
        // reduced values that fit are kept...
        assert_eq!(R::make(min, 1), Some(R { n: -(1i128 << 126), k: 0 }));
        assert_eq!(R::make(min, 126), Some(R { n: -2, k: 0 }));
        // ...and the one that does not is refused instead of wrapping
        assert_eq!(R::make(min, 0), None);
        // a value sitting exactly on MIN flows through every operation as
        // `None` (the cut is skipped) or a correct result
        let edge = R { n: min, k: 0 };
        let half = R { n: 1, k: 1 };
        assert_eq!(edge.neg(), None);
        assert_eq!(edge.add(&R::ONE), Some(R { n: min + 1, k: 0 }));
        assert_eq!(edge.sub(&R::ONE), None);
        assert_eq!(R::ONE.sub(&edge), None);
        assert_eq!(edge.add(&edge), None);
        assert_eq!(edge.mul(&half), Some(R { n: -(1i128 << 126), k: 0 }));
        assert_eq!(edge.mul(&R::ONE), None);
        assert_eq!(edge.mul(&R { n: 3, k: 1 }), None);
        assert_eq!(edge.mul(&R::ZERO), Some(R::ZERO));
        assert_eq!(edge.cmp(&edge), std::cmp::Ordering::Equal);
        assert!(edge.le(&R::ZERO) && edge.le(&half.neg().unwrap()) && !R::ZERO.le(&edge));
        assert_eq!(edge.frac(), R::ZERO);
        assert_eq!(R { n: min + 1, k: 1 }.frac(), half);
        assert_eq!(edge.to_f64(), -(2f64.powi(127)));
        assert!(!RatioTimes { p: 1, q: 3, t: R::ONE }.le(&edge));
    }

    #[test]
    fn directed_rounding_brackets_exact_value() {
        // 1/3 is not a dyadic rational: at_least must land strictly above
        // it, and one step further down strictly below
        let third = RatioTimes { p: 1, q: 3, t: R::ONE };
        let up = third.at_least().unwrap();
        assert!(third.le(&r(up)));
        assert!(!third.le(&r(f64::from_bits(up.to_bits() - 1))));
        assert_eq!(up, 1.0 / 3.0 + f64::EPSILON / 4.0);
        // a ratio that is dyadic after all (5/4 · 2/5) comes out exact
        let half = RatioTimes { p: 5, q: 5, t: r(0.5) };
        assert_eq!(half.at_least().unwrap(), 0.5);
        // exactly representable values pass through unchanged
        assert_eq!(f64_at_least(&r(0.75)).unwrap(), 0.75);
        assert_eq!(f64_at_most(&r(0.75)).unwrap(), 0.75);
        // and 2⁻⁶⁰ + 1 rounds away from the value on either side
        let fine = r(1.0).add(&R { n: 1, k: 60 }).unwrap();
        assert_eq!(f64_at_least(&fine).unwrap(), 1.0 + f64::EPSILON);
        assert_eq!(f64_at_most(&fine).unwrap(), 1.0);
    }

    #[test]
    fn wide_products_and_shifts_are_exact() {
        let max = u128::MAX;
        assert_eq!(U256::product(0, max), U256 { hi: 0, lo: 0 });
        assert_eq!(U256::product(3, 5), U256 { hi: 0, lo: 15 });
        // (2¹²⁸ − 1)² = 2²⁵⁶ − 2¹²⁹ + 1
        assert_eq!(U256::product(max, max), U256 { hi: max - 1, lo: 1 });
        assert_eq!(U256::product(1 << 100, 1 << 100), U256 { hi: 1 << 72, lo: 0 });
        let v = U256 { hi: 1, lo: (1 << 127) | 1 };
        assert_eq!(v.shl(0), Some(v));
        assert_eq!(v.shl(1), Some(U256 { hi: 3, lo: 2 }));
        assert_eq!(v.shl(126), Some(U256 { hi: (1 << 126) | (1 << 125), lo: 1 << 126 }));
        assert_eq!(U256 { hi: 2, lo: 0 }.shl(127), None);
        assert!(U256 { hi: 1, lo: 0 } > U256 { hi: 0, lo: max });
    }

    /// One `f64` from the families the separator meets or must refuse: full
    /// 53-bit mantissas at exponents across (and past) the window, integers
    /// near `2⁵³` and `9e15`, small integers and halves, subnormals, zeros.
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

    /// A dyadic of 1 to 100 significant bits over a denominator up to 2¹⁰⁰.
    fn arb_dyadic() -> impl Strategy<Value = R> {
        (0..=u64::MAX, 0..=u64::MAX, 1u32..=100, 0u32..=100, any::<bool>()).prop_map(
            |(hi, lo, bits, k, negative)| {
                let n = (((hi as i128) << 64 | lo as i128) & i128::MAX) >> (127 - bits);
                R::make(if negative { -n } else { n }, k).expect("not i128::MIN")
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A random program of sums, differences and products over random
        /// doubles, run on the dyadic type and on the general fraction it
        /// replaced: every intermediate is the same reduced pair or `None`
        /// on both sides, rounds to the same double, has the same fractional
        /// part, and orders the same wherever the reference can order at all
        /// (its comparison reduces by a gcd of the numerators before it
        /// multiplies; the dyadic one is total).
        #[test]
        fn dyadic_ops_agree_with_the_general_fraction(
            inputs in prop::collection::vec(arb_f64(), 2..6),
            program in prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..24),
        ) {
            let mut vals: Vec<(R, Q)> = Vec::new();
            for &x in &inputs {
                let (new, old) = (R::from_f64(x), Q::from_f64(x));
                prop_assert!(same(new, old), "from_f64({x:e}): {new:?} vs {old:?}");
                vals.extend(new.zip(old));
            }
            prop_assume!(!vals.is_empty());
            for &(op, i, j) in &program {
                let ((a, qa), (b, qb)) = (vals[i % vals.len()], vals[j % vals.len()]);
                let (new, old) = match op {
                    0 => (a.add(&b), qa.add(&qb)),
                    1 => (a.sub(&b), qa.sub(&qb)),
                    2 => (a.mul(&b), qa.mul(&qb)),
                    _ => (a.neg(), qa.neg()),
                };
                prop_assert!(same(new, old), "op {op} on {a:?}, {b:?}: {new:?} vs {old:?}");
                if let Some(order) = qa.cmp(&qb) {
                    prop_assert_eq!(a.cmp(&b), order, "cmp of {:?} and {:?}", a, b);
                    prop_assert_eq!(Some(a.le(&b)), qa.le(&qb));
                }
                if let Some(frac) = qa.frac() {
                    prop_assert!(same(Some(a.frac()), Some(frac)), "frac({a:?})");
                    prop_assert!(same(a.sub(&a.frac()), Some(qa.floor())), "floor({a:?})");
                }
                prop_assert_eq!(a.to_f64().to_bits(), qa.to_f64().to_bits());
                // outward rounding walks by comparisons, so it too can only
                // be pinned where the reference's comparisons went through
                if let Some(up) = oracle::f64_at_least(&qa) {
                    prop_assert_eq!(f64_at_least(&a), Some(up), "at_least({:?})", a);
                }
                if let Some(down) = oracle::f64_at_most(&qa) {
                    prop_assert_eq!(f64_at_most(&a), Some(down), "at_most({:?})", a);
                }
                vals.extend(new.zip(old));
            }
        }

        /// `p/q · t` compared and rounded by cross-multiplication against the
        /// materialized, reduced `ratio.mul(t)`: the same double out of the
        /// outward rounding wherever the reference produced one, `None`
        /// wherever its lowest terms left `i128`, the same order against
        /// bounds hugging the value.
        #[test]
        fn ratio_rounding_agrees_with_the_materialized_ratio(
            f0 in arb_dyadic(), t in arb_dyadic(), h in arb_dyadic(), nudge in -2i64..=2,
        ) {
            let (f0, t) = (f0.frac(), if t.n < 0 { t.neg().unwrap() } else { t });
            prop_assume!(!f0.is_zero() && !t.is_zero());
            let one_minus = R::ONE.sub(&f0).unwrap();
            let scaled = RatioTimes { p: f0.n.unsigned_abs(), q: one_minus.n.unsigned_abs(), t };
            let ratio = q_of(&f0).div(&q_of(&one_minus)).unwrap();
            prop_assert_eq!((ratio.n as u128, ratio.d as u128), (scaled.p, scaled.q));
            let exact = ratio.mul(&q_of(&t));
            prop_assert_eq!(scaled.in_window(), exact.is_some());
            let Some(exact) = exact else {
                prop_assert_eq!(scaled.at_least(), None, "lowest terms overflow: no estimate");
                return Ok(());
            };
            if let Some(up) = oracle::f64_at_least(&exact) {
                prop_assert_eq!(scaled.at_least(), Some(up));
            }
            let near = f64::from_bits((exact.to_f64().to_bits() as i64 + nudge) as u64);
            for h in [Some(h), R::from_f64(near)].into_iter().flatten() {
                if let Some(decided) = exact.le(&q_of(&h)) {
                    prop_assert_eq!(scaled.le(&h), decided, "{:?} vs {:?}", exact, h);
                }
            }
        }
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

    /// A scheduling-shaped model (the aggregate formulation's skeleton): per
    /// analysis a run binary, integer execution and output counts tied to it,
    /// and one or two knapsack rows with measured-looking coefficients — the
    /// family whose tight budgets keep the root LP fractional.
    fn schedule_shaped(seed: u64) -> Model {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let mut m = Model::new(Sense::Maximize);
        let (mut obj, mut time, mut mem) = (LinExpr::new(), LinExpr::new(), LinExpr::new());
        let (mut cost, mut peak) = (0.0, 0.0);
        for i in 0..2 + (seed % 3) as usize {
            let kmax = 1.0 + (unit() * 5.0).floor();
            let run = m.binary(&format!("run_{i}"));
            let k = m.int_var(&format!("k_{i}"), 0.0, kmax);
            let q = m.int_var(&format!("q_{i}"), 0.0, kmax);
            m.add_con(LinExpr::var(k).term(run, -kmax), Cmp::Le, 0.0);
            m.add_con(LinExpr::var(run).term(k, -1.0), Cmp::Le, 0.0);
            m.add_con(LinExpr::var(q).term(k, -1.0), Cmp::Le, 0.0);
            m.add_con(LinExpr::var(q).scale(2.0).term(k, -1.0), Cmp::Ge, 0.0);
            let (ft, ct, ot) = (unit(), unit() * 4.0, unit() * 2.0);
            time = time.term(run, ft).term(k, ct).term(q, ot);
            cost += ft + kmax * (ct + ot);
            let fm = unit() * 30.0;
            mem = mem.term(run, fm);
            peak += fm;
            obj = obj.term(run, 1.0).term(k, 0.5 + (unit() * 6.0).floor() * 0.5);
        }
        m.add_con(time, Cmp::Le, cost * (0.05 + 0.35 * unit()));
        if seed.is_multiple_of(2) {
            m.add_con(mem.scale(1.0 / peak), Cmp::Le, 0.1 + 0.8 * unit());
        }
        m.set_objective(obj);
        m
    }

    /// Runs `derive_gomory` and the general-fraction derivation it replaced
    /// on every eligible tableau row of `model`'s LP optimum, demands equal
    /// candidates, then appends the cuts and goes again (later rounds read
    /// denser rows with longer mantissas). Returns (rows compared, cuts).
    fn compare_derivations(model: &Model, rounds: usize) -> (usize, usize) {
        let opts = SolveOptions::default();
        let mut model = model.clone();
        let (mut rows, mut cuts) = (0, 0);
        for _ in 0..rounds {
            let sf = StandardForm::from_model(&model).unwrap();
            let Ok((_, point)) = solve_lowered(&sf, &opts, None) else { break };
            let Some(mut view) = TableauView::new(&sf, &point.basis) else { break };
            let integral: Vec<bool> =
                model.vars.iter().map(|v| v.kind == VarKind::Integer).collect();
            let mut alpha = Vec::new();
            let mut found = Vec::new();
            for r in 0..view.nrows() {
                let j0 = view.basic_col(r);
                if j0 >= sf.n_struct || !integral[j0] {
                    continue;
                }
                let beta = view.row(r, &mut alpha);
                let new = derive_gomory(&model, &sf, &view, &alpha, beta, &integral, &point.x);
                let old =
                    oracle::derive_gomory(&model, &sf, &view, &alpha, beta, &integral, &point.x);
                rows += 1;
                match (&new, &old) {
                    (None, None) => {}
                    (Some(n), Some(o)) => {
                        assert_eq!(n.proof, o.proof, "row {r}");
                        assert_eq!(n.key, o.key, "row {r}");
                        assert_eq!(n.con.expr, o.con.expr, "row {r}");
                        assert_eq!(n.con.rhs.to_bits(), o.con.rhs.to_bits(), "row {r}");
                        assert!(matches!(n.con.cmp, Cmp::Ge) && matches!(o.con.cmp, Cmp::Ge));
                        assert_eq!(n.violation.to_bits(), o.violation.to_bits(), "row {r}");
                        assert!(n.gomory && o.gomory);
                    }
                    _ => panic!("row {r}: {new:?} vs {old:?}"),
                }
                found.extend(new);
            }
            if found.is_empty() {
                break;
            }
            cuts += found.len();
            model.cons.extend(found.into_iter().map(|c| c.con));
        }
        (rows, cuts)
    }

    #[test]
    fn derive_gomory_matches_the_general_fraction_derivation() {
        let (mut rows, mut cuts) = compare_derivations(&fractional_pair(), 4);
        for seed in 1..=200 {
            let (r, c) = compare_derivations(&schedule_shaped(seed), 4);
            rows += r;
            cuts += c;
        }
        assert!(rows > 1000 && cuts > 300, "only {rows} rows compared, {cuts} cuts derived");
    }
}

//! Seeded random LPs for the LP-level differential suites.
//!
//! Test support, like [`crate::simplex::solve_lp_relaxation_dense`]: nothing
//! on a solve path calls this. It lives in the library so the two sweeps that
//! hold the cold start of [`crate::revised`] to its oracles draw the *same*
//! LPs — `tests/tests/cold_start_differential.rs` (revised simplex against
//! the dense tableau, through the public entry points) and the
//! engine-against-engine sweep in `revised`'s unit tests (the slack crash
//! start against the all-artificial start it replaced).
//!
//! The family is built to reach every branch of the starting-basis rule:
//! `<=` / `>=` / `=` rows, negative and zero right-hand sides, nonzero and
//! negative lower bounds (so a `<=` row's residual at the resting point can
//! be negative), fixed, one-sided and free columns, duplicated and rescaled
//! `=` rows (redundant: their artificial is pinned, not driven out),
//! contradictory row pairs (infeasible), objectives that run off along a
//! one-sided or free column (unbounded) and models with no row at all. Data
//! are small half-integers, so optima are exactly representable and two
//! engines can be compared to 1e-9.

use crate::expr::LinExpr;
use crate::model::{Cmp, Model, Sense};

/// SplitMix64: the generator is its own so the LPs cannot change with a
/// dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A half-integer in `[lo/2, hi/2]`.
    fn half(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + self.below((hi - lo + 1) as u64) as i64) as f64 * 0.5
    }

    /// A nonzero half-integer in `[-3, 3]`.
    fn coeff(&mut self) -> f64 {
        let c = self.half(1, 6);
        if self.below(2) == 0 { c } else { -c }
    }
}

/// The `case`-th LP of the family; the same `case` always gives the same
/// model. Every 25th has no constraint row, every 5th is larger (up to 12
/// columns by 10 rows, before the appended rows below).
pub fn random_lp(case: u64) -> Model {
    let mut rng = SplitMix64(case ^ 0xC01D_57A2_7B45_15C0);
    let sense = if rng.below(2) == 0 { Sense::Maximize } else { Sense::Minimize };
    let mut m = Model::new(sense);
    let large = case % 5 == 4;
    let nv = 1 + rng.below(if large { 12 } else { 6 }) as usize;
    let nr = if case.is_multiple_of(25) { 0 } else { 1 + rng.below(if large { 10 } else { 6 }) as usize };

    // `anchor` is a point inside the column bounds: most right-hand sides
    // are set from it, so that most members have an optimum to compare
    let mut anchor = Vec::with_capacity(nv);
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            let lo = rng.half(-10, 10);
            let span = rng.half(1, 12);
            let (lower, upper, at) = match rng.below(16) {
                0..=8 => (lo, lo + span, lo + rng.half(0, 2) * span),
                9 => (lo, lo, lo), // fixed
                10 | 11 => (lo, f64::INFINITY, lo + span),
                12 => (f64::NEG_INFINITY, lo, lo - span),
                13 => (f64::NEG_INFINITY, f64::INFINITY, lo),
                _ => (0.0, f64::INFINITY, span),
            };
            anchor.push(at);
            m.num_var(&format!("x{i}"), lower, upper)
        })
        .collect();

    let mut obj = LinExpr::new();
    for &v in &vars {
        if rng.below(4) != 0 {
            obj = obj.term(v, rng.coeff());
        }
    }
    m.set_objective(obj);

    let mut rows: Vec<(Vec<f64>, Cmp, f64)> = (0..nr)
        .map(|_| {
            let coeffs: Vec<f64> = (0..nv)
                .map(|_| if rng.below(3) == 0 { 0.0 } else { rng.coeff() })
                .collect();
            let cmp = match rng.below(4) {
                0 | 1 => Cmp::Le,
                2 => Cmp::Ge,
                _ => Cmp::Eq,
            };
            let rhs = match rng.below(20) {
                0 => 0.0,
                1 => rng.half(-20, 20),
                _ => {
                    // satisfied at the anchor, with room on an inequality
                    let at: f64 = coeffs.iter().zip(&anchor).map(|(c, x)| c * x).sum();
                    match cmp {
                        Cmp::Le => at + rng.half(0, 6),
                        Cmp::Ge => at - rng.half(0, 6),
                        Cmp::Eq => at,
                    }
                }
            };
            (coeffs, cmp, rhs)
        })
        .collect();
    if nr > 0 {
        // a redundant `=` row: an existing row again as an equality, as it
        // is, doubled or negated
        if rng.below(4) == 0 {
            let k = rng.below(nr as u64) as usize;
            rows[k].1 = Cmp::Eq;
            let scale = [1.0, 2.0, -1.0][rng.below(3) as usize];
            let (coeffs, _, rhs) = rows[k].clone();
            rows.push((coeffs.iter().map(|c| c * scale).collect(), Cmp::Eq, rhs * scale));
        }
        // a contradictory pair: `a·x <= r` (or `= r`) and `a·x >= r + 1`,
        // or the mirror image for a `>=` row
        if rng.below(8) == 0 {
            let k = rng.below(nr as u64) as usize;
            let (coeffs, cmp, rhs) = rows[k].clone();
            let (cmp, rhs) = if cmp == Cmp::Ge { (Cmp::Le, rhs - 1.0) } else { (Cmp::Ge, rhs + 1.0) };
            rows.push((coeffs, cmp, rhs));
        }
    }
    for (coeffs, cmp, rhs) in rows {
        let mut e = LinExpr::new();
        for (&v, &c) in vars.iter().zip(&coeffs) {
            if c != 0.0 {
                e = e.term(v, c);
            }
        }
        m.add_con(e, cmp, rhs);
    }
    m
}

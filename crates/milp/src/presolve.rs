//! Presolve: constraint propagation before the search starts.
//!
//! Three classic, always-safe reductions run to a fixed point:
//!
//! 1. **Activity-based infeasibility**: if a row's minimum possible
//!    activity already exceeds its rhs (`<=` rows) the model is infeasible.
//! 2. **Redundant-row elimination**: if a row's maximum possible activity
//!    cannot violate it, the row is dropped.
//! 3. **Bound tightening**: for each variable in a row, the residual
//!    activity of the other variables implies a bound; integer variables'
//!    bounds are rounded inward.
//!
//! Each row's activity is computed once per pass, at the start of the row:
//! the finite contributions summed in term order, the infinite ones
//! counted. A term's residual is that activity minus its own contribution,
//! so a row costs its length, not its length squared. A residual with an
//! infinite contribution left in it implies nothing: one infinite
//! contribution leaves only its own variable's residual finite, two leave
//! none. A finite contribution above 1e6 counts as infinite too, so that
//! no residual is the difference of two large, rounded numbers.
//!
//! A fourth reduction, dominated-row elimination among rows over the same
//! support, was deleted: it was written for the per-step time rows of
//! Eqs. 2–4, which the formulations now telescope into one row, and it
//! removed no row in any solve of the benchmark's solving workloads.
//!
//! Variables are never eliminated, so solutions map back one-to-one.

use crate::branch::INT_TOL;
use crate::error::SolveError;
use crate::model::{Cmp, Model, VarKind};

/// What presolve did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Constraints removed as redundant.
    pub rows_dropped: usize,
    /// Individual bound tightenings applied.
    pub bounds_tightened: usize,
    /// Variables whose domain collapsed to a single value.
    pub vars_fixed: usize,
    /// Propagation sweeps executed.
    pub passes: usize,
}

/// The least and the greatest value of `c·x` over `x ∈ [l, u]`.
fn contribution(c: f64, l: f64, u: f64) -> (f64, f64) {
    if c >= 0.0 {
        (c * l, c * u)
    } else {
        (c * u, c * l)
    }
}

/// Contributions larger than this count as infinite. A residual is the
/// activity minus the term's own contribution, and the activity carries
/// the rounding of every sum it took, up to `HUGE·2⁻⁵³` per term: were a
/// term of 1e17 subtracted back out, the residual of `-1` beside it would
/// read `0`. At 1e6 the error stays four orders under `INT_TOL`; the
/// scheduling formulations rescale their rows far below it.
const HUGE: f64 = 1e6;

/// Whether a contribution is counted in an [`Activity`] rather than
/// summed: above [`HUGE`], infinite, or `0·∞`.
fn counted(x: f64) -> bool {
    x.is_nan() || x.abs() > HUGE
}

/// One side of a row's activity: the contributions up to [`HUGE`] summed
/// in term order, the larger and the infinite ones counted.
#[derive(Clone, Copy, Default)]
struct Activity {
    finite: f64,
    infinite: usize,
}

impl Activity {
    fn add(&mut self, x: f64) {
        if counted(x) {
            self.infinite += 1;
        } else {
            self.finite += x;
        }
    }

    /// The activity itself: `inf` once a contribution is counted.
    fn total(self, inf: f64) -> f64 {
        if self.infinite == 0 {
            self.finite
        } else {
            inf
        }
    }

    /// The activity of the other terms of a row, given one term's own
    /// contribution `own`, or `None` when a counted contribution is left.
    fn without(self, own: f64) -> Option<f64> {
        match (self.infinite, counted(own)) {
            (0, _) => Some(self.finite - own),
            (1, true) => Some(self.finite),
            _ => None,
        }
    }
}

/// Runs presolve in place, with the solver's integrality tolerance as the
/// slack of every bound and row test. Returns statistics, or an
/// infeasibility proof.
pub fn presolve(model: &mut Model) -> Result<PresolveStats, SolveError> {
    let mut stats = PresolveStats::default();
    let max_passes = 20;
    loop {
        stats.passes += 1;
        let mut changed = false;
        let mut keep = vec![true; model.cons.len()];
        let Model { vars, cons, .. } = &mut *model;
        for (con, keep_row) in cons.iter().zip(&mut keep) {
            let (cmp, rhs) = (con.cmp, con.rhs);
            let (mut lo, mut hi) = (Activity::default(), Activity::default());
            for &(v, c) in &con.expr.terms {
                let var = &vars[v.index()];
                let (least, most) = contribution(c, var.lower, var.upper);
                lo.add(least);
                hi.add(most);
            }
            let (min, max) = (lo.total(f64::NEG_INFINITY), hi.total(f64::INFINITY));
            if !min.is_finite() && !max.is_finite() {
                continue; // unbounded both ways: nothing provable
            }
            // infeasibility / redundancy
            match cmp {
                Cmp::Le => {
                    if min > rhs + INT_TOL {
                        return Err(SolveError::Infeasible);
                    }
                    if max <= rhs + INT_TOL {
                        *keep_row = false;
                        continue;
                    }
                }
                Cmp::Ge => {
                    if max < rhs - INT_TOL {
                        return Err(SolveError::Infeasible);
                    }
                    if min >= rhs - INT_TOL {
                        *keep_row = false;
                        continue;
                    }
                }
                Cmp::Eq => {
                    if min > rhs + INT_TOL || max < rhs - INT_TOL {
                        return Err(SolveError::Infeasible);
                    }
                }
            }
            // bound tightening per variable, against the activity taken at
            // the start of the row
            for &(v, c) in &con.expr.terms {
                if c.abs() < 1e-12 {
                    continue;
                }
                let var = &mut vars[v.index()];
                let (vl, vu) = (var.lower, var.upper);
                let (own_lo, own_hi) = contribution(c, vl, vu);
                let mut new_upper = vu;
                let mut new_lower = vl;
                // c·v <= rhs − (least activity of the others)
                if cmp != Cmp::Ge {
                    if let Some(res_lo) = lo.without(own_lo) {
                        let limit = rhs - res_lo;
                        if c > 0.0 {
                            new_upper = new_upper.min(limit / c);
                        } else {
                            new_lower = new_lower.max(limit / c);
                        }
                    }
                }
                // c·v >= rhs − (greatest activity of the others)
                if cmp != Cmp::Le {
                    if let Some(res_hi) = hi.without(own_hi) {
                        let limit = rhs - res_hi;
                        if c > 0.0 {
                            new_lower = new_lower.max(limit / c);
                        } else {
                            new_upper = new_upper.min(limit / c);
                        }
                    }
                }
                // integer rounding
                if var.kind == VarKind::Integer {
                    if new_upper.is_finite() {
                        new_upper = (new_upper + INT_TOL).floor();
                    }
                    if new_lower.is_finite() {
                        new_lower = (new_lower - INT_TOL).ceil();
                    }
                }
                if new_upper < vu - INT_TOL {
                    var.upper = new_upper;
                    stats.bounds_tightened += 1;
                    changed = true;
                }
                if new_lower > vl + INT_TOL {
                    var.lower = new_lower;
                    stats.bounds_tightened += 1;
                    changed = true;
                }
                if var.lower > var.upper {
                    if var.lower > var.upper + INT_TOL {
                        return Err(SolveError::Infeasible);
                    }
                    // a crossing within the tolerance is rounding, but the
                    // lowering refuses any crossing: the bound that moved
                    // stops at the other one
                    if var.upper < vu {
                        var.upper = var.lower;
                    } else {
                        var.lower = var.upper;
                    }
                }
            }
        }
        if keep.contains(&false) {
            let before = model.cons.len();
            let mut kept = keep.iter();
            model.cons.retain(|_| *kept.next().expect("one flag per row"));
            stats.rows_dropped += before - model.cons.len();
            changed = true;
        }
        if !changed || stats.passes >= max_passes {
            break;
        }
    }
    stats.vars_fixed = model
        .vars
        .iter()
        .filter(|v| (v.upper - v.lower).abs() <= INT_TOL)
        .count();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::Sense;

    #[test]
    fn tightens_knapsack_bounds() {
        // 5x + 2y <= 8, x,y integer in [0, 10] => x <= 1, y <= 4
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        m.add_con(LinExpr::new().term(x, 5.0).term(y, 2.0), Cmp::Le, 8.0);
        let stats = presolve(&mut m).unwrap();
        assert_eq!(m.vars[x.index()].upper, 1.0);
        assert_eq!(m.vars[y.index()].upper, 4.0);
        assert!(stats.bounds_tightened >= 2);
    }

    #[test]
    fn detects_infeasible_row() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 1.0);
        let y = m.num_var("y", 0.0, 1.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 3.0);
        assert_eq!(presolve(&mut m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn drops_redundant_rows() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 1.0);
        m.add_con(LinExpr::var(x), Cmp::Le, 5.0); // can never bind
        m.add_con(LinExpr::var(x), Cmp::Ge, -1.0); // can never bind
        let stats = presolve(&mut m).unwrap();
        assert_eq!(m.cons.len(), 0);
        assert_eq!(stats.rows_dropped, 2);
    }

    #[test]
    fn one_infinite_contribution_tightens_only_its_variable() {
        // x + y + z <= 4 with x unbounded below: the least activity is
        // -inf, but x's residual (y and z at their lowers) is 3 => x <= 1;
        // y's and z's residuals hold x's -inf and imply nothing
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", f64::NEG_INFINITY, 10.0);
        let y = m.num_var("y", 1.0, 10.0);
        let z = m.num_var("z", 2.0, 10.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0).term(z, 1.0), Cmp::Le, 4.0);
        let stats = presolve(&mut m).unwrap();
        assert_eq!(stats.bounds_tightened, 1);
        assert_eq!((m.vars[x.index()].lower, m.vars[x.index()].upper), (f64::NEG_INFINITY, 1.0));
        assert_eq!((m.vars[y.index()].lower, m.vars[y.index()].upper), (1.0, 10.0));
        assert_eq!((m.vars[z.index()].lower, m.vars[z.index()].upper), (2.0, 10.0));
        // the same on the greatest activity: 2x - y + z >= 5 with x
        // unbounded above and -y, z at most 0 and 1 => 2x >= 4
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, f64::INFINITY);
        let y = m.num_var("y", 0.0, 1.0);
        let z = m.num_var("z", 0.0, 1.0);
        m.add_con(LinExpr::new().term(x, 2.0).term(y, -1.0).term(z, 1.0), Cmp::Ge, 5.0);
        let stats = presolve(&mut m).unwrap();
        assert_eq!(stats.bounds_tightened, 1);
        assert_eq!((m.vars[x.index()].lower, m.vars[x.index()].upper), (2.0, f64::INFINITY));
        assert_eq!((m.vars[y.index()].lower, m.vars[y.index()].upper), (0.0, 1.0));
        assert_eq!((m.vars[z.index()].lower, m.vars[z.index()].upper), (0.0, 1.0));
    }

    #[test]
    fn two_infinite_contributions_tighten_nothing() {
        // x + y + z <= 4 with x and y unbounded below: every residual
        // holds at least one -inf
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", f64::NEG_INFINITY, 10.0);
        let y = m.num_var("y", f64::NEG_INFINITY, 10.0);
        let z = m.num_var("z", 2.0, 10.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0).term(z, 1.0), Cmp::Le, 4.0);
        let before = m.clone();
        let stats = presolve(&mut m).unwrap();
        assert_eq!(stats.bounds_tightened, 0);
        assert_eq!(m.cons.len(), 1);
        for (a, b) in m.vars.iter().zip(&before.vars) {
            assert_eq!((a.lower, a.upper), (b.lower, b.upper));
        }
    }

    #[test]
    fn a_huge_contribution_is_not_subtracted_back_out() {
        // y - x <= 0 with y in [-1e17, 10], x in [0, 1]: y's residual is -1,
        // so y <= 1; summed with y's -1e17 and subtracted back out it would
        // read 0 and cut off the optimum y = x = 1
        let build = || {
            let mut m = Model::new(Sense::Maximize);
            let x = m.num_var("x", 0.0, 1.0);
            let y = m.num_var("y", -1e17, 10.0);
            m.add_con(LinExpr::new().term(y, 1.0).term(x, -1.0), Cmp::Le, 0.0);
            m.set_objective(LinExpr::var(y));
            m
        };
        let mut pre = build();
        presolve(&mut pre).unwrap();
        assert_eq!((pre.vars[0].lower, pre.vars[0].upper), (0.0, 1.0));
        assert_eq!((pre.vars[1].lower, pre.vars[1].upper), (-1e17, 1.0));
        let solved = crate::solve(&build(), &Default::default()).unwrap();
        assert_eq!(solved.objective, 1.0);
    }

    #[test]
    fn a_crossing_within_the_tolerance_is_closed() {
        // 10x <= 3 gives x <= 0.3, x >= 0.1 + 0.2 gives x >= 0.3 plus one
        // ulp: a crossing far inside INT_TOL, which the lowering refuses
        let build = || {
            let mut m = Model::new(Sense::Maximize);
            let x = m.num_var("x", 0.0, 10.0);
            m.add_con(LinExpr::new().term(x, 10.0), Cmp::Le, 3.0);
            m.add_con(LinExpr::var(x), Cmp::Ge, 0.1 + 0.2);
            m.set_objective(LinExpr::var(x));
            m
        };
        let mut pre = build();
        presolve(&mut pre).unwrap();
        assert_eq!(pre.vars[0].lower, pre.vars[0].upper);
        assert_eq!(pre.vars[0].upper, 0.3);
        let relax = crate::solve_lp_relaxation(&build()).unwrap();
        let solved = crate::solve(&build(), &Default::default()).unwrap();
        assert!((solved.objective - relax.objective).abs() < 1e-9);
    }

    #[test]
    fn presolve_keeps_the_lp_relaxation_of_every_lp_fuzz_model() {
        // on these continuous LPs with free and one-sided columns, activity
        // minus a term's own contribution may round a bound differently in
        // its last bits than re-summing the other terms did, and presolve
        // is outside the certifier's view: the answers are what is held
        let (mut optimal, mut failed, mut worst) = (0usize, 0usize, 0.0f64);
        for case in 0..3000 {
            let model = crate::lp_fuzz::random_lp(case);
            let before = crate::solve_lp_relaxation(&model);
            let mut pre = model.clone();
            let after = presolve(&mut pre).and_then(|_| crate::solve_lp_relaxation(&pre));
            match (&before, &after) {
                (Ok(b), Ok(a)) => {
                    let rel = (a.objective - b.objective).abs() / b.objective.abs().max(1.0);
                    assert!(rel <= 1e-9, "case {case}: {} before, {} after", b.objective, a.objective);
                    worst = worst.max(rel);
                    optimal += 1;
                }
                (Err(b), Err(a)) => {
                    assert_eq!(b, a, "case {case}");
                    failed += 1;
                }
                _ => panic!("case {case}: {before:?} before presolve, {after:?} after"),
            }
        }
        eprintln!("{optimal} optimal, {failed} infeasible or unbounded, worst {worst:e}");
        assert!(optimal > 1000 && failed > 100, "{optimal} optimal, {failed} not");
    }

    #[test]
    fn equality_fixes_variables() {
        // x + y = 2 with x,y in [0,1] => both forced to 1
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 1.0);
        let y = m.num_var("y", 0.0, 1.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Eq, 2.0);
        let stats = presolve(&mut m).unwrap();
        assert_eq!(m.vars[x.index()].lower, 1.0);
        assert_eq!(m.vars[y.index()].lower, 1.0);
        assert_eq!(stats.vars_fixed, 2);
    }

    #[test]
    fn integer_rounding_cuts_fractional_bounds() {
        // 2x <= 7, x integer => x <= 3 (not 3.5)
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 100.0);
        m.add_con(LinExpr::new().term(x, 2.0), Cmp::Le, 7.0);
        presolve(&mut m).unwrap();
        assert_eq!(m.vars[x.index()].upper, 3.0);
    }

    #[test]
    fn propagation_chains_through_rows() {
        // x <= 2 (row), y <= x - 1 => y <= 1, then z <= y => z <= 1
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 10.0);
        let y = m.int_var("y", 0.0, 10.0);
        let z = m.int_var("z", 0.0, 10.0);
        m.add_con(LinExpr::var(x), Cmp::Le, 2.0);
        m.add_con(LinExpr::new().term(y, 1.0).term(x, -1.0), Cmp::Le, -1.0);
        m.add_con(LinExpr::new().term(z, 1.0).term(y, -1.0), Cmp::Le, 0.0);
        presolve(&mut m).unwrap();
        assert_eq!(m.vars[y.index()].upper, 1.0);
        assert_eq!(m.vars[z.index()].upper, 1.0);
    }

    #[test]
    fn preserves_optimal_solutions() {
        // presolve then solve == solve directly
        let build = || {
            let mut m = Model::new(Sense::Maximize);
            let a = m.binary("a");
            let b = m.binary("b");
            let c = m.int_var("c", 0.0, 9.0);
            m.add_con(
                LinExpr::new().term(a, 3.0).term(b, 4.0).term(c, 1.0),
                Cmp::Le,
                9.0,
            );
            m.add_con(LinExpr::new().term(c, 2.0).term(b, 1.0), Cmp::Ge, 3.0);
            m.set_objective(LinExpr::new().term(a, 5.0).term(b, 4.0).term(c, 1.0));
            m
        };
        let direct = crate::solve(&build(), &Default::default()).unwrap();
        let mut pre = build();
        presolve(&mut pre).unwrap();
        let solved = crate::solve(&pre, &Default::default()).unwrap();
        assert!((direct.objective - solved.objective).abs() < 1e-9);
    }
}

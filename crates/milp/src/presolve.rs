//! Presolve: constraint propagation before the search starts.
//!
//! Four classic, always-safe reductions run to a fixed point:
//!
//! 1. **Activity-based infeasibility**: if a row's minimum possible
//!    activity already exceeds its rhs (`<=` rows) the model is infeasible.
//! 2. **Redundant-row elimination**: if a row's maximum possible activity
//!    cannot violate it, the row is dropped.
//! 3. **Bound tightening**: for each variable in a row, the residual
//!    activity of the other variables implies a bound; integer variables'
//!    bounds are rounded inward.
//! 4. **Dominated-row elimination**: among inequality rows over the *same*
//!    variable support, a row implied by another under the current bounds
//!    is dropped. The scheduling formulation produces these in bulk: the
//!    telescoped per-step time/memory threshold rows (paper Eqs. 2–8)
//!    share one `o_{i,j}` support, and a step whose cumulative budget is
//!    uniformly looser than a later step's can never bind.
//!
//! Variables are never eliminated, so solutions map back one-to-one.

use crate::branch::INT_TOL;
use crate::error::SolveError;
use crate::model::{Cmp, Model, VarKind};
use std::collections::{BTreeMap, HashMap};

/// What presolve did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Constraints removed as redundant.
    pub rows_dropped: usize,
    /// Constraints removed because a same-support row implies them.
    pub rows_dominated: usize,
    /// Individual bound tightenings applied.
    pub bounds_tightened: usize,
    /// Variables whose domain collapsed to a single value.
    pub vars_fixed: usize,
    /// Propagation sweeps executed.
    pub passes: usize,
}

/// Minimum/maximum possible activity of a row under current bounds.
fn activity_bounds(model: &Model, row: usize) -> (f64, f64) {
    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    for &(v, c) in &model.cons[row].expr.terms {
        let (l, u) = (model.vars[v.index()].lower, model.vars[v.index()].upper);
        if c >= 0.0 {
            lo += c * l;
            hi += c * u;
        } else {
            lo += c * u;
            hi += c * l;
        }
    }
    (lo, hi)
}

/// Aggregated coefficients of a row, keyed by variable index.
fn row_coeffs(model: &Model, row: usize) -> BTreeMap<usize, f64> {
    let mut coeffs = BTreeMap::new();
    for &(v, c) in &model.cons[row].expr.terms {
        *coeffs.entry(v.index()).or_insert(0.0) += c;
    }
    coeffs
}

/// True when `cand` is implied by `keeper` (same sense, same support)
/// under the current variable bounds: for `<=` rows, the maximum possible
/// activity of `A_cand − A_keeper` stays within the rhs slack; for `>=`
/// rows, the minimum does.
fn row_dominates(model: &Model, keeper: usize, cand: usize) -> bool {
    let mut diff = row_coeffs(model, cand);
    for (i, c) in row_coeffs(model, keeper) {
        *diff.entry(i).or_insert(0.0) -= c;
    }
    let slack = model.cons[cand].rhs - model.cons[keeper].rhs;
    let (mut lo, mut hi) = (0.0f64, 0.0f64);
    for (&i, &d) in &diff {
        let (l, u) = (model.vars[i].lower, model.vars[i].upper);
        if d >= 0.0 {
            lo += d * l;
            hi += d * u;
        } else {
            lo += d * u;
            hi += d * l;
        }
    }
    match model.cons[cand].cmp {
        Cmp::Le => hi <= slack + INT_TOL,
        Cmp::Ge => lo >= slack - INT_TOL,
        Cmp::Eq => false,
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
        for (r, keep_row) in keep.iter_mut().enumerate() {
            let cmp = model.cons[r].cmp;
            let rhs = model.cons[r].rhs;
            let (lo, hi) = activity_bounds(model, r);
            if !lo.is_finite() && !hi.is_finite() {
                continue; // unbounded both ways: nothing provable
            }
            // infeasibility / redundancy
            match cmp {
                Cmp::Le => {
                    if lo > rhs + INT_TOL {
                        return Err(SolveError::Infeasible);
                    }
                    if hi <= rhs + INT_TOL {
                        *keep_row = false;
                        continue;
                    }
                }
                Cmp::Ge => {
                    if hi < rhs - INT_TOL {
                        return Err(SolveError::Infeasible);
                    }
                    if lo >= rhs - INT_TOL {
                        *keep_row = false;
                        continue;
                    }
                }
                Cmp::Eq => {
                    if lo > rhs + INT_TOL || hi < rhs - INT_TOL {
                        return Err(SolveError::Infeasible);
                    }
                }
            }
            // bound tightening per variable
            let terms = model.cons[r].expr.terms.clone();
            for &(v, c) in &terms {
                if c.abs() < 1e-12 {
                    continue;
                }
                let i = v.index();
                let (vl, vu) = (model.vars[i].lower, model.vars[i].upper);
                // residual activity of the other variables
                let (res_lo, res_hi) = {
                    let mut lo2 = 0.0;
                    let mut hi2 = 0.0;
                    for &(w, d) in &terms {
                        if w == v {
                            continue;
                        }
                        let (l, u) =
                            (model.vars[w.index()].lower, model.vars[w.index()].upper);
                        if d >= 0.0 {
                            lo2 += d * l;
                            hi2 += d * u;
                        } else {
                            lo2 += d * u;
                            hi2 += d * l;
                        }
                    }
                    (lo2, hi2)
                };
                // derive implied bounds per constraint sense
                let mut new_upper = vu;
                let mut new_lower = vl;
                let imply_le = |limit: f64| limit; // c*v <= limit
                match cmp {
                    Cmp::Le => {
                        if res_lo.is_finite() {
                            let limit = imply_le(rhs - res_lo);
                            if c > 0.0 {
                                new_upper = new_upper.min(limit / c);
                            } else {
                                new_lower = new_lower.max(limit / c);
                            }
                        }
                    }
                    Cmp::Ge => {
                        if res_hi.is_finite() {
                            let limit = rhs - res_hi; // c*v >= limit
                            if c > 0.0 {
                                new_lower = new_lower.max(limit / c);
                            } else {
                                new_upper = new_upper.min(limit / c);
                            }
                        }
                    }
                    Cmp::Eq => {
                        if res_lo.is_finite() {
                            let limit = rhs - res_lo;
                            if c > 0.0 {
                                new_upper = new_upper.min(limit / c);
                            } else {
                                new_lower = new_lower.max(limit / c);
                            }
                        }
                        if res_hi.is_finite() {
                            let limit = rhs - res_hi;
                            if c > 0.0 {
                                new_lower = new_lower.max(limit / c);
                            } else {
                                new_upper = new_upper.min(limit / c);
                            }
                        }
                    }
                }
                // integer rounding
                if model.vars[i].kind == VarKind::Integer {
                    if new_upper.is_finite() {
                        new_upper = (new_upper + INT_TOL).floor();
                    }
                    if new_lower.is_finite() {
                        new_lower = (new_lower - INT_TOL).ceil();
                    }
                }
                if new_upper < vu - INT_TOL {
                    model.vars[i].upper = new_upper;
                    stats.bounds_tightened += 1;
                    changed = true;
                }
                if new_lower > vl + INT_TOL {
                    model.vars[i].lower = new_lower;
                    stats.bounds_tightened += 1;
                    changed = true;
                }
                if model.vars[i].lower > model.vars[i].upper + INT_TOL {
                    return Err(SolveError::Infeasible);
                }
            }
        }
        // dominated-row elimination: bucket surviving inequality rows by
        // variable support, then compare pairs within each bucket. Bucket
        // contents are in ascending row order and buckets never interact,
        // so the outcome is deterministic despite the hash map.
        let mut dominated = vec![false; model.cons.len()];
        let mut buckets: HashMap<Vec<usize>, Vec<usize>> = HashMap::new();
        for (r, con) in model.cons.iter().enumerate() {
            if !keep[r] || con.cmp == Cmp::Eq {
                continue;
            }
            let mut support: Vec<usize> =
                con.expr.terms.iter().map(|&(v, _)| v.index()).collect();
            support.sort_unstable();
            support.dedup();
            buckets.entry(support).or_default().push(r);
        }
        for rows in buckets.values() {
            for a in 0..rows.len() {
                for b in (a + 1)..rows.len() {
                    let (r1, r2) = (rows[a], rows[b]);
                    if dominated[r1]
                        || dominated[r2]
                        || model.cons[r1].cmp != model.cons[r2].cmp
                    {
                        continue;
                    }
                    // prefer keeping the earlier row so mutually-dominating
                    // (identical) pairs resolve deterministically
                    if row_dominates(model, r1, r2) {
                        dominated[r2] = true;
                    } else if row_dominates(model, r2, r1) {
                        dominated[r1] = true;
                    }
                }
            }
        }
        if keep.iter().any(|&k| !k) || dominated.iter().any(|&d| d) {
            let mut idx = 0;
            model.cons.retain(|_| {
                let (k, dom) = (keep[idx], dominated[idx]);
                idx += 1;
                if !k {
                    stats.rows_dropped += 1;
                } else if dom {
                    stats.rows_dominated += 1;
                }
                k && !dom
            });
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
    fn drops_dominated_le_row() {
        // x + y <= 5 dominates x + 2y <= 8 when y <= 3: the extra y of
        // slack can never exceed the extra 3 of rhs. Neither row is
        // redundant on its own (max activities 6 and 9).
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 3.0);
        let y = m.int_var("y", 0.0, 3.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 5.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 2.0), Cmp::Le, 8.0);
        let stats = presolve(&mut m).unwrap();
        assert_eq!(stats.rows_dominated, 1);
        assert_eq!(m.cons.len(), 1);
        assert_eq!(m.cons[0].rhs, 5.0);
    }

    #[test]
    fn drops_dominated_ge_row() {
        // x + y >= 1 dominates x + 2y >= 0.5
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 3.0);
        let y = m.num_var("y", 0.0, 3.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 1.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 2.0), Cmp::Ge, 0.5);
        let stats = presolve(&mut m).unwrap();
        assert_eq!(stats.rows_dominated, 1);
        assert_eq!(m.cons.len(), 1);
        assert_eq!(m.cons[0].rhs, 1.0);
    }

    #[test]
    fn identical_rows_keep_exactly_one() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 3.0);
        let y = m.int_var("y", 0.0, 3.0);
        for _ in 0..3 {
            m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 5.0);
        }
        let stats = presolve(&mut m).unwrap();
        assert_eq!(m.cons.len(), 1);
        assert_eq!(stats.rows_dominated, 2);
    }

    #[test]
    fn different_support_rows_are_not_compared() {
        // same-looking slack but different supports: both must survive
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 3.0);
        let y = m.int_var("y", 0.0, 3.0);
        let z = m.int_var("z", 0.0, 3.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 5.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(z, 1.0), Cmp::Le, 5.0);
        let stats = presolve(&mut m).unwrap();
        assert_eq!(stats.rows_dominated, 0);
        assert_eq!(m.cons.len(), 2);
    }

    #[test]
    fn equality_rows_are_never_dominated() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 3.0);
        let y = m.num_var("y", 0.0, 3.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Eq, 2.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 2.5);
        let stats = presolve(&mut m).unwrap();
        // the Le row may tighten/survive, but the Eq row must remain
        assert!(m.cons.iter().any(|c| c.cmp == Cmp::Eq));
        assert_eq!(stats.rows_dominated, 0);
    }

    #[test]
    fn dominated_elimination_preserves_optimum() {
        // a scheduling-shaped model: telescoped cumulative-budget rows
        // over the same support where the earlier step is uniformly looser
        let build = |with_dominated: bool| {
            let mut m = Model::new(Sense::Maximize);
            let o: Vec<_> = (0..4).map(|i| m.binary(&format!("o{i}"))).collect();
            let costs = [3.0, 5.0, 2.0, 4.0];
            m.add_con(
                LinExpr::sum(o.iter().zip(costs).map(|(&v, c)| (v, c))),
                Cmp::Le,
                8.0,
            );
            if with_dominated {
                // same support, looser rhs: can never bind
                m.add_con(
                    LinExpr::sum(o.iter().zip(costs).map(|(&v, c)| (v, c))),
                    Cmp::Le,
                    11.0,
                );
            }
            m.set_objective(LinExpr::sum(o.iter().map(|&v| (v, 1.0))));
            m
        };
        let mut with = build(true);
        let stats = presolve(&mut with).unwrap();
        assert_eq!(stats.rows_dominated, 1);
        let a = crate::solve(&with, &Default::default()).unwrap();
        let b = crate::solve(&build(false), &Default::default()).unwrap();
        assert!((a.objective - b.objective).abs() < 1e-9);
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

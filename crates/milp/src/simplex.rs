//! LP entry points and the dense-tableau reference implementation.
//!
//! Every LP the solver meets — root, child, strong-branch probe, cut
//! re-solve — is solved by the sparse revised simplex in
//! [`crate::revised`]. [`solve_lp_relaxation_warm`] is the thin
//! lower-then-solve wrapper for callers that hold a [`Model`]; the solver
//! itself lowers once and solves every later LP on that
//! [`StandardForm`] (`solve_lowered` for the root and the cut re-solves,
//! [`crate::revised::solve_bound_edit`] for every tree LP). The dense
//! tableau implemented
//! here is an independently coded **oracle**: it is not on any solve
//! path, and exists so the LP-level differential tests
//! (`tests/tests/engine_equivalence.rs`, the fuzz harness) have a second
//! implementation to compare the shipped engine against. It is reachable
//! only through [`solve_lp_relaxation_dense`].
//!
//! The dense implementation follows the textbook upper-bounded simplex
//! method (see e.g. Chvátal, "Linear Programming", ch. 8):
//!
//! * nonbasic variables rest at their lower *or* upper bound,
//! * the ratio test accounts for basic variables hitting either bound and
//!   for the entering variable reaching its opposite bound (a "bound flip"
//!   that changes no basis),
//! * phase 1 minimizes the sum of per-row artificial variables; rows are
//!   pre-scaled so every artificial starts basic at a non-negative value,
//! * Dantzig pricing with an automatic switch to Bland's rule after an
//!   iteration threshold guarantees termination despite degeneracy.
//!
//! # Warm starts
//!
//! Branch & bound re-solves near-identical LPs: a child differs from its
//! parent by one tightened column bound. The revised engine starts from
//! the parent's final [`Basis`] — factorized once per node
//! ([`crate::revised::FactoredBasis`]) and shared by all of the node's
//! probes and children — and repairs the (usually small) primal
//! infeasibility with bounded-variable **dual simplex** pivots instead of
//! running phase 1 from scratch. The repair is purely an accelerator: on
//! any trouble — singular basis hint, layout mismatch, iteration budget,
//! no eligible entering column — it falls back to the cold two-phase
//! path, so warm and cold solves always agree (every LP is solved to
//! proven optimality either way).

use crate::error::SolveError;
use crate::options::SolveOptions;
use crate::solution::Solution;
use crate::standard::{Dense, StandardForm};
use crate::stats::LpTelemetry;
use crate::Model;

/// Minimum absolute pivot element accepted.
const PIVOT_TOL: f64 = 1e-9;
/// Reduced-cost threshold for entering eligibility.
const COST_TOL: f64 = 1e-7;
/// Residual threshold for phase-1 feasibility.
const FEAS_TOL: f64 = 1e-6;

/// A simplex basis: which column is basic in each row, plus the resting
/// bound of every nonbasic structural/slack column.
///
/// Returned by every LP solve and accepted back as a warm-start hint; see
/// [`solve_lp_relaxation_warm`]. Artificial columns never appear in `basic`.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    /// Column index of the basic variable, one per row.
    pub basic: Vec<usize>,
    /// Nonbasic-at-upper flags for the structural + slack columns
    /// (meaningless for basic columns).
    pub at_upper: Vec<bool>,
}

/// Raw LP solution in standard-form coordinates.
#[derive(Debug, Clone)]
pub struct LpPoint {
    /// Value per standard-form column.
    pub x: Vec<f64>,
    /// Objective in the ORIGINAL model sense (incl. constant).
    pub objective: f64,
    /// Simplex iterations used (both phases).
    pub iterations: usize,
    /// Final basis, usable as a warm-start hint for a nearby LP.
    pub basis: Basis,
    /// True when this solve reused a warm-start hint (vs. cold two-phase).
    pub warm: bool,
    /// Revised-engine counters (all zero from the dense oracle).
    pub telemetry: LpTelemetry,
}

/// Working state of the tableau simplex.
struct Tableau {
    /// `B⁻¹ A` for all columns, artificials included; one extra column at
    /// the end holds `B⁻¹ b`.
    t: Dense,
    /// Column index of the basic variable for each row.
    basis: Vec<usize>,
    /// Nonbasic-at-upper flags (meaningless for basic columns).
    at_upper: Vec<bool>,
    /// Per-column lower bounds (artificials included).
    lower: Vec<f64>,
    /// Per-column upper bounds.
    upper: Vec<f64>,
    /// First artificial column index.
    art_start: usize,
    /// Columns banned from entering (artificials that left the basis).
    banned: Vec<bool>,
    /// Total pivots + bound flips performed.
    iterations: usize,
    /// Scratch: current value per column, refreshed by
    /// [`Tableau::refresh_values`] (valid until the next pivot).
    xs: Vec<f64>,
    /// Scratch: per-column basic flag, refreshed alongside `xs`.
    is_basic: Vec<bool>,
    /// Scratch: pivot-row snapshot used inside [`Tableau::pivot`].
    prow: Vec<f64>,
}

impl Tableau {
    fn ncols(&self) -> usize {
        self.t.ncols - 1 // last column is rhs
    }

    fn nrows(&self) -> usize {
        self.t.nrows
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.t.at(r, self.t.ncols - 1)
    }

    /// Refreshes the `xs`/`is_basic` scratch buffers with the current value
    /// of every column: basic from the tableau, nonbasic from its resting
    /// bound. No allocation — the previous engine rebuilt both vectors on
    /// every simplex iteration.
    fn refresh_values(&mut self) {
        let n = self.ncols();
        self.is_basic.fill(false);
        for &bj in &self.basis {
            self.is_basic[bj] = true;
        }
        for j in 0..n {
            self.xs[j] = if self.is_basic[j] {
                0.0
            } else if self.at_upper[j] {
                self.upper[j]
            } else {
                self.lower[j]
            };
        }
        // xB = B^-1 b - sum_j nonbasic T[:,j] * x_j
        for r in 0..self.nrows() {
            let mut v = self.rhs(r);
            let row = self.t.row(r);
            for ((&rj, &xj), &basic) in row.iter().zip(&self.xs).zip(&self.is_basic) {
                if !basic && xj != 0.0 {
                    v -= rj * xj;
                }
            }
            self.xs[self.basis[r]] = v;
        }
    }

    /// Current value of every column (refreshes the scratch buffer).
    fn values(&mut self) -> &[f64] {
        self.refresh_values();
        &self.xs
    }

    /// Performs a Gaussian pivot on `(row, col)`, updating the cost row too.
    fn pivot(&mut self, row: usize, col: usize, cost: &mut [f64]) {
        let piv = self.t.at(row, col);
        debug_assert!(piv.abs() > PIVOT_TOL);
        let inv = 1.0 / piv;
        for v in self.t.row_mut(row) {
            *v *= inv;
        }
        // snapshot pivot row (reused scratch) to avoid aliasing
        self.prow.copy_from_slice(self.t.row(row));
        for r in 0..self.nrows() {
            if r == row {
                continue;
            }
            let factor = self.t.at(r, col);
            if factor != 0.0 {
                let rrow = self.t.row_mut(r);
                for (rv, &pv) in rrow.iter_mut().zip(&self.prow) {
                    *rv -= factor * pv;
                }
            }
        }
        let cfac = cost[col];
        if cfac != 0.0 {
            // cost has `ncols - 1` entries (no rhs column); zip truncates
            for (cv, &pv) in cost.iter_mut().zip(&self.prow) {
                *cv -= cfac * pv;
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// One simplex phase: minimize `cost · x` until optimal.
    /// `cost` is the current reduced-cost row (updated in place).
    fn run(&mut self, cost: &mut [f64], opts: &SolveOptions) -> Result<(), SolveError> {
        let n = self.ncols();
        let bland_after = 20 * (self.nrows() + n) + 200;
        let mut local_iters = 0usize;
        loop {
            if self.iterations >= opts.max_simplex_iters {
                return Err(SolveError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            local_iters += 1;
            let bland = local_iters > bland_after;
            self.refresh_values();
            // --- pricing ---
            let mut enter: Option<(usize, f64, bool)> = None; // (col, |score|, from_upper)
            for (j, &d) in cost.iter().enumerate() {
                if self.is_basic[j] || self.banned[j] || self.lower[j] == self.upper[j] {
                    continue;
                }
                let (eligible, from_upper) = if self.at_upper[j] {
                    (d > COST_TOL, true)
                } else {
                    (d < -COST_TOL, false)
                };
                if eligible {
                    if bland {
                        enter = Some((j, d.abs(), from_upper));
                        break;
                    }
                    match enter {
                        Some((_, best, _)) if d.abs() <= best => {}
                        _ => enter = Some((j, d.abs(), from_upper)),
                    }
                }
            }
            let Some((j, _, from_upper)) = enter else {
                return Ok(()); // optimal for this phase
            };
            let dir = if from_upper { -1.0 } else { 1.0 };
            // --- ratio test ---
            let span = self.upper[j] - self.lower[j]; // may be inf
            let mut delta = span;
            let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
            let mut best_piv = 0.0;
            for r in 0..self.nrows() {
                let t = self.t.at(r, j) * dir;
                let bj = self.basis[r];
                let xb = self.xs[bj];
                if t > PIVOT_TOL {
                    let limit = ((xb - self.lower[bj]) / t).max(0.0);
                    if limit < delta - 1e-12
                        || (limit < delta + 1e-12 && t.abs() > best_piv && !bland)
                    {
                        delta = limit.min(delta);
                        leave = Some((r, false));
                        best_piv = t.abs();
                    }
                } else if t < -PIVOT_TOL {
                    if self.upper[bj].is_infinite() {
                        continue;
                    }
                    let limit = ((self.upper[bj] - xb) / -t).max(0.0);
                    if limit < delta - 1e-12
                        || (limit < delta + 1e-12 && t.abs() > best_piv && !bland)
                    {
                        delta = limit.min(delta);
                        leave = Some((r, true));
                        best_piv = t.abs();
                    }
                }
            }
            if delta.is_infinite() {
                return Err(SolveError::Unbounded);
            }
            match leave {
                None => {
                    // bound flip: entering runs across its whole span
                    self.at_upper[j] = !self.at_upper[j];
                    self.iterations += 1;
                }
                Some((r, leaves_at_upper)) => {
                    let leaving = self.basis[r];
                    self.at_upper[leaving] = leaves_at_upper;
                    if leaving >= self.art_start {
                        self.banned[leaving] = true;
                    }
                    self.pivot(r, j, cost);
                }
            }
        }
    }

    /// Snapshot of the current basis for warm-starting later solves.
    fn snapshot(&self) -> Basis {
        Basis {
            basic: self.basis.clone(),
            at_upper: self.at_upper[..self.art_start].to_vec(),
        }
    }
}

/// Builds the initial tableau with an all-artificial basis.
fn fresh_tableau(sf: &StandardForm) -> Tableau {
    let m = sf.nrows();
    let n = sf.ncols();
    let n_total = n + m; // + artificials
    let mut t = Dense::zeros(m, n_total + 1);
    // residuals with all columns at their (finite) lower bounds
    let mut lower = sf.lower.clone();
    let mut upper = sf.upper.clone();
    lower.extend(std::iter::repeat_n(0.0, m));
    upper.extend(std::iter::repeat_n(f64::INFINITY, m));
    let mut resid = sf.b.clone();
    for j in 0..n {
        let lj = sf.lower[j];
        if lj != 0.0 {
            for (r, v) in sf.a.col(j) {
                resid[r] -= v * lj;
            }
        }
    }
    let sign: Vec<f64> = resid
        .iter()
        .map(|&r| if r < 0.0 { -1.0 } else { 1.0 })
        .collect();
    for j in 0..n {
        for (r, v) in sf.a.col(j) {
            *t.at_mut(r, j) = sign[r] * v;
        }
    }
    for (r, &sg) in sign.iter().enumerate() {
        *t.at_mut(r, n + r) = 1.0; // artificial
        *t.at_mut(r, n_total) = sg * sf.b[r];
    }
    Tableau {
        t,
        basis: (n..n_total).collect(),
        at_upper: vec![false; n_total],
        lower,
        upper,
        art_start: n,
        banned: vec![false; n_total],
        iterations: 0,
        xs: vec![0.0; n_total],
        is_basic: vec![false; n_total],
        prow: vec![0.0; n_total + 1],
    }
}

/// Phase-2 reduced costs `d = c - c_B' T` for the current basis, written
/// into the reusable `cost2` buffer (no per-call temporaries).
fn phase2_costs_into(tab: &Tableau, sf: &StandardForm, cost2: &mut [f64]) {
    let n = sf.ncols();
    let n_total = tab.ncols();
    let m = tab.nrows();
    cost2[..n].copy_from_slice(&sf.c);
    cost2[n..n_total].fill(0.0);
    for r in 0..m {
        let bj = tab.basis[r];
        let cbr = if bj < n { sf.c[bj] } else { 0.0 };
        if cbr != 0.0 {
            let row = tab.t.row(r);
            for (j, c2) in cost2[..n_total].iter_mut().enumerate() {
                *c2 -= cbr * row[j];
            }
        }
    }
}

/// Runs phase 2 on a primal-feasible tableau and extracts the optimum.
fn finish(
    mut tab: Tableau,
    sf: &StandardForm,
    mut cost2: Vec<f64>,
    opts: &SolveOptions,
) -> Result<LpPoint, SolveError> {
    tab.run(&mut cost2, opts)?;
    let basis = tab.snapshot();
    let xfull = tab.values();
    let n = sf.ncols();
    let x: Vec<f64> = xfull[..n].to_vec();
    let objective = sf.model_objective(&x);
    Ok(LpPoint {
        x,
        objective,
        iterations: tab.iterations,
        basis,
        warm: false,
        telemetry: LpTelemetry::default(),
    })
}

/// Solves the standard-form LP on the dense tableau, cold (two phases
/// from an artificial basis). Returns values for all structural + slack
/// columns and the objective in the original model sense.
fn solve_standard_dense(sf: &StandardForm, opts: &SolveOptions) -> Result<LpPoint, SolveError> {
    let m = sf.nrows();
    let n = sf.ncols();
    let n_total = n + m;
    let mut tab = fresh_tableau(sf);
    // --- phase 1: minimize sum of artificials ---
    // reduced costs: d_j = c1_j - 1' T[:,j]; artificials basic => d_art = 0
    let mut cost = vec![0.0; n_total];
    for (j, cj) in cost.iter_mut().enumerate().take(n) {
        let mut s = 0.0;
        for r in 0..m {
            s += tab.t.at(r, j);
        }
        *cj = -s;
    }
    tab.run(&mut cost, opts)?;
    let x = tab.values();
    let art_sum: f64 = x[n..n_total].iter().sum();
    if art_sum > FEAS_TOL {
        return Err(SolveError::Infeasible);
    }
    // drive basic artificials out (degenerate pivots) or pin them at zero
    for r in 0..m {
        if tab.basis[r] >= n {
            let mut pivoted = false;
            for j in 0..n {
                let basic_elsewhere = tab.basis.contains(&j);
                if !basic_elsewhere && tab.t.at(r, j).abs() > 1e-7 {
                    tab.pivot(r, j, &mut cost);
                    pivoted = true;
                    break;
                }
            }
            if !pivoted {
                // redundant row: pin the artificial so it can never move
                let a = tab.basis[r];
                tab.lower[a] = 0.0;
                tab.upper[a] = 0.0;
            }
        }
    }
    // ban all artificials from re-entering
    for j in n..n_total {
        tab.banned[j] = true;
    }
    // --- phase 2: real objective ---
    let mut cost2 = vec![0.0; n_total];
    phase2_costs_into(&tab, sf, &mut cost2);
    finish(tab, sf, cost2, opts)
}

/// Maps a standard-form LP optimum back to model-variable space.
fn to_solution(sf: &StandardForm, point: &LpPoint) -> Solution {
    Solution {
        values: sf.extract(&point.x),
        objective: point.objective,
        iterations: point.iterations,
        nodes: 0,
        proven_optimal: true,
        stats: crate::stats::SolveStats {
            lp_pivots: point.iterations,
            warm_started: point.warm as usize,
            refactorizations: point.telemetry.refactorizations,
            max_eta_len: point.telemetry.max_eta_len,
            ftran_time: std::time::Duration::from_nanos(point.telemetry.ftran_ns),
            btran_time: std::time::Duration::from_nanos(point.telemetry.btran_ns),
            ..Default::default()
        },
    }
}

/// Solves the LP relaxation of `model` (integrality dropped) and maps the
/// optimum back to model-variable space.
pub fn solve_lp_relaxation(model: &Model, opts: &SolveOptions) -> Result<Solution, SolveError> {
    let (sol, _) = solve_lp_relaxation_warm(model, opts, None)?;
    Ok(sol)
}

/// Like [`solve_lp_relaxation`] but accepts a warm-start [`Basis`] hint and
/// returns the final LP point alongside the mapped solution so callers
/// (branch & bound) can chain warm starts. Warm and cold paths return the
/// same optimum; the hint only changes how many pivots it takes to get
/// there. [`LpPoint::warm`] reports which path ran.
pub fn solve_lp_relaxation_warm(
    model: &Model,
    opts: &SolveOptions,
    hint: Option<&Basis>,
) -> Result<(Solution, LpPoint), SolveError> {
    solve_lowered(&StandardForm::from_model(model)?, opts, hint)
}

/// [`solve_lp_relaxation_warm`] on a model that is already lowered.
pub(crate) fn solve_lowered(
    sf: &StandardForm,
    opts: &SolveOptions,
    hint: Option<&Basis>,
) -> Result<(Solution, LpPoint), SolveError> {
    let point = crate::revised::solve_standard_revised(sf, opts, hint)?;
    Ok((to_solution(sf, &point), point))
}

/// [`solve_lp_relaxation`] on the dense-tableau oracle instead of the
/// shipped revised simplex. Test support: the differential suites compare
/// the two implementations LP by LP. Nothing on a solve path calls this.
#[doc(hidden)]
pub fn solve_lp_relaxation_dense(
    model: &Model,
    opts: &SolveOptions,
) -> Result<Solution, SolveError> {
    let sf = StandardForm::from_model(model)?;
    let point = solve_standard_dense(&sf, opts)?;
    Ok(to_solution(&sf, &point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Cmp, Model, Sense};
    use crate::revised::solve_standard_revised;

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn simple_max_lp() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 (classic; opt 36 @ (2,6))
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, f64::INFINITY);
        let y = m.num_var("y", 0.0, f64::INFINITY);
        m.add_con(LinExpr::var(x), Cmp::Le, 4.0);
        m.add_con(LinExpr::new().term(y, 2.0), Cmp::Le, 12.0);
        m.add_con(LinExpr::new().term(x, 3.0).term(y, 2.0), Cmp::Le, 18.0);
        m.set_objective(LinExpr::new().term(x, 3.0).term(y, 5.0));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 36.0).abs() < 1e-6);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + y >= 3, x - y = 1, x,y >= 0 => x=2, y=1, obj 3
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, f64::INFINITY);
        let y = m.num_var("y", 0.0, f64::INFINITY);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 3.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, -1.0), Cmp::Eq, 1.0);
        m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn upper_bounded_variables_flip() {
        // max x + y with x,y in [0, 1], x + y <= 1.5 => obj 1.5
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 1.0);
        let y = m.num_var("y", 0.0, 1.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 1.5);
        m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 1.5).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, 1.0);
        m.add_con(LinExpr::var(x), Cmp::Ge, 2.0);
        assert_eq!(
            solve_lp_relaxation(&m, &opts()).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::var(x));
        assert_eq!(
            solve_lp_relaxation(&m, &opts()).unwrap_err(),
            SolveError::Unbounded
        );
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 (bound), x + 3 >= 0 => x = -3
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", -5.0, 5.0);
        m.add_con(LinExpr::var(x), Cmp::Ge, -3.0);
        m.set_objective(LinExpr::var(x));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective + 3.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable_split() {
        // min |shape|: min x s.t. x >= -7, x free => -7
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", f64::NEG_INFINITY, f64::INFINITY);
        m.add_con(LinExpr::var(x), Cmp::Ge, -7.0);
        m.set_objective(LinExpr::var(x));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective + 7.0).abs() < 1e-6);
    }

    #[test]
    fn negated_variable_with_finite_upper_only() {
        // max x s.t. x <= 9 (bound), x >= 1 => 9
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", f64::NEG_INFINITY, 9.0);
        m.add_con(LinExpr::var(x), Cmp::Ge, 1.0);
        m.set_objective(LinExpr::var(x));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 9.0).abs() < 1e-6);
        assert!((s.values[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // many redundant constraints through the same vertex
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, f64::INFINITY);
        let y = m.num_var("y", 0.0, f64::INFINITY);
        for k in 1..=6 {
            m.add_con(
                LinExpr::new().term(x, k as f64).term(y, k as f64),
                Cmp::Le,
                k as f64 * 4.0,
            );
        }
        m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 2.0, 2.0);
        let y = m.num_var("y", 0.0, 10.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 5.0);
        m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.values[0] - 2.0).abs() < 1e-9);
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows_ok() {
        // x + y = 2 twice (linearly dependent) — phase 1 must cope
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 10.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Eq, 2.0);
        m.add_con(LinExpr::new().term(x, 2.0).term(y, 2.0), Cmp::Eq, 4.0);
        m.set_objective(LinExpr::var(x));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    /// Builds the bounded knapsack LP used by the warm-start tests.
    fn knapsack_lp() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 4.0);
        let y = m.num_var("y", 0.0, 4.0);
        let z = m.num_var("z", 0.0, 4.0);
        m.add_con(
            LinExpr::new().term(x, 2.0).term(y, 3.0).term(z, 1.0),
            Cmp::Le,
            10.0,
        );
        m.set_objective(LinExpr::new().term(x, 3.0).term(y, 4.0).term(z, 1.0));
        m
    }

    #[test]
    fn warm_start_with_bogus_hint_falls_back() {
        let m = knapsack_lp();
        let sf = StandardForm::from_model(&m).unwrap();
        let cold = solve_standard_revised(&sf, &opts(), None).unwrap();
        // wrong dimensions: must be ignored
        let bogus = Basis {
            basic: vec![0, 1, 2, 3, 4],
            at_upper: vec![],
        };
        let s = solve_standard_revised(&sf, &opts(), Some(&bogus)).unwrap();
        assert!(!s.warm);
        assert!((s.objective - cold.objective).abs() < 1e-9);
        // duplicate basis entries: must be ignored too
        let dup = Basis {
            basic: vec![0; sf.nrows()],
            at_upper: vec![false; sf.ncols()],
        };
        let s2 = solve_standard_revised(&sf, &opts(), Some(&dup)).unwrap();
        assert!((s2.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_detects_infeasible_child_via_fallback() {
        // parent optimal, then bounds tightened into infeasibility
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, 10.0);
        m.add_con(LinExpr::var(x), Cmp::Ge, 5.0);
        m.set_objective(LinExpr::var(x));
        let sf = StandardForm::from_model(&m).unwrap();
        let parent = solve_standard_revised(&sf, &opts(), None).unwrap();
        let mut child = m.clone();
        child.vars[0].upper = 3.0; // x >= 5 impossible now
        let csf = StandardForm::from_model(&child).unwrap();
        assert_eq!(
            solve_standard_revised(&csf, &opts(), Some(&parent.basis)).unwrap_err(),
            SolveError::Infeasible
        );
    }
}

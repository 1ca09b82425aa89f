//! Sparse revised simplex — the LP engine; every LP the solver meets is
//! solved here.
//!
//! Per pivot this engine pays for the nonzeros it touches, not for the
//! `rows · cols` area of a tableau. It keeps only
//!
//! * the constraint matrix in CSC form ([`crate::standard::Csc`], shared,
//!   read-only),
//! * an LU factorization of the current basis with an eta file of
//!   product-form updates ([`crate::lu`]), refactorized every
//!   `REFACTOR_INTERVAL` pivots straight from the CSC columns of the basis
//!   list,
//! * the basic-variable values `x_B`, updated incrementally and
//!   recomputed exactly at every refactorization.
//!
//! Per iteration it solves `Bᵀy = c_B` (**BTRAN**) for the pricing duals,
//! prices nonbasic columns with **partial (candidate-block) pricing**
//! (Dantzig within the block, with an automatic switch to Bland's rule
//! against cycling), and solves `Bw = a_j` (**FTRAN**) for the
//! bounded-variable ratio test.
//!
//! # One lowering, many LPs
//!
//! The engine borrows the [`StandardForm`] and keeps its *own* per-column
//! `lower`/`upper`, so an LP is "a standard form + a list of column-bound
//! overrides" ([`ColBound`]): [`solve_bound_edit`] never copies or rebuilds
//! the matrix. Branch & bound lowers its frozen model once and every child
//! LP and strong-branch probe is a bound edit on that one form. A warm
//! start takes a [`FactoredBasis`] — the parent basis with its LU factors,
//! which depend on no bound — so the caller factorizes once and any number
//! of LPs share the factors read-only, each with its own eta file and its
//! own `x_B` recomputed from its own bounds.
//!
//! # Starting basis
//!
//! A cold solve — every root LP, every set-up solve, every warm child whose
//! dual repair gave up — starts from the **slack crash basis**, not from
//! `m` artificials. [`StandardForm::from_model`] gives every row a `+1`
//! slack (`[0, ∞)` on an inequality, fixed `[0, 0]` on an equality), so with
//! the structural and slack columns nonbasic at their lower bounds and
//! `resid = b − A_N x_N`, the rule is per row:
//!
//! * row `r`'s own slack is basic at `resid[r]` wherever that is a feasible
//!   value for it — the slack is `[0, ∞)` and `resid[r] ≥ 0`;
//! * otherwise (a `≥` row with a positive right-hand side, a lower bound or
//!   a branching override that pushed a `≤` row over, any `=` row) the row
//!   gets the signed artificial `±e_r` basic at `|resid[r]|`, as every row
//!   once did.
//!
//! Either way the basis matrix is a signed identity. Phase 1 minimizes the
//! sum of the artificials that exist, and between the phases the ones still
//! basic at zero are pivoted out or, on a redundant row, pinned; the
//! artificial of a slack-started row is banned from the first pivot, as one
//! that has left the basis is. When no row needs an artificial — the
//! time-indexed Eq. 1–9 model without memory terms is one: every row a `≤`
//! (or a `≥ 0`) with a non-negative right-hand side over columns resting at
//! 0 — the slack basis is primal feasible as it stands and the solve *is*
//! phase 2: no phase-1 pricing, no drive-out loop, no refactorization
//! between the phases (`docs/SOLVER.md` § Decisions has the pivot counts
//! this saves).
//!
//! The method is a bounded-variable two-phase primal simplex with
//! dual-simplex warm-start repair. The dense tableau that first implemented
//! it ([`crate::simplex`], `O(rows · cols)` per pivot) is no engine any
//! more: no solve path calls it and no option selects it. It survives as a
//! doc-hidden *oracle* with the same tolerances, which
//! `tests/tests/engine_equivalence.rs` and the differential fuzz harness
//! (`tests/tests/certify_differential.rs`) hold this engine's feasibility
//! verdicts and optimal objectives against (`docs/SOLVER.md` § LP engine).

use std::time::Instant;

use crate::error::SolveError;
use crate::lu::{Factorization, LuFactors};
use crate::options::SolveOptions;
use crate::simplex::{Basis, LpPoint};
use crate::standard::{ColBound, StandardForm};
use crate::stats::LpTelemetry;

/// Minimum absolute pivot element accepted (same as the dense oracle).
const PIVOT_TOL: f64 = 1e-9;
/// Reduced-cost threshold for entering eligibility.
const COST_TOL: f64 = 1e-7;
/// Residual threshold for phase-1 feasibility.
const FEAS_TOL: f64 = 1e-6;
/// Smallest partial-pricing candidate block.
const PRICE_BLOCK_MIN: usize = 64;
/// The basis is refactorized after this many eta updates. Smaller is more
/// numerically conservative, larger means fewer (expensive)
/// factorizations.
const REFACTOR_INTERVAL: usize = 64;

/// Working state of one revised-simplex solve.
struct Engine<'a> {
    sf: &'a StandardForm,
    m: usize,
    /// Structural + slack columns.
    n: usize,
    /// `n` + one artificial per row.
    n_total: usize,
    /// Sign of each artificial column (`±e_r`), chosen so an artificial
    /// that starts basic does so at `|residual|`.
    art_sign: Vec<f64>,
    /// Column basic in each position.
    basis: Vec<usize>,
    /// Per-column basic flag (maintained incrementally).
    in_basis: Vec<bool>,
    /// Nonbasic-at-upper flags.
    at_upper: Vec<bool>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Columns banned from entering: artificials that left the basis, or
    /// whose row started on its slack.
    banned: Vec<bool>,
    /// Values of the basic variables, by basis position.
    x_basic: Vec<f64>,
    fac: Factorization<'a>,
    iterations: usize,
    tele: LpTelemetry,
    /// Rotating start column of the partial-pricing scan.
    price_start: usize,
    // --- scratch buffers (allocation-free iterations) ---
    /// FTRAN right-hand side (orig-row space).
    sv: Vec<f64>,
    /// FTRAN result (basis-position space) — the entering column image.
    sw: Vec<f64>,
    /// BTRAN right-hand side (basis-position space).
    sc: Vec<f64>,
    /// BTRAN result: pricing duals `y` (orig-row space).
    sy: Vec<f64>,
    /// BTRAN result: dual-simplex row `ρ = B⁻ᵀ eᵣ` (orig-row space).
    sr: Vec<f64>,
    /// BTRAN internal scratch (pivot-sequence space).
    sg: Vec<f64>,
}

/// LU factors of `basis` over `sf`, read in place: structural/slack columns
/// straight from the CSC matrix, artificial `n + r` as the signed unit
/// vector `art_sign[r]·e_r`. `None` when the basis is numerically singular.
fn factor_basis(sf: &StandardForm, art_sign: &[f64], basis: &[usize]) -> Option<LuFactors> {
    let n = sf.ncols();
    LuFactors::factor(sf.nrows(), |q| {
        let j = basis[q];
        let (structural, artificial) = if j < n {
            (Some(sf.a.col(j)), None)
        } else {
            (None, Some((j - n, art_sign[j - n])))
        };
        structural.into_iter().flatten().chain(artificial)
    })
}

/// `sf`'s column bounds intersected with the overrides `bounds`, plus one
/// artificial per row in `[0, ∞)`. `None` when an override empties a
/// column's domain.
fn column_bounds(sf: &StandardForm, bounds: &[ColBound]) -> Option<(Vec<f64>, Vec<f64>)> {
    let n_total = sf.ncols() + sf.nrows();
    let mut lower = Vec::with_capacity(n_total);
    lower.extend_from_slice(&sf.lower);
    let mut upper = Vec::with_capacity(n_total);
    upper.extend_from_slice(&sf.upper);
    for &(j, lo, hi) in bounds {
        lower[j] = lower[j].max(lo);
        upper[j] = upper[j].min(hi);
        if lower[j] > upper[j] {
            return None;
        }
    }
    lower.resize(n_total, 0.0);
    upper.resize(n_total, f64::INFINITY);
    Some((lower, upper))
}

impl<'a> Engine<'a> {
    /// What every start shares: the given bounds (see [`column_bounds`])
    /// and factors, nothing basic yet, `+e_r` artificials.
    fn blank(
        sf: &'a StandardForm,
        (lower, upper): (Vec<f64>, Vec<f64>),
        fac: Factorization<'a>,
    ) -> Engine<'a> {
        let m = sf.nrows();
        let n = sf.ncols();
        let n_total = n + m;
        Engine {
            sf,
            m,
            n,
            n_total,
            art_sign: vec![1.0; m],
            basis: Vec::with_capacity(m),
            in_basis: vec![false; n_total],
            at_upper: vec![false; n_total],
            lower,
            upper,
            banned: vec![false; n_total],
            x_basic: vec![0.0; m],
            fac,
            iterations: 0,
            tele: LpTelemetry::default(),
            price_start: 0,
            sv: vec![0.0; m],
            sw: vec![0.0; m],
            sc: vec![0.0; m],
            sy: vec![0.0; m],
            sr: vec![0.0; m],
            sg: vec![0.0; m],
        }
    }

    /// Engine at the slack crash basis (module docs, § Starting basis):
    /// every structural and slack column nonbasic at its lower bound, and
    /// in row `r` the row's own slack basic at the residual `resid[r]`
    /// wherever that is a feasible value for it — the slack is `[0, ∞)` and
    /// `resid[r] ≥ 0` — or else the signed artificial `±e_r` basic at
    /// `|resid[r]|`. The artificial of a slack-started row is banned from
    /// the first pivot, like one that has left the basis. Phase 1 has work
    /// exactly when some `basis[r] >= n`. `None` when `bounds` empties a
    /// column's domain.
    fn cold(sf: &'a StandardForm, bounds: &[ColBound]) -> Option<Engine<'a>> {
        let m = sf.nrows();
        let n = sf.ncols();
        let (lower, upper) = column_bounds(sf, bounds)?;
        // residuals with every column at its (finite) lower bound
        let mut resid = sf.b.clone();
        for (j, &lj) in lower[..n].iter().enumerate() {
            if lj != 0.0 {
                for (r, v) in sf.a.col(j) {
                    resid[r] -= v * lj;
                }
            }
        }
        let art_sign: Vec<f64> = resid
            .iter()
            .map(|&r| if r < 0.0 { -1.0 } else { 1.0 })
            .collect();
        let basis: Vec<usize> = (0..m)
            .map(|r| {
                let slack = sf.n_struct + r;
                let carries =
                    resid[r] >= 0.0 && lower[slack] == 0.0 && upper[slack] == f64::INFINITY;
                if carries { slack } else { n + r }
            })
            .collect();
        let lu = factor_basis(sf, &art_sign, &basis).expect("±identity is nonsingular");
        let mut e = Engine::blank(sf, (lower, upper), Factorization::new(lu));
        e.x_basic = resid.iter().map(|r| r.abs()).collect();
        e.art_sign = art_sign;
        for (r, &j) in basis.iter().enumerate() {
            e.in_basis[j] = true;
            e.banned[n + r] = j < n;
        }
        e.basis = basis;
        Some(e)
    }

    /// The start this engine had before the slack crash basis: an
    /// artificial basic in every row. Kept for the differential sweep only
    /// — a slack `+e_r` at `resid[r] ≥ 0` and the artificial `+e_r` at the
    /// same value are the same column, so the factors and `x_B` of
    /// [`Engine::cold`] stand as they are.
    #[cfg(test)]
    fn all_artificial(mut self) -> Engine<'a> {
        for r in 0..self.m {
            let was = std::mem::replace(&mut self.basis[r], self.n + r);
            self.in_basis[was] = false;
            self.in_basis[self.n + r] = true;
            self.banned[self.n + r] = false;
        }
        self
    }

    /// Engine resting at `basis` (already checked against `sf`'s layout,
    /// see [`FactoredBasis::new`]) over `fac`, the factors of exactly those
    /// columns: no simplex iteration has run, `x_B` is computed from this
    /// engine's own bounds, artificials are nonbasic at zero and banned.
    /// `None` when `bounds` empties a column's domain.
    fn at_basis(
        sf: &'a StandardForm,
        bounds: &[ColBound],
        basis: &Basis,
        fac: Factorization<'a>,
    ) -> Option<Engine<'a>> {
        let mut e = Engine::blank(sf, column_bounds(sf, bounds)?, fac);
        e.basis.extend_from_slice(&basis.basic);
        for &j in &basis.basic {
            e.in_basis[j] = true;
        }
        for j in 0..e.n {
            // bounds may have been tightened since the basis was taken;
            // never rest at an infinite bound
            e.at_upper[j] = basis.at_upper[j] && e.upper[j].is_finite();
        }
        e.banned[e.n..].fill(true);
        e.recompute_x();
        Some(e)
    }

    /// Dot product of column `j` (structural/slack from the CSC matrix,
    /// artificial as a signed unit vector) with a row-space vector.
    #[inline]
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.n {
            self.sf.a.col(j).map(|(r, v)| y[r] * v).sum()
        } else {
            self.art_sign[j - self.n] * y[j - self.n]
        }
    }

    /// `sw = B⁻¹ a_j` (timed FTRAN).
    fn ftran_col(&mut self, j: usize) {
        self.sv.fill(0.0);
        if j < self.n {
            for (r, v) in self.sf.a.col(j) {
                self.sv[r] = v;
            }
        } else {
            self.sv[j - self.n] = self.art_sign[j - self.n];
        }
        let t0 = Instant::now();
        self.fac.ftran(&mut self.sv, &mut self.sw);
        self.tele.ftran_ns += t0.elapsed().as_nanos() as u64;
    }

    /// `sy = B⁻ᵀ c_B` — the pricing duals (timed BTRAN).
    fn duals(&mut self, cost: &[f64]) {
        for k in 0..self.m {
            self.sc[k] = cost[self.basis[k]];
        }
        let t0 = Instant::now();
        self.fac.btran(&mut self.sc, &mut self.sy, &mut self.sg);
        self.tele.btran_ns += t0.elapsed().as_nanos() as u64;
    }

    /// `sr = B⁻ᵀ e_r` — row `r` of the basis inverse (timed BTRAN).
    fn inverse_row(&mut self, r: usize) {
        self.sc.fill(0.0);
        self.sc[r] = 1.0;
        let t0 = Instant::now();
        self.fac.btran(&mut self.sc, &mut self.sr, &mut self.sg);
        self.tele.btran_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Recomputes `x_B = B⁻¹ (b − A_N x_N)` exactly.
    fn recompute_x(&mut self) {
        self.sv.copy_from_slice(&self.sf.b);
        for j in 0..self.n_total {
            if self.in_basis[j] {
                continue;
            }
            let xj = if self.at_upper[j] {
                self.upper[j]
            } else {
                self.lower[j]
            };
            if xj != 0.0 {
                if j < self.n {
                    for (r, v) in self.sf.a.col(j) {
                        self.sv[r] -= v * xj;
                    }
                } else {
                    self.sv[j - self.n] -= self.art_sign[j - self.n] * xj;
                }
            }
        }
        let t0 = Instant::now();
        self.fac.ftran(&mut self.sv, &mut self.x_basic);
        self.tele.ftran_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Refactorizes the current basis from scratch and recomputes `x_B`.
    /// `false` means the basis is numerically singular.
    fn refactor(&mut self) -> bool {
        match factor_basis(self.sf, &self.art_sign, &self.basis) {
            Some(lu) => {
                self.fac = Factorization::new(lu);
                self.tele.refactorizations += 1;
                self.recompute_x();
                true
            }
            None => false,
        }
    }

    /// Executes the basis exchange "`basis[r] := j`, entering at value
    /// `enter_val` after moving `step` along `sw`", records the eta (or
    /// refactorizes when the eta file is full / the pivot too small).
    fn apply_pivot(
        &mut self,
        r: usize,
        j: usize,
        step: f64,
        enter_val: f64,
    ) -> Result<(), SolveError> {
        let leaving = self.basis[r];
        if step != 0.0 {
            for k in 0..self.m {
                let wk = self.sw[k];
                if wk != 0.0 {
                    self.x_basic[k] -= step * wk;
                }
            }
        }
        self.x_basic[r] = enter_val;
        self.in_basis[leaving] = false;
        self.in_basis[j] = true;
        self.basis[r] = j;
        if leaving >= self.n {
            self.banned[leaving] = true;
        }
        self.iterations += 1;
        let pushed = self.fac.push_eta(r, &self.sw);
        self.tele.max_eta_len = self.tele.max_eta_len.max(self.fac.eta_len());
        if (!pushed || self.fac.eta_len() >= REFACTOR_INTERVAL) && !self.refactor() {
            // the basis went numerically singular: no stable way forward
            return Err(SolveError::IterationLimit {
                iterations: self.iterations,
            });
        }
        Ok(())
    }

    /// Bland pricing: first eligible column by index.
    fn price_bland(&self, cost: &[f64]) -> Option<(usize, bool)> {
        (0..self.n_total).find_map(|j| self.eligibility(j, cost).map(|f| (j, f)))
    }

    /// Eligibility of one column under the current duals `sy`; returns
    /// the `from_upper` flag when the column can improve the objective.
    #[inline]
    fn eligibility(&self, j: usize, cost: &[f64]) -> Option<bool> {
        if self.in_basis[j] || self.banned[j] || self.lower[j] == self.upper[j] {
            return None;
        }
        let d = cost[j] - self.col_dot(j, &self.sy);
        if self.at_upper[j] {
            (d > COST_TOL).then_some(true)
        } else {
            (d < -COST_TOL).then_some(false)
        }
    }

    /// Partial pricing: scan candidate blocks from a rotating start;
    /// within the first block containing an eligible column, pick the
    /// largest |reduced cost| (Dantzig). `None` after a full wrap means
    /// this phase is optimal.
    fn price_partial(&mut self, cost: &[f64]) -> Option<(usize, bool)> {
        let n = self.n_total;
        if n == 0 {
            return None;
        }
        let block = (n / 8).max(PRICE_BLOCK_MIN).min(n);
        let mut best: Option<(usize, f64, bool)> = None;
        let mut idx = self.price_start % n;
        let mut scanned = 0;
        while scanned < n {
            for _ in 0..block {
                if scanned >= n {
                    break;
                }
                let j = idx;
                idx = (idx + 1) % n;
                scanned += 1;
                if self.in_basis[j] || self.banned[j] || self.lower[j] == self.upper[j] {
                    continue;
                }
                let d = cost[j] - self.col_dot(j, &self.sy);
                let eligible = if self.at_upper[j] {
                    d > COST_TOL
                } else {
                    d < -COST_TOL
                };
                if eligible {
                    match best {
                        Some((_, b, _)) if d.abs() <= b => {}
                        _ => best = Some((j, d.abs(), self.at_upper[j])),
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        self.price_start = idx;
        best.map(|(j, _, f)| (j, f))
    }

    /// One simplex phase: minimize `cost · x` until optimal.
    fn run(&mut self, cost: &[f64], opts: &SolveOptions) -> Result<(), SolveError> {
        let bland_after = 20 * (self.m + self.n_total) + 200;
        let mut local = 0usize;
        loop {
            if self.iterations >= opts.max_simplex_iters {
                return Err(SolveError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            local += 1;
            let bland = local > bland_after;
            self.duals(cost);
            let enter = if bland {
                self.price_bland(cost)
            } else {
                self.price_partial(cost)
            };
            let Some((j, from_upper)) = enter else {
                return Ok(()); // optimal for this phase
            };
            let dir = if from_upper { -1.0 } else { 1.0 };
            self.ftran_col(j);
            // --- bounded-variable ratio test (mirrors the dense oracle) ---
            let span = self.upper[j] - self.lower[j]; // may be inf
            let mut delta = span;
            let mut leave: Option<(usize, bool)> = None;
            let mut best_piv = 0.0;
            for r in 0..self.m {
                let t = self.sw[r] * dir;
                let bj = self.basis[r];
                let xb = self.x_basic[r];
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
                    if delta != 0.0 {
                        for k in 0..self.m {
                            let wk = self.sw[k];
                            if wk != 0.0 {
                                self.x_basic[k] -= dir * delta * wk;
                            }
                        }
                    }
                    self.at_upper[j] = !self.at_upper[j];
                    self.iterations += 1;
                }
                Some((r, leaves_at_upper)) => {
                    let leaving = self.basis[r];
                    self.at_upper[leaving] = leaves_at_upper;
                    let rest = if from_upper { self.upper[j] } else { self.lower[j] };
                    self.apply_pivot(r, j, dir * delta, rest + dir * delta)?;
                }
            }
        }
    }

    /// Pivots every basic artificial out (degenerate swaps) or pins it at
    /// zero when its row is redundant. Call between the phases.
    fn drive_out_artificials(&mut self) -> Result<(), SolveError> {
        for r in 0..self.m {
            if self.basis[r] < self.n {
                continue;
            }
            self.inverse_row(r); // sr = row r of B^-1
            let mut found = None;
            for j in 0..self.n {
                if self.in_basis[j] || self.banned[j] {
                    continue;
                }
                if self.col_dot(j, &self.sr).abs() > 1e-7 {
                    found = Some(j);
                    break;
                }
            }
            match found {
                Some(j) => {
                    self.ftran_col(j);
                    if self.sw[r].abs() <= PIVOT_TOL {
                        // numerically inconsistent with ρ·a_j: pin instead
                        let a = self.basis[r];
                        self.lower[a] = 0.0;
                        self.upper[a] = 0.0;
                        continue;
                    }
                    // degenerate swap: the point does not move
                    let rest = if self.at_upper[j] { self.upper[j] } else { self.lower[j] };
                    self.apply_pivot(r, j, 0.0, rest)?;
                }
                None => {
                    // redundant row: pin the artificial so it can never move
                    let a = self.basis[r];
                    self.lower[a] = 0.0;
                    self.upper[a] = 0.0;
                }
            }
        }
        Ok(())
    }

    /// Largest bound violation among the basic variables.
    fn primal_infeasibility(&self) -> f64 {
        let mut worst = 0.0f64;
        for r in 0..self.m {
            let bj = self.basis[r];
            let xb = self.x_basic[r];
            worst = worst.max(self.lower[bj] - xb).max(xb - self.upper[bj]);
        }
        worst
    }

    /// Bounded-variable dual simplex: repairs primal infeasibility while
    /// keeping the reduced costs optimal-signed. Same contract as the
    /// dense oracle's repair: `Ok(false)` means "fall back to a cold
    /// solve" and is never a feasibility verdict.
    fn dual_repair(&mut self, cost: &[f64], opts: &SolveOptions) -> Result<bool, SolveError> {
        let budget = 5 * (self.m + self.n_total) + 100;
        let mut local = 0usize;
        loop {
            if self.iterations >= opts.max_simplex_iters {
                return Err(SolveError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            if local >= budget {
                return Ok(false);
            }
            local += 1;
            // --- most infeasible basic variable ---
            let mut worst: Option<(usize, f64, bool)> = None; // (row, violation, to_upper)
            for r in 0..self.m {
                let bj = self.basis[r];
                let xb = self.x_basic[r];
                let below = self.lower[bj] - xb;
                let above = xb - self.upper[bj];
                if below > FEAS_TOL && worst.is_none_or(|(_, v, _)| below > v) {
                    worst = Some((r, below, false));
                }
                if above > FEAS_TOL && worst.is_none_or(|(_, v, _)| above > v) {
                    worst = Some((r, above, true));
                }
            }
            let Some((r, _, to_upper)) = worst else {
                return Ok(true); // primal feasible
            };
            // --- dual ratio test over nonbasic columns ---
            self.duals(cost); // sy: duals for the reduced costs
            self.inverse_row(r); // sr: pivot row of B^-1
            let mut enter: Option<(usize, f64)> = None; // (col, ratio)
            for (j, &cj) in cost.iter().enumerate() {
                if self.in_basis[j] || self.banned[j] || self.lower[j] == self.upper[j] {
                    continue;
                }
                let t = self.col_dot(j, &self.sr);
                if t.abs() <= PIVOT_TOL {
                    continue;
                }
                let increases = if self.at_upper[j] { t > 0.0 } else { t < 0.0 };
                // need xB[r] to increase when below lower, decrease when above
                if increases == to_upper {
                    continue;
                }
                let d = cj - self.col_dot(j, &self.sy);
                let ratio = (d / t).abs();
                match enter {
                    Some((_, best)) if best <= ratio => {}
                    _ => enter = Some((j, ratio)),
                }
            }
            let Some((j, _)) = enter else {
                return Ok(false); // let the cold path decide feasibility
            };
            self.ftran_col(j);
            if self.sw[r].abs() <= PIVOT_TOL {
                return Ok(false); // FTRAN disagrees with ρ·a_j: bail out
            }
            let leaving = self.basis[r];
            let target = if to_upper {
                self.upper[leaving]
            } else {
                self.lower[leaving]
            };
            let step = (self.x_basic[r] - target) / self.sw[r];
            let rest = if self.at_upper[j] { self.upper[j] } else { self.lower[j] };
            self.at_upper[leaving] = to_upper;
            self.apply_pivot(r, j, step, rest + step)?;
        }
    }

    /// Extracts the optimum: full column values, objective in the model
    /// sense, and the basis snapshot for warm-starting children.
    fn finish(mut self, warm: bool) -> LpPoint {
        let mut x = vec![0.0; self.n];
        for (j, xj) in x.iter_mut().enumerate() {
            if !self.in_basis[j] {
                *xj = if self.at_upper[j] { self.upper[j] } else { self.lower[j] };
            }
        }
        for k in 0..self.m {
            if self.basis[k] < self.n {
                x[self.basis[k]] = self.x_basic[k];
            }
        }
        let objective = self.sf.model_objective(&x);
        self.tele.max_eta_len = self.tele.max_eta_len.max(self.fac.eta_len());
        self.at_upper.truncate(self.n);
        LpPoint {
            x,
            objective,
            iterations: self.iterations,
            basis: Basis {
                basic: self.basis,
                at_upper: self.at_upper,
            },
            warm,
            telemetry: self.tele,
        }
    }
}

/// A warm-start [`Basis`] checked against one [`StandardForm`]'s layout,
/// with the LU factors of its columns.
///
/// The factors depend on which columns are basic and on the matrix — not
/// on any column bound — so one `FactoredBasis` serves every LP that
/// starts from this basis over this form whatever its bound overrides:
/// branch & bound builds one per branched node and hands it to all of the
/// node's strong-branch probes and children ([`solve_bound_edit`]).
#[derive(Debug)]
pub struct FactoredBasis<'b> {
    basis: &'b Basis,
    lu: LuFactors,
}

impl<'b> FactoredBasis<'b> {
    /// Factorizes `basis` over `sf`. `None` when the basis does not fit
    /// this standard form (row/column counts, duplicate or artificial
    /// columns) or is numerically singular — callers solve cold then.
    pub fn new(sf: &StandardForm, basis: &'b Basis) -> Option<FactoredBasis<'b>> {
        let m = sf.nrows();
        let n = sf.ncols();
        if basis.basic.len() != m || basis.at_upper.len() != n {
            return None;
        }
        let mut seen = vec![false; n];
        for &j in &basis.basic {
            if j >= n || seen[j] {
                return None;
            }
            seen[j] = true;
        }
        let lu = factor_basis(sf, &[], &basis.basic)?;
        Some(FactoredBasis { basis, lu })
    }

    /// Whether this basis was laid out for a form of `sf`'s shape.
    fn fits(&self, sf: &StandardForm) -> bool {
        self.basis.basic.len() == sf.nrows() && self.basis.at_upper.len() == sf.ncols()
    }
}

/// Read-only access to the simplex tableau of an optimal basis — the
/// Gomory separator's window into `B⁻¹A`.
///
/// Wraps an [`Engine`] resting at a caller-supplied basis (normally the
/// final basis of the LP just solved), freshly factorized, without running
/// any simplex iterations, and exposes exactly what cut generation needs:
/// which column is basic in each row, the basic values, the resting
/// bounds, and full tableau rows computed on demand via BTRAN
/// (`ρ = B⁻ᵀeᵣ`) plus one sparse dot product per column — the same
/// machinery the dual-simplex pricing step uses, so reading a row costs
/// one BTRAN, not a dense inversion.
pub(crate) struct TableauView<'a> {
    e: Engine<'a>,
}

impl<'a> TableauView<'a> {
    /// Factorizes `basis` over `sf`. `None` when the basis does not fit
    /// this standard form or is numerically singular (see
    /// [`FactoredBasis::new`]) — callers just skip Gomory separation then.
    pub(crate) fn new(sf: &'a StandardForm, basis: &Basis) -> Option<TableauView<'a>> {
        let lu = FactoredBasis::new(sf, basis)?.lu;
        let e = Engine::at_basis(sf, &[], basis, Factorization::new(lu))?;
        Some(TableauView { e })
    }

    /// Number of rows (= basis positions).
    pub(crate) fn nrows(&self) -> usize {
        self.e.m
    }

    /// Column basic in row `r`.
    pub(crate) fn basic_col(&self, r: usize) -> usize {
        self.e.basis[r]
    }

    /// Current value of the variable basic in row `r`.
    pub(crate) fn basic_value(&self, r: usize) -> f64 {
        self.e.x_basic[r]
    }

    /// Whether nonbasic column `j` rests at its upper bound.
    pub(crate) fn at_upper(&self, j: usize) -> bool {
        self.e.at_upper[j]
    }

    /// Whether column `j` is basic.
    pub(crate) fn is_basic(&self, j: usize) -> bool {
        self.e.in_basis[j]
    }

    /// Fills `alpha` with tableau row `r` of `B⁻¹A` over the structural +
    /// slack columns and returns the row's right-hand side `(B⁻¹b)ᵣ`.
    /// The returned equality `Σⱼ alpha[j]·xⱼ = rhs` holds for every point
    /// with `Ax = b` — it is the base row Gomory cuts derive from.
    pub(crate) fn row(&mut self, r: usize, alpha: &mut Vec<f64>) -> f64 {
        self.e.inverse_row(r);
        let n = self.e.n;
        alpha.clear();
        alpha.extend((0..n).map(|j| self.e.col_dot(j, &self.e.sr)));
        self.e
            .sr
            .iter()
            .zip(&self.e.sf.b)
            .map(|(&y, &b)| y * b)
            .sum()
    }
}

/// Phase-2 cost vector: the standard-form objective on structural + slack
/// columns, zero on artificials.
fn phase2_cost(sf: &StandardForm) -> Vec<f64> {
    let mut cost = vec![0.0; sf.ncols() + sf.nrows()];
    cost[..sf.ncols()].copy_from_slice(&sf.c);
    cost
}

/// Solves the LP "`sf` with the column bounds `bounds` intersected in",
/// optionally warm-starting from `warm`: the engine installs the basis,
/// shares its factors read-only, computes `x_B` from this LP's own bounds
/// and repairs primal feasibility with dual simplex. On any trouble (the
/// basis does not fit `sf`, no eligible entering column, pivot budget) the
/// attempt is discarded and the cold two-phase path decides, so warm and
/// cold solves return the same optimum; the hint only changes how many
/// pivots it takes to get there. An override that empties a column's
/// domain is [`SolveError::Infeasible`].
///
/// [`LpTelemetry::refactorizations`] of the result counts the
/// factorizations *this* solve performed; the one behind `warm` belongs
/// to whoever built it.
pub fn solve_bound_edit(
    sf: &StandardForm,
    bounds: &[ColBound],
    opts: &SolveOptions,
    warm: Option<&FactoredBasis<'_>>,
) -> Result<LpPoint, SolveError> {
    let cost2 = phase2_cost(sf);
    if let Some(fb) = warm.filter(|fb| fb.fits(sf)) {
        let mut e = Engine::at_basis(sf, bounds, fb.basis, Factorization::shared(&fb.lu))
            .ok_or(SolveError::Infeasible)?;
        // `Ok(false)` from the repair is "let the cold path decide", never
        // a feasibility verdict
        if e.primal_infeasibility() <= FEAS_TOL || e.dual_repair(&cost2, opts)? {
            e.run(&cost2, opts)?;
            return Ok(e.finish(true));
        }
    }
    let e = Engine::cold(sf, bounds).ok_or(SolveError::Infeasible)?;
    two_phase(e, &cost2, opts)
}

/// The cold path from a starting basis of slacks and artificials: phase 1
/// over the artificials that are basic — none, and it is skipped whole —
/// then phase 2 on the real objective.
fn two_phase(mut e: Engine<'_>, cost2: &[f64], opts: &SolveOptions) -> Result<LpPoint, SolveError> {
    if e.basis.iter().any(|&j| j >= e.n) {
        // --- phase 1: minimize the sum of artificials ---
        let mut cost1 = vec![0.0; e.n_total];
        for c in cost1.iter_mut().skip(e.n) {
            *c = 1.0;
        }
        e.run(&cost1, opts)?;
        let art_sum: f64 = (0..e.m)
            .filter(|&k| e.basis[k] >= e.n)
            .map(|k| e.x_basic[k])
            .sum();
        if art_sum > FEAS_TOL {
            return Err(SolveError::Infeasible);
        }
        e.drive_out_artificials()?;
        for j in e.n..e.n_total {
            e.banned[j] = true;
        }
        // clean slate for phase 2: fold the eta file back into fresh
        // factors and recompute x_B exactly
        if !e.refactor() {
            return Err(SolveError::IterationLimit {
                iterations: e.iterations,
            });
        }
    }
    // --- phase 2: real objective ---
    e.run(cost2, opts)?;
    Ok(e.finish(false))
}

/// Solves the standard-form LP with the revised simplex, optionally
/// warm-starting from `hint` (factorized here, and counted in the
/// result's telemetry): [`solve_bound_edit`] with no bound override.
pub fn solve_standard_revised(
    sf: &StandardForm,
    opts: &SolveOptions,
    hint: Option<&Basis>,
) -> Result<LpPoint, SolveError> {
    let warm = hint.and_then(|h| FactoredBasis::new(sf, h));
    let mut point = solve_bound_edit(sf, &[], opts, warm.as_ref())?;
    point.telemetry.refactorizations += usize::from(warm.is_some());
    Ok(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Cmp, Model, Sense};
    use crate::simplex::{solve_lp_relaxation, solve_lp_relaxation_dense};

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn classic_lp_matches_dense() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, f64::INFINITY);
        let y = m.num_var("y", 0.0, f64::INFINITY);
        m.add_con(LinExpr::var(x), Cmp::Le, 4.0);
        m.add_con(LinExpr::new().term(y, 2.0), Cmp::Le, 12.0);
        m.add_con(LinExpr::new().term(x, 3.0).term(y, 2.0), Cmp::Le, 18.0);
        m.set_objective(LinExpr::new().term(x, 3.0).term(y, 5.0));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        let d = solve_lp_relaxation_dense(&m, &opts()).unwrap();
        assert!((s.objective - 36.0).abs() < 1e-6);
        assert!((s.objective - d.objective).abs() < 1e-9);
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, 1.0);
        m.add_con(LinExpr::var(x), Cmp::Ge, 2.0);
        assert_eq!(
            solve_lp_relaxation(&m, &opts()).unwrap_err(),
            SolveError::Infeasible
        );
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::var(x));
        assert_eq!(
            solve_lp_relaxation(&m, &opts()).unwrap_err(),
            SolveError::Unbounded
        );
    }

    #[test]
    fn telemetry_counts_refactorizations() {
        // enough pivots to outrun the refactor interval: the eta file must
        // be folded back at least once mid-phase and stay bounded
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..200)
            .map(|i| m.num_var(&format!("x{i}"), 0.0, 3.0))
            .collect();
        for w in vars.windows(2) {
            m.add_con(
                LinExpr::new().term(w[0], 1.0).term(w[1], 1.0),
                Cmp::Le,
                4.0,
            );
        }
        m.set_objective(LinExpr::sum(vars.iter().map(|&v| (v, 1.0))));
        let sf = StandardForm::from_model(&m).unwrap();
        let p = solve_standard_revised(&sf, &opts(), None).unwrap();
        assert!(p.iterations > REFACTOR_INTERVAL, "{} pivots", p.iterations);
        // every row starts on its slack, so no refactorization opens phase
        // 2: one counted is the interval firing
        assert!(p.telemetry.refactorizations >= 1, "{:?}", p.telemetry);
        assert!(p.telemetry.max_eta_len <= REFACTOR_INTERVAL);
        let d = solve_lp_relaxation_dense(&m, &opts()).unwrap();
        assert!((d.objective - p.objective).abs() < 1e-9);
    }

    /// Rows whose starting basic column is an artificial.
    fn artificial_rows(e: &Engine<'_>) -> Vec<usize> {
        (0..e.m).filter(|&r| e.basis[r] >= e.n).collect()
    }

    /// The cold solve as it was before the slack crash basis: all `m`
    /// artificials basic, then the same two phases.
    fn solve_all_artificial(sf: &StandardForm) -> Result<LpPoint, SolveError> {
        let e = Engine::cold(sf, &[]).expect("no override, no emptied domain");
        two_phase(e.all_artificial(), &phase2_cost(sf), &opts())
    }

    #[test]
    fn feasible_slack_basis_skips_phase_one() {
        // all `<=`, b >= 0, columns resting at 0: the slack basis is primal
        // feasible as it stands
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..40)
            .map(|i| m.num_var(&format!("x{i}"), 0.0, 3.0))
            .collect();
        for w in vars.windows(2) {
            m.add_con(LinExpr::new().term(w[0], 1.0).term(w[1], 1.0), Cmp::Le, 4.0);
        }
        m.add_con(LinExpr::var(vars[0]), Cmp::Le, 0.0);
        m.set_objective(LinExpr::sum(vars.iter().map(|&v| (v, 1.0))));
        let sf = StandardForm::from_model(&m).unwrap();
        let mut e = Engine::cold(&sf, &[]).unwrap();
        assert_eq!(artificial_rows(&e), Vec::<usize>::new());
        assert!(e.banned[e.n..].iter().all(|&b| b), "no artificial may ever enter");
        assert_eq!(e.primal_infeasibility(), 0.0);
        // the whole solve is phase 2 from that basis: the pivots of a bare
        // `run` on the real objective, not one more
        e.run(&phase2_cost(&sf), &opts()).unwrap();
        let p = solve_standard_revised(&sf, &opts(), None).unwrap();
        assert_eq!(p.iterations, e.iterations);
        assert!(!p.warm);
        // and one factorization fewer than from m artificials, which
        // refactorizes between the phases
        let old = solve_all_artificial(&sf).unwrap();
        assert_eq!(p.telemetry.refactorizations, 0);
        assert_eq!(old.telemetry.refactorizations, 1);
        assert!(old.iterations > p.iterations, "{} vs {}", old.iterations, p.iterations);
        assert_eq!(p.objective.to_bits(), old.objective.to_bits());
    }

    #[test]
    fn artificials_only_where_the_slack_cannot_carry_the_residual() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 4.0);
        let y = m.num_var("y", 0.0, 4.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 2.0), Cmp::Le, 6.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 1.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, -1.0), Cmp::Le, 0.0);
        m.add_con(LinExpr::new().term(x, 2.0).term(y, 1.0), Cmp::Eq, 3.0);
        m.add_con(LinExpr::var(y), Cmp::Le, 3.0);
        m.set_objective(LinExpr::new().term(x, 1.0).term(y, 1.0));
        let sf = StandardForm::from_model(&m).unwrap();
        let e = Engine::cold(&sf, &[]).unwrap();
        // `>= 1` lowers to `-x - y + s = -1` (residual -1); the `=` row's
        // slack is fixed at 0 and cannot hold its residual 3
        assert_eq!(artificial_rows(&e), vec![1, 3]);
        assert_eq!((e.art_sign[1], e.art_sign[3]), (-1.0, 1.0));
        assert_eq!(e.x_basic, vec![6.0, 1.0, 0.0, 3.0, 3.0]);
        for r in 0..e.m {
            let artificial = r == 1 || r == 3;
            assert_eq!(e.basis[r], if artificial { e.n + r } else { sf.n_struct + r });
            assert_eq!(e.banned[e.n + r], !artificial);
        }
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        let d = solve_lp_relaxation_dense(&m, &opts()).unwrap();
        assert!((s.objective - d.objective).abs() < 1e-9);
        assert!((s.objective - 3.0).abs() < 1e-9, "x = 0, y = 3; got {}", s.objective);
    }

    #[test]
    fn lifted_lower_bound_puts_the_artificial_on_the_row_it_breaks() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 6.0);
        let y = m.num_var("y", 0.0, 6.0);
        let z = m.num_var("z", 0.0, 6.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, -1.0), Cmp::Le, 2.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(z, 1.0), Cmp::Le, 8.0);
        m.add_con(LinExpr::new().term(y, 1.0).term(z, 1.0), Cmp::Le, 7.0);
        m.set_objective(LinExpr::new().term(x, 1.0).term(y, 2.0).term(z, 1.0));
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(artificial_rows(&Engine::cold(&sf, &[]).unwrap()), Vec::<usize>::new());
        // x >= 3 at y = 0 overshoots row 0 (x - y <= 2) and no other
        let lifted = [sf.col_bound(x.index(), 3.0, f64::INFINITY).unwrap()];
        let e = Engine::cold(&sf, &lifted).unwrap();
        assert_eq!(artificial_rows(&e), vec![0]);
        assert_eq!((e.art_sign[0], e.x_basic[0]), (-1.0, 1.0));
        let edit = solve_bound_edit(&sf, &lifted, &opts(), None).unwrap();
        // the same LP the long way: a re-lowered model
        let mut child = m.clone();
        child.vars[x.index()].lower = 3.0;
        let csf = StandardForm::from_model(&child).unwrap();
        let rebuilt = solve_standard_revised(&csf, &opts(), None).unwrap();
        assert_eq!(edit.objective.to_bits(), rebuilt.objective.to_bits());
        assert_eq!(edit.basis, rebuilt.basis);
        assert_eq!(edit.iterations, rebuilt.iterations);
        assert!(!edit.warm && !rebuilt.warm);
        let d = solve_lp_relaxation_dense(&child, &opts()).unwrap();
        assert!((edit.objective - d.objective).abs() < 1e-9);
    }

    /// The sweep of `tests/tests/cold_start_differential.rs`, engine
    /// against engine: the slack crash start and the all-artificial start
    /// it replaced reach the same verdict and the same optimum on every LP
    /// of the family, both as cold solves.
    #[test]
    fn slack_crash_start_agrees_with_the_all_artificial_start() {
        // rows by starting column, LPs by whether phase 1 ran
        let (mut on_slack, mut on_artificial, mut skipped, mut mixed) = (0, 0, 0, 0);
        // `<=`/`>=` rows that need an artificial, `=` rows with residual 0
        let (mut overshot, mut fixed_at_zero) = (0, 0);
        let (mut optimal, mut infeasible, mut unbounded) = (0, 0, 0);
        for case in 0..600 {
            let model = crate::lp_fuzz::random_lp(case);
            let sf = StandardForm::from_model(&model).unwrap();
            let e = Engine::cold(&sf, &[]).unwrap();
            let arts = artificial_rows(&e);
            on_artificial += arts.len();
            on_slack += e.m - arts.len();
            skipped += usize::from(arts.is_empty() && e.m > 0);
            mixed += usize::from(!arts.is_empty() && arts.len() < e.m);
            for &r in &arts {
                let eq = model.cons[r].cmp == Cmp::Eq;
                overshot += usize::from(!eq);
                fixed_at_zero += usize::from(eq && e.x_basic[r] == 0.0);
            }
            match (solve_bound_edit(&sf, &[], &opts(), None), solve_all_artificial(&sf)) {
                (Ok(new), Ok(old)) => {
                    assert!(
                        (new.objective - old.objective).abs() <= 1e-9,
                        "case {case}: {} vs {}",
                        new.objective,
                        old.objective
                    );
                    assert!(!new.warm && !old.warm, "case {case}");
                    optimal += 1;
                }
                (Err(new), Err(old)) => {
                    assert_eq!(new, old, "case {case}");
                    match new {
                        SolveError::Infeasible => infeasible += 1,
                        SolveError::Unbounded => unbounded += 1,
                        other => panic!("case {case}: {other}"),
                    }
                }
                (new, old) => panic!(
                    "case {case}: slack crash {:?} vs all-artificial {:?}",
                    new.map(|p| p.objective),
                    old.map(|p| p.objective)
                ),
            }
        }
        println!(
            "rows: {on_slack} slack-started, {on_artificial} artificial ({overshot} inequality, \
             {fixed_at_zero} `=` at 0); LPs: {skipped} without phase 1, {mixed} mixed; \
             {optimal} optimal, {infeasible} infeasible, {unbounded} unbounded"
        );
        // the family must keep reaching every branch of the rule
        assert!(on_slack >= 300 && on_artificial >= 300);
        assert!(overshot >= 100 && fixed_at_zero >= 10);
        assert!(skipped >= 30 && mixed >= 100);
        assert!(optimal >= 200 && infeasible >= 40 && unbounded >= 40);
    }

    #[test]
    fn warm_start_refactorizes_parent_basis() {
        // knapsack LP, tighten a bound, warm start from the parent basis
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
        let sf = StandardForm::from_model(&m).unwrap();
        let parent = solve_standard_revised(&sf, &opts(), None).unwrap();
        assert!(!parent.warm);
        let mut child = m.clone();
        child.vars[0].upper = 1.0;
        let csf = StandardForm::from_model(&child).unwrap();
        let warm = solve_standard_revised(&csf, &opts(), Some(&parent.basis)).unwrap();
        let cold = solve_standard_revised(&csf, &opts(), None).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert!(warm.warm, "expected the sparse warm path to succeed");
        // the hint was factorized for this solve, and counted
        assert!(warm.telemetry.refactorizations >= 1);
    }

    #[test]
    fn children_are_bound_edits_over_one_shared_factorization() {
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
        let sf = StandardForm::from_model(&m).unwrap();
        let parent = solve_standard_revised(&sf, &opts(), None).unwrap();
        // one factorization, two children with different bounds on y
        let fb = FactoredBasis::new(&sf, &parent.basis).expect("optimal basis factorizes");
        for (lo, hi) in [(f64::NEG_INFINITY, 1.0), (2.0, f64::INFINITY)] {
            let bound = sf.col_bound(y.index(), lo, hi).unwrap();
            let edit = solve_bound_edit(&sf, &[bound], &opts(), Some(&fb)).unwrap();
            // the same LP the long way: a re-lowered model, its own factors
            let mut child = m.clone();
            child.vars[y.index()].lower = child.vars[y.index()].lower.max(lo);
            child.vars[y.index()].upper = child.vars[y.index()].upper.min(hi);
            let csf = StandardForm::from_model(&child).unwrap();
            let rebuilt = solve_standard_revised(&csf, &opts(), Some(&parent.basis)).unwrap();
            assert_eq!(edit.objective.to_bits(), rebuilt.objective.to_bits());
            assert_eq!(edit.basis, rebuilt.basis);
            assert_eq!(edit.iterations, rebuilt.iterations);
            assert!(edit.warm && rebuilt.warm);
            // the shared factorization is its builder's to count
            assert_eq!(edit.telemetry.refactorizations, 0);
            assert_eq!(rebuilt.telemetry.refactorizations, 1);
        }
        // the parent form is untouched by either child
        assert_eq!((sf.lower[1], sf.upper[1]), (0.0, 4.0));
    }

    #[test]
    fn emptied_domain_is_infeasible_warm_or_cold() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 4.0);
        m.add_con(LinExpr::var(x), Cmp::Le, 3.0);
        m.set_objective(LinExpr::var(x));
        let sf = StandardForm::from_model(&m).unwrap();
        let parent = solve_standard_revised(&sf, &opts(), None).unwrap();
        let fb = FactoredBasis::new(&sf, &parent.basis);
        let crossed = [(0, 5.0, f64::INFINITY)];
        for warm in [fb.as_ref(), None] {
            assert_eq!(
                solve_bound_edit(&sf, &crossed, &opts(), warm).unwrap_err(),
                SolveError::Infeasible
            );
        }
    }

    #[test]
    fn factored_basis_of_another_form_is_ignored() {
        let mut small = Model::new(Sense::Maximize);
        let x = small.num_var("x", 0.0, 4.0);
        small.add_con(LinExpr::var(x), Cmp::Le, 3.0);
        small.set_objective(LinExpr::var(x));
        let ssf = StandardForm::from_model(&small).unwrap();
        let sp = solve_standard_revised(&ssf, &opts(), None).unwrap();
        let fb = FactoredBasis::new(&ssf, &sp.basis).unwrap();
        let mut big = small.clone();
        let y = big.num_var("y", 0.0, 1.0);
        big.add_con(LinExpr::var(y), Cmp::Le, 0.5);
        let bsf = StandardForm::from_model(&big).unwrap();
        assert!(FactoredBasis::new(&bsf, &sp.basis).is_none());
        let p = solve_bound_edit(&bsf, &[], &opts(), Some(&fb)).unwrap();
        assert!(!p.warm, "a basis laid out for another form must not be installed");
        assert!((p.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn singular_warm_hint_falls_back_to_cold() {
        // the two equality rows are scalar multiples, so the structural
        // columns x = (1, 2) and y = (1, 2) are parallel: hinting {x, y}
        // basic hands the warm path a singular basis to refactorize
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 10.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Eq, 2.0);
        m.add_con(LinExpr::new().term(x, 2.0).term(y, 2.0), Cmp::Eq, 4.0);
        m.set_objective(LinExpr::var(x));
        let sf = StandardForm::from_model(&m).unwrap();
        let hint = Basis {
            basic: vec![0, 1],
            at_upper: vec![false; sf.ncols()],
        };
        let cold = solve_standard_revised(&sf, &opts(), None).unwrap();
        let s = solve_standard_revised(&sf, &opts(), Some(&hint)).unwrap();
        assert!(!s.warm, "singular hint must fall back");
        assert!((s.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn degenerate_redundant_rows_terminate() {
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
    fn bound_flips_and_fixed_vars() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 2.0, 2.0);
        let y = m.num_var("y", 0.0, 1.0);
        let z = m.num_var("z", 0.0, 1.0);
        m.add_con(LinExpr::new().term(y, 1.0).term(z, 1.0), Cmp::Le, 1.5);
        m.set_objective(
            LinExpr::new().term(x, 1.0).term(y, 1.0).term(z, 1.0),
        );
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 3.5).abs() < 1e-6);
        assert!((s.values[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn free_and_negated_variables() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", f64::NEG_INFINITY, f64::INFINITY);
        m.add_con(LinExpr::var(x), Cmp::Ge, -7.0);
        m.set_objective(LinExpr::var(x));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective + 7.0).abs() < 1e-6);
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", f64::NEG_INFINITY, 9.0);
        m.add_con(LinExpr::var(x), Cmp::Ge, 1.0);
        m.set_objective(LinExpr::var(x));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 9.0).abs() < 1e-6);
    }

    /// Beale's classic cycling example: a dense tableau with naive
    /// Dantzig pricing cycles forever on it; the Bland switch must
    /// terminate both engines at the optimum (-0.05).
    #[test]
    fn beale_cycling_instance_terminates() {
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.num_var("x1", 0.0, f64::INFINITY);
        let x2 = m.num_var("x2", 0.0, f64::INFINITY);
        let x3 = m.num_var("x3", 0.0, f64::INFINITY);
        let x4 = m.num_var("x4", 0.0, f64::INFINITY);
        m.add_con(
            LinExpr::new()
                .term(x1, 0.25)
                .term(x2, -60.0)
                .term(x3, -0.04)
                .term(x4, 9.0),
            Cmp::Le,
            0.0,
        );
        m.add_con(
            LinExpr::new()
                .term(x1, 0.5)
                .term(x2, -90.0)
                .term(x3, -0.02)
                .term(x4, 3.0),
            Cmp::Le,
            0.0,
        );
        m.add_con(LinExpr::var(x3), Cmp::Le, 1.0);
        m.set_objective(
            LinExpr::new()
                .term(x1, -0.75)
                .term(x2, 150.0)
                .term(x3, -0.02)
                .term(x4, 6.0),
        );
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        let d = solve_lp_relaxation_dense(&m, &opts()).unwrap();
        assert!((s.objective + 0.05).abs() < 1e-6, "got {}", s.objective);
        assert!((s.objective - d.objective).abs() < 1e-9);
    }

    #[test]
    fn no_constraint_problem() {
        // m == 0: pure bound optimization, empty basis throughout
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 5.0);
        let y = m.num_var("y", -1.0, 2.0);
        m.set_objective(LinExpr::new().term(x, 2.0).term(y, -1.0));
        let s = solve_lp_relaxation(&m, &opts()).unwrap();
        assert!((s.objective - 11.0).abs() < 1e-9);
    }
}

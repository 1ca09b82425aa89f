//! Conversion of a [`Model`] to computational standard form.
//!
//! Standard form used by the simplex solver:
//!
//! ```text
//!   minimize  c' x
//!   s.t.      A x = b          (one slack column per original row)
//!             l <= x <= u      (every column has a FINITE lower bound)
//! ```
//!
//! `>=` rows are negated into `<=` rows; `<=` rows get a slack in `[0, ∞)`
//! and `=` rows a fixed slack in `[0, 0]`. Variables with an infinite lower
//! bound are negated (if the upper bound is finite) or split into a
//! difference of two non-negative columns, so the finite-lower-bound
//! invariant always holds. Bounds are kept as bounds (nothing is shifted
//! to zero), which is what makes a branch-and-bound child cheap: it is
//! this same form with a few column bounds tightened ([`ColBound`],
//! [`StandardForm::col_bound`]), handed to
//! [`crate::revised::solve_bound_edit`] — the model is lowered once per
//! solve (and once per change of the root cut-row set), never per LP.
//!
//! # Two copies of `A`, one assembly
//!
//! The lowering walks the model's rows in order and assembles the matrix
//! row-major ([`Csr`], kept as [`StandardForm::rows`]): a row's terms on
//! one column are summed in term order and a sum of zero leaves no entry.
//! The column-major matrix the engine factorizes ([`Csc`],
//! [`StandardForm::a`]) is that copy's counting transpose — no sort, and
//! every value is the row copy's own bits. The engine reads columns for
//! pricing, FTRAN and factorization, and rows for `ρᵀA`, the pivot row of
//! the dual ratio test and of a Gomory base row (see [`crate::revised`]).

use crate::error::SolveError;
use crate::model::{Cmp, Model, Sense, VarKind};

/// Compressed-sparse-column matrix — the native storage of the
/// constraint matrix.
///
/// Columns are contiguous runs of `(row, value)` pairs; rows inside a
/// column are strictly increasing and explicit zeros are absent (it is the
/// counting transpose of the row-major copy, `Csr::transpose`). The
/// revised simplex engine consumes columns directly (pricing dot products,
/// FTRAN right-hand sides, basis factorizations); the dense tableau engine
/// and the tests expand via [`Csc::to_dense`].
#[derive(Debug, Clone)]
pub struct Csc {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Start offset of each column in `row_idx`/`values`; `ncols + 1`
    /// entries, last = total nonzero count.
    pub col_ptr: Vec<usize>,
    /// Row index per nonzero, ascending within each column.
    pub row_idx: Vec<usize>,
    /// Value per nonzero.
    pub values: Vec<f64>,
}

/// Compressed-sparse-row matrix — the constraint matrix's row-major copy,
/// which the dual ratio test and the Gomory base row read one sparse row
/// at a time (`ρᵀA` over the rows where `ρ` is nonzero).
///
/// Rows are contiguous runs of `(col, value)` pairs, each column at most
/// once per row, in the order the columns first appear in the model row
/// (its terms, then its slack); explicit zeros are absent.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Start offset of each row in `col_idx`/`values`; `nrows + 1`
    /// entries, last = total nonzero count.
    pub row_ptr: Vec<usize>,
    /// Column index per nonzero.
    pub col_idx: Vec<usize>,
    /// Value per nonzero.
    pub values: Vec<f64>,
}

impl Csr {
    /// The `(columns, values)` of row `r`, as two parallel slices.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// `out = ρᵀA`, one sparse row of `A` per nonzero of `ρ`: `out[j]` takes
    /// the products `ρ_r·a_rj` in ascending `r`, the order a column dot
    /// product takes them in, so it equals `Σ_r ρ_r·a_rj` over column `j`
    /// bit for bit except, possibly, in the sign of a zero — the rows
    /// skipped here only add `±0`. `out` has one entry per column.
    pub fn left_mul(&self, rho: &[f64], out: &mut [f64]) {
        out.fill(-0.0);
        for (r, &p) in rho.iter().enumerate().take(self.nrows) {
            if p == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&j, &v) in cols.iter().zip(vals) {
                out[j] += p * v;
            }
        }
    }

    /// The same matrix column-major, in one counting pass: column counts,
    /// their prefix sums, then every row's entries dropped into their
    /// columns in row order — so rows ascend inside each column, and every
    /// value is copied, never recomputed.
    pub(crate) fn transpose(&self) -> Csc {
        let mut col_ptr = vec![0usize; self.ncols + 1];
        for &j in &self.col_idx {
            col_ptr[j + 1] += 1;
        }
        for j in 0..self.ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr[..self.ncols].to_vec();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&j, &v) in cols.iter().zip(vals) {
                let p = next[j];
                next[j] += 1;
                row_idx[p] = r;
                values[p] = v;
            }
        }
        Csc {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr,
            row_idx,
            values,
        }
    }
}

/// Row-by-row assembly of a [`Csr`]: what is added to the open row is
/// summed per column in the order it arrives, and closing the row drops
/// the columns whose sum is zero.
struct RowBuilder {
    csr: Csr,
    /// Entry of each column in the open row, `usize::MAX` when absent.
    slot: Vec<usize>,
}

impl RowBuilder {
    fn new(nrows: usize, ncols: usize, nnz_hint: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        RowBuilder {
            csr: Csr {
                nrows,
                ncols,
                row_ptr,
                col_idx: Vec::with_capacity(nnz_hint),
                values: Vec::with_capacity(nnz_hint),
            },
            slot: vec![usize::MAX; ncols],
        }
    }

    /// Adds `v` at column `j` of the open row.
    #[inline]
    fn add(&mut self, j: usize, v: f64) {
        match self.slot[j] {
            usize::MAX => {
                self.slot[j] = self.csr.col_idx.len();
                self.csr.col_idx.push(j);
                self.csr.values.push(v);
            }
            k => self.csr.values[k] += v,
        }
    }

    /// Closes the open row: zero sums leave, the rest keep their order.
    fn close_row(&mut self) {
        let start = self.csr.row_ptr[self.csr.row_ptr.len() - 1];
        let mut kept = start;
        for k in start..self.csr.col_idx.len() {
            let (j, v) = (self.csr.col_idx[k], self.csr.values[k]);
            self.slot[j] = usize::MAX;
            if v != 0.0 {
                self.csr.col_idx[kept] = j;
                self.csr.values[kept] = v;
                kept += 1;
            }
        }
        self.csr.col_idx.truncate(kept);
        self.csr.values.truncate(kept);
        self.csr.row_ptr.push(kept);
    }
}

impl Csc {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Iterates the `(row, value)` pairs of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Nonzero count of column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Element accessor (binary search within the column) — test helper;
    /// hot paths iterate [`Csc::col`] instead.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        let range = self.col_ptr[c]..self.col_ptr[c + 1];
        match self.row_idx[range.clone()].binary_search(&r) {
            Ok(k) => self.values[range.start + k],
            Err(_) => 0.0,
        }
    }

    /// Expands to a dense row-major matrix — for tests and the dense
    /// oracle engine only.
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            for (r, v) in self.col(j) {
                *d.at_mut(r, j) = v;
            }
        }
        d
    }
}

/// Dense row-major matrix — working storage of the dense tableau engine
/// (the differential oracle); the constraint matrix itself is [`Csc`].
#[derive(Debug, Clone)]
pub struct Dense {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row-major storage, `nrows * ncols` entries.
    pub data: Vec<f64>,
}

impl Dense {
    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Dense {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.ncols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.ncols + c]
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }
}

/// How a model variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColMap {
    /// `x = col`.
    Direct(usize),
    /// `x = -col` (variable had `lower = -inf`, finite upper).
    Negated(usize),
    /// `x = pos - neg` (free variable).
    Split {
        /// Column for the positive part.
        pos: usize,
        /// Column for the negative part.
        neg: usize,
    },
}

/// A column-bound override `(col, lo, hi)`: the LP is solved with
/// `max(lower[col], lo) <= x_col <= min(upper[col], hi)`.
pub type ColBound = (usize, f64, f64);

#[cfg(test)]
thread_local! {
    /// Calls of [`StandardForm::from_model`] on this thread — the guard
    /// that keeps a per-LP lowering from coming back (see the test in
    /// `branch.rs`).
    pub(crate) static LOWERINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A model lowered to standard form, with the bookkeeping needed to map a
/// standard-form point back to model-variable space.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Constraint matrix including slack columns, in compressed sparse
    /// column form. The paper's time-indexed instances are >99 % zeros,
    /// so every solver-side traversal is sparse.
    pub a: Csc,
    /// The same matrix row-major, entry for entry and bit for bit: `a` is
    /// its transpose. The dual ratio test and the Gomory base row read it.
    pub rows: Csr,
    /// Right-hand sides.
    pub b: Vec<f64>,
    /// Objective (always MINIMIZE internally; negated for max models).
    pub c: Vec<f64>,
    /// The simplex engine's phase-2 cost: `c`, then a zero for each row's
    /// artificial column. Built once here for every LP over this form.
    pub(crate) phase2_cost: Vec<f64>,
    /// Per-column lower bounds (all finite).
    pub lower: Vec<f64>,
    /// Per-column upper bounds (may be `+inf`).
    pub upper: Vec<f64>,
    /// Map from model variable index to column(s).
    pub var_map: Vec<ColMap>,
    /// Number of structural (non-slack) columns.
    pub n_struct: usize,
    /// Objective constant in the ORIGINAL model sense.
    pub obj_constant: f64,
    /// True when the model maximizes (objective was negated).
    pub maximize: bool,
}

impl StandardForm {
    /// Lowers `model` into standard form. Fails on malformed models and on
    /// integer variables with a doubly-infinite domain (branch & bound
    /// could not terminate on those).
    pub fn from_model(model: &Model) -> Result<Self, SolveError> {
        #[cfg(test)]
        LOWERINGS.with(|c| c.set(c.get() + 1));
        model.validate()?;
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        let mut var_map = Vec::with_capacity(model.vars.len());
        for v in &model.vars {
            if v.lower.is_finite() {
                var_map.push(ColMap::Direct(lower.len()));
                lower.push(v.lower);
                upper.push(v.upper);
            } else if v.upper.is_finite() {
                // x in (-inf, u]  =>  y = -x in [-u, inf)
                var_map.push(ColMap::Negated(lower.len()));
                lower.push(-v.upper);
                upper.push(f64::INFINITY);
            } else {
                if v.kind == VarKind::Integer {
                    return Err(SolveError::BadModel(format!(
                        "integer var {} has doubly-infinite bounds",
                        v.name
                    )));
                }
                var_map.push(ColMap::Split {
                    pos: lower.len(),
                    neg: lower.len() + 1,
                });
                lower.extend([0.0, 0.0]);
                upper.extend([f64::INFINITY, f64::INFINITY]);
            }
        }
        let n_struct = lower.len();
        let m = model.cons.len();
        let n = n_struct + m; // one slack per row
        let nnz_hint: usize = model.cons.iter().map(|c| c.expr.terms.len() + 1).sum();
        // row-major first, the model's rows in order: a row's terms on one
        // column are summed in term order, and a sum of zero leaves no entry
        let mut rows = RowBuilder::new(m, n, nnz_hint);
        let mut b = vec![0.0; m];
        for (r, con) in model.cons.iter().enumerate() {
            let sign = if con.cmp == Cmp::Ge { -1.0 } else { 1.0 };
            for &(v, coef) in &con.expr.terms {
                let coef = coef * sign;
                match var_map[v.0] {
                    ColMap::Direct(c) => rows.add(c, coef),
                    ColMap::Negated(c) => rows.add(c, -coef),
                    ColMap::Split { pos, neg } => {
                        rows.add(pos, coef);
                        rows.add(neg, -coef);
                    }
                }
            }
            b[r] = con.rhs * sign;
            // slack column
            rows.add(n_struct + r, 1.0);
            rows.close_row();
            match con.cmp {
                Cmp::Le | Cmp::Ge => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                Cmp::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }
        // objective
        let maximize = model.sense == Sense::Maximize;
        let osign = if maximize { -1.0 } else { 1.0 };
        let mut c = vec![0.0; n];
        let compact = model.objective.compact();
        for &(v, coef) in &compact.terms {
            let coef = coef * osign;
            match var_map[v.0] {
                ColMap::Direct(cc) => c[cc] += coef,
                ColMap::Negated(cc) => c[cc] -= coef,
                ColMap::Split { pos, neg } => {
                    c[pos] += coef;
                    c[neg] -= coef;
                }
            }
        }
        let rows = rows.csr;
        let mut phase2_cost = Vec::with_capacity(n + m);
        phase2_cost.extend_from_slice(&c);
        phase2_cost.resize(n + m, 0.0);
        Ok(StandardForm {
            a: rows.transpose(),
            rows,
            b,
            c,
            phase2_cost,
            lower,
            upper,
            var_map,
            n_struct,
            obj_constant: compact.constant,
            maximize,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.a.nrows
    }

    /// Number of columns (structural + slack).
    pub fn ncols(&self) -> usize {
        self.a.ncols
    }

    /// The column-space image of the model-space bound `lo <= x_var <= hi`
    /// (either side may be infinite): `x = col` keeps it, `x = -col` turns
    /// `x <= hi` into `col >= -hi`. `None` for a split (free) variable,
    /// whose bound is not a column bound; integer variables — the only
    /// ones branching tightens — are never split.
    pub fn col_bound(&self, var: usize, lo: f64, hi: f64) -> Option<ColBound> {
        match self.var_map[var] {
            ColMap::Direct(c) => Some((c, lo, hi)),
            ColMap::Negated(c) => Some((c, -hi, -lo)),
            ColMap::Split { .. } => None,
        }
    }

    /// Maps a standard-form point back to model-variable values.
    pub fn extract(&self, x: &[f64]) -> Vec<f64> {
        self.var_map
            .iter()
            .map(|m| match *m {
                ColMap::Direct(c) => x[c],
                ColMap::Negated(c) => -x[c],
                ColMap::Split { pos, neg } => x[pos] - x[neg],
            })
            .collect()
    }

    /// Objective value of a standard-form point, in the ORIGINAL sense,
    /// including the objective constant.
    pub fn model_objective(&self, x: &[f64]) -> f64 {
        let internal: f64 = self.c.iter().zip(x).map(|(c, x)| c * x).sum();
        let sign = if self.maximize { -1.0 } else { 1.0 };
        sign * internal + self.obj_constant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::lp_fuzz::{assert_lowering_matches, random_lp, with_cut_rows};
    use crate::model::{Cmp, Model, Sense};

    #[test]
    fn slack_kinds_per_cmp() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, 10.0);
        m.add_con(LinExpr::var(x), Cmp::Le, 4.0);
        m.add_con(LinExpr::var(x), Cmp::Eq, 4.0);
        m.add_con(LinExpr::var(x), Cmp::Ge, 1.0);
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(sf.nrows(), 3);
        assert_eq!(sf.ncols(), 4);
        // Le slack: [0, inf)
        assert_eq!(sf.lower[1], 0.0);
        assert!(sf.upper[1].is_infinite());
        // Eq slack: fixed
        assert_eq!((sf.lower[2], sf.upper[2]), (0.0, 0.0));
        // Ge row negated: coefficient -1, rhs -1
        assert_eq!(sf.a.at(2, 0), -1.0);
        assert_eq!(sf.b[2], -1.0);
    }

    #[test]
    fn maximize_negates_objective() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 1.0);
        m.set_objective(LinExpr::var(x).plus(5.0));
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(sf.c[0], -1.0);
        assert_eq!(sf.obj_constant, 5.0);
        assert_eq!(sf.model_objective(&[1.0, /*no slack rows*/]), 6.0);
    }

    #[test]
    fn negated_and_split_variables_round_trip() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.num_var("a", f64::NEG_INFINITY, 3.0);
        let b = m.num_var("b", f64::NEG_INFINITY, f64::INFINITY);
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(sf.var_map[a.index()], ColMap::Negated(0));
        assert!(matches!(sf.var_map[b.index()], ColMap::Split { .. }));
        // standard point: col0 = -2 (=> a = 2), pos=5, neg=1 (=> b = 4)
        let x = vec![-2.0, 5.0, 1.0];
        let back = sf.extract(&x);
        assert_eq!(back, vec![2.0, 4.0]);
        // all lower bounds finite
        assert!(sf.lower.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn free_integer_rejected() {
        let mut m = Model::new(Sense::Minimize);
        m.int_var("z", f64::NEG_INFINITY, f64::INFINITY);
        assert!(StandardForm::from_model(&m).is_err());
    }

    #[test]
    fn row_builder_sums_in_term_order_and_transposes() {
        // duplicates sum in the order they arrive; zeros (explicit and
        // cancelled) are dropped; a row keeps its first-appearance order
        let mut b = RowBuilder::new(3, 3, 8);
        for (j, v) in [(0, 2.0), (2, 0.1), (0, 3.0), (2, 0.2), (2, 0.3)] {
            b.add(j, v);
        }
        b.close_row();
        for (j, v) in [(1, 4.0), (1, -4.0), (2, 0.0)] {
            b.add(j, v);
        }
        b.close_row();
        b.add(2, 1.0);
        b.add(0, 1.0);
        b.close_row();
        let rows = b.csr;
        let sum = (0.1 + 0.2) + 0.3;
        assert_ne!(sum, 0.1 + (0.2 + 0.3), "the order must be visible");
        assert_eq!(rows.row(0), (&[0, 2][..], &[5.0, sum][..]));
        assert_eq!(rows.row(1), (&[][..], &[][..]));
        assert_eq!(rows.row(2), (&[2, 0][..], &[1.0, 1.0][..]));
        let c = rows.transpose();
        assert_eq!((c.nnz(), c.col_nnz(0), c.col_nnz(1)), (4, 2, 0));
        let col0: Vec<_> = c.col(0).collect();
        assert_eq!(col0, vec![(0, 5.0), (2, 1.0)]); // rows ascending
        let col2: Vec<_> = c.col(2).collect();
        assert_eq!(col2, vec![(0, sum), (2, 1.0)]);
        let d = c.to_dense();
        assert_eq!(d.at(0, 0), 5.0);
        assert_eq!(d.at(1, 1), 0.0);
    }

    /// The dense reference is [`crate::lp_fuzz::assert_lowering_matches`];
    /// `tests/tests/lowering.rs` runs it on the scheduling models.
    #[test]
    fn lowering_matches_a_dense_accumulation() {
        // the edge cases by hand: three terms on one column, a sum that
        // cancels, `>=` rows, a negated and a split column
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", f64::NEG_INFINITY, f64::INFINITY);
        let z = m.num_var("z", f64::NEG_INFINITY, 3.0);
        m.add_con(LinExpr::new().term(x, 0.1).term(x, 0.2).term(x, 0.3).term(y, 1.0), Cmp::Le, 4.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(z, 2.0).term(x, -1.0), Cmp::Ge, 1.0);
        m.add_con(LinExpr::new().term(y, 0.5).term(y, -0.25).term(z, 1.0 / 3.0), Cmp::Eq, 2.0);
        m.add_con(LinExpr::new().term(y, 1.0).term(y, -1.0), Cmp::Ge, -1.0);
        let sf = StandardForm::from_model(&m).unwrap();
        let ColMap::Split { pos, neg } = sf.var_map[y.index()] else { panic!("y is free") };
        let ColMap::Negated(zc) = sf.var_map[z.index()] else { panic!("z is negated") };
        assert_eq!(sf.a.at(0, 0).to_bits(), ((0.1 + 0.2) + 0.3f64).to_bits());
        assert_eq!((sf.a.at(0, pos), sf.a.at(0, neg)), (1.0, -1.0));
        assert_eq!((sf.a.at(1, 0), sf.a.at(1, zc)), (0.0, 2.0)); // cancelled; flipped twice
        assert_eq!(sf.rows.row(1).0, &[zc, sf.n_struct + 1]);
        assert_eq!((sf.a.at(2, pos), sf.a.at(2, neg)), (0.25, -0.25));
        assert_eq!(sf.rows.row(3).0, &[sf.n_struct + 3]); // only its slack
        assert_eq!(assert_lowering_matches(&m), 11);
        // the LP fuzz family (every bound shape) with and without cut rows
        let mut nnz = 0;
        for case in 0..400 {
            let model = random_lp(case);
            nnz += assert_lowering_matches(&model);
            nnz += assert_lowering_matches(&with_cut_rows(&model));
        }
        assert!(nnz > 10_000, "{nnz}");
    }

    #[test]
    fn standard_form_matrix_is_sparse() {
        // 3 rows x (2 structural + 3 slack): nnz = row terms + slacks only
        let mut m = Model::new(Sense::Minimize);
        let x = m.num_var("x", 0.0, 10.0);
        let y = m.num_var("y", 0.0, 10.0);
        m.add_con(LinExpr::var(x), Cmp::Le, 4.0);
        m.add_con(LinExpr::var(y), Cmp::Le, 4.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 1.0);
        let sf = StandardForm::from_model(&m).unwrap();
        assert_eq!(sf.a.nnz(), 7); // 4 structural entries + 3 slacks
        assert_eq!(sf.a.to_dense().data.len(), 3 * 5);
    }

    #[test]
    fn dense_matrix_indexing() {
        let mut d = Dense::zeros(2, 3);
        *d.at_mut(1, 2) = 7.0;
        assert_eq!(d.at(1, 2), 7.0);
        assert_eq!(d.row(1), &[0.0, 0.0, 7.0]);
        d.row_mut(0)[1] = 3.0;
        assert_eq!(d.at(0, 1), 3.0);
    }
}

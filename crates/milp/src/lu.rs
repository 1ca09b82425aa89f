//! Sparse LU factorization of a simplex basis, with eta-file updates.
//!
//! The revised simplex engine ([`crate::revised`]) never forms `B⁻¹`
//! explicitly. Instead it keeps
//!
//! * an **LU factorization** `Pr · B · Pc = L · U` of the basis matrix,
//!   computed left-looking with **Markowitz-style pivoting**: columns are
//!   processed in ascending nonzero count, and within a column the pivot
//!   row is chosen among numerically acceptable candidates (threshold
//!   `|x_r| ≥ 0.1 · max`) as the one with the fewest nonzeros in the
//!   basis — trading a bounded amount of stability for fill-in control;
//! * an **eta file**: a product-form update per basis exchange, so a pivot
//!   costs `O(nnz)` instead of a refactorization. The file is folded back
//!   into a fresh LU every `revised::REFACTOR_INTERVAL` pivots.
//!
//! The factors depend only on which columns are basic, not on any bound,
//! so one [`LuFactors`] can be **shared read-only** by several solves
//! that start from the same basis ([`Factorization::shared`]): each keeps
//! its own eta file on top. Branch & bound factorizes a node's basis once
//! for all of that node's strong-branch probes and children.
//!
//! Two solve directions are exposed, both allocation-free after
//! construction (callers pass scratch buffers):
//!
//! * **FTRAN** — `B w = v`, used for the entering column in the ratio
//!   test and for recomputing the basic-variable values;
//! * **BTRAN** — `Bᵀ y = c`, used for the pricing duals and for the
//!   dual-simplex row `eᵣᵀ B⁻¹ A`.

use std::borrow::Cow;

/// Lower/upper triangular factors of one basis, plus the row/column
/// permutations chosen during elimination.
///
/// Index spaces (the comments in the solves refer to these):
/// * *orig rows* — constraint-row indices of the standard form,
/// * *basis positions* — indices into the `basis` vector (which column is
///   basic "in position k"),
/// * *pivot sequence* — the order `0..m` in which elimination happened.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    /// L columns per pivot step: `(orig_row, value)` below the unit
    /// diagonal; rows stored here are pivot rows of *later* steps.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// U columns per pivot step: `(earlier_step, value)` above the
    /// diagonal, in pivot-sequence row space.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// U diagonal per pivot step.
    u_diag: Vec<f64>,
    /// `pivot_row[k]` = orig row eliminated at step `k`.
    pivot_row: Vec<usize>,
    /// Inverse of `pivot_row`.
    pos_of_row: Vec<usize>,
    /// `order[k]` = basis position whose column was eliminated at step `k`.
    order: Vec<usize>,
}

/// One product-form update: basis position `r` was replaced by a column
/// whose FTRAN image was `w` (`B⁻¹ a_enter`), pivot element `w[r]`.
#[derive(Debug, Clone)]
struct Eta {
    /// Basis position that changed.
    r: usize,
    /// `w[r]` — the pivot element.
    pivot: f64,
    /// Remaining nonzeros of `w` (basis position, value), excluding `r`.
    col: Vec<(usize, f64)>,
}

/// Absolute singularity threshold for pivot elements.
const SINGULAR_TOL: f64 = 1e-11;
/// Relative threshold for Markowitz candidate pivots.
const PIVOT_REL_TOL: f64 = 0.1;

/// LU factors — owned, or borrowed from whoever factorized the starting
/// basis — plus the eta file accumulated since the last refactorization.
#[derive(Debug, Clone)]
pub struct Factorization<'a> {
    lu: Cow<'a, LuFactors>,
    etas: Vec<Eta>,
}

impl LuFactors {
    /// Factorizes the basis whose columns (in basis-position order) are
    /// given sparsely as `(row, value)` lists. Returns `None` when the
    /// matrix is numerically singular.
    pub fn factor(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<LuFactors> {
        debug_assert_eq!(cols.len(), m);
        // Markowitz-style static column ordering: sparsest columns first
        // (ties by position for determinism).
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&q| (cols[q].len(), q));
        // row counts over the basis, for the sparsity-aware pivot choice
        let mut row_count = vec![0usize; m];
        for col in cols {
            for &(r, _) in col {
                row_count[r] += 1;
            }
        }
        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);
        let mut pivot_row = Vec::with_capacity(m);
        let mut pos_of_row = vec![usize::MAX; m];
        let mut x = vec![0.0f64; m]; // dense accumulator, reset per column
        let mut touched: Vec<usize> = Vec::with_capacity(16);
        for (k, &q) in order.iter().enumerate() {
            // x = B[:, q]
            for &(r, v) in &cols[q] {
                if x[r] == 0.0 {
                    touched.push(r);
                }
                x[r] += v;
            }
            // left-looking elimination: apply every earlier pivot in order
            let mut ucol: Vec<(usize, f64)> = Vec::new();
            for (t, lcol) in l_cols.iter().enumerate().take(k) {
                let ut = x[pivot_row[t]];
                if ut == 0.0 {
                    continue;
                }
                ucol.push((t, ut));
                for &(r, lv) in lcol {
                    if x[r] == 0.0 {
                        touched.push(r);
                    }
                    x[r] -= ut * lv;
                }
            }
            // pivot choice among rows not yet assigned: threshold partial
            // pivoting with a Markowitz sparsity tie-break
            let mut amax = 0.0f64;
            for &r in &touched {
                if pos_of_row[r] == usize::MAX {
                    amax = amax.max(x[r].abs());
                }
            }
            if amax <= SINGULAR_TOL {
                return None; // structurally or numerically singular
            }
            let mut best: Option<(usize, usize)> = None; // (row_count, row)
            for &r in &touched {
                if pos_of_row[r] == usize::MAX && x[r].abs() >= PIVOT_REL_TOL * amax {
                    let key = (row_count[r], r);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let (_, prow) = best.expect("amax > 0 implies a candidate");
            let pivot = x[prow];
            let inv = 1.0 / pivot;
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            // deterministic L column order: ascending orig row (dedup: a
            // row can be pushed twice when an update underflows to zero)
            touched.sort_unstable();
            touched.dedup();
            for &r in &touched {
                if r != prow && pos_of_row[r] == usize::MAX && x[r] != 0.0 {
                    lcol.push((r, x[r] * inv));
                }
            }
            for &r in &touched {
                x[r] = 0.0;
            }
            touched.clear();
            pos_of_row[prow] = k;
            pivot_row.push(prow);
            u_diag.push(pivot);
            u_cols.push(ucol);
            l_cols.push(lcol);
        }
        Some(LuFactors {
            m,
            l_cols,
            u_cols,
            u_diag,
            pivot_row,
            pos_of_row,
            order,
        })
    }

    /// Solves `B w = v`. `v` is in orig-row space (consumed as scratch);
    /// `w` is written in basis-position space.
    fn ftran(&self, v: &mut [f64], w: &mut [f64]) {
        // forward solve L y = Pr v (y overwrites v at pivot-row slots)
        for (t, lcol) in self.l_cols.iter().enumerate() {
            let yt = v[self.pivot_row[t]];
            if yt == 0.0 {
                continue;
            }
            for &(r, lv) in lcol {
                v[r] -= yt * lv;
            }
        }
        // back solve U t = y (columns of U, pivot-sequence space)
        for k in (0..self.m).rev() {
            let tk = v[self.pivot_row[k]] / self.u_diag[k];
            w[self.order[k]] = tk;
            if tk == 0.0 {
                continue;
            }
            for &(t, uv) in &self.u_cols[k] {
                v[self.pivot_row[t]] -= tk * uv;
            }
        }
    }

    /// Solves `Bᵀ y = c`. `c` is in basis-position space (consumed as
    /// scratch); `y` is written in orig-row space.
    fn btran(&self, c: &mut [f64], y: &mut [f64], g: &mut [f64]) {
        // forward solve Uᵀ g = Pcᵀ c (Uᵀ is lower triangular in pivot
        // sequence space; u_cols gives exactly the column needed)
        for k in 0..self.m {
            let mut s = c[self.order[k]];
            for &(t, uv) in &self.u_cols[k] {
                s -= uv * g[t];
            }
            g[k] = s / self.u_diag[k];
        }
        // back solve Lᵀ h = g in place (rows of l_cols[k] live at later
        // pivot steps, so descending k sees finished values)
        for k in (0..self.m).rev() {
            let mut s = g[k];
            for &(r, lv) in &self.l_cols[k] {
                s -= lv * g[self.pos_of_row[r]];
            }
            g[k] = s;
            y[self.pivot_row[k]] = s;
        }
    }

    /// Total nonzeros in L and U (diagnostics).
    pub fn fill(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
            + self.m
    }
}

impl<'a> Factorization<'a> {
    /// Wraps fresh LU factors with an empty eta file.
    pub fn new(lu: LuFactors) -> Self {
        Factorization {
            lu: Cow::Owned(lu),
            etas: Vec::new(),
        }
    }

    /// An empty eta file on top of factors someone else owns.
    pub fn shared(lu: &'a LuFactors) -> Self {
        Factorization {
            lu: Cow::Borrowed(lu),
            etas: Vec::new(),
        }
    }

    /// Number of etas accumulated since the last refactorization.
    pub fn eta_len(&self) -> usize {
        self.etas.len()
    }

    /// Solves `B w = v` through the LU factors and the eta file.
    /// `v` (orig-row space) is consumed as scratch; `w` receives the
    /// result in basis-position space.
    pub fn ftran(&self, v: &mut [f64], w: &mut [f64]) {
        self.lu.ftran(v, w);
        for e in &self.etas {
            let xr = w[e.r] / e.pivot;
            if xr != 0.0 {
                for &(i, ev) in &e.col {
                    w[i] -= ev * xr;
                }
            }
            w[e.r] = xr;
        }
    }

    /// Solves `Bᵀ y = c`. `c` (basis-position space) and `g` are consumed
    /// as scratch; `y` receives the result in orig-row space.
    pub fn btran(&self, c: &mut [f64], y: &mut [f64], g: &mut [f64]) {
        for e in self.etas.iter().rev() {
            let mut s = c[e.r];
            for &(i, ev) in &e.col {
                s -= ev * c[i];
            }
            c[e.r] = s / e.pivot;
        }
        self.lu.btran(c, y, g);
    }

    /// Records the basis exchange "position `r` now holds the column whose
    /// FTRAN image is `w`". Returns `false` when the pivot element is too
    /// small to update stably — the caller must refactorize instead.
    pub fn push_eta(&mut self, r: usize, w: &[f64]) -> bool {
        let pivot = w[r];
        if pivot.abs() <= SINGULAR_TOL {
            return false;
        }
        let col: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != r && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta { r, pivot, col });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference multiply `B x` for the sparse column set.
    fn mul(m: usize, cols: &[Vec<(usize, f64)>], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                out[r] += v * x[j];
            }
        }
        out
    }

    fn mul_t(m: usize, cols: &[Vec<(usize, f64)>], y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                out[j] += v * y[r];
            }
        }
        out
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-8, "{a:?} vs {b:?}");
        }
    }

    /// A deterministic pseudo-random sparse nonsingular matrix: diagonal
    /// dominance guarantees invertibility.
    fn random_cols(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..m)
            .map(|j| {
                let mut col = vec![(j, m as f64 + 1.0 + (next() % 7) as f64)];
                for _ in 0..(next() % 3) {
                    let r = (next() as usize) % m;
                    if col.iter().all(|&(rr, _)| rr != r) {
                        col.push((r, ((next() % 9) as f64) - 4.0));
                    }
                }
                col.sort_unstable_by_key(|&(r, _)| r);
                col
            })
            .collect()
    }

    #[test]
    fn ftran_btran_round_trip() {
        for seed in [1u64, 7, 42, 1234] {
            let m = 9;
            let cols = random_cols(m, seed);
            let lu = LuFactors::factor(m, &cols).expect("nonsingular");
            let fac = Factorization::new(lu);
            let x_true: Vec<f64> = (0..m).map(|i| (i as f64) - 3.5).collect();
            // FTRAN: solve B w = B x_true => w == x_true
            let mut v = mul(m, &cols, &x_true);
            let mut w = vec![0.0; m];
            fac.ftran(&mut v, &mut w);
            assert_close(&w, &x_true);
            // BTRAN: solve B^T y = B^T y_true => y == y_true
            let mut c = mul_t(m, &cols, &x_true);
            let mut y = vec![0.0; m];
            let mut g = vec![0.0; m];
            fac.btran(&mut c, &mut y, &mut g);
            assert_close(&y, &x_true);
        }
    }

    #[test]
    fn eta_update_matches_refactorization() {
        let m = 7;
        let mut cols = random_cols(m, 99);
        let lu = LuFactors::factor(m, &cols).expect("nonsingular");
        let mut fac = Factorization::new(lu);
        // replace column 2 with a new sparse column via an eta update
        let new_col = vec![(0, 1.5), (2, 9.0), (5, -2.0)];
        let mut v = vec![0.0; m];
        for &(r, val) in &new_col {
            v[r] = val;
        }
        let mut w = vec![0.0; m];
        fac.ftran(&mut v, &mut w);
        assert!(fac.push_eta(2, &w));
        assert_eq!(fac.eta_len(), 1);
        cols[2] = new_col;
        // solves through (LU + eta) must match a fresh factorization
        let fresh = Factorization::new(LuFactors::factor(m, &cols).unwrap());
        let x_true: Vec<f64> = (0..m).map(|i| 0.25 * (i as f64) + 1.0).collect();
        let (mut v1, mut v2) = (mul(m, &cols, &x_true), mul(m, &cols, &x_true));
        let (mut w1, mut w2) = (vec![0.0; m], vec![0.0; m]);
        fac.ftran(&mut v1, &mut w1);
        fresh.ftran(&mut v2, &mut w2);
        assert_close(&w1, &w2);
        let (mut c1, mut c2) = (mul_t(m, &cols, &x_true), mul_t(m, &cols, &x_true));
        let (mut y1, mut y2) = (vec![0.0; m], vec![0.0; m]);
        let mut g = vec![0.0; m];
        fac.btran(&mut c1, &mut y1, &mut g);
        fresh.btran(&mut c2, &mut y2, &mut g);
        assert_close(&y1, &y2);
    }

    #[test]
    fn shared_factors_carry_independent_eta_files() {
        let m = 7;
        let cols = random_cols(m, 5);
        let lu = LuFactors::factor(m, &cols).expect("nonsingular");
        let owned = Factorization::new(lu.clone());
        // two solves share `lu`; only one of them pivots
        let (mut a, b) = (Factorization::shared(&lu), Factorization::shared(&lu));
        let mut v = vec![0.0; m];
        v[1] = 2.0;
        v[3] = 9.0;
        let mut w = vec![0.0; m];
        a.ftran(&mut v, &mut w);
        assert!(a.push_eta(3, &w));
        assert_eq!((a.eta_len(), b.eta_len()), (1, 0));
        // the untouched sharer still solves exactly like an owner of the
        // same factors — bit for bit, not just closely
        let x_true: Vec<f64> = (0..m).map(|i| 1.5 - i as f64).collect();
        let (mut v1, mut v2) = (mul(m, &cols, &x_true), mul(m, &cols, &x_true));
        let (mut w1, mut w2) = (vec![0.0; m], vec![0.0; m]);
        b.ftran(&mut v1, &mut w1);
        owned.ftran(&mut v2, &mut w2);
        assert_eq!(w1, w2);
        assert_close(&w1, &x_true);
    }

    #[test]
    fn singular_matrix_rejected() {
        // two identical columns
        let cols = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 1.0), (1, 2.0)]];
        assert!(LuFactors::factor(2, &cols).is_none());
        // a structurally empty column
        let cols = vec![vec![(0, 1.0)], vec![]];
        assert!(LuFactors::factor(2, &cols).is_none());
    }

    #[test]
    fn empty_basis_is_fine() {
        let lu = LuFactors::factor(0, &[]).expect("empty is nonsingular");
        let fac = Factorization::new(lu);
        let (mut v, mut w) = (vec![], vec![]);
        fac.ftran(&mut v, &mut w);
        assert_eq!(fac.eta_len(), 0);
    }

    #[test]
    fn tiny_eta_pivot_refused() {
        let lu = LuFactors::factor(1, &[vec![(0, 1.0)]]).unwrap();
        let mut fac = Factorization::new(lu);
        assert!(!fac.push_eta(0, &[1e-13]));
        assert_eq!(fac.eta_len(), 0);
    }

    #[test]
    fn permuted_identity_with_fill() {
        // an arrowhead matrix: classic fill-in test for ordering
        let m = 6;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        for j in 0..m {
            let mut col = vec![(j, 4.0)];
            if j > 0 {
                col.insert(0, (0, 1.0));
            }
            cols.push(col);
        }
        let lu = LuFactors::factor(m, &cols).expect("nonsingular");
        let fac = Factorization::new(lu);
        let x_true = vec![1.0, -1.0, 2.0, -2.0, 3.0, -3.0];
        let mut v = {
            let mut out = vec![0.0; m];
            for (j, col) in cols.iter().enumerate() {
                for &(r, val) in col {
                    out[r] += val * x_true[j];
                }
            }
            out
        };
        let mut w = vec![0.0; m];
        fac.ftran(&mut v, &mut w);
        assert_close(&w, &x_true);
    }
}

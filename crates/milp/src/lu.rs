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
//! **What a factorization costs.** Eliminating a column applies to it only
//! the earlier pivots its nonzero pattern *reaches*: the already-pivotal
//! rows of the column seed an ascending worklist (`Reach`, a bit per pivot
//! step), and every applied L column adds the pivotal rows it newly fills
//! in. An L column of step `t` only holds rows that were unassigned at
//! step `t`, so nothing is ever queued behind the cursor, and the
//! multiply-subtracts are exactly those a scan over every earlier pivot
//! would perform, in the same order — the factors are that scan's bit for
//! bit (it is kept as the `#[cfg(test)]` oracle `reference::full_scan`). A
//! column therefore costs `O(Σ reach + fill)` plus the words of the
//! worklist between its first and last member, with no `O(m)` term: the
//! dense accumulator is reset through the list of rows touched. A simplex
//! basis is mostly slack and singleton columns, whose reach is empty.
//!
//! L, U and the eta file are each one flat array of `(index, value)`
//! entries with per-column offsets (`Packed`), appended to a column at a
//! time, and [`LuFactors::factor`] reads the basis columns through a
//! caller-supplied accessor: a refactorization copies no column and
//! allocates a dozen vectors whatever `m` is.
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

/// Sparse vectors stored back to back: one flat array of `(index, value)`
/// entries plus the offsets the vectors start at, instead of a `Vec`
/// apiece. Entries are appended to the last, still open, vector.
#[derive(Debug, Clone, Default)]
struct Packed {
    /// Vector `k` is `entries[start[k]..start[k + 1]]`. Empty, not `[0]`,
    /// until the first vector is closed: an empty `Packed` owns no memory.
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Packed {
    fn with_capacity(vectors: usize) -> Self {
        Packed {
            start: Vec::with_capacity(vectors + 1),
            entries: Vec::new(),
        }
    }

    /// Appends an entry to the open vector.
    #[inline]
    fn push(&mut self, i: usize, v: f64) {
        self.entries.push((i, v));
    }

    /// Closes the open vector: what was pushed since the last call becomes
    /// the next vector.
    fn close(&mut self) {
        if self.start.is_empty() {
            self.start.push(0);
        }
        self.start.push(self.entries.len());
    }

    /// Closed vector `k`.
    #[inline]
    fn get(&self, k: usize) -> &[(usize, f64)] {
        &self.entries[self.start[k]..self.start[k + 1]]
    }

    /// The closed vectors in order.
    fn iter(&self) -> impl DoubleEndedIterator<Item = &[(usize, f64)]> + ExactSizeIterator {
        self.start.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }
}

/// The worklist of one column's elimination: a set of pivot steps, one bit
/// each, drained in ascending order while steps *ahead of the cursor* are
/// still being added. A step inserted twice is held once.
struct Reach {
    words: Vec<u64>,
    /// Every word outside `lo..hi` is zero.
    lo: usize,
    hi: usize,
}

impl Reach {
    fn new(steps: usize) -> Self {
        Reach {
            words: vec![0; steps.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    #[inline]
    fn insert(&mut self, step: usize) {
        let w = step / 64;
        self.words[w] |= 1 << (step % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// Removes and returns the smallest member.
    #[inline]
    fn pop_min(&mut self) -> Option<usize> {
        while self.lo < self.hi {
            let word = self.words[self.lo];
            if word != 0 {
                self.words[self.lo] = word & (word - 1);
                return Some(self.lo * 64 + word.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        (self.lo, self.hi) = (usize::MAX, 0);
        None
    }
}

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
    /// L, one column per pivot step: `(orig_row, value)` below the unit
    /// diagonal; rows stored here are pivot rows of *later* steps.
    l: Packed,
    /// U, one column per pivot step: `(earlier_step, value)` above the
    /// diagonal, in pivot-sequence row space, ascending.
    u: Packed,
    /// U diagonal per pivot step.
    u_diag: Vec<f64>,
    /// `pivot_row[k]` = orig row eliminated at step `k`.
    pivot_row: Vec<usize>,
    /// Inverse of `pivot_row`.
    pos_of_row: Vec<usize>,
    /// `order[k]` = basis position whose column was eliminated at step `k`.
    order: Vec<usize>,
}

/// Absolute singularity threshold for pivot elements.
const SINGULAR_TOL: f64 = 1e-11;
/// Relative threshold for Markowitz candidate pivots.
const PIVOT_REL_TOL: f64 = 0.1;

/// LU factors — owned, or borrowed from whoever factorized the starting
/// basis — plus the eta file accumulated since the last refactorization.
///
/// One product-form update per eta: basis position `r` was replaced by a
/// column whose FTRAN image was `w` (`B⁻¹ a_enter`), pivot element `w[r]`.
#[derive(Debug, Clone)]
pub struct Factorization<'a> {
    lu: Cow<'a, LuFactors>,
    /// Column `e`: the nonzeros of update `e`'s `w` besides the pivot, as
    /// `(basis position, value)`, ascending.
    etas: Packed,
    /// `(r, w[r])` of each update: the basis position that changed and
    /// the pivot element.
    eta_pivots: Vec<(usize, f64)>,
}

impl LuFactors {
    /// Factorizes the `m × m` basis whose column in basis position `q` is
    /// `col(q)`, given sparsely as `(row, value)` pairs (`col` is called
    /// more than once per position). Returns `None` when the matrix is
    /// numerically singular.
    pub fn factor<C, I>(m: usize, col: C) -> Option<LuFactors>
    where
        C: Fn(usize) -> I,
        I: Iterator<Item = (usize, f64)>,
    {
        let lu = Self::eliminate(m, &col);
        #[cfg(test)]
        reference::assert_same_factors(m, &col, lu.as_ref());
        lu
    }

    fn eliminate<C, I>(m: usize, col: &C) -> Option<LuFactors>
    where
        C: Fn(usize) -> I,
        I: Iterator<Item = (usize, f64)>,
    {
        // column lengths, and row counts over the basis for the
        // sparsity-aware pivot choice
        let mut row_count = vec![0usize; m];
        let mut col_len = vec![0usize; m];
        for (q, len) in col_len.iter_mut().enumerate() {
            for (r, _) in col(q) {
                row_count[r] += 1;
                *len += 1;
            }
        }
        // Markowitz-style static column ordering: sparsest columns first
        // (ties by position for determinism)
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_unstable_by_key(|&q| (col_len[q], q));
        let mut l = Packed::with_capacity(m);
        let mut u = Packed::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);
        let mut pivot_row = Vec::with_capacity(m);
        let mut pos_of_row = vec![usize::MAX; m];
        let mut x = vec![0.0f64; m]; // dense accumulator, reset per column
        let mut touched: Vec<usize> = Vec::with_capacity(16);
        // earlier pivot steps the column reaches, popped in ascending order
        let mut reach = Reach::new(m);
        for (k, &q) in order.iter().enumerate() {
            // x = B[:, q]; its already-pivotal rows seed the worklist
            for (r, v) in col(q) {
                if x[r] == 0.0 {
                    touched.push(r);
                    if pos_of_row[r] != usize::MAX {
                        reach.insert(pos_of_row[r]);
                    }
                }
                x[r] += v;
            }
            // left-looking elimination: apply the reached pivots in order
            while let Some(t) = reach.pop_min() {
                let ut = x[pivot_row[t]];
                if ut == 0.0 {
                    continue;
                }
                u.push(t, ut);
                for &(r, lv) in l.get(t) {
                    if x[r] == 0.0 {
                        touched.push(r);
                        // pivotal rows of an L column are pivotal after `t`
                        if pos_of_row[r] != usize::MAX {
                            reach.insert(pos_of_row[r]);
                        }
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
            // deterministic L column order: ascending orig row (dedup: a
            // row can be pushed twice when an update underflows to zero)
            touched.sort_unstable();
            touched.dedup();
            for &r in &touched {
                if r != prow && pos_of_row[r] == usize::MAX && x[r] != 0.0 {
                    l.push(r, x[r] * inv);
                }
            }
            for &r in &touched {
                x[r] = 0.0;
            }
            touched.clear();
            pos_of_row[prow] = k;
            pivot_row.push(prow);
            u_diag.push(pivot);
            u.close();
            l.close();
        }
        Some(LuFactors {
            m,
            l,
            u,
            u_diag,
            pivot_row,
            pos_of_row,
            order,
        })
    }

    /// Solves `B w = v`. `v` is in orig-row space (consumed as scratch);
    /// `w` is written in basis-position space.
    fn ftran(&self, v: &mut [f64], w: &mut [f64]) {
        // cut to `m` once, so the loops index them without bounds checks:
        // on bases of a few dozen rows those are a tenth of a solve
        let m = self.m;
        let (order, u_diag, pivot_row) = (&self.order[..m], &self.u_diag[..m], &self.pivot_row[..m]);
        // forward solve L y = Pr v (y overwrites v at pivot-row slots)
        for t in 0..m {
            let yt = v[pivot_row[t]];
            if yt == 0.0 {
                continue;
            }
            for &(r, lv) in self.l.get(t) {
                v[r] -= yt * lv;
            }
        }
        // back solve U t = y (columns of U, pivot-sequence space)
        for k in (0..m).rev() {
            let tk = v[pivot_row[k]] / u_diag[k];
            w[order[k]] = tk;
            if tk == 0.0 {
                continue;
            }
            for &(t, uv) in self.u.get(k) {
                v[pivot_row[t]] -= tk * uv;
            }
        }
    }

    /// Solves `Bᵀ y = c`. `c` is in basis-position space (consumed as
    /// scratch); `y` is written in orig-row space.
    fn btran(&self, c: &mut [f64], y: &mut [f64], g: &mut [f64]) {
        // cut to `m` once, as in `ftran`
        let m = self.m;
        let (order, u_diag, pivot_row) = (&self.order[..m], &self.u_diag[..m], &self.pivot_row[..m]);
        let g = &mut g[..m];
        // forward solve Uᵀ g = Pcᵀ c (Uᵀ is lower triangular in pivot
        // sequence space; column k of U is exactly the row needed)
        for k in 0..m {
            let mut s = c[order[k]];
            for &(t, uv) in self.u.get(k) {
                s -= uv * g[t];
            }
            g[k] = s / u_diag[k];
        }
        // back solve Lᵀ h = g in place (rows of L's column k live at later
        // pivot steps, so descending k sees finished values)
        for k in (0..m).rev() {
            let mut s = g[k];
            for &(r, lv) in self.l.get(k) {
                s -= lv * g[self.pos_of_row[r]];
            }
            g[k] = s;
            y[pivot_row[k]] = s;
        }
    }

    /// Total nonzeros in L and U, diagonal included.
    pub fn fill(&self) -> usize {
        self.l.entries.len() + self.u.entries.len() + self.m
    }
}

impl<'a> Factorization<'a> {
    /// Wraps fresh LU factors with an empty eta file.
    pub fn new(lu: LuFactors) -> Self {
        Self::over(Cow::Owned(lu))
    }

    /// An empty eta file on top of factors someone else owns.
    pub fn shared(lu: &'a LuFactors) -> Self {
        Self::over(Cow::Borrowed(lu))
    }

    fn over(lu: Cow<'a, LuFactors>) -> Self {
        Factorization {
            etas: Packed::default(),
            eta_pivots: Vec::new(),
            lu,
        }
    }

    /// Number of etas accumulated since the last refactorization.
    pub fn eta_len(&self) -> usize {
        self.eta_pivots.len()
    }

    /// Solves `B w = v` through the LU factors and the eta file.
    /// `v` (orig-row space) is consumed as scratch; `w` receives the
    /// result in basis-position space.
    pub fn ftran(&self, v: &mut [f64], w: &mut [f64]) {
        self.lu.ftran(v, w);
        for (&(r, pivot), col) in self.eta_pivots.iter().zip(self.etas.iter()) {
            let xr = w[r] / pivot;
            if xr != 0.0 {
                for &(i, ev) in col {
                    w[i] -= ev * xr;
                }
            }
            w[r] = xr;
        }
    }

    /// Solves `Bᵀ y = c`. `c` (basis-position space) and `g` are consumed
    /// as scratch; `y` receives the result in orig-row space.
    pub fn btran(&self, c: &mut [f64], y: &mut [f64], g: &mut [f64]) {
        for (&(r, pivot), col) in self.eta_pivots.iter().zip(self.etas.iter()).rev() {
            let mut s = c[r];
            for &(i, ev) in col {
                s -= ev * c[i];
            }
            c[r] = s / pivot;
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
        for (i, &v) in w.iter().enumerate() {
            if i != r && v != 0.0 {
                self.etas.push(i, v);
            }
        }
        self.etas.close();
        self.eta_pivots.push((r, pivot));
        true
    }
}

/// The elimination [`LuFactors::factor`] replaced, kept as its oracle: for
/// every column it visits *every* earlier pivot — `m²/2` probes whatever
/// the sparsity — and stores one `Vec` per L and U column.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) struct FullScan {
        pub l_cols: Vec<Vec<(usize, f64)>>,
        pub u_cols: Vec<Vec<(usize, f64)>>,
        pub u_diag: Vec<f64>,
        pub pivot_row: Vec<usize>,
        pub order: Vec<usize>,
    }

    pub(super) fn full_scan(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<FullScan> {
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
        Some(FullScan {
            l_cols,
            u_cols,
            u_diag,
            pivot_row,
            order,
        })
    }

    fn bits(col: impl Iterator<Item = (usize, f64)>) -> Vec<(usize, u64)> {
        col.map(|(i, v)| (i, v.to_bits())).collect()
    }

    /// Panics unless `lu` is what [`full_scan`] makes of the same basis,
    /// field for field and bit for bit — `None` for `None`. Every
    /// `LuFactors::factor` call of this crate's unit tests ends here.
    pub(super) fn assert_same_factors<C, I>(m: usize, col: &C, lu: Option<&LuFactors>)
    where
        C: Fn(usize) -> I,
        I: Iterator<Item = (usize, f64)>,
    {
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|q| col(q).collect()).collect();
        let (lu, oracle) = match (lu, full_scan(m, &cols)) {
            (Some(lu), Some(oracle)) => (lu, oracle),
            (None, None) => return,
            (lu, oracle) => panic!(
                "m = {m}: reach-driven elimination singular: {}, full scan singular: {}",
                lu.is_none(),
                oracle.is_none()
            ),
        };
        assert_eq!(lu.order, oracle.order, "column order");
        assert_eq!(lu.pivot_row, oracle.pivot_row, "pivot rows");
        assert_eq!(bits(lu.u_diag.iter().copied().enumerate()), bits(oracle.u_diag.iter().copied().enumerate()), "U diagonal");
        assert_eq!((lu.l.iter().len(), lu.u.iter().len()), (m, m));
        for k in 0..m {
            assert_eq!(bits(lu.l.get(k).iter().copied()), bits(oracle.l_cols[k].iter().copied()), "L column {k}");
            assert_eq!(bits(lu.u.get(k).iter().copied()), bits(oracle.u_cols[k].iter().copied()), "U column {k}");
            assert_eq!(lu.pos_of_row[lu.pivot_row[k]], k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test matrix: one `(row, value)` list per column.
    type Cols = Vec<Vec<(usize, f64)>>;

    fn factor(cols: &Cols) -> Option<LuFactors> {
        LuFactors::factor(cols.len(), |q| cols[q].iter().copied())
    }

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

    /// xorshift64: the tests' only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One column of a diagonally dominant matrix: a large entry in row
    /// `j` and up to two small ones elsewhere.
    fn dominant_col(m: usize, j: usize, rng: &mut Rng) -> Vec<(usize, f64)> {
        let mut col = vec![(j, m as f64 + 1.0 + (rng.next() % 7) as f64)];
        for _ in 0..(rng.next() % 3) {
            let r = rng.below(m);
            if col.iter().all(|&(rr, _)| rr != r) {
                col.push((r, ((rng.next() % 9) as f64) - 4.0));
            }
        }
        col.sort_unstable_by_key(|&(r, _)| r);
        col
    }

    /// A deterministic pseudo-random sparse nonsingular matrix: diagonal
    /// dominance guarantees invertibility.
    fn random_cols(m: usize, seed: u64) -> Cols {
        let mut rng = Rng::new(seed);
        (0..m).map(|j| dominant_col(m, j, &mut rng)).collect()
    }

    /// Replaces column `p` of `cols` by a fresh dominant one, in the matrix
    /// and — as an eta update — in `fac`.
    fn replace_column(fac: &mut Factorization<'_>, cols: &mut Cols, p: usize, rng: &mut Rng) {
        let m = cols.len();
        let new_col = dominant_col(m, p, rng);
        let mut v = vec![0.0; m];
        for &(r, val) in &new_col {
            v[r] = val;
        }
        let mut w = vec![0.0; m];
        fac.ftran(&mut v, &mut w);
        assert!(fac.push_eta(p, &w));
        cols[p] = new_col;
    }

    /// FTRAN and BTRAN of `fac` undo a multiplication by `cols`.
    fn assert_round_trip(fac: &Factorization<'_>, cols: &Cols) {
        let m = cols.len();
        let x_true: Vec<f64> = (0..m).map(|i| (i % 11) as f64 - 3.5).collect();
        // FTRAN: solve B w = B x_true => w == x_true
        let mut v = mul(m, cols, &x_true);
        let mut w = vec![0.0; m];
        fac.ftran(&mut v, &mut w);
        assert_close(&w, &x_true);
        // BTRAN: solve B^T y = B^T y_true => y == y_true
        let mut c = mul_t(m, cols, &x_true);
        let mut y = vec![0.0; m];
        let mut g = vec![0.0; m];
        fac.btran(&mut c, &mut y, &mut g);
        assert_close(&y, &x_true);
    }

    #[test]
    fn ftran_btran_round_trip() {
        // (rows, eta updates on top of the factors): small and bare, and
        // at the size and eta-file length the exact leg refactorizes at
        for (m, etas) in [(9, 0), (300, 64)] {
            for seed in [1u64, 7, 42, 1234] {
                let mut cols = random_cols(m, seed);
                let mut fac = Factorization::new(factor(&cols).expect("nonsingular"));
                let mut rng = Rng::new(seed ^ 0xe7a);
                for _ in 0..etas {
                    let p = rng.below(m);
                    replace_column(&mut fac, &mut cols, p, &mut rng);
                }
                assert_eq!(fac.eta_len(), etas);
                assert_round_trip(&fac, &cols);
            }
        }
    }

    #[test]
    fn eta_update_matches_refactorization() {
        for (m, etas) in [(7, 1), (300, 64)] {
            let mut cols = random_cols(m, 99);
            let mut fac = Factorization::new(factor(&cols).expect("nonsingular"));
            // replace columns via eta updates (some positions twice)
            let mut rng = Rng::new(2015);
            for e in 0..etas {
                let p = if e % 8 == 7 { 2 } else { rng.below(m) };
                replace_column(&mut fac, &mut cols, p, &mut rng);
            }
            assert_eq!(fac.eta_len(), etas);
            // solves through (LU + etas) must match a fresh factorization
            let fresh = Factorization::new(factor(&cols).unwrap());
            let x_true: Vec<f64> = (0..m).map(|i| 0.25 * (i % 13) as f64 + 1.0).collect();
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
    }

    #[test]
    fn shared_factors_carry_independent_eta_files() {
        let m = 7;
        let cols = random_cols(m, 5);
        let lu = factor(&cols).expect("nonsingular");
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
        assert!(factor(&cols).is_none());
        // a structurally empty column
        let cols = vec![vec![(0, 1.0)], vec![]];
        assert!(factor(&cols).is_none());
    }

    #[test]
    fn empty_basis_is_fine() {
        let lu = factor(&Vec::new()).expect("empty is nonsingular");
        assert_eq!(lu.fill(), 0);
        let fac = Factorization::new(lu);
        let (mut v, mut w) = (vec![], vec![]);
        fac.ftran(&mut v, &mut w);
        assert_eq!(fac.eta_len(), 0);
    }

    #[test]
    fn tiny_eta_pivot_refused() {
        let lu = factor(&vec![vec![(0, 1.0)]]).unwrap();
        let mut fac = Factorization::new(lu);
        assert!(!fac.push_eta(0, &[1e-13]));
        assert_eq!(fac.eta_len(), 0);
    }

    /// An arrowhead matrix — the classic fill-in test for ordering: `4` on
    /// the diagonal and `1` along row 0.
    fn arrowhead(m: usize) -> Cols {
        (0..m)
            .map(|j| if j > 0 { vec![(0, 1.0), (j, 4.0)] } else { vec![(0, 4.0)] })
            .collect()
    }

    #[test]
    fn permuted_identity_with_fill() {
        let m = 6;
        let cols = arrowhead(m);
        let fac = Factorization::new(factor(&cols).expect("nonsingular"));
        let x_true = vec![1.0, -1.0, 2.0, -2.0, 3.0, -3.0];
        let mut v = mul(m, &cols, &x_true);
        let mut w = vec![0.0; m];
        fac.ftran(&mut v, &mut w);
        assert_close(&w, &x_true);
    }

    /// Rows `o..o + 4` and four columns on them, built so that eliminating
    /// the last one cancels row `o + 2` to exactly `0.0` under the first
    /// pivot and fills it again under the second — while that row is
    /// itself pivotal at the third step. It is then pushed onto `touched`
    /// twice (hence the `dedup`) and inserted into the reach set twice
    /// (which must apply its pivot once). `s` scales every entry (a power
    /// of two keeps the cancellation exact).
    fn cancelling_gadget(o: usize, s: f64) -> Cols {
        vec![
            vec![(o, s), (o + 2, s)],                        // pivots on row o;     L = 1
            vec![(o + 1, s), (o + 2, 0.5 * s)],              // pivots on row o + 1; L = 1/2
            vec![(o + 2, s), (o + 3, 0.05 * s)],             // o + 3 is below the threshold: row o + 2
            vec![(o, 2.0 * s), (o + 1, 3.0 * s), (o + 2, 2.0 * s)], // 2 − 2·1 = 0, then 0 − 3·½
        ]
    }

    #[test]
    fn an_entry_that_cancels_and_refills_is_applied_once() {
        let lu = factor(&cancelling_gadget(0, 1.0)).expect("nonsingular");
        assert_eq!(lu.pivot_row, [0, 1, 2, 3]);
        // the last column met pivots 0, 1 and 2 — the third exactly once,
        // with the refilled value
        assert_eq!(lu.u.get(3), [(0, 2.0), (1, 3.0), (2, -1.5)]);
        assert_eq!(lu.u_diag[3], 1.5 * 0.05);
    }

    /// The families of [`new_factors_are_the_full_scans_bit_for_bit`].
    fn family(kind: usize, m: usize, rng: &mut Rng) -> Cols {
        let dyadic = |rng: &mut Rng| (rng.below(17) as f64 - 8.0) / 4.0;
        match kind {
            // like a real basis: mostly slack singletons, the rest
            // structural columns of 2–6 dyadic entries; now and then
            // singular (two slacks of one row, a zero entry)
            0 => (0..m)
                .map(|_| {
                    if rng.below(10) < 6 {
                        vec![(rng.below(m), if rng.below(4) == 0 { -1.0 } else { 1.0 })]
                    } else {
                        let mut col: Vec<(usize, f64)> =
                            (0..2 + rng.below(5)).map(|_| (rng.below(m), dyadic(rng))).collect();
                        col.sort_unstable_by_key(|&(r, _)| r);
                        col.dedup_by_key(|e| e.0);
                        col
                    }
                })
                .collect(),
            // a slack basis with every row covered once, and structural
            // columns swapped in for a third of them: rarely singular
            1 => {
                let mut cols: Cols = (0..m).map(|r| vec![(r, 1.0)]).collect();
                for _ in 0..m / 3 {
                    let p = rng.below(m);
                    let mut col = vec![(p, 1.0 + rng.below(4) as f64)];
                    for _ in 0..1 + rng.below(5) {
                        let r = rng.below(m);
                        if col.iter().all(|&(rr, _)| rr != r) {
                            col.push((r, dyadic(rng)));
                        }
                    }
                    col.sort_unstable_by_key(|&(r, _)| r);
                    cols[p] = col;
                }
                for _ in 0..m {
                    let (a, b) = (rng.below(m), rng.below(m));
                    cols.swap(a, b);
                }
                cols
            }
            // permuted, signed, scaled identity
            2 => {
                let mut rows: Vec<usize> = (0..m).collect();
                for i in (1..m).rev() {
                    rows.swap(i, rng.below(i + 1));
                }
                rows.iter()
                    .map(|&r| vec![(r, [1.0, -1.0, 0.25, -8.0][rng.below(4)])])
                    .collect()
            }
            // arrowhead, its dense row and the column order permuted
            3 => {
                let mut cols = arrowhead(m);
                if m > 0 {
                    let hub = rng.below(m);
                    for col in &mut cols {
                        for e in col.iter_mut() {
                            e.0 = if e.0 == 0 { hub } else if e.0 == hub { 0 } else { e.0 };
                        }
                        col.sort_unstable_by_key(|&(r, _)| r);
                    }
                    for _ in 0..m {
                        let (a, b) = (rng.below(m), rng.below(m));
                        cols.swap(a, b);
                    }
                }
                cols
            }
            // diagonally dominant, then one column duplicated: singular
            4 => {
                let mut cols: Cols = (0..m).map(|j| dominant_col(m, j, rng)).collect();
                if m >= 2 {
                    let (a, b) = (rng.below(m), rng.below(m));
                    if a != b {
                        cols[a] = cols[b].clone();
                    }
                }
                cols
            }
            // the cancelling gadget at a random offset and scale among
            // dominant columns that avoid its rows
            5 => {
                if m < 4 {
                    return (0..m).map(|j| dominant_col(m, j, rng)).collect();
                }
                let o = rng.below(m - 3);
                let gadget = cancelling_gadget(o, [1.0, 0.5, 4.0, -2.0][rng.below(4)]);
                (0..m)
                    .map(|j| {
                        if (o..o + 4).contains(&j) {
                            return gadget[j - o].clone();
                        }
                        let mut col = dominant_col(m, j, rng);
                        col.retain(|&(r, _)| !(o..o + 4).contains(&r));
                        col
                    })
                    .collect()
            }
            // small and dense in small integers: exact cancellations,
            // ties in the pivot choice and singular matrices come
            // unprompted
            _ => (0..m)
                .map(|_| {
                    let mut col = Vec::new();
                    for r in 0..m {
                        let v = rng.below(5) as f64 - 2.0;
                        if rng.below(3) == 0 && v != 0.0 {
                            col.push((r, v));
                        }
                    }
                    col
                })
                .collect(),
        }
    }

    #[test]
    fn new_factors_are_the_full_scans_bit_for_bit() {
        const SIZES: [usize; 14] = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 400];
        let (mut matrices, mut singular) = (0, 0);
        for kind in 0..7 {
            for round in 0..80 {
                let mut rng = Rng::new(0x2015_0815 ^ (kind << 40 | (round + 1) << 8) as u64);
                // the dense family stays small: fill would make it cubic
                let m = SIZES[round % SIZES.len()].min(if kind == 6 { 34 } else { 400 });
                let cols = family(kind, m, &mut rng);
                assert_eq!(cols.len(), m);
                let col = |q: usize| cols[q].iter().copied();
                let lu = LuFactors::eliminate(m, &col);
                reference::assert_same_factors(m, &col, lu.as_ref());
                matrices += 1;
                singular += usize::from(lu.is_none());
            }
        }
        assert!(matrices >= 500);
        // both verdicts are well represented
        assert!(singular >= 60 && matrices - singular >= 300, "{singular} of {matrices} singular");
    }

    /// The time-indexed Eq. 1–9 model of `insitu_core::formulation::build_exact`
    /// for the memory-free analyses of the repo benchmark's exact leg
    /// (`benchmark/src/gen.rs::exact_instance`), rebuilt here because this
    /// crate sits below both: `run_i`, `a_{i,j}`, `o_{i,j}` binaries;
    /// `a ≤ run`, `o ≤ a`, `run ≤ Σa`; one output per analysis; the
    /// telescoped time row; Eq. 9 as sliding windows.
    fn exact_leg_model(steps: usize, n: usize) -> crate::Model {
        use crate::{Cmp, LinExpr, Model, Sense};
        let itv = (steps / 8).max(1);
        let kmax = (steps / itv) as f64;
        let (ct, ot) = (|i: usize| 1.0 + 1.5 * i as f64, |i: usize| 0.25 * (1 + i % 2) as f64);
        let rough: f64 = (0..n).map(|i| kmax * (ct(i) + ot(i))).sum();
        let total = (rough * 0.6 * 4.0).floor() / 4.0;
        const SCALE: f64 = (1u64 << 20) as f64;
        let cth = (total / steps as f64 * SCALE).ceil() / SCALE;

        let mut m = Model::new(Sense::Maximize);
        let mut run = Vec::new();
        let mut analysis = Vec::new();
        let mut output = Vec::new();
        for i in 0..n {
            run.push(m.binary(&format!("run_{i}")));
            let (mut av, mut ov) = (Vec::new(), Vec::new());
            for j in itv..=steps {
                av.push((j, m.binary(&format!("a_{i}_{j}"))));
                ov.push(m.binary(&format!("o_{i}_{j}")));
            }
            analysis.push(av);
            output.push(ov);
        }
        let mut obj = LinExpr::new();
        for i in 0..n {
            obj = obj.term(run[i], 1.0);
            for &(_, v) in &analysis[i] {
                obj = obj.term(v, (1 + i % 3) as f64);
            }
        }
        m.set_objective(obj);
        for i in 0..n {
            for (&(_, av), &ov) in analysis[i].iter().zip(&output[i]) {
                m.add_con(LinExpr::var(av).term(run[i], -1.0), Cmp::Le, 0.0);
                m.add_con(LinExpr::var(ov).term(av, -1.0), Cmp::Le, 0.0);
            }
            let total = LinExpr::sum(analysis[i].iter().map(|&(_, v)| (v, 1.0)));
            m.add_con(LinExpr::var(run[i]).add_expr(&total.scale(-1.0)), Cmp::Le, 0.0);
        }
        for i in 0..n {
            let mut e = LinExpr::new();
            for &ov in &output[i] {
                e = e.term(ov, 1.0);
            }
            for &(_, av) in &analysis[i] {
                e = e.term(av, -1.0);
            }
            m.add_con(e, Cmp::Ge, 0.0);
        }
        let mut time = LinExpr::new();
        for i in 0..n {
            time = time.term(run[i], 0.0);
            for &(_, av) in &analysis[i] {
                time = time.term(av, ct(i));
            }
            for &ov in &output[i] {
                time = time.term(ov, ot(i));
            }
        }
        m.add_con(time, Cmp::Le, cth * steps as f64);
        for vars in &analysis {
            for start in itv..=steps.saturating_sub(itv - 1).max(itv) {
                let window = vars.iter().filter(|&&(j, _)| j >= start && j < start + itv);
                if window.clone().count() > 1 {
                    m.add_con(LinExpr::sum(window.map(|&(_, v)| (v, 1.0))), Cmp::Le, 1.0);
                }
            }
        }
        m
    }

    /// Every `LuFactors::factor` call of a unit test is checked against
    /// the full scan (see [`LuFactors::factor`]); this one makes the calls
    /// that matter: every basis refactorized on the way to the certified
    /// optimum of Exact/64×4, found along the pivot path
    /// `tests/tests/lp_trajectory.rs` pins.
    #[test]
    fn every_basis_of_an_exact_leg_solve_factors_like_the_full_scan() {
        let opts = crate::SolveOptions {
            threads: 1,
            certificate: true,
            abs_gap: 0.999,
            ..crate::SolveOptions::default()
        };
        let sol = crate::solve(&exact_leg_model(64, 4), &opts).expect("solvable");
        // the model above is the benchmark's, so is the path ((1170, 19)
        // until commit c30b233 started a cold LP from the slack basis)
        assert_eq!(sol.objective, 51.0);
        assert_eq!((sol.stats.lp_pivots, sol.stats.refactorizations), (448, 7));
    }
}

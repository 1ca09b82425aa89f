//! Cell-list neighbour search: O(N) pair iteration under a cutoff.
//!
//! The box is diced into cells at least one cutoff wide; each particle
//! interacts only with particles in its own and the 13 forward-neighbour
//! cells (half stencil), so every unordered pair is visited exactly once.
//! Falls back to a single cell per dimension for small boxes, where the
//! stencil degenerates gracefully.
//!
//! Two structures share that geometry. [`SortedCells`] is the force
//! kernel's: particles counting-sorted by cell into contiguous coordinate
//! arrays, the periodic image folded into one shift per cell pair.
//! [`CellList`] is the linked-list walk the RDF analyses still use.

use crate::system::SimBox;
use parallel::Exec;

/// A rebuildable cell list.
#[derive(Debug, Clone)]
pub struct CellList {
    dims: [usize; 3],
    /// Head-of-chain particle index per cell (usize::MAX = empty).
    heads: Vec<usize>,
    /// Next-particle chain.
    next: Vec<usize>,
    /// Scratch: cell index per particle, reused across rebuilds.
    cell_idx: Vec<usize>,
    cutoff: f64,
}

const EMPTY: usize = usize::MAX;

impl CellList {
    /// An empty cell list to be populated by [`CellList::rebuild`].
    pub fn empty() -> Self {
        CellList {
            dims: [1; 3],
            heads: Vec::new(),
            next: Vec::new(),
            cell_idx: Vec::new(),
            cutoff: 0.0,
        }
    }

    /// Builds a cell list for `pos` (SoA layout) with interaction `cutoff`.
    pub fn build(bounds: &SimBox, pos: &[Vec<f64>; 3], cutoff: f64) -> Self {
        let mut cl = CellList::empty();
        cl.rebuild(bounds, pos, cutoff, &Exec::serial());
        cl
    }

    /// Rebuilds in place, reusing the `heads`/`next`/`cell_idx` allocations
    /// from the previous build when the sizes still fit.
    ///
    /// The per-particle cell indices are computed in parallel (a pure
    /// per-element map); the chain linking stays serial so the chain order
    /// — and therefore the pair visit order — is identical for every
    /// thread count.
    pub fn rebuild(&mut self, bounds: &SimBox, pos: &[Vec<f64>; 3], cutoff: f64, exec: &Exec) {
        let n = pos[0].len();
        self.cutoff = cutoff;
        for (dim, &len) in self.dims.iter_mut().zip(&bounds.lengths) {
            *dim = (len / cutoff).floor().max(1.0) as usize;
        }
        let ncells = self.dims[0] * self.dims[1] * self.dims[2];
        self.heads.clear();
        self.heads.resize(ncells, EMPTY);
        self.next.clear();
        self.next.resize(n, EMPTY);
        self.cell_idx.clear();
        self.cell_idx.resize(n, 0);
        let dims = self.dims;
        parallel::fill_chunks(
            exec,
            &mut self.cell_idx,
            parallel::chunk_count(n, 2048),
            |_, start, slice| {
                for (k, c) in slice.iter_mut().enumerate() {
                    let i = start + k;
                    *c = Self::cell_of(bounds, dims, [pos[0][i], pos[1][i], pos[2][i]]);
                }
            },
        );
        for i in 0..n {
            let c = self.cell_idx[i];
            self.next[i] = self.heads[c];
            self.heads[c] = i;
        }
    }

    #[inline]
    fn cell_of(bounds: &SimBox, dims: [usize; 3], p: [f64; 3]) -> usize {
        let mut idx = [0usize; 3];
        for d in 0..3 {
            let frac = (p[d] / bounds.lengths[d]).clamp(0.0, 1.0 - 1e-12);
            idx[d] = ((frac * dims[d] as f64) as usize).min(dims[d] - 1);
        }
        (idx[2] * dims[1] + idx[1]) * dims[0] + idx[0]
    }

    /// Visits every unordered pair `(i, j)` with minimum-image squared
    /// distance `r2 < cutoff²`, exactly once.
    pub fn for_each_pair(
        &self,
        bounds: &SimBox,
        pos: &[Vec<f64>; 3],
        f: impl FnMut(usize, usize, f64),
    ) {
        self.for_each_pair_in(bounds, pos, 0..self.num_cells(), f);
    }

    /// True when any grid dimension has <= 2 cells, which makes the torus
    /// alias unordered cell pairs across different home cells. Such grids
    /// need the global pair dedup and therefore a single full-range pass.
    pub fn is_degenerate(&self) -> bool {
        self.dims.iter().any(|&d| d <= 2)
    }

    /// Deterministic chunk count for parallel pair iteration: a fixed
    /// function of the cell count (see `parallel::chunk_count`), forced to
    /// 1 on degenerate grids where pair dedup is global.
    pub fn pair_chunks(&self) -> usize {
        if self.is_degenerate() {
            1
        } else {
            parallel::chunk_count(self.num_cells(), 32)
        }
    }

    /// Visits every unordered pair whose *home* cell (the cell owning the
    /// half stencil) has linear index in `cells`. Ranges partition the
    /// pair set: iterating disjoint ranges that cover `0..num_cells()`
    /// visits exactly the pairs of [`CellList::for_each_pair`], each once.
    ///
    /// Degenerate grids ([`CellList::is_degenerate`]) dedup aliased cell
    /// pairs globally, so they only support the full range — which
    /// [`CellList::pair_chunks`] guarantees by returning one chunk.
    pub fn for_each_pair_in(
        &self,
        bounds: &SimBox,
        pos: &[Vec<f64>; 3],
        cells: std::ops::Range<usize>,
        mut f: impl FnMut(usize, usize, f64),
    ) {
        debug_assert!(
            !self.is_degenerate() || (cells.start == 0 && cells.end == self.num_cells()),
            "degenerate grids need the global pair dedup: full range only"
        );
        let [nx, ny, nz] = self.dims;
        let cut2 = self.cutoff * self.cutoff;
        // half stencil: self + 13 forward neighbours
        let mut stencil: Vec<[i64; 3]> = Vec::with_capacity(14);
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if (dz, dy, dx) >= (0, 0, 0) {
                        stencil.push([dx, dy, dz]);
                    }
                }
            }
        }
        // Under tiny dimensions the torus aliases the stencil two ways:
        // two offsets from one cell can land on the same neighbour (handled
        // by `seen_cells`), and — when a dimension has 2 or fewer cells —
        // the SAME unordered cell pair is reachable from both of its cells
        // through two *different* half-stencil offsets (offset components
        // sum to 0 mod n only when n <= 2 for components in {-2..2}), so a
        // global pair dedup is needed. The global set is only engaged on
        // such degenerate grids to keep the production path allocation-free.
        let wrap = |v: i64, n: usize| -> usize { v.rem_euclid(n as i64) as usize };
        let degenerate = self.is_degenerate();
        let mut visited_pairs: std::collections::HashSet<(usize, usize)> =
            std::collections::HashSet::new();
        debug_assert!(cells.end <= nx * ny * nz);
        let mut seen_cells = Vec::with_capacity(14);
        for c in cells {
            let cx = c % nx;
            let cy = (c / nx) % ny;
            let cz = c / (nx * ny);
            seen_cells.clear();
            for s in &stencil {
                let ox = wrap(cx as i64 + s[0], nx);
                let oy = wrap(cy as i64 + s[1], ny);
                let oz = wrap(cz as i64 + s[2], nz);
                let o = (oz * ny + oy) * nx + ox;
                if seen_cells.contains(&o) {
                    continue; // aliased neighbour under small dims
                }
                seen_cells.push(o);
                if degenerate && o != c && !visited_pairs.insert((c.min(o), c.max(o))) {
                    continue; // unordered cell pair already covered
                }
                let same = o == c;
                let mut i = self.heads[c];
                while i != EMPTY {
                    let pi = [pos[0][i], pos[1][i], pos[2][i]];
                    let mut j = if same { self.next[i] } else { self.heads[o] };
                    while j != EMPTY {
                        let pj = [pos[0][j], pos[1][j], pos[2][j]];
                        let r2 = bounds.dist2(pi, pj);
                        if r2 < cut2 {
                            f(i, j, r2);
                        }
                        j = self.next[j];
                    }
                    i = self.next[i];
                }
            }
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.heads.len()
    }
}

/// The half stencil: a cell itself plus its 13 forward neighbours, as
/// `[dx, dy, dz]` cell offsets in ascending `(dz, dy, dx)` order.
const HALF_STENCIL: [[i8; 3]; 14] = [
    [0, 0, 0],
    [1, 0, 0],
    [-1, 1, 0],
    [0, 1, 0],
    [1, 1, 0],
    [-1, -1, 1],
    [0, -1, 1],
    [1, -1, 1],
    [-1, 0, 1],
    [0, 0, 1],
    [1, 0, 1],
    [-1, 1, 1],
    [0, 1, 1],
    [1, 1, 1],
];

/// Particles counting-sorted by cell, with their coordinates gathered
/// into contiguous per-cell slices: the neighbour structure of the force
/// kernel.
///
/// Sorted slot `k` holds particle `order()[k]`; the pair walk reports
/// slots, not particle indices, so a caller accumulates in sorted order
/// and scatters through `order()` once. The sort is stable — a cell lists
/// its particles in ascending index order — and serial, so the pair visit
/// order is a function of the positions alone.
///
/// Positions must lie in `[0, L]` per dimension, as `System` keeps them:
/// the walk never divides by the box length to find an image.
#[derive(Debug, Clone, Default)]
pub struct SortedCells {
    dims: [usize; 3],
    lengths: [f64; 3],
    cutoff: f64,
    /// Cell `c` owns sorted slots `start[c]..start[c + 1]`.
    start: Vec<usize>,
    /// Particle index per sorted slot.
    order: Vec<usize>,
    /// Coordinates in sorted order, `sorted[d][k]`.
    sorted: [Vec<f64>; 3],
    /// Scratch: cell index per particle.
    cell_idx: Vec<usize>,
}

impl SortedCells {
    /// Re-sorts `pos` (SoA layout) for interaction `cutoff`, reusing every
    /// allocation of the previous build while the sizes still fit.
    ///
    /// The per-particle cell indices are a parallel per-element map; the
    /// count, prefix sum and scatter are one serial O(N) pass.
    pub fn rebuild(&mut self, bounds: &SimBox, pos: &[Vec<f64>; 3], cutoff: f64, exec: &Exec) {
        let n = pos[0].len();
        self.cutoff = cutoff;
        self.lengths = bounds.lengths;
        for (dim, &len) in self.dims.iter_mut().zip(&bounds.lengths) {
            *dim = (len / cutoff).floor().max(1.0) as usize;
        }
        let dims = self.dims;
        let ncells = dims[0] * dims[1] * dims[2];
        self.cell_idx.clear();
        self.cell_idx.resize(n, 0);
        parallel::fill_chunks(
            exec,
            &mut self.cell_idx,
            parallel::chunk_count(n, 2048),
            |_, first, slice| {
                for (k, c) in slice.iter_mut().enumerate() {
                    let i = first + k;
                    *c = CellList::cell_of(bounds, dims, [pos[0][i], pos[1][i], pos[2][i]]);
                }
            },
        );
        // Counting sort with the counts kept two slots up: after the prefix
        // sum `start[c + 1]` is where cell `c` begins, and using it as that
        // cell's write cursor leaves it where cell `c + 1` begins — so once
        // every particle is placed `start[c]` is the start of cell `c`,
        // with no second cursor array and no shift back.
        self.start.clear();
        self.start.resize(ncells + 2, 0);
        for &c in &self.cell_idx {
            self.start[c + 2] += 1;
        }
        for c in 2..ncells + 2 {
            self.start[c] += self.start[c - 1];
        }
        self.order.clear();
        self.order.resize(n, 0);
        for axis in &mut self.sorted {
            axis.clear();
            axis.resize(n, 0.0);
        }
        let [sx, sy, sz] = &mut self.sorted;
        for (i, &c) in self.cell_idx.iter().enumerate() {
            let k = self.start[c + 1];
            self.start[c + 1] = k + 1;
            self.order[k] = i;
            sx[k] = pos[0][i];
            sy[k] = pos[1][i];
            sz[k] = pos[2][i];
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Particle index of every sorted slot.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Addresses of the six reusable arrays, to pin that a same-size
    /// rebuild allocates nothing.
    #[cfg(test)]
    pub(crate) fn storage_ptrs(&self) -> [usize; 6] {
        let [x, y, z] = &self.sorted;
        [
            self.start.as_ptr() as usize,
            self.order.as_ptr() as usize,
            self.cell_idx.as_ptr() as usize,
            x.as_ptr() as usize,
            y.as_ptr() as usize,
            z.as_ptr() as usize,
        ]
    }

    /// True when any grid dimension has <= 2 cells: the torus then reaches
    /// one unordered cell pair through two different half-stencil offsets,
    /// so pairs are deduplicated globally in a single full-range pass and
    /// the image is chosen per candidate, not per cell pair.
    pub fn is_degenerate(&self) -> bool {
        self.dims.iter().any(|&d| d <= 2)
    }

    /// Deterministic chunk count for parallel pair iteration: a fixed
    /// function of the cell count (see `parallel::chunk_count`), forced to
    /// 1 on degenerate grids.
    pub fn pair_chunks(&self) -> usize {
        if self.is_degenerate() {
            1
        } else {
            parallel::chunk_count(self.num_cells(), 32)
        }
    }

    /// Visits every unordered pair within the cutoff whose *home* cell
    /// (the cell owning the half stencil) has linear index in `cells`, as
    /// `f(i, j, dx, dy, dz, r2)`: sorted slots `i` and `j`, the
    /// minimum-image displacement `r_i - r_j` and its squared length.
    /// Disjoint ranges covering `0..num_cells()` visit each pair exactly
    /// once. Degenerate grids support the full range only, which
    /// [`SortedCells::pair_chunks`] guarantees by returning one chunk.
    pub fn for_each_pair_in(
        &self,
        cells: std::ops::Range<usize>,
        mut f: impl FnMut(usize, usize, f64, f64, f64, f64),
    ) {
        let degenerate = self.is_degenerate();
        debug_assert!(cells.end <= self.num_cells());
        debug_assert!(
            !degenerate || cells.len() == self.num_cells(),
            "degenerate grids need the global pair dedup: full range only"
        );
        let [nx, ny, nz] = self.dims;
        let cut2 = self.cutoff * self.cutoff;
        // a neighbour coordinate one step off the grid's end is the cell at
        // the other end, seen one box length away
        let step = |c: usize, s: i8, n: usize, l: f64| -> (usize, f64) {
            match c as i64 + i64::from(s) {
                -1 => (n - 1, -l),
                v if v == n as i64 => (0, l),
                v => (v as usize, 0.0),
            }
        };
        // both stay unallocated on a regular grid
        let mut seen_cells = Vec::new();
        let mut visited_pairs = std::collections::HashSet::new();
        for c in cells {
            let (cx, cy, cz) = (c % nx, (c / nx) % ny, c / (nx * ny));
            let home = self.start[c]..self.start[c + 1];
            seen_cells.clear();
            for s in &HALF_STENCIL {
                let (ox, shift_x) = step(cx, s[0], nx, self.lengths[0]);
                let (oy, shift_y) = step(cy, s[1], ny, self.lengths[1]);
                let (oz, shift_z) = step(cz, s[2], nz, self.lengths[2]);
                let o = (oz * ny + oy) * nx + ox;
                let other = self.start[o]..self.start[o + 1];
                let shift = [shift_x, shift_y, shift_z];
                if !degenerate {
                    self.cell_pair(home.clone(), other, o == c, shift, cut2, &mut f);
                    continue;
                }
                // two offsets from one cell can land on the same neighbour,
                // and the same unordered cell pair is reachable from both
                // of its cells
                if seen_cells.contains(&o) {
                    continue;
                }
                seen_cells.push(o);
                if o != c && !visited_pairs.insert((c.min(o), c.max(o))) {
                    continue;
                }
                self.cell_pair_folded(home.clone(), other, o == c, cut2, &mut f);
            }
        }
    }

    /// Candidate loop for one (home, neighbour) cell pair of a regular
    /// grid: the neighbour's image is `shift` away for every particle in
    /// it, so the shift comes off the home coordinate once per particle
    /// and a candidate costs three subtractions, three multiplies and a
    /// compare.
    fn cell_pair(
        &self,
        home: std::ops::Range<usize>,
        other: std::ops::Range<usize>,
        same: bool,
        shift: [f64; 3],
        cut2: f64,
        f: &mut impl FnMut(usize, usize, f64, f64, f64, f64),
    ) {
        let [x, y, z] = &self.sorted;
        for i in home {
            let (xi, yi, zi) = (x[i] - shift[0], y[i] - shift[1], z[i] - shift[2]);
            let js = if same {
                i + 1..other.end
            } else {
                other.clone()
            };
            let (xs, ys, zs) = (&x[js.clone()], &y[js.clone()], &z[js.clone()]);
            for (k, ((&xj, &yj), &zj)) in xs.iter().zip(ys).zip(zs).enumerate() {
                let (dx, dy, dz) = (xi - xj, yi - yj, zi - zj);
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 < cut2 {
                    f(i, js.start + k, dx, dy, dz, r2);
                }
            }
        }
    }

    /// Candidate loop for a degenerate grid, where one cell pair can touch
    /// across either face: the nearer image is picked per component by a
    /// compare and a subtract (coordinates are in `[0, L]`, so one box
    /// length is all a difference can be off by).
    fn cell_pair_folded(
        &self,
        home: std::ops::Range<usize>,
        other: std::ops::Range<usize>,
        same: bool,
        cut2: f64,
        f: &mut impl FnMut(usize, usize, f64, f64, f64, f64),
    ) {
        let [x, y, z] = &self.sorted;
        let [lx, ly, lz] = self.lengths;
        let fold = |d: f64, l: f64| {
            if d > 0.5 * l {
                d - l
            } else if d < -0.5 * l {
                d + l
            } else {
                d
            }
        };
        for i in home {
            let js = if same {
                i + 1..other.end
            } else {
                other.clone()
            };
            for j in js {
                let dx = fold(x[i] - x[j], lx);
                let dy = fold(y[i] - y[j], ly);
                let dz = fold(z[i] - z[j], lz);
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 < cut2 {
                    f(i, j, dx, dy, dz, r2);
                }
            }
        }
    }
}

/// O(N²) reference pair iteration — the test oracle.
pub fn brute_force_pairs(
    bounds: &SimBox,
    pos: &[Vec<f64>; 3],
    cutoff: f64,
    mut f: impl FnMut(usize, usize, f64),
) {
    let n = pos[0].len();
    let cut2 = cutoff * cutoff;
    for i in 0..n {
        let pi = [pos[0][i], pos[1][i], pos[2][i]];
        for (j, ((&xj, &yj), &zj)) in pos[0]
            .iter()
            .zip(&pos[1])
            .zip(&pos[2])
            .enumerate()
            .skip(i + 1)
        {
            let r2 = bounds.dist2(pi, [xj, yj, zj]);
            if r2 < cut2 {
                f(i, j, r2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn random_positions(n: usize, l: f64, seed: u64) -> [Vec<f64>; 3] {
        // deterministic LCG to avoid pulling rand into the unit test
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut nextf = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * l
        };
        let mut pos = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..n {
            for p in pos.iter_mut() {
                p.push(nextf());
            }
        }
        pos
    }

    fn pair_set(
        iter: impl FnOnce(&mut dyn FnMut(usize, usize, f64)),
    ) -> HashSet<(usize, usize)> {
        let mut set = HashSet::new();
        let mut f = |i: usize, j: usize, _r2: f64| {
            let key = (i.min(j), i.max(j));
            assert!(set.insert(key), "pair {key:?} visited twice");
        };
        iter(&mut f);
        set
    }

    #[test]
    fn matches_brute_force_large_box() {
        let bounds = SimBox::cubic(12.0);
        let pos = random_positions(300, 12.0, 42);
        let cutoff = 2.5;
        let cl = CellList::build(&bounds, &pos, cutoff);
        let fast = pair_set(|f| cl.for_each_pair(&bounds, &pos, f));
        let slow = pair_set(|f| brute_force_pairs(&bounds, &pos, cutoff, f));
        assert_eq!(fast, slow);
        assert!(!slow.is_empty());
    }

    #[test]
    fn matches_brute_force_small_box() {
        // box barely larger than the cutoff: stencil aliases heavily
        let bounds = SimBox::cubic(3.0);
        let pos = random_positions(40, 3.0, 7);
        let cutoff = 1.4;
        let cl = CellList::build(&bounds, &pos, cutoff);
        let fast = pair_set(|f| cl.for_each_pair(&bounds, &pos, f));
        let slow = pair_set(|f| brute_force_pairs(&bounds, &pos, cutoff, f));
        assert_eq!(fast, slow);
    }

    #[test]
    fn matches_brute_force_anisotropic_box() {
        let bounds = SimBox {
            lengths: [10.0, 4.0, 7.0],
        };
        let mut pos = random_positions(150, 1.0, 3);
        for (d, l) in [(0usize, 10.0), (1, 4.0), (2, 7.0)] {
            pos[d].iter_mut().for_each(|x| *x *= l);
        }
        let cutoff = 1.8;
        let cl = CellList::build(&bounds, &pos, cutoff);
        let fast = pair_set(|f| cl.for_each_pair(&bounds, &pos, f));
        let slow = pair_set(|f| brute_force_pairs(&bounds, &pos, cutoff, f));
        assert_eq!(fast, slow);
    }

    #[test]
    fn distances_match_min_image() {
        let bounds = SimBox::cubic(10.0);
        let pos: [Vec<f64>; 3] = [vec![0.5, 9.5], vec![1.0, 1.0], vec![1.0, 1.0]];
        let cl = CellList::build(&bounds, &pos, 2.0);
        let mut found = None;
        cl.for_each_pair(&bounds, &pos, |i, j, r2| {
            found = Some((i.min(j), i.max(j), r2));
        });
        let (i, j, r2) = found.expect("wrapped pair must be found");
        assert_eq!((i, j), (0, 1));
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rebuild_reuses_allocations_and_matches_build() {
        let bounds = SimBox::cubic(12.0);
        let pos = random_positions(300, 12.0, 42);
        let mut cl = CellList::build(&bounds, &pos, 2.5);
        let heads_ptr = cl.heads.as_ptr();
        let next_ptr = cl.next.as_ptr();
        // same-size rebuild on moved particles: no reallocation
        let pos2 = random_positions(300, 12.0, 43);
        cl.rebuild(&bounds, &pos2, 2.5, &Exec::with_threads(2));
        assert_eq!(cl.heads.as_ptr(), heads_ptr, "heads reallocated");
        assert_eq!(cl.next.as_ptr(), next_ptr, "next reallocated");
        let fresh = CellList::build(&bounds, &pos2, 2.5);
        let rebuilt = pair_set(|f| cl.for_each_pair(&bounds, &pos2, f));
        let built = pair_set(|f| fresh.for_each_pair(&bounds, &pos2, f));
        assert_eq!(rebuilt, built);
    }

    #[test]
    fn ranged_iteration_partitions_the_pair_set() {
        let bounds = SimBox::cubic(12.0);
        let pos = random_positions(300, 12.0, 9);
        let cl = CellList::build(&bounds, &pos, 2.5);
        assert!(!cl.is_degenerate());
        let chunks = cl.pair_chunks();
        assert!(chunks > 1, "expected a multi-chunk grid, got {chunks}");
        let full = pair_set(|f| cl.for_each_pair(&bounds, &pos, f));
        let mut union = HashSet::new();
        for c in 0..chunks {
            let range = parallel::chunk_bounds(cl.num_cells(), chunks, c);
            cl.for_each_pair_in(&bounds, &pos, range, |i, j, _| {
                let key = (i.min(j), i.max(j));
                assert!(union.insert(key), "pair {key:?} in two chunks");
            });
        }
        assert_eq!(union, full);
    }

    #[test]
    fn degenerate_grids_force_one_chunk() {
        let bounds = SimBox::cubic(3.0);
        let pos = random_positions(40, 3.0, 7);
        let cl = CellList::build(&bounds, &pos, 1.4);
        assert!(cl.is_degenerate());
        assert_eq!(cl.pair_chunks(), 1);
    }

    fn sorted(bounds: &SimBox, pos: &[Vec<f64>; 3], cutoff: f64) -> SortedCells {
        let mut sc = SortedCells::default();
        sc.rebuild(bounds, pos, cutoff, &Exec::serial());
        sc
    }

    /// The sorted walk's pairs over `cells`, keyed by particle (not slot)
    /// indices; panics on a pair seen twice.
    fn sorted_pair_set(sc: &SortedCells, cells: std::ops::Range<usize>) -> HashSet<(usize, usize)> {
        let order = sc.order();
        pair_set(|f| {
            sc.for_each_pair_in(cells, |i, j, _, _, _, r2| f(order[i], order[j], r2));
        })
    }

    /// Box, cutoff, expected grid: one regular cubic grid, one regular grid
    /// at the 3-cell minimum, and three degenerate ones (2 cells everywhere,
    /// 2 cells along y only, 1 cell along y).
    const SHAPES: [([f64; 3], f64, [usize; 3]); 5] = [
        ([12.0, 12.0, 12.0], 2.5, [4, 4, 4]),
        ([11.0, 8.0, 9.5], 2.5, [4, 3, 3]),
        ([3.0, 3.0, 3.0], 1.4, [2, 2, 2]),
        ([10.0, 4.0, 7.0], 1.8, [5, 2, 3]),
        ([9.0, 2.0, 6.0], 1.5, [6, 1, 4]),
    ];

    fn shape_positions(lengths: [f64; 3], seed: u64) -> [Vec<f64>; 3] {
        let mut pos = random_positions(200, 1.0, seed);
        for (axis, l) in pos.iter_mut().zip(lengths) {
            axis.iter_mut().for_each(|x| *x *= l);
        }
        pos
    }

    #[test]
    fn sorted_walk_matches_brute_force_and_min_image() {
        for (lengths, cutoff, dims) in SHAPES {
            let bounds = SimBox { lengths };
            let pos = shape_positions(lengths, 11);
            let sc = sorted(&bounds, &pos, cutoff);
            assert_eq!(sc.dims, dims);
            let at = |p: usize| [pos[0][p], pos[1][p], pos[2][p]];
            let order = sc.order();
            let mut fast = HashSet::new();
            // faces[d][0]: a pair whose lower-index particle reaches the
            // other through the low face of dimension d; [1]: the high face
            let mut faces = [[0usize; 2]; 3];
            sc.for_each_pair_in(0..sc.num_cells(), |i, j, dx, dy, dz, r2| {
                let (a, b) = (order[i], order[j]);
                assert!(
                    fast.insert((a.min(b), a.max(b))),
                    "pair ({a}, {b}) visited twice"
                );
                let want = bounds.displacement(at(a), at(b));
                for (got, want) in [dx, dy, dz].into_iter().zip(want) {
                    assert!(
                        (got - want).abs() < 1e-12,
                        "{lengths:?}: ({a}, {b}) {got} vs {want}"
                    );
                }
                assert!((r2 - (dx * dx + dy * dy + dz * dz)).abs() < 1e-12 && r2 < cutoff * cutoff);
                for d in 0..3 {
                    // raw minus minimum-image difference: 0, or ±L when wrapped
                    let wrapped = (at(a)[d] - at(b)[d]) - want[d];
                    let lower_is_first = if a < b { wrapped } else { -wrapped };
                    if lower_is_first < -0.5 * lengths[d] {
                        faces[d][0] += 1;
                    } else if lower_is_first > 0.5 * lengths[d] {
                        faces[d][1] += 1;
                    }
                }
            });
            let slow = pair_set(|f| brute_force_pairs(&bounds, &pos, cutoff, f));
            assert_eq!(fast, slow, "{lengths:?}");
            assert!(
                faces.iter().flatten().all(|&count| count > 0),
                "{lengths:?}: a periodic face saw no pair: {faces:?}"
            );
        }
    }

    #[test]
    fn sorted_ranged_iteration_partitions_the_pair_set() {
        for (lengths, cutoff, _) in SHAPES {
            let bounds = SimBox { lengths };
            let pos = shape_positions(lengths, 9);
            let sc = sorted(&bounds, &pos, cutoff);
            let ncells = sc.num_cells();
            let full = sorted_pair_set(&sc, 0..ncells);
            assert!(!full.is_empty());
            if sc.is_degenerate() {
                assert_eq!(sc.pair_chunks(), 1);
                continue;
            }
            for chunks in 1..=8 {
                let mut union = HashSet::new();
                for c in 0..chunks {
                    let range = parallel::chunk_bounds(ncells, chunks, c);
                    for pair in sorted_pair_set(&sc, range) {
                        assert!(
                            union.insert(pair),
                            "pair {pair:?} in two of {chunks} chunks"
                        );
                    }
                }
                assert_eq!(union, full, "{chunks} chunks");
            }
        }
    }

    #[test]
    fn sorted_order_is_stable_by_cell() {
        let bounds = SimBox::cubic(12.0);
        let pos = random_positions(300, 12.0, 42);
        let sc = sorted(&bounds, &pos, 2.5);
        assert_eq!(sc.start.len(), sc.num_cells() + 2);
        assert_eq!(sc.start[sc.num_cells()], 300);
        for c in 0..sc.num_cells() {
            let slots = sc.start[c]..sc.start[c + 1];
            assert!(
                sc.order[slots.clone()].windows(2).all(|w| w[0] < w[1]),
                "cell {c}"
            );
            for k in slots {
                let p = sc.order[k];
                assert_eq!(sc.cell_idx[p], c);
                assert_eq!(
                    [sc.sorted[0][k], sc.sorted[1][k], sc.sorted[2][k]],
                    [pos[0][p], pos[1][p], pos[2][p]]
                );
            }
        }
    }

    #[test]
    fn sorted_empty_and_single_particle() {
        let bounds = SimBox::cubic(5.0);
        for n in [0, 1] {
            let pos: [Vec<f64>; 3] = [vec![1.0; n], vec![1.0; n], vec![1.0; n]];
            let sc = sorted(&bounds, &pos, 1.0);
            assert_eq!(sc.num_cells(), 125);
            sc.for_each_pair_in(0..125, |_, _, _, _, _, _| panic!("no pairs expected"));
        }
    }

    #[test]
    fn empty_and_single_particle() {
        let bounds = SimBox::cubic(5.0);
        let empty: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let cl = CellList::build(&bounds, &empty, 1.0);
        cl.for_each_pair(&bounds, &empty, |_, _, _| panic!("no pairs expected"));
        let single: [Vec<f64>; 3] = [vec![1.0], vec![1.0], vec![1.0]];
        let cl = CellList::build(&bounds, &single, 1.0);
        cl.for_each_pair(&bounds, &single, |_, _, _| panic!("no pairs expected"));
        assert_eq!(cl.num_cells(), 125);
    }
}

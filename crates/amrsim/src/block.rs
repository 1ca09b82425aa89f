//! Mesh blocks: 16³ cells × 10 flow variables with ghost layers.

/// Cells per block edge in the paper's configuration.
pub const BLOCK_CELLS: usize = 16;
/// Ghost-layer width (one is enough for the first-order HLL stencil).
pub const GHOST: usize = 1;
/// Number of mesh variables per block ("each block consists of 10 mesh
/// variables", §5.2).
pub const NVARS: usize = 10;

/// The 10 FLASH-style mesh variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FlowVar {
    /// Mass density ρ.
    Dens = 0,
    /// x-velocity.
    Velx = 1,
    /// y-velocity.
    Vely = 2,
    /// z-velocity.
    Velz = 3,
    /// Pressure.
    Pres = 4,
    /// Total specific energy.
    Ener = 5,
    /// Internal specific energy.
    Eint = 6,
    /// Temperature (ideal-gas proxy: p/ρ).
    Temp = 7,
    /// Adiabatic index (uniform γ here, stored per FLASH convention).
    Gamc = 8,
    /// Scratch variable (vorticity magnitude is cached here).
    Vort = 9,
}

impl FlowVar {
    /// Index of the variable in block storage.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One block: `n³` interior cells plus ghost layers, `NVARS` variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Interior cells per edge.
    pub n: usize,
    /// Storage: `NVARS` contiguous (n+2g)³ scalar fields.
    data: Vec<f64>,
    /// Block position in the mesh's block grid.
    pub coords: [usize; 3],
}

impl Block {
    /// Width including ghosts.
    #[inline]
    pub fn width(&self) -> usize {
        self.n + 2 * GHOST
    }

    /// Creates a zeroed block at `coords`.
    pub fn new(n: usize, coords: [usize; 3]) -> Self {
        let w = n + 2 * GHOST;
        Block {
            n,
            data: vec![0.0; NVARS * w * w * w],
            coords,
        }
    }

    /// Linear index of `(var, i, j, k)` where `i/j/k ∈ -GHOST..n+GHOST`
    /// as signed offsets passed via `usize` ghost-shifted coordinates
    /// `0..width`.
    #[inline]
    fn idx(&self, var: usize, gi: usize, gj: usize, gk: usize) -> usize {
        let w = self.width();
        ((var * w + gk) * w + gj) * w + gi
    }

    /// Value at ghost-shifted coordinates (`0..width` per axis; interior
    /// cells live at `GHOST..GHOST+n`).
    #[inline]
    pub fn at(&self, var: FlowVar, gi: usize, gj: usize, gk: usize) -> f64 {
        self.data[self.idx(var.index(), gi, gj, gk)]
    }

    /// Mutable access at ghost-shifted coordinates.
    #[inline]
    pub fn at_mut(&mut self, var: FlowVar, gi: usize, gj: usize, gk: usize) -> &mut f64 {
        let i = self.idx(var.index(), gi, gj, gk);
        &mut self.data[i]
    }

    /// Interior value at `0..n` per axis.
    #[inline]
    pub fn cell(&self, var: FlowVar, i: usize, j: usize, k: usize) -> f64 {
        self.at(var, i + GHOST, j + GHOST, k + GHOST)
    }

    /// Mutable interior value at `0..n` per axis.
    #[inline]
    pub fn cell_mut(&mut self, var: FlowVar, i: usize, j: usize, k: usize) -> &mut f64 {
        self.at_mut(var, i + GHOST, j + GHOST, k + GHOST)
    }

    /// One variable's whole `(n+2g)³` field, ghosts included, x fastest: the
    /// linear index of ghost-shifted `(gi, gj, gk)` is `(gk·w + gj)·w + gi`.
    pub(crate) fn var(&self, var: FlowVar) -> &[f64] {
        let len = self.width().pow(3);
        &self.data[var.index() * len..(var.index() + 1) * len]
    }

    /// Mutable [`Block::var`].
    pub(crate) fn var_mut(&mut self, var: FlowVar) -> &mut [f64] {
        let len = self.width().pow(3);
        &mut self.data[var.index() * len..(var.index() + 1) * len]
    }

    /// All `NVARS` fields at once as disjoint mutable slices, indexed by
    /// [`FlowVar::index`] and laid out as [`Block::var`] describes.
    pub(crate) fn vars_mut(&mut self) -> [&mut [f64]; NVARS] {
        split_fields(&mut self.data)
    }

    /// Copies the `n × n` cells of `var` on the plane whose ghost-shifted
    /// coordinate along `axis` is `c` (the other two axes run over the
    /// interior, the lower one fastest) into `out`. Rows of a y or z plane
    /// are contiguous and go as slices; an x plane is one strided loop.
    pub(crate) fn read_plane(&self, var: FlowVar, axis: usize, c: usize, out: &mut [f64]) {
        let (n, w) = (self.n, self.width());
        let field = self.var(var);
        for (v, row) in out.chunks_exact_mut(n).enumerate() {
            let start = plane_row_start(w, axis, c, v);
            if axis == 0 {
                for (o, x) in row.iter_mut().zip(field[start..].iter().step_by(w)) {
                    *o = *x;
                }
            } else {
                row.copy_from_slice(&field[start..start + n]);
            }
        }
    }

    /// The inverse of [`Block::read_plane`]: writes `src` onto that plane.
    pub(crate) fn write_plane(&mut self, var: FlowVar, axis: usize, c: usize, src: &[f64]) {
        let (n, w) = (self.n, self.width());
        let field = self.var_mut(var);
        for (v, row) in src.chunks_exact(n).enumerate() {
            let start = plane_row_start(w, axis, c, v);
            if axis == 0 {
                for (x, o) in field[start..].iter_mut().step_by(w).zip(row) {
                    *x = *o;
                }
            } else {
                field[start..start + n].copy_from_slice(row);
            }
        }
    }

    /// Fills a variable (interior + ghosts) with a constant.
    pub fn fill(&mut self, var: FlowVar, value: f64) {
        let w = self.width();
        let v = var.index();
        let start = v * w * w * w;
        self.data[start..start + w * w * w]
            .iter_mut()
            .for_each(|x| *x = value);
    }

    /// Sum of a variable over interior cells.
    pub fn interior_sum(&self, var: FlowVar) -> f64 {
        let mut s = 0.0;
        for k in 0..self.n {
            for j in 0..self.n {
                for i in 0..self.n {
                    s += self.cell(var, i, j, k);
                }
            }
        }
        s
    }

    /// Bytes of storage held by this block.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

/// Splits `buf` into `K` equal consecutive fields (a `buf` too short for
/// one element each yields empty ones).
pub(crate) fn split_fields<const K: usize>(buf: &mut [f64]) -> [&mut [f64]; K] {
    let mut fields = buf.chunks_exact_mut((buf.len() / K).max(1));
    std::array::from_fn(|_| fields.next().unwrap_or_default())
}

/// Index, in a field of width `w`, of the first interior cell of in-plane
/// row `v` on the plane `c` (ghost-shifted) normal to `axis`. The row's
/// cells follow at stride 1 for a y or z plane and at stride `w` for an x
/// plane (whose rows run along y).
fn plane_row_start(w: usize, axis: usize, c: usize, v: usize) -> usize {
    match axis {
        0 => ((v + GHOST) * w + GHOST) * w + c,
        1 => ((v + GHOST) * w + c) * w + GHOST,
        _ => (c * w + v + GHOST) * w + GHOST,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_block_dimensions() {
        let b = Block::new(BLOCK_CELLS, [0, 0, 0]);
        assert_eq!(b.width(), 18);
        // 10 vars × 18³ cells × 8 bytes
        assert_eq!(b.byte_size(), NVARS * 18 * 18 * 18 * 8);
    }

    #[test]
    fn interior_and_ghost_indexing_disjoint() {
        let mut b = Block::new(4, [0, 0, 0]);
        *b.cell_mut(FlowVar::Dens, 0, 0, 0) = 7.0;
        assert_eq!(b.at(FlowVar::Dens, GHOST, GHOST, GHOST), 7.0);
        *b.at_mut(FlowVar::Dens, 0, GHOST, GHOST) = 3.0; // ghost cell
        assert_eq!(b.cell(FlowVar::Dens, 0, 0, 0), 7.0, "interior untouched");
    }

    #[test]
    fn variables_do_not_alias() {
        let mut b = Block::new(4, [0, 0, 0]);
        b.fill(FlowVar::Dens, 1.0);
        b.fill(FlowVar::Pres, 2.0);
        assert_eq!(b.cell(FlowVar::Dens, 2, 2, 2), 1.0);
        assert_eq!(b.cell(FlowVar::Pres, 2, 2, 2), 2.0);
        *b.cell_mut(FlowVar::Velx, 1, 2, 3) = 9.0;
        assert_eq!(b.cell(FlowVar::Dens, 1, 2, 3), 1.0);
        assert_eq!(b.cell(FlowVar::Velx, 1, 2, 3), 9.0);
    }

    #[test]
    fn interior_sum_ignores_ghosts() {
        let mut b = Block::new(2, [0, 0, 0]);
        b.fill(FlowVar::Dens, 1.0); // fills ghosts too
        assert_eq!(b.interior_sum(FlowVar::Dens), 8.0);
    }

    #[test]
    fn flow_var_indices_cover_nvars() {
        assert_eq!(FlowVar::Dens.index(), 0);
        assert_eq!(FlowVar::Vort.index(), NVARS - 1);
    }
}

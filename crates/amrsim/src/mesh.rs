//! The block-structured mesh: block grid, ghost exchange, boundaries.

use crate::block::{Block, FlowVar, GHOST};
use parallel::{Exec, ParStats, ScratchPool};

/// A block-structured uniform mesh over an orthorhombic domain.
///
/// **Ghost invariant:** the face ghosts of the hydro state are current —
/// [`Mesh::ghosts_current`] — whenever the mesh is at rest, i.e. between
/// calls. Whoever writes interior cells exchanges before handing the mesh
/// on: [`crate::sedov::SedovSetup::init`] and [`crate::euler::step_ex`] end
/// with [`Mesh::exchange_ghosts`], and a test that pokes cells calls it
/// itself. Readers (the Euler sweep, the vorticity stencil) rely on it and
/// never exchange on entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    /// Blocks per axis.
    pub block_dims: [usize; 3],
    /// Cells per block edge.
    pub block_cells: usize,
    /// Physical domain edge lengths.
    pub domain: [f64; 3],
    /// Blocks in x-fastest order.
    pub blocks: Vec<Block>,
}

/// Variables that participate in ghost exchange (the hydro state; the
/// other four are derived per cell or analysis scratch).
const EXCHANGED: [FlowVar; 6] = [
    FlowVar::Dens,
    FlowVar::Velx,
    FlowVar::Vely,
    FlowVar::Velz,
    FlowVar::Pres,
    FlowVar::Ener,
];

/// The six block faces as `(axis, negative side?)`.
const FACES: [(usize, bool); 6] = [
    (0, true),
    (0, false),
    (1, true),
    (1, false),
    (2, true),
    (2, false),
];

impl Mesh {
    /// Creates a zeroed mesh of `block_dims` blocks with `block_cells`
    /// cells per block edge over `domain`.
    pub fn new(block_dims: [usize; 3], block_cells: usize, domain: [f64; 3]) -> Self {
        let mut blocks = Vec::with_capacity(block_dims.iter().product());
        for bz in 0..block_dims[2] {
            for by in 0..block_dims[1] {
                for bx in 0..block_dims[0] {
                    blocks.push(Block::new(block_cells, [bx, by, bz]));
                }
            }
        }
        Mesh {
            block_dims,
            block_cells,
            domain,
            blocks,
        }
    }

    /// Cell size along each axis.
    pub fn dx(&self) -> [f64; 3] {
        [
            self.domain[0] / (self.block_dims[0] * self.block_cells) as f64,
            self.domain[1] / (self.block_dims[1] * self.block_cells) as f64,
            self.domain[2] / (self.block_dims[2] * self.block_cells) as f64,
        ]
    }

    /// Total interior cells.
    pub fn total_cells(&self) -> usize {
        self.blocks.len() * self.block_cells.pow(3)
    }

    /// Cell volume.
    pub fn cell_volume(&self) -> f64 {
        let d = self.dx();
        d[0] * d[1] * d[2]
    }

    /// Linear block index from block coordinates.
    pub fn block_index(&self, bx: usize, by: usize, bz: usize) -> usize {
        (bz * self.block_dims[1] + by) * self.block_dims[0] + bx
    }

    /// Physical centre of interior cell `(i, j, k)` of block `b`.
    pub fn cell_center(&self, b: usize, i: usize, j: usize, k: usize) -> [f64; 3] {
        let d = self.dx();
        let c = self.blocks[b].coords;
        [
            (c[0] * self.block_cells + i) as f64 * d[0] + 0.5 * d[0],
            (c[1] * self.block_cells + j) as f64 * d[1] + 0.5 * d[1],
            (c[2] * self.block_cells + k) as f64 * d[2] + 0.5 * d[2],
        ]
    }

    /// Applies `f` to every interior cell of every block:
    /// `f(block_index, i, j, k, centre)`.
    pub fn for_each_cell(&self, mut f: impl FnMut(usize, usize, usize, usize, [f64; 3])) {
        for b in 0..self.blocks.len() {
            for k in 0..self.block_cells {
                for j in 0..self.block_cells {
                    for i in 0..self.block_cells {
                        f(b, i, j, k, self.cell_center(b, i, j, k));
                    }
                }
            }
        }
    }

    /// Volume integral of a variable over the whole domain.
    pub fn integral(&self, var: FlowVar) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.interior_sum(var))
            .sum::<f64>()
            * self.cell_volume()
    }

    /// For each of block `b`'s six [`FACES`], where its ghost plane comes
    /// from: `(source block, interior plane coordinate)` — the neighbour's
    /// far plane, or the block's own boundary plane on a domain face
    /// (outflow / zero-gradient).
    fn face_sources(&self, b: usize) -> [(usize, usize); 6] {
        let n = self.block_cells;
        let dims = self.block_dims;
        let coords = self.blocks[b].coords;
        let strides = [1, dims[0], dims[0] * dims[1]];
        FACES.map(|(axis, neg)| {
            if neg && coords[axis] > 0 {
                (b - strides[axis], n - 1)
            } else if !neg && coords[axis] + 1 < dims[axis] {
                (b + strides[axis], 0)
            } else {
                (b, if neg { 0 } else { n - 1 })
            }
        })
    }

    /// Whether every face ghost of the exchanged variables equals, bit for
    /// bit, the interior plane it mirrors — the invariant the type documents
    /// and [`crate::euler::step_ex`] asserts in debug builds. O(surface);
    /// meant for assertions and tests.
    pub fn ghosts_current(&self) -> bool {
        let plane = self.block_cells * self.block_cells;
        let (mut ghost, mut source) = (vec![0.0; plane], vec![0.0; plane]);
        self.blocks.iter().enumerate().all(|(b, block)| {
            let sources = self.face_sources(b);
            FACES.iter().zip(sources).all(|(&(axis, neg), (src, sc))| {
                EXCHANGED.iter().all(|&var| {
                    block.read_plane(var, axis, ghost_plane(self.block_cells, neg), &mut ghost);
                    self.blocks[src].read_plane(var, axis, sc + GHOST, &mut source);
                    ghost
                        .iter()
                        .zip(&source)
                        .all(|(g, s)| g.to_bits() == s.to_bits())
                })
            })
        })
    }

    /// Fills the ghost layers of every block: interior faces copy the
    /// neighbouring block's edge cells; domain faces use outflow
    /// (zero-gradient) boundaries.
    ///
    /// Serial convenience wrapper over [`Mesh::exchange_ghosts_ex`] with a
    /// transient scratch pool.
    pub fn exchange_ghosts(&mut self) {
        self.exchange_ghosts_ex(&Exec::serial(), &ScratchPool::new());
    }

    /// [`Mesh::exchange_ghosts`] on an explicit execution context, with
    /// gather buffers drawn from `pool`. Returns the shape and directly
    /// timed wall of the two phases together.
    ///
    /// Runs in two phases: **gather** reads, for every block, the six
    /// source planes (neighbour far-interior plane, or the block's own
    /// boundary plane for outflow faces) of all exchanged hydro variables
    /// into one pooled buffer per block; **scatter** writes each block's
    /// buffer into its own ghost planes. The gather phase reads *interior*
    /// cells only and the scatter phase writes *ghost* cells only, so the
    /// result is bitwise identical to the serial exchange at any thread
    /// count — no write is visible to any read. Both phases move whole
    /// planes: the rows of a y or z face as slices, an x face in one
    /// strided loop.
    pub fn exchange_ghosts_ex(&mut self, exec: &Exec, pool: &ScratchPool) -> ParStats {
        let n = self.block_cells;
        let plane = n * n;
        // phase 1: gather. One flat buffer per block, face-major then
        // variable-major, one `plane` each. Every slot is overwritten, so
        // stale pooled contents are fine.
        let slot = |face: usize, var: usize| {
            let start = (face * EXCHANGED.len() + var) * plane;
            start..start + plane
        };
        let mesh = &*self;
        let (gathered, gather) = parallel::map_chunks(exec, mesh.blocks.len(), |b| {
            let mut buf = pool.take(FACES.len() * EXCHANGED.len() * plane);
            let sources = mesh.face_sources(b);
            for (fi, (&(axis, _), (src, sc))) in FACES.iter().zip(sources).enumerate() {
                for (vi, &var) in EXCHANGED.iter().enumerate() {
                    mesh.blocks[src].read_plane(var, axis, sc + GHOST, &mut buf[slot(fi, vi)]);
                }
            }
            buf
        });
        // phase 2: scatter each block's gathered planes into its ghosts
        let scatter = parallel::for_each_mut(exec, &mut self.blocks, |b, block| {
            for (fi, &(axis, neg)) in FACES.iter().enumerate() {
                for (vi, &var) in EXCHANGED.iter().enumerate() {
                    block.write_plane(var, axis, ghost_plane(n, neg), &gathered[b][slot(fi, vi)]);
                }
            }
        });
        for buf in gathered {
            pool.put(buf);
        }
        ParStats {
            threads_used: gather.threads_used.max(scatter.threads_used),
            chunks: gather.chunks + scatter.chunks,
            wall: gather.wall + scatter.wall,
            merge: gather.merge + scatter.merge,
        }
    }
}

/// Ghost-shifted coordinate of the ghost plane on a block's negative or
/// positive side.
fn ghost_plane(n: usize, neg: bool) -> usize {
    if neg {
        0
    } else {
        n + GHOST
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let m = Mesh::new([2, 1, 1], 4, [2.0, 1.0, 1.0]);
        assert_eq!(m.blocks.len(), 2);
        assert_eq!(m.dx(), [0.25, 0.25, 0.25]);
        assert_eq!(m.total_cells(), 128);
        // first cell of second block starts at x = 1.0
        let c = m.cell_center(1, 0, 0, 0);
        assert!((c[0] - 1.125).abs() < 1e-12);
    }

    #[test]
    fn ghost_exchange_copies_neighbor_interior() {
        let mut m = Mesh::new([2, 1, 1], 4, [2.0, 1.0, 1.0]);
        // block 0 density 1, block 1 density 2
        m.blocks[0].fill(FlowVar::Dens, 1.0);
        m.blocks[1].fill(FlowVar::Dens, 2.0);
        m.exchange_ghosts();
        // block 0's +x ghost plane must hold 2.0 (from block 1)
        let b0 = &m.blocks[0];
        assert_eq!(b0.at(FlowVar::Dens, 4 + GHOST, GHOST, GHOST), 2.0);
        // block 1's -x ghost plane must hold 1.0
        let b1 = &m.blocks[1];
        assert_eq!(b1.at(FlowVar::Dens, 0, GHOST, GHOST), 1.0);
    }

    #[test]
    fn outflow_boundaries_copy_edge() {
        let mut m = Mesh::new([1, 1, 1], 4, [1.0, 1.0, 1.0]);
        // gradient in x: cell value = i
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    *m.blocks[0].cell_mut(FlowVar::Pres, i, j, k) = i as f64;
                }
            }
        }
        m.exchange_ghosts();
        let b = &m.blocks[0];
        assert_eq!(b.at(FlowVar::Pres, 0, GHOST, GHOST), 0.0); // -x ghost = cell 0
        assert_eq!(b.at(FlowVar::Pres, 5, GHOST, GHOST), 3.0); // +x ghost = cell 3
    }

    /// A mesh of 4³-cell blocks whose every exchanged interior value is
    /// distinct, ghosts left stale (zero).
    fn numbered_mesh(block_dims: [usize; 3]) -> Mesh {
        let mut m = Mesh::new(block_dims, 4, [1.0, 1.0, 1.0]);
        for (bi, b) in m.blocks.iter_mut().enumerate() {
            for (vi, &var) in EXCHANGED.iter().enumerate() {
                for i in 0..4 {
                    for j in 0..4 {
                        for k in 0..4 {
                            *b.cell_mut(var, i, j, k) =
                                (bi * 1000 + vi * 100 + i * 16 + j * 4 + k) as f64 * 0.375;
                        }
                    }
                }
            }
        }
        m
    }

    #[test]
    fn exchange_fills_every_face_ghost_from_its_source_cell() {
        // cell by cell through `at` / `cell`, sharing nothing with the plane
        // copies: interior and outflow faces on every axis
        let mut m = numbered_mesh([3, 2, 2]);
        assert!(!m.ghosts_current());
        m.exchange_ghosts();
        assert!(m.ghosts_current());
        let n = m.block_cells;
        for (b, block) in m.blocks.iter().enumerate() {
            for (axis, neg) in FACES {
                let mut coords = block.coords;
                let (src, sc) = if neg && coords[axis] > 0 {
                    coords[axis] -= 1;
                    (m.block_index(coords[0], coords[1], coords[2]), n - 1)
                } else if !neg && coords[axis] + 1 < m.block_dims[axis] {
                    coords[axis] += 1;
                    (m.block_index(coords[0], coords[1], coords[2]), 0)
                } else {
                    (b, if neg { 0 } else { n - 1 })
                };
                let (u_axis, v_axis) = [(1, 2), (0, 2), (0, 1)][axis];
                for var in EXCHANGED {
                    for (u, v) in (0..n).flat_map(|u| (0..n).map(move |v| (u, v))) {
                        let (mut ghost, mut source) = ([0; 3], [0; 3]);
                        (ghost[u_axis], ghost[v_axis]) = (u + GHOST, v + GHOST);
                        ghost[axis] = if neg { 0 } else { n + GHOST };
                        (source[u_axis], source[v_axis], source[axis]) = (u, v, sc);
                        assert_eq!(
                            block.at(var, ghost[0], ghost[1], ghost[2]),
                            m.blocks[src].cell(var, source[0], source[1], source[2]),
                            "block {b} {var:?} face ({axis}, {neg}) at ({u}, {v})"
                        );
                    }
                }
            }
        }
        // one interior write next to a face makes the mesh stale again
        *m.blocks[0].cell_mut(FlowVar::Ener, 3, 1, 2) += 1.0;
        assert!(!m.ghosts_current());
    }

    #[test]
    fn parallel_ghost_exchange_matches_serial() {
        let mut serial = numbered_mesh([2, 2, 2]);
        let mut par = serial.clone();
        serial.exchange_ghosts();
        let pool = ScratchPool::new();
        par.exchange_ghosts_ex(&Exec::with_threads(4), &pool);
        assert_eq!(serial, par, "ghost exchange must be thread-count invariant");
        // a second exchange reuses every gather buffer
        let before = pool.counters();
        par.exchange_ghosts_ex(&Exec::with_threads(4), &pool);
        let after = pool.counters();
        assert_eq!(after.allocs, before.allocs, "warm exchange must not allocate");
        assert_eq!(after.reuses, before.reuses + par.blocks.len());
    }

    #[test]
    fn integral_scales_with_volume() {
        let mut m = Mesh::new([2, 2, 2], 4, [1.0, 1.0, 1.0]);
        for b in &mut m.blocks {
            b.fill(FlowVar::Dens, 3.0);
        }
        assert!((m.integral(FlowVar::Dens) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn for_each_cell_covers_all() {
        let m = Mesh::new([2, 1, 1], 3, [1.0, 1.0, 1.0]);
        let mut count = 0;
        m.for_each_cell(|_, _, _, _, c| {
            count += 1;
            assert!(c[0] > 0.0 && c[0] < 1.0);
        });
        assert_eq!(count, m.total_cells());
    }
}

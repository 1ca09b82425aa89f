//! N-dimensional torus/mesh partition topology.
//!
//! Blue Gene/Q partitions are blocks of a 5-D torus; a dimension is a ring
//! (wraparound) when the partition spans the full machine extent in that
//! dimension, otherwise a line (mesh). We model the convention used for
//! Mira allocations: dimensions of extent >= 4 wrap, smaller ones do not —
//! a documented approximation that matches the paper's use of the topology,
//! which only needs the network *diameter* as an interpolation variable.

/// An N-dimensional torus/mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    /// Extent of each dimension (number of nodes along it).
    pub dims: Vec<usize>,
    /// Whether each dimension wraps around (ring) or not (line).
    pub wraps: Vec<bool>,
}

impl Torus {
    /// Builds a torus with explicit wrap flags.
    ///
    /// # Panics
    /// Panics when `dims` and `wraps` lengths differ or any extent is zero.
    pub fn with_wraps(dims: Vec<usize>, wraps: Vec<bool>) -> Self {
        assert_eq!(dims.len(), wraps.len(), "dims/wraps length mismatch");
        assert!(dims.iter().all(|&d| d > 0), "zero-extent dimension");
        Torus { dims, wraps }
    }

    /// Builds a torus using the BG/Q-style wrap convention: a dimension
    /// wraps iff its extent is at least 4.
    pub fn new(dims: Vec<usize>) -> Self {
        let wraps = dims.iter().map(|&d| d >= 4).collect();
        Torus::with_wraps(dims, wraps)
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Hop distance along one dimension between coordinates `a` and `b`.
    fn dim_distance(&self, d: usize, a: usize, b: usize) -> usize {
        let lin = a.abs_diff(b);
        if self.wraps[d] {
            lin.min(self.dims[d] - lin)
        } else {
            lin
        }
    }

    /// Manhattan-style hop count between two node coordinates.
    ///
    /// # Panics
    /// Panics when a coordinate is out of range.
    pub fn hops(&self, a: &[usize], b: &[usize]) -> usize {
        assert_eq!(a.len(), self.ndims());
        assert_eq!(b.len(), self.ndims());
        (0..self.ndims())
            .map(|d| {
                assert!(a[d] < self.dims[d] && b[d] < self.dims[d], "coordinate out of range");
                self.dim_distance(d, a[d], b[d])
            })
            .sum()
    }

    /// Network diameter: maximum hop count over all node pairs. For a
    /// torus/mesh this is the sum of per-dimension maxima
    /// (`floor(n/2)` for rings, `n-1` for lines).
    pub fn diameter(&self) -> usize {
        (0..self.ndims())
            .map(|d| {
                if self.wraps[d] {
                    self.dims[d] / 2
                } else {
                    self.dims[d] - 1
                }
            })
            .sum()
    }

    /// BG/Q partition shape table for Mira-style allocations, keyed by node
    /// count. Shapes follow the published Mira block dimensions (A,B,C,D,E).
    pub fn bgq_partition(nodes: usize) -> Option<Torus> {
        let dims: &[usize] = match nodes {
            128 => &[2, 2, 4, 4, 2],
            256 => &[4, 2, 4, 4, 2],
            512 => &[4, 4, 4, 4, 2], // one midplane
            1024 => &[4, 4, 4, 8, 2],
            2048 => &[4, 4, 4, 16, 2],
            4096 => &[4, 4, 8, 16, 2],
            8192 => &[4, 4, 16, 16, 2],
            16384 => &[8, 4, 16, 16, 2],
            32768 => &[8, 8, 16, 16, 2],
            49152 => &[8, 12, 16, 16, 2], // full Mira
            _ => return None,
        };
        Some(Torus::new(dims.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgq_shapes_have_right_node_counts() {
        for nodes in [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 49152] {
            let t = Torus::bgq_partition(nodes).unwrap();
            assert_eq!(t.num_nodes(), nodes, "shape for {nodes}");
            assert_eq!(t.ndims(), 5);
        }
        assert!(Torus::bgq_partition(123).is_none());
    }

    #[test]
    fn wrap_convention() {
        let t = Torus::new(vec![4, 2, 8]);
        assert_eq!(t.wraps, vec![true, false, true]);
    }

    #[test]
    fn ring_distance_wraps() {
        let t = Torus::new(vec![8]);
        assert_eq!(t.hops(&[0], &[7]), 1); // wraparound
        assert_eq!(t.hops(&[0], &[4]), 4); // antipodal
        let line = Torus::with_wraps(vec![8], vec![false]);
        assert_eq!(line.hops(&[0], &[7]), 7);
    }

    #[test]
    fn diameter_ring_vs_line() {
        assert_eq!(Torus::new(vec![8, 8]).diameter(), 8); // 4 + 4
        assert_eq!(Torus::with_wraps(vec![8, 8], vec![false, false]).diameter(), 14);
        // diameter grows with partition size on BG/Q shapes
        let d1 = Torus::bgq_partition(2048).unwrap().diameter();
        let d2 = Torus::bgq_partition(32768).unwrap().diameter();
        assert!(d2 > d1);
    }

    #[test]
    fn diameter_is_max_pairwise_hops_small_exhaustive() {
        let t = Torus::new(vec![4, 3, 2]);
        let mut max = 0;
        for a0 in 0..4 {
            for a1 in 0..3 {
                for a2 in 0..2 {
                    for b0 in 0..4 {
                        for b1 in 0..3 {
                            for b2 in 0..2 {
                                max = max.max(t.hops(&[a0, a1, a2], &[b0, b1, b2]));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(t.diameter(), max);
    }

    #[test]
    #[should_panic(expected = "coordinate out of range")]
    fn hops_panics_out_of_range() {
        Torus::new(vec![2, 2]).hops(&[0, 0], &[2, 0]);
    }
}

//! Error norms (paper analyses F2 and F3).
//!
//! * **F2** — L1 error norms of density and pressure against the Sedov
//!   self-similar reference: `Σ |q - q_ref| / N` over every cell.
//! * **F3** — L2 norms of the three velocity components over a strided
//!   sample of cells. The stride reproduces the paper's cost ordering
//!   (F3 at 2.3 ms vs F2 at 1.25 s: three orders of magnitude cheaper).

use crate::block::{FlowVar, GHOST};
use crate::sim::FlashSim;
use insitu_core::runtime::Analysis;

/// F2: L1 error norms of density and pressure vs the Sedov reference.
#[derive(Debug, Default)]
pub struct L1ErrorNorm {
    name: String,
    /// Last computed `(density, pressure)` L1 errors.
    pub last: (f64, f64),
    /// `(step, dens_err, pres_err)` history since last output.
    pub series: Vec<(usize, f64, f64)>,
    /// Bytes written at output steps.
    pub bytes_out: u64,
}

impl L1ErrorNorm {
    /// Creates the kernel.
    pub fn new(name: &str) -> Self {
        L1ErrorNorm {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Computes the norms at the simulation's current time.
    ///
    /// The self-similar reference is tabulated once per analysis step on a
    /// fine radial grid and linearly interpolated per cell — evaluating
    /// the closed-form profile (with its `powf`) in every cell would make
    /// this reduction cost more than the vorticity stencil, inverting the
    /// paper's F1 ≫ F2 ordering.
    pub fn compute(&mut self, sim: &FlashSim) -> (f64, f64) {
        let mesh = &sim.mesh;
        let centre = [
            mesh.domain[0] / 2.0,
            mesh.domain[1] / 2.0,
            mesh.domain[2] / 2.0,
        ];
        // radial lookup table of the reference profiles
        const TABLE: usize = 1024;
        let rmax = 0.5
            * (mesh.domain[0].powi(2) + mesh.domain[1].powi(2) + mesh.domain[2].powi(2)).sqrt();
        // one row per radial node: (density, pressure), so a cell's two
        // lookups share one index computation and one cache line
        let mut tab = [[0.0f64; 2]; TABLE + 1];
        for (b, row) in tab.iter_mut().enumerate() {
            let r = b as f64 / TABLE as f64 * rmax;
            *row = [
                sim.setup.reference_density(r, sim.time),
                sim.setup.reference_pressure(r, sim.time),
            ];
        }
        let inv_dr = TABLE as f64 / rmax;
        // the table build above stays serial; the per-cell reduction runs
        // over block-range chunks merged in ascending chunk order
        let d = mesh.dx();
        let nb = mesh.block_cells;
        // squared x-offset of every cell column of the mesh from the centre
        let dx2: Vec<f64> = (0..mesh.block_dims[0] * nb)
            .map(|x| {
                let dx = x as f64 * d[0] + 0.5 * d[0] - centre[0];
                dx * dx
            })
            .collect();
        let w = nb + 2 * GHOST;
        let nblocks = mesh.blocks.len();
        let chunks = parallel::chunk_count(nblocks, 1);
        let (dens_err, pres_err) = parallel::reduce_chunks(
            &sim.exec,
            chunks,
            |c| {
                let mut dens_err = 0.0;
                let mut pres_err = 0.0;
                let mut xs = vec![0.0f64; nb];
                for bi in parallel::chunk_bounds(nblocks, chunks, c) {
                    let blk = &mesh.blocks[bi];
                    let (dens, pres) = (blk.var(FlowVar::Dens), blk.var(FlowVar::Pres));
                    let base = [
                        blk.coords[0] * nb,
                        blk.coords[1] * nb,
                        blk.coords[2] * nb,
                    ];
                    let dx2 = &dx2[base[0]..base[0] + nb];
                    for k in 0..nb {
                        let dz = (base[2] + k) as f64 * d[2] + 0.5 * d[2] - centre[2];
                        for j in 0..nb {
                            let dy = (base[1] + j) as f64 * d[1] + 0.5 * d[1] - centre[1];
                            let dyz2 = dy * dy + dz * dz;
                            let row = ((k + GHOST) * w + j + GHOST) * w + GHOST;
                            // the row's table positions first (a loop of
                            // square roots the compiler can vectorize), then
                            // the lookups; `x < TABLE`, so the `min` only
                            // tells the compiler `b + 1` is in bounds
                            for (x, &dx2) in xs.iter_mut().zip(dx2) {
                                *x = ((dx2 + dyz2).sqrt() * inv_dr).min(TABLE as f64 - 1e-9);
                            }
                            let cells = dens[row..row + nb].iter().zip(&pres[row..row + nb]);
                            for (&x, (&rho, &p)) in xs.iter().zip(cells) {
                                let b = (x as u32 as usize).min(TABLE - 1);
                                let f = x - b as f64;
                                let (lo, hi) = (tab[b], tab[b + 1]);
                                dens_err += (rho - (lo[0] * (1.0 - f) + hi[0] * f)).abs();
                                pres_err += (p - (lo[1] * (1.0 - f) + hi[1] * f)).abs();
                            }
                        }
                    }
                }
                (dens_err, pres_err)
            },
            (0.0f64, 0.0f64),
            |(da, pa), (db, pb)| (da + db, pa + pb),
        );
        let n = mesh.total_cells() as f64;
        let result = (dens_err / n, pres_err / n);
        self.last = result;
        result
    }
}

impl Analysis<FlashSim> for L1ErrorNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn analyze(&mut self, state: &FlashSim) {
        let (d, p) = self.compute(state);
        self.series.push((state.step_count, d, p));
    }

    fn output(&mut self, _state: &FlashSim) {
        let mut text = String::new();
        for (s, d, p) in &self.series {
            text.push_str(&format!("{s} {d:.8e} {p:.8e}\n"));
        }
        self.bytes_out += text.len() as u64;
        self.series.clear();
    }
}

/// F3: L2 norms of x/y/z velocity over a strided cell sample.
#[derive(Debug, Default)]
pub struct L2VelocityNorm {
    name: String,
    stride: usize,
    /// Last computed `(|u|₂, |v|₂, |w|₂)`.
    pub last: [f64; 3],
    /// `(step, [norms])` history since last output.
    pub series: Vec<(usize, [f64; 3])>,
    /// Bytes written at output steps.
    pub bytes_out: u64,
}

impl L2VelocityNorm {
    /// Creates the kernel sampling every `stride`-th cell per axis.
    pub fn new(name: &str, stride: usize) -> Self {
        L2VelocityNorm {
            name: name.to_string(),
            stride: stride.max(1),
            ..Default::default()
        }
    }

    /// Computes the strided L2 norms.
    pub fn compute(&mut self, sim: &FlashSim) -> [f64; 3] {
        let mesh = &sim.mesh;
        let n = mesh.block_cells;
        let stride = self.stride;
        let nblocks = mesh.blocks.len();
        let chunks = parallel::chunk_count(nblocks, 1);
        let (sums, count) = parallel::reduce_chunks(
            &sim.exec,
            chunks,
            |c| {
                let mut sums = [0.0f64; 3];
                let mut count = 0usize;
                for bi in parallel::chunk_bounds(nblocks, chunks, c) {
                    let b = &mesh.blocks[bi];
                    let mut k = 0;
                    while k < n {
                        let mut j = 0;
                        while j < n {
                            let mut i = 0;
                            while i < n {
                                let u = b.cell(FlowVar::Velx, i, j, k);
                                let v = b.cell(FlowVar::Vely, i, j, k);
                                let w = b.cell(FlowVar::Velz, i, j, k);
                                sums[0] += u * u;
                                sums[1] += v * v;
                                sums[2] += w * w;
                                count += 1;
                                i += stride;
                            }
                            j += stride;
                        }
                        k += stride;
                    }
                }
                (sums, count)
            },
            ([0.0f64; 3], 0usize),
            |(sa, ca), (sb, cb)| ([sa[0] + sb[0], sa[1] + sb[1], sa[2] + sb[2]], ca + cb),
        );
        let inv = 1.0 / count.max(1) as f64;
        let result = [
            (sums[0] * inv).sqrt(),
            (sums[1] * inv).sqrt(),
            (sums[2] * inv).sqrt(),
        ];
        self.last = result;
        result
    }

    /// Number of cells visited per analysis step.
    pub fn samples_per_step(&self, sim: &FlashSim) -> usize {
        let per_axis = sim.mesh.block_cells.div_ceil(self.stride);
        sim.mesh.blocks.len() * per_axis.pow(3)
    }
}

impl Analysis<FlashSim> for L2VelocityNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn analyze(&mut self, state: &FlashSim) {
        let norms = self.compute(state);
        self.series.push((state.step_count, norms));
    }

    fn output(&mut self, _state: &FlashSim) {
        let mut text = String::new();
        for (s, n) in &self.series {
            text.push_str(&format!("{s} {:.6e} {:.6e} {:.6e}\n", n[0], n[1], n[2]));
        }
        self.bytes_out += text.len() as u64;
        self.series.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sedov::SedovSetup;
    use crate::sim::FlashSim;
    use insitu_core::runtime::Simulator;

    #[test]
    fn l1_norm_zero_against_matching_reference_far_field() {
        // at t=0 the reference has rs=0, so everything is ambient except
        // the deposition sphere: the L1 error equals the deposition excess
        let sim = FlashSim::sedov(2, 8, SedovSetup::default());
        let mut f2 = L1ErrorNorm::new("f2");
        let (d, p) = f2.compute(&sim);
        assert!(d.abs() < 1e-12, "ambient density matches reference: {d}");
        assert!(p > 0.0, "blast pressure differs from reference: {p}");
    }

    #[test]
    fn l1_error_stays_bounded_during_run() {
        let mut sim = FlashSim::sedov(2, 8, SedovSetup::default());
        let mut f2 = L1ErrorNorm::new("f2");
        for _ in 0..10 {
            sim.advance();
        }
        let (d, _) = f2.compute(&sim);
        // first-order solver vs approximate reference: O(1) error at most
        assert!(d.is_finite() && d < 6.0, "density L1 {d}");
    }

    #[test]
    fn l2_norms_on_known_field() {
        let mut sim = FlashSim::sedov(1, 8, SedovSetup::default());
        let mut writes = Vec::new();
        sim.mesh.for_each_cell(|b, i, j, k, _| writes.push((b, i, j, k)));
        for (b, i, j, k) in writes {
            *sim.mesh.blocks[b].cell_mut(FlowVar::Velx, i, j, k) = 3.0;
            *sim.mesh.blocks[b].cell_mut(FlowVar::Vely, i, j, k) = -4.0;
            *sim.mesh.blocks[b].cell_mut(FlowVar::Velz, i, j, k) = 0.0;
        }
        let mut f3 = L2VelocityNorm::new("f3", 1);
        let n = f3.compute(&sim);
        assert!((n[0] - 3.0).abs() < 1e-12);
        assert!((n[1] - 4.0).abs() < 1e-12);
        assert!(n[2].abs() < 1e-12);
    }

    #[test]
    fn stride_reduces_sample_count_cubically() {
        let sim = FlashSim::sedov(2, 16, SedovSetup::default());
        let dense = L2VelocityNorm::new("f3", 1).samples_per_step(&sim);
        let strided = L2VelocityNorm::new("f3", 8).samples_per_step(&sim);
        assert_eq!(dense, 8 * 4096);
        assert_eq!(strided, 8 * 8);
        assert_eq!(dense / strided, 512, "8^3 fewer samples");
    }

    #[test]
    fn trait_plumbing_series_flush() {
        let mut sim = FlashSim::sedov(1, 6, SedovSetup::default());
        sim.advance();
        let mut f2 = L1ErrorNorm::new("f2");
        let mut f3 = L2VelocityNorm::new("f3", 2);
        f2.analyze(&sim);
        f3.analyze(&sim);
        assert_eq!(f2.series.len(), 1);
        assert_eq!(f3.series.len(), 1);
        f2.output(&sim);
        f3.output(&sim);
        assert!(f2.series.is_empty() && f3.series.is_empty());
        assert!(f2.bytes_out > 0 && f3.bytes_out > 0);
    }
}

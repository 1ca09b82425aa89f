//! 2-D density histograms (paper analyses R2 and R3).
//!
//! Bins the (x, y) positions of one species into an `nx × ny` grid — the
//! "2D histogram of the density profiles of all membranes/proteins" of
//! Table 3. Cost is O(N) per analysis step with a grid-sized memory
//! footprint, making R2/R3 the mid-weight analyses of the rhodopsin set
//! (17.19 s vs R1's 0.003 s in the paper's Table 6 inputs).

use crate::analysis::sink::OutputSink;
use crate::system::{Species, System};
use insitu_core::runtime::Analysis;

/// 2-D (x, y) density histogram of one species.
#[derive(Debug)]
pub struct DensityHistogram {
    name: String,
    species: Species,
    bins: usize,
    /// Row-major accumulated counts, `bins × bins`.
    pub counts: Vec<u64>,
    /// Snapshots accumulated since last output.
    pub samples: usize,
    /// Output destination.
    pub sink: OutputSink,
}

impl DensityHistogram {
    /// Creates a histogram with `bins × bins` cells.
    pub fn new(name: &str, species: Species, bins: usize) -> Self {
        DensityHistogram {
            name: name.to_string(),
            species,
            bins: bins.max(1),
            counts: vec![0; bins.max(1) * bins.max(1)],
            samples: 0,
            sink: OutputSink::null(),
        }
    }

    /// Accumulates one snapshot.
    ///
    /// Particle-range chunks bin into per-chunk count grids merged in
    /// chunk order on `system.exec`.
    pub fn accumulate(&mut self, system: &System) {
        let s = self.species.index() as u8;
        let lx = system.bounds.lengths[0];
        let ly = system.bounds.lengths[1];
        let nb = self.bins as f64;
        let bins = self.bins;
        let n = system.len();
        let chunks = parallel::chunk_count(n, 4096);
        let parts = parallel::map_chunks(&system.exec, chunks, |c| {
            let mut counts = vec![0u64; bins * bins];
            for i in parallel::chunk_bounds(n, chunks, c) {
                if system.species[i] != s {
                    continue;
                }
                let bx = ((system.pos[0][i] / lx * nb) as usize).min(bins - 1);
                let by = ((system.pos[1][i] / ly * nb) as usize).min(bins - 1);
                counts[by * bins + bx] += 1;
            }
            counts
        });
        for part in parts {
            for (a, b) in self.counts.iter_mut().zip(part) {
                *a += b;
            }
        }
        self.samples += 1;
    }

    /// Total count across all cells.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean density (particles per cell per snapshot).
    pub fn mean_density(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total() as f64 / (self.counts.len() as f64 * self.samples as f64)
        }
    }

    /// Grid edge size.
    pub fn bins(&self) -> usize {
        self.bins
    }
}

impl Analysis<System> for DensityHistogram {
    fn name(&self) -> &str {
        &self.name
    }

    fn analyze(&mut self, state: &System) {
        self.accumulate(state);
    }

    fn output(&mut self, state: &System) {
        let mut text = format!("# density {} step {} samples {}\n", self.name, state.step_count, self.samples);
        for by in 0..self.bins {
            let row: Vec<String> = (0..self.bins)
                .map(|bx| self.counts[by * self.bins + bx].to_string())
                .collect();
            text.push_str(&row.join(" "));
            text.push('\n');
        }
        self.sink.emit(text.as_bytes());
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{rhodopsin_proxy, BuilderParams};
    use crate::force::ForceField;
    use crate::system::SimBox;

    #[test]
    fn counts_conserve_particles() {
        let s = rhodopsin_proxy(&BuilderParams {
            n_particles: 2000,
            ..Default::default()
        });
        let mut h = DensityHistogram::new("r2", Species::Membrane, 16);
        h.accumulate(&s);
        assert_eq!(h.total(), s.species_count(Species::Membrane) as u64);
    }

    #[test]
    fn particle_lands_in_right_cell() {
        let mut s = System::new(SimBox::cubic(10.0), ForceField::none(), 0.01);
        s.add_particle(Species::Protein, [2.5, 7.5, 5.0], [0.0; 3]);
        let mut h = DensityHistogram::new("r3", Species::Protein, 4);
        h.accumulate(&s);
        // x=2.5 => bin 1, y=7.5 => bin 3
        assert_eq!(h.counts[3 * 4 + 1], 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn protein_histogram_concentrated_at_centre() {
        let s = rhodopsin_proxy(&BuilderParams {
            n_particles: 8000,
            ..Default::default()
        });
        let mut h = DensityHistogram::new("r3", Species::Protein, 8);
        h.accumulate(&s);
        // central 4 cells hold the protein blob; corners empty
        let centre: u64 = [(3usize, 3usize), (3, 4), (4, 3), (4, 4)]
            .iter()
            .map(|&(x, y)| h.counts[y * 8 + x])
            .sum();
        let corners: u64 = [(0usize, 0usize), (0, 7), (7, 0), (7, 7)]
            .iter()
            .map(|&(x, y)| h.counts[y * 8 + x])
            .sum();
        assert!(centre > 0);
        assert_eq!(corners, 0, "protein must not reach the corners");
    }

    #[test]
    fn output_resets_accumulation() {
        let s = rhodopsin_proxy(&BuilderParams {
            n_particles: 1000,
            ..Default::default()
        });
        let mut h = DensityHistogram::new("r2", Species::Membrane, 8);
        h.analyze(&s);
        h.analyze(&s);
        assert_eq!(h.samples, 2);
        h.output(&s);
        assert_eq!(h.samples, 0);
        assert_eq!(h.total(), 0);
        assert!(h.sink.bytes_written > 0);
    }

    #[test]
    fn mean_density_averages_samples() {
        let mut s = System::new(SimBox::cubic(10.0), ForceField::none(), 0.01);
        for i in 0..16 {
            s.add_particle(
                Species::Membrane,
                [0.5 + (i % 4) as f64 * 2.5, 0.5 + (i / 4) as f64 * 2.5, 5.0],
                [0.0; 3],
            );
        }
        let mut h = DensityHistogram::new("r2", Species::Membrane, 4);
        h.accumulate(&s);
        h.accumulate(&s);
        assert!((h.mean_density() - 1.0).abs() < 1e-12);
    }
}

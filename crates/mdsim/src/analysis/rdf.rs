//! Radial distribution functions (paper analyses A1 and A2).
//!
//! Accumulates pair-distance histograms for a set of species pairs using
//! the cell list (O(N) per analysis step), then normalizes by the ideal-gas
//! shell count to produce g(r). This is the canonical "accumulating
//! histograms" algorithm class the paper calls representative of a large
//! family of physical observables.

use crate::analysis::sink::OutputSink;
use crate::neighbor::CellList;
use crate::system::{Species, System};
use insitu_core::runtime::Analysis;

/// One RDF kernel covering several species pairs.
#[derive(Debug)]
pub struct Rdf {
    name: String,
    pairs: Vec<(Species, Species)>,
    r_max: f64,
    bins: usize,
    /// `hist[p][b]` — accumulated pair counts per pair and bin.
    hist: Vec<Vec<u64>>,
    /// Number of analysis steps accumulated.
    samples: usize,
    /// Persistent cell list, rebuilt in place every snapshot.
    cells: Option<CellList>,
    /// Output destination.
    pub sink: OutputSink,
}

impl Rdf {
    /// Creates an RDF kernel over `pairs` with `bins` bins up to `r_max`.
    pub fn new(name: &str, pairs: Vec<(Species, Species)>, r_max: f64, bins: usize) -> Self {
        let n = pairs.len();
        Rdf {
            name: name.to_string(),
            pairs,
            r_max,
            bins,
            hist: vec![vec![0; bins]; n],
            samples: 0,
            cells: None,
            sink: OutputSink::null(),
        }
    }

    /// Accumulates one snapshot into the histograms.
    ///
    /// Runs on `system.exec`: cell-range chunks bin into per-chunk
    /// histograms merged in chunk order (u64 counts, so the merge is exact
    /// regardless — the ordering keeps the contract uniform).
    pub fn accumulate(&mut self, system: &System) {
        let mut cells = self.cells.take().unwrap_or_else(CellList::empty);
        cells.rebuild(&system.bounds, &system.pos, self.r_max, &system.exec);
        let inv_dr = self.bins as f64 / self.r_max;
        let pairs = &self.pairs;
        let bins = self.bins;
        let chunks = cells.pair_chunks();
        let ncells = cells.num_cells();
        let cells_ref = &cells;
        let parts = parallel::map_chunks(&system.exec, chunks, move |c| {
            let mut hist = vec![vec![0u64; bins]; pairs.len()];
            let range = parallel::chunk_bounds(ncells, chunks, c);
            cells_ref.for_each_pair_in(&system.bounds, &system.pos, range, |i, j, r2| {
                let si = Species::from_index(system.species[i] as usize);
                let sj = Species::from_index(system.species[j] as usize);
                let b = (r2.sqrt() * inv_dr) as usize;
                if b >= bins {
                    return;
                }
                for (p, &(a, c)) in pairs.iter().enumerate() {
                    if (si == a && sj == c) || (si == c && sj == a) {
                        hist[p][b] += 1;
                    }
                }
            });
            hist
        });
        for part in parts {
            for (mine, theirs) in self.hist.iter_mut().zip(part) {
                for (a, b) in mine.iter_mut().zip(theirs) {
                    *a += b;
                }
            }
        }
        self.cells = Some(cells);
        self.samples += 1;
    }

    /// Normalized g(r) for pair index `p`: counts divided by the ideal-gas
    /// expectation for a uniform fluid of the two species.
    pub fn g_of_r(&self, system: &System, p: usize) -> Vec<f64> {
        let (a, c) = self.pairs[p];
        let na = system.species_count(a) as f64;
        let nc = system.species_count(c) as f64;
        let n_pairs = if a == c { na * (na - 1.0) / 2.0 } else { na * nc };
        let volume = system.bounds.volume();
        let dr = self.r_max / self.bins as f64;
        let samples = self.samples.max(1) as f64;
        (0..self.bins)
            .map(|b| {
                let r_lo = b as f64 * dr;
                let r_hi = r_lo + dr;
                let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
                let ideal = n_pairs * shell / volume;
                if ideal > 0.0 {
                    self.hist[p][b] as f64 / (ideal * samples)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Total accumulated pair count for pair `p`.
    pub fn total_counts(&self, p: usize) -> u64 {
        self.hist[p].iter().sum()
    }

    /// Number of accumulated snapshots.
    pub fn samples(&self) -> usize {
        self.samples
    }

    fn serialize(&self, system: &System) -> Vec<u8> {
        let mut out = String::new();
        for p in 0..self.pairs.len() {
            let g = self.g_of_r(system, p);
            out.push_str(&format!("# pair {p} step {}\n", system.step_count));
            for (b, v) in g.iter().enumerate() {
                out.push_str(&format!("{:.4} {:.6}\n", (b as f64 + 0.5) * self.r_max / self.bins as f64, v));
            }
        }
        out.into_bytes()
    }
}

impl Analysis<System> for Rdf {
    fn name(&self) -> &str {
        &self.name
    }

    fn analyze(&mut self, state: &System) {
        self.accumulate(state);
    }

    fn output(&mut self, state: &System) {
        let bytes = self.serialize(state);
        self.sink.emit(&bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{a1_hydronium_rdf, a2_ion_rdf};
    use crate::builder::{water_ions, BuilderParams};
    use crate::force::ForceField;
    use crate::neighbor::brute_force_pairs;
    use crate::system::SimBox;

    #[test]
    fn histogram_counts_every_pair_in_range() {
        // 3 waters in a line at spacing 1.0: pairs at r=1 (x2) and r=2 (x1)
        let mut s = System::new(SimBox::cubic(10.0), ForceField::none(), 0.01);
        for x in [1.0, 2.0, 3.0] {
            s.add_particle(Species::Water, [x, 5.0, 5.0], [0.0; 3]);
        }
        let mut rdf = Rdf::new("t", vec![(Species::Water, Species::Water)], 2.5, 25);
        rdf.accumulate(&s);
        assert_eq!(rdf.total_counts(0), 3);
        assert_eq!(rdf.hist[0][10], 2, "two pairs at r=1.0");
        assert_eq!(rdf.hist[0][20], 1, "one pair at r=2.0");
    }

    #[test]
    fn ideal_gas_grf_near_one() {
        // a dense jittered lattice approximates uniform density at long r
        let s = water_ions(&BuilderParams {
            n_particles: 3000,
            density: 0.8,
            ..Default::default()
        });
        let mut rdf = Rdf::new("t", vec![(Species::Water, Species::Water)], 3.0, 30);
        rdf.accumulate(&s);
        let g = rdf.g_of_r(&s, 0);
        // beyond the first shell structure, g(r) should hover near 1
        let tail: f64 = g[20..30].iter().sum::<f64>() / 10.0;
        assert!((tail - 1.0).abs() < 0.3, "tail g(r) = {tail}");
    }

    #[test]
    fn cross_species_pairs_only() {
        let mut s = System::new(SimBox::cubic(10.0), ForceField::none(), 0.01);
        s.add_particle(Species::Hydronium, [1.0, 1.0, 1.0], [0.0; 3]);
        s.add_particle(Species::Water, [2.0, 1.0, 1.0], [0.0; 3]);
        s.add_particle(Species::Ion, [1.0, 2.0, 1.0], [0.0; 3]);
        let mut rdf = Rdf::new(
            "t",
            vec![
                (Species::Hydronium, Species::Water),
                (Species::Hydronium, Species::Ion),
                (Species::Hydronium, Species::Hydronium),
            ],
            3.0,
            30,
        );
        rdf.accumulate(&s);
        assert_eq!(rdf.total_counts(0), 1);
        assert_eq!(rdf.total_counts(1), 1);
        assert_eq!(rdf.total_counts(2), 0);
    }

    #[test]
    fn samples_average_over_steps() {
        let s = water_ions(&BuilderParams {
            n_particles: 500,
            ..Default::default()
        });
        let mut rdf = Rdf::new("t", vec![(Species::Water, Species::Water)], 2.0, 20);
        rdf.accumulate(&s);
        let g1 = rdf.g_of_r(&s, 0);
        rdf.accumulate(&s);
        let g2 = rdf.g_of_r(&s, 0);
        // same snapshot twice: averaged g(r) unchanged
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(rdf.samples(), 2);
    }

    /// Adds one snapshot of `rdf`'s histograms to `hist`, binned from the
    /// O(N²) pair oracle with the bin arithmetic of [`Rdf::accumulate`].
    fn bin_brute_force(rdf: &Rdf, system: &System, hist: &mut [Vec<u64>]) {
        let inv_dr = rdf.bins as f64 / rdf.r_max;
        brute_force_pairs(&system.bounds, &system.pos, rdf.r_max, |i, j, r2| {
            let si = Species::from_index(system.species[i] as usize);
            let sj = Species::from_index(system.species[j] as usize);
            let b = (r2.sqrt() * inv_dr) as usize;
            if b >= rdf.bins {
                return;
            }
            for (p, &(a, c)) in rdf.pairs.iter().enumerate() {
                if (si == a && sj == c) || (si == c && sj == a) {
                    hist[p][b] += 1;
                }
            }
        });
    }

    #[test]
    fn a1_and_a2_match_the_brute_force_pair_oracle() {
        // the benchmark's system size, a few steps off the lattice
        let mut s = water_ions(&BuilderParams {
            n_particles: 2000,
            ..Default::default()
        });
        for mut rdf in [a1_hydronium_rdf(), a2_ion_rdf()] {
            let mut want = vec![vec![0u64; rdf.bins]; rdf.pairs.len()];
            for _ in 0..3 {
                for _ in 0..5 {
                    s.step();
                }
                rdf.accumulate(&s);
                bin_brute_force(&rdf, &s, &mut want);
            }
            assert_eq!(rdf.hist, want, "{}", rdf.name);
            for p in 0..rdf.pairs.len() {
                assert!(rdf.total_counts(p) > 0, "{} pair {p} binned nothing", rdf.name);
            }
        }
    }

    #[test]
    fn output_serializes_g_of_r() {
        let s = water_ions(&BuilderParams {
            n_particles: 200,
            ..Default::default()
        });
        let mut rdf = super::super::a1_hydronium_rdf();
        rdf.analyze(&s);
        rdf.output(&s);
        assert!(rdf.sink.bytes_written > 0);
        assert_eq!(rdf.sink.writes, 1);
    }
}

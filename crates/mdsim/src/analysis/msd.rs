//! Mean squared displacement (paper analysis A4).
//!
//! A4 is the paper's problem child: it "has both significantly higher
//! analysis execution time and analysis output time as well as requires
//! more memory" (§5.3.2) and "does not scale" (§5.3.3). The kernel mirrors
//! that structure: a large pre-allocated reference buffer (`fm`), unwrapped
//! coordinates maintained every step (`it`, via the system's image flags),
//! and an O(N_tracked) reduction per analysis step (`ct`) whose result
//! series is serialized at output steps (`ot`).

use crate::analysis::sink::OutputSink;
use crate::system::{Species, System};
use insitu_core::runtime::Analysis;

/// Tracked particles whose unwrapped positions [`Msd::compute`] gathers
/// before it sums any of them, so the scattered loads overlap each other
/// instead of each waiting in front of the sum's chain of dependent adds
/// (≈ 2× faster on the 20k-atom anchor system, same bits).
const GATHER: usize = 64;

/// MSD kernel over a set of tracked species.
#[derive(Debug)]
pub struct Msd {
    name: String,
    species: Vec<Species>,
    tracked: Vec<usize>,
    /// Reference unwrapped positions at setup, SoA (3 × N_tracked).
    reference: [Vec<f64>; 3],
    /// `(step, msd)` series accumulated since the last output.
    pub series: Vec<(usize, f64)>,
    /// Output destination.
    pub sink: OutputSink,
}

impl Msd {
    /// Creates an MSD kernel tracking all particles of `species`.
    pub fn new(name: &str, species: Vec<Species>) -> Self {
        Msd {
            name: name.to_string(),
            species,
            tracked: Vec::new(),
            reference: [Vec::new(), Vec::new(), Vec::new()],
            series: Vec::new(),
            sink: OutputSink::null(),
        }
    }

    /// Captures the reference positions (the `fm` allocation).
    pub fn capture_reference(&mut self, system: &System) {
        self.tracked = self
            .species
            .iter()
            .flat_map(|&s| system.of_species(s))
            .collect();
        for d in 0..3 {
            self.reference[d].clear();
        }
        for &i in &self.tracked {
            let u = system.unwrapped_position(i);
            for (refs, &ud) in self.reference.iter_mut().zip(&u) {
                refs.push(ud);
            }
        }
    }

    /// MSD of the tracked particles relative to the reference.
    ///
    /// Chunked over the tracked set with an ordered sum merge, so the
    /// value is bitwise identical for any thread count.
    pub fn compute(&self, system: &System) -> f64 {
        if self.tracked.is_empty() {
            return 0.0;
        }
        let n = self.tracked.len();
        let chunks = parallel::chunk_count(n, 2048);
        let sum = parallel::reduce_chunks(
            &system.exec,
            chunks,
            |c| {
                let r = parallel::chunk_bounds(n, chunks, c);
                let reference = self.reference.each_ref().map(|v| &v[r.clone()]);
                let mut s = 0.0;
                let mut u = [[0.0f64; 3]; GATHER];
                for (k, block) in self.tracked[r].chunks(GATHER).enumerate() {
                    // the sum keeps the order that defines the value
                    // (particle by particle, x, y, z): same bits at any
                    // `GATHER`
                    for (u, &i) in u.iter_mut().zip(block) {
                        *u = system.unwrapped_position(i);
                    }
                    for (t, u) in (k * GATHER..).zip(&u[..block.len()]) {
                        for (&ud, refs) in u.iter().zip(&reference) {
                            let dx = ud - refs[t];
                            s += dx * dx;
                        }
                    }
                }
                s
            },
            0.0f64,
            |a, b| a + b,
        );
        sum / n as f64
    }

    /// Bytes held by the reference buffer (the `fm` the scheduler sees).
    pub fn reference_bytes(&self) -> usize {
        3 * self.reference[0].len() * std::mem::size_of::<f64>()
    }
}

impl Analysis<System> for Msd {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&mut self, state: &System) {
        self.capture_reference(state);
    }

    fn analyze(&mut self, state: &System) {
        let msd = self.compute(state);
        self.series.push((state.step_count, msd));
    }

    fn output(&mut self, _state: &System) {
        let mut text = String::new();
        for (step, msd) in &self.series {
            text.push_str(&format!("{step} {msd:.8}\n"));
        }
        self.sink.emit(text.as_bytes());
        self.series.clear(); // buffer freed at output (Eq. 6 semantics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::ForceField;
    use crate::system::SimBox;

    fn ballistic_system(v: f64) -> System {
        let mut s = System::new(SimBox::cubic(100.0), ForceField::none(), 0.1);
        s.add_particle(Species::Ion, [50.0, 50.0, 50.0], [v, 0.0, 0.0]);
        s.add_particle(Species::Ion, [10.0, 10.0, 10.0], [0.0, v, 0.0]);
        s
    }

    #[test]
    fn ballistic_msd_is_vt_squared() {
        let mut s = ballistic_system(2.0);
        let mut msd = Msd::new("t", vec![Species::Ion]);
        msd.setup(&s);
        for _ in 0..50 {
            s.step();
        }
        // t = 50 * 0.1 = 5; displacement = v*t = 10 => MSD = 100
        let value = msd.compute(&s);
        assert!((value - 100.0).abs() < 1e-9, "MSD {value}");
    }

    #[test]
    fn msd_crosses_periodic_boundaries() {
        let mut s = System::new(SimBox::cubic(5.0), ForceField::none(), 0.1);
        s.add_particle(Species::Ion, [4.5, 2.5, 2.5], [1.0, 0.0, 0.0]);
        let mut msd = Msd::new("t", vec![Species::Ion]);
        msd.setup(&s);
        for _ in 0..100 {
            s.step(); // travels 10 units, wrapping twice
        }
        let value = msd.compute(&s);
        assert!((value - 100.0).abs() < 1e-9, "wrapped MSD {value}");
    }

    #[test]
    fn only_tracked_species_counted() {
        let mut s = ballistic_system(1.0);
        s.add_particle(Species::Water, [20.0, 20.0, 20.0], [9.0, 0.0, 0.0]);
        let mut msd = Msd::new("t", vec![Species::Ion]);
        msd.setup(&s);
        assert_eq!(msd.tracked.len(), 2);
        for _ in 0..10 {
            s.step();
        }
        // water moved 9 units but must not contribute: ions moved 1 unit
        assert!((msd.compute(&s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn series_accumulates_and_output_flushes() {
        let mut s = ballistic_system(1.0);
        let mut msd = Msd::new("t", vec![Species::Ion]);
        msd.setup(&s);
        for _ in 0..3 {
            s.step();
            msd.analyze(&s);
        }
        assert_eq!(msd.series.len(), 3);
        msd.output(&s);
        assert!(msd.series.is_empty());
        assert!(msd.sink.bytes_written > 0);
    }

    #[test]
    fn reference_bytes_reported() {
        let s = ballistic_system(1.0);
        let mut msd = Msd::new("t", vec![Species::Ion]);
        msd.setup(&s);
        assert_eq!(msd.reference_bytes(), 3 * 2 * 8);
    }
}

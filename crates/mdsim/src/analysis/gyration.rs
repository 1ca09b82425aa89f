//! Radius of gyration of a single assembly (paper analysis R1).
//!
//! R1 is the paper's cheapest analysis ("0.003 sec" per step at 1 B atoms):
//! a mass-weighted second moment about the centre of mass of the protein.
//! Positions are taken relative to the first protein site with the minimum
//! image convention, which is valid because the protein is a compact blob
//! far smaller than the box.

use crate::analysis::sink::OutputSink;
use crate::system::{Species, System};
use insitu_core::runtime::Analysis;

/// Radius-of-gyration kernel for one species group.
#[derive(Debug)]
pub struct RadiusOfGyration {
    name: String,
    species: Species,
    members: Vec<usize>,
    /// `(step, Rg)` series accumulated since the last output.
    pub series: Vec<(usize, f64)>,
    /// Output destination.
    pub sink: OutputSink,
}

impl RadiusOfGyration {
    /// Creates the kernel for `species`.
    pub fn new(name: &str, species: Species) -> Self {
        RadiusOfGyration {
            name: name.to_string(),
            species,
            members: Vec::new(),
            series: Vec::new(),
            sink: OutputSink::null(),
        }
    }

    /// Computes Rg of the group in `system`.
    pub fn compute(&self, system: &System) -> f64 {
        let members: Vec<usize> = if self.members.is_empty() {
            system.of_species(self.species)
        } else {
            self.members.clone()
        };
        radius_of_gyration(system, &members)
    }
}

/// Mass-weighted radius of gyration of `members`, minimum-imaged around the
/// first member.
///
/// Two chunked passes over the members on `system.exec` (mass-weighted
/// centre of mass, then the second moment), each merged in ascending chunk
/// order — bitwise identical for any thread count.
pub fn radius_of_gyration(system: &System, members: &[usize]) -> f64 {
    if members.is_empty() {
        return 0.0;
    }
    let origin = system.position(members[0]);
    let n = members.len();
    let chunks = parallel::chunk_count(n, 2048);
    // pass 1: centre of mass in the unwrapped frame of the first member
    let (com_sum, mass_total) = parallel::reduce_chunks(
        &system.exec,
        chunks,
        |c| {
            let mut com = [0.0f64; 3];
            let mut mass = 0.0f64;
            for t in parallel::chunk_bounds(n, chunks, c) {
                let i = members[t];
                let d = system.bounds.displacement(system.position(i), origin);
                let m = system.mass(i);
                for k in 0..3 {
                    com[k] += m * d[k];
                }
                mass += m;
            }
            (com, mass)
        },
        ([0.0f64; 3], 0.0f64),
        |(mut acc, total), (com, mass)| {
            for k in 0..3 {
                acc[k] += com[k];
            }
            (acc, total + mass)
        },
    );
    let com = [
        com_sum[0] / mass_total,
        com_sum[1] / mass_total,
        com_sum[2] / mass_total,
    ];
    // pass 2: second moment about the centre of mass
    let sum = parallel::reduce_chunks(
        &system.exec,
        chunks,
        |c| {
            let mut s = 0.0f64;
            for t in parallel::chunk_bounds(n, chunks, c) {
                let i = members[t];
                let d = system.bounds.displacement(system.position(i), origin);
                let m = system.mass(i);
                let dx = d[0] - com[0];
                let dy = d[1] - com[1];
                let dz = d[2] - com[2];
                s += m * (dx * dx + dy * dy + dz * dz);
            }
            s
        },
        0.0f64,
        |a, b| a + b,
    );
    (sum / mass_total).sqrt()
}

impl Analysis<System> for RadiusOfGyration {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&mut self, state: &System) {
        self.members = state.of_species(self.species);
    }

    fn analyze(&mut self, state: &System) {
        let rg = radius_of_gyration(state, &self.members);
        self.series.push((state.step_count, rg));
    }

    fn output(&mut self, _state: &System) {
        let mut text = String::new();
        for (step, rg) in &self.series {
            text.push_str(&format!("{step} {rg:.8}\n"));
        }
        self.sink.emit(text.as_bytes());
        self.series.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::ForceField;
    use crate::system::SimBox;

    #[test]
    fn two_points_at_distance_d() {
        // two unit masses at distance d: Rg = d/2
        let mut s = System::new(SimBox::cubic(20.0), ForceField::none(), 0.01);
        s.add_particle(Species::Protein, [9.0, 10.0, 10.0], [0.0; 3]);
        s.add_particle(Species::Protein, [13.0, 10.0, 10.0], [0.0; 3]);
        let rg = radius_of_gyration(&s, &[0, 1]);
        assert!((rg - 2.0).abs() < 1e-12, "Rg {rg}");
    }

    #[test]
    fn single_point_is_zero() {
        let mut s = System::new(SimBox::cubic(20.0), ForceField::none(), 0.01);
        s.add_particle(Species::Protein, [5.0, 5.0, 5.0], [0.0; 3]);
        assert_eq!(radius_of_gyration(&s, &[0]), 0.0);
        assert_eq!(radius_of_gyration(&s, &[]), 0.0);
    }

    #[test]
    fn mass_weighting_shifts_com() {
        let mut s = System::new(SimBox::cubic(20.0), ForceField::none(), 0.01);
        s.masses[Species::Protein.index()] = 1.0;
        s.masses[Species::Ion.index()] = 3.0;
        s.add_particle(Species::Protein, [8.0, 10.0, 10.0], [0.0; 3]);
        s.add_particle(Species::Ion, [12.0, 10.0, 10.0], [0.0; 3]);
        // com at (8*1 + 12*3)/4 = 11; Rg² = (1*(3²) + 3*(1²))/4 = 3
        let rg = radius_of_gyration(&s, &[0, 1]);
        assert!((rg - 3.0f64.sqrt()).abs() < 1e-12, "Rg {rg}");
    }

    #[test]
    fn periodic_wrap_handled() {
        // cluster straddling the boundary: x = 19.5 and 0.5 are 1 apart
        let mut s = System::new(SimBox::cubic(20.0), ForceField::none(), 0.01);
        s.add_particle(Species::Protein, [19.5, 10.0, 10.0], [0.0; 3]);
        s.add_particle(Species::Protein, [0.5, 10.0, 10.0], [0.0; 3]);
        let rg = radius_of_gyration(&s, &[0, 1]);
        assert!((rg - 0.5).abs() < 1e-12, "wrapped Rg {rg}");
    }

    #[test]
    fn analysis_trait_series_and_output() {
        let mut s = System::new(SimBox::cubic(20.0), ForceField::none(), 0.01);
        s.add_particle(Species::Protein, [9.0, 10.0, 10.0], [0.0; 3]);
        s.add_particle(Species::Protein, [11.0, 10.0, 10.0], [0.0; 3]);
        let mut rg = RadiusOfGyration::new("r1", Species::Protein);
        rg.setup(&s);
        rg.analyze(&s);
        assert_eq!(rg.series.len(), 1);
        assert!((rg.series[0].1 - 1.0).abs() < 1e-12);
        rg.output(&s);
        assert!(rg.series.is_empty());
        assert!(rg.sink.bytes_written > 0);
    }
}

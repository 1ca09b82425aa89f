//! Property tests for the MD substrate: both cell walks must agree with the
//! O(N²) oracle for arbitrary boxes/cutoffs, and core invariants must hold
//! across random systems.

use mdsim::neighbor::{brute_force_pairs, CellList, SortedCells};
use mdsim::{water_ions, BuilderParams, SimBox, Species};
use proptest::prelude::*;
use std::collections::HashSet;

fn positions_strategy() -> impl Strategy<Value = ([f64; 3], Vec<[f64; 3]>, f64)> {
    (
        prop::array::uniform3(4.0f64..20.0), // box lengths
        1.0f64..3.5,                         // cutoff
        prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 2..120),
    )
        .prop_map(|(lengths, cutoff, fracs)| {
            let pos = fracs
                .into_iter()
                .map(|f| [f[0] * lengths[0], f[1] * lengths[1], f[2] * lengths[2]])
                .collect();
            (lengths, pos, cutoff)
        })
}

fn to_soa(pos: &[[f64; 3]]) -> [Vec<f64>; 3] {
    let mut soa: [Vec<f64>; 3] = Default::default();
    for p in pos {
        for d in 0..3 {
            soa[d].push(p[d]);
        }
    }
    soa
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cell_list_matches_oracle((lengths, pos, cutoff) in positions_strategy()) {
        let bounds = SimBox { lengths };
        let soa = to_soa(&pos);
        let cl = CellList::build(&bounds, &soa, cutoff);
        let mut fast: HashSet<(usize, usize)> = HashSet::new();
        let mut duplicates = 0usize;
        let mut out_of_range = 0usize;
        cl.for_each_pair(&bounds, &soa, |i, j, r2| {
            if r2 >= cutoff * cutoff + 1e-12 {
                out_of_range += 1;
            }
            if !fast.insert((i.min(j), i.max(j))) {
                duplicates += 1;
            }
        });
        prop_assert_eq!(duplicates, 0, "pairs visited twice");
        prop_assert_eq!(out_of_range, 0, "pairs beyond the cutoff");
        let mut slow: HashSet<(usize, usize)> = HashSet::new();
        brute_force_pairs(&bounds, &soa, cutoff, |i, j, _| {
            slow.insert((i.min(j), i.max(j)));
        });
        prop_assert_eq!(&fast, &slow);

        // the force kernel's sorted walk: same pairs, each once, and the
        // displacement it hands over is the minimum image
        let mut sorted = SortedCells::default();
        sorted.rebuild(&bounds, &soa, cutoff, &parallel::Exec::serial());
        let order = sorted.order();
        let mut walked: HashSet<(usize, usize)> = HashSet::new();
        let mut duplicates = 0usize;
        let mut worst = 0.0f64;
        sorted.for_each_pair_in(0..sorted.num_cells(), |i, j, dx, dy, dz, _| {
            let (a, b) = (order[i], order[j]);
            if !walked.insert((a.min(b), a.max(b))) {
                duplicates += 1;
            }
            let want = bounds.displacement(pos[a], pos[b]);
            for (got, want) in [dx, dy, dz].into_iter().zip(want) {
                worst = worst.max((got - want).abs());
            }
        });
        prop_assert_eq!(duplicates, 0, "sorted walk visited a pair twice");
        prop_assert!(worst < 1e-12, "displacement off by {worst}");
        prop_assert_eq!(walked, slow);
    }

    #[test]
    fn energy_and_momentum_invariants(n in 50usize..400, seed in 0u64..50) {
        let mut sys = water_ions(&BuilderParams {
            n_particles: n,
            seed,
            ..Default::default()
        });
        sys.target_temp = 0.0; // NVE
        let e0 = sys.compute_forces() + sys.kinetic_energy();
        for _ in 0..10 {
            sys.step();
        }
        // momentum stays (numerically) zero in NVE
        for d in 0..3 {
            let p: f64 = (0..sys.len()).map(|i| sys.mass(i) * sys.vel[d][i]).sum();
            prop_assert!(p.abs() < 1e-6, "momentum[{d}] = {p}");
        }
        // energy drift stays small over 10 steps
        let e1 = sys.compute_forces() + sys.kinetic_energy();
        let scale = e0.abs().max(n as f64);
        prop_assert!((e1 - e0).abs() / scale < 0.05, "drift {e0} -> {e1}");
        // positions stay wrapped and finite
        for d in 0..3 {
            for &x in &sys.pos[d] {
                prop_assert!(x.is_finite() && x >= 0.0 && x < sys.bounds.lengths[d]);
            }
        }
    }

    #[test]
    fn species_partition_is_total(n in 20usize..300, seed in 0u64..30) {
        let sys = water_ions(&BuilderParams {
            n_particles: n,
            seed,
            ..Default::default()
        });
        let total: usize = Species::ALL
            .iter()
            .map(|&s| sys.species_count(s))
            .sum();
        prop_assert_eq!(total, n);
        for &s in &Species::ALL {
            prop_assert_eq!(sys.of_species(s).len(), sys.species_count(s));
        }
    }
}

//! Property tests for the hydro substrate: positivity, conservation and
//! symmetry must hold for random blast configurations.

use amrsim::block::FlowVar;
use amrsim::euler::{cfl_dt, step};
use amrsim::mesh::Mesh;
use amrsim::sedov::SedovSetup;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blast_preserves_positivity_and_symmetry(
        energy in 0.2f64..3.0,
        r_init in 0.05f64..0.15,
        nsteps in 1usize..8,
    ) {
        let mut mesh = Mesh::new([2, 2, 2], 8, [1.0, 1.0, 1.0]);
        let setup = SedovSetup {
            energy,
            r_init,
            ..Default::default()
        };
        setup.init(&mut mesh);
        let mass0 = mesh.integral(FlowVar::Dens);
        for _ in 0..nsteps {
            let dt = cfl_dt(&mesh, 0.4);
            prop_assert!(dt.is_finite() && dt > 0.0);
            step(&mut mesh, dt);
        }
        // positivity
        let mut all_positive = true;
        mesh.for_each_cell(|b, i, j, k, _| {
            let rho = mesh.blocks[b].cell(FlowVar::Dens, i, j, k);
            let p = mesh.blocks[b].cell(FlowVar::Pres, i, j, k);
            if !(rho > 0.0 && p > 0.0 && rho.is_finite() && p.is_finite()) {
                all_positive = false;
            }
        });
        prop_assert!(all_positive);
        // mass conservation while the blast is interior
        let mass1 = mesh.integral(FlowVar::Dens);
        prop_assert!((mass1 - mass0).abs() / mass0 < 1e-6, "{mass0} -> {mass1}");
        // octant symmetry (blast is centred)
        let mut octants = [0.0f64; 8];
        mesh.for_each_cell(|b, i, j, k, c| {
            let o = (c[0] > 0.5) as usize
                + 2 * ((c[1] > 0.5) as usize)
                + 4 * ((c[2] > 0.5) as usize);
            octants[o] += mesh.blocks[b].cell(FlowVar::Dens, i, j, k);
        });
        let mean = octants.iter().sum::<f64>() / 8.0;
        for o in octants {
            prop_assert!((o - mean).abs() / mean < 1e-6, "{octants:?}");
        }
    }
}

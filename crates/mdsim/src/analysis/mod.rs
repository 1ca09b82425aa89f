//! In-situ analysis kernels for the two LAMMPS problems.
//!
//! | Paper id | Kernel | Module |
//! |---|---|---|
//! | A1 | hydronium RDFs (hydronium–water/–hydronium/–ion) | [`rdf`] |
//! | A2 | ion RDFs (ion–water/–ion) | [`rdf`] |
//! | A3 | velocity auto-correlation function | [`vacf`] |
//! | A4 | mean squared displacement | [`msd`] |
//! | R1 | radius of gyration of the protein | [`gyration`] |
//! | R2 | 2-D density histogram of the membranes | [`density2d`] |
//! | R3 | 2-D density histogram of the proteins | [`density2d`] |
//!
//! Every kernel implements [`insitu_core::runtime::Analysis`] over
//! [`crate::System`], so they plug straight into the runtime coupler. Each
//! also exposes its computation as a pure function for direct testing.

pub mod density2d;
pub mod gyration;
pub mod msd;
pub mod rdf;
pub mod sink;
pub mod vacf;

pub use density2d::DensityHistogram;
pub use gyration::RadiusOfGyration;
pub use msd::Msd;
pub use rdf::Rdf;
pub use sink::OutputSink;
pub use vacf::Vacf;

use crate::system::Species;

/// Builds the paper's A1 analysis: hydronium-centred RDFs.
pub fn a1_hydronium_rdf() -> Rdf {
    Rdf::new(
        "hydronium rdf (A1)",
        vec![
            (Species::Hydronium, Species::Water),
            (Species::Hydronium, Species::Hydronium),
            (Species::Hydronium, Species::Ion),
        ],
        3.0,
        100,
    )
}

/// Builds the paper's A2 analysis: ion-centred RDFs.
pub fn a2_ion_rdf() -> Rdf {
    Rdf::new(
        "ion rdf (A2)",
        vec![(Species::Ion, Species::Water), (Species::Ion, Species::Ion)],
        3.0,
        100,
    )
}

/// Builds the paper's A3 analysis: VACF of water/hydronium/ion particles.
pub fn a3_vacf(window: usize) -> Vacf {
    Vacf::new(
        "vacf (A3)",
        vec![Species::Water, Species::Hydronium, Species::Ion],
        window,
    )
}

/// Builds the paper's A4 analysis: MSD of hydronium and ions.
pub fn a4_msd() -> Msd {
    Msd::new("msd (A4)", vec![Species::Hydronium, Species::Ion])
}

/// Builds the paper's R1 analysis: protein radius of gyration.
pub fn r1_gyration() -> RadiusOfGyration {
    RadiusOfGyration::new("radius of gyration (R1)", Species::Protein)
}

/// Builds the paper's R2 analysis: membrane 2-D density histogram.
pub fn r2_membrane_histogram(bins: usize) -> DensityHistogram {
    DensityHistogram::new("membrane histogram (R2)", Species::Membrane, bins)
}

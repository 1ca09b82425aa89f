//! A miniature LAMMPS: classical molecular dynamics with embedded in-situ
//! analysis kernels.
//!
//! The paper's first case study couples its scheduler to LAMMPS running two
//! problems — a water+ions system (analyses A1–A4 of Table 2) and the
//! rhodopsin protein benchmark (analyses R1–R3 of Table 3). This crate is
//! the workspace's stand-in: a real (laptop-scale) MD engine whose analysis
//! kernels have the same algorithmic shape as the paper's, so their
//! relative time/memory profiles (paper Figure 4) and scaling behaviour are
//! preserved:
//!
//! * [`system`] — SoA particle store, periodic box, velocity-Verlet
//!   integration with a Berendsen thermostat,
//! * [`neighbor`] — O(N) pair iteration over cells: the force kernel's
//!   cell-sorted walk and the analyses' linked cell list (with an O(N²)
//!   reference used by the tests),
//! * [`force`] — truncated-shifted Lennard-Jones plus harmonic bonds,
//! * [`builder`] — water+ions and rhodopsin-proxy system generators,
//! * [`analysis`] — RDF (A1/A2), VACF (A3), MSD (A4), radius of gyration
//!   (R1) and 2-D density histograms (R2/R3), each implementing the
//!   [`insitu_core::runtime::Analysis`] trait,
//! * [`dump`] — trajectory write/read for the Table-4 post-processing
//!   comparison,
//! * [`render`] — an orthographic PPM snapshot (paper Figure 3).

pub mod analysis;
pub mod builder;
pub mod dump;
pub mod force;
pub mod neighbor;
pub mod render;
pub mod system;

pub use builder::{rhodopsin_proxy, water_ions, BuilderParams};
pub use system::{SimBox, Species, System, NUM_SPECIES};

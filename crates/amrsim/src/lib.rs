//! A miniature FLASH: block-structured compressible hydrodynamics with
//! embedded in-situ analyses.
//!
//! The paper's second case study couples its scheduler to the FLASH
//! multiphysics code running the Sedov blast problem "using three
//! dimensions with 16³ cells per block; each block consists of 10 mesh
//! variables" (§5.2), with three analyses: vorticity (F1), L1 error norms
//! of density/pressure (F2) and L2 norms of the velocity components (F3).
//!
//! This crate is the stand-in:
//!
//! * [`block`] — 16³-cell blocks carrying 10 mesh variables with ghost
//!   layers,
//! * [`mesh`] — a block-structured mesh with ghost exchange and outflow
//!   boundaries,
//! * [`euler`] — a first-order HLL finite-volume solver for the 3-D
//!   compressible Euler equations with CFL-controlled time stepping,
//! * [`sedov`] — the Sedov blast initial condition and the self-similar
//!   `r_s(t) ∝ (E t²/ρ)^{1/5}` reference used by the error-norm analyses,
//! * [`analysis`] — the F1/F2/F3 kernels implementing
//!   [`insitu_core::runtime::Analysis`],
//! * [`sim`] — the [`insitu_core::runtime::Simulator`] wrapper with
//!   checkpoint output.
//!
//! Fidelity note (documented in DESIGN.md): the solver runs on a uniform
//! grid of equal blocks, all at one level. No refinement is modelled —
//! no flagging, no prolongation or restriction, no multi-level flux
//! correction — because the paper's scheduling experiments exercise the
//! analyses' cost shapes, not AMR accuracy.

pub mod analysis;
pub mod block;
pub mod euler;
pub mod mesh;
pub mod sedov;
pub mod sim;

pub use block::{Block, FlowVar, BLOCK_CELLS, GHOST, NVARS};
pub use mesh::Mesh;
pub use sim::FlashSim;

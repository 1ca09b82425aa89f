//! Analytic model of a leadership-class HPC machine.
//!
//! The paper's experiments ran on "Mira", the IBM Blue Gene/Q at Argonne
//! (48 racks, 16 GB RAM per node, 5-D torus interconnect, 240 GB/s peak
//! GPFS I/O bandwidth). We cannot run on a BG/Q, so this crate provides the
//! closest analytic stand-in the scheduling model needs:
//!
//! * [`topology`] — N-dimensional torus/mesh partitions with hop counts and
//!   network **diameter** (the y-variable of the paper's communication-time
//!   interpolation, §4),
//! * [`collectives`] — latency–bandwidth cost models for the MPI collectives
//!   the analysis kernels use (`MPI_Allreduce` et al.),
//! * [`io`] — a shared-filesystem bandwidth model (GPFS-like) plus an
//!   NVRAM/burst-buffer tier (the Table-7 what-if), and
//! * [`machine`] — node specs, partition allocation and the
//!   [`machine::Machine::mira`] preset.
//!
//! All quantities are *analytic predictions*, mirroring how the paper itself
//! predicts unmeasured configurations via interpolation rather than
//! measuring all of them.

pub mod collectives;
pub mod io;
pub mod machine;
pub mod topology;

pub use collectives::CollectiveModel;
pub use io::{IoSubsystem, StorageTier};
pub use machine::{Machine, NodeSpec, Partition};
pub use topology::Torus;

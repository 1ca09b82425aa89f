//! Performance modeling (§4): the [`Stopwatch`] bracket that measures
//! Table-1 inputs, plus interpolation-based prediction.
//!
//! The paper feeds its optimization model with *estimates* of the time and
//! memory requirements of each analysis, obtained by measuring a few
//! (problem size × process count) points and predicting the rest with
//! **bilinear interpolation** (Figure 2). Compute time interpolates over
//! process count; communication time over the **network diameter**; memory
//! over process count. The paper reports <6 % compute-time and <8 %
//! communication-time prediction error; the integration tests of this
//! workspace reproduce that check against held-out measurements of our own
//! kernels.
//!
//! * [`interp`] — rectilinear-grid bilinear interpolation with linear
//!   extrapolation and optional log-scaled axes,
//! * [`profile`] — [`Stopwatch`], the `HPM_Start`/`HPM_Stop` wall-clock
//!   bracket the coupler measures every region with,
//! * [`predict`] — the three-grid predictor (compute / communication /
//!   memory) used to produce [Table-1] inputs at unmeasured scales,
//! * [`stats`] — prediction-error statistics (mean/max relative error),
//! * [`laws`] — closed-form scaling laws used to synthesize workload grids
//!   in benches and tests.

pub mod interp;
pub mod laws;
pub mod predict;
pub mod profile;
pub mod stats;

pub use interp::BilinearGrid;
pub use predict::{KernelMeasurement, PerfPredictor};
pub use profile::Stopwatch;
pub use stats::PredictionErrors;

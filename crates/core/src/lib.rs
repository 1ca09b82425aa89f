//! Optimal scheduling of in-situ analysis — the paper's core contribution.
//!
//! This crate implements the mixed-integer-linear-program formulation of
//! "Optimal Scheduling of In-situ Analysis for Large-scale Scientific
//! Simulations" (SC '15) on top of the workspace's from-scratch [`milp`]
//! solver, plus everything needed to act on a solution:
//!
//! * [`formulation`] — the exact time-indexed MILP of Eqs. 1–9 (binary
//!   `analysis[i][j]` / `output[i][j]` per simulation step),
//! * [`aggregate`] — an equivalent count-based reformulation that scales to
//!   the paper's `Steps = 1000` instances (see module docs for the
//!   equivalence argument),
//! * [`placement`] — turns optimal counts into concrete analysis/output
//!   steps with even spacing under the interval constraint,
//! * [`validate`] — an independent step-by-step simulator of the time and
//!   memory recursions (Eqs. 2–8) that certifies any schedule,
//! * [`baseline`] — the status quo the paper argues against: fixed
//!   user-chosen frequencies, plus a greedy heuristic,
//! * [`runtime`] — a coupler that executes a schedule against a live
//!   simulation (used by the mdsim/amrsim mini-apps),
//! * [`advisor`] — the high-level "recommend me a schedule" API,
//! * [`adaptive`] + [`runtime::run_coupled_adaptive`] — the closed
//!   control loop that re-solves mid-run when the measured costs drift
//!   from the model (`docs/ADAPTIVE.md`).
//!
//! # Quickstart
//!
//! ```
//! use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem, GIB};
//! use insitu_core::advisor::{Advisor, AdvisorOptions};
//!
//! let problem = ScheduleProblem::new(
//!     vec![
//!         AnalysisProfile::new("rdf").with_compute(0.5, GIB).with_interval(100)
//!             .with_output(0.1, 0.1 * GIB, 1),
//!         AnalysisProfile::new("msd").with_compute(4.0, 2.0 * GIB).with_interval(100)
//!             .with_output(1.0, GIB, 1),
//!     ],
//!     ResourceConfig::from_total_threshold(1000, 30.0, 64.0 * GIB, GIB),
//! ).unwrap();
//! let rec = Advisor::new(AdvisorOptions::default()).recommend(&problem).unwrap();
//! assert_eq!(rec.counts[0], 10);             // cheap analysis at max frequency
//! assert!(rec.predicted_time <= 30.0 + 1e-6); // within the threshold
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod advisor;
pub mod aggregate;
pub mod attribution;
pub mod baseline;
pub mod formulation;
pub mod placement;
pub mod runtime;
pub mod validate;

pub use adaptive::{AdaptiveConfig, RescheduleRecord, TriggerReason};
pub use advisor::{Advisor, AdvisorOptions, Recommendation, Stamped};
pub use attribution::{attribute, attribute_with_predicted, DriftReport, StepDrift};
pub use aggregate::{build_aggregate, solve_aggregate, AggregateModel};
pub use formulation::{solve_exact, Solved};
pub use runtime::{run_coupled, run_coupled_adaptive, run_coupled_traced, AdaptiveReport};
pub use validate::{validate_schedule, ValidationReport};

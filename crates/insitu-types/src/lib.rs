//! Shared vocabulary for the in-situ analysis scheduling system.
//!
//! This crate defines the data model that every other crate in the workspace
//! speaks: the per-analysis resource profiles of Table 1 of the paper
//! ("Optimal Scheduling of In-situ Analysis for Large-scale Scientific
//! Simulations", SC '15), the global resource configuration, the scheduling
//! problem, the resulting [`Schedule`], and the Figure-1 coupling-trace
//! notation (`S S S S A O_A ...`).
//!
//! Keeping these types in a leaf crate lets the MILP solver, the machine
//! model, the performance model and both mini-apps depend on them without
//! depending on each other.

pub mod canonical;
pub mod cert;
pub mod error;
pub mod json;
pub mod problem;
pub mod profile;
pub mod resources;
pub mod schedule;
pub mod service;
pub mod telemetry;
pub mod trace;
pub mod units;

pub use cert::{CutProof, GomoryVar, NodeCert, NodeOutcome, SearchCertificate};
pub use error::TypeError;
pub use problem::ScheduleProblem;
pub use profile::{AnalysisId, AnalysisProfile};
pub use resources::ResourceConfig;
pub use schedule::{AnalysisSchedule, Schedule};
pub use service::{ResponseHead, ResponseSource, ServiceRequest, ServiceResponse, SERVICE_SCHEMA};
pub use telemetry::{KernelRecord, KernelTelemetry};
pub use trace::{CouplingTrace, StepEvent};
pub use units::{Bytes, Seconds, GIB, KIB, MIB};

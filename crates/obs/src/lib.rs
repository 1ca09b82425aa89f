//! Structured tracing and metrics for the in-situ scheduling stack.
//!
//! Every layer of the workspace measures something — the simulation
//! proxies record per-kernel wall time (`insitu_types::KernelTelemetry`),
//! the MILP solver counts nodes and pivots (`milp::SolveStats`), and the
//! runtime coupler times every analysis bracket — but before this crate
//! those measurements lived in disconnected structs that never met. `obs`
//! is the meeting point: a **std-only, zero-dependency** tracing and
//! metrics layer the rest of the workspace adopts.
//!
//! Six pieces:
//!
//! * [`Tracer`] — cheap span/event recording: monotonic timestamps from a
//!   per-tracer epoch, thread-id tagging, automatic parenting through a
//!   thread-local span stack, and a **bounded** buffer with an explicit
//!   drop counter, so overload is observable instead of silent and the
//!   hot path never reallocates. [`TraceHandle`] is the cloneable
//!   embed-anywhere form (a disabled handle is a no-op).
//! * [`Registry`] — one sink for the two metric kinds, counters and
//!   histograms, with deterministic snapshots, a plain-text table and a
//!   JSON export. `KernelTelemetry`, `SolveStats`, `RunReport` and
//!   `Recommendation` each have an `export_into(&Registry)` adapter in
//!   their own crate, so a coupled run and a solve report through this
//!   one sink.
//! * [`Timeline`] — the recorded span tree of a run, with exporters to a
//!   stable JSON schema (`obs/timeline/v1`, documented in
//!   `EXPERIMENTS.md`) and to the Chrome trace-event format
//!   (loadable in `chrome://tracing` / `ui.perfetto.dev`), with one
//!   lane per request trace id.
//! * [`Hist`] — deterministic log₂-bucket histograms (`obs/hist/v1`):
//!   mergeable across threads with bitwise-identical snapshots for the
//!   same multiset of observations, and quantile estimates with a
//!   documented <2× error bound.
//! * [`TraceContext`] — request-scoped trace identity derived
//!   deterministically from an instance fingerprint + request sequence
//!   (no clocks, no randomness), stamped on every span/event recorded
//!   while [entered](TraceContext::enter).
//! * [`FlightRecorder`] — an always-on bounded ring of recent
//!   spans/events/counter deltas that renders the `flightrec/v1`
//!   post-mortem artifact on demand (the solve service dumps it on
//!   certify-reject and solver-error paths).
//!
//! The step-indexed run timeline emitted by
//! `insitu_core::runtime::run_coupled_traced` — one span per simulation
//! step, child spans per analysis execution and output write, tagged with
//! the scheduled `(analysis[i][j], output[i][j])` decision — is the
//! measured half of the predicted-vs-measured drift report in
//! `insitu_core::attribution`. See `docs/OBSERVABILITY.md` for the span
//! model and schema.

#![warn(missing_docs)]

mod json;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod timeline;
pub mod tracer;

pub use flight::{FlightEntry, FlightRecorder, FLIGHTREC_SCHEMA};
pub use hist::{Hist, HIST_SCHEMA};
pub use registry::{Registry, Snapshot};
pub use timeline::{Timeline, TIMELINE_SCHEMA};
pub use tracer::{
    trace_id_hex, ContextGuard, EventRecord, SpanGuard, SpanId, SpanRecord, TagValue, TraceContext,
    TraceHandle, Tracer,
};

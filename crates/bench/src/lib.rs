//! Benchmark & reproduction harness.
//!
//! `reproduce_all` prints every paper table/figure (`--only <section>`
//! for one) and `trace_view` renders recorded trace artifacts; performance
//! is gated by the repo benchmark (`BENCHMARK.json`, `benchmark/`), not
//! here. The tables are backed by this library:
//!
//! * [`measure`] — runs the *real* mdsim/amrsim kernels at laptop scale and
//!   extracts per-element unit costs (the workspace's HPM profiling pass),
//! * [`scale`] — combines those unit costs with the [`machine`] model
//!   (partition sizes, network diameters, collective and I/O costs) to
//!   produce paper-scale [`insitu_types::AnalysisProfile`]s — the same
//!   measure-small/predict-big methodology as the paper's §4,
//! * [`table`] — text-table formatting for the reproduction reports,
//! * [`instances`] — the repo benchmark's solver-path instance families,
//!   for the kernel benches (`benches/lu_kernels.rs`) and pinned tests.
//!
//! Absolute numbers will differ from the paper (its substrate was a Blue
//! Gene/Q; ours is a calibrated model), but each section prints the paper's
//! values next to ours so the *shape* — who wins, what decays, where the
//! crossovers sit — can be compared directly.

pub mod experiments;
pub mod instances;
pub mod measure;
pub mod scale;
pub mod table;

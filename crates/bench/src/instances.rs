//! Scheduling instances of the repo benchmark's families, for the kernel
//! benches and the pinned tests.
//!
//! `benchmark/` is a workspace of its own that nothing here may depend on,
//! so the two generators below restate its formulas
//! (`benchmark/src/gen.rs`): [`exact_leg`] is `exact_instance` verbatim,
//! [`service_like`] is the largest shape of `service_instance` with the
//! catalogue's draws replaced by a formula of the analysis index.

use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};

/// Resources whose Eq. 4 right-hand side `cth·Steps` is an exact `f64`:
/// `total` rounded up by less than `Steps·2⁻²⁰`.
fn resources(steps: usize, total: f64, mem_threshold: f64) -> ResourceConfig {
    const SCALE: f64 = (1u64 << 20) as f64;
    let cth = (total / steps as f64 * SCALE).ceil() / SCALE;
    ResourceConfig::new(steps, cth, mem_threshold, 1e9)
}

/// One time-indexed instance of `solve-scale`'s exact leg (`Exact/{steps}x{n}`):
/// interval `Steps/8`, costs a formula of the analysis index, integral
/// weights, no memory, budget at 60 % of the full cost. Its Eq. 1–9 model
/// (`insitu_core::formulation::build_exact`) is solved at the root.
pub fn exact_leg(steps: usize, n: usize) -> ScheduleProblem {
    let itv = (steps / 8).max(1);
    let kmax = (steps / itv) as f64;
    let mut rough = 0.0;
    let analyses: Vec<AnalysisProfile> = (0..n)
        .map(|i| {
            let ct = 1.0 + 1.5 * i as f64;
            let ot = 0.25 * (1 + i % 2) as f64;
            rough += kmax * (ct + ot);
            AnalysisProfile::new(format!("E{i}"))
                .with_compute(ct, 0.0)
                .with_output(ot, 0.0, 1)
                .with_weight((1 + i % 3) as f64)
                .with_interval(itv)
        })
        .collect();
    let total = (rough * 0.6 * 4.0).floor() / 4.0;
    ScheduleProblem::new(analyses, resources(steps, total, 1e12))
        .expect("generated exact instance must validate")
}

/// An instance shaped like the largest of the service family `svc-zipf`
/// and `svc-fresh` solve: six analyses over 240 steps, intervals 1–8,
/// dyadic costs, compute buffers of 16 KiB held by two analyses in three,
/// budget at half of what running everything would cost. Its aggregate
/// model has a couple of dozen rows.
pub fn service_like() -> ScheduleProblem {
    const STEPS: usize = 240;
    let mut full_cost = 0.0;
    let analyses: Vec<AnalysisProfile> = (0..6)
        .map(|j| {
            let itv = 1usize << (j % 4);
            let ct = 0.5 + (1 + 7 * j % 36) as f64 / 8.0;
            let ot = (1 + j % 4) as f64 / 16.0;
            let cm = if j % 3 == 0 { 0.0 } else { (1 + j % 8) as f64 * 16_384.0 };
            full_cost += (STEPS / itv) as f64 * (ct + ot);
            AnalysisProfile::new(format!("a{j}"))
                .with_compute(ct, cm)
                .with_interval(itv)
                .with_weight((2 + j % 7) as f64 / 2.0)
                .with_output(ot, 0.0, 1)
        })
        .collect();
    let total = (full_cost * 0.5 * 64.0).floor() / 64.0;
    ScheduleProblem::new(analyses, resources(STEPS, total, 1e9))
        .expect("generated service instance must validate")
}

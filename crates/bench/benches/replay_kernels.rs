//! Criterion bench: the exact Eq. 2–9 replay on three shapes —
//!
//! * `service_240x4`: a four-analysis instance of the service family
//!   `svc-zipf` and `svc-fresh` re-certify on every reply (dense: several
//!   hundred run/output events over 240 steps);
//! * `paper_1000x10`: the paper's own scale, ten analyses over 1 000 steps
//!   at `itv` 100, every run written out;
//! * `sparse_1e6x4`: a million steps, four analyses, a dozen events —
//!
//! each with the schedule and certificate the aggregate solve gives it,
//! through `certify::replay`, `certify::certify_checked` (the replay
//! plus the verdict a cache hit pays for) and `certify::memory_state_at`
//! half-way through the run. The event count of each shape is printed
//! once: the replay's cost follows it, not `Steps`. `EXPERIMENTS.md`
//! § PR 24 records the figures before and after the replay became
//! event-driven.

use certify::CheckedCertificate;
use criterion::{criterion_group, criterion_main, Criterion};
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};
use milp::SolveOptions;

/// The first four analyses of `bench::instances::service_like`, budget at
/// half of what running everything would cost.
fn service() -> ScheduleProblem {
    let wide = bench::instances::service_like();
    let analyses: Vec<AnalysisProfile> = wide.analyses[..4].to_vec();
    let full: f64 = analyses
        .iter()
        .map(|a| (240 / a.min_interval) as f64 * (a.compute_time + a.output_time))
        .sum();
    ScheduleProblem::new(analyses, ResourceConfig::from_total_threshold(240, full / 2.0, 1e9, 1e9))
        .expect("validates")
}

/// `n` analyses over `steps` steps at interval `itv`, every run written
/// out, per-step memory on every other one, budget at 60 % of what running
/// everything at every allowed step would cost.
fn periodic(steps: usize, n: usize, itv: usize) -> ScheduleProblem {
    let mut full = 0.0;
    let analyses: Vec<AnalysisProfile> = (0..n)
        .map(|i| {
            let ct = 0.5 + i as f64 / 8.0;
            full += 0.25 + steps as f64 / 1024.0 + (steps / itv) as f64 * (ct + 0.125);
            AnalysisProfile::new(format!("p{i}"))
                .with_fixed(0.25, 64.0 * (1 + i) as f64)
                .with_per_step(1.0 / 1024.0, (i % 2) as f64 / 8.0)
                .with_compute(ct, 4096.0)
                .with_output(0.125, 512.0, 1)
                .with_weight((2 + i % 5) as f64 / 2.0)
                .with_interval(itv)
        })
        .collect();
    let total = (full * 0.6 * 64.0).floor() / 64.0;
    ScheduleProblem::new(analyses, ResourceConfig::from_total_threshold(steps, total, 1e12, 1e9))
        .expect("validates")
}

fn bench_shape(c: &mut Criterion, label: &str, problem: &ScheduleProblem) {
    // the schedule and the certificate a service would hold for the instance
    let opts = SolveOptions { certificate: true, ..SolveOptions::default() };
    let solved = insitu_core::solve_aggregate(problem, &opts, None).expect("the shape solves");
    let schedule = &solved.schedule;
    let certificate = solved.stats.certificate.expect("asked for");
    let certificate = CheckedCertificate::check(certificate).expect("the certificate closes");
    let verdict = certify::certify_checked(problem, schedule, &certificate).verdict;
    assert_eq!(verdict, certify::Verdict::Proved, "{label}");
    let events: usize = schedule.per_analysis.iter().map(|a| a.count() + a.output_count()).sum();
    println!(
        "  {label}: {} steps x {} analyses, {events} run/output events",
        problem.resources.steps,
        problem.len()
    );
    let mut g = c.benchmark_group(format!("replay_kernels/{label}"));
    g.bench_function("replay", |b| b.iter(|| certify::replay(problem, schedule)));
    g.bench_function("certify_checked", |b| {
        b.iter(|| certify::certify_checked(problem, schedule, &certificate).verdict)
    });
    let set_up = vec![true; problem.len()];
    let half = problem.resources.steps / 2;
    g.bench_function("memory_state_at", |b| {
        b.iter(|| certify::memory_state_at(problem, schedule, half, &set_up))
    });
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    bench_shape(c, "service_240x4", &service());
    bench_shape(c, "paper_1000x10", &periodic(1000, 10, 100));
    bench_shape(c, "sparse_1e6x4", &periodic(1_000_000, 4, 250_000));
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);

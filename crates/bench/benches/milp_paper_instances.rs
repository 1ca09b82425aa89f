//! Criterion bench: solver time on the paper's scheduling instances.
//!
//! §5.3 reports CPLEX 12.6.1 solve times of 0.17–1.36 s across all the
//! paper's instances. This bench times our from-scratch solver on the same
//! instances (aggregate form); the reproduction claim is "well inside the
//! paper's envelope".
//!
//! Each instance is swept over worker-thread counts (1 / 2 / 4, see
//! `docs/SOLVER.md` for the determinism contract). Before timing, one
//! un-timed solve per thread count prints the solver telemetry
//! ([`milp::SolveStats`]) and asserts the parallel objective is bitwise
//! identical to the serial one.

use bench::scale::paper_quoted;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insitu_core::solve_aggregate;
use insitu_types::{ResourceConfig, ScheduleProblem, GIB};
use milp::SolveOptions;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

fn opts_with(threads: usize) -> SolveOptions {
    SolveOptions {
        threads,
        ..SolveOptions::default()
    }
}

fn bench_instances(c: &mut Criterion) {
    let mut g = c.benchmark_group("milp_paper_instances");
    let cases: Vec<(&str, ScheduleProblem)> = vec![
        (
            "table5_10pct",
            ScheduleProblem::new(
                paper_quoted::waterions_table5(),
                ResourceConfig::from_total_threshold(1000, 64.69, 1024.0 * GIB, GIB),
            )
            .unwrap(),
        ),
        (
            "table6_100s",
            ScheduleProblem::new(
                paper_quoted::rhodopsin_table6(),
                ResourceConfig::from_total_threshold(1000, 100.0, 1024.0 * GIB, GIB),
            )
            .unwrap(),
        ),
        (
            "table8_weighted",
            ScheduleProblem::new(
                paper_quoted::flash_table8([2.0, 1.0, 2.0]),
                ResourceConfig::from_total_threshold(1000, 43.5, 1024.0 * GIB, GIB),
            )
            .unwrap(),
        ),
    ];
    for (name, problem) in cases {
        // one un-timed telemetry pass per thread count, checking the
        // parallel solves reproduce the serial objective bitwise
        let serial = solve_aggregate(&problem, &opts_with(1), None).unwrap();
        for threads in THREAD_SWEEP {
            let agg = solve_aggregate(&problem, &opts_with(threads), None).unwrap();
            assert_eq!(
                agg.objective.to_bits(),
                serial.objective.to_bits(),
                "{name}: parallel objective diverged at {threads} threads"
            );
            println!("  {name} [{threads} thr]: {}", agg.stats.summary());
        }
        for threads in THREAD_SWEEP {
            let opts = opts_with(threads);
            g.bench_with_input(BenchmarkId::new(name, threads), &problem, |b, problem| {
                b.iter(|| solve_aggregate(std::hint::black_box(problem), &opts, None).unwrap())
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_instances
}
criterion_main!(benches);

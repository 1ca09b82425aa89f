//! Determinism and equivalence guarantees for the two-tier branching
//! scheme (pseudocost branching with parallel strong branching at shallow
//! depths, `docs/SOLVER.md`).
//!
//! Pinned here:
//!
//! 1. the search returns a certified optimum on a paper-shaped instance,
//!    cross-checked through the exact rational certifier,
//! 2. parallel strong branching returns the **bitwise-identical optimum**
//!    at 1, 2 and 4 threads,
//! 3. a serial **node-order regression**: node/probe counts repeat
//!    exactly across runs, on an instance whose tree exercises both the
//!    strong-branching and the pseudocost tier.

use milp::SolveOptions;

/// A Table-5-flavoured instance (distinct from the corpus exemplar):
/// four analyses with mixed weights under tight time and memory budgets.
fn paper_problem() -> insitu_types::ScheduleProblem {
    use insitu_types::AnalysisProfile;
    insitu_types::ScheduleProblem::new(
        vec![
            AnalysisProfile::new("rdf")
                .with_compute(0.5, 64.0)
                .with_output(0.125, 16.0, 1)
                .with_interval(8),
            AnalysisProfile::new("msd")
                .with_per_step(0.0, 2.0)
                .with_compute(1.5, 32.0)
                .with_output(0.25, 8.0, 1)
                .with_interval(16),
            AnalysisProfile::new("vacf")
                .with_compute(2.0, 48.0)
                .with_output(0.5, 12.0, 1)
                .with_interval(20)
                .with_weight(1.5),
            AnalysisProfile::new("voronoi")
                .with_compute(6.0, 128.0)
                .with_output(1.0, 32.0, 1)
                .with_interval(25)
                .with_weight(2.0),
        ],
        insitu_types::ResourceConfig::from_total_threshold(100, 40.0, 512.0, 1e6),
    )
    .expect("valid problem")
}

/// A time-indexed formulation whose LP bound sits on a wide fractional
/// plateau above the integer optimum (`abs_gap` just under the integral
/// objective's unit step still proves optimality): the root cut pool does
/// not close it, so the search really branches.
fn plateau_model() -> milp::Model {
    use insitu_types::AnalysisProfile;
    let p = insitu_types::ScheduleProblem::new(
        vec![
            AnalysisProfile::new("a")
                .with_compute(1.0, 0.0)
                .with_output(0.5, 0.0, 1)
                .with_interval(4),
            AnalysisProfile::new("b")
                .with_compute(3.0, 0.0)
                .with_output(0.5, 0.0, 1)
                .with_interval(6)
                .with_weight(2.0),
        ],
        insitu_types::ResourceConfig::from_total_threshold(24, 12.0, 1e9, 1e9),
    )
    .expect("valid problem");
    insitu_core::formulation::build_exact(&p).0
}

fn opts(threads: usize) -> SolveOptions {
    SolveOptions {
        threads,
        certificate: true,
        ..SolveOptions::default()
    }
}

fn plateau_opts(threads: usize) -> SolveOptions {
    SolveOptions {
        abs_gap: 0.999,
        ..opts(threads)
    }
}

#[test]
fn optimum_certifies() {
    let problem = paper_problem();
    let built = insitu_core::build_aggregate(&problem).expect("model builds");
    let sol = milp::solve(&built.model, &opts(1)).expect("solves");
    assert!(sol.proven_optimal);
    // cross-check through the independent exact-rational certifier
    let (counts, output_counts) = built.counts_from(&sol.values);
    let schedule = insitu_core::placement::place_schedule(&problem, &counts, &output_counts);
    let cert = sol.stats.certificate.as_ref().expect("certificate emitted");
    let checked = certify::certify(&problem, &schedule, Some(cert));
    assert_eq!(checked.verdict, certify::Verdict::Proved, "{:?}", checked.problems);
}

#[test]
fn strong_branching_optimum_is_thread_count_invariant() {
    let model = plateau_model();
    let serial = milp::solve(&model, &plateau_opts(1)).expect("serial solves");
    assert!(serial.stats.strong_branch_calls > 0, "probing must engage");
    for threads in [2usize, 4] {
        let par = milp::solve(&model, &plateau_opts(threads)).expect("parallel solves");
        assert_eq!(
            par.objective.to_bits(),
            serial.objective.to_bits(),
            "threads={threads}: {} vs {}",
            par.objective,
            serial.objective
        );
        assert!(par.proven_optimal);
    }
}

#[test]
fn branching_node_order_regression() {
    let model = plateau_model();
    let runs: Vec<_> = (0..3)
        .map(|_| milp::solve(&model, &plateau_opts(1)).unwrap())
        .collect();
    // both tiers chose variables: probes near the root, estimates below
    assert!(runs[0].stats.strong_branch_lps > 0, "{}", runs[0].stats);
    assert!(runs[0].stats.pseudocost_branches > 0, "{}", runs[0].stats);
    for r in &runs[1..] {
        assert_eq!(r.nodes, runs[0].nodes, "node count drifted between runs");
        assert_eq!(r.iterations, runs[0].iterations, "pivot count drifted");
        assert_eq!(r.values, runs[0].values, "argmax drifted");
        assert_eq!(
            r.stats.strong_branch_lps, runs[0].stats.strong_branch_lps,
            "probe count drifted"
        );
        assert_eq!(r.stats.pseudocost_branches, runs[0].stats.pseudocost_branches);
    }
}

//! The LP engine's operation counters, pinned over the instances of
//! `search_pin.rs`: the differential-fuzz generator's 120 problems through
//! the aggregate model (plain and hinted with its own optimum) and the
//! time-indexed model under a 400-node budget, plus the plateau instance
//! to optimality.
//!
//! A counter is deterministic — it counts operations, not time — so its
//! total over a fixed set of solves is a pin like the search's own digest.
//! A change that claims to do the same pivots faster (a cheaper ratio test,
//! a fused BTRAN) must leave it where it is; a change that moves it moved
//! the path, and `search_pin` says so too. It moved once with it, when
//! `build_aggregate` stopped expanding `(k, q)` where memory cannot decide
//! the pair (commit `7652804`): `(351, 41_153, 45_073)` before; and once
//! more when it stopped charging `om` to analyses that never output:
//! `(351, 41_210, 45_116)` before.

use insitu_core::{build_aggregate, formulation::build_exact};
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};
use integration_tests::fuzz;
use milp::{Model, Solution, SolveError, SolveOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The plateau instance of `branching_determinism.rs` and `search_pin.rs`.
fn plateau_model() -> Model {
    let p = ScheduleProblem::new(
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
        ResourceConfig::from_total_threshold(24, 12.0, 1e9, 1e9),
    )
    .expect("valid problem");
    build_exact(&p).0
}

fn opts() -> SolveOptions {
    SolveOptions {
        certificate: true,
        ..SolveOptions::default()
    }
}

/// `(solves that returned a solution, Σ dual pivots, Σ pivots)`.
fn dual_pivot_totals() -> (usize, usize, usize) {
    let (mut solved, mut dual, mut pivots) = (0usize, 0usize, 0usize);
    let mut count = |r: &Result<Solution, SolveError>| {
        if let Ok(s) = r {
            solved += 1;
            dual += s.stats.dual_pivots;
            pivots += s.stats.lp_pivots;
            assert!(s.stats.dual_pivots <= s.stats.lp_pivots);
        }
    };
    for case in 0..120usize {
        let mut rng = StdRng::seed_from_u64(0x5EA2_C4ED ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let problem = fuzz::gen_problem(&mut rng, case);
        let built = build_aggregate(&problem).expect("model builds");
        let plain = milp::solve(&built.model, &opts());
        count(&plain);
        if let Ok(s) = &plain {
            count(&milp::solve_with_hint(&built.model, &opts(), &s.values));
        }
        let capped = SolveOptions {
            max_nodes: 400,
            ..opts()
        };
        count(&milp::solve(&build_exact(&problem).0, &capped));
    }
    let gap = SolveOptions {
        abs_gap: 0.999,
        ..opts()
    };
    count(&milp::solve(&plateau_model(), &gap));
    (solved, dual, pivots)
}

#[test]
fn dual_pivots_over_the_search_pin_instances() {
    let (solved, dual, pivots) = dual_pivot_totals();
    // 351 of search_pin's 362 solves return a solution (the rest hit the
    // node limit), and their pivots are its 45 114
    assert_eq!((solved, dual, pivots), (351, 41_210, 45_114), "the LP path moved");
}

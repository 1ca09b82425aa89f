//! Property tests for the parallel branch-and-bound solver.
//!
//! Two guarantees documented in `docs/SOLVER.md` are pinned here:
//!
//! 1. the parallel search returns the **same objective** as the serial
//!    one (bitwise) on randomized MILP instances, certified against the
//!    brute-force oracle,
//! 2. at one thread the search is **fully deterministic**: node counts,
//!    pivot counts, and the returned argmax repeat exactly across runs.

use milp::brute::brute_force;
use milp::{solve, Cmp, LinExpr, Model, Sense, SolveOptions};
use proptest::prelude::*;

/// Random bounded-integer knapsack-style models, frequently with tied
/// optima (small coefficient ranges) to stress the lexicographic
/// incumbent tie-break.
fn arb_model() -> impl Strategy<Value = Model> {
    (
        2usize..6,                             // variables
        prop::collection::vec(1u32..5, 6),     // weights
        prop::collection::vec(1u32..5, 6),     // profits
        prop::collection::vec(0u32..3, 6),     // upper bounds - 1
        4u32..20,                              // capacity
        any::<bool>(),                         // sense
    )
        .prop_map(|(n, w, p, ub, cap, maximize)| {
            let sense = if maximize {
                Sense::Maximize
            } else {
                Sense::Minimize
            };
            let mut m = Model::new(sense);
            let vars: Vec<_> = (0..n)
                .map(|i| m.int_var(&format!("x{i}"), 0.0, 1.0 + ub[i] as f64))
                .collect();
            let row = LinExpr::sum(vars.iter().enumerate().map(|(i, &v)| (v, w[i] as f64)));
            if maximize {
                m.add_con(row, Cmp::Le, cap as f64);
            } else {
                // minimization needs a covering constraint to be
                // non-trivial; clamp to what the bounded vars can reach
                // so the instance stays feasible
                let reach: f64 = (0..n).map(|i| w[i] as f64 * (1.0 + ub[i] as f64)).sum();
                m.add_con(row, Cmp::Ge, ((cap / 2) as f64).min(reach));
            }
            m.set_objective(LinExpr::sum(
                vars.iter().enumerate().map(|(i, &v)| (v, p[i] as f64)),
            ));
            m
        })
}

fn opts_with(threads: usize) -> SolveOptions {
    SolveOptions {
        threads,
        ..SolveOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_objective_matches_serial_and_oracle(model in arb_model()) {
        let serial = solve(&model, &opts_with(1)).unwrap();
        let oracle = brute_force(&model, 1 << 16).unwrap();
        prop_assert!((serial.objective - oracle.objective).abs() < 1e-6,
            "serial {} vs oracle {}", serial.objective, oracle.objective);
        for threads in [2usize, 4] {
            let par = solve(&model, &opts_with(threads)).unwrap();
            prop_assert_eq!(par.objective.to_bits(), serial.objective.to_bits(),
                "threads={}: {} vs {}", threads, par.objective, serial.objective);
            prop_assert!(par.proven_optimal);
        }
    }

    #[test]
    fn single_thread_node_counts_repeat(model in arb_model()) {
        let a = solve(&model, &opts_with(1)).unwrap();
        let b = solve(&model, &opts_with(1)).unwrap();
        prop_assert_eq!(a.nodes, b.nodes);
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        prop_assert_eq!(&a.values, &b.values);
        prop_assert_eq!(a.stats.nodes_pruned_bound, b.stats.nodes_pruned_bound);
        prop_assert_eq!(a.stats.nodes_pruned_infeasible, b.stats.nodes_pruned_infeasible);
    }
}

/// Regression: pins the serial search on a fixed instance so any change
/// to what the search computes (heap tie-break, plunging, pruning, the
/// arithmetic of a child LP) shows up as a diff instead of silent drift.
///
/// The constants are what the commit before PR 14 produced, when every
/// child LP cloned, re-validated and re-lowered the model and refactorized
/// the parent basis for itself. PR 14 made a child LP a bound edit on one
/// standard form over one shared parent factorization: the same nodes,
/// pivots and incumbent bit for bit, with fewer factorizations.
#[test]
fn node_count_determinism_regression() {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..8).map(|i| m.binary(&format!("x{i}"))).collect();
    let w = [3.0, 5.0, 2.0, 7.0, 4.0, 1.0, 6.0, 2.5];
    let p = [9.0, 12.0, 4.0, 15.0, 8.0, 2.0, 11.0, 5.0];
    m.add_con(
        LinExpr::sum(vars.iter().zip(w).map(|(&v, w)| (v, w))),
        Cmp::Le,
        14.0,
    );
    m.set_objective(LinExpr::sum(vars.iter().zip(p).map(|(&v, p)| (v, p))));

    let runs: Vec<_> = (0..3)
        .map(|_| solve(&m, &SolveOptions::default()).unwrap())
        .collect();
    assert_eq!(runs[0].objective.round(), 33.0);
    for r in &runs[1..] {
        assert_eq!(r.nodes, runs[0].nodes, "node count drifted between runs");
        assert_eq!(r.iterations, runs[0].iterations);
        assert_eq!(r.values, runs[0].values);
    }
    // telemetry mirrors the top-level counters
    assert_eq!(runs[0].stats.nodes_explored, runs[0].nodes);
    assert_eq!(runs[0].stats.lp_pivots, runs[0].iterations);

    // the search as recorded, bit for bit (x7 really is -0.0); 22 pivots
    // until commit c30b233 started a cold LP from the slack basis: the one
    // row of this model starts on its slack, so the root LP has no
    // artificial to pivot out
    const PARENT_NODES: usize = 2;
    const PARENT_PIVOTS: usize = 21;
    const PARENT_VALUES: [f64; 8] = [1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, -0.0];
    const PARENT_REFACTORIZATIONS: usize = 10;
    let r = &runs[0];
    assert_eq!(r.nodes, PARENT_NODES);
    assert_eq!(r.iterations, PARENT_PIVOTS);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r.values), bits(&PARENT_VALUES), "{:?}", r.values);
    assert_eq!(r.objective.to_bits(), 33.0f64.to_bits());
    assert!(r.stats.strong_branch_lps > 0, "want probes on this instance");
    assert!(
        r.stats.refactorizations < PARENT_REFACTORIZATIONS,
        "probes must share their node's factorization: {} refactorizations",
        r.stats.refactorizations
    );
}

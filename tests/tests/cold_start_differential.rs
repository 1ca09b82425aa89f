//! Differential test: the revised simplex from a **cold start** against the
//! dense-tableau oracle, LP by LP.
//!
//! Every root LP, every set-up solve and every cold fallback of a warm child
//! begins at the basis `milp::revised` builds from nothing. This suite holds
//! that start to an *answer*: on a seeded family of small LPs
//! (`milp::lp_fuzz::random_lp` — mixed `<=` / `>=` / `=` rows, negative and
//! zero right-hand sides, nonzero and negative lower bounds, fixed,
//! one-sided and free columns, redundant `=` rows, infeasible and unbounded
//! members, models with no row) `milp::solve_lp_relaxation` and
//! `milp::solve_lp_relaxation_dense` must return the same verdict and, when
//! there is an optimum, the same objective to 1e-9. It says nothing about
//! the path — how many pivots, which vertex of a degenerate face — so it was
//! committed *before* the all-artificial start was replaced by the slack
//! crash basis (at `8a6f359`, where it passes) and must pass unedited after.
//!
//! `COLD_START_FUZZ_CASES` sets the number of LPs (default 600).

use milp::lp_fuzz::random_lp;
use milp::{solve_lp_relaxation, solve_lp_relaxation_dense, SolveError};

#[test]
fn cold_revised_simplex_agrees_with_the_dense_oracle() {
    let cases: u64 = std::env::var("COLD_START_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let (mut optimal, mut infeasible, mut unbounded, mut rowless) = (0, 0, 0, 0);
    for case in 0..cases {
        let model = random_lp(case);
        rowless += usize::from(model.cons.is_empty());
        match (solve_lp_relaxation(&model), solve_lp_relaxation_dense(&model)) {
            (Ok(s), Ok(d)) => {
                assert!(
                    (s.objective - d.objective).abs() <= 1e-9,
                    "case {case}: revised {} vs dense {}",
                    s.objective,
                    d.objective
                );
                assert!(model.is_feasible(&s.values, 1e-6), "case {case}: revised point infeasible");
                optimal += 1;
            }
            (Err(s), Err(d)) => {
                assert_eq!(s, d, "case {case}");
                match s {
                    SolveError::Infeasible => infeasible += 1,
                    SolveError::Unbounded => unbounded += 1,
                    other => panic!("case {case}: {other}"),
                }
            }
            (s, d) => panic!(
                "case {case}: revised {:?} vs dense {:?}",
                s.map(|s| s.objective),
                d.map(|d| d.objective)
            ),
        }
    }
    println!("{cases} LPs: {optimal} optimal, {infeasible} infeasible, {unbounded} unbounded, {rowless} without a row");
    if cases >= 400 {
        // the family must keep reaching every verdict
        assert!(optimal >= 200, "{optimal} optimal");
        assert!(infeasible >= 40, "{infeasible} infeasible");
        assert!(unbounded >= 40, "{unbounded} unbounded");
        assert!(rowless >= 10, "{rowless} without a row");
    }
}

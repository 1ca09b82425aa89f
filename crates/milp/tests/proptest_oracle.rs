//! Property tests: branch & bound must agree with brute-force enumeration
//! on random small pure-integer programs, and LP relaxation bounds must
//! dominate the integer optimum.

use milp::brute::brute_force;
use milp::{
    presolve, solve, solve_lp_relaxation, Cmp, LinExpr, Model, Sense, SolveError, SolveOptions,
};
use proptest::prelude::*;

/// A random small integer program: n vars in [0, ub], m `<=` rows with
/// small integer coefficients, random objective.
fn arb_model() -> impl Strategy<Value = Model> {
    (
        2usize..5,                       // vars
        1usize..4,                       // rows
        prop::collection::vec(-4i32..7, 4 * 3), // row coefficients (flattened)
        prop::collection::vec(-5i32..9, 5),     // objective coefficients
        prop::collection::vec(1i32..4, 4),      // upper bounds
        prop::collection::vec(2i32..25, 3),     // rhs values
        any::<bool>(),                   // sense
    )
        .prop_map(|(n, m, coefs, obj, ubs, rhs, maximize)| {
            let mut model = Model::new(if maximize {
                Sense::Maximize
            } else {
                Sense::Minimize
            });
            let vars: Vec<_> = (0..n)
                .map(|i| model.int_var(&format!("x{i}"), 0.0, ubs[i % ubs.len()] as f64))
                .collect();
            for r in 0..m {
                let expr = LinExpr::sum(
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| (v, coefs[(r * n + i) % coefs.len()] as f64)),
                );
                model.add_con(expr, Cmp::Le, rhs[r % rhs.len()] as f64);
            }
            model.set_objective(LinExpr::sum(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, obj[i % obj.len()] as f64)),
            ));
            model
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn branch_and_bound_matches_brute_force(model in arb_model()) {
        let opts = SolveOptions::default();
        let exact = brute_force(&model, 1 << 16);
        let bb = solve(&model, &opts);
        match (exact, bb) {
            (Ok(e), Ok(s)) => {
                prop_assert!((e.objective - s.objective).abs() < 1e-5,
                    "brute {} vs b&b {}", e.objective, s.objective);
                prop_assert!(model.is_feasible(&s.values, 1e-5));
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (e, s) => prop_assert!(false, "status mismatch: brute={e:?} bb={s:?}"),
        }
    }

    #[test]
    fn lp_relaxation_bounds_integer_optimum(model in arb_model()) {
        let opts = SolveOptions::default();
        if let (Ok(relax), Ok(ip)) = (solve_lp_relaxation(&model), solve(&model, &opts)) {
            match model.sense {
                Sense::Maximize => prop_assert!(relax.objective >= ip.objective - 1e-5),
                Sense::Minimize => prop_assert!(relax.objective <= ip.objective + 1e-5),
            }
        }
    }

    #[test]
    fn presolve_dominance_preserves_optimum(
        model in arb_model(),
        slacks in prop::collection::vec(0i32..6, 4),
    ) {
        // duplicate every row with a loosened rhs: each duplicate is
        // dominated by its original (or both are redundant), so presolve
        // must remove at least one per pair and keep the optimum intact
        let mut loose = model.clone();
        let rows: Vec<_> = model
            .cons
            .iter()
            .map(|c| (c.expr.clone(), c.cmp, c.rhs))
            .collect();
        for (i, (expr, cmp, rhs)) in rows.iter().enumerate() {
            loose.add_con(expr.clone(), *cmp, rhs + slacks[i % slacks.len()] as f64);
        }
        let mut pre = loose.clone();
        let presolved = presolve(&mut pre);
        let direct = solve(&loose, &SolveOptions::default());
        match presolved {
            Err(SolveError::Infeasible) => {
                prop_assert!(direct.is_err(), "presolve proved infeasible, direct solved");
            }
            Err(e) => prop_assert!(false, "unexpected presolve failure: {e:?}"),
            Ok(_) => {
                prop_assert!(pre.cons.len() <= model.cons.len(),
                    "every dominated duplicate must be eliminated");
                match (solve(&pre, &SolveOptions::default()), direct) {
                    (Ok(p), Ok(d)) => prop_assert!((p.objective - d.objective).abs() < 1e-6,
                        "presolved {} vs direct {}", p.objective, d.objective),
                    (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                    (p, d) => prop_assert!(false, "status mismatch: pre={p:?} direct={d:?}"),
                }
            }
        }
    }

    #[test]
    fn solutions_respect_bounds_and_integrality(model in arb_model()) {
        if let Ok(s) = solve(&model, &SolveOptions::default()) {
            for (i, v) in model.vars.iter().enumerate() {
                prop_assert!(s.values[i] >= v.lower - 1e-6);
                prop_assert!(s.values[i] <= v.upper + 1e-6);
                prop_assert!((s.values[i] - s.values[i].round()).abs() < 1e-6);
            }
        }
    }
}

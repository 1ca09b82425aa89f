//! Differential test: a child LP as a **bound edit** against a child LP as
//! a **rebuilt model**.
//!
//! Branch & bound lowers its frozen model to one `StandardForm` per solve
//! and solves every child LP and strong-branch probe as "that form + a few
//! column-bound overrides" over the parent's shared factorization
//! (`milp::revised::solve_bound_edit`). Before PR 14 every such LP cloned
//! the model, tightened the variable bounds, re-validated and re-lowered
//! it, and refactorized the parent basis for itself. [`child_model`] is
//! that old path, kept here — and only here — as the oracle: on every
//! seeded fuzz model and random override set the two must agree **bit for
//! bit** (objective bits, point, final `Basis`, pivot count, `warm` flag),
//! which is what makes the search of PR 14 the search of its parent.
//!
//! `BOUND_EDIT_FUZZ_CASES` sets the number of fuzz models (default 200).

use integration_tests::fuzz;
use milp::revised::{solve_bound_edit, solve_standard_revised, FactoredBasis};
use milp::simplex::{solve_lp_relaxation_warm, Basis, LpPoint};
use milp::standard::{ColMap, StandardForm};
use milp::{Cmp, LinExpr, Model, Sense, SolveError, SolveOptions, VarKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A model-space bound override `lo <= x_var <= hi`.
type Override = (usize, f64, f64);

/// The model a child LP used to solve: a deep copy of the frozen model
/// with the overrides intersected into its variable bounds.
fn child_model(model: &Model, overrides: &[Override]) -> Model {
    let mut m = model.clone();
    for &(v, lo, hi) in overrides {
        m.vars[v].lower = m.vars[v].lower.max(lo);
        m.vars[v].upper = m.vars[v].upper.min(hi);
    }
    m
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One LP both ways from the same parent basis; panics on any difference.
/// Returns the child's optimum when it has one.
fn check_one(
    model: &Model,
    sf: &StandardForm,
    overrides: &[Override],
    parent: &Basis,
    opts: &SolveOptions,
    ctx: &str,
) -> Option<LpPoint> {
    let cols: Vec<_> = overrides
        .iter()
        .map(|&(v, lo, hi)| sf.col_bound(v, lo, hi).expect("integer variables are never split"))
        .collect();
    let warm = FactoredBasis::new(sf, parent);
    let edit: Result<LpPoint, SolveError> = solve_bound_edit(sf, &cols, opts, warm.as_ref());

    let child = child_model(model, overrides);
    if child.vars.iter().any(|v| v.lower > v.upper) {
        // the rebuilt model does not even validate; the edit calls an
        // empty domain what it is
        assert_eq!(edit.unwrap_err(), SolveError::Infeasible, "{ctx}");
        return None;
    }
    match (solve_lp_relaxation_warm(&child, opts, Some(parent)), edit) {
        (Ok((sol, rebuilt)), Ok(edit)) => {
            assert_eq!(edit.objective.to_bits(), rebuilt.objective.to_bits(), "{ctx}: objective");
            assert_eq!(edit.basis, rebuilt.basis, "{ctx}: basis");
            assert_eq!(edit.iterations, rebuilt.iterations, "{ctx}: pivots");
            assert_eq!(edit.warm, rebuilt.warm, "{ctx}: warm flag");
            assert_eq!(bits(&edit.x), bits(&rebuilt.x), "{ctx}: point");
            assert_eq!(bits(&sf.extract(&edit.x)), bits(&sol.values), "{ctx}: values");
            Some(edit)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{ctx}");
            None
        }
        (a, b) => panic!("{ctx}: rebuilt {:?} vs edit {:?}", a.map(|s| s.0.objective), b.map(|p| p.objective)),
    }
}

/// A branching-style override on integer variable `var` around the LP
/// value `x`: `x_var <= t` or `x_var >= t + 1`, with `t` within one of
/// `floor(x)` so some sets cross bounds or cut the whole polytope off.
fn random_override(rng: &mut StdRng, var: usize, x: f64, down_only: bool) -> Override {
    let t = x.floor() + rng.gen_range(-1i32..=1) as f64;
    if down_only || rng.gen_bool(0.5) {
        (var, f64::NEG_INFINITY, t)
    } else {
        (var, t + 1.0, f64::INFINITY)
    }
}

/// Random one-to-four-deep override paths from the root of `model`, each
/// level checked both ways and warm-started from the level above, the way
/// a dive stacks them. `down_only(var)` restricts a variable to `x <= t`
/// overrides. Returns how many LPs had an optimum to compare.
fn check_model(
    model: &Model,
    rng: &mut StdRng,
    sets: usize,
    down_only: impl Fn(usize) -> bool,
    ctx: &str,
) -> usize {
    let opts = SolveOptions::default();
    let sf = StandardForm::from_model(model).expect("fuzz models lower");
    let Ok(root) = solve_standard_revised(&sf, &opts, None) else { return 0 };
    let int_vars = model.integer_vars();
    if int_vars.is_empty() {
        return 0;
    }
    let mut optima = 0;
    for set in 0..sets {
        let mut overrides: Vec<Override> = Vec::new();
        let mut basis = root.basis.clone();
        let mut values = sf.extract(&root.x);
        for depth in 0..rng.gen_range(1usize..=4) {
            let var = int_vars[rng.gen_range(0..int_vars.len())];
            overrides.push(random_override(rng, var, values[var], down_only(var)));
            let ctx = format!("{ctx} set {set} depth {depth} overrides {overrides:?}");
            match check_one(model, &sf, &overrides, &basis, &opts, &ctx) {
                Some(child) => {
                    optima += 1;
                    values = sf.extract(&child.x);
                    basis = child.basis;
                }
                None => break, // fathomed: a dive ends here too
            }
        }
    }
    optima
}

#[test]
fn bound_edit_equals_rebuilt_model_on_fuzz_models() {
    let cases = std::env::var("BOUND_EDIT_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200usize);
    let mut optima = 0;
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(20_150_815 ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let problem = fuzz::gen_problem(&mut rng, case);
        let built = insitu_core::build_aggregate(&problem).expect("fuzz problems build");
        optima += check_model(&built.model, &mut rng, 6, |_| false, &format!("case {case}"));
    }
    assert!(optima > 4 * cases, "only {optima} child optima compared over {cases} models");
}

/// `x` has `lower = -inf` and a finite upper bound, so it lowers to
/// `ColMap::Negated`: `x <= hi` becomes `col >= -hi`.
fn negated_model() -> (Model, usize) {
    let mut m = Model::new(Sense::Maximize);
    let x = m.int_var("x", f64::NEG_INFINITY, 7.5);
    let y = m.int_var("y", 0.0, 5.0);
    let z = m.int_var("z", 0.0, 3.0);
    m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 9.3);
    m.add_con(LinExpr::new().term(x, 2.0).term(y, -1.0).term(z, 1.0), Cmp::Ge, -20.0);
    m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0).term(z, 1.5), Cmp::Le, 11.5);
    m.set_objective(LinExpr::new().term(x, 1.0).term(y, 2.0).term(z, 1.0));
    (m, x.index())
}

#[test]
fn bound_edit_equals_rebuilt_model_on_a_negated_column() {
    let (m, x) = negated_model();
    let sf = StandardForm::from_model(&m).unwrap();
    assert!(matches!(sf.var_map[x], ColMap::Negated(_)));
    assert_eq!(sf.col_bound(x, f64::NEG_INFINITY, 4.0), Some((0, -4.0, f64::INFINITY)));
    // `x <= t` keeps `lower = -inf`, so the rebuilt model lowers `x` to
    // the same negated column and the comparison is bit for bit; y and z
    // are branched both ways
    let mut rng = StdRng::seed_from_u64(14);
    let optima = check_model(&m, &mut rng, 300, |v| v == x, "negated");
    assert!(optima > 300, "only {optima} child optima compared");

    // `x >= t` gives the rebuilt model a finite lower bound, which it
    // lowers to a *direct* column — a mirrored but equivalent LP; the edit
    // keeps the solve's one column map (`col <= -t`). Same optimum.
    let opts = SolveOptions::default();
    let root = solve_standard_revised(&sf, &opts, None).unwrap();
    let warm = FactoredBasis::new(&sf, &root.basis);
    for t in -12..=8 {
        let ovr = [(x, t as f64, f64::INFINITY)];
        let edit = solve_bound_edit(&sf, &[sf.col_bound(x, ovr[0].1, ovr[0].2).unwrap()], &opts, warm.as_ref());
        let child = child_model(&m, &ovr);
        if child.vars[x].lower > child.vars[x].upper {
            assert_eq!(edit.unwrap_err(), SolveError::Infeasible);
            continue;
        }
        assert!(matches!(StandardForm::from_model(&child).unwrap().var_map[x], ColMap::Direct(_)));
        match (solve_lp_relaxation_warm(&child, &opts, None), edit) {
            (Ok((sol, _)), Ok(p)) => assert!((sol.objective - p.objective).abs() < 1e-9, "t = {t}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "t = {t}"),
            (a, b) => panic!("t = {t}: {:?} vs {:?}", a.map(|s| s.0.objective), b.map(|p| p.objective)),
        }
    }
}

/// End to end: branch & bound must branch on the negated column (its LP
/// optimum is fractional there) and land on the enumerated optimum, at
/// any thread count.
#[test]
fn search_branches_on_a_negated_column() {
    let (m, x) = negated_model();
    assert!(m.vars.iter().all(|v| v.kind == VarKind::Integer));
    let mut best = f64::NEG_INFINITY;
    for xv in -15..=7 {
        for yv in 0..=5 {
            for zv in 0..=3 {
                let p = [xv as f64, yv as f64, zv as f64];
                if m.is_feasible(&p, 1e-9) {
                    best = best.max(m.objective_value(&p));
                }
            }
        }
    }
    let lp = milp::solve_lp_relaxation(&m, &SolveOptions::default()).unwrap();
    assert!((lp.values[x] - lp.values[x].round()).abs() > 0.1, "x = {}", lp.values[x]);
    for threads in [1, 2, 4] {
        let s = milp::solve(&m, &SolveOptions { threads, ..SolveOptions::default() }).unwrap();
        assert_eq!(s.objective, best, "{threads} threads");
        assert!(m.is_feasible(&s.values, 1e-6));
    }
}

//! Property tests: the shipped sparse revised simplex against the
//! dense-tableau oracle (`milp::solve_lp_relaxation_dense`, a reference
//! implementation that is on no solve path).
//!
//! Two layers are exercised. On raw random bounded LPs the two
//! implementations must agree on feasibility and (when feasible) on the
//! optimal objective. On random paper-shaped scheduling problems the full
//! branch & cut run's placed schedule plus pruning certificate must pass
//! the independent exact-rational `certify::certify` check
//! (`Verdict::Proved`).

use insitu_core::solve_aggregate;
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};
use milp::{solve_lp_relaxation, solve_lp_relaxation_dense, Cmp, LinExpr, Model, Sense,
           SolveError, SolveOptions};
use proptest::prelude::*;

fn opts() -> SolveOptions {
    SolveOptions {
        threads: 1,
        certificate: true,
        ..SolveOptions::default()
    }
}

/// A random LP with every variable bounded on both sides, so the model is
/// never unbounded (it may still be infeasible — both engines must agree).
/// Coefficients are small integers/halves so optima are exactly
/// representable and the engines can be compared tightly.
#[derive(Debug, Clone)]
struct RandomLp {
    sense: Sense,
    /// (lower, upper) per variable, with lower <= upper.
    bounds: Vec<(f64, f64)>,
    obj: Vec<f64>,
    /// (coefficients, cmp, rhs) per row.
    rows: Vec<(Vec<f64>, Cmp, f64)>,
}

impl RandomLp {
    fn build(&self) -> Model {
        let mut m = Model::new(self.sense);
        let vars: Vec<_> = self
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| m.num_var(&format!("x{i}"), lo, hi))
            .collect();
        let mut obj = LinExpr::new();
        for (v, &c) in vars.iter().zip(&self.obj) {
            obj = obj.term(*v, c);
        }
        m.set_objective(obj);
        for (coeffs, cmp, rhs) in &self.rows {
            let mut e = LinExpr::new();
            for (v, &c) in vars.iter().zip(coeffs) {
                e = e.term(*v, c);
            }
            m.add_con(e, *cmp, *rhs);
        }
        m
    }
}

/// Small half-integer coefficients: exactly representable, so both engines
/// should land on numerically identical optima.
fn coeff() -> impl Strategy<Value = f64> {
    (-6i32..=6).prop_map(|c| c as f64 * 0.5)
}

fn arb_lp() -> impl Strategy<Value = RandomLp> {
    (1usize..=6, 1usize..=5).prop_flat_map(|(nv, nr)| {
        let bound = (-10i32..=10, 0i32..=12)
            .prop_map(|(lo, span)| (lo as f64 * 0.5, (lo + span) as f64 * 0.5));
        let row = (
            prop::collection::vec(coeff(), nv),
            0u32..3,
            (-20i32..=20).prop_map(|r| r as f64 * 0.5),
        )
            .prop_map(|(coeffs, k, rhs)| {
                let cmp = match k {
                    0 => Cmp::Le,
                    1 => Cmp::Ge,
                    _ => Cmp::Eq,
                };
                (coeffs, cmp, rhs)
            });
        (
            any::<bool>(),
            prop::collection::vec(bound, nv),
            prop::collection::vec(coeff(), nv),
            prop::collection::vec(row, nr),
        )
            .prop_map(|(maximize, bounds, obj, rows)| RandomLp {
                sense: if maximize { Sense::Maximize } else { Sense::Minimize },
                bounds,
                obj,
                rows,
            })
    })
}

/// Random small scheduling problems (same family as the fuzz generator,
/// trimmed for proptest throughput): half-integer weights and costs keep
/// the optimal objective exactly representable.
fn arb_problem() -> impl Strategy<Value = ScheduleProblem> {
    (
        1usize..=3,                        // number of analyses
        6usize..=16,                       // steps
        prop::collection::vec(1u32..=6, 3), // compute time (halves)
        prop::collection::vec(0u32..=3, 3), // output time (halves)
        prop::collection::vec(2usize..=6, 3), // interval
        prop::collection::vec(1u32..=5, 3), // weight (halves)
        1u32..=8,                          // per-step time budget (quarters)
        any::<bool>(),                     // outputs on/off
    )
        .prop_map(|(n, steps, ct, ot, itv, w, budget, outputs)| {
            let analyses = (0..n)
                .map(|i| {
                    let mut a = AnalysisProfile::new(format!("a{i}"))
                        .with_compute(ct[i] as f64 * 0.5, 0.0)
                        .with_interval(itv[i])
                        .with_weight(w[i] as f64 * 0.5);
                    if outputs {
                        a = a.with_output(ot[i] as f64 * 0.5, 0.0, 1);
                    }
                    a
                })
                .collect();
            // The per-step threshold is a quarter-integer so the Eq. 4
            // budget `cth * Steps` is exactly representable — the exact
            // rational certifier then accepts solutions that sit exactly
            // on the budget boundary (from_total_threshold would divide by
            // `steps` and lose an ulp).
            ScheduleProblem::new(
                analyses,
                ResourceConfig::new(steps, budget as f64 * 0.25, 1e12, 1e9),
            )
            .unwrap()
        })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random bounded LPs both engines agree on feasibility and, when
    /// feasible, on the optimal objective value.
    #[test]
    fn engines_agree_on_random_bounded_lps(lp in arb_lp()) {
        let model = lp.build();
        let revised = solve_lp_relaxation(&model);
        let dense = solve_lp_relaxation_dense(&model);
        match (revised, dense) {
            (Ok(r), Ok(d)) => {
                prop_assert!(close(r.objective, d.objective),
                    "revised {} != dense {}", r.objective, d.objective);
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (r, d) => {
                let show = |x: &Result<milp::Solution, SolveError>| match x {
                    Ok(s) => format!("Ok({})", s.objective),
                    Err(e) => format!("Err({e})"),
                };
                prop_assert!(false, "engines disagree: revised {} vs dense {}",
                    show(&r), show(&d));
            }
        }
    }

    /// Full branch & cut on paper-shaped scheduling problems: the placed
    /// schedule + certificate pass the exact-rational certifier.
    #[test]
    fn solves_certify_on_scheduling_problems(problem in arb_problem()) {
        let agg = solve_aggregate(&problem, &opts(), None).unwrap();
        let cert = certify::certify(&problem, &agg.schedule, agg.stats.certificate.as_ref());
        prop_assert_eq!(cert.verdict, certify::Verdict::Proved,
            "failed certification: {:?}", cert.problems);
    }
}

//! Property test: the exact time-indexed MILP (Eqs. 1–9) and the
//! aggregate count-based reformulation agree on the optimal objective, and
//! every schedule either path produces passes the independent validator.

use insitu_core::validate_schedule;
use insitu_core::{solve_aggregate, solve_exact, Solved};
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};
use milp::SolveOptions;
use proptest::prelude::*;

/// Random small scheduling problems with integer-friendly costs so the
/// integral-objective gap trick stays exact.
fn arb_problem() -> impl Strategy<Value = ScheduleProblem> {
    (
        1usize..3,                                   // number of analyses
        8usize..20,                                  // steps
        prop::collection::vec(1u32..6, 3),           // ct (integers)
        prop::collection::vec(0u32..3, 3),           // ot
        prop::collection::vec(2usize..6, 3),         // itv
        prop::collection::vec(0u32..3, 3),           // weight-1 (so w >= 1)
        4u32..40,                                    // budget
        any::<bool>(),                               // outputs on/off
    )
        .prop_map(|(n, steps, ct, ot, itv, wm1, budget, outputs)| {
            let analyses = (0..n)
                .map(|i| {
                    let mut a = AnalysisProfile::new(format!("a{i}"))
                        .with_compute(ct[i] as f64, 0.0)
                        .with_interval(itv[i])
                        .with_weight(1.0 + wm1[i] as f64);
                    if outputs {
                        a = a.with_output(ot[i] as f64, 0.0, 1);
                    }
                    a
                })
                .collect();
            ScheduleProblem::new(
                analyses,
                ResourceConfig::from_total_threshold(steps, budget as f64, 1e12, 1e9),
            )
            .unwrap()
        })
}

fn opts() -> SolveOptions {
    // costs and weights are integral => objective integral => gap < 1 exact
    SolveOptions {
        abs_gap: 0.999,
        ..SolveOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_equals_aggregate(problem in arb_problem()) {
        let Solved { schedule: exact_sched, objective: exact_obj, .. } = solve_exact(&problem, &opts(), None).unwrap();
        let Solved { schedule: agg_sched, objective: agg_obj, .. } = solve_aggregate(&problem, &opts(), None).unwrap();
        prop_assert!((exact_obj - agg_obj).abs() < 1e-6,
            "exact {exact_obj} vs aggregate {agg_obj}");
        // both schedules certified by the independent validator
        let re = validate_schedule(&problem, &exact_sched);
        prop_assert!(re.is_feasible(), "exact: {:?}", re.violations);
        let ra = validate_schedule(&problem, &agg_sched);
        prop_assert!(ra.is_feasible(), "aggregate: {:?}", ra.violations);
        // validator's objective agrees with the solver's
        prop_assert!((re.objective - exact_obj).abs() < 1e-6);
        prop_assert!((ra.objective - agg_obj).abs() < 1e-6);
    }

    #[test]
    fn aggregate_never_exceeds_budget(problem in arb_problem()) {
        let sched = solve_aggregate(&problem, &opts(), None).unwrap().schedule;
        let report = validate_schedule(&problem, &sched);
        prop_assert!(report.total_time <= problem.resources.total_threshold() + 1e-9);
    }

    #[test]
    fn greedy_bounded_by_optimum(problem in arb_problem()) {
        let greedy = insitu_core::baseline::greedy(&problem);
        let greport = validate_schedule(&problem, &greedy);
        prop_assert!(greport.is_feasible(), "greedy must be feasible: {:?}", greport.violations);
        let opt = solve_aggregate(&problem, &opts(), None).unwrap().objective;
        prop_assert!(greport.objective <= opt + 1e-6,
            "greedy {} > optimal {opt}", greport.objective);
    }
}

/// Eq. 6 frees compute buffers only at output steps, so with
/// `output_every = 2` an analysis carries `2·cm` into its output step. The
/// big-M of the `mEnd` linkage has to cover that (`cm·k_max`, not `cm`):
/// with `cm` counted once the rows `mEnd ≥ mStart − M·o` / `mEnd ≤ fm·run +
/// M·(1 − o)` forbade any output after two accumulated analysis steps, and
/// the exact model returned 5 where this validated schedule scores 7.
#[test]
fn exact_model_admits_outputs_after_accumulated_compute_buffers() {
    let p = ScheduleProblem::new(
        vec![AnalysisProfile::new("a")
            .with_compute(1.0, 1.0)
            .with_output(10.0, 0.0, 2)
            .with_interval(2)],
        ResourceConfig::from_total_threshold(12, 40.0, 1000.0, 1e9),
    )
    .unwrap();
    let Solved {
        schedule: agg_sched,
        objective: agg_obj,
        ..
    } = solve_aggregate(&p, &opts(), None).unwrap();
    assert_eq!(agg_obj, 7.0);
    assert_eq!(agg_sched.per_analysis[0].analysis_steps(), vec![2, 4, 6, 8, 10, 12]);
    assert_eq!(agg_sched.per_analysis[0].output_steps(), vec![4, 8, 12]);
    assert!(validate_schedule(&p, &agg_sched).is_feasible());

    let Solved {
        schedule: exact_sched,
        objective: exact_obj,
        ..
    } = solve_exact(&p, &opts(), None).unwrap();
    assert_eq!(exact_obj, 7.0);
    let report = validate_schedule(&p, &exact_sched);
    assert!(report.is_feasible(), "{:?}", report.violations);
    assert_eq!(report.objective, 7.0);
}

/// The two formulations are *not* equivalent under memory pressure, and
/// this records the direction that holds. The aggregate memory row sums
/// every analysis's own peak as if the peaks coincided; Eq. 8 bounds the
/// per-step sum, so two analyses that each peak at 6 fit under `mth = 10`
/// when staggered (exact: 7) and do not when summed (aggregate: 4). The
/// aggregate is a restriction — `aggregate ≤ exact` — and closing the gap
/// is ROADMAP open item 1, not this test's business.
#[test]
fn aggregate_is_a_restriction_of_the_exact_model_under_memory_pressure() {
    let a = |name: &str| {
        AnalysisProfile::new(name)
            .with_compute(1.0, 1.0)
            .with_output(0.0, 5.0, 1)
            .with_interval(4)
    };
    let p = ScheduleProblem::new(
        vec![a("a0"), a("a1")],
        ResourceConfig::from_total_threshold(12, 100.0, 10.0, 1e9),
    )
    .unwrap();
    let Solved {
        schedule: exact_sched,
        objective: exact_obj,
        ..
    } = solve_exact(&p, &opts(), None).unwrap();
    let Solved {
        schedule: agg_sched,
        objective: agg_obj,
        ..
    } = solve_aggregate(&p, &opts(), None).unwrap();
    assert!(validate_schedule(&p, &exact_sched).is_feasible());
    assert!(validate_schedule(&p, &agg_sched).is_feasible());
    assert!(agg_obj <= exact_obj, "aggregate {agg_obj} > exact {exact_obj}");
}

//! Baseline schedulers the paper argues against / compares with.
//!
//! §1 and §5.3 note that today "the frequency of analysis is empirically
//! determined by the user". [`fixed_frequency`] reproduces that status quo;
//! [`greedy`] is a natural heuristic upgrade (most-valuable-first packing)
//! that benches compare against the exact optimum.

use insitu_types::{Schedule, ScheduleProblem};

use crate::placement::{exact_peak_memory, place_schedule};
use crate::validate::validate_schedule;

/// The user-chosen status quo: run *every* analysis once per `every` steps
/// (and output every `output_every` analyses), regardless of budget.
/// May well violate the thresholds — that's the point.
pub fn fixed_frequency(problem: &ScheduleProblem, every: usize, output_every: usize) -> Schedule {
    let steps = problem.resources.steps;
    let every = every.max(1);
    let k = steps / every;
    let counts = vec![k; problem.len()];
    let output_counts: Vec<usize> = problem
        .analyses
        .iter()
        .map(|_| {
            if output_every == 0 {
                0
            } else {
                k.div_ceil(output_every)
            }
        })
        .collect();
    place_schedule(problem, &counts, &output_counts)
}

/// Greedy heuristic: sort analyses by weight per unit time, then give each
/// in turn as many analysis steps as the remaining budget and memory allow.
/// Feasible by construction but generally sub-optimal (no look-ahead over
/// the activation bonus or cross-analysis trade-offs).
pub fn greedy(problem: &ScheduleProblem) -> Schedule {
    let steps = problem.resources.steps;
    let mut order: Vec<usize> = (0..problem.len()).collect();
    let unit_cost = |i: usize| {
        let a = &problem.analyses[i];
        a.compute_time
            + if a.output_every > 0 {
                a.output_time / a.output_every as f64
            } else {
                0.0
            }
    };
    order.sort_by(|&x, &y| {
        let rx = problem.analyses[x].weight / unit_cost(x).max(1e-12);
        let ry = problem.analyses[y].weight / unit_cost(y).max(1e-12);
        ry.partial_cmp(&rx).unwrap()
    });
    let mut budget = problem.resources.total_threshold();
    let mut mem_budget = problem.resources.mem_threshold;
    let mut counts = vec![0usize; problem.len()];
    let mut output_counts = vec![0usize; problem.len()];
    for &i in &order {
        let a = &problem.analyses[i];
        let kmax = a.max_analysis_steps(steps);
        if kmax == 0 {
            continue;
        }
        let floor_cost = a.fixed_time + a.step_time * steps as f64;
        if floor_cost > budget {
            continue;
        }
        // largest k whose time and memory fit
        let mut best = 0usize;
        let mut best_q = 0usize;
        for k in (1..=kmax).rev() {
            let q = if a.output_every > 0 {
                k.div_ceil(a.output_every)
            } else {
                0
            };
            let cost = floor_cost + a.compute_time * k as f64 + a.output_time * q as f64;
            if cost <= budget && exact_peak_memory(problem, i, k, q) <= mem_budget {
                best = k;
                best_q = q;
                break;
            }
        }
        if best > 0 {
            counts[i] = best;
            output_counts[i] = best_q;
            budget -= floor_cost
                + a.compute_time * best as f64
                + a.output_time * best_q as f64;
            mem_budget -= exact_peak_memory(problem, i, best, best_q);
        }
    }
    place_schedule(problem, &counts, &output_counts)
}

/// Convenience: objective achieved by a baseline, or `None` if infeasible.
pub fn feasible_objective(problem: &ScheduleProblem, schedule: &Schedule) -> Option<f64> {
    let report = validate_schedule(problem, schedule);
    report.is_feasible().then_some(report.objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, ResourceConfig};
    use milp::SolveOptions;

    fn problem(budget: f64) -> ScheduleProblem {
        ScheduleProblem::new(
            vec![
                AnalysisProfile::new("cheap")
                    .with_compute(0.5, 0.0)
                    .with_output(0.1, 0.0, 1)
                    .with_interval(100),
                AnalysisProfile::new("dear")
                    .with_compute(6.0, 0.0)
                    .with_output(2.0, 0.0, 1)
                    .with_interval(100)
                    .with_weight(2.0),
            ],
            ResourceConfig::from_total_threshold(1000, budget, 1e12, 1e9),
        )
        .unwrap()
    }

    #[test]
    fn fixed_frequency_ignores_budget() {
        let p = problem(1.0); // absurdly tight budget
        let s = fixed_frequency(&p, 100, 1);
        assert_eq!(s.per_analysis[0].count(), 10);
        assert_eq!(s.per_analysis[1].count(), 10);
        assert!(feasible_objective(&p, &s).is_none(), "must blow the budget");
    }

    #[test]
    fn greedy_is_always_feasible() {
        for budget in [1.0, 10.0, 50.0, 1000.0] {
            let p = problem(budget);
            let s = greedy(&p);
            assert!(
                feasible_objective(&p, &s).is_some(),
                "greedy infeasible at budget {budget}"
            );
        }
    }

    #[test]
    fn greedy_never_beats_exact_optimum() {
        for budget in [10.0, 30.0, 90.0] {
            let p = problem(budget);
            let g = greedy(&p);
            let opt = crate::aggregate::solve_aggregate(&p, &SolveOptions::default(), None)
                .unwrap()
                .objective;
            let gobj = feasible_objective(&p, &g).unwrap();
            assert!(gobj <= opt + 1e-6, "greedy {gobj} > optimal {opt} @ {budget}");
        }
    }

    #[test]
    fn greedy_prefers_high_value_per_cost() {
        // budget fits exactly one "dear" (8 s/unit, w=2 -> 0.25/s) or many
        // "cheap" (0.6 s/unit, w=1 -> 1.67/s): cheap should be packed first
        let p = problem(6.0);
        let s = greedy(&p);
        assert_eq!(s.per_analysis[0].count(), 10);
        assert_eq!(s.per_analysis[1].count(), 0);
    }

    #[test]
    fn fixed_frequency_output_cadence() {
        let p = problem(1e9);
        let s = fixed_frequency(&p, 200, 2);
        assert_eq!(s.per_analysis[0].count(), 5);
        assert_eq!(s.per_analysis[0].output_count(), 3); // ceil(5/2)
    }
}

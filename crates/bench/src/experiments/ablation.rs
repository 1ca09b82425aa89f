//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **log-log-log interpolation** vs raw linear interpolation for
//!    paper-scale extrapolation,
//! 2. **Optimal MILP schedule** vs the greedy heuristic vs the paper's
//!    status-quo fixed-frequency baseline, across budgets.

use crate::table::TextTable;
use insitu_core::baseline::{feasible_objective, fixed_frequency, greedy};
use insitu_core::solve_aggregate;
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};
use milp::SolveOptions;
use perfmodel::BilinearGrid;

/// Outcome of the two ablations.
#[derive(Debug)]
pub struct Outcome {
    /// `(relative error log-space, relative error raw-linear)` at a 4x
    /// extrapolation of a power-law kernel.
    pub interp_err: (f64, f64),
    /// Rows of `(budget, optimal, greedy, fixed-frequency-objective)`;
    /// fixed frequency is `None` when it blows the budget.
    pub baseline_rows: Vec<(f64, f64, f64, Option<f64>)>,
    /// Printable report.
    pub report: String,
}

fn scheduling_problem(budget: f64) -> ScheduleProblem {
    ScheduleProblem::new(
        vec![
            AnalysisProfile::new("cheap")
                .with_compute(0.5, 0.0)
                .with_output(0.1, 0.0, 1)
                .with_interval(50),
            AnalysisProfile::new("mid")
                .with_compute(2.0, 0.0)
                .with_output(0.5, 0.0, 1)
                .with_interval(100)
                .with_weight(2.0),
            AnalysisProfile::new("dear")
                .with_compute(9.0, 0.0)
                .with_output(3.0, 0.0, 1)
                .with_interval(100)
                .with_weight(3.0),
        ],
        ResourceConfig::from_total_threshold(1000, budget, 1e12, 1e9),
    )
    .unwrap()
}

/// Runs both ablations.
pub fn run() -> Outcome {
    // --- 1. interpolation space ---
    let f = |n: f64, p: f64| 2e-6 * n / p;
    let xs = [1e6, 4e6, 16e6];
    let ys = [512.0, 2048.0, 8192.0];
    let z: Vec<f64> = ys
        .iter()
        .flat_map(|&y| xs.iter().map(move |&x| f(x, y)))
        .collect();
    let raw = BilinearGrid::new(xs.to_vec(), ys.to_vec(), z.clone());
    let log = BilinearGrid::with_scales(xs.to_vec(), ys.to_vec(), z, true, true, true);
    // 4x beyond the grid in both axes: the paper-scale extrapolation regime
    let (nq, pq) = (64e6, 32768.0);
    let truth = f(nq, pq);
    let interp_err = (
        (log.query(nq, pq) - truth).abs() / truth,
        (raw.query(nq, pq) - truth).abs() / truth,
    );

    // --- 2. optimal vs heuristics ---
    let opts = SolveOptions {
        abs_gap: 0.999,
        ..SolveOptions::default()
    };
    let mut baseline_rows = Vec::new();
    for budget in [10.0, 30.0, 60.0, 120.0, 240.0] {
        let p = scheduling_problem(budget);
        let optimal = solve_aggregate(&p, &opts, None)
            .expect("solvable")
            .objective;
        let g = greedy(&p);
        let gobj = feasible_objective(&p, &g).expect("greedy feasible");
        let ff = fixed_frequency(&p, 100, 1);
        let fobj = feasible_objective(&p, &ff);
        baseline_rows.push((budget, optimal, gobj, fobj));
    }

    // --- report ---
    let mut t = TextTable::new(&["budget (s)", "optimal", "greedy", "fixed every-100"]);
    for &(b, o, g, f) in &baseline_rows {
        t.row(&[
            format!("{b}"),
            format!("{o}"),
            format!("{g}"),
            f.map_or("infeasible".into(), |v| format!("{v}")),
        ]);
    }
    let report = format!(
        "Power-law extrapolation (4x beyond grid): log-space err {:.2e} vs raw linear {:.1}%\n\
         Scheduling objective vs baselines:\n{}",
        interp_err.0,
        interp_err.1 * 100.0,
        t.render()
    );
    Outcome {
        interp_err,
        baseline_rows,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_space_extrapolation_wins() {
        let o = run();
        assert!(o.interp_err.0 < 1e-9, "power laws exact in log space");
        assert!(o.interp_err.1 > 0.5, "raw linear is badly wrong at 4x");
    }

    #[test]
    fn optimal_dominates_heuristics() {
        let o = run();
        for &(budget, opt, greedy, fixed) in &o.baseline_rows {
            assert!(greedy <= opt + 1e-6, "greedy beat optimal at {budget}");
            if let Some(f) = fixed {
                assert!(f <= opt + 1e-6, "fixed beat optimal at {budget}");
            }
        }
        // the fixed-frequency status quo must be infeasible somewhere —
        // that is the paper's core motivation
        assert!(
            o.baseline_rows.iter().any(|&(_, _, _, f)| f.is_none()),
            "fixed frequency should blow at least one budget"
        );
        // and greedy must be strictly sub-optimal somewhere
        assert!(
            o.baseline_rows.iter().any(|&(_, o, g, _)| g < o - 1e-6),
            "greedy should lose somewhere: {:?}",
            o.baseline_rows
        );
    }
}

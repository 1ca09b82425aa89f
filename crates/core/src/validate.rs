//! Independent schedule certification.
//!
//! Re-checks a concrete [`Schedule`] against the paper's constraints by
//! delegating to the `certify` crate, which replays the recursions of
//! Eqs. 2–9 step by step in **exact rational arithmetic** — no shared
//! code with the MILP formulations, so a bug in either is caught by the
//! other. Every schedule the advisor returns has passed this check.
//!
//! One deliberate difference from raw [`certify::replay()`]: schedules come
//! out of a floating-point MILP solve, so a report here drops the
//! violations the certifier's own verdict rule, [`certify::forgiven`],
//! excuses — the same rule, applied to the same exact excess, that decides
//! every `PROVED` / `FEASIBLE-ONLY` stamp.

use insitu_types::{Schedule, ScheduleProblem, Seconds};

/// Outcome of certifying one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Total in-situ analysis time (LHS of Eq. 4).
    pub total_time: Seconds,
    /// The budget (RHS of Eq. 4, `cth * Steps`).
    pub time_budget: Seconds,
    /// Peak over steps of `Σ_i mStart_{i,j}` (LHS of Eq. 8).
    pub peak_memory: f64,
    /// Objective value (Eq. 1).
    pub objective: f64,
    /// Human-readable violations; empty = certified feasible.
    pub violations: Vec<String>,
}

impl ValidationReport {
    /// True when no constraint is violated.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fraction of the time budget actually used (the paper's "% within
    /// threshold" column).
    pub fn budget_utilization(&self) -> f64 {
        if self.time_budget > 0.0 {
            self.total_time / self.time_budget
        } else {
            0.0
        }
    }
}

/// Certifies `schedule` against `problem` (Eqs. 2–9 plus structure) via
/// the exact replay in the `certify` crate.
///
/// `violations` is exactly [`certify::Certification::problems`] of
/// `certify::certify(problem, schedule, None)`: empty ⇔ the verdict is not
/// `INVALID`. The reported `total_time` / `peak_memory` are the
/// exactly-replayed values rounded to the nearest `f64`.
pub fn validate_schedule(problem: &ScheduleProblem, schedule: &Schedule) -> ValidationReport {
    ValidationReport::of(problem, certify::certify(problem, schedule, None))
}

impl ValidationReport {
    /// The `f64` view of a certification of a schedule for `problem`.
    pub(crate) fn of(problem: &ScheduleProblem, c: certify::Certification) -> Self {
        // no replay (inexact input): nothing was measured
        let (total_time, peak_memory, objective) = c.replay.as_ref().map_or((0.0, 0.0, 0.0), |r| {
            (r.total_time.to_f64(), r.peak_memory.to_f64(), r.objective.to_f64())
        });
        ValidationReport {
            total_time,
            time_budget: problem.resources.total_threshold(),
            peak_memory,
            objective,
            violations: c.problems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, AnalysisSchedule, ResourceConfig};

    fn problem() -> ScheduleProblem {
        ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_fixed(1.0, 100.0)
                .with_per_step(0.01, 1.0)
                .with_compute(2.0, 10.0)
                .with_output(0.5, 5.0, 1)
                .with_interval(10)],
            ResourceConfig::from_total_threshold(100, 20.0, 1000.0, 1e9),
        )
        .unwrap()
    }

    #[test]
    fn feasible_schedule_certifies() {
        let p = problem();
        let mut s = Schedule::empty(1);
        s.per_analysis[0] = AnalysisSchedule::new(vec![20, 40, 60, 80, 100], vec![100]);
        let r = validate_schedule(&p, &s);
        assert!(r.is_feasible(), "{:?}", r.violations);
        // time: ft 1 + 100*0.01 + 5*2 + 1*0.5 = 12.5
        assert!((r.total_time - 12.5).abs() < 1e-9);
        assert!(r.budget_utilization() > 0.6 && r.budget_utilization() < 0.63);
        assert_eq!(r.objective, 6.0); // 1 + 5
    }

    #[test]
    fn detects_time_violation() {
        let p = problem();
        let mut s = Schedule::empty(1);
        // ft 1 + it 1 + 9 analyses * 2 s + 1 output * 0.5 = 20.5 > 20 budget
        s.per_analysis[0] = AnalysisSchedule::new(
            vec![10, 20, 30, 40, 50, 60, 70, 80, 90],
            vec![90],
        );
        let r = validate_schedule(&p, &s);
        assert!(!r.is_feasible());
        assert!(r.violations.iter().any(|v| v.contains("exceeds budget")));
    }

    #[test]
    fn detects_interval_violation() {
        let p = problem();
        let mut s = Schedule::empty(1);
        s.per_analysis[0] = AnalysisSchedule::new(vec![10, 15], vec![]);
        let r = validate_schedule(&p, &s);
        assert!(r
            .violations
            .iter()
            .any(|v| v.contains("violate interval")));
    }

    #[test]
    fn detects_early_first_analysis() {
        let p = problem();
        let mut s = Schedule::empty(1);
        s.per_analysis[0] = AnalysisSchedule::new(vec![5], vec![]);
        let r = validate_schedule(&p, &s);
        assert!(!r.is_feasible(), "first analysis before itv must fail");
    }

    #[test]
    fn detects_memory_violation() {
        // accumulate 1/step with no outputs: by step 100 memory > 1000? no
        // (100*1 + 100 fm + 10 cm = 210). Shrink mth to trigger.
        let mut p = problem();
        p.resources.mem_threshold = 150.0;
        let mut s = Schedule::empty(1);
        s.per_analysis[0] = AnalysisSchedule::new(vec![50, 100], vec![]);
        let r = validate_schedule(&p, &s);
        assert!(r.violations.iter().any(|v| v.contains("memory")));
    }

    #[test]
    fn outputs_reset_memory() {
        let mut p = problem();
        p.resources.mem_threshold = 170.0;
        let mut s = Schedule::empty(1);
        // outputs at every analysis keep peak low: fm100 + im*50 + cm10 + om5 = 165
        s.per_analysis[0] = AnalysisSchedule::new(vec![50, 100], vec![50, 100]);
        let r = validate_schedule(&p, &s);
        assert!(r.is_feasible(), "{:?}", r.violations);
        assert!((r.peak_memory - 165.0).abs() < 1e-9);
    }

    /// Regression for the Eqs. 5–8 reset semantics: an output step in the
    /// *middle* of the run must free the accumulated per-step memory so
    /// that a later accumulation phase fits under the threshold. A buggy
    /// validator that never resets (or resets to zero instead of `fm`)
    /// fails both halves of this test.
    #[test]
    fn mid_run_output_frees_memory_for_later_accumulation() {
        let mut p = problem();
        // footprint just before step 60's output: fm 100 + 60*im + 2*cm 10
        // + om 5 = 185; after the reset the second half peaks at
        // fm 100 + 40*im + cm 10 = 150. Without the mid-run reset step 100
        // would hold fm 100 + 100*im + 3*cm = 230.
        p.resources.mem_threshold = 190.0;
        let mut s = Schedule::empty(1);
        s.per_analysis[0] = AnalysisSchedule::new(vec![30, 60, 100], vec![60]);
        let r = validate_schedule(&p, &s);
        assert!(r.is_feasible(), "{:?}", r.violations);
        assert!((r.peak_memory - 185.0).abs() < 1e-9, "peak {}", r.peak_memory);

        // same schedule *without* the mid-run output must blow the budget
        let mut s2 = Schedule::empty(1);
        s2.per_analysis[0] = AnalysisSchedule::new(vec![30, 60, 100], vec![]);
        let r2 = validate_schedule(&p, &s2);
        assert!(!r2.is_feasible(), "reset-at-output was not load-bearing");
        assert!(r2.violations.iter().any(|v| v.contains("memory")));
        // and the reset target is fm, not zero: with outputs at 30 and 60
        // the peaks are 145 / 145 / 150 (the tail fm 100 + 40*im + cm 10);
        // a reset-to-zero bug would see only 50 at step 100 and wrongly
        // accept a threshold of 149
        p.resources.mem_threshold = 149.0;
        let mut s3 = Schedule::empty(1);
        s3.per_analysis[0] = AnalysisSchedule::new(vec![30, 60, 100], vec![30, 60]);
        let r3 = validate_schedule(&p, &s3);
        assert!(!r3.is_feasible(), "reset must restore fm, not zero");
        assert!((r3.peak_memory - 150.0).abs() < 1e-9, "peak {}", r3.peak_memory);
    }

    #[test]
    fn empty_schedule_is_feasible_and_free() {
        let p = problem();
        let s = Schedule::empty(1);
        let r = validate_schedule(&p, &s);
        assert!(r.is_feasible());
        assert_eq!(r.total_time, 0.0);
        assert_eq!(r.peak_memory, 0.0);
    }

    #[test]
    fn wrong_arity_reported() {
        let p = problem();
        let s = Schedule::empty(3);
        let r = validate_schedule(&p, &s);
        assert!(!r.is_feasible());
    }
}

//! Closed-loop adaptive rescheduling: the policy layer behind
//! [`crate::runtime::run_coupled_adaptive`].
//!
//! A statically solved schedule is only as good as its Table-1
//! calibration. When the measured run drifts from the model — an analysis
//! spins 20× longer than profiled, say — the static schedule can blow
//! straight through the budget it was proven to respect. This module holds
//! the pieces the adaptive coupler composes into a
//! model-predictive-control loop:
//!
//! * [`AdaptiveConfig`] — when to check, what trips a reschedule, and how
//!   the mid-run re-solve is configured;
//! * [`remaining_problem`] — rebuilds the [`ScheduleProblem`] for the
//!   steps still ahead from the *measured* cost prefix and the remaining
//!   budget;
//! * [`schedule_tail`] / [`splice_schedule`] — re-index the incumbent
//!   schedule into suffix steps (the warm-start hint) and splice an
//!   adopted suffix back into the composite executed schedule;
//! * [`RescheduleRecord`] — one record per trigger, exported as
//!   `reschedule/v1` JSON (schema documented in `docs/ADAPTIVE.md` and
//!   `EXPERIMENTS.md`).
//!
//! The control-loop contract — trigger semantics, determinism guarantees,
//! carry-aware re-certification — is documented end to end in
//! `docs/ADAPTIVE.md`.

use insitu_types::json::Value;
use insitu_types::{ResourceConfig, Schedule, ScheduleProblem};
use milp::SolveOptions;
use std::collections::BTreeMap;

use crate::runtime::AnalysisTimes;

/// Configuration of the adaptive control loop.
///
/// The defaults check after every step, trigger only on measured
/// pro-rated-budget violations (drift triggering is off —
/// `drift_threshold` is infinite), wait 4 steps between reschedules and
/// allow at most 3 of them.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Evaluate the triggers every this many steps (min 1).
    pub check_every: usize,
    /// Trip when `measured_cum - predicted_cum` exceeds this many seconds
    /// (absolute, positive drift only — running *faster* than the model
    /// never forces a reschedule). `f64::INFINITY` disables the drift
    /// trigger.
    pub drift_threshold: f64,
    /// Trip when the measured analysis time since the last adopted
    /// schedule exceeds that schedule's pro-rated budget (see
    /// `docs/ADAPTIVE.md` for the reset-baseline semantics).
    pub trigger_on_budget: bool,
    /// Minimum number of steps between consecutive reschedules, so one
    /// slow step cannot thrash the solver.
    pub cooldown_steps: usize,
    /// Hard cap on reschedules per run.
    pub max_reschedules: usize,
    /// Options for the mid-run MILP re-solves, which solve the aggregate
    /// model.
    pub solver: SolveOptions,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            check_every: 1,
            drift_threshold: f64::INFINITY,
            trigger_on_budget: true,
            cooldown_steps: 4,
            max_reschedules: 3,
            solver: SolveOptions::default(),
        }
    }
}

/// What tripped a reschedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerReason {
    /// Cumulative measured-minus-predicted drift crossed
    /// [`AdaptiveConfig::drift_threshold`].
    Drift,
    /// Measured analysis time crossed the incumbent schedule's pro-rated
    /// budget.
    Budget,
}

impl std::fmt::Display for TriggerReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TriggerReason::Drift => "drift",
            TriggerReason::Budget => "budget",
        })
    }
}

/// One reschedule attempt, adopted or not.
#[derive(Debug, Clone, PartialEq)]
pub struct RescheduleRecord {
    /// Simulation step (1-based) after which the trigger fired.
    pub step: usize,
    /// What tripped it.
    pub reason: TriggerReason,
    /// `measured_cum - predicted_cum` at the trigger step.
    pub drift: f64,
    /// Measured cumulative analysis time at the trigger step.
    pub measured_cum: f64,
    /// Predicted cumulative analysis time at the trigger step.
    pub predicted_cum: f64,
    /// Steps still ahead when the re-solve ran.
    pub remaining_steps: usize,
    /// Wall-clock time of the re-solve, milliseconds.
    pub solve_ms: f64,
    /// Objective of the incumbent schedule's not-yet-run tail, under the
    /// *remaining* (measured-cost) problem.
    pub old_objective: f64,
    /// Objective of the re-solved suffix schedule.
    pub new_objective: f64,
    /// Whether the new schedule was swapped in. `false` means the
    /// re-solve failed or carry-aware certification rejected it, and the
    /// run kept the incumbent.
    pub adopted: bool,
    /// Certification verdict of the adopted schedule (`"PROVED"` /
    /// `"FEASIBLE-ONLY"`), or the failure reason when not adopted.
    pub verdict: String,
}

impl RescheduleRecord {
    /// JSON export (`reschedule/v1`), one object per reschedule attempt.
    pub fn to_json(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("schema".into(), Value::String("reschedule/v1".into()));
        o.insert("step".into(), Value::Number(self.step as f64));
        o.insert("reason".into(), Value::String(self.reason.to_string()));
        o.insert("drift".into(), Value::Number(self.drift));
        o.insert("measured_cum".into(), Value::Number(self.measured_cum));
        o.insert("predicted_cum".into(), Value::Number(self.predicted_cum));
        o.insert(
            "remaining_steps".into(),
            Value::Number(self.remaining_steps as f64),
        );
        o.insert("solve_ms".into(), Value::Number(self.solve_ms));
        o.insert("old_objective".into(), Value::Number(self.old_objective));
        o.insert("new_objective".into(), Value::Number(self.new_objective));
        o.insert("adopted".into(), Value::Bool(self.adopted));
        o.insert("verdict".into(), Value::String(self.verdict.clone()));
        Value::Object(o)
    }
}

/// Rebuilds the scheduling problem for the steps after `step`, replacing
/// the modeled per-call costs with the run's *measured* averages.
///
/// Per analysis `i`:
/// * `it` becomes `times[i].per_step / active_steps[i]` when the analysis
///   has been active for at least one step;
/// * `ct` becomes `times[i].analyze / times[i].analyze_count` when it has
///   analyzed at least once (likewise `ot` from the output bracket);
/// * `ft` becomes `0` when `set_up[i]` — setup is a sunk cost the suffix
///   must not pay again;
/// * memory parameters are kept from the model (the runtime does not
///   measure allocation).
///
/// The resources keep the memory threshold and bandwidth but re-spread
/// the *remaining* budget `max(0, cth·Steps − measured_cum)` evenly over
/// the `Steps − step` remaining steps. Costs that were never exercised
/// keep their modeled values.
///
/// Errors when `step >= Steps` or the rebuilt problem fails validation
/// (e.g. a non-finite threshold).
pub fn remaining_problem(
    problem: &ScheduleProblem,
    times: &[AnalysisTimes],
    active_steps: &[usize],
    set_up: &[bool],
    step: usize,
    measured_cum: f64,
) -> Result<ScheduleProblem, String> {
    let steps = problem.resources.steps;
    if step >= steps {
        return Err(format!("no steps remain after step {step} of {steps}"));
    }
    let remaining = steps - step;
    let analyses = problem
        .analyses
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let mut p = a.clone();
            if active_steps[i] > 0 {
                p.step_time = times[i].per_step / active_steps[i] as f64;
            }
            if times[i].analyze_count > 0 {
                p.compute_time = times[i].analyze / times[i].analyze_count as f64;
            }
            if times[i].output_count > 0 {
                p.output_time = times[i].output / times[i].output_count as f64;
            }
            if set_up[i] {
                p.fixed_time = 0.0;
            }
            p
        })
        .collect();
    let budget_left = (problem.resources.total_threshold() - measured_cum).max(0.0);
    let resources = ResourceConfig::new(
        remaining,
        budget_left / remaining as f64,
        problem.resources.mem_threshold,
        problem.resources.io_bandwidth,
    );
    ScheduleProblem::new(analyses, resources).map_err(|e| e.to_string())
}

/// The not-yet-run tail of `schedule` after `step`, re-indexed into
/// suffix steps: a run at absolute step `s > step` becomes a run at
/// suffix step `s - step`.
pub fn schedule_tail(schedule: &Schedule, step: usize) -> Schedule {
    Schedule {
        per_analysis: schedule
            .per_analysis
            .iter()
            .map(|s| insitu_types::AnalysisSchedule {
                analysis_steps: s
                    .analysis_steps
                    .iter()
                    .filter(|&&j| j > step)
                    .map(|&j| j - step)
                    .collect(),
                output_steps: s
                    .output_steps
                    .iter()
                    .filter(|&&j| j > step)
                    .map(|&j| j - step)
                    .collect(),
            })
            .collect(),
    }
}

/// Splices an adopted `suffix` (in suffix steps) back into the composite
/// schedule: keeps `schedule`'s runs at steps `<= step` and appends the
/// suffix's runs shifted to absolute steps `step + t`.
pub fn splice_schedule(schedule: &Schedule, step: usize, suffix: &Schedule) -> Schedule {
    Schedule {
        per_analysis: schedule
            .per_analysis
            .iter()
            .zip(&suffix.per_analysis)
            .map(|(pre, suf)| {
                let mut analysis_steps: Vec<usize> = pre
                    .analysis_steps
                    .iter()
                    .copied()
                    .filter(|&j| j <= step)
                    .collect();
                analysis_steps.extend(suf.analysis_steps.iter().map(|&t| step + t));
                let mut output_steps: Vec<usize> = pre
                    .output_steps
                    .iter()
                    .copied()
                    .filter(|&j| j <= step)
                    .collect();
                output_steps.extend(suf.output_steps.iter().map(|&t| step + t));
                insitu_types::AnalysisSchedule {
                    analysis_steps,
                    output_steps,
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, AnalysisSchedule};

    fn two_analysis_problem() -> ScheduleProblem {
        ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a")
                    .with_fixed(0.5, 0.0)
                    .with_per_step(0.01, 0.0)
                    .with_compute(1.0, 0.0)
                    .with_output(0.2, 0.0, 1)
                    .with_interval(2),
                AnalysisProfile::new("b").with_compute(3.0, 0.0).with_interval(4),
            ],
            ResourceConfig::from_total_threshold(20, 10.0, 1e9, 1e9),
        )
        .unwrap()
    }

    #[test]
    fn remaining_problem_uses_measured_averages_and_remaining_budget() {
        let p = two_analysis_problem();
        let times = vec![
            AnalysisTimes {
                name: "a".into(),
                setup: 0.4,
                per_step: 0.2,  // over 8 active steps -> 0.025/step
                analyze: 6.0,   // over 3 calls -> 2.0/call vs modeled 1.0
                output: 0.3,    // over 1 call
                analyze_count: 3,
                output_count: 1,
            },
            AnalysisTimes {
                name: "b".into(),
                ..Default::default() // never ran: modeled costs survive
            },
        ];
        let r = remaining_problem(&p, &times, &[8, 0], &[true, false], 8, 4.0).unwrap();
        assert_eq!(r.resources.steps, 12);
        // remaining budget (10 - 4) spread over 12 steps
        assert!((r.resources.step_threshold - 0.5).abs() < 1e-12);
        assert!((r.analyses[0].step_time - 0.025).abs() < 1e-12);
        assert!((r.analyses[0].compute_time - 2.0).abs() < 1e-12);
        assert!((r.analyses[0].output_time - 0.3).abs() < 1e-12);
        assert_eq!(r.analyses[0].fixed_time, 0.0, "setup already paid");
        assert_eq!(r.analyses[1].compute_time, 3.0, "unmeasured keeps model");
        assert_eq!(r.analyses[1].fixed_time, 0.0);
        // an overspent run leaves a zero (not negative) budget
        let broke = remaining_problem(&p, &times, &[8, 0], &[true, false], 8, 99.0).unwrap();
        assert_eq!(broke.resources.step_threshold, 0.0);
        assert!(remaining_problem(&p, &times, &[8, 0], &[true, false], 20, 0.0).is_err());
    }

    #[test]
    fn tail_and_splice_round_trip() {
        let mut s = Schedule::empty(2);
        s.per_analysis[0] = AnalysisSchedule::new(vec![2, 4, 6, 8], vec![4, 8]);
        s.per_analysis[1] = AnalysisSchedule::new(vec![5], vec![]);
        let tail = schedule_tail(&s, 4);
        assert_eq!(tail.per_analysis[0].analysis_steps, vec![2, 4]);
        assert_eq!(tail.per_analysis[0].output_steps, vec![4]);
        assert_eq!(tail.per_analysis[1].analysis_steps, vec![1]);
        // splicing a tail back in at the same step reproduces the original
        assert_eq!(splice_schedule(&s, 4, &tail), s);
        // and a different suffix replaces only the future
        let mut new_suffix = Schedule::empty(2);
        new_suffix.per_analysis[0] = AnalysisSchedule::new(vec![3], vec![3]);
        let spliced = splice_schedule(&s, 4, &new_suffix);
        assert_eq!(spliced.per_analysis[0].analysis_steps, vec![2, 4, 7]);
        assert_eq!(spliced.per_analysis[0].output_steps, vec![4, 7]);
        assert!(spliced.per_analysis[1].analysis_steps.is_empty());
    }

    #[test]
    fn reschedule_record_exports_the_v1_schema() {
        let rec = RescheduleRecord {
            step: 4,
            reason: TriggerReason::Budget,
            drift: 0.02,
            measured_cum: 0.03,
            predicted_cum: 0.01,
            remaining_steps: 36,
            solve_ms: 1.5,
            old_objective: 21.0,
            new_objective: 14.0,
            adopted: true,
            verdict: "PROVED".into(),
        };
        let json = rec.to_json().to_string_pretty();
        let parsed = Value::parse(&json).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("reschedule/v1")
        );
        assert_eq!(parsed.get("reason").and_then(Value::as_str), Some("budget"));
        assert_eq!(parsed.get("adopted"), Some(&Value::Bool(true)));
        assert_eq!(format!("{}", TriggerReason::Drift), "drift");
    }
}

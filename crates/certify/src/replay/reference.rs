//! The paper's recursions as the paper writes them: the oracle of
//! [`super`]'s tests, not a code path.
//!
//! This is the replay as it stood before it learned to walk events: Eqs. 2
//! and 5–7 applied once per simulation step and analysis, every sum a
//! [`Rat`] operation of its own, every "does it run at `j`" a question to
//! the schedule. It is Eqs. 2–9 verbatim — simpler than what it checks —
//! and costs `Steps × |A|` whatever the schedule holds. The event-driven
//! bodies are held to it field for field, errors included.

use super::{exact_profile, hard, time_budget, ExactProfile, ReplayReport, Violation, ViolationKind};
use crate::rational::{Rat, RatError};
use crate::suffix::SuffixCarry;
use insitu_types::{AnalysisSchedule, Schedule, ScheduleProblem};

/// One step of Eqs. 5–7 for one analysis: returns the start-of-step
/// footprint `mStart` (Eq. 5: the previous end-of-step footprint plus
/// `im`, plus `cm` at an analysis step and `om` at an output step) and
/// leaves the end-of-step footprint in `mem_end` (Eq. 7: writing output
/// frees everything but the fixed buffer).
fn memory_step(
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

/// Eqs. 2–9 seeded from `carry`, step by step.
pub(super) fn replay_seeded(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    carry: &SuffixCarry,
) -> Result<ReplayReport, RatError> {
    let steps = problem.resources.steps;
    let mut violations = Vec::new();

    // --- structure: arity, ranges, outputs ⊆ analysis steps ---
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
        for (kind, list) in [
            ("analysis", s.analysis_steps()),
            ("output", s.output_steps()),
        ] {
            for &j in list {
                if j == 0 || j > steps {
                    violations.push(hard(
                        ViolationKind::Structure,
                        format!("analysis `{name}`: {kind} step {j} outside 1..={steps}"),
                    ));
                }
            }
        }
        for &j in s.output_steps() {
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
        for &j in s.analysis_steps() {
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

/// The cumulative Eq. 2–4 time after each step, step by step.
pub(super) fn replay_time_series(
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

/// `mEnd` of every set-up analysis after step `step`, step by step.
pub(super) fn memory_state_at(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    step: usize,
    set_up: &[bool],
) -> Result<Vec<Option<Rat>>, RatError> {
    if schedule.per_analysis.len() != problem.len() || set_up.len() != problem.len() {
        return Err(RatError::NonFinite); // shape mismatch, as in replay_time_series
    }
    // each set-up analysis: its exact Table-1 parameters, converted once,
    // and its footprint, seeded at the fixed allocation (Eq. 6)
    let mut state = Vec::with_capacity(problem.len());
    for (a, up) in problem.analyses.iter().zip(set_up) {
        state.push(if *up {
            let p = exact_profile(a)?;
            let fm = p.fm;
            Some((p, fm))
        } else {
            None
        });
    }
    for j in 1..=step.min(problem.resources.steps) {
        for (s, st) in schedule.per_analysis.iter().zip(&mut state) {
            if let Some((p, mem_end)) = st {
                memory_step(p, s, j, mem_end)?;
            }
        }
    }
    Ok(state.into_iter().map(|st| st.map(|(_, mem_end)| mem_end)).collect())
}

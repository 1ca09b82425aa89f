//! Exact replay of the paper's feasibility recursions (Eqs. 2–9).
//!
//! Given a [`ScheduleProblem`] and a concrete [`Schedule`], this module
//! evaluates the paper's recursions — cumulative analysis time (Eqs. 2–4),
//! memory with reset-at-output (Eqs. 5–8) and the minimum analysis interval
//! (Eq. 9) — entirely in exact dyadic arithmetic
//! ([`crate::rational::Rat`]). It shares no code with the MILP
//! formulations in `crates/core` or the solver in `crates/milp`; the only
//! common ground is the data model in `insitu-types`. A bug in either the
//! model builder or the simplex/branch-and-bound stack therefore cannot
//! silently certify its own output.
//!
//! The recursions are evaluated at what the schedule holds, not at every
//! step of the run. Between two of its own events an analysis's footprint
//! only grows by `im` a step, so Eqs. 5–7 are applied once per event
//! (`Footprint`, the one place they are written) with `im · gap` on
//! arrival; the Eq. 8 total is carried from event step to event step, and a
//! run of steps without any event is linear in the step and so decided at
//! its two ends; Eqs. 2–4 have the closed form `ft + it·Steps + ct·|C| +
//! ot·|O|`. The per-step form, which is the paper's text, lives on as the
//! tests' oracle (`reference`).
//!
//! Comparisons against the thresholds are *exact*: the thresholds and all
//! Table-1 parameters are dyadic rationals (lossless `f64` conversions),
//! and sums and integer multiples of dyadic rationals are dyadic, so there
//! is no epsilon anywhere in the feasibility decision — and no gcd, and no
//! aligning and re-reducing per sum either: every quantity a recursion will
//! add is scaled once to the largest denominator `2^shift` among them, and
//! the recursion itself is checked `i128` integer arithmetic on the
//! numerators (one division, where a threshold is crossed between two
//! events, finds the step). Values become `Rat`s again in the report and
//! in messages. Paper-shaped runs (seconds up to ~1e5, bytes up to ~1e13,
//! a few thousand steps) stay far inside the `i128` window; leaving it is
//! an error, never a wrapped value. The
//! solver's floating-point tolerance is accounted for outside this module
//! and in one place each: [`crate::BOUND_TOL`] in the objective and LP-bound
//! comparisons, [`crate::forgiven`] in the verdict [`crate::certify`] draws
//! from a report. The report itself lists every excess, however small.

use crate::rational::{Rat, RatError};
use crate::suffix::SuffixCarry;
use insitu_types::{AnalysisSchedule, Schedule, ScheduleProblem};
use std::borrow::Cow;

#[cfg(test)]
mod reference;

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

fn sum(a: i128, b: i128) -> Result<i128, RatError> {
    a.checked_add(b).ok_or(RatError::Overflow)
}

fn diff(a: i128, b: i128) -> Result<i128, RatError> {
    a.checked_sub(b).ok_or(RatError::Overflow)
}

/// `a · k` for a step count `k`.
fn times(a: i128, k: usize) -> Result<i128, RatError> {
    a.checked_mul(k as i128).ok_or(RatError::Overflow)
}

/// Whether the analysis steps, and the output steps, are strictly
/// increasing as given.
fn in_order(s: &AnalysisSchedule) -> [bool; 2] {
    [&s.analysis_steps, &s.output_steps].map(|list| list.windows(2).all(|w| w[0] < w[1]))
}

/// One step list as the recursions read it: its entries in `1..=limit`,
/// strictly increasing. A list that is `ordered` (strictly increasing as
/// given) is trimmed in place. One that is not — already a fatal
/// `Structure` violation — is materialised as the steps at which `member`,
/// the schedule's own `runs_at` / `outputs_at`, answers yes: that is what
/// the per-step form of the recursions asked at every step, and a search
/// of a slice out of order finds some of its entries and not others.
fn events(
    list: &[usize],
    limit: usize,
    ordered: bool,
    member: impl Fn(usize) -> bool,
) -> Cow<'_, [usize]> {
    if ordered {
        let from = usize::from(list.first() == Some(&0));
        let mut to = list.len();
        while to > from && list[to - 1] > limit {
            to -= 1;
        }
        return Cow::Borrowed(&list[from..to]);
    }
    let mut found: Vec<usize> = list.iter().copied().filter(|j| (1..=limit).contains(j)).collect();
    found.sort_unstable();
    found.dedup();
    found.retain(|&j| member(j));
    Cow::Owned(found)
}

/// Both step lists of one analysis within `1..=limit`: `(C_i, O_i)`.
fn step_lists(s: &AnalysisSchedule, limit: usize, ordered: [bool; 2]) -> [Cow<'_, [usize]>; 2] {
    [
        events(&s.analysis_steps, limit, ordered[0], |j| s.runs_at(j)),
        events(&s.output_steps, limit, ordered[1], |j| s.outputs_at(j)),
    ]
}

/// The memory quantities Eqs. 5–7 add for one analysis over `steps` steps
/// of its events. One they never add — `cm` without a run, `om` without an
/// output, `fm` when a carry seeds the footprint and no output resets it —
/// is left at zero, so it cannot widen the common denominator: an instance
/// the per-operation form replays is still replayed.
struct MemTerms {
    seed: Rat,
    fm: Rat,
    im: Rat,
    cm: Rat,
    om: Rat,
}

impl MemTerms {
    fn new(p: &ExactProfile, held: Option<Rat>, steps: usize, runs: &[usize], outs: &[usize]) -> Self {
        let used = |q: Rat, yes: bool| if yes { q } else { Rat::ZERO };
        MemTerms {
            seed: held.unwrap_or(p.fm), // Eq. 6
            fm: used(p.fm, !outs.is_empty()),
            im: used(p.im, steps > 0),
            cm: used(p.cm, !runs.is_empty()),
            om: used(p.om, !outs.is_empty()),
        }
    }

    /// The smallest common denominator exponent of the five.
    fn shift(&self) -> u32 {
        [&self.seed, &self.fm, &self.im, &self.cm, &self.om].map(Rat::shift).into_iter().max().unwrap_or(0)
    }
}

/// One analysis's memory footprint, advanced from one of its events to the
/// next: the only place Eqs. 5–7 are written. Every quantity is a numerator
/// over the caller's common denominator.
struct Footprint<'a> {
    fm: i128,
    im: i128,
    cm: i128,
    om: i128,
    /// `mEnd` after step `at`.
    mem: i128,
    at: usize,
    /// The analysis and output steps still ahead.
    runs: &'a [usize],
    outs: &'a [usize],
}

impl<'a> Footprint<'a> {
    fn new(t: &MemTerms, shift: u32, runs: &'a [usize], outs: &'a [usize]) -> Result<Self, RatError> {
        Ok(Footprint {
            fm: t.fm.numer_over(shift)?,
            im: t.im.numer_over(shift)?,
            cm: t.cm.numer_over(shift)?,
            om: t.om.numer_over(shift)?,
            mem: t.seed.numer_over(shift)?,
            at: 0,
            runs,
            outs,
        })
    }

    /// The next step at which the analysis runs or outputs.
    fn next_event(&self) -> Option<usize> {
        match (self.runs.first(), self.outs.first()) {
            (Some(&r), Some(&o)) => Some(r.min(o)),
            (r, o) => r.or(o).copied(),
        }
    }

    /// `mEnd` after step `j`, no event falling in `at + 1 ..= j`: Eq. 5
    /// adds `im` at each of those steps and nothing else.
    fn end_of(&self, j: usize) -> Result<i128, RatError> {
        sum(self.mem, times(self.im, j - self.at)?)
    }

    /// Takes the analysis through its event at step `j`. Eq. 5: `mStart` is
    /// the previous `mEnd` plus `im`, plus `cm` at an analysis step and
    /// `om` at an output step; Eq. 7: writing output frees everything but
    /// the fixed buffer. Returns what the event adds to this step's total
    /// over a step without one, and what it frees at the end of the step.
    fn event(&mut self, j: usize) -> Result<(i128, i128), RatError> {
        let quiet = self.end_of(j)?;
        let mut m_start = quiet;
        if self.runs.first() == Some(&j) {
            m_start = sum(m_start, self.cm)?;
            self.runs = &self.runs[1..];
        }
        let outputs = self.outs.first() == Some(&j);
        if outputs {
            m_start = sum(m_start, self.om)?;
            self.outs = &self.outs[1..];
        }
        let m_end = if outputs { self.fm } else { m_start };
        (self.mem, self.at) = (m_end, j);
        Ok((diff(m_start, quiet)?, diff(m_start, m_end)?))
    }
}

/// `mEnd` (Eqs. 5–7) of one analysis after `limit` steps of `s`, from its
/// fixed allocation: the memory half of a carry, for
/// [`crate::memory_state_at`].
pub(crate) fn footprint_after(
    p: &ExactProfile,
    s: &AnalysisSchedule,
    limit: usize,
) -> Result<Rat, RatError> {
    let [runs, outs] = step_lists(s, limit, in_order(s));
    let terms = MemTerms::new(p, None, limit, &runs, &outs);
    let shift = terms.shift();
    let mut footprint = Footprint::new(&terms, shift, &runs, &outs)?;
    while let Some(j) = footprint.next_event() {
        footprint.event(j)?;
    }
    Ok(Rat::reduced(footprint.end_of(limit)?, shift))
}

/// The `k` in `1..=len` at which `base + slope·k` exceeds `limit`. A linear
/// function crosses a level once, so they are a run at one end of the
/// range (or all of it, or none): read off the two ends and one division.
fn steps_over(
    base: i128,
    slope: i128,
    len: usize,
    limit: i128,
) -> Result<std::ops::Range<usize>, RatError> {
    let at = |k: usize| sum(base, times(slope, k)?);
    Ok(match (at(1)? > limit, at(len)? > limit) {
        (false, false) => 1..1,
        (true, true) => 1..len + 1,
        // rising: from the first k with slope·k > limit − base
        (false, true) => diff(limit, base)?.div_euclid(slope) as usize + 1..len + 1,
        // falling: up to the last k with −slope·k < base − limit
        (true, false) => 1..diff(diff(base, limit)?, 1)?.div_euclid(diff(0, slope)?) as usize + 1,
    })
}

/// What Eq. 2 adds for one analysis over the run, and how many times each:
/// `ft` once, `it` at every step, `ct` per analysis step, `ot` per output.
fn time_terms(p: &ExactProfile, steps: usize, runs: usize, outs: usize) -> [(Rat, usize); 4] {
    [(p.ft, 1), (p.it, steps), (p.ct, runs), (p.ot, outs)]
}

/// The smallest common denominator exponent of the terms added at all.
fn time_shift<'a>(terms: impl IntoIterator<Item = &'a (Rat, usize)>) -> u32 {
    terms.into_iter().filter(|(_, k)| *k > 0).map(|(q, _)| q.shift()).max().unwrap_or(0)
}

/// The four terms as numerators over `2^shift`; one never added is zero.
fn time_scaled(terms: &[(Rat, usize); 4], shift: u32) -> Result<[i128; 4], RatError> {
    let mut scaled = [0; 4];
    for ((q, k), n) in terms.iter().zip(&mut scaled) {
        if *k > 0 {
            *n = q.numer_over(shift)?;
        }
    }
    Ok(scaled)
}

/// Eqs. 2–4 for one analysis in closed form, `ft + it·Steps + ct·|C| +
/// ot·|O|`, over the common denominator of the terms it has.
fn analysis_time(p: &ExactProfile, steps: usize, runs: usize, outs: usize) -> Result<Rat, RatError> {
    let terms = time_terms(p, steps, runs, outs);
    let shift = time_shift(&terms);
    let mut t = 0;
    for (n, (_, k)) in time_scaled(&terms, shift)?.into_iter().zip(terms) {
        t = sum(t, times(n, k)?)?;
    }
    Ok(Rat::reduced(t, shift))
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
    // each analysis's two step lists as the recursions below read them
    let mut lists = Vec::with_capacity(problem.len());
    for (i, s) in schedule.per_analysis.iter().enumerate() {
        let name = &problem.analyses[i].name;
        let ordered = in_order(s);
        let both = [("analysis", &s.analysis_steps), ("output", &s.output_steps)];
        for ((kind, list), ordered) in both.into_iter().zip(ordered) {
            for w in list.windows(2).filter(|_| !ordered) {
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
        // two lists in order are merged; one out of order is asked entry
        // by entry what the schedule says of it
        let mut ahead = &s.analysis_steps[..];
        for &j in &s.output_steps {
            let runs = if ordered == [true; 2] {
                while ahead.first().is_some_and(|&c| c < j) {
                    ahead = &ahead[1..];
                }
                ahead.first() == Some(&j)
            } else {
                s.runs_at(j)
            };
            if !runs {
                violations.push(hard(
                    ViolationKind::Structure,
                    format!("analysis `{name}`: output at step {j} without an analysis step"),
                ));
            }
        }
        lists.push(step_lists(s, steps, ordered));
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
        let [runs, outs] = &lists[i];
        total_time = total_time.add(&analysis_time(&p, steps, runs.len(), outs.len())?)?;
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
    // the one denominator: the widest of the threshold, what each active
    // analysis adds, and what an inactive one still holds
    let mut shift = mth.shift();
    let mut terms = Vec::with_capacity(problem.len());
    for ((p, held), [runs, outs]) in profiles.iter().zip(&carry.held_mem).zip(&lists) {
        let t = p.as_ref().map(|p| MemTerms::new(p, *held, steps, runs, outs));
        shift = shift.max(match &t {
            Some(t) => t.shift(),
            None => held.map_or(0, |h| h.shift()),
        });
        terms.push(t);
    }
    let mth_scaled = mth.numer_over(shift)?;
    // Eq. 6 seed: an active analysis starts at what the carry says it
    // holds, else at its fixed allocation; what an inactive one holds stays
    // allocated and counts at every step. `total` is the Eq. 8 sum at the
    // end of step `at`, and the peak starts at the step-0 total
    let mut total = 0;
    let mut im_sum = 0;
    let mut footprints = Vec::with_capacity(problem.len());
    for ((t, held), [runs, outs]) in terms.iter().zip(&carry.held_mem).zip(&lists) {
        match t {
            Some(t) => {
                let f = Footprint::new(t, shift, runs, outs)?;
                total = sum(total, f.mem)?;
                im_sum = sum(im_sum, f.im)?;
                footprints.push(f);
            }
            None => total = sum(total, held.map_or(Ok(0), |h| h.numer_over(shift))?)?,
        }
    }
    let mut peak = total;
    let mut report = |j: usize, step_total: i128| -> Result<(), RatError> {
        let excess = Rat::reduced(diff(step_total, mth_scaled)?, shift);
        violations.push(Violation {
            kind: ViolationKind::Memory,
            message: format!(
                "step {j}: memory {} exceeds mth {} (exact excess {excess})",
                Rat::reduced(step_total, shift).to_f64(),
                mth.to_f64(),
            ),
            excess: excess.to_f64(),
        });
        Ok(())
    };
    let mut at = 0;
    loop {
        let next = footprints.iter().filter_map(Footprint::next_event).min();
        // the steps before the next event hold none: every footprint grows
        // by its `im`, the total by their sum, so the peak is at an end of
        // the run and only the steps past the threshold — a stretch at one
        // end — are visited, each reported as the per-step form reports it
        let quiet = next.map_or(steps, |j| j - 1) - at;
        if quiet > 0 {
            let last = sum(total, times(im_sum, quiet)?)?;
            peak = peak.max(sum(total, im_sum)?).max(last);
            for k in steps_over(total, im_sum, quiet, mth_scaled)? {
                report(at + k, sum(total, times(im_sum, k)?)?)?;
            }
            total = last;
        }
        let Some(j) = next else { break };
        let mut step_total = sum(total, im_sum)?;
        let mut freed = 0;
        for f in &mut footprints {
            if f.next_event() == Some(j) {
                let (rise, fall) = f.event(j)?;
                step_total = sum(step_total, rise)?;
                freed = sum(freed, fall)?;
            }
        }
        peak = peak.max(step_total);
        if step_total > mth_scaled {
            report(j, step_total)?;
        }
        total = diff(step_total, freed)?;
        at = j;
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
        peak_memory: Rat::reduced(peak, shift),
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
/// per-analysis in closed form and this sums per-step. This per-step series
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
    let mut active = Vec::with_capacity(problem.len());
    for (a, s) in problem.analyses.iter().zip(&schedule.per_analysis) {
        if s.count() > 0 {
            let [runs, outs] = step_lists(s, steps, in_order(s));
            active.push((time_terms(&exact_profile(a)?, steps, runs.len(), outs.len()), runs, outs));
        }
    }
    // one denominator for the whole series; `cum` starts at the Eq. 3 seed
    let shift = time_shift(active.iter().flat_map(|(terms, ..)| terms));
    let (mut cum, mut it_sum) = (0, 0);
    let mut ahead = Vec::with_capacity(active.len());
    for (terms, runs, outs) in &active {
        let [ft, it, ct, ot] = time_scaled(terms, shift)?;
        cum = sum(cum, ft)?;
        it_sum = sum(it_sum, it)?;
        ahead.push((ct, ot, &runs[..], &outs[..]));
    }
    let mut series = Vec::with_capacity(steps + 1);
    series.push(Rat::reduced(cum, shift));
    for j in 1..=steps {
        cum = sum(cum, it_sum)?;
        for (ct, ot, runs, outs) in &mut ahead {
            if runs.first() == Some(&j) {
                cum = sum(cum, *ct)?;
                *runs = &runs[1..];
            }
            if outs.first() == Some(&j) {
                cum = sum(cum, *ot)?;
                *outs = &outs[1..];
            }
        }
        series.push(Rat::reduced(cum, shift));
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
    use proptest::prelude::*;

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

    /// The per-step loop would not return from this one: 10¹² steps, three
    /// events. The report is the closed form.
    #[test]
    fn a_run_of_a_million_million_steps_costs_its_three_events() {
        const STEPS: usize = 1_000_000_000_000;
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_fixed(1.0, 100.0)
                .with_per_step(0.5, 0.25)
                .with_compute(2.0, 10.0)
                .with_output(0.5, 5.0, 1)
                .with_interval(10)],
            ResourceConfig::from_total_threshold(STEPS, 1e12, 1e12, 1e9),
        )
        .unwrap();
        let (first, second) = (400_000_000_000, 900_000_000_000);
        let r = replay(&p, &schedule(vec![first, second], vec![second])).unwrap();
        assert!(r.is_feasible(), "{:?}", r.violations);
        // ft + it·Steps + 2·ct + ot
        let quarters = |n: i128| Rat::reduced(n, 2);
        assert_eq!(r.total_time, quarters(4 + 2 * STEPS as i128 + 16 + 2));
        // the footprint peaks at the output step: fm + im·second + 2·cm + om
        assert_eq!(r.peak_memory, quarters(400 + second as i128 + 80 + 20));
        assert_eq!(r.objective, Rat::from_int(3));
        // ... and the state at any boundary is as cheap
        let m = crate::memory_state_at(&p, &schedule(vec![first, second], vec![second]), STEPS, &[true]);
        assert_eq!(m.unwrap()[0], Some(quarters(400 + (STEPS - second) as i128)));
    }

    /// A threshold crossed in the middle of an event-free run: every step
    /// from the crossing to the output that frees the memory is reported,
    /// and no other step is visited.
    #[test]
    fn a_threshold_crossed_mid_run_is_reported_from_the_crossing_step() {
        const STEPS: usize = 1_000_000_000_000;
        let mut p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_fixed(0.0, 100.0)
                .with_per_step(0.0, 0.5)
                .with_compute(1.0, 10.0)
                .with_output(0.0, 0.0, 1)
                .with_interval(10)],
            ResourceConfig::from_total_threshold(STEPS, 1e9, 1e9, 1e9),
        )
        .unwrap();
        let (run, reset) = (100_000_000_000usize, 600_000_000_000usize);
        let s = schedule(vec![run, reset], vec![reset]);
        // step j of the run up to `reset` holds 100 + j/2 + 10: with mth at
        // 110 + crossing/2 - 1/4 the first step over it is `crossing`
        let crossing = reset - 3;
        p.resources.mem_threshold = 110.0 + crossing as f64 / 2.0 - 0.25;
        let r = replay(&p, &s).unwrap();
        let steps: Vec<&str> = r
            .violations
            .iter()
            .map(|v| {
                assert_eq!(v.kind, ViolationKind::Memory);
                v.message.split(':').next().unwrap()
            })
            .collect();
        assert_eq!(
            steps,
            ["step 599999999997", "step 599999999998", "step 599999999999", "step 600000000000"]
        );
        // a quarter over at the crossing, half a byte more each step, and
        // the second run's cm on top at the output step
        let excess: Vec<f64> = r.violations.iter().map(|v| v.excess).collect();
        assert_eq!(excess, [0.25, 0.75, 1.25, 11.75]);
        // a falling total (a negative im, which nothing upstream of the
        // replay allows but the replay does not assume) is over the
        // threshold at the other end of the run
        assert_eq!(steps_over(10, -3, 100, 0).unwrap(), 1..4);
        assert_eq!(steps_over(10, 3, 100, 40).unwrap(), 11..101);
        assert_eq!(steps_over(10, 0, 100, 40).unwrap(), 1..1);
        assert_eq!(steps_over(50, 0, 100, 40).unwrap(), 1..101);
    }

    /// SplitMix64: the differential below draws whole cases from one seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }
        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
        /// A Table-1 parameter: often zero, mostly small eighths, sometimes
        /// on a finer grid or large — and, when `wild`, now and then
        /// negative or a power of two from across the `i128` window.
        fn parameter(&mut self, wild: bool) -> f64 {
            match self.range(0, if wild { 11 } else { 9 }) {
                0..=2 => 0.0,
                3..=6 => self.range(0, 80) as f64 / 8.0,
                7 => self.range(0, 4096) as f64 / 1024.0,
                8 => self.range(0, 1 << 20) as f64 / 16.0,
                9 => self.range(1, 1000) as f64 * 1e3 + 0.1,
                10 => -(self.range(1, 40) as f64) / 8.0,
                _ => 2f64.powi(self.range(0, 150) as i32 - 75),
            }
        }
    }

    /// One `(problem, schedule, carry)` triple: 1–4 analyses over 1–48
    /// steps, `im = 0` and `im > 0` mixed, step lists sparse or dense and
    /// broken every way the structure check knows, `mth` somewhere around
    /// the footprint the schedule reaches, a carry of either arity. The
    /// flag says whether the case is a wild one (see [`Draw::parameter`]).
    fn triple(seed: u64) -> (ScheduleProblem, Schedule, SuffixCarry, bool) {
        let mut d = Draw(seed);
        let wild = d.chance(15);
        let steps = d.range(1, 48);
        let n = d.range(1, 4);
        let mut analyses = Vec::new();
        let mut schedule = Schedule::empty(n);
        let mut reach = 0.0;
        for i in 0..n {
            let mut a = AnalysisProfile::new(format!("a{i}"));
            a.fixed_time = d.parameter(wild);
            a.step_time = if d.chance(50) { 0.0 } else { d.parameter(wild) / 64.0 };
            a.compute_time = d.parameter(wild);
            a.output_time = d.parameter(wild);
            a.fixed_mem = d.parameter(wild);
            a.step_mem = if d.chance(40) { 0.0 } else { d.parameter(wild) };
            a.compute_mem = d.parameter(wild);
            a.output_mem = d.parameter(wild);
            a.weight = d.range(1, 6) as f64 * 0.5;
            a.min_interval = d.range(1, steps.max(2) / 2 + 1);
            let s = &mut schedule.per_analysis[i];
            if !d.chance(20) {
                let density = [5, 25, 60, 100][d.range(0, 3)];
                s.analysis_steps = (1..=steps).filter(|_| d.chance(density)).collect();
                s.output_steps = s.analysis_steps.iter().copied().filter(|_| d.chance(40)).collect();
            }
            if d.chance(30) {
                let lists = [&mut s.analysis_steps, &mut s.output_steps];
                let list = &mut *lists[d.range(0, 1)];
                match d.range(0, 4) {
                    0 => list.insert(0, 0),
                    1 => list.push(steps + d.range(1, 3)),
                    2 if list.len() >= 2 => {
                        let x = d.range(0, list.len() - 2);
                        list.swap(x, x + 1);
                    }
                    3 if !list.is_empty() => {
                        let x = d.range(0, list.len() - 1);
                        list.insert(x, list[x]);
                    }
                    _ => {
                        // a stray entry, in order
                        list.push(d.range(0, steps + 1));
                        list.sort_unstable();
                    }
                }
            }
            reach += a.fixed_mem.abs()
                + a.step_mem.abs() * steps as f64
                + a.compute_mem.abs() * s.analysis_steps.len() as f64
                + a.output_mem.abs();
            analyses.push(a);
        }
        if d.chance(3) {
            schedule.per_analysis.pop();
        }
        let mth = if wild && d.chance(30) {
            d.parameter(true)
        } else {
            (reach * d.range(1, 12) as f64 / 10.0 * 8.0).round() / 8.0
        };
        let budget = d.parameter(wild) * d.range(0, 40) as f64;
        let problem = ScheduleProblem {
            analyses,
            resources: ResourceConfig::new(steps, budget / steps as f64, mth, 1e9),
        };
        let m = if d.chance(5) { n + 1 } else { n };
        let mut carry = SuffixCarry::fresh(m);
        for i in 0..m {
            if d.chance(50) {
                carry.held_mem[i] = Rat::from_f64_exact(d.parameter(wild)).ok();
            }
            if d.chance(50) {
                carry.steps_since_run[i] = Some(d.range(0, steps));
            }
        }
        if d.chance(3) {
            carry.steps_since_run.pop();
        }
        (problem, schedule, carry, wild)
    }

    /// Same answer or same error. In the wild family the event-driven form
    /// may also answer `Overflow` where the per-operation form still fits
    /// (3 of 45 000 wild cases): that form re-reduces after every sum, so a
    /// fine denominator an output frees — a carried seed, say — stops
    /// costing it bits, while this one keeps its one denominator to the
    /// end. Never the other way round, and never two different values.
    fn agree<T: PartialEq>(new: &Result<T, RatError>, old: &Result<T, RatError>, wild: bool) -> bool {
        new == old || (wild && *new == Err(RatError::Overflow) && old.is_ok())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The event-driven bodies against the paper's recursion step by
        /// step: the whole report — `total_time`, `peak_memory`,
        /// `objective`, every violation in order with its message and
        /// excess bits — or the same error; the time series entry by entry;
        /// the carried state at every boundary. `PROPTEST_CASES` soaks it.
        #[test]
        fn event_driven_replay_agrees_with_the_per_step_recursion(seed in 0..=u64::MAX) {
            let (p, s, carry, wild) = triple(seed);
            let (new, old) = (replay_seeded(&p, &s, &carry), reference::replay_seeded(&p, &s, &carry));
            prop_assert!(
                agree(&new, &old, wild),
                "seed {:#x}: {:?} / {:?} / {:?} replays to {:?}, step by step to {:?}", seed, p, s, carry, new, old
            );
            let fresh = SuffixCarry::fresh(p.len());
            prop_assert!(agree(&replay(&p, &s), &reference::replay_seeded(&p, &s, &fresh), wild), "seed {:#x}", seed);
            let (new, old) = (replay_time_series(&p, &s), reference::replay_time_series(&p, &s));
            prop_assert!(
                agree(&new, &old, wild),
                "seed {:#x}: {:?} / {:?} has the time series {:?}, step by step {:?}", seed, p, s, new, old
            );
            let mut d = Draw(seed ^ 0x5EED);
            let set_up: Vec<bool> = (0..p.len()).map(|_| d.chance(75)).collect();
            for step in 0..=p.resources.steps + 1 {
                let new = crate::memory_state_at(&p, &s, step, &set_up);
                let old = reference::memory_state_at(&p, &s, step, &set_up);
                prop_assert!(
                    agree(&new, &old, wild),
                    "seed {:#x}: {:?} / {:?} holds {:?} after step {}, step by step {:?}", seed, p, s, new, step, old
                );
            }
        }
    }
}

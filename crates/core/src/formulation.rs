//! The exact time-indexed MILP formulation (paper §3.2, Eqs. 1–9).
//!
//! Decision variables, per analysis `i`:
//!
//! * `run_i ∈ {0,1}` — analysis `i` is a member of the feasible set `A`
//!   (contributes the `|A|` term of Eq. 1 and gates the fixed costs),
//! * `a_{i,j} ∈ {0,1}` — analysis runs after simulation step `j`
//!   (`j ∈ C_i`), created only for `j >= itv_i` (the paper requires `itv`
//!   steps to elapse before the first analysis),
//! * `o_{i,j} ∈ {0,1}` — analysis output is written after step `j`
//!   (`j ∈ O_i`, `O_i ⊆ C_i`),
//! * `mEnd_{i,j} >= 0` — memory held at the end of step `j` (continuous),
//!   needed because Eq. 6's reset-at-output is conditional; it is
//!   linearized with the standard big-M construction.
//!
//! Constraints (matching the paper's equation numbers):
//!
//! * Eq. 4 (time, telescoped): `Σ_i [ (ft_i + Steps·it_i)·run_i +
//!   ct_i·Σ_j a_{i,j} + ot_i·Σ_j o_{i,j} ] <= cth·Steps`,
//! * Eqs. 5–8 (memory): `mStart_{i,j} = mEnd_{i,j-1} + im_i·run_i +
//!   cm_i·a_{i,j} + om_i·o_{i,j}`, `mEnd = fm` at output steps (big-M),
//!   `Σ_i mStart_{i,j} <= mth` per step,
//! * Eq. 9 (interval): sliding windows `Σ_{j' ∈ [j, j+itv)} a_{i,j'} <= 1`,
//! * structure: `a <= run`, `o <= a`, and — when the profile declares an
//!   output cadence — `output_every_i · Σ_j o_{i,j} >= Σ_j a_{i,j}` so
//!   results are eventually written.
//!
//! This formulation is exact but grows with `Steps`; the paper's own
//! instances (1000 steps) are solved through the [`crate::aggregate`]
//! reformulation, which this module's tests cross-check on small instances.

use insitu_types::{AnalysisSchedule, Schedule, ScheduleProblem};
use milp::{Cmp, LinExpr, Model, Sense, SolveError, SolveOptions, SolveStats, Var};

/// Handles to the variables of the exact formulation, for tests/inspection.
#[derive(Debug, Clone)]
pub struct ExactVars {
    /// `run_i` per analysis.
    pub run: Vec<Var>,
    /// `a_{i,j}` — `analysis[i][j - itv_i]` maps to step `j` (1-based).
    pub analysis: Vec<Vec<(usize, Var)>>,
    /// `o_{i,j}` parallel to `analysis`.
    pub output: Vec<Vec<(usize, Var)>>,
    /// `mEnd_{i,j}` — `mend[i][j - 1]` maps to step `j`; empty for
    /// analyses with no memory recursion (all dynamic memory zero). The
    /// values are in units of [`mem_scale`], like the model's memory rows.
    pub mend: Vec<Vec<Var>>,
}

/// The memory unit used inside the exact and aggregate models: raw byte
/// counts (1e9..1e12) against an O(1) objective destroy the simplex's
/// reduced-cost tolerances, so all memory rows are divided by this scale.
/// The memory constraints are homogeneous in memory, so the rescaling is
/// exact. Exposed so warm-start hints can express `mEnd` values in the
/// model's own units.
pub fn mem_scale(problem: &ScheduleProblem) -> f64 {
    let steps = problem.resources.steps;
    problem
        .analyses
        .iter()
        .map(|a| a.fixed_mem + a.step_mem * steps as f64 + a.compute_mem + a.output_mem)
        .fold(problem.resources.mem_threshold, f64::max)
        .max(1.0)
}

/// Builds the exact time-indexed model for `problem`.
pub fn build_exact(problem: &ScheduleProblem) -> (Model, ExactVars) {
    let steps = problem.resources.steps;
    let mut m = Model::new(Sense::Maximize);
    let mut run = Vec::new();
    let mut analysis: Vec<Vec<(usize, Var)>> = Vec::new();
    let mut output: Vec<Vec<(usize, Var)>> = Vec::new();
    let mut mend: Vec<Vec<Var>> = Vec::new(); // mEnd_{i,j} for j=1..steps

    let mem_scale = mem_scale(problem);

    for (i, a) in problem.analyses.iter().enumerate() {
        run.push(m.binary(&format!("run_{i}")));
        let itv = a.min_interval.max(1);
        let mut av = Vec::new();
        let mut ov = Vec::new();
        for j in itv..=steps {
            av.push((j, m.binary(&format!("a_{i}_{j}"))));
            ov.push((j, m.binary(&format!("o_{i}_{j}"))));
        }
        analysis.push(av);
        output.push(ov);
        let needs_mem_recursion = a.step_mem > 0.0 || a.compute_mem > 0.0 || a.output_mem > 0.0;
        if needs_mem_recursion {
            let big = (a.fixed_mem + a.step_mem * steps as f64 + a.compute_mem + a.output_mem)
                / mem_scale;
            let mv = (1..=steps)
                .map(|j| m.num_var(&format!("mend_{i}_{j}"), 0.0, big.max(1e-12)))
                .collect();
            mend.push(mv);
        } else {
            mend.push(Vec::new());
        }
    }

    // --- objective (Eq. 1) ---
    let mut obj = LinExpr::new();
    for (i, a) in problem.analyses.iter().enumerate() {
        obj = obj.term(run[i], 1.0);
        for &(_, v) in &analysis[i] {
            obj = obj.term(v, a.weight);
        }
    }
    m.set_objective(obj);

    // --- structure: a <= run, o <= a, and run <= Σ a (an analysis only
    // counts towards |A| if it actually runs at least once) ---
    for i in 0..problem.len() {
        for (k, &(_, av)) in analysis[i].iter().enumerate() {
            m.add_con(LinExpr::var(av).term(run[i], -1.0), Cmp::Le, 0.0);
            let (_, ov) = output[i][k];
            m.add_con(LinExpr::var(ov).term(av, -1.0), Cmp::Le, 0.0);
        }
        let total = LinExpr::sum(analysis[i].iter().map(|&(_, v)| (v, 1.0)));
        m.add_con(LinExpr::var(run[i]).add_expr(&total.scale(-1.0)), Cmp::Le, 0.0);
    }

    // --- output cadence: every `output_every` analyses must output ---
    for (i, a) in problem.analyses.iter().enumerate() {
        if a.output_every > 0 {
            let mut e = LinExpr::new();
            for &(_, ov) in &output[i] {
                e = e.term(ov, a.output_every as f64);
            }
            for &(_, av) in &analysis[i] {
                e = e.term(av, -1.0);
            }
            m.add_con(e, Cmp::Ge, 0.0);
        } else {
            for &(_, ov) in &output[i] {
                m.add_con(LinExpr::var(ov), Cmp::Le, 0.0);
            }
        }
    }

    // --- time (Eq. 4, telescoped over Eqs. 2–3) ---
    let mut time = LinExpr::new();
    for (i, a) in problem.analyses.iter().enumerate() {
        time = time.term(run[i], a.fixed_time + a.step_time * steps as f64);
        for &(_, av) in &analysis[i] {
            time = time.term(av, a.compute_time);
        }
        for &(_, ov) in &output[i] {
            time = time.term(ov, a.output_time);
        }
    }
    m.add_con(time, Cmp::Le, problem.resources.total_threshold());

    // --- interval (Eq. 9) as sliding windows ---
    for (i, a) in problem.analyses.iter().enumerate() {
        let itv = a.min_interval.max(1);
        if itv > 1 {
            for start in itv..=steps.saturating_sub(itv - 1).max(itv) {
                let in_window: Vec<Var> = analysis[i]
                    .iter()
                    .filter(|&&(j, _)| j >= start && j < start + itv)
                    .map(|&(_, v)| v)
                    .collect();
                if in_window.len() > 1 {
                    m.add_con(
                        LinExpr::sum(in_window.into_iter().map(|v| (v, 1.0))),
                        Cmp::Le,
                        1.0,
                    );
                }
            }
        }
    }

    // --- memory (Eqs. 5–8) ---
    // mStart_{i,j} = mEnd_{i,j-1} + im*run + cm*a_{i,j} + om*o_{i,j}
    // expressed as an expression; mEnd_{i,j} linearized with big-M:
    //   output step:  mEnd = fm*run
    //   otherwise:    mEnd = mStart
    let mut mstart_exprs: Vec<Vec<LinExpr>> = vec![Vec::new(); problem.len()];
    for (i, a) in problem.analyses.iter().enumerate() {
        if mend[i].is_empty() {
            // static memory: mStart is fm*run at every step (no recursion)
            for _j in 1..=steps {
                mstart_exprs[i].push(LinExpr::new().term(run[i], a.fixed_mem / mem_scale));
            }
            continue;
        }
        // M must cover the largest mStart the recursion can reach: compute
        // buffers pile up until the next output (Eq. 6), so `cm` counts
        // once per analysis step, not once
        let big = (a.fixed_mem
            + a.step_mem * steps as f64
            + a.compute_mem * a.max_analysis_steps(steps) as f64
            + a.output_mem)
            / mem_scale;
        let big = big.max(1e-12);
        let itv = a.min_interval.max(1);
        let var_at = |list: &[(usize, Var)], j: usize| -> Option<Var> {
            if j >= itv {
                Some(list[j - itv].1)
            } else {
                None
            }
        };
        for j in 1..=steps {
            // mStart expression
            let mut ms = LinExpr::new().term(run[i], a.step_mem / mem_scale);
            if j == 1 {
                // mEnd_{i,0} = fm*run (Eq. 7)
                ms = ms.term(run[i], a.fixed_mem / mem_scale);
            } else {
                ms = ms.term(mend[i][j - 2], 1.0);
            }
            if let Some(av) = var_at(&analysis[i], j) {
                ms = ms.term(av, a.compute_mem / mem_scale);
            }
            if let Some(ov) = var_at(&output[i], j) {
                ms = ms.term(ov, a.output_mem / mem_scale);
            }
            mstart_exprs[i].push(ms.clone());
            // mEnd_{i,j} big-M linkage
            let me = mend[i][j - 1];
            if let Some(ov) = var_at(&output[i], j) {
                // me >= ms - M*o ; me <= ms + M*o
                m.add_con(
                    LinExpr::var(me).add_expr(&ms.clone().scale(-1.0)).term(ov, big),
                    Cmp::Ge,
                    0.0,
                );
                m.add_con(
                    LinExpr::var(me).add_expr(&ms.clone().scale(-1.0)).term(ov, -big),
                    Cmp::Le,
                    0.0,
                );
                // me >= fm*run - M*(1-o) ; me <= fm*run + M*(1-o)
                m.add_con(
                    LinExpr::var(me)
                        .term(run[i], -a.fixed_mem / mem_scale)
                        .term(ov, -big),
                    Cmp::Ge,
                    -big,
                );
                m.add_con(
                    LinExpr::var(me)
                        .term(run[i], -a.fixed_mem / mem_scale)
                        .term(ov, big),
                    Cmp::Le,
                    big,
                );
            } else {
                // no output possible at j: me = ms
                let mut eq = LinExpr::var(me);
                eq = eq.add_expr(&ms.scale(-1.0));
                m.add_con(eq, Cmp::Eq, 0.0);
            }
        }
    }
    // Σ_i mStart_{i,j} <= mth (Eq. 8)
    if problem
        .analyses
        .iter()
        .any(|a| a.fixed_mem > 0.0 || a.step_mem > 0.0 || a.compute_mem > 0.0 || a.output_mem > 0.0)
    {
        for j in 1..=steps {
            let mut total = LinExpr::new();
            for exprs in &mstart_exprs {
                total = total.add_expr(&exprs[j - 1]);
            }
            m.add_con(total, Cmp::Le, problem.resources.mem_threshold / mem_scale);
        }
    }

    (
        m,
        ExactVars {
            run,
            analysis,
            output,
            mend,
        },
    )
}

/// Maps a concrete [`Schedule`] onto the exact model's variable space, for
/// warm-starting a re-solve via [`milp::solve_with_hint`].
///
/// Analysis steps the formulation cannot represent (`j < itv`, or beyond
/// the horizon) are dropped, along with their outputs; `run_i` is set only
/// when at least one representable step survives. The `mEnd` continuous
/// variables are filled by replaying Eqs. 5–7 in floating point over the
/// *kept* decisions, in the model's [`mem_scale`] units. The result is a
/// candidate, not a guarantee: if the drops (or a cadence constraint the
/// clipped schedule no longer meets) make the point infeasible, the solver
/// simply ignores the hint.
pub fn schedule_hint(
    problem: &ScheduleProblem,
    model: &Model,
    vars: &ExactVars,
    schedule: &Schedule,
) -> Vec<f64> {
    let steps = problem.resources.steps;
    let scale = mem_scale(problem);
    let mut values = vec![0.0; model.num_vars()];
    for (i, s) in schedule
        .per_analysis
        .iter()
        .enumerate()
        .take(problem.len())
    {
        let a = &problem.analyses[i];
        let itv = a.min_interval.max(1);
        let runs: Vec<usize> = s
            .analysis_steps()
            .iter()
            .copied()
            .filter(|&j| j >= itv && j <= steps)
            .collect();
        let outs: Vec<usize> = s
            .output_steps()
            .iter()
            .copied()
            .filter(|&j| runs.binary_search(&j).is_ok())
            .collect();
        if runs.is_empty() {
            continue;
        }
        values[vars.run[i].index()] = 1.0;
        for &j in &runs {
            values[vars.analysis[i][j - itv].1.index()] = 1.0;
        }
        for &j in &outs {
            values[vars.output[i][j - itv].1.index()] = 1.0;
        }
        if !vars.mend[i].is_empty() {
            let mut mend_prev = a.fixed_mem / scale; // Eq. 7 seed
            for j in 1..=steps {
                let mut mstart = mend_prev + a.step_mem / scale;
                if runs.binary_search(&j).is_ok() {
                    mstart += a.compute_mem / scale;
                }
                let out_here = outs.binary_search(&j).is_ok();
                if out_here {
                    mstart += a.output_mem / scale;
                }
                let me = if out_here { a.fixed_mem / scale } else { mstart };
                values[vars.mend[i][j - 1].index()] = me;
                mend_prev = me;
            }
        }
    }
    values
}

/// Extracts a [`Schedule`] from a solved exact model.
pub fn extract_schedule(
    problem: &ScheduleProblem,
    vars: &ExactVars,
    sol: &milp::Solution,
) -> Schedule {
    let mut schedule = Schedule::empty(problem.len());
    for i in 0..problem.len() {
        let asteps: Vec<usize> = vars.analysis[i]
            .iter()
            .filter(|&&(_, v)| sol.is_one(v))
            .map(|&(j, _)| j)
            .collect();
        let osteps: Vec<usize> = vars.output[i]
            .iter()
            .filter(|&&(_, v)| sol.is_one(v))
            .map(|&(j, _)| j)
            .collect();
        schedule.per_analysis[i] = AnalysisSchedule::new(asteps, osteps);
    }
    schedule
}

/// A solved model, read back as the schedule its optimum describes.
#[derive(Debug, Clone)]
pub struct Solved {
    /// The concrete schedule (extracted, or placed from optimal counts).
    pub schedule: Schedule,
    /// The solver's objective value (Eq. 1) — a float sum over the model;
    /// the exact one is [`certify::replay()`]'s of `schedule`.
    pub objective: f64,
    /// Telemetry of the underlying MILP solve ([`SolveStats::default`]
    /// when there was nothing to solve).
    pub stats: SolveStats,
}

/// Solves the exact time-indexed formulation.
///
/// An `incumbent` — typically the not-yet-run tail of the current schedule
/// during a mid-run reschedule — warm-starts branch & bound through
/// [`schedule_hint`] + [`milp::solve_with_hint`]; an infeasible one is
/// ignored and the optimum is unaffected either way. Without one this is
/// [`milp::solve`] on [`build_exact`]'s model.
pub fn solve_exact(
    problem: &ScheduleProblem,
    opts: &SolveOptions,
    incumbent: Option<&Schedule>,
) -> Result<Solved, SolveError> {
    problem
        .validate()
        .map_err(|e| SolveError::BadModel(e.to_string()))?;
    let (model, vars) = build_exact(problem);
    let sol = match incumbent {
        Some(s) => milp::solve_with_hint(&model, opts, &schedule_hint(problem, &model, &vars, s))?,
        None => milp::solve(&model, opts)?,
    };
    Ok(Solved {
        schedule: extract_schedule(problem, &vars, &sol),
        objective: sol.objective,
        stats: sol.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, ResourceConfig};

    fn opts() -> SolveOptions {
        // every test below uses integer weights/counts, so the objective is
        // integral and a sub-1 absolute gap is still exact — it prunes the
        // plateaus of fractional big-M nodes that sit between the integer
        // optimum and optimum+1
        SolveOptions {
            abs_gap: 0.999,
            ..SolveOptions::default()
        }
    }

    #[test]
    fn single_cheap_analysis_runs_at_max_frequency() {
        // 20 steps, itv 5 => at most 4 analyses; budget ample
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(1.0, 0.0)
                .with_interval(5)],
            ResourceConfig::from_total_threshold(20, 100.0, 1e9, 1e9),
        )
        .unwrap();
        let Solved {
            schedule: s,
            objective: obj,
            ..
        } = solve_exact(&p, &opts(), None).unwrap();
        assert_eq!(s.per_analysis[0].count(), 4);
        assert_eq!(obj.round(), 5.0); // 1 (|A|) + 4 (w=1 count)
        assert!(s.per_analysis[0].min_gap().unwrap_or(usize::MAX) >= 5);
        // first analysis only after itv steps have elapsed
        assert!(*s.per_analysis[0].analysis_steps().first().unwrap() >= 5);
    }

    #[test]
    fn time_budget_limits_count() {
        // budget of 2.5 s, each analysis costs 1 s => 2 analyses max
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(1.0, 0.0)
                .with_interval(2)],
            ResourceConfig::from_total_threshold(10, 2.5, 1e9, 1e9),
        )
        .unwrap();
        let s = solve_exact(&p, &opts(), None).unwrap().schedule;
        assert_eq!(s.per_analysis[0].count(), 2);
    }

    #[test]
    fn fixed_cost_can_evict_an_analysis() {
        // analysis b's fixed time alone exceeds the budget; a fits
        let p = ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a").with_compute(0.1, 0.0).with_interval(5),
                AnalysisProfile::new("b")
                    .with_fixed(100.0, 0.0)
                    .with_compute(0.1, 0.0)
                    .with_interval(5),
            ],
            ResourceConfig::from_total_threshold(10, 5.0, 1e9, 1e9),
        )
        .unwrap();
        let s = solve_exact(&p, &opts(), None).unwrap().schedule;
        assert!(s.per_analysis[0].count() > 0);
        assert_eq!(s.per_analysis[1].count(), 0, "b must be excluded");
    }

    #[test]
    fn weights_prioritize_analyses() {
        // both cost 1 s; budget fits 3 runs total; b has weight 5
        let p = ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a").with_compute(1.0, 0.0).with_interval(4),
                AnalysisProfile::new("b")
                    .with_compute(1.0, 0.0)
                    .with_interval(4)
                    .with_weight(5.0),
            ],
            ResourceConfig::from_total_threshold(12, 3.0, 1e9, 1e9),
        )
        .unwrap();
        let s = solve_exact(&p, &opts(), None).unwrap().schedule;
        // b should win the contested slots: 3 for b beats 3 for a
        assert_eq!(s.per_analysis[1].count(), 3);
        assert!(s.per_analysis[0].count() == 0);
    }

    #[test]
    fn output_cadence_forced() {
        // output_every = 1 forces one output per analysis step, each output
        // costs 1 s; budget 4 s, analysis cost 1 s => 2 analyses (2+2=4)
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(1.0, 0.0)
                .with_output(1.0, 0.0, 1)
                .with_interval(2)],
            ResourceConfig::from_total_threshold(10, 4.0, 1e9, 1e9),
        )
        .unwrap();
        let s = solve_exact(&p, &opts(), None).unwrap().schedule;
        assert_eq!(s.per_analysis[0].count(), 2);
        assert_eq!(s.per_analysis[0].output_count(), 2);
        assert!(crate::validate_schedule(&p, &s).is_feasible());
    }

    #[test]
    fn no_output_when_cadence_zero() {
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(0.1, 0.0)
                .with_interval(3)],
            ResourceConfig::from_total_threshold(9, 10.0, 1e9, 1e9),
        )
        .unwrap();
        let s = solve_exact(&p, &opts(), None).unwrap().schedule;
        assert!(s.per_analysis[0].count() > 0);
        assert_eq!(s.per_analysis[0].output_count(), 0);
    }

    #[test]
    fn memory_threshold_excludes_hungry_analysis() {
        // b needs 10 GB at each analysis step but only 1 GB is available
        let p = ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a").with_compute(0.1, 0.0).with_interval(4),
                AnalysisProfile::new("b")
                    .with_compute(0.1, 10e9)
                    .with_interval(4),
            ],
            ResourceConfig::from_total_threshold(8, 10.0, 1e9, 1e9),
        )
        .unwrap();
        let s = solve_exact(&p, &opts(), None).unwrap().schedule;
        assert!(s.per_analysis[0].count() > 0);
        assert_eq!(s.per_analysis[1].count(), 0);
    }

    #[test]
    fn step_memory_accumulates_until_output() {
        // im = 1 GB/step accumulating; mth = 5 GB; without outputs the
        // analysis would blow the cap by step 6 => infeasible to run it
        // without outputs, feasible with outputs resetting the buffer.
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("temporal")
                .with_per_step(0.0, 1e9)
                .with_compute(0.1, 0.0)
                .with_output(0.1, 0.0, 1)
                .with_interval(2)],
            ResourceConfig::from_total_threshold(12, 100.0, 5e9, 1e9),
        )
        .unwrap();
        let s = solve_exact(&p, &opts(), None).unwrap().schedule;
        let a = &s.per_analysis[0];
        assert!(a.count() > 0, "schedule must include the analysis");
        assert!(a.output_count() > 0, "outputs are required to reset memory");
        // no gap between consecutive outputs (or from start) may exceed 5
        let mut last = 0usize;
        for &o in a.output_steps() {
            assert!(o - last <= 5, "memory would exceed cap between {last} and {o}");
            last = o;
        }
    }

    #[test]
    fn hinted_exact_solve_accepts_the_incumbent_and_matches_cold() {
        // memory recursion active, so the mEnd half of the hint is exercised
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("temporal")
                .with_per_step(0.0, 1e9)
                .with_compute(0.1, 0.0)
                .with_output(0.1, 0.0, 1)
                .with_interval(2)],
            ResourceConfig::from_total_threshold(12, 100.0, 5e9, 1e9),
        )
        .unwrap();
        let Solved {
            schedule: cold_s,
            objective: cold_obj,
            ..
        } = solve_exact(&p, &opts(), None).unwrap();
        let Solved {
            schedule: hot_s,
            objective: hot_obj,
            stats,
        } = solve_exact(&p, &opts(), Some(&cold_s)).unwrap();
        assert_eq!(cold_obj.to_bits(), hot_obj.to_bits());
        assert_eq!(cold_s, hot_s);
        // the hint (the cold optimum itself) must be the first incumbent,
        // offered before any node was explored
        let first = stats.incumbent_updates.first().expect("incumbent event");
        assert_eq!(first.node, 0);
        assert_eq!(first.objective.to_bits(), cold_obj.to_bits());
    }

    #[test]
    fn hint_with_unrepresentable_steps_degrades_gracefully() {
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(1.0, 0.0)
                .with_interval(5)],
            ResourceConfig::from_total_threshold(20, 100.0, 1e9, 1e9),
        )
        .unwrap();
        // steps 2 and 3 are below itv=5 and don't exist in the model; the
        // hint keeps only step 10 and the solve still reaches the optimum
        let mut bad = Schedule::empty(1);
        bad.per_analysis[0] = AnalysisSchedule::new(vec![2, 3, 10], vec![]);
        let (model, vars) = build_exact(&p);
        let values = schedule_hint(&p, &model, &vars, &bad);
        assert_eq!(values[vars.run[0].index()], 1.0);
        assert_eq!(values[vars.analysis[0][10 - 5].1.index()], 1.0);
        assert_eq!(values.iter().filter(|&&v| v != 0.0).count(), 2);
        let Solved {
            schedule: s,
            objective: obj,
            ..
        } = solve_exact(&p, &opts(), Some(&bad)).unwrap();
        assert_eq!(s.per_analysis[0].count(), 4);
        assert_eq!(obj.round(), 5.0);
    }

    #[test]
    fn empty_problem_yields_empty_schedule() {
        let p = ScheduleProblem::new(vec![], ResourceConfig::from_total_threshold(5, 1.0, 1.0, 1.0))
            .unwrap();
        let Solved { schedule: s, objective: obj, .. } = solve_exact(&p, &opts(), None).unwrap();
        assert!(s.per_analysis.is_empty());
        assert_eq!(obj, 0.0);
    }
}

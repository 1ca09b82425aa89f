//! Count-based reformulation of the scheduling MILP.
//!
//! # Why it is equivalent
//!
//! The exact formulation's time constraint (Eq. 4) telescopes to a function
//! of the *counts* only: `Σ_i (ft_i + Steps·it_i)·run_i + ct_i·k_i +
//! ot_i·q_i <= cth·Steps`, where `k_i = |C_i|` and `q_i = |O_i|`. The
//! interval constraint (Eq. 9) admits any `k_i <= ⌊Steps/itv_i⌋` via even
//! placement, and the objective (Eq. 1) depends only on `run_i` and `k_i`.
//! Only the per-step memory constraint (Eq. 8) depends on *positions*; the
//! aggregate model bounds each analysis's peak memory by the peak reached
//! under the even placement that [`crate::placement`] will emit, which is
//! **conservative**: any count vector accepted here maps to a concrete
//! schedule whose step-by-step memory the [`crate::validate`] module then
//! re-certifies against Eqs. 5–8. The reduction is therefore certified
//! per-instance rather than assumed.
//!
//! For an analysis with accumulating memory — per-step state (`im > 0`)
//! or compute buffers (`cm > 0`), both of which Eq. 6 frees only at
//! output steps — the peak between resets depends on the output spacing
//! `Steps/q_i`, nonlinear in `q_i`. Because the paper's instances have
//! small `k_max = ⌊Steps/itv⌋` (10 for `Steps=1000, itv=100`), we
//! linearize exactly with a unary ("SOS1-style") expansion over the
//! possible `(k, q)` output counts when `k_max <= EXPANSION_LIMIT`, and
//! fall back to the safe worst-case (`im·Steps + cm·k_max`) bound above
//! that. (The differential fuzz harness caught an earlier version that
//! took `fm + cm + om` as the peak whenever `im == 0` — wrong as soon as
//! `cm > 0` buffers pile up across sparse outputs.)

use insitu_types::{Schedule, ScheduleProblem};
use milp::{Cmp, LinExpr, Model, Sense, SolveError, SolveOptions, SolveStats, Var};

use crate::formulation::Solved;
use crate::placement::place_schedule;

/// Above this `k_max` the unary memory expansion is replaced by the
/// conservative whole-run accumulation bound.
pub const EXPANSION_LIMIT: usize = 64;

/// Peak memory of analysis `i` under the even placement that
/// [`crate::placement::place_schedule`] will emit for counts `(k, q)`,
/// computed by simulating the Eq. 5–7 recursion on the placed positions —
/// exact, so the aggregate model's memory constraint matches what the
/// validator will later check.
pub fn peak_memory(problem: &ScheduleProblem, i: usize, k: usize, q: usize) -> f64 {
    crate::placement::exact_peak_memory(problem, i, k, q)
}

/// Per analysis: run binary; unary selection y_{i,(k,q)} over feasible
/// (k, q) pairs when small, otherwise integer k, q with linear bounds.
struct PerAnalysis {
    run: Var,
    /// `Some(pairs)` when unary-expanded: (k, q, y-var).
    unary: Option<Vec<(usize, usize, Var)>>,
    /// `Some((k, q))` when integer-modelled.
    ints: Option<(Var, Var)>,
}

impl PerAnalysis {
    /// `k_i` (analysis count) as a linear expression over the model vars.
    fn k_expr(&self) -> LinExpr {
        match (&self.unary, &self.ints) {
            (Some(pairs), _) => LinExpr::sum(pairs.iter().map(|&(k, _, y)| (y, k as f64))),
            (_, Some((k, _))) => LinExpr::var(*k),
            _ => LinExpr::new(),
        }
    }

    /// `q_i` (output count) as a linear expression over the model vars.
    fn q_expr(&self) -> LinExpr {
        match (&self.unary, &self.ints) {
            (Some(pairs), _) => LinExpr::sum(pairs.iter().map(|&(_, q, y)| (y, q as f64))),
            (_, Some((_, q))) => LinExpr::var(*q),
            _ => LinExpr::new(),
        }
    }
}

/// The built (unsolved) aggregate MILP plus the bookkeeping needed to read
/// per-analysis counts back out of a solution vector.
///
/// The model is **pure-integer** (binaries and bounded integer counts
/// only), so besides [`milp::solve`] it can be handed to the enumeration
/// oracle `milp::brute::brute_force` on small instances — the differential
/// fuzz harness exploits exactly this to cross-check branch & bound.
pub struct AggregateModel {
    /// The count-based MILP (Eqs. 1, 4, 8-peak; Eq. 9 folded into bounds).
    pub model: Model,
    per_analysis: Vec<PerAnalysis>,
}

impl AggregateModel {
    /// Inverse of [`Self::counts_from`] composed with placement: maps a
    /// schedule's per-analysis counts onto a full model-variable vector,
    /// for warm-starting a re-solve via [`milp::solve_with_hint`]. Counts
    /// that the model cannot represent — no matching `(k, q)` pair in a
    /// unary expansion, or an analysis with `k_max == 0` — leave that
    /// analysis inactive in the hint (which is always representable); an
    /// altogether infeasible hint is simply ignored by the solver.
    pub fn hint_values(&self, incumbent: &Schedule) -> Vec<f64> {
        let mut values = vec![0.0; self.model.num_vars()];
        for (pa, placed) in self.per_analysis.iter().zip(&incumbent.per_analysis) {
            let (k, q) = (placed.count(), placed.output_count());
            if k == 0 {
                continue;
            }
            match (&pa.unary, &pa.ints) {
                (Some(pairs), _) => {
                    if let Some(&(_, _, y)) =
                        pairs.iter().find(|&&(pk, pq, _)| pk == k && pq == q)
                    {
                        values[y.index()] = 1.0;
                        values[pa.run.index()] = 1.0;
                    }
                }
                (_, Some((kv, qv))) => {
                    values[kv.index()] = k as f64;
                    values[qv.index()] = q as f64;
                    values[pa.run.index()] = 1.0;
                }
                _ => {} // kmax == 0: the analysis cannot run at all
            }
        }
        values
    }

    /// Extracts `(counts, output_counts)` from a solution vector of
    /// [`Self::model`] (from any solver — branch & bound or brute force).
    pub fn counts_from(&self, values: &[f64]) -> (Vec<usize>, Vec<usize>) {
        let count = |e: LinExpr| e.eval(values).round() as usize;
        self.per_analysis
            .iter()
            .map(|pa| (count(pa.k_expr()), count(pa.q_expr())))
            .unzip()
    }
}

/// Builds the aggregate model without solving it. See the module docs for
/// the equivalence argument; [`solve_aggregate`] is the convenience
/// wrapper that solves the returned model and places its counts.
pub fn build_aggregate(problem: &ScheduleProblem) -> Result<AggregateModel, SolveError> {
    problem
        .validate()
        .map_err(|e| SolveError::BadModel(e.to_string()))?;
    let steps = problem.resources.steps;
    let n = problem.len();
    let mut m = Model::new(Sense::Maximize);

    let mut pa: Vec<PerAnalysis> = Vec::with_capacity(n);
    for (i, a) in problem.analyses.iter().enumerate() {
        let run = m.binary(&format!("run_{i}"));
        let kmax = a.max_analysis_steps(steps);
        if kmax == 0 {
            // interval longer than the run: the analysis can never fire
            m.add_con(LinExpr::var(run), Cmp::Le, 0.0);
            pa.push(PerAnalysis {
                run,
                unary: None,
                ints: None,
            });
            continue;
        }
        // im and cm both accumulate between outputs (Eq. 6), so either
        // forces the position-aware expansion
        let needs_expansion =
            (a.step_mem > 0.0 || a.compute_mem > 0.0) && kmax <= EXPANSION_LIMIT;
        if needs_expansion {
            // enumerate feasible (k, q): q bounded by k, and q must satisfy
            // the output cadence (output_every*q >= k) when declared.
            let mut pairs = Vec::new();
            for k in 1..=kmax {
                let qmin = if a.output_every > 0 {
                    k.div_ceil(a.output_every)
                } else {
                    0
                };
                let qmax = if a.output_every > 0 { k } else { 0 };
                for q in qmin..=qmax.max(qmin) {
                    let y = m.binary(&format!("y_{i}_{k}_{q}"));
                    pairs.push((k, q, y));
                }
            }
            // Σ y = run
            let mut sel = LinExpr::new().term(run, -1.0);
            for &(_, _, y) in &pairs {
                sel = sel.term(y, 1.0);
            }
            m.add_con(sel, Cmp::Eq, 0.0);
            pa.push(PerAnalysis {
                run,
                unary: Some(pairs),
                ints: None,
            });
        } else {
            let k = m.int_var(&format!("k_{i}"), 0.0, kmax as f64);
            let q = m.int_var(&format!("q_{i}"), 0.0, kmax as f64);
            // k <= kmax * run
            m.add_con(LinExpr::var(k).term(run, -(kmax as f64)), Cmp::Le, 0.0);
            // run <= k (an active analysis must fire at least once)
            m.add_con(LinExpr::var(run).term(k, -1.0), Cmp::Le, 0.0);
            // q <= k
            m.add_con(LinExpr::var(q).term(k, -1.0), Cmp::Le, 0.0);
            if a.output_every > 0 {
                // output_every * q >= k
                m.add_con(
                    LinExpr::var(q).scale(a.output_every as f64).term(k, -1.0),
                    Cmp::Ge,
                    0.0,
                );
            } else {
                m.add_con(LinExpr::var(q), Cmp::Le, 0.0);
            }
            pa.push(PerAnalysis {
                run,
                unary: None,
                ints: Some((k, q)),
            });
        }
    }

    // --- objective (Eq. 1): Σ run_i + Σ w_i k_i ---
    let mut obj = LinExpr::new();
    for (i, a) in problem.analyses.iter().enumerate() {
        obj = obj.term(pa[i].run, 1.0);
        obj = obj.add_expr(&pa[i].k_expr().scale(a.weight));
    }
    m.set_objective(obj);

    // --- time (Eq. 4) ---
    let mut time = LinExpr::new();
    for (i, a) in problem.analyses.iter().enumerate() {
        time = time.term(pa[i].run, a.fixed_time + a.step_time * steps as f64);
        time = time.add_expr(&pa[i].k_expr().scale(a.compute_time));
        time = time.add_expr(&pa[i].q_expr().scale(a.output_time));
    }
    m.add_con(time, Cmp::Le, problem.resources.total_threshold());

    // --- memory (Eq. 8, conservative peak form) ---
    let any_mem = problem.analyses.iter().any(|a| {
        a.fixed_mem > 0.0 || a.step_mem > 0.0 || a.compute_mem > 0.0 || a.output_mem > 0.0
    });
    if any_mem {
        // express the row in units of mth: raw byte coefficients (1e9+)
        // against an O(1) objective wreck the simplex tolerances
        let mem_scale = problem.resources.mem_threshold.max(1.0);
        let mut mem = LinExpr::new();
        for (i, a) in problem.analyses.iter().enumerate() {
            match &pa[i].unary {
                Some(pairs) => {
                    for &(k, q, y) in pairs {
                        mem = mem.term(y, peak_memory(problem, i, k, q) / mem_scale);
                    }
                }
                None => {
                    // no accumulation (im == cm == 0) or the kmax-too-big
                    // fallback: without outputs, im piles up over all
                    // Steps and cm over all kmax analysis executions
                    let kmax = a.max_analysis_steps(steps);
                    let worst = a.fixed_mem
                        + a.output_mem
                        + a.step_mem * steps as f64
                        + a.compute_mem * kmax.max(1) as f64;
                    mem = mem.term(pa[i].run, worst / mem_scale);
                }
            }
        }
        m.add_con(mem, Cmp::Le, problem.resources.mem_threshold / mem_scale);
    }

    Ok(AggregateModel {
        model: m,
        per_analysis: pa,
    })
}

/// Builds and solves the aggregate model and places the optimal counts into
/// a concrete [`Schedule`] (even spacing, outputs distributed across
/// analyses).
///
/// An `incumbent` — typically the not-yet-run tail of the current schedule
/// during a mid-run reschedule — warm-starts branch & bound through
/// [`AggregateModel::hint_values`] + [`milp::solve_with_hint`]; an
/// infeasible one is ignored and the optimum is unaffected either way.
/// Without one this is [`milp::solve`] on [`build_aggregate`]'s model.
pub fn solve_aggregate(
    problem: &ScheduleProblem,
    opts: &SolveOptions,
    incumbent: Option<&Schedule>,
) -> Result<Solved, SolveError> {
    if problem.is_empty() {
        problem
            .validate()
            .map_err(|e| SolveError::BadModel(e.to_string()))?;
        return Ok(Solved {
            schedule: Schedule::empty(0),
            objective: 0.0,
            stats: SolveStats::default(),
        });
    }
    let built = build_aggregate(problem)?;
    let sol = match incumbent {
        Some(s) => milp::solve_with_hint(&built.model, opts, &built.hint_values(s))?,
        None => milp::solve(&built.model, opts)?,
    };
    let (counts, output_counts) = built.counts_from(&sol.values);
    Ok(Solved {
        schedule: place_schedule(problem, &counts, &output_counts),
        objective: sol.objective,
        stats: sol.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, ResourceConfig};

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    fn counts(s: &Solved) -> Vec<usize> {
        s.schedule.per_analysis.iter().map(|a| a.count()).collect()
    }

    fn output_counts(s: &Solved) -> Vec<usize> {
        s.schedule
            .per_analysis
            .iter()
            .map(|a| a.output_count())
            .collect()
    }

    #[test]
    fn paper_scale_instance_solves_fast() {
        // Table-5-like: 4 analyses, 1000 steps, itv = 100 => kmax = 10
        let mk = |name: &str, ct: f64, ot: f64, cm: f64| {
            AnalysisProfile::new(name)
                .with_compute(ct, cm)
                .with_output(ot, cm / 2.0, 1)
                .with_interval(100)
        };
        let p = ScheduleProblem::new(
            vec![
                mk("A1", 0.8, 0.2, 1e9),
                mk("A2", 0.9, 0.2, 1e9),
                mk("A3", 1.2, 0.3, 2e9),
                mk("A4", 8.0, 3.0, 8e9),
            ],
            ResourceConfig::from_total_threshold(1000, 64.7, 100e9, 1e9),
        )
        .unwrap();
        let start = std::time::Instant::now();
        let agg = solve_aggregate(&p, &opts(), None).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        // cheap analyses at max frequency, expensive A4 squeezed
        assert_eq!(counts(&agg)[0], 10);
        assert_eq!(counts(&agg)[1], 10);
        assert_eq!(counts(&agg)[2], 10);
        assert!(counts(&agg)[3] < 10, "A4 got {}", counts(&agg)[3]);
        // well under the paper's 0.17–1.36 s CPLEX time
        assert!(elapsed < 5.0, "solve took {elapsed}s");
    }

    #[test]
    fn counts_map_to_valid_schedule() {
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(1.0, 0.0)
                .with_output(0.1, 0.0, 2)
                .with_interval(10)],
            ResourceConfig::from_total_threshold(100, 50.0, 1e9, 1e9),
        )
        .unwrap();
        let s = solve_aggregate(&p, &opts(), None).unwrap().schedule;
        assert!(s.validate_structure(&p).is_ok());
        assert_eq!(s.per_analysis[0].count(), 10);
        // output every 2 analyses => 5 outputs
        assert_eq!(s.per_analysis[0].output_count(), 5);
        assert!(s.per_analysis[0].min_gap().unwrap() >= 10);
    }

    #[test]
    fn memory_expansion_bounds_accumulation() {
        // im = 1 unit/step, mth allows at most ~250 steps of accumulation:
        // the solver must pick enough outputs to keep the peak under mth.
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("temporal")
                .with_per_step(0.0, 1.0)
                .with_compute(0.1, 0.0)
                .with_output(0.1, 0.0, 1)
                .with_interval(100)],
            ResourceConfig::from_total_threshold(1000, 100.0, 250.0, 1e9),
        )
        .unwrap();
        let agg = solve_aggregate(&p, &opts(), None).unwrap();
        assert!(counts(&agg)[0] > 0);
        let q = output_counts(&agg)[0];
        assert!(q >= 4, "need >= 4 outputs to reset 1000 steps under 250, got {q}");
        let peak = peak_memory(&p, 0, counts(&agg)[0], q);
        assert!(peak <= 250.0 + 1e-9);
    }

    #[test]
    fn zero_kmax_analysis_never_runs() {
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("rare").with_compute(0.1, 0.0).with_interval(50)],
            ResourceConfig::from_total_threshold(10, 100.0, 1e9, 1e9),
        )
        .unwrap();
        let agg = solve_aggregate(&p, &opts(), None).unwrap();
        assert_eq!(counts(&agg)[0], 0);
        assert_eq!(agg.objective, 0.0);
    }

    #[test]
    fn peak_memory_shapes() {
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("x")
                .with_fixed(0.0, 10.0)
                .with_per_step(0.0, 2.0)
                .with_compute(0.0, 5.0)
                .with_output(0.0, 3.0, 1)],
            ResourceConfig::from_total_threshold(100, 1.0, 1e9, 1e9),
        )
        .unwrap();
        assert_eq!(peak_memory(&p, 0, 0, 0), 0.0);
        // no outputs: im accumulates all 100 steps, and the cm buffers of
        // all 5 analysis steps pile up too (Eq. 6 only frees at outputs)
        assert_eq!(peak_memory(&p, 0, 5, 0), 10.0 + 200.0 + 25.0);
        // 4 outputs: gaps of 25
        assert_eq!(peak_memory(&p, 0, 4, 4), 10.0 + 50.0 + 5.0 + 3.0);
    }

    #[test]
    fn built_model_is_pure_integer_and_brute_forceable() {
        // the published model must stay enumerable so the differential
        // fuzz harness can cross-check branch & bound against brute force
        let p = ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a")
                    .with_compute(1.0, 0.0)
                    .with_output(0.5, 0.0, 1)
                    .with_interval(25),
                AnalysisProfile::new("b")
                    .with_compute(2.5, 0.0)
                    .with_output(0.5, 0.0, 1)
                    .with_interval(50)
                    .with_weight(2.0),
            ],
            ResourceConfig::from_total_threshold(100, 8.0, 1e9, 1e9),
        )
        .unwrap();
        let built = build_aggregate(&p).unwrap();
        let brute = milp::brute::brute_force(&built.model, 1_000_000).unwrap();
        let bb = milp::solve(&built.model, &opts()).unwrap();
        assert!(
            (brute.objective - bb.objective).abs() < 1e-6,
            "brute {} vs b&b {}",
            brute.objective,
            bb.objective
        );
        let (k_brute, q_brute) = built.counts_from(&brute.values);
        assert_eq!(k_brute.len(), 2);
        assert!(q_brute.iter().zip(&k_brute).all(|(q, k)| q <= k));
        // and the wrapper extracts the same counts from the b&b solution
        let agg = solve_aggregate(&p, &opts(), None).unwrap();
        let (k_bb, _) = built.counts_from(&bb.values);
        assert_eq!(counts(&agg), k_bb);
    }

    #[test]
    fn hinted_aggregate_solve_round_trips_counts() {
        // memory pressure forces the unary (k, q) expansion, so both hint
        // encodings get exercised against the same instance family
        let p = ScheduleProblem::new(
            vec![
                AnalysisProfile::new("temporal")
                    .with_per_step(0.0, 1.0)
                    .with_compute(0.1, 0.0)
                    .with_output(0.1, 0.0, 1)
                    .with_interval(100),
                AnalysisProfile::new("plain").with_compute(0.5, 0.0).with_interval(100),
            ],
            ResourceConfig::from_total_threshold(1000, 100.0, 250.0, 1e9),
        )
        .unwrap();
        let cold = solve_aggregate(&p, &opts(), None).unwrap();
        // the optimum as hint: identical result, incumbent seeded at node 0
        let hot = solve_aggregate(&p, &opts(), Some(&cold.schedule)).unwrap();
        assert_eq!(counts(&cold), counts(&hot));
        assert_eq!(output_counts(&cold), output_counts(&hot));
        assert_eq!(cold.objective.to_bits(), hot.objective.to_bits());
        let first = hot.stats.incumbent_updates.first().expect("incumbent event");
        assert_eq!(first.node, 0);
        // a nonsense hint (counts beyond kmax) degrades to the cold solve
        let mut beyond = Schedule::empty(2);
        let all: Vec<usize> = (1..=999).collect();
        beyond.per_analysis[0] = insitu_types::AnalysisSchedule::new(all.clone(), all.clone());
        beyond.per_analysis[1] = insitu_types::AnalysisSchedule::new(all, vec![]);
        let silly = solve_aggregate(&p, &opts(), Some(&beyond)).unwrap();
        assert_eq!(counts(&silly), counts(&cold));
        assert_eq!(silly.objective.to_bits(), cold.objective.to_bits());
    }

    #[test]
    fn tighter_budget_monotonically_fewer_analyses() {
        let mk = || {
            vec![
                AnalysisProfile::new("cheap").with_compute(0.5, 0.0).with_interval(100),
                AnalysisProfile::new("dear")
                    .with_compute(5.0, 0.0)
                    .with_output(2.0, 0.0, 1)
                    .with_interval(100),
            ]
        };
        let mut last_total = usize::MAX;
        for budget in [100.0, 50.0, 20.0, 5.0] {
            let p = ScheduleProblem::new(
                mk(),
                ResourceConfig::from_total_threshold(1000, budget, 1e12, 1e9),
            )
            .unwrap();
            let agg = solve_aggregate(&p, &opts(), None).unwrap();
            let total: usize = counts(&agg).iter().sum();
            assert!(total <= last_total, "budget {budget}: {total} > {last_total}");
            last_total = total;
        }
    }
}

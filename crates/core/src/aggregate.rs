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
//!
//! # When the expansion is built
//!
//! Only where memory can decide which `(k, q)` is chosen. Two cases take
//! the integer `k`, `q` form instead, and both are exact:
//!
//! - **A flat peak.** With `output_every == 1` the cadence forces `q = k`,
//!   and with `im == 0` each run's `cm + om` is freed at its own output
//!   step, so the even placement peaks at `fm + cm + om` for every
//!   `k >= 1`. The expansion would carry that one coefficient on every
//!   column; the integer form carries it once, on `run`, at any `k_max`.
//! - **A memory row that cannot bind.** Each analysis's peak is at most
//!   its flat peak, or else the no-reset bound `fm + om + im·Steps +
//!   cm·k_max`. When those bounds sum to at most `mth`, no count vector
//!   can violate the row, so it is left out and every analysis is
//!   integer.
//!
//! The expansion is left for `im > 0`, or `output_every != 1`, under a
//! memory threshold that can bind.

use insitu_types::{AnalysisProfile, Schedule, ScheduleProblem};
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
/// (k, q) pairs where memory can decide the pair and `k_max` is small,
/// otherwise integer k, q with linear bounds.
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

/// Whether analysis `a` peaks at `fm + cm + om` whatever its count: it
/// outputs at every run (`output_every == 1`, so `q = k`) and holds no
/// per-step state (`im == 0`), so Eq. 6 frees what each run added before
/// the next one (see [`crate::placement::exact_peak_memory`]).
fn has_flat_peak(a: &AnalysisProfile) -> bool {
    a.output_every == 1 && a.step_mem == 0.0
}

/// The largest peak memory analysis `a` reaches at any admissible `(k, q)`:
/// exact for a flat peak, otherwise the no-reset bound, with `im` piled up
/// over all Steps and `cm` over all `k_max` runs. An analysis that never
/// outputs (`output_every` = 0) never holds `om`.
fn peak_bound(a: &AnalysisProfile, steps: usize) -> f64 {
    let om = if a.output_every > 0 { a.output_mem } else { 0.0 };
    if has_flat_peak(a) {
        a.fixed_mem + a.compute_mem + om
    } else {
        a.fixed_mem
            + om
            + a.step_mem * steps as f64
            + a.compute_mem * a.max_analysis_steps(steps).max(1) as f64
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
    // the memory row can only exclude a count vector if the analyses'
    // largest peaks together exceed mth; when they cannot, it is dropped
    let mem_binds = problem
        .analyses
        .iter()
        .filter(|a| a.max_analysis_steps(steps) > 0)
        .map(|a| peak_bound(a, steps))
        .sum::<f64>()
        > problem.resources.mem_threshold;

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
        // forces the position-aware expansion, unless memory cannot decide
        // the choice of (k, q)
        let needs_expansion = mem_binds
            && !has_flat_peak(a)
            && (a.step_mem > 0.0 || a.compute_mem > 0.0)
            && kmax <= EXPANSION_LIMIT;
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
    if mem_binds {
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
                None => mem = mem.term(pa[i].run, peak_bound(a, steps) / mem_scale),
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
    use insitu_types::ResourceConfig;
    use proptest::prelude::*;

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
        assert!(crate::validate_schedule(&p, &s).is_feasible());
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

    /// An analysis that outputs at every run frees its memory at every
    /// run. Above `EXPANSION_LIMIT` the model used to charge it `cm·k_max`
    /// anyway, shut it out and stamp the empty schedule PROVED 0, while the
    /// every-step schedule replays feasible at 101.
    #[test]
    fn a_flat_peak_above_the_expansion_limit_is_charged_its_exact_peak() {
        let flat = |name: &str| {
            AnalysisProfile::new(name)
                .with_compute(0.01, 10.0)
                .with_output(0.0, 0.0, 1)
                .with_interval(1)
        };
        // one analysis under mth 50: the memory row cannot bind at all;
        // two under mth 15: it binds, and holds one of them at its peak 10
        for (analyses, mth) in [(vec![flat("a")], 50.0), (vec![flat("a"), flat("b")], 15.0)] {
            let p = ScheduleProblem::new(
                analyses,
                ResourceConfig::from_total_threshold(100, 50.0, mth, 1e9),
            )
            .unwrap();
            assert!(p.analyses[0].max_analysis_steps(100) > EXPANSION_LIMIT);
            // four linking rows per integer pair, the time row, and a
            // memory row only where it binds
            let rows = build_aggregate(&p).unwrap().model.cons.len();
            assert_eq!(rows, 4 * p.len() + 1 + usize::from(mth < 50.0), "mth {mth}");
            let agg = solve_aggregate(&p, &opts(), None).unwrap();
            assert_eq!(agg.objective, 101.0, "mth {mth}");
            assert_eq!(counts(&agg).iter().sum::<usize>(), 100);
            let report = crate::validate_schedule(&p, &agg.schedule);
            assert!(report.is_feasible(), "{:?}", report.violations);
            assert_eq!(report.objective, 101.0);
        }
    }

    /// An analysis with `output_every` = 0 never outputs, so `om` is never
    /// held: its peak is `fm` = 10, under `mth` 20, and the every-10-steps
    /// schedule is optimal at 11. Charged `fm + om` = 60, it was held at
    /// the empty schedule.
    #[test]
    fn an_analysis_that_never_outputs_is_not_charged_its_output_memory() {
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("silent")
                .with_fixed(0.0, 10.0)
                .with_compute(0.1, 0.0)
                .with_output(0.0, 50.0, 0)
                .with_interval(10)],
            ResourceConfig::from_total_threshold(100, 50.0, 20.0, 1e9),
        )
        .unwrap();
        assert_eq!(peak_bound(&p.analyses[0], 100), 10.0);
        let agg = solve_aggregate(&p, &opts(), None).unwrap();
        assert_eq!(agg.objective, 11.0);
        let report = crate::validate_schedule(&p, &agg.schedule);
        assert!(report.is_feasible(), "{:?}", report.violations);
        assert_eq!(report.objective, 11.0);
    }

    /// The models whose memory binds with `output_every > 1` or `im > 0`
    /// keep the expansion: the cm-accumulation regression of the corpus
    /// and the hinted round-trip instance above.
    #[test]
    fn accumulating_memory_that_can_bind_keeps_the_expansion() {
        let text = include_str!("../../../tests/corpus/regression-cm-accumulation.json");
        let doc = insitu_types::json::Value::parse(text).unwrap();
        let insitu_types::json::Value::Object(fields) = doc else {
            panic!("a corpus case is an object")
        };
        let p = <ScheduleProblem as insitu_types::json::FromJson>::from_json(&fields["problem"])
            .unwrap();
        assert!(p.analyses.iter().all(|a| a.output_every == 2));
        let built = build_aggregate(&p).unwrap();
        assert!(built.per_analysis.iter().all(|pa| pa.unary.is_some()));

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
        let built = build_aggregate(&p).unwrap();
        assert!(built.per_analysis[0].unary.is_some(), "im > 0 under a binding mth");
        assert!(built.per_analysis[1].ints.is_some(), "no memory at all");
    }

    /// Analyses in the differential-fuzz generator's ranges (`fm` < 30,
    /// `im` < 3, `cm` < 40, `om` < 20, `output_every` 0..=2, `k_max` 1..=5
    /// over 4..=24 steps), and the same with `k_max` up to 100.
    fn fuzz_shaped() -> impl Strategy<Value = (AnalysisProfile, usize)> {
        let mem =
            |hi: f64| (any::<bool>(), 0.0..hi).prop_map(|(zero, x)| if zero { 0.0 } else { x });
        (
            (4usize..=24, 1usize..=5),
            (4usize..=120, 1usize..=100),
            any::<bool>(),
            (mem(30.0), mem(3.0), mem(40.0), mem(20.0), 0usize..=2),
        )
            .prop_map(|(small, wide, is_small, (fm, im, cm, om, every))| {
                let (steps, kmax) = if is_small { small } else { wide };
                let a = AnalysisProfile::new("a")
                    .with_fixed(0.0, fm)
                    .with_per_step(0.0, im)
                    .with_compute(1.0, cm)
                    .with_output(1.0, om, every)
                    .with_interval((steps / kmax).max(1));
                (a, steps)
            })
    }

    proptest! {
        /// The two premises the integer form rests on, against the Eq. 5–7
        /// simulation of the even placement: a flat peak is the same at
        /// every count, to the bit, and `peak_bound` is at least the peak
        /// of every admissible `(k, q)`. The simulation adds `im` once a
        /// step where the bound multiplies it by Steps, so the two round
        /// apart by a few ulps; the bound is held to 1e-12 relative, a
        /// thousandth of the dust `certify::EXCESS_TOL` forgives.
        #[test]
        fn peak_bound_is_exact_when_flat_and_an_upper_bound_always(
            (a, steps) in fuzz_shaped()
        ) {
            let p = ScheduleProblem::new(
                vec![a],
                ResourceConfig::from_total_threshold(steps, 1.0, 1e9, 1e9),
            )
            .unwrap();
            let a = &p.analyses[0];
            let bound = peak_bound(a, steps);
            for k in 1..=a.max_analysis_steps(steps) {
                if has_flat_peak(a) {
                    prop_assert_eq!(peak_memory(&p, 0, k, k).to_bits(), bound.to_bits(), "k {}", k);
                }
                let qs = match a.output_every {
                    0 => 0..=0,
                    every => k.div_ceil(every)..=k,
                };
                for q in qs {
                    let peak = peak_memory(&p, 0, k, q);
                    prop_assert!(
                        peak <= bound * (1.0 + 1e-12),
                        "(k, q) = ({}, {}): peak {} > bound {}", k, q, peak, bound
                    );
                }
            }
        }
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

//! The in-situ runtime coupler: executes a [`Schedule`] against a live
//! simulation (Figure 1's interleaving, for real).
//!
//! The coupler drives `S` steps of a [`Simulator`], and after each step
//! invokes, per the schedule, each analysis's per-step hook (the `it` cost:
//! e.g. copying state into a history buffer), its analyze hook (`ct`) and
//! its output hook (`ot`). All four phases are wall-clock timed per
//! analysis so a run can be compared against the model's predictions and
//! the threshold the schedule was solved for.
//!
//! [`run_coupled_traced`] additionally emits a **step-indexed run
//! timeline** into an [`obs::TraceHandle`]: one [`SPAN_STEP`] span per
//! simulation step with child spans per analysis execution and output
//! write, each tagged with the analysis index/name and the scheduled
//! `(analysis[i][j], output[i][j])` decision. The resulting
//! [`obs::Timeline`] is the measured half of
//! [`crate::attribution::attribute`]'s predicted-vs-measured drift
//! report; span names and tags are documented in `docs/OBSERVABILITY.md`.

use crate::adaptive::{
    remaining_problem, schedule_tail, splice_schedule, AdaptiveConfig, RescheduleRecord,
    TriggerReason,
};
use crate::advisor::{Advisor, AdvisorOptions};
use insitu_types::json::Value;
use insitu_types::{KernelTelemetry, Schedule, ScheduleProblem};
use perfmodel::Stopwatch;

/// Root span of a traced coupled run (tags: `steps`, `analyses`).
pub const SPAN_RUN: &str = "run.coupled";
/// One simulation step (tag: `step`, 1-based).
pub const SPAN_STEP: &str = "step";
/// The simulator's own advance inside a step (tag: `step`).
pub const SPAN_SIM_ADVANCE: &str = "sim.advance";
/// The simulator's own output write `O_S` (tag: `step`).
pub const SPAN_SIM_OUTPUT: &str = "sim.output";
/// One-time analysis setup, the `ft` bracket (tags: `analysis`, `name`).
pub const SPAN_ANALYSIS_SETUP: &str = "analysis.setup";
/// Per-step analysis hook, the `it` bracket (tags: `step`, `analysis`).
pub const SPAN_ANALYSIS_PER_STEP: &str = "analysis.per_step";
/// Analysis execution, the `ct` bracket (tags: `step`, `analysis`,
/// `name`, and `output` = the scheduled `output[i][j]` decision).
pub const SPAN_ANALYSIS_ANALYZE: &str = "analysis.analyze";
/// Analysis output write, the `ot` bracket (tags: `step`, `analysis`,
/// `name`).
pub const SPAN_ANALYSIS_OUTPUT: &str = "analysis.output";
/// One reschedule attempt of the adaptive coupler, wrapping the mid-run
/// re-solve and (on adoption) the setup of newly activated analyses
/// (tags: `step`, `reason`, `solve_ms`, `adopted`).
pub const SPAN_RESCHEDULE: &str = "reschedule";
/// Instantaneous event emitted per reschedule attempt, carrying the full
/// `reschedule/v1` payload as tags (see `docs/ADAPTIVE.md`).
pub const EVENT_RESCHEDULE: &str = "reschedule";

/// A simulation that can be advanced one time step at a time.
pub trait Simulator {
    /// The state handed to analyses (particle store, mesh, ...).
    type State;

    /// Read access to the current state.
    fn state(&self) -> &Self::State;

    /// Advances the simulation by one time step.
    fn advance(&mut self);

    /// Writes the simulation's own output (`O_S` in Figure 1).
    fn write_output(&mut self) {}

    /// The simulator's accumulated per-kernel telemetry, if it records
    /// any. The proxies (`mdsim::System`, `amrsim::FlashSim`) return
    /// their `KernelTelemetry`; the coupler snapshots it before the run
    /// and attributes the delta to [`RunReport::kernel_telemetry`], so
    /// per-kernel cost attribution works even with tracing disabled.
    fn kernel_telemetry(&self) -> Option<&KernelTelemetry> {
        None
    }
}

/// An in-situ analysis attached to a simulation with state `S`.
pub trait Analysis<S> {
    /// Display name (matched against the problem's profile names).
    fn name(&self) -> &str;

    /// One-time setup at simulation start (the `ft`/`fm` cost).
    fn setup(&mut self, _state: &S) {}

    /// Called after *every* simulation step while the analysis is active
    /// (the `it`/`im` cost, e.g. appending to a history buffer).
    fn per_step(&mut self, _state: &S) {}

    /// The analysis computation itself (the `ct`/`cm` cost).
    fn analyze(&mut self, state: &S);

    /// Writes the analysis results (the `ot`/`om` cost) and frees buffers.
    fn output(&mut self, _state: &S) {}
}

/// Coupler configuration.
#[derive(Debug, Clone)]
pub struct CouplerConfig {
    /// Number of simulation steps to run.
    pub steps: usize,
    /// Simulation output cadence (`O_S` every this many steps; 0 = never).
    pub sim_output_every: usize,
}

/// Measured wall-clock cost of one analysis across a coupled run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisTimes {
    /// Analysis name.
    pub name: String,
    /// Setup bracket (seconds).
    pub setup: f64,
    /// Sum of per-step brackets.
    pub per_step: f64,
    /// Sum of analyze brackets.
    pub analyze: f64,
    /// Sum of output brackets.
    pub output: f64,
    /// Number of analyze invocations.
    pub analyze_count: usize,
    /// Number of output invocations.
    pub output_count: usize,
}

impl AnalysisTimes {
    /// Total in-situ overhead attributable to this analysis: the sum of
    /// its four measured brackets, `setup + per_step + analyze + output`
    /// (the wall-clock counterparts of the model's `ft + Σit + Σct +
    /// Σot`).
    ///
    /// # Examples
    ///
    /// ```
    /// use insitu_core::runtime::AnalysisTimes;
    /// let t = AnalysisTimes {
    ///     setup: 1.0,
    ///     per_step: 0.5,
    ///     analyze: 2.0,
    ///     output: 0.25,
    ///     ..Default::default()
    /// };
    /// assert_eq!(t.total(), 3.75);
    /// assert_eq!(AnalysisTimes::default().total(), 0.0);
    /// ```
    pub fn total(&self) -> f64 {
        self.setup + self.per_step + self.analyze + self.output
    }
}

/// Result of a coupled run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Pure simulation time (stepping + simulation output).
    pub sim_time: f64,
    /// Per-analysis measured costs, parallel to the analyses slice.
    pub analysis_times: Vec<AnalysisTimes>,
    /// Per-kernel cost attribution: the simulator's kernel telemetry
    /// accumulated *during this run* (the delta against its pre-run
    /// state). Empty when the simulator records none
    /// ([`Simulator::kernel_telemetry`] returns `None`).
    pub kernel_telemetry: KernelTelemetry,
}

impl RunReport {
    /// Total in-situ analysis overhead across all analyses.
    pub fn total_analysis_time(&self) -> f64 {
        self.analysis_times.iter().map(AnalysisTimes::total).sum()
    }

    /// Analysis overhead as a fraction of simulation time:
    /// `total_analysis_time / sim_time`, the measured counterpart of the
    /// paper's 10%-threshold target. A degenerate run with zero (or
    /// negative-noise) simulation time reports `0.0` rather than
    /// NaN/infinity, so downstream tables and JSON stay finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use insitu_core::runtime::{AnalysisTimes, RunReport};
    /// use insitu_types::KernelTelemetry;
    /// let mut report = RunReport {
    ///     sim_time: 10.0,
    ///     analysis_times: vec![AnalysisTimes { analyze: 1.0, ..Default::default() }],
    ///     kernel_telemetry: KernelTelemetry::new(),
    /// };
    /// assert_eq!(report.overhead_fraction(), 0.1);
    /// // zero-simulation-time guard: an empty run is 0.0, not NaN
    /// report.sim_time = 0.0;
    /// assert_eq!(report.overhead_fraction(), 0.0);
    /// ```
    pub fn overhead_fraction(&self) -> f64 {
        if self.sim_time > 0.0 {
            self.total_analysis_time() / self.sim_time
        } else {
            0.0
        }
    }

    /// Exports the run's measured costs into an [`obs::Registry`], one
    /// histogram observation per run each: `run.sim_s`, `run.analysis_s`
    /// and `run.analysis.<name>.{setup_s, per_step_s, analyze_s, output_s}`
    /// per analysis, next to its `analyze_count` / `output_count`
    /// counters, plus the per-kernel attribution under `run.kernel.*`.
    pub fn export_into(&self, registry: &obs::Registry) {
        registry.observe_hist("run.sim_s", self.sim_time);
        registry.observe_hist("run.analysis_s", self.total_analysis_time());
        for t in &self.analysis_times {
            registry.observe_hist(&format!("run.analysis.{}.setup_s", t.name), t.setup);
            registry.observe_hist(&format!("run.analysis.{}.per_step_s", t.name), t.per_step);
            registry.observe_hist(&format!("run.analysis.{}.analyze_s", t.name), t.analyze);
            registry.observe_hist(&format!("run.analysis.{}.output_s", t.name), t.output);
            registry.add(
                &format!("run.analysis.{}.analyze_count", t.name),
                t.analyze_count as u64,
            );
            registry.add(
                &format!("run.analysis.{}.output_count", t.name),
                t.output_count as u64,
            );
        }
        self.kernel_telemetry.export_into("run.kernel", registry);
    }
}

/// Runs `sim` for `cfg.steps` steps with `analyses` coupled in-situ
/// according to `schedule`.
///
/// Analyses whose schedule entry is empty are fully inactive (no setup, no
/// per-step cost) — exactly the `run_i = 0` semantics of the formulation.
///
/// Equivalent to [`run_coupled_traced`] with a disabled trace handle
/// (spans cost nothing in that case).
pub fn run_coupled<Sim: Simulator>(
    sim: &mut Sim,
    analyses: &mut [Box<dyn Analysis<Sim::State> + '_>],
    schedule: &Schedule,
    cfg: &CouplerConfig,
) -> RunReport {
    run_coupled_traced(sim, analyses, schedule, cfg, &obs::TraceHandle::disabled())
}

/// [`run_coupled`] plus a step-indexed run timeline emitted into `trace`.
///
/// The span tree (names are the `SPAN_*` constants in this module):
///
/// ```text
/// run.coupled                       tags: steps, analyses
/// ├─ analysis.setup                 tags: analysis, name        (per active analysis)
/// └─ step                           tags: step                  (per simulation step)
///    ├─ sim.advance                 tags: step
///    ├─ sim.output                  tags: step                  (at the O_S cadence)
///    ├─ analysis.per_step           tags: step, analysis        (per active analysis)
///    ├─ analysis.analyze            tags: step, analysis, name, output
///    └─ analysis.output             tags: step, analysis, name
/// ```
///
/// `analysis.analyze` / `analysis.output` spans exist exactly where the
/// schedule sets `analysis[i][j]` / `output[i][j]`, so the timeline *is*
/// the executed decision matrix; the `output` tag on the analyze span
/// repeats the scheduled output decision so it survives even if the
/// output span record is dropped under overload. Every child carries its
/// own `step` tag for the same reason.
///
/// The wall-clock report is measured by the same `Stopwatch` brackets as
/// the untraced path — spans are additive instrumentation, not a
/// replacement for the report's timing.
pub fn run_coupled_traced<Sim: Simulator>(
    sim: &mut Sim,
    analyses: &mut [Box<dyn Analysis<Sim::State> + '_>],
    schedule: &Schedule,
    cfg: &CouplerConfig,
    trace: &obs::TraceHandle,
) -> RunReport {
    assert_eq!(
        analyses.len(),
        schedule.per_analysis.len(),
        "one schedule entry per analysis"
    );
    let mut run_span = trace.span(SPAN_RUN);
    run_span.tag("steps", cfg.steps);
    run_span.tag("analyses", analyses.len());
    let mut coupler = Coupler::new(sim, analyses, cfg, trace);
    coupler.setup(schedule);
    for j in 1..=cfg.steps {
        coupler.step(j, schedule);
    }
    drop(run_span);
    coupler.report()
}

/// A coupled run in progress: what it has measured so far, and the two
/// moves that advance it. [`run_coupled_traced`] is `setup` and a loop
/// over `step`; [`run_coupled_adaptive`] is the same loop with its control
/// block between steps, calling `setup` again for each schedule it adopts.
struct Coupler<'a, 'b, Sim: Simulator> {
    sim: &'a mut Sim,
    analyses: &'a mut [Box<dyn Analysis<Sim::State> + 'b>],
    cfg: &'a CouplerConfig,
    trace: &'a obs::TraceHandle,
    times: Vec<AnalysisTimes>,
    /// `run_i` of the schedule being executed.
    active: Vec<bool>,
    /// Analyses whose `setup` hook has run: they hold their fixed
    /// allocation from then on, active or not.
    set_up: Vec<bool>,
    /// Steps each analysis has been active for.
    active_steps: Vec<usize>,
    /// Measured analysis time so far: every bracket of every analysis.
    measured_cum: f64,
    sim_time: f64,
    telemetry_baseline: KernelTelemetry,
}

impl<'a, 'b, Sim: Simulator> Coupler<'a, 'b, Sim> {
    fn new(
        sim: &'a mut Sim,
        analyses: &'a mut [Box<dyn Analysis<Sim::State> + 'b>],
        cfg: &'a CouplerConfig,
        trace: &'a obs::TraceHandle,
    ) -> Self {
        let n = analyses.len();
        Coupler {
            times: analyses
                .iter()
                .map(|a| AnalysisTimes {
                    name: a.name().to_string(),
                    ..AnalysisTimes::default()
                })
                .collect(),
            active: vec![false; n],
            set_up: vec![false; n],
            active_steps: vec![0; n],
            measured_cum: 0.0,
            sim_time: 0.0,
            telemetry_baseline: sim.kernel_telemetry().cloned().unwrap_or_default(),
            sim,
            analyses,
            cfg,
            trace,
        }
    }

    /// Makes `schedule` the one being executed: the analyses it runs are
    /// the active ones from here on, and those among them not set up yet
    /// pay their one-time setup (`ft`) now.
    fn setup(&mut self, schedule: &Schedule) {
        for (i, a) in self.analyses.iter_mut().enumerate() {
            self.active[i] = schedule.per_analysis[i].count() > 0;
            if self.active[i] && !self.set_up[i] {
                let mut span = self.trace.span(SPAN_ANALYSIS_SETUP);
                span.tag("analysis", i);
                span.tag("name", a.name());
                let sw = Stopwatch::start();
                a.setup(self.sim.state());
                self.times[i].setup = sw.elapsed();
                self.measured_cum += self.times[i].setup;
                self.set_up[i] = true;
            }
        }
    }

    /// Simulation step `j` and what `schedule` couples to it, inside one
    /// [`SPAN_STEP`] span.
    fn step(&mut self, j: usize, schedule: &Schedule) {
        let (trace, sim, every) = (self.trace, &mut *self.sim, self.cfg.sim_output_every);
        let mut step_span = trace.span(SPAN_STEP);
        step_span.tag("step", j);

        let sw = Stopwatch::start();
        {
            let mut span = trace.span(SPAN_SIM_ADVANCE);
            span.tag("step", j);
            sim.advance();
        }
        if every > 0 && j.is_multiple_of(every) {
            let mut span = trace.span(SPAN_SIM_OUTPUT);
            span.tag("step", j);
            sim.write_output();
        }
        self.sim_time += sw.elapsed();

        for (i, a) in self.analyses.iter_mut().enumerate() {
            if !self.active[i] {
                continue;
            }
            self.active_steps[i] += 1;
            let sched = &schedule.per_analysis[i];
            let times = &mut self.times[i];
            {
                let mut span = trace.span(SPAN_ANALYSIS_PER_STEP);
                span.tag("step", j);
                span.tag("analysis", i);
                let sw = Stopwatch::start();
                a.per_step(sim.state());
                let dt = sw.elapsed();
                times.per_step += dt;
                self.measured_cum += dt;
            }
            if sched.runs_at(j) {
                let scheduled_output = sched.outputs_at(j);
                {
                    let mut span = trace.span(SPAN_ANALYSIS_ANALYZE);
                    span.tag("step", j);
                    span.tag("analysis", i);
                    span.tag("name", a.name());
                    span.tag("output", scheduled_output);
                    let sw = Stopwatch::start();
                    a.analyze(sim.state());
                    let dt = sw.elapsed();
                    times.analyze += dt;
                    times.analyze_count += 1;
                    self.measured_cum += dt;
                }
                if scheduled_output {
                    let mut span = trace.span(SPAN_ANALYSIS_OUTPUT);
                    span.tag("step", j);
                    span.tag("analysis", i);
                    span.tag("name", a.name());
                    let sw = Stopwatch::start();
                    a.output(sim.state());
                    let dt = sw.elapsed();
                    times.output += dt;
                    times.output_count += 1;
                    self.measured_cum += dt;
                }
            }
        }
    }

    /// The report of a finished run.
    fn report(self) -> RunReport {
        RunReport {
            sim_time: self.sim_time,
            analysis_times: self.times,
            kernel_telemetry: self
                .sim
                .kernel_telemetry()
                .map(|t| t.delta_since(&self.telemetry_baseline))
                .unwrap_or_default(),
        }
    }
}

/// Steps after a reschedule attempt before the budget trigger is checked
/// again, so one slow step cannot thrash the solver.
const COOLDOWN_STEPS: usize = 4;
/// Reschedule attempts per adaptive run, adopted or not.
const MAX_RESCHEDULES: usize = 3;

/// Result of an adaptive coupled run ([`run_coupled_adaptive`]).
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The wall-clock run report, exactly as [`run_coupled`] would build
    /// it. What ran is in the run's timeline and in [`Self::schedule`].
    pub run: RunReport,
    /// The schedule that was actually executed: the static prefix up to
    /// each reschedule point plus every adopted suffix, in absolute
    /// steps. Feed this (not the original static schedule) to
    /// [`crate::attribution::attribute_with_predicted`].
    pub schedule: Schedule,
    /// Every reschedule attempt, adopted or not, in trigger order.
    pub reschedules: Vec<RescheduleRecord>,
    /// The model's cumulative analysis-time series the run was held
    /// against, `predicted[j]` = seconds after step `j` (index 0 = setup
    /// seed). Starts as the static schedule's Eq. 2–4 series; each
    /// adoption splices the re-solved suffix's series in at the measured
    /// baseline.
    pub predicted: Vec<f64>,
}

impl AdaptiveReport {
    /// Number of *adopted* reschedules.
    pub fn adopted_count(&self) -> usize {
        self.reschedules.iter().filter(|r| r.adopted).count()
    }

    /// JSON array of `reschedule/v1` objects, one per attempt.
    pub fn reschedules_json(&self) -> Value {
        Value::Array(self.reschedules.iter().map(RescheduleRecord::to_json).collect())
    }
}

/// [`run_coupled_traced`] wrapped in a model-predictive control loop:
/// executes `schedule`, monitors measured cost against the schedule's
/// pro-rated budget after every step, and when the trigger trips re-solves
/// the MILP for the remaining steps from the *measured* cost prefix and
/// swaps the new schedule in without stopping the simulation. An attempt
/// is followed by 4 steps without one, and a run makes at most 3.
///
/// The control loop (full contract in `docs/ADAPTIVE.md`):
///
/// 1. **Monitor** — accumulate measured setup/per-step/analyze/output
///    time (the same stopwatch brackets as [`run_coupled`]). After step
///    `j`, trip when the measured time since the last adopted schedule
///    exceeds that schedule's pro-rated budget `cth' · (j − j₀)`.
/// 2. **Re-model** — [`remaining_problem`] rebuilds the suffix problem
///    from measured per-call averages and the remaining budget.
/// 3. **Re-solve** — [`Advisor::recommend_remaining`] warm-starts the
///    MILP from the incumbent tail ([`milp::solve_with_hint`]'s
///    parent-basis seeding) so an already-good schedule closes quickly.
/// 4. **Re-certify** — the candidate is replayed with the exact mid-run
///    carry ([`certify::certify_suffix`]); an `Invalid` verdict keeps the
///    incumbent (recorded as a non-adopted attempt).
/// 5. **Swap** — [`splice_schedule`] grafts the suffix in; analyses the
///    new schedule activates for the first time get their `setup` hook
///    (timed, inside the [`SPAN_RESCHEDULE`] span); analyses it
///    deactivates stop paying per-step cost but keep their buffers (the
///    carry accounts for the held memory).
///
/// Every attempt emits a [`SPAN_RESCHEDULE`] span and an
/// [`EVENT_RESCHEDULE`] event tagged with the `reschedule/v1` payload
/// into `trace`, and is recorded in [`AdaptiveReport::reschedules`].
///
/// Determinism: with a fixed simulator/analysis workload, the *decision
/// path* (which schedules are adopted) depends on wall-clock
/// measurements, but each re-solve is deterministic for its inputs at
/// any [`milp::SolveOptions::threads`] count — same remaining problem,
/// same hint, same schedule out.
///
/// Errors only on structural mismatch (schedule/problem/analyses arity,
/// `cfg.steps` ≠ `problem.resources.steps`) or a non-finite model
/// parameter — never because a re-solve failed (those are recorded as
/// non-adopted attempts and the run continues on the incumbent).
pub fn run_coupled_adaptive<Sim: Simulator>(
    sim: &mut Sim,
    analyses: &mut [Box<dyn Analysis<Sim::State> + '_>],
    problem: &ScheduleProblem,
    schedule: &Schedule,
    cfg: &CouplerConfig,
    adaptive: &AdaptiveConfig,
    trace: &obs::TraceHandle,
) -> Result<AdaptiveReport, String> {
    let n = analyses.len();
    if schedule.per_analysis.len() != n || problem.analyses.len() != n {
        return Err(format!(
            "arity mismatch: {} analyses, {} schedule entries, {} profiles",
            n,
            schedule.per_analysis.len(),
            problem.analyses.len()
        ));
    }
    if cfg.steps != problem.resources.steps {
        return Err(format!(
            "coupler runs {} steps but the problem models {}",
            cfg.steps, problem.resources.steps
        ));
    }
    let steps = cfg.steps;
    let advisor = Advisor::new(AdvisorOptions {
        solver: adaptive.solver.clone(),
        ..AdvisorOptions::default()
    });

    let mut cur = schedule.clone();
    let mut predicted: Vec<f64> = certify::replay_time_series(problem, schedule)
        .map_err(|e| format!("predicted series replay failed: {e:?}"))?
        .iter()
        .map(|r| r.to_f64())
        .collect();
    let mut reschedules: Vec<RescheduleRecord> = Vec::new();

    // reset-baseline budget trigger state: the window opens at the start
    // of the last adopted schedule and is judged against *its* pro-rated
    // budget (docs/ADAPTIVE.md)
    let mut base_step = 0usize;
    let mut base_measured = 0.0f64;
    let mut base_rate = problem.resources.step_threshold;
    let mut last_attempt: Option<usize> = None;

    // the whole adaptive run shares one deterministic trace context
    // (instance fingerprint, sequence 0), so its spans land in one lane
    // of the Chrome export and carry ids that reproduce across runs
    let run_ctx = obs::TraceContext::derive(certify::fingerprint(problem).0, 0);
    let _run_ctx_guard = run_ctx.enter();
    let mut run_span = trace.span(SPAN_RUN);
    run_span.tag("steps", steps);
    run_span.tag("analyses", n);
    run_span.tag("trace_id", run_ctx.trace_id_hex());

    let mut coupler = Coupler::new(sim, analyses, cfg, trace);
    coupler.setup(&cur);
    for j in 1..=steps {
        coupler.step(j, &cur);
        let measured_cum = coupler.measured_cum;

        // ---- control loop: evaluate the trigger after step j ----
        if j == steps
            || reschedules.len() >= MAX_RESCHEDULES
            || last_attempt.is_some_and(|last| j < last + COOLDOWN_STEPS)
        {
            continue;
        }
        let over_budget = base_rate.is_finite()
            && measured_cum - base_measured > base_rate * (j - base_step) as f64;
        if !over_budget {
            continue;
        }
        let reason = TriggerReason::Budget;
        let drift = measured_cum - predicted[j];
        last_attempt = Some(j);

        // each attempt gets a derived child context: same lane (trace
        // id), a distinct deterministic span id per attempt ordinal
        let attempt_ctx = run_ctx.child(reschedules.len() as u64 + 1);
        let _attempt_guard = attempt_ctx.enter();
        let mut resched_span = trace.span(SPAN_RESCHEDULE);
        resched_span.tag("step", j);
        resched_span.tag("reason", reason.to_string().as_str());
        resched_span.tag("attempt_span", format!("{:016x}", attempt_ctx.span_id));
        let mut record = RescheduleRecord {
            step: j,
            reason,
            drift,
            measured_cum,
            predicted_cum: predicted[j],
            remaining_steps: steps - j,
            solve_ms: 0.0,
            old_objective: 0.0,
            new_objective: 0.0,
            adopted: false,
            verdict: String::new(),
        };

        let attempt = (|| -> Result<_, String> {
            let rp = remaining_problem(
                problem,
                &coupler.times,
                &coupler.active_steps,
                &coupler.set_up,
                j,
                measured_cum,
            )?;
            let tail = schedule_tail(&cur, j);
            let carry = certify::SuffixCarry {
                held_mem: certify::memory_state_at(problem, &cur, j, &coupler.set_up)
                    .map_err(|e| format!("carry replay failed: {e:?}"))?,
                steps_since_run: cur
                    .per_analysis
                    .iter()
                    .map(|s| {
                        s.analysis_steps()
                            .iter()
                            .rev()
                            .find(|&&r| r <= j)
                            .map(|&r| j - r)
                    })
                    .collect(),
            };
            let old_objective = tail.objective(&rp);
            let sw = Stopwatch::start();
            let outcome = advisor
                .recommend_remaining(&rp, &tail, &carry)
                .map_err(|e| e.to_string());
            let solve_ms = sw.elapsed() * 1e3;
            let out = outcome?;
            let suffix_series = certify::replay_time_series(&rp, &out.schedule)
                .map_err(|e| format!("suffix series replay failed: {e:?}"))?;
            Ok((rp, out, suffix_series, old_objective, solve_ms))
        })();

        match attempt {
            Ok((rp, out, suffix_series, old_objective, solve_ms)) => {
                record.solve_ms = solve_ms;
                record.old_objective = old_objective;
                record.new_objective = out.objective;
                record.adopted = true;
                record.verdict = out.certification.verdict.to_string();

                cur = splice_schedule(&cur, j, &out.schedule);
                // splice the new prediction in at the measured baseline
                // *before* paying new setups: the suffix series' index 0
                // is exactly those analyses' remaining fixed cost
                for (t, r) in suffix_series.iter().enumerate() {
                    predicted[j + t] = measured_cum + r.to_f64();
                }
                base_step = j;
                base_measured = measured_cum;
                base_rate = rp.resources.step_threshold;
                // the suffix schedule decides who is active from here on
                coupler.setup(&out.schedule);
            }
            Err(e) => {
                record.verdict = e;
            }
        }

        resched_span.tag("solve_ms", record.solve_ms);
        resched_span.tag("adopted", record.adopted);
        trace.event(
            EVENT_RESCHEDULE,
            &[
                ("step", record.step.into()),
                ("reason", record.reason.to_string().as_str().into()),
                ("drift", record.drift.into()),
                ("measured_cum", record.measured_cum.into()),
                ("predicted_cum", record.predicted_cum.into()),
                ("remaining_steps", record.remaining_steps.into()),
                ("solve_ms", record.solve_ms.into()),
                ("old_objective", record.old_objective.into()),
                ("new_objective", record.new_objective.into()),
                ("adopted", record.adopted.into()),
                ("verdict", record.verdict.as_str().into()),
            ],
        );
        reschedules.push(record);
    }
    drop(run_span);

    Ok(AdaptiveReport {
        run: coupler.report(),
        schedule: cur,
        reschedules,
        predicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::AnalysisSchedule;

    /// Counts its own steps; state is the current step index.
    struct CounterSim {
        step: usize,
        outputs: usize,
    }
    impl Simulator for CounterSim {
        type State = usize;
        fn state(&self) -> &usize {
            &self.step
        }
        fn advance(&mut self) {
            self.step += 1;
        }
        fn write_output(&mut self) {
            self.outputs += 1;
        }
    }

    /// Records which steps it was invoked at.
    #[derive(Default)]
    struct Recorder {
        name: String,
        per_steps: Vec<usize>,
        analyzed: Vec<usize>,
        outputs: Vec<usize>,
    }
    impl Analysis<usize> for Recorder {
        fn name(&self) -> &str {
            &self.name
        }
        fn per_step(&mut self, state: &usize) {
            self.per_steps.push(*state);
        }
        fn analyze(&mut self, state: &usize) {
            self.analyzed.push(*state);
        }
        fn output(&mut self, state: &usize) {
            self.outputs.push(*state);
        }
    }

    #[test]
    fn coupler_follows_schedule() {
        let mut sim = CounterSim { step: 0, outputs: 0 };
        let mut schedule = Schedule::empty(2);
        schedule.per_analysis[0] = AnalysisSchedule::new(vec![4, 8], vec![8]);
        // analysis 1 inactive
        let mut analyses: Vec<Box<dyn Analysis<usize>>> = vec![
            Box::new(Recorder { name: "a".into(), ..Default::default() }),
            Box::new(Recorder { name: "b".into(), ..Default::default() }),
        ];
        let report = run_coupled(
            &mut sim,
            &mut analyses,
            &schedule,
            &CouplerConfig { steps: 10, sim_output_every: 5 },
        );
        assert_eq!(sim.step, 10);
        assert_eq!(sim.outputs, 2);
        assert_eq!(report.analysis_times[0].analyze_count, 2);
        assert_eq!(report.analysis_times[0].output_count, 1);
        assert_eq!(report.analysis_times[1].analyze_count, 0);
        assert!(report.sim_time >= 0.0);
        assert!(report.total_analysis_time() >= 0.0);
    }

    #[test]
    fn inactive_analyses_never_called() {
        let mut sim = CounterSim { step: 0, outputs: 0 };
        let schedule = Schedule::empty(1);
        let mut analyses: Vec<Box<dyn Analysis<usize>>> =
            vec![Box::new(Recorder { name: "idle".into(), ..Default::default() })];
        let report = run_coupled(
            &mut sim,
            &mut analyses,
            &schedule,
            &CouplerConfig { steps: 5, sim_output_every: 0 },
        );
        assert_eq!(report.analysis_times[0].total(), 0.0);
        assert_eq!(report.analysis_times[0].analyze_count, 0);
    }

    #[test]
    fn per_step_called_every_step_for_active() {
        let mut sim = CounterSim { step: 0, outputs: 0 };
        let mut schedule = Schedule::empty(1);
        schedule.per_analysis[0] = AnalysisSchedule::new(vec![3], vec![]);
        let mut rec = Recorder { name: "a".into(), ..Default::default() };
        {
            let mut analyses: Vec<Box<dyn Analysis<usize>>> = vec![Box::new(&mut rec)];
            run_coupled(
                &mut sim,
                &mut analyses,
                &schedule,
                &CouplerConfig { steps: 6, sim_output_every: 0 },
            );
        }
        assert_eq!(rec.per_steps, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(rec.analyzed, vec![3]);
        assert!(rec.outputs.is_empty());
    }

    impl<S, T: Analysis<S>> Analysis<S> for &mut T {
        fn name(&self) -> &str {
            T::name(self)
        }
        fn setup(&mut self, state: &S) {
            T::setup(self, state)
        }
        fn per_step(&mut self, state: &S) {
            T::per_step(self, state)
        }
        fn analyze(&mut self, state: &S) {
            T::analyze(self, state)
        }
        fn output(&mut self, state: &S) {
            T::output(self, state)
        }
    }

    #[test]
    fn traced_run_emits_the_step_indexed_span_tree() {
        let mut sim = CounterSim { step: 0, outputs: 0 };
        let mut schedule = Schedule::empty(1);
        schedule.per_analysis[0] = AnalysisSchedule::new(vec![2, 4], vec![4]);
        let mut analyses: Vec<Box<dyn Analysis<usize>>> =
            vec![Box::new(Recorder { name: "a".into(), ..Default::default() })];
        let tracer = std::sync::Arc::new(obs::Tracer::with_capacity(256));
        let handle = obs::TraceHandle::new(tracer.clone());
        run_coupled_traced(
            &mut sim,
            &mut analyses,
            &schedule,
            &CouplerConfig { steps: 4, sim_output_every: 2 },
            &handle,
        );
        let tl = tracer.timeline();
        tl.validate().unwrap();
        assert_eq!(tl.dropped, 0);

        // one root, one step span per simulation step, children hooked up
        let root = tl.spans_named(SPAN_RUN).next().expect("root span");
        assert_eq!(root.tag_i64("steps"), Some(4));
        let steps: Vec<_> = tl.spans_named(SPAN_STEP).collect();
        assert_eq!(steps.len(), 4);
        for (k, s) in steps.iter().enumerate() {
            assert_eq!(s.parent, Some(root.id));
            assert_eq!(s.tag_i64("step"), Some(k as i64 + 1));
        }

        // analyze spans exist exactly at the scheduled steps, tagged with
        // the scheduled output decision
        let analyzed: Vec<_> = tl.spans_named(SPAN_ANALYSIS_ANALYZE).collect();
        assert_eq!(
            analyzed.iter().map(|s| s.tag_i64("step")).collect::<Vec<_>>(),
            vec![Some(2), Some(4)]
        );
        assert_eq!(
            analyzed
                .iter()
                .map(|s| s.tag("output").and_then(|v| v.as_bool()))
                .collect::<Vec<_>>(),
            vec![Some(false), Some(true)]
        );
        assert_eq!(tl.spans_named(SPAN_ANALYSIS_OUTPUT).count(), 1);
        assert_eq!(tl.spans_named(SPAN_ANALYSIS_PER_STEP).count(), 4);
        assert_eq!(tl.spans_named(SPAN_SIM_ADVANCE).count(), 4);
        assert_eq!(tl.spans_named(SPAN_SIM_OUTPUT).count(), 2);
        assert_eq!(tl.spans_named(SPAN_ANALYSIS_SETUP).count(), 1);

        // every analyze span is a child of its step span
        for s in &analyzed {
            let parent = tl.spans.iter().find(|p| Some(p.id) == s.parent).unwrap();
            assert_eq!(parent.name, SPAN_STEP);
            assert_eq!(parent.tag_i64("step"), s.tag_i64("step"));
        }
    }

    #[test]
    fn untraced_run_reports_identically_and_emits_nothing() {
        let mk = || {
            let mut schedule = Schedule::empty(1);
            schedule.per_analysis[0] = AnalysisSchedule::new(vec![3], vec![3]);
            schedule
        };
        let mut sim = CounterSim { step: 0, outputs: 0 };
        let mut analyses: Vec<Box<dyn Analysis<usize>>> =
            vec![Box::new(Recorder { name: "a".into(), ..Default::default() })];
        let report = run_coupled(
            &mut sim,
            &mut analyses,
            &mk(),
            &CouplerConfig { steps: 5, sim_output_every: 0 },
        );
        assert_eq!(report.analysis_times[0].analyze_count, 1);
        assert!(report.kernel_telemetry.kernels.is_empty());
    }

    /// A sim that records kernel telemetry, to exercise the attribution
    /// hook.
    struct KernelSim {
        step: usize,
        telemetry: KernelTelemetry,
    }
    impl Simulator for KernelSim {
        type State = usize;
        fn state(&self) -> &usize {
            &self.step
        }
        fn advance(&mut self) {
            self.step += 1;
            self.telemetry.record("toy.step", 0.25, 0.0);
        }
        fn kernel_telemetry(&self) -> Option<&KernelTelemetry> {
            Some(&self.telemetry)
        }
    }

    #[test]
    fn kernel_telemetry_attributed_as_a_run_delta() {
        let mut sim = KernelSim { step: 0, telemetry: KernelTelemetry::new() };
        // pre-run activity (calibration) must not be attributed to the run
        sim.advance();
        sim.advance();
        let mut analyses: Vec<Box<dyn Analysis<usize>>> = vec![];
        let report = run_coupled(
            &mut sim,
            &mut analyses,
            &Schedule::empty(0),
            &CouplerConfig { steps: 3, sim_output_every: 0 },
        );
        let rec = report.kernel_telemetry.get("toy.step").unwrap();
        assert_eq!(rec.calls, 3, "only the run's own calls are attributed");
        assert!((rec.wall_s - 0.75).abs() < 1e-12);
        // ...while the sim's own accumulator keeps the full history
        assert_eq!(sim.telemetry.get("toy.step").unwrap().calls, 5);

        let reg = obs::Registry::new();
        report.export_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("run.kernel.toy.step.calls"), Some(3));
        assert_eq!(snap.hist("run.sim_s").unwrap().count, 1);
        assert_eq!(snap.hist("run.kernel.toy.step.wall_s").unwrap().max, 0.75);
    }

    use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};

    /// Busy-waits a fixed wall-clock time per analyze call.
    struct Spin {
        name: String,
        analyze_s: f64,
    }
    impl Analysis<usize> for Spin {
        fn name(&self) -> &str {
            &self.name
        }
        fn analyze(&mut self, _state: &usize) {
            let sw = Stopwatch::start();
            while sw.elapsed() < self.analyze_s {}
        }
    }

    #[test]
    fn adaptive_run_without_drift_keeps_the_static_schedule() {
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(0.001, 0.0)
                .with_interval(2)],
            // a budget vastly above anything a Recorder can spend
            ResourceConfig::from_total_threshold(10, 10.0, 1e9, 1e9),
        )
        .unwrap();
        let mut schedule = Schedule::empty(1);
        schedule.per_analysis[0] = AnalysisSchedule::new(vec![4, 8], vec![8]);
        let mut sim = CounterSim { step: 0, outputs: 0 };
        let mut analyses: Vec<Box<dyn Analysis<usize>>> =
            vec![Box::new(Recorder { name: "a".into(), ..Default::default() })];
        let report = run_coupled_adaptive(
            &mut sim,
            &mut analyses,
            &p,
            &schedule,
            &CouplerConfig { steps: 10, sim_output_every: 0 },
            &AdaptiveConfig::default(),
            &obs::TraceHandle::disabled(),
        )
        .unwrap();
        assert!(report.reschedules.is_empty());
        assert_eq!(report.schedule, schedule);
        assert_eq!(report.run.analysis_times[0].analyze_count, 2);
        assert_eq!(report.predicted.len(), 11);
        assert_eq!(report.adopted_count(), 0);
    }

    #[test]
    fn adaptive_run_with_both_triggers_off_is_the_static_run() {
        // the default loop over a budget no Recorder can reach: the
        // trigger never trips, so the run is the static one
        let p = ScheduleProblem::new(
            ["a", "idle", "c"]
                .map(|n| AnalysisProfile::new(n).with_compute(0.001, 0.0).with_interval(2))
                .to_vec(),
            ResourceConfig::from_total_threshold(9, 1e6, 1e9, 1e9),
        )
        .unwrap();
        let mut schedule = Schedule::empty(3);
        schedule.per_analysis[0] = AnalysisSchedule::new(vec![2, 4, 8], vec![4, 8]);
        schedule.per_analysis[2] = AnalysisSchedule::new(vec![3, 9], vec![]);
        let cfg = CouplerConfig { steps: 9, sim_output_every: 4 };
        let recorders = || -> Vec<Box<dyn Analysis<usize>>> {
            ["a", "idle", "c"]
                .map(|n| Box::new(Recorder { name: n.into(), ..Default::default() }) as _)
                .into()
        };
        // both runs under the adaptive run's own trace context, so every
        // span of either carries the same trace id
        let ctx = obs::TraceContext::derive(certify::fingerprint(&p).0, 0);
        let run = |adaptive: bool| {
            let tracer = std::sync::Arc::new(obs::Tracer::with_capacity(512));
            let trace = obs::TraceHandle::new(tracer.clone());
            let mut sim = CounterSim { step: 0, outputs: 0 };
            let mut analyses = recorders();
            let report = if adaptive {
                let r = run_coupled_adaptive(
                    &mut sim,
                    &mut analyses,
                    &p,
                    &schedule,
                    &cfg,
                    &AdaptiveConfig::default(),
                    &trace,
                )
                .unwrap();
                assert!(r.reschedules.is_empty());
                assert_eq!(r.schedule, schedule);
                r.run
            } else {
                let _in_ctx = ctx.enter();
                run_coupled_traced(&mut sim, &mut analyses, &schedule, &cfg, &trace)
            };
            assert_eq!((sim.step, sim.outputs), (9, 2));
            // the adaptive run span alone also says which lane it is in
            let shape = tracer
                .timeline()
                .structural_fingerprint()
                .replace(&format!(" trace_id=Str({:?})", ctx.trace_id_hex()), "");
            (report, shape)
        };
        let (fixed, fixed_shape) = run(false);
        let (adaptive, adaptive_shape) = run(true);
        assert_eq!(adaptive_shape, fixed_shape);
        let shape = |r: &RunReport| -> Vec<(String, usize, usize)> {
            r.analysis_times
                .iter()
                .map(|t| (t.name.clone(), t.analyze_count, t.output_count))
                .collect()
        };
        assert_eq!(shape(&adaptive), shape(&fixed));
        assert_eq!(shape(&fixed)[0], ("a".to_string(), 3, 2));
        assert_eq!(shape(&fixed)[1], ("idle".to_string(), 0, 0));
    }

    #[test]
    fn budget_blowout_triggers_an_adopted_reschedule() {
        // modeled at 0.1 ms/analyze, the hog actually spins 5 ms; the
        // first scheduled run blows the 1 ms/step pro-rated budget and
        // the re-solve (measured ct = 5 ms vs 3 ms of remaining budget)
        // must drop the remaining runs
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("hog")
                .with_compute(0.0001, 0.0)
                .with_interval(2)],
            ResourceConfig::from_total_threshold(8, 0.008, 1e9, 1e9),
        )
        .unwrap();
        let mut schedule = Schedule::empty(1);
        schedule.per_analysis[0] = AnalysisSchedule::new(vec![2, 4, 6, 8], vec![]);
        let mut sim = CounterSim { step: 0, outputs: 0 };
        let mut analyses: Vec<Box<dyn Analysis<usize>>> =
            vec![Box::new(Spin { name: "hog".into(), analyze_s: 0.005 })];
        let tracer = std::sync::Arc::new(obs::Tracer::with_capacity(512));
        let report = run_coupled_adaptive(
            &mut sim,
            &mut analyses,
            &p,
            &schedule,
            &CouplerConfig { steps: 8, sim_output_every: 0 },
            &AdaptiveConfig::default(),
            &obs::TraceHandle::new(tracer.clone()),
        )
        .unwrap();
        assert_eq!(report.reschedules.len(), 1);
        let r = &report.reschedules[0];
        assert_eq!(r.step, 2);
        assert_eq!(r.reason, TriggerReason::Budget);
        assert!(r.adopted, "verdict: {}", r.verdict);
        assert_ne!(r.verdict, "INVALID");
        assert!(r.measured_cum > 0.002, "the hog's 5 ms run must show");
        assert!(r.new_objective < r.old_objective);
        // the composite schedule keeps the executed prefix, drops the rest
        assert_eq!(report.schedule.per_analysis[0].analysis_steps(), vec![2]);
        // one spin where the static schedule has four: at the spin's 5 ms
        // floor the static run (>= 20 ms) could not have met the 8 ms
        // budget. The adaptive run's own wall total is not asserted — a
        // loaded host stretches one measured spin past any fixed bound.
        assert_eq!(report.run.analysis_times[0].analyze_count, 1);
        // the reschedule span and event are both in the timeline
        let tl = tracer.timeline();
        let span = tl.spans_named(SPAN_RESCHEDULE).next().expect("span");
        assert_eq!(span.tag_i64("step"), Some(2));
        assert_eq!(span.tag("adopted").and_then(|v| v.as_bool()), Some(true));
        let ev = tl.events_named(EVENT_RESCHEDULE).next().expect("event");
        assert_eq!(ev.tag_i64("step"), Some(2));
        assert_eq!(
            ev.tag("reason").and_then(|v| v.as_str()),
            Some("budget")
        );
        assert!(ev.tag_f64("solve_ms").is_some());
        // every adaptive span/event carries the run's deterministic
        // trace id (fingerprint-derived, so stable across reruns)
        let expected = obs::TraceContext::derive(certify::fingerprint(&p).0, 0).trace_id;
        assert!(tl.spans.iter().all(|s| s.trace_id == Some(expected)));
        assert_eq!(ev.trace_id, Some(expected));
        // the spliced prediction holds the run to the *measured* baseline
        assert!(report.predicted[2] >= 0.005);
        // a reschedule JSON export carries the v1 schema
        let json = report.reschedules_json().to_string_pretty();
        assert!(json.contains("reschedule/v1"));
    }

    #[test]
    #[should_panic(expected = "one schedule entry per analysis")]
    fn arity_mismatch_panics() {
        let mut sim = CounterSim { step: 0, outputs: 0 };
        let schedule = Schedule::empty(2);
        let mut analyses: Vec<Box<dyn Analysis<usize>>> = vec![];
        run_coupled(
            &mut sim,
            &mut analyses,
            &schedule,
            &CouplerConfig { steps: 1, sim_output_every: 0 },
        );
    }
}

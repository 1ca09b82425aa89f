//! The adaptive-vs-static budget-blowout scenario (the deliverable of
//! `docs/ADAPTIVE.md`, reproduction recipe in `EXPERIMENTS.md`).
//!
//! A 40-step run schedules two analyses from a *stale* calibration: the
//! "hog" is modeled at 1 ms/analyze but actually spins 20 ms. The static
//! schedule provably respects the 90 ms budget under the model but blows
//! through it in reality; the adaptive coupler catches the blowout at the
//! first hog run, re-solves for the remaining steps from the measured
//! costs, and finishes within the budget — with the reschedule event in
//! the exported timeline and the adopted schedule certified.

use insitu_core::adaptive::{AdaptiveConfig, TriggerReason};
use insitu_core::advisor::{Advisor, AdvisorOptions};
use insitu_core::runtime::{
    run_coupled_adaptive, run_coupled_traced, Analysis, CouplerConfig, Simulator,
    EVENT_RESCHEDULE,
};
use insitu_core::{attribute, attribute_with_predicted};
use insitu_types::{AnalysisProfile, ResourceConfig, Schedule, ScheduleProblem};
use std::sync::Arc;

const STEPS: usize = 40;
const BUDGET_S: f64 = 0.090;
const HOG_ACTUAL_S: f64 = 0.020;
const LITE_S: f64 = 0.0002;

struct TickSim(usize);
impl Simulator for TickSim {
    type State = usize;
    fn state(&self) -> &usize {
        &self.0
    }
    fn advance(&mut self) {
        self.0 += 1;
    }
}

struct Spin {
    name: &'static str,
    analyze_s: f64,
}
impl Analysis<usize> for Spin {
    fn name(&self) -> &str {
        self.name
    }
    fn analyze(&mut self, _state: &usize) {
        let sw = perfmodel::Stopwatch::start();
        while sw.elapsed() < self.analyze_s {}
    }
}

/// The stale calibration: the hog is modeled 20x cheaper than it runs.
fn modeled_problem() -> ScheduleProblem {
    ScheduleProblem::new(
        vec![
            AnalysisProfile::new("hog")
                .with_compute(0.001, 0.0)
                .with_interval(4),
            AnalysisProfile::new("lite")
                .with_compute(LITE_S, 0.0)
                .with_interval(4),
        ],
        ResourceConfig::from_total_threshold(STEPS, BUDGET_S, 1e9, 1e9),
    )
    .unwrap()
}

fn spinners() -> Vec<Box<dyn Analysis<usize>>> {
    vec![
        Box::new(Spin { name: "hog", analyze_s: HOG_ACTUAL_S }),
        Box::new(Spin { name: "lite", analyze_s: LITE_S }),
    ]
}

fn static_schedule(problem: &ScheduleProblem) -> Schedule {
    let rec = Advisor::default().recommend(problem).expect("solvable");
    assert_eq!(rec.verdict, certify::Verdict::Proved);
    // under the (stale) model both analyses fit at max frequency
    assert_eq!(rec.counts, vec![10, 10], "scenario baseline moved");
    rec.schedule
}

#[test]
fn adaptive_finishes_within_the_budget_the_static_schedule_blows() {
    let problem = modeled_problem();
    let schedule = static_schedule(&problem);
    let cfg = CouplerConfig { steps: STEPS, sim_output_every: 0 };

    // --- static leg: provably fine under the model, broke in reality ---
    let tracer = Arc::new(obs::Tracer::with_capacity(4096));
    let report = run_coupled_traced(
        &mut TickSim(0),
        &mut spinners(),
        &schedule,
        &cfg,
        &obs::TraceHandle::new(tracer.clone()),
    );
    let static_total = report.total_analysis_time();
    assert!(
        static_total > BUDGET_S,
        "static run must blow the {BUDGET_S} s budget, spent {static_total}"
    );
    let drift = attribute(&problem, &schedule, &tracer.timeline()).unwrap();
    assert!(
        drift.per_step.last().unwrap().threshold_violated,
        "static run must end over the pro-rated budget"
    );

    // --- adaptive leg: same workload, same stale model ---
    let tracer = Arc::new(obs::Tracer::with_capacity(4096));
    let adaptive = run_coupled_adaptive(
        &mut TickSim(0),
        &mut spinners(),
        &problem,
        &schedule,
        &cfg,
        &AdaptiveConfig::default(),
        &obs::TraceHandle::new(tracer.clone()),
    )
    .unwrap();

    let adaptive_total = adaptive.run.total_analysis_time();
    assert!(
        adaptive_total <= BUDGET_S,
        "adaptive run must stay within {BUDGET_S} s, spent {adaptive_total}"
    );
    assert!(adaptive.adopted_count() >= 1, "{:?}", adaptive.reschedules);
    let first = &adaptive.reschedules[0];
    assert_eq!(first.step, 4, "the first hog run trips the trigger");
    assert_eq!(first.reason, TriggerReason::Budget);
    assert!(first.adopted);
    assert!(
        first.verdict == "PROVED" || first.verdict == "FEASIBLE-ONLY",
        "adopted schedules must be certified, got {}",
        first.verdict
    );
    // fewer hog runs than the static 10, and the executed prefix is kept
    let hog_runs = &adaptive.schedule.per_analysis[0].analysis_steps;
    assert!(hog_runs.len() < 10, "hog must be throttled: {hog_runs:?}");
    assert_eq!(hog_runs[0], 4);

    // the reschedule event is visible in the exported timeline
    let tl = tracer.timeline();
    tl.validate().expect("well-formed timeline");
    assert!(tl.events_named(EVENT_RESCHEDULE).count() >= 1);
    let json = tl.to_json_string();
    assert!(json.contains("\"reschedule\""));
    // and every reschedule/v1 record re-parses
    let records = adaptive.reschedules_json().to_string_pretty();
    let records = insitu_types::json::Value::parse(&records).expect("records re-parse");
    assert_eq!(
        records.as_array().map(<[_]>::len),
        Some(adaptive.reschedules.len())
    );

    // drift attribution against the *spliced* prediction ends clean
    let drift =
        attribute_with_predicted(&problem, &adaptive.schedule, &tl, &adaptive.predicted).unwrap();
    assert!(
        !drift.per_step.last().unwrap().threshold_violated,
        "adaptive run must end within the pro-rated budget: {}",
        drift.summary()
    );
}

/// The step-4 remaining problem of the scenario and the schedule shape
/// the advisor adopted for it, as frozen in `tests/corpus/`.
fn frozen_remaining_case() -> (ScheduleProblem, Schedule) {
    let text = std::fs::read_to_string(
        integration_tests::fuzz::corpus_dir().join("adaptive-remaining-budget.json"),
    )
    .expect("corpus case present");
    let (problem, schedule, _) = integration_tests::fuzz::parse_case(&text).unwrap();
    (problem, schedule.expect("case carries the adopted schedule shape"))
}

#[test]
fn reschedule_trigger_is_deterministic_across_solver_threads() {
    let problem = modeled_problem();
    let schedule = static_schedule(&problem);
    let cfg = CouplerConfig { steps: STEPS, sim_output_every: 0 };

    let run_with_threads = |threads: usize| {
        let adaptive_cfg = AdaptiveConfig {
            solver: milp::SolveOptions { threads, ..Default::default() },
            ..AdaptiveConfig::default()
        };
        run_coupled_adaptive(
            &mut TickSim(0),
            &mut spinners(),
            &problem,
            &schedule,
            &cfg,
            &adaptive_cfg,
            &obs::TraceHandle::disabled(),
        )
        .unwrap()
    };

    let serial = run_with_threads(1);
    let parallel = run_with_threads(4);

    // Whatever the host load, the first hog run (20x its model) trips the
    // budget trigger at step 4 in both legs and the re-solve is adopted.
    for (threads, r) in [(1, &serial), (4, &parallel)] {
        let first = &r.reschedules[0];
        assert_eq!(first.step, 4, "solver threads = {threads}");
        assert_eq!(first.reason, TriggerReason::Budget, "solver threads = {threads}");
        assert!(first.adopted, "solver threads = {threads}: {}", first.verdict);
    }

    // What the re-solve returns, and whether a later step trips again,
    // depends on *measured* spin times, which a loaded host stretches
    // differently in each leg. So the thread-count invariance of the
    // re-solve itself is checked where no clock is involved: on the
    // step-4 remaining problem frozen in the corpus.
    let (remaining, _) = frozen_remaining_case();
    let resolve = |threads: usize| {
        Advisor::new(AdvisorOptions {
            solver: milp::SolveOptions { threads, ..Default::default() },
            ..AdvisorOptions::default()
        })
        .recommend(&remaining)
        .unwrap()
    };
    let (one, four) = (resolve(1), resolve(4));
    assert_eq!(
        one.objective.to_bits(),
        four.objective.to_bits(),
        "re-solves must close on the same objective at any thread count"
    );
    assert_eq!(one.schedule, four.schedule, "adopted schedules must be identical");
}

/// The re-solve the adaptive run performs at step 4, frozen as a corpus
/// case: the suffix problem with the hog's *measured* cost and the
/// remaining budget, plus the schedule shape the advisor adopts. The
/// corpus replay (`certify_differential::corpus_replays_clean`) pushes it
/// through every oracle on every run.
#[test]
fn frozen_remaining_problem_matches_an_actual_resolve() {
    let (problem, schedule) = frozen_remaining_case();
    assert_eq!(problem.resources.steps, 36, "36 steps remain after step 4");
    // the recorded schedule certifies against the suffix problem
    let c = certify::certify(&problem, &schedule, None);
    assert_ne!(c.verdict, certify::Verdict::Invalid, "{:?}", c.problems);
    // and a fresh advisor solve of the frozen problem agrees with the
    // recorded counts: throttle the hog, keep the cheap analysis at max
    let rec = Advisor::new(AdvisorOptions::default()).recommend(&problem).unwrap();
    assert_eq!(rec.counts[0], schedule.per_analysis[0].count());
    assert_eq!(rec.counts[1], schedule.per_analysis[1].count());
}

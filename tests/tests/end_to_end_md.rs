//! End-to-end: profile real MD analyses → optimize → execute the coupled
//! run → verify the schedule was honoured and the overhead bounded.

use insitu_core::runtime::{run_coupled, Analysis, CouplerConfig};
use insitu_core::{validate_schedule, Advisor, AdvisorOptions};
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem, GIB};
use mdsim::analysis::{a1_hydronium_rdf, a4_msd};
use mdsim::{water_ions, BuilderParams, System};
use perfmodel::Stopwatch;

const ATOMS: usize = 3_000;
const STEPS: usize = 60;
const ITV: usize = 10;

fn profile<A: Analysis<System>>(a: &mut A, sys: &System) -> AnalysisProfile {
    a.setup(sys);
    // min of 3 trials for a stable estimate
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let sw = Stopwatch::start();
        a.analyze(sys);
        best = best.min(sw.elapsed());
    }
    AnalysisProfile::new(a.name())
        .with_compute(best, 4e6)
        .with_output(1e-5, 1e6, 1)
        .with_interval(ITV)
}

#[test]
fn full_pipeline_respects_threshold() {
    let mut sys = water_ions(&BuilderParams {
        n_particles: ATOMS,
        ..Default::default()
    });
    for _ in 0..2 {
        sys.step();
    }
    let profiles = vec![
        profile(&mut a1_hydronium_rdf(), &sys),
        profile(&mut a4_msd(), &sys),
    ];
    // min of 5 steps, like `profile`: the budget is 20 % of this, and one
    // scheduler hiccup on a single timed step would multiply it
    let mut step_time = f64::INFINITY;
    for _ in 0..5 {
        let sw = Stopwatch::start();
        sys.step();
        step_time = step_time.min(sw.elapsed());
    }
    let sim_time = step_time * STEPS as f64;

    let problem = ScheduleProblem::new(
        profiles,
        ResourceConfig::from_overhead_fraction(STEPS, sim_time, 0.20, GIB, GIB),
    )
    .unwrap();
    let rec = Advisor::new(AdvisorOptions::default())
        .recommend(&problem)
        .unwrap();

    // independently certified
    let report = validate_schedule(&problem, &rec.schedule);
    assert!(report.is_feasible(), "{:?}", report.violations);

    // execute for real
    let mut analyses: Vec<Box<dyn Analysis<System>>> =
        vec![Box::new(a1_hydronium_rdf()), Box::new(a4_msd())];
    let run = run_coupled(
        &mut sys,
        &mut analyses,
        &rec.schedule,
        &CouplerConfig {
            steps: STEPS,
            sim_output_every: 0,
        },
    );
    // scheduled counts were executed exactly
    for (i, at) in run.analysis_times.iter().enumerate() {
        assert_eq!(at.analyze_count, rec.counts[i], "{}", at.name);
        assert_eq!(at.output_count, rec.output_counts[i]);
    }
    // measured overhead within ~3x of the 20% threshold (single-core
    // timing noise; the model itself is validated separately)
    assert!(
        run.overhead_fraction() < 0.60,
        "overhead {:.1}%",
        run.overhead_fraction() * 100.0
    );
    // the run's own kernel telemetry counts one integrator pass per step
    let integrate = run.kernel_telemetry.get("md.integrate").map(|k| k.calls);
    assert_eq!(integrate, Some(STEPS));
}

#[test]
fn empty_budget_runs_no_analyses() {
    let mut sys = water_ions(&BuilderParams {
        n_particles: 500,
        ..Default::default()
    });
    let profiles = vec![profile(&mut a1_hydronium_rdf(), &sys)];
    let problem = ScheduleProblem::new(
        profiles,
        ResourceConfig::from_total_threshold(20, 0.0, GIB, GIB),
    )
    .unwrap();
    let rec = Advisor::new(AdvisorOptions::default())
        .recommend(&problem)
        .unwrap();
    assert_eq!(rec.total_analyses(), 0);
    let mut analyses: Vec<Box<dyn Analysis<System>>> = vec![Box::new(a1_hydronium_rdf())];
    let run = run_coupled(
        &mut sys,
        &mut analyses,
        &rec.schedule,
        &CouplerConfig {
            steps: 20,
            sim_output_every: 0,
        },
    );
    assert_eq!(run.analysis_times[0].analyze_count, 0);
    assert_eq!(run.analysis_times[0].total(), 0.0);
}

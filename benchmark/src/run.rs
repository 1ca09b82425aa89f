//! `run-md-adaptive` and `run-amr-static`: the run path, a proxy
//! simulation coupled to its in-situ analyses.
//!
//! Both schedule from **fixed nominal profiles** — constants below, not
//! measurements taken at start-up — so the initial schedule and its
//! objective repeat exactly; what the run then measures is the coupler, the
//! kernels and, on the MD workload, the monitor and a mid-run re-solve.
//! One pass is one whole coupled run from the same prepared state.

use std::sync::Arc;
use std::time::Instant;

use amrsim::analysis::{f1_vorticity, f2_l1_norm, f3_l2_norm};
use amrsim::sedov::{measured_shock_radius, SedovSetup};
use amrsim::FlashSim;
use insitu_core::adaptive::AdaptiveConfig;
use insitu_core::advisor::{Advisor, AdvisorOptions, Recommendation};
use insitu_core::runtime::{
    run_coupled_adaptive, run_coupled_traced, AdaptiveReport, Analysis, CouplerConfig, RunReport,
    Simulator,
};
use insitu_types::{
    AnalysisProfile, KernelTelemetry, ResourceConfig, Schedule, ScheduleProblem, GIB,
};
use mdsim::analysis::{a1_hydronium_rdf, a2_ion_rdf, a3_vacf, a4_msd};
use mdsim::{water_ions, BuilderParams, System};
use milp::SolveOptions;
use parallel::Exec;

use crate::layers::{Layers, Traced};
use crate::report::Pass;
use crate::rng::Rng;
use crate::Workload;

/// Kernel threads of the AMR proxy (and of the scaling legs of both): one
/// per core, at most two. Set through the public `exec` field, never through
/// `INSITU_THREADS`.
pub fn kernel_threads() -> usize {
    crate::nproc().min(2)
}

/// Kernel threads of `run-md-adaptive`. One, because the MD step forks and
/// joins five times in ~5 ms: at two threads on two cores every hiccup of
/// the host stalled a join, and throughput, tail latency and the costs the
/// adaptive loop measures (hence the schedule it re-solves to) differed by
/// ±20 % between runs of one commit. What two threads buy the MD kernels is
/// still measured, as `parallel.md_scale_2t` of the traced run, and
/// `run-amr-static` (one fork-join per 4 ms step) keeps `parallel` on an
/// end-to-end path.
pub const MD_KERNEL_THREADS: usize = 1;

fn serial_solver() -> SolveOptions {
    SolveOptions {
        threads: 1,
        ..SolveOptions::default()
    }
}

/// Timestamps a simulator from outside: one clock read per `advance`, and
/// the time spent inside `write_output`.
struct Stepwatch<S> {
    inner: S,
    step_starts: Vec<Instant>,
    output_s: f64,
    outputs: usize,
}

impl<S> Stepwatch<S> {
    fn new(inner: S, steps: usize) -> Self {
        Stepwatch {
            inner,
            step_starts: Vec::with_capacity(steps),
            output_s: 0.0,
            outputs: 0,
        }
    }

    /// Latency of each step: from its `advance` to the next one's (the
    /// analyses the coupler runs after a step belong to that step).
    fn step_ms(&self, end: Instant) -> Vec<f64> {
        let mut ends = self.step_starts[1..].to_vec();
        ends.push(end);
        self.step_starts
            .iter()
            .zip(&ends)
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect()
    }
}

impl<S: Simulator> Simulator for Stepwatch<S> {
    type State = S::State;

    fn state(&self) -> &S::State {
        self.inner.state()
    }

    fn advance(&mut self) {
        self.step_starts.push(Instant::now());
        self.inner.advance();
    }

    fn write_output(&mut self) {
        let t = Instant::now();
        self.inner.write_output();
        self.output_s += t.elapsed().as_secs_f64();
        self.outputs += 1;
    }

    fn kernel_telemetry(&self) -> Option<&KernelTelemetry> {
        self.inner.kernel_telemetry()
    }
}

/// Replays an executed schedule against the model it was planned under.
/// `judge_time` is off for the adaptive run: its suffix was re-solved from
/// measured costs, which the nominal model understates on purpose.
fn replays(problem: &ScheduleProblem, schedule: &Schedule, judge_time: bool) -> Result<(), String> {
    let report = certify::replay(problem, schedule).map_err(|e| format!("replay: {e:?}"))?;
    let broken: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| judge_time || v.kind != certify::ViolationKind::Time)
        .map(|v| v.message.as_str())
        .collect();
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "executed schedule does not replay: {}",
            broken.join("; ")
        ))
    }
}

fn recommend(problem: &ScheduleProblem) -> Recommendation {
    Advisor::new(AdvisorOptions {
        solver: serial_solver(),
        exact_steps_limit: 0,
    })
    .recommend(problem)
    .expect("the nominal problem is solvable")
}

// ---------------------------------------------------------------- MD ----

#[derive(Debug, Clone, Copy)]
pub struct MdSizes {
    pub atoms: usize,
    pub steps: usize,
    pub interval: usize,
}

const MD_FULL: MdSizes = MdSizes {
    atoms: 2000,
    steps: 400,
    interval: 10,
};

const MD_SMOKE: MdSizes = MdSizes {
    atoms: 1500,
    steps: 40,
    interval: 4,
};

pub fn md_sizes(smoke: bool) -> &'static MdSizes {
    if smoke {
        &MD_SMOKE
    } else {
        &MD_FULL
    }
}

/// Nominal A1–A4 profiles at `atoms` particles, seconds: what one call
/// costs on one core of the sizing host at 2000 atoms, scaled linearly —
/// except A1, whose `ct` is understated 8× so that the budget trigger trips
/// at its first run and the run re-solves from what it measured.
fn md_problem(sizes: &MdSizes) -> ScheduleProblem {
    let scale = sizes.atoms as f64 / 2000.0;
    let step_s = 6e-3 * scale;
    let mk = |name: &str, weight: f64, ct: f64, ot: f64, it: f64, mem: f64| {
        AnalysisProfile::new(name)
            .with_per_step(it * scale, 0.0)
            .with_compute(ct * scale, mem)
            .with_output(ot * scale, mem / 4.0, 1)
            .with_interval(sizes.interval)
            .with_weight(weight)
    };
    ScheduleProblem::new(
        vec![
            // the two RDFs cost about the same, so with equal weights which
            // of them the re-solve keeps would be a coin toss on measured
            // times. A1 counts double and keeps most of its runs — the ~1 %
            // slowest steps are then always A1 steps — and A2 at 1.5 is
            // worth one run, on the last step
            mk("hydronium rdf (A1)", 2.0, 10e-3 / 8.0, 0.05e-3, 0.0, 8e6),
            mk("ion rdf (A2)", 1.5, 10e-3, 0.04e-3, 0.0, 8e6),
            mk("vacf (A3)", 1.0, 0.07e-3, 0.005e-3, 0.008e-3, 16e6),
            mk("msd (A4)", 1.0, 0.005e-3, 0.001e-3, 0.0, 32e6),
        ],
        // 15 % of the nominal simulation time
        ResourceConfig::from_overhead_fraction(
            sizes.steps,
            step_s * sizes.steps as f64,
            0.15,
            2.0 * GIB,
            GIB,
        ),
    )
    .expect("nominal MD problem validates")
}

fn md_analyses() -> Vec<Box<dyn Analysis<System>>> {
    vec![
        Box::new(a1_hydronium_rdf()),
        Box::new(a2_ion_rdf()),
        Box::new(a3_vacf(16)),
        Box::new(a4_msd()),
    ]
}

fn md_system(seed: u64, sizes: &MdSizes, threads: usize) -> System {
    let mut system = water_ions(&BuilderParams {
        n_particles: sizes.atoms,
        seed: Rng::derive(seed, 8).next_u64(),
        ..BuilderParams::default()
    });
    system.exec = Exec::with_threads(threads);
    for _ in 0..3 {
        system.step();
    }
    system
}

struct MdRun {
    wall_s: f64,
    step_ms: Vec<f64>,
    report: AdaptiveReport,
    end_state: System,
}

pub struct MdAdaptive {
    sizes: MdSizes,
    problem: ScheduleProblem,
    initial: Recommendation,
    start: System,
    last: Option<Result<MdRun, String>>,
}

impl MdAdaptive {
    pub fn setup(seed: u64, sizes: &MdSizes) -> Self {
        let problem = md_problem(sizes);
        let initial = recommend(&problem);
        MdAdaptive {
            sizes: *sizes,
            start: md_system(seed, sizes, MD_KERNEL_THREADS),
            problem,
            initial,
            last: None,
        }
    }

    fn run(&self, trace: &obs::TraceHandle) -> Result<MdRun, String> {
        let mut system = self.start.clone();
        system.tracer = trace.clone();
        let mut sim = Stepwatch::new(system, self.sizes.steps);
        let mut analyses = md_analyses();
        let t0 = Instant::now();
        let report = run_coupled_adaptive(
            &mut sim,
            &mut analyses,
            &self.problem,
            &self.initial.schedule,
            &CouplerConfig {
                steps: self.sizes.steps,
                sim_output_every: 0,
            },
            &AdaptiveConfig {
                solver: serial_solver(),
                ..AdaptiveConfig::default()
            },
            trace,
        )?;
        let end = Instant::now();
        Ok(MdRun {
            wall_s: end.duration_since(t0).as_secs_f64(),
            step_ms: sim.step_ms(end),
            report,
            end_state: sim.inner,
        })
    }
}

impl Workload for MdAdaptive {
    fn pass(&mut self) -> Pass {
        let run = self.run(&obs::TraceHandle::disabled());
        let pass = match &run {
            Ok(run) => {
                let adopted = run.report.reschedules.iter().filter(|r| r.adopted);
                Pass {
                    wall_s: run.wall_s,
                    op_ms: run.step_ms.clone(),
                    objective: run.report.schedule.objective(&self.problem),
                    graded: 1 + run.report.adopted_count(),
                    proved: usize::from(self.initial.verdict == certify::Verdict::Proved)
                        + adopted.filter(|r| r.verdict == "PROVED").count(),
                    failed: 0,
                }
            }
            // the coupler erred: the whole run fails
            Err(_) => Pass {
                wall_s: 1.0,
                op_ms: vec![0.0; self.sizes.steps],
                failed: self.sizes.steps,
                ..Pass::default()
            },
        };
        self.last = Some(run);
        pass
    }

    fn verify(&self) -> Vec<String> {
        let run = match self.last.as_ref().expect("verify follows a pass") {
            Ok(run) => run,
            Err(e) => return vec![format!("coupler: {e}")],
        };
        let mut rejected = Vec::new();
        if let Err(e) = replays(&self.problem, &run.report.schedule, false) {
            rejected.push(e);
        }
        if run.report.adopted_count() == 0 {
            rejected.push("no mid-run re-solve was adopted".into());
        }
        let s = &run.end_state;
        let finite = s.kinetic_energy().is_finite()
            && s.pos.iter().all(|axis| axis.iter().all(|x| x.is_finite()));
        if !finite {
            rejected.push("MD state is not finite".into());
        }
        if s.len() != self.sizes.atoms || s.step_count != self.start.step_count + self.sizes.steps {
            rejected.push(format!(
                "MD ended with {} atoms at step {}",
                s.len(),
                s.step_count
            ));
        }
        rejected
    }
}

// --------------------------------------------------------------- AMR ----

#[derive(Debug, Clone, Copy)]
pub struct AmrSizes {
    pub blocks: usize,
    pub cells: usize,
    pub steps: usize,
    pub interval: usize,
    pub checkpoint_every: usize,
}

const AMR_FULL: AmrSizes = AmrSizes {
    blocks: 3,
    cells: 12,
    steps: 320,
    interval: 10,
    checkpoint_every: 80,
};

const AMR_SMOKE: AmrSizes = AmrSizes {
    blocks: 2,
    cells: 12,
    steps: 120,
    interval: 12,
    checkpoint_every: 40,
};

pub fn amr_sizes(smoke: bool) -> &'static AmrSizes {
    if smoke {
        &AMR_SMOKE
    } else {
        &AMR_FULL
    }
}

/// Nominal F1–F3 profiles, seconds per call on a 48³-cell mesh, scaled by
/// cell count; the budget is 1 % of the nominal simulation time.
fn amr_problem(sizes: &AmrSizes) -> ScheduleProblem {
    let scale = (sizes.blocks * sizes.cells).pow(3) as f64 / (4.0f64 * 12.0).powi(3);
    let step_s = 16e-3 * scale;
    let mk = |name: &str, ct: f64, weight: f64| {
        AnalysisProfile::new(name)
            .with_compute(ct * scale, 32e6)
            .with_output(ct * scale * 0.2 + 1e-6, 8e6, 1)
            .with_interval(sizes.interval)
            .with_weight(weight)
    };
    ScheduleProblem::new(
        vec![
            mk("vorticity (F1)", 0.8e-3, 2.0),
            mk("L1 error norm (F2)", 0.65e-3, 1.0),
            mk("L2 error norm (F3)", 0.09e-3, 2.0),
        ],
        ResourceConfig::from_overhead_fraction(
            sizes.steps,
            step_s * sizes.steps as f64,
            0.01,
            GIB,
            GIB,
        ),
    )
    .expect("nominal AMR problem validates")
}

fn amr_analyses() -> Vec<Box<dyn Analysis<FlashSim>>> {
    vec![
        Box::new(f1_vorticity()),
        Box::new(f2_l1_norm()),
        Box::new(f3_l2_norm()),
    ]
}

fn amr_sim(seed: u64, sizes: &AmrSizes, threads: usize) -> FlashSim {
    // the seed sets the blast energy, 1 ± 1/8: another shock speed and time
    // step on the same mesh, so the work per step is the same
    let setup = SedovSetup {
        energy: 1.0 + (Rng::derive(seed, 9).int(0, 16) as f64 - 8.0) / 64.0,
        ..SedovSetup::default()
    };
    let mut sim = FlashSim::sedov(sizes.blocks, sizes.cells, setup);
    sim.exec = Exec::with_threads(threads);
    // half the default CFL number: the run's steps cover half the physical
    // time, so the shock is still inside the mesh (r ≈ 0.4 of 0.5) at the
    // end of a pass long enough for a 99th percentile
    sim.cfl = 0.2;
    sim
}

struct AmrRun {
    wall_s: f64,
    step_ms: Vec<f64>,
    checkpoint_s: f64,
    report: RunReport,
    end_state: FlashSim,
}

pub struct AmrStatic {
    sizes: AmrSizes,
    problem: ScheduleProblem,
    schedule: Recommendation,
    start: FlashSim,
    last: Option<AmrRun>,
}

impl AmrStatic {
    pub fn setup(seed: u64, sizes: &AmrSizes) -> Self {
        let problem = amr_problem(sizes);
        let schedule = recommend(&problem);
        let mut start = amr_sim(seed, sizes, kernel_threads());
        // one step on a copy fills the scratch pool's code paths
        start.clone().advance();
        start.telemetry.clear();
        AmrStatic {
            sizes: *sizes,
            problem,
            schedule,
            start,
            last: None,
        }
    }

    fn run(&self, trace: &obs::TraceHandle) -> AmrRun {
        let mut flash = self.start.clone();
        flash.tracer = trace.clone();
        let mut sim = Stepwatch::new(flash, self.sizes.steps);
        let mut analyses = amr_analyses();
        let t0 = Instant::now();
        let report = run_coupled_traced(
            &mut sim,
            &mut analyses,
            &self.schedule.schedule,
            &CouplerConfig {
                steps: self.sizes.steps,
                sim_output_every: self.sizes.checkpoint_every,
            },
            trace,
        );
        let end = Instant::now();
        AmrRun {
            wall_s: end.duration_since(t0).as_secs_f64(),
            step_ms: sim.step_ms(end),
            checkpoint_s: sim.output_s / sim.outputs.max(1) as f64,
            report,
            end_state: sim.inner,
        }
    }
}

impl Workload for AmrStatic {
    fn pass(&mut self) -> Pass {
        let run = self.run(&obs::TraceHandle::disabled());
        let pass = Pass {
            wall_s: run.wall_s,
            op_ms: run.step_ms.clone(),
            objective: self.schedule.schedule.objective(&self.problem),
            graded: 1,
            proved: usize::from(self.schedule.verdict == certify::Verdict::Proved),
            failed: 0,
        };
        self.last = Some(run);
        pass
    }

    fn verify(&self) -> Vec<String> {
        let run = self.last.as_ref().expect("verify follows a pass");
        let mut rejected = Vec::new();
        if let Err(e) = replays(&self.problem, &self.schedule.schedule, true) {
            rejected.push(e);
        }
        for (times, planned) in run
            .report
            .analysis_times
            .iter()
            .zip(&self.schedule.schedule.per_analysis)
        {
            if times.analyze_count != planned.count()
                || times.output_count != planned.output_count()
            {
                rejected.push(format!(
                    "{} ran {}x/{} outputs, the schedule says {}x/{}",
                    times.name,
                    times.analyze_count,
                    times.output_count,
                    planned.count(),
                    planned.output_count()
                ));
            }
        }
        let sim = &run.end_state;
        let measured = measured_shock_radius(&sim.mesh);
        let reference = sim.setup.shock_radius(sim.time);
        if !(measured / reference - 1.0).abs().le(&0.10) {
            rejected.push(format!(
                "Sedov shock at r = {measured:.4}, self-similar solution says {reference:.4}"
            ));
        }
        if sim.checkpoints != self.sizes.steps / self.sizes.checkpoint_every {
            rejected.push(format!("{} checkpoints written", sim.checkpoints));
        }
        rejected
    }
}

// ------------------------------------------------------------ traced ----

/// Steps of the plain single- vs multi-threaded kernel legs.
const SCALING_STEPS: usize = 30;

fn steps_per_s<S: Simulator>(mut sim: S, steps: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..steps {
        sim.advance();
    }
    steps as f64 / t.elapsed().as_secs_f64()
}

fn per(total_s: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_s * 1e6 / count as f64
    }
}

fn kernel_us_per_step(t: &KernelTelemetry, kernel: &str, steps: usize) -> f64 {
    per(t.get(kernel).map(|r| r.wall_s).unwrap_or(0.0), steps)
}

fn merge_frac(t: &KernelTelemetry) -> f64 {
    let wall: f64 = t.kernels.values().map(|r| r.wall_s).sum();
    let merge: f64 = t.kernels.values().map(|r| r.merge_s).sum();
    if wall > 0.0 {
        merge / wall
    } else {
        0.0
    }
}

/// What both run workloads report about the coupler and about tracing.
#[allow(clippy::too_many_arguments)]
fn coupler_layers(
    layers: &mut Layers,
    steps: usize,
    wall_s: f64,
    traced_wall_s: f64,
    report: &RunReport,
    resolve_s: f64,
    budget_s: f64,
    predicted_s: f64,
    tracer: &obs::Tracer,
) -> String {
    let analysis_s = report.total_analysis_time();
    let overhead_s = wall_s - report.sim_time - analysis_s - resolve_s;
    layers.set("core.runtime_overhead_us_per_step", per(overhead_s, steps));
    layers.set("core.budget_used_frac", analysis_s / budget_s);
    layers.set(
        "core.model_error_frac",
        (predicted_s - analysis_s).abs() / analysis_s.max(1e-12),
    );
    layers.set("obs.trace_overhead_frac", traced_wall_s / wall_s - 1.0);
    layers.set("obs.spans_recorded", tracer.timeline().spans.len() as f64);
    layers.set("obs.spans_dropped", tracer.dropped() as f64);
    layers.set("parallel.merge_frac", merge_frac(&report.kernel_telemetry));
    format!(
        "  wall {wall_s:.3} s = simulation {:.3} s + analyses {analysis_s:.4} s + re-solves \
         {resolve_s:.4} s + coupler {overhead_s:.4} s\n  analysis share of wall: {:.2} %\n",
        report.sim_time,
        analysis_s / wall_s * 100.0
    )
}

pub fn traced_md(seed: u64, sizes: &MdSizes, layers: &mut Layers) -> Result<Traced, String> {
    let md = MdAdaptive::setup(seed, sizes);
    let plain = md.run(&obs::TraceHandle::disabled())?;
    let tracer = Arc::new(obs::Tracer::with_capacity(64 * sizes.steps.max(1024)));
    let traced = md.run(&obs::TraceHandle::new(tracer.clone()))?;

    let report = &plain.report;
    let attempts = &report.reschedules;
    let resolve_ms: f64 = attempts.iter().map(|r| r.solve_ms).sum();
    let mut notes = coupler_layers(
        layers,
        sizes.steps,
        plain.wall_s,
        traced.wall_s,
        &report.run,
        resolve_ms / 1e3,
        md.problem.resources.total_threshold(),
        report.predicted.last().copied().unwrap_or(0.0),
        &tracer,
    );
    layers.set(
        "core.adaptive_resolve_ms",
        resolve_ms / attempts.len().max(1) as f64,
    );
    layers.set("core.adaptive_attempts", attempts.len() as f64);
    layers.set("core.adaptive_adopted", report.adopted_count() as f64);
    for r in attempts {
        notes.push_str(&format!(
            "  step {:>3}: {} trigger, re-solve {:.2} ms, objective {:.1} -> {:.1}, {}\n",
            r.step,
            r.reason,
            r.solve_ms,
            r.old_objective,
            r.new_objective,
            if r.adopted { "adopted" } else { "kept" },
        ));
    }

    let kernels = &report.run.kernel_telemetry;
    layers.set(
        "mdsim.force_us_per_step",
        kernel_us_per_step(kernels, "md.force", sizes.steps),
    );
    layers.set(
        "mdsim.cell_rebuild_us_per_step",
        kernel_us_per_step(kernels, "md.cell_rebuild", sizes.steps),
    );
    layers.set(
        "mdsim.integrate_us_per_step",
        kernel_us_per_step(kernels, "md.integrate", sizes.steps),
    );
    let times = &report.run.analysis_times;
    for (i, key) in [
        "mdsim.a1_rdf_us_per_call",
        "mdsim.a2_rdf_us_per_call",
        "mdsim.a3_vacf_us_per_call",
        "mdsim.a4_msd_us_per_call",
    ]
    .into_iter()
    .enumerate()
    {
        layers.set(key, per(times[i].analyze, times[i].analyze_count));
    }
    layers.set(
        "mdsim.per_step_hooks_us_per_step",
        per(times.iter().map(|t| t.per_step).sum(), sizes.steps),
    );
    layers.set(
        "mdsim.scratch_allocs",
        kernels
            .get("md.force")
            .map(|r| r.scratch_allocs)
            .unwrap_or(0) as f64,
    );

    let threads = kernel_threads();
    let serial = steps_per_s(md_system(seed, sizes, 1), SCALING_STEPS);
    let parallel = steps_per_s(md_system(seed, sizes, threads), SCALING_STEPS);
    layers.set("parallel.md_scale_2t", parallel / serial);
    notes.push_str(&format!(
        "  plain stepping: {serial:.1} steps/s at 1 kernel thread, {parallel:.1} at {threads}\n"
    ));
    Ok(Traced {
        notes,
        trace_json: tracer.timeline().to_json_string(),
    })
}

pub fn traced_amr(seed: u64, sizes: &AmrSizes, layers: &mut Layers) -> Result<Traced, String> {
    let amr = AmrStatic::setup(seed, sizes);
    let plain = amr.run(&obs::TraceHandle::disabled());
    let tracer = Arc::new(obs::Tracer::with_capacity(64 * sizes.steps.max(1024)));
    let traced = amr.run(&obs::TraceHandle::new(tracer.clone()));

    let mut notes = coupler_layers(
        layers,
        sizes.steps,
        plain.wall_s,
        traced.wall_s,
        &plain.report,
        0.0,
        amr.problem.resources.total_threshold(),
        amr.schedule.predicted_time,
        &tracer,
    );
    let kernels = &plain.report.kernel_telemetry;
    layers.set(
        "amrsim.hydro_step_us_per_step",
        kernel_us_per_step(kernels, "hydro.step", sizes.steps),
    );
    layers.set(
        "amrsim.cfl_us_per_step",
        kernel_us_per_step(kernels, "hydro.cfl_dt", sizes.steps),
    );
    let times = &plain.report.analysis_times;
    for (i, key) in [
        "amrsim.f1_vorticity_us_per_call",
        "amrsim.f2_l1_us_per_call",
        "amrsim.f3_l2_us_per_call",
    ]
    .into_iter()
    .enumerate()
    {
        layers.set(key, per(times[i].analyze, times[i].analyze_count));
    }
    layers.set("amrsim.checkpoint_us_per_call", plain.checkpoint_s * 1e6);

    let threads = kernel_threads();
    let serial = steps_per_s(amr_sim(seed, sizes, 1), SCALING_STEPS);
    let parallel = steps_per_s(amr_sim(seed, sizes, threads), SCALING_STEPS);
    layers.set("parallel.amr_scale_2t", parallel / serial);
    notes.push_str(&format!(
        "  plain stepping: {serial:.1} steps/s at 1 kernel thread, {parallel:.1} at {threads}\n"
    ));
    Ok(Traced {
        notes,
        trace_json: tracer.timeline().to_json_string(),
    })
}

//! `solve-scale`: `Advisor::recommend`, one large instance at a time.
//!
//! Time to one certified schedule for a big problem — the paper's own use,
//! with no service, JSON or cache in the way. The aggregate leg is where
//! cuts, branching and search do the work; the exact leg (time-indexed
//! Eq. 1–9 models, `exact_steps_limit` raised) is the only place the
//! revised simplex and its LU factorization see large LPs.

use std::time::Instant;

use insitu_core::advisor::{Advisor, AdvisorOptions, Recommendation};
use milp::SolveOptions;

use crate::gen::{self, ScaleInstance};
use crate::layers::{Layers, Traced};
use crate::report::Pass;
use crate::staged;
use crate::verify;
use crate::Workload;

/// Solver threads of every solve here.
const SOLVER_THREADS: usize = 1;

fn aggregate_options() -> SolveOptions {
    SolveOptions {
        threads: SOLVER_THREADS,
        certificate: true,
        ..SolveOptions::default()
    }
}

/// The exact leg's weights are integral, so the objective is and a gap
/// below 1 still proves optimality (as `solver_bench` solves this family).
fn exact_options() -> SolveOptions {
    SolveOptions {
        abs_gap: 0.999,
        ..aggregate_options()
    }
}

pub fn advisor_for(instance: &ScaleInstance) -> Advisor {
    if instance.exact {
        Advisor::new(AdvisorOptions {
            solver: exact_options(),
            exact_steps_limit: instance.problem.resources.steps,
        })
    } else {
        Advisor::new(AdvisorOptions {
            solver: aggregate_options(),
            exact_steps_limit: 0,
        })
    }
}

pub struct Scale {
    suite: Vec<ScaleInstance>,
    last: Vec<Result<Recommendation, String>>,
}

impl Scale {
    pub fn setup(seed: u64, smoke: bool) -> Self {
        let suite = gen::scale_suite(seed, smoke);
        // warm the solver's code paths on the cheapest instance of each leg
        for exact in [false, true] {
            if let Some(instance) = suite
                .iter()
                .filter(|s| s.exact == exact)
                .min_by_key(|s| (s.problem.resources.steps * s.problem.len(), &s.label))
            {
                let _ = advisor_for(instance).recommend(&instance.problem);
            }
        }
        Scale {
            suite,
            last: Vec::new(),
        }
    }
}

impl Workload for Scale {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        let mut last = Vec::with_capacity(self.suite.len());
        let t0 = Instant::now();
        for instance in &self.suite {
            let advisor = advisor_for(instance);
            let sent = Instant::now();
            let rec = advisor.recommend(&instance.problem);
            pass.op_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            last.push(rec.map_err(|e| e.to_string()));
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        for rec in &last {
            match rec {
                Ok(rec) => {
                    pass.objective += rec.objective;
                    pass.graded += 1;
                    pass.proved += usize::from(rec.verdict == certify::Verdict::Proved);
                }
                Err(_) => pass.failed += 1,
            }
        }
        self.last = last;
        pass
    }

    fn verify(&self) -> Vec<String> {
        let mut rejected = Vec::new();
        for (instance, rec) in self.suite.iter().zip(&self.last) {
            match rec {
                Ok(rec) => {
                    if let Err(e) =
                        verify::check_schedule(&instance.problem, &rec.schedule, rec.objective)
                    {
                        rejected.push(format!("{}: {e}", instance.label));
                    }
                }
                Err(e) => rejected.push(format!("{}: {e}", instance.label)),
            }
        }
        rejected
    }
}

/// The traced run: staged replay of every instance, one `recommend` pass
/// for the two legs' wall share, and the two largest aggregate instances at
/// one and two solver threads.
pub fn traced(seed: u64, smoke: bool, layers: &mut Layers) -> Result<Traced, String> {
    let mut scale = Scale::setup(seed, smoke);
    let pass = scale.pass();
    let leg = |exact: bool| -> f64 {
        scale
            .suite
            .iter()
            .zip(&pass.op_ms)
            .filter(|(s, _)| s.exact == exact)
            .map(|(_, ms)| ms / 1e3)
            .sum()
    };
    layers.set("milp.aggregate_leg_s", leg(false));
    layers.set("milp.exact_leg_s", leg(true));

    let replay = staged::replay_advisor(&scale.suite, &aggregate_options(), &exact_options())?;
    replay.export(layers);

    let mut largest: Vec<&ScaleInstance> = scale.suite.iter().filter(|s| !s.exact).collect();
    largest.sort_by_key(|s| std::cmp::Reverse(s.problem.resources.steps * s.problem.len()));
    let threads = crate::nproc().min(2);
    let solve_all = |threads: usize| -> Result<f64, String> {
        let t = Instant::now();
        for instance in largest.iter().take(2) {
            Advisor::new(AdvisorOptions {
                solver: SolveOptions {
                    threads,
                    ..aggregate_options()
                },
                exact_steps_limit: 0,
            })
            .recommend(&instance.problem)
            .map_err(|e| format!("{}: {e}", instance.label))?;
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let serial = solve_all(1)?;
    let parallel = solve_all(threads)?;
    layers.set("milp.scale_2t", serial / parallel);

    let notes = format!(
        "  aggregate leg {:.3} s, exact leg {:.3} s of a {:.3} s pass\n  \
         milp.solve share of the staged wall: {:.1} %\n  \
         two largest aggregate instances: {serial:.3} s at 1 solver thread, \
         {parallel:.3} s at {threads}\n",
        leg(false),
        leg(true),
        pass.wall_s,
        replay.solve_total_s() / (replay.solved_mean_us() * scale.suite.len() as f64 / 1e6) * 100.0,
    );
    Ok(Traced {
        notes,
        trace_json: replay.trace_json(),
    })
}

//! Staged replay: the request path taken apart, one public call at a time.
//!
//! The service and the advisor compose these calls internally; replaying
//! them in the same order from outside, each under its own span and clock,
//! says where a request's time goes without touching the program. What the
//! composition adds on top — the state lock, `Lru::get`, the neighbour
//! scan, clones, registry and flight-recorder updates — is not staged and
//! shows up as `service.residual_*`.
//!
//! Spans go to an `obs::Tracer` owned by the benchmark: one `request` (or
//! `solve`) span per operation tagged with its index, one child per call.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insitu_core::aggregate::build_aggregate;
use insitu_core::formulation::{build_exact, extract_schedule};
use insitu_core::placement::place_schedule;
use insitu_types::canonical::{canonicalize, from_canonical, from_canonical_schedule};
use insitu_types::json;
use insitu_types::{
    ResponseSource, Schedule, ScheduleProblem, SearchCertificate, ServiceRequest, ServiceResponse,
};
use milp::{SolveOptions, SolveStats};

use crate::layers::Layers;

/// Stage names, which double as span names.
const PARSE: &str = "types.json_parse";
const VALIDATE: &str = "types.validate";
const CANONICALIZE: &str = "types.canonicalize";
const FINGERPRINT: &str = "certify.fingerprint";
const BUILD_AGGREGATE: &str = "core.build_aggregate";
const BUILD_EXACT: &str = "core.build_exact";
const SOLVE: &str = "milp.solve";
const PLACE: &str = "core.place";
const CERTIFY: &str = "certify.certify";
const RENDER: &str = "types.json_render";

#[derive(Default, Clone, Copy)]
struct Acc {
    calls: u64,
    total: Duration,
}

impl Acc {
    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// Accumulated stage times of one staged replay.
pub struct Staged {
    tracer: Arc<obs::Tracer>,
    stages: HashMap<&'static str, Acc>,
    /// Operations and summed stage time, per class.
    hit: Acc,
    solved: Acc,
    /// Summed over every `milp::solve` of the replay.
    solves: u64,
    presolve: Duration,
    root_lp: Duration,
    cuts: Duration,
    search: Duration,
    ftran_btran: Duration,
    nodes: usize,
    pivots: usize,
    cuts_applied: usize,
    refactorizations: usize,
}

impl Staged {
    fn new(capacity: usize) -> Self {
        Staged {
            tracer: Arc::new(obs::Tracer::with_capacity(capacity)),
            stages: HashMap::new(),
            hit: Acc::default(),
            solved: Acc::default(),
            solves: 0,
            presolve: Duration::ZERO,
            root_lp: Duration::ZERO,
            cuts: Duration::ZERO,
            search: Duration::ZERO,
            ftran_btran: Duration::ZERO,
            nodes: 0,
            pivots: 0,
            cuts_applied: 0,
            refactorizations: 0,
        }
    }

    /// Runs one stage under its span and adds its time to `op`.
    fn stage<T>(&mut self, name: &'static str, op: &mut Duration, f: impl FnOnce() -> T) -> T {
        let tracer = self.tracer.clone();
        let _span = tracer.span(name);
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed();
        let acc = self.stages.entry(name).or_default();
        acc.calls += 1;
        acc.total += dt;
        *op += dt;
        out
    }

    fn absorb(&mut self, stats: &SolveStats) {
        self.solves += 1;
        self.presolve += stats.presolve_time;
        self.root_lp += stats.root_lp_time;
        self.cuts += stats.cuts.separation_time;
        self.search += stats.search_time;
        self.ftran_btran += stats.ftran_time + stats.btran_time;
        self.nodes += stats.nodes_explored;
        self.pivots += stats.lp_pivots;
        self.cuts_applied += stats.cuts.cuts_applied;
        self.refactorizations += stats.refactorizations;
    }

    fn mean_us(&self, name: &str) -> f64 {
        self.stages.get(name).map(Acc::mean_us).unwrap_or(0.0)
    }

    /// Mean staged time of a cache-hit request, microseconds.
    pub fn hit_mean_us(&self) -> f64 {
        self.hit.mean_us()
    }

    /// Mean staged time of a solved (miss) request, microseconds.
    pub fn solved_mean_us(&self) -> f64 {
        self.solved.mean_us()
    }

    /// Total time inside `milp::solve`, seconds.
    pub fn solve_total_s(&self) -> f64 {
        self.stages
            .get(SOLVE)
            .map(|a| a.total.as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Writes the `types.*`, `certify.*`, `core.*` build/place and `milp.*`
    /// per-call metrics.
    pub fn export(&self, layers: &mut Layers) {
        let ops = (self.hit.calls + self.solved.calls).max(1) as f64;
        layers.set("types.json_parse_us", self.mean_us(PARSE));
        layers.set("types.json_render_us", self.mean_us(RENDER));
        layers.set("types.validate_us", self.mean_us(VALIDATE));
        layers.set("types.canonicalize_us", self.mean_us(CANONICALIZE));
        layers.set("certify.fingerprint_us", self.mean_us(FINGERPRINT));
        layers.set("certify.certify_us", self.mean_us(CERTIFY));
        layers.set(
            "certify.calls_per_req",
            self.stages.get(CERTIFY).map(|a| a.calls).unwrap_or(0) as f64 / ops,
        );
        layers.set("core.build_aggregate_us", self.mean_us(BUILD_AGGREGATE));
        layers.set("core.build_exact_ms", self.mean_us(BUILD_EXACT) / 1e3);
        layers.set("core.place_us", self.mean_us(PLACE));
        layers.set("milp.solve_us", self.mean_us(SOLVE));
        let per_solve = |d: Duration| d.as_secs_f64() * 1e6 / self.solves.max(1) as f64;
        layers.set("milp.presolve_us", per_solve(self.presolve));
        layers.set("milp.root_lp_us", per_solve(self.root_lp));
        layers.set("milp.cuts_us", per_solve(self.cuts));
        layers.set("milp.search_us", per_solve(self.search));
        layers.set("milp.ftran_btran_us", per_solve(self.ftran_btran));
        let count = |c: usize| c as f64 / self.solves.max(1) as f64;
        layers.set("milp.nodes_per_solve", count(self.nodes));
        layers.set("milp.pivots_per_solve", count(self.pivots));
        layers.set("milp.cuts_applied_per_solve", count(self.cuts_applied));
        layers.set(
            "milp.refactorizations_per_solve",
            count(self.refactorizations),
        );
    }

    /// The replay's spans as an `obs/timeline/v1` document.
    pub fn trace_json(&self) -> String {
        self.tracer.timeline().to_json_string()
    }
}

/// The service's solver settings: its defaults, certificate on.
fn service_solver() -> SolveOptions {
    service::ServiceConfig::default().solver
}

/// What the replay keeps per solved fingerprint, as the service's cache does.
struct Entry {
    schedule: Schedule,
    counts: Vec<usize>,
    output_counts: Vec<usize>,
    objective: f64,
    certificate: SearchCertificate,
    nodes: usize,
}

/// Replays `requests` in order through the calls `handle_json` makes. A
/// request whose fingerprint was solved earlier in the replay takes the
/// hit path (no build, solve, placement or canonical certify); the replay
/// never evicts, so on `svc-zipf` (cache ≥ working set) and on one cycle of
/// `svc-fresh` (no repeats) its classes are the service's. Misses are
/// solved cold, where the service may warm-start from a neighbour.
/// `preload` is replayed first and left out of every figure, as the
/// service's own warm-up is.
pub fn replay_service(preload: &[String], requests: &[String]) -> Result<Staged, String> {
    let opts = service_solver();
    let mut solved = HashMap::new();
    let mut warmup = Staged::new(16 * preload.len().max(64));
    for (index, text) in preload.iter().enumerate() {
        replay_request(&mut warmup, &mut solved, &opts, index, text)?;
    }
    let mut staged = Staged::new(16 * requests.len().max(64));
    for (index, text) in requests.iter().enumerate() {
        replay_request(&mut staged, &mut solved, &opts, index, text)?;
    }
    Ok(staged)
}

fn replay_request(
    staged: &mut Staged,
    solved: &mut HashMap<certify::Fingerprint, Entry>,
    opts: &SolveOptions,
    index: usize,
    text: &str,
) -> Result<(), String> {
    let tracer = staged.tracer.clone();
    let mut span = tracer.span("request");
    span.tag("index", index);
    let mut op = Duration::ZERO;
    let request = staged
        .stage(PARSE, &mut op, || json::from_str::<ServiceRequest>(text))
        .map_err(|e| format!("request {index}: {e}"))?;
    let problem = &request.problem;
    staged
        .stage(VALIDATE, &mut op, || problem.validate())
        .map_err(|e| format!("request {index}: {e}"))?;
    let fp = staged.stage(FINGERPRINT, &mut op, || certify::fingerprint(problem));
    let (canon, perm) = staged.stage(CANONICALIZE, &mut op, || canonicalize(problem));
    let hit = solved.contains_key(&fp);
    span.tag("class", if hit { "hit" } else { "solved" });
    if !hit {
        let entry = solve_canonical(staged, &mut op, &canon, opts)
            .map_err(|e| format!("request {index}: {e}"))?;
        solved.insert(fp, entry);
    }
    let entry = &solved[&fp];
    let schedule = staged.stage(CANONICALIZE, &mut op, || {
        from_canonical_schedule(&entry.schedule, &perm)
    });
    let stamp = staged.stage(CERTIFY, &mut op, || {
        certify::certify(problem, &schedule, Some(&entry.certificate))
    });
    if stamp.verdict == certify::Verdict::Invalid {
        return Err(format!(
            "request {index}: staged reply is INVALID: {:?}",
            stamp.problems
        ));
    }
    let response = ServiceResponse {
        id: request.id,
        fingerprint: fp.to_hex(),
        source: if hit {
            ResponseSource::Hit
        } else {
            ResponseSource::Fresh
        },
        verdict: stamp.verdict.to_string(),
        objective: entry.objective,
        schedule,
        counts: from_canonical(&entry.counts, &perm),
        output_counts: from_canonical(&entry.output_counts, &perm),
        solver_nodes: entry.nodes,
        hint_accepted: false,
    };
    let rendered = staged.stage(RENDER, &mut op, || json::to_string(&response));
    std::hint::black_box(rendered);
    let class = if hit {
        &mut staged.hit
    } else {
        &mut staged.solved
    };
    class.calls += 1;
    class.total += op;
    Ok(())
}

/// The leader's part of a miss: build, solve, place, certify (canonical).
fn solve_canonical(
    staged: &mut Staged,
    op: &mut Duration,
    canon: &ScheduleProblem,
    opts: &SolveOptions,
) -> Result<Entry, String> {
    let built = staged
        .stage(BUILD_AGGREGATE, op, || build_aggregate(canon))
        .map_err(|e| e.to_string())?;
    let solution = staged
        .stage(SOLVE, op, || milp::solve(&built.model, opts))
        .map_err(|e| e.to_string())?;
    staged.absorb(&solution.stats);
    let (counts, output_counts, schedule) = staged.stage(PLACE, op, || {
        let (counts, output_counts) = built.counts_from(&solution.values);
        let schedule = place_schedule(canon, &counts, &output_counts);
        (counts, output_counts, schedule)
    });
    let certificate = solution
        .stats
        .certificate
        .clone()
        .ok_or("solver returned no certificate")?;
    let stamp = staged.stage(CERTIFY, op, || {
        certify::certify(canon, &schedule, Some(&certificate))
    });
    if stamp.verdict == certify::Verdict::Invalid {
        return Err(format!("staged solve is INVALID: {:?}", stamp.problems));
    }
    Ok(Entry {
        schedule,
        counts,
        output_counts,
        objective: solution.objective,
        certificate,
        nodes: solution.nodes,
    })
}

/// Replays `Advisor::recommend` on each instance of the `solve-scale`
/// suite: validate, build (aggregate or exact), solve, place or extract,
/// certify.
pub fn replay_advisor(
    suite: &[crate::gen::ScaleInstance],
    aggregate: &SolveOptions,
    exact: &SolveOptions,
) -> Result<Staged, String> {
    let mut staged = Staged::new(1024);
    for (index, instance) in suite.iter().enumerate() {
        let tracer = staged.tracer.clone();
        let mut span = tracer.span("solve");
        span.tag("index", index);
        span.tag("instance", instance.label.as_str());
        let mut op = Duration::ZERO;
        let problem = &instance.problem;
        staged
            .stage(VALIDATE, &mut op, || problem.validate())
            .map_err(|e| format!("{}: {e}", instance.label))?;
        let (schedule, certificate) = if instance.exact {
            let (model, vars) = staged.stage(BUILD_EXACT, &mut op, || build_exact(problem));
            let solution = staged
                .stage(SOLVE, &mut op, || milp::solve(&model, exact))
                .map_err(|e| format!("{}: {e}", instance.label))?;
            staged.absorb(&solution.stats);
            let schedule = staged.stage(PLACE, &mut op, || {
                extract_schedule(problem, &vars, &solution)
            });
            (schedule, solution.stats.certificate)
        } else {
            let built = staged
                .stage(BUILD_AGGREGATE, &mut op, || build_aggregate(problem))
                .map_err(|e| format!("{}: {e}", instance.label))?;
            let solution = staged
                .stage(SOLVE, &mut op, || milp::solve(&built.model, aggregate))
                .map_err(|e| format!("{}: {e}", instance.label))?;
            staged.absorb(&solution.stats);
            let schedule = staged.stage(PLACE, &mut op, || {
                let (counts, output_counts) = built.counts_from(&solution.values);
                place_schedule(problem, &counts, &output_counts)
            });
            (schedule, solution.stats.certificate)
        };
        let stamp = staged.stage(CERTIFY, &mut op, || {
            certify::certify(problem, &schedule, certificate.as_ref())
        });
        if stamp.verdict == certify::Verdict::Invalid {
            return Err(format!(
                "{}: staged solve is INVALID: {:?}",
                instance.label, stamp.problems
            ));
        }
        staged.solved.calls += 1;
        staged.solved.total += op;
    }
    Ok(staged)
}

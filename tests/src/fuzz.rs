//! Seeded instance generator + differential checker + shrinker.
//!
//! The generator emits paper-shaped instances (Table-1 parameter families:
//! fixed/per-step/compute/output time and memory, interval constraint,
//! weights) scaled down so that the aggregate MILP stays brute-forceable,
//! and rotates through degenerate families every run: zero I/O bandwidth,
//! memory-tight thresholds, `itv = Steps`, a zero time budget, and a
//! cut-heavy family (tight budget + tight memory) whose fractional LP
//! vertices keep the Gomory/cover separators busy.
//!
//! [`differential_check`] is the oracle composition: the serial and
//! parallel branch & cut, the dense-tableau LP oracle on the root
//! relaxation, the brute-force enumerator and the independent
//! exact-rational certifier must all agree before an instance passes. Any
//! failure is reduced by [`shrink`] and written to `tests/corpus/` as a
//! `{"problem": ...}` case file (the same shape `certify`'s `recheck`
//! example reads), so the next run — and the next engineer — replays it.

use insitu_core::placement::place_schedule;
use insitu_core::{build_aggregate, formulation, validate_schedule};
use insitu_types::json::{FromJson, ToJson, Value};
use insitu_types::{
    AnalysisProfile, ResourceConfig, Schedule, ScheduleProblem, SearchCertificate,
};
use milp::{SolveError, SolveOptions};
use rand::rngs::StdRng;
use rand::Rng;

/// Enumeration cap for the brute-force oracle; instances whose model is
/// bigger than this skip the brute stage (the other oracles still run).
pub const BRUTE_CAP: usize = 1 << 21;

/// Serial solver options with certificate emission on.
pub fn serial_opts() -> SolveOptions {
    SolveOptions {
        threads: 1,
        certificate: true,
        ..SolveOptions::default()
    }
}

/// Parallel solver options (3 workers) with certificate emission on.
pub fn parallel_opts() -> SolveOptions {
    SolveOptions {
        threads: 3,
        certificate: true,
        ..SolveOptions::default()
    }
}

/// Generates one paper-shaped instance. `case` selects the degenerate
/// family on a fixed rotation so every run covers all of them.
pub fn gen_problem(rng: &mut StdRng, case: usize) -> ScheduleProblem {
    let variant = case % 8;
    let steps = rng.gen_range(4usize..=24);
    let n = rng.gen_range(1usize..=3);
    let mut analyses = Vec::with_capacity(n);
    let mut rough_cost = 0.0f64;
    let mut rough_peak = 0.0f64;
    for i in 0..n {
        // itv chosen so kmax = steps/itv stays in 1..=5 — keeps the unary
        // memory expansion and the brute-force enumeration small
        let kmax = rng.gen_range(1usize..=5);
        let itv = if variant == 3 {
            steps // degenerate: interval as long as the whole run
        } else {
            (steps / kmax).max(1)
        };
        let heavy_mem = variant == 2 || variant == 5 || rng.gen_bool(0.3);
        let mem = |rng: &mut StdRng, hi: f64| if heavy_mem { rng.gen_range(0.0..hi) } else { 0.0 };
        let ct = rng.gen_range(0.0..4.0);
        let ot = rng.gen_range(0.0..2.0);
        let (ft, fm) = if rng.gen_bool(0.4) {
            (rng.gen_range(0.0..1.0), mem(rng, 30.0))
        } else {
            (0.0, 0.0)
        };
        let (it, im) = if rng.gen_bool(0.4) {
            (rng.gen_range(0.0..0.02), mem(rng, 3.0))
        } else {
            (0.0, 0.0)
        };
        let cm = mem(rng, 40.0);
        let om = mem(rng, 20.0);
        let output_every = rng.gen_range(0usize..=2);
        // half-integer weights stay exact in binary floating point, so the
        // solver objective and the rational replay agree bit-for-bit
        let weight = rng.gen_range(1u32..=6) as f64 * 0.5;
        analyses.push(
            AnalysisProfile::new(format!("a{i}"))
                .with_fixed(ft, fm)
                .with_per_step(it, im)
                .with_compute(ct, cm)
                .with_output(ot, om, output_every)
                .with_weight(weight)
                .with_interval(itv),
        );
        let k = steps / itv;
        rough_cost += ft + it * steps as f64 + k as f64 * (ct + ot);
        rough_peak += fm + im * steps as f64 + k as f64 * cm + om;
    }
    let budget = match variant {
        4 => 0.0, // degenerate: no time at all
        // cut-heavy family: a budget tight enough that the LP vertex is
        // fractional, so Gomory/cover separation fires on most instances
        5 => rough_cost * rng.gen_range(0.05..0.4),
        _ => rough_cost * rng.gen_range(0.05..1.2),
    };
    let mem_threshold = if (variant == 2 || variant == 5) && rough_peak > 0.0 {
        rough_peak * rng.gen_range(0.1..0.9) // degenerate: memory-tight
    } else {
        1e6
    };
    let io_bandwidth = if variant == 0 { 0.0 } else { 1e6 };
    let mut resources = ResourceConfig::from_total_threshold(steps, budget, mem_threshold, 1e6);
    resources.io_bandwidth = io_bandwidth;
    ScheduleProblem::new(analyses, resources).expect("generator emits valid problems")
}

/// Relative-tolerance objective comparison for cross-solver agreement.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Runs the full differential check on one instance. `Ok(())` means every
/// oracle agreed; `Err` describes the first disagreement.
pub fn differential_check(problem: &ScheduleProblem) -> Result<(), String> {
    let built = build_aggregate(problem).map_err(|e| format!("build_aggregate failed: {e}"))?;

    // 1. serial vs parallel branch & bound on the identical model
    let serial = milp::solve(&built.model, &serial_opts())
        .map_err(|e| format!("serial solve failed: {e}"))?;
    let par = milp::solve(&built.model, &parallel_opts())
        .map_err(|e| format!("parallel solve failed: {e}"))?;
    if !close(serial.objective, par.objective) {
        return Err(format!(
            "serial objective {} != parallel objective {}",
            serial.objective, par.objective
        ));
    }

    // 2. the shipped revised simplex vs the dense-tableau oracle on the
    //    model's LP relaxation (the solve above found an integer point, so
    //    the relaxation is feasible and both must find its optimum)
    let revised = milp::solve_lp_relaxation(&built.model, &serial_opts())
        .map_err(|e| format!("revised LP relaxation failed: {e}"))?;
    let dense = milp::solve_lp_relaxation_dense(&built.model, &serial_opts())
        .map_err(|e| format!("dense LP relaxation failed: {e}"))?;
    if !close(revised.objective, dense.objective) {
        return Err(format!(
            "revised LP objective {} != dense LP objective {}",
            revised.objective, dense.objective
        ));
    }

    // 3. brute-force enumeration (the model is pure-integer by design):
    //    cutting planes, branching and presolve must never move the optimum
    match milp::brute::brute_force(&built.model, BRUTE_CAP) {
        Ok(brute) => {
            if !close(brute.objective, serial.objective) {
                return Err(format!(
                    "brute-force objective {} != branch&bound objective {}",
                    brute.objective, serial.objective
                ));
            }
        }
        Err(SolveError::BadModel(msg)) if msg.contains("enumeration") => {} // too big, skip
        Err(e) => return Err(format!("brute force failed: {e}")),
    }

    // 4. place the counts and certify the schedule independently
    let (counts, output_counts) = built.counts_from(&serial.values);
    let schedule = place_schedule(problem, &counts, &output_counts);
    let report = validate_schedule(problem, &schedule);
    if !report.is_feasible() {
        return Err(format!(
            "placed schedule failed certification: {:?}",
            report.violations
        ));
    }
    if !close(report.objective, serial.objective) {
        return Err(format!(
            "replayed objective {} != solver objective {}",
            report.objective, serial.objective
        ));
    }

    // 5. the pruning certificate must close against the replayed objective
    let cert = serial
        .stats
        .certificate
        .as_ref()
        .ok_or("solver did not emit a certificate despite opts.certificate")?;
    if !cert.proven_optimal {
        return Err("solver did not claim proven optimality".into());
    }
    let problems = certify::check_certificate(cert, report.objective);
    if !problems.is_empty() {
        return Err(format!("certificate does not close: {problems:?}"));
    }
    // ... and checking it once then replaying per reply is the same decision
    witness_agrees(problem, &schedule, cert)?;

    // 6. on small memory-free instances the exact time-indexed formulation
    //    is equivalent (see aggregate's module docs) — cross-check it
    let no_mem = problem.analyses.iter().all(|a| {
        a.fixed_mem == 0.0 && a.step_mem == 0.0 && a.compute_mem == 0.0 && a.output_mem == 0.0
    });
    if no_mem && problem.resources.steps <= 16 {
        let exact_obj = formulation::solve_exact(problem, &serial_opts(), None)
            .map_err(|e| format!("exact formulation failed: {e}"))?
            .objective;
        if !close(exact_obj, serial.objective) {
            return Err(format!(
                "exact formulation objective {exact_obj} != aggregate objective {}",
                serial.objective
            ));
        }
    }
    Ok(())
}

/// The check-once / replay-every-reply split must decide exactly what the
/// one-call path decides. For `cert` and a few corruptions of it:
/// [`certify::CheckedCertificate::check`] admits the certificate iff
/// `check_certificate` finds no objective-independent problem and the
/// solver claimed optimality; and for `schedule`, the empty schedule and a
/// truncated one, [`certify::certify_checked`] returns the verdict, the
/// problem strings and the replay [`certify::certify`] returns.
pub fn witness_agrees(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    cert: &SearchCertificate,
) -> Result<(), String> {
    let mut truncated = schedule.clone();
    for s in &mut truncated.per_analysis {
        if let Some(last) = s.analysis_steps.pop() {
            s.output_steps.retain(|&j| j != last);
        }
    }
    let schedules = [schedule.clone(), Schedule::empty(problem.len()), truncated];

    let mut unproven = cert.clone();
    unproven.proven_optimal = false;
    let mut open_tree = cert.clone();
    open_tree.nodes.pop();
    let mut loose_prune = cert.clone();
    for n in &mut loose_prune.nodes {
        if n.parent.is_some() {
            n.lp_bound += if cert.maximize { 10.0 } else { -10.0 };
        }
    }
    let mut bad_cut = cert.clone();
    for cut in &mut bad_cut.cuts {
        match cut {
            insitu_types::CutProof::Gomory { cut_rhs, .. } => *cut_rhs += 1.0,
            insitu_types::CutProof::Cover { rhs, .. } => *rhs += 1e6,
        }
    }

    for (what, c) in [
        ("as emitted", cert),
        ("unproven", &unproven),
        ("last node dropped", &open_tree),
        ("child bounds loosened", &loose_prune),
        ("cuts tampered", &bad_cut),
    ] {
        let mut independent = certify::check_certificate(c, c.objective);
        if !c.proven_optimal {
            independent.push("solver did not claim proven optimality".into());
        }
        let checked = match certify::CheckedCertificate::check(c.clone()) {
            Ok(checked) if independent.is_empty() => checked,
            Err(refused) if refused == independent => continue,
            other => {
                return Err(format!(
                    "certificate {what}: check() gave {:?}, check_certificate {independent:?}",
                    other.map(|_| "a witness")
                ))
            }
        };
        for s in &schedules {
            let one_call = certify::certify(problem, s, Some(c));
            let split = certify::certify_checked(problem, s, &checked);
            if (one_call.verdict, &one_call.problems, &one_call.replay)
                != (split.verdict, &split.problems, &split.replay)
            {
                return Err(format!(
                    "certificate {what}: certify says {} {:?}, certify_checked {} {:?}",
                    one_call.verdict, one_call.problems, split.verdict, split.problems
                ));
            }
        }
    }
    Ok(())
}

/// Greedily shrinks a failing instance: repeatedly applies the first
/// simplification that still fails [`differential_check`], until none
/// does. Returns the minimal instance and its failure message.
pub fn shrink(problem: &ScheduleProblem) -> (ScheduleProblem, String) {
    let mut cur = problem.clone();
    let mut msg = differential_check(&cur).expect_err("shrink needs a failing instance");
    loop {
        let mut reduced = false;
        for cand in candidates(&cur) {
            if let Err(e) = differential_check(&cand) {
                cur = cand;
                msg = e;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (cur, msg);
        }
    }
}

/// Simplification candidates, most aggressive first.
fn candidates(p: &ScheduleProblem) -> Vec<ScheduleProblem> {
    let mut out = Vec::new();
    let mut push = |p: ScheduleProblem| {
        if p.validate().is_ok() {
            out.push(p);
        }
    };
    // drop whole analyses
    if p.len() > 1 {
        for i in 0..p.len() {
            let mut q = p.clone();
            q.analyses.remove(i);
            push(q);
        }
    }
    // halve the horizon
    if p.resources.steps > 2 {
        let mut q = p.clone();
        q.resources.steps /= 2;
        for a in &mut q.analyses {
            a.min_interval = a.min_interval.min(q.resources.steps);
        }
        push(q);
    }
    // zero out parameters one at a time
    for i in 0..p.len() {
        macro_rules! zero {
            ($field:ident) => {
                if p.analyses[i].$field != 0.0 {
                    let mut q = p.clone();
                    q.analyses[i].$field = 0.0;
                    push(q);
                }
            };
        }
        zero!(fixed_time);
        zero!(step_time);
        zero!(output_time);
        zero!(fixed_mem);
        zero!(step_mem);
        zero!(compute_mem);
        zero!(output_mem);
        if p.analyses[i].weight != 1.0 {
            let mut q = p.clone();
            q.analyses[i].weight = 1.0;
            push(q);
        }
        if p.analyses[i].compute_time != 0.0 {
            let mut q = p.clone();
            q.analyses[i].compute_time = 0.0;
            push(q);
        }
        // coarsen the interval (shrinks kmax and the model)
        let itv = p.analyses[i].min_interval;
        if itv < p.resources.steps {
            let mut q = p.clone();
            q.analyses[i].min_interval = (itv * 2).min(q.resources.steps);
            push(q);
        }
    }
    // un-tighten the memory threshold
    if p.resources.mem_threshold < 1e6 {
        let mut q = p.clone();
        q.resources.mem_threshold = 1e6;
        push(q);
    }
    out
}

/// Renders a corpus case file: `{"problem": ..., "schedule"?: ...,
/// "certificate"?: ...}` — the shape `certify --example recheck` reads.
pub fn case_json(
    problem: &ScheduleProblem,
    schedule: Option<&Schedule>,
    certificate: Option<&SearchCertificate>,
) -> String {
    let mut m = std::collections::BTreeMap::new();
    m.insert("problem".to_string(), problem.to_json());
    if let Some(s) = schedule {
        m.insert("schedule".to_string(), s.to_json());
    }
    if let Some(c) = certificate {
        m.insert("certificate".to_string(), c.to_json());
    }
    Value::Object(m).to_string_pretty()
}

/// Parses a corpus case file back into its parts.
pub fn parse_case(
    text: &str,
) -> Result<(ScheduleProblem, Option<Schedule>, Option<SearchCertificate>), String> {
    let doc = Value::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let Value::Object(m) = &doc else {
        return Err("top level must be an object".into());
    };
    let problem = match m.get("problem") {
        Some(v) => ScheduleProblem::from_json(v).map_err(|e| format!("bad `problem`: {e}"))?,
        None => return Err("missing `problem`".into()),
    };
    let schedule = match m.get("schedule") {
        Some(v) => Some(Schedule::from_json(v).map_err(|e| format!("bad `schedule`: {e}"))?),
        None => None,
    };
    let certificate = match m.get("certificate") {
        Some(v) => {
            Some(SearchCertificate::from_json(v).map_err(|e| format!("bad `certificate`: {e}"))?)
        }
        None => None,
    };
    Ok((problem, schedule, certificate))
}

/// `tests/corpus/` next to this crate's manifest.
pub fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Every `*.json` case file in the corpus, sorted by name.
pub fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = corpus_dir();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

/// Writes a (shrunk) failing case into the corpus and returns its path.
pub fn write_corpus_case(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create tests/corpus");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write corpus case");
    path
}

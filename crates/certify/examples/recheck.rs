//! Re-verifies a solved instance from a JSON case file.
//!
//! ```text
//! cargo run -p certify --example recheck -- tests/corpus/<case>.json
//! ```
//!
//! The case file holds a `problem` (a [`ScheduleProblem`]), a `schedule`
//! and optionally the solver's `certificate`; the corpus files under
//! `tests/corpus/` and the artifacts written by the differential fuzz
//! harness all use this shape. Prints the exact replay numbers and the
//! final verdict; exits non-zero for INVALID so the command composes in
//! scripts. A passing verdict that forgave dust ([`certify::forgiven`])
//! lists each forgiven violation, exact excess included, and still exits 0.

use insitu_types::json::{FromJson, Value};
use insitu_types::{Schedule, ScheduleProblem, SearchCertificate};

fn main() {
    let mut args = std::env::args().skip(1);
    let path = match args.next() {
        Some(p) => p,
        None => {
            eprintln!("usage: recheck <case.json>");
            eprintln!("  case.json: {{\"problem\": ..., \"schedule\": ..., \"certificate\"?: ...}}");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("recheck: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("recheck: {path} is not valid JSON: {e}");
            std::process::exit(2);
        }
    };
    let obj = match &doc {
        Value::Object(m) => m,
        _ => {
            eprintln!("recheck: top level of {path} must be an object");
            std::process::exit(2);
        }
    };
    let problem = match obj.get("problem").map(ScheduleProblem::from_json) {
        Some(Ok(p)) => p,
        Some(Err(e)) => {
            eprintln!("recheck: bad `problem`: {e}");
            std::process::exit(2);
        }
        None => {
            eprintln!("recheck: missing `problem`");
            std::process::exit(2);
        }
    };
    let schedule = match obj.get("schedule").map(Schedule::from_json) {
        Some(Ok(s)) => s,
        Some(Err(e)) => {
            eprintln!("recheck: bad `schedule`: {e}");
            std::process::exit(2);
        }
        None => {
            // problem-only reproducers (what the fuzz shrinker writes)
            // carry nothing to certify; the differential harness re-solves
            // them: cargo test -p integration-tests --test certify_differential
            println!("case      {path}");
            println!(
                "analyses  {} over {} steps",
                problem.len(),
                problem.resources.steps
            );
            println!("schedule  (none — problem-only reproducer, nothing to certify)");
            match problem.validate() {
                Ok(()) => std::process::exit(0),
                Err(e) => {
                    println!("  problem: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    let certificate = match obj.get("certificate").map(SearchCertificate::from_json) {
        Some(Ok(c)) => Some(c),
        Some(Err(e)) => {
            eprintln!("recheck: bad `certificate`: {e}");
            std::process::exit(2);
        }
        None => None,
    };

    let c = certify::certify(&problem, &schedule, certificate.as_ref());
    println!("case      {path}");
    println!(
        "analyses  {} over {} steps",
        problem.len(),
        problem.resources.steps
    );
    if let Some(r) = &c.replay {
        println!(
            "time      {} (exact {}) / {} s (exact {})",
            r.total_time.to_f64(),
            r.total_time,
            r.time_budget.to_f64(),
            r.time_budget,
        );
        println!(
            "memory    peak {} / {} bytes",
            r.peak_memory.to_f64(),
            problem.resources.mem_threshold
        );
        println!("objective {} (exact {})", r.objective.to_f64(), r.objective);
    }
    match &certificate {
        Some(cert) => println!(
            "cert      {} nodes, dual bound {}, gap {}",
            cert.nodes.len(),
            cert.dual_bound,
            cert.abs_gap
        ),
        None => println!("cert      (none supplied)"),
    }
    println!("verdict   {}", c.verdict);
    for p in &c.problems {
        println!("  problem: {p}");
    }
    if c.verdict == certify::Verdict::Invalid {
        std::process::exit(1);
    }
    // a passing verdict over a replay that still lists violations
    for v in c.replay.iter().flat_map(|r| &r.violations) {
        println!("  forgiven: {}", v.message);
    }
}

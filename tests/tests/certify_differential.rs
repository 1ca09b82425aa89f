//! Differential fuzz harness for the MILP pipeline.
//!
//! Seeded random paper-shaped instances are pushed through every oracle
//! the workspace has — serial branch & bound, parallel branch & bound,
//! brute-force enumeration, the exact time-indexed formulation, and the
//! independent exact-rational certifier — and all of them must agree.
//! Any disagreement is shrunk to a minimal reproducer and written to
//! `tests/corpus/`, which [`corpus_replays_clean`] replays on every run.
//!
//! Knobs (all environment variables):
//! * `CERTIFY_FUZZ_CASES` — number of instances (default 200),
//! * `CERTIFY_FUZZ_SEED` — base seed (default 20150815, fixed so CI is
//!   deterministic; change it to explore a different corner of the space).

use integration_tests::fuzz;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn differential_fuzz() {
    let cases = env_u64("CERTIFY_FUZZ_CASES", 200) as usize;
    let seed = env_u64("CERTIFY_FUZZ_SEED", 20_150_815);
    let mut failures = Vec::new();
    for case in 0..cases {
        // one RNG per case, derived from (seed, case): any failure can be
        // reproduced alone without replaying the stream before it
        let mut rng = StdRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let problem = fuzz::gen_problem(&mut rng, case);
        if let Err(msg) = fuzz::differential_check(&problem) {
            let (minimal, min_msg) = fuzz::shrink(&problem);
            let path = fuzz::write_corpus_case(
                &format!("shrunk-seed{seed}-case{case}.json"),
                &fuzz::case_json(&minimal, None, None),
            );
            failures.push(format!(
                "case {case}: {msg}\n  shrunk to {} ({min_msg})",
                path.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {cases} fuzz cases disagreed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every corpus case — hand-transcribed regressions and previously shrunk
/// fuzz failures alike — must pass the full differential check today.
#[test]
fn corpus_replays_clean() {
    let entries = fuzz::corpus_files();
    assert!(
        !entries.is_empty(),
        "tests/corpus must contain at least the seeded regression cases"
    );
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable corpus case");
        let (problem, schedule, certificate) = fuzz::parse_case(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Err(msg) = fuzz::differential_check(&problem) {
            panic!("{}: differential check fails: {msg}", path.display());
        }
        // cases that carry a solved schedule (e.g. the exemplar the README
        // points `recheck` at) must still certify exactly as recorded
        if let Some(s) = &schedule {
            if let Some(cert) = &certificate {
                fuzz::witness_agrees(&problem, s, cert)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            }
            let c = certify::certify(&problem, s, certificate.as_ref());
            match certificate {
                Some(_) => assert_eq!(
                    c.verdict,
                    certify::Verdict::Proved,
                    "{}: {:?}",
                    path.display(),
                    c.problems
                ),
                None => assert_ne!(
                    c.verdict,
                    certify::Verdict::Invalid,
                    "{}: {:?}",
                    path.display(),
                    c.problems
                ),
            }
        }
    }
}

/// Regenerates `tests/corpus/exemplar-proved.json` (the case the README's
/// `recheck` walkthrough uses). Gated so normal runs only read the corpus:
/// `UPDATE_CORPUS=1 cargo test -p integration-tests exemplar`.
#[test]
fn exemplar_case_is_current() {
    let problem = exemplar_problem();
    let built = insitu_core::build_aggregate(&problem).expect("model builds");
    let sol = milp::solve(&built.model, &fuzz::serial_opts()).expect("solves");
    let (counts, output_counts) = built.counts_from(&sol.values);
    let schedule = insitu_core::placement::place_schedule(&problem, &counts, &output_counts);
    let cert = sol.stats.certificate.as_ref().expect("certificate emitted");
    let rendered = fuzz::case_json(&problem, Some(&schedule), Some(cert));
    let path = fuzz::corpus_dir().join("exemplar-proved.json");
    if std::env::var("UPDATE_CORPUS").is_ok() {
        fuzz::write_corpus_case("exemplar-proved.json", &rendered);
        return;
    }
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing ({e}); run with UPDATE_CORPUS=1", path.display()));
    assert_eq!(
        on_disk, rendered,
        "exemplar drifted from the current solver; regenerate with UPDATE_CORPUS=1"
    );
}

/// A small Table-5-flavoured instance: three cheap analyses and one dear
/// one under a tight budget, with enough memory pressure to exercise the
/// reset-at-output recursion.
fn exemplar_problem() -> insitu_types::ScheduleProblem {
    use insitu_types::{AnalysisProfile, ResourceConfig};
    insitu_types::ScheduleProblem::new(
        vec![
            AnalysisProfile::new("rdf")
                .with_compute(0.5, 64.0)
                .with_output(0.125, 16.0, 1)
                .with_interval(10),
            AnalysisProfile::new("msd")
                .with_per_step(0.0, 2.0)
                .with_compute(1.5, 32.0)
                .with_output(0.25, 8.0, 1)
                .with_interval(20),
            AnalysisProfile::new("voronoi")
                .with_compute(6.0, 128.0)
                .with_output(1.0, 32.0, 1)
                .with_interval(25)
                .with_weight(2.0),
        ],
        ResourceConfig::from_total_threshold(100, 30.0, 512.0, 1e6),
    )
    .expect("valid problem")
}

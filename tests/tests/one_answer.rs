//! One instance, one answer: the paper has one model (Eqs. 1–9), so every
//! door into solve-and-stamp must give the same reply to the same
//! instance — `Advisor::recommend`, `Advisor::recommend_remaining` with
//! nothing carried, and `SolveService::solve` on a miss and on the hit
//! that follows it.
//!
//! Only verdicts, objectives and refusals are compared. Counts and
//! schedules are not: ties may break differently under a hint or under
//! the service's canonical reorder.

use insitu_core::advisor::{Advisor, AdvisorError, AdvisorOptions};
use insitu_types::{Schedule, ScheduleProblem};
use integration_tests::fuzz;
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::{ServiceConfig, ServiceError, SolveService};

/// What one door said: a stamped objective, or the certifier's complaints.
type Answer = Result<(certify::Verdict, f64), Vec<String>>;

/// The served schedule must replay clean, whoever served it.
fn replayed(door: &str, p: &ScheduleProblem, s: &Schedule) {
    let r = certify::replay(p, s).unwrap_or_else(|e| panic!("{door}: replay impossible: {e}"));
    assert!(r.is_feasible(), "{door}: served schedule does not replay: {:?}", r.messages());
}

fn advisor_refusal(e: AdvisorError) -> Vec<String> {
    match e {
        AdvisorError::CertificationFailed(problems) => problems,
        AdvisorError::Solver(e) => vec![e.to_string()],
    }
}

fn service_refusal(e: ServiceError) -> Vec<String> {
    match e {
        ServiceError::Certification(problems) => problems,
        other => vec![other.to_string()],
    }
}

/// Puts `p` through every door with one solver configuration (serial, so
/// the search tree — and with it any complaint about the tree — is the
/// same wherever it is built) and returns each door's answer by name.
fn doors(p: &ScheduleProblem, exact_steps_limit: usize) -> Vec<(&'static str, Answer)> {
    let advisor = Advisor::new(AdvisorOptions {
        solver: fuzz::serial_opts(),
        exact_steps_limit,
    });
    let fresh = advisor.recommend(p);
    // nothing carried: the incumbent is the recommendation itself (the
    // empty schedule when there is none) and the carry is the fresh one
    let incumbent = match &fresh {
        Ok(rec) => rec.schedule.clone(),
        Err(_) => Schedule::empty(p.len()),
    };
    let remaining =
        advisor.recommend_remaining(p, &incumbent, &certify::SuffixCarry::fresh(p.len()));
    let service = SolveService::new(ServiceConfig {
        solver: fuzz::serial_opts(),
        ..ServiceConfig::default()
    });
    let miss = service.solve(p);
    let hit = service.solve(p);

    let mut out = Vec::new();
    out.push((
        "recommend",
        fresh
            .map(|rec| {
                replayed("recommend", p, &rec.schedule);
                (rec.verdict, rec.objective)
            })
            .map_err(advisor_refusal),
    ));
    out.push((
        "recommend_remaining",
        remaining
            .map(|o| {
                replayed("recommend_remaining", p, &o.schedule);
                (o.certification.verdict, o.objective)
            })
            .map_err(advisor_refusal),
    ));
    for (door, reply) in [("service miss", miss), ("service hit", hit)] {
        out.push((
            door,
            reply
                .map(|r| {
                    replayed(door, p, &r.schedule);
                    (r.verdict, r.objective)
                })
                .map_err(service_refusal),
        ));
    }
    out
}

/// All doors agree with the first one; returns that common answer.
fn one_answer(what: &str, p: &ScheduleProblem, exact_steps_limit: usize) -> Answer {
    let answers = doors(p, exact_steps_limit);
    let (first_door, first) = &answers[0];
    for (door, answer) in &answers[1..] {
        assert_eq!(
            answer, first,
            "{what}: `{door}` and `{first_door}` disagree on {}",
            insitu_types::json::to_string(p)
        );
    }
    first.clone()
}

#[test]
fn every_door_gives_the_same_answer_to_the_same_instance() {
    let cases = 800;
    let mut rng = StdRng::seed_from_u64(22);
    let (mut replies, mut refusals) = (0usize, 0usize);
    for case in 0..cases {
        let p = fuzz::gen_problem(&mut rng, case);
        match one_answer(&format!("case {case}"), &p, 0) {
            Ok((verdict, _)) => {
                assert_eq!(verdict, certify::Verdict::Proved, "case {case}");
                replies += 1;
            }
            Err(_) => refusals += 1,
        }
    }
    // a refusal is the gate working, but the family must mostly be served
    // or the comparison above compares nothing
    assert!(refusals * 100 <= cases, "{refusals} of {cases} cases refused");
    assert_eq!(replies + refusals, cases);
}

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

// ---- added with the change that folded the doors into one body ----------

/// The doors' answers without [`replayed`]'s strict replay: a dust-boundary
/// schedule passes the verdict, not `ReplayReport::is_feasible`.
fn answers(p: &ScheduleProblem, exact_steps_limit: usize) -> Vec<Answer> {
    let advisor = Advisor::new(AdvisorOptions {
        solver: fuzz::serial_opts(),
        exact_steps_limit,
    });
    let fresh = advisor.recommend(p);
    let incumbent = fresh.as_ref().map_or(Schedule::empty(p.len()), |rec| rec.schedule.clone());
    let carry = certify::SuffixCarry::fresh(p.len());
    let service = SolveService::new(ServiceConfig {
        solver: fuzz::serial_opts(),
        ..ServiceConfig::default()
    });
    let served = |r: Result<service::Reply, ServiceError>| {
        r.map(|r| (r.verdict, r.objective)).map_err(service_refusal)
    };
    vec![
        advisor
            .recommend_remaining(p, &incumbent, &carry)
            .map(|o| (o.certification.verdict, o.objective))
            .map_err(advisor_refusal),
        served(service.solve(p)),
        served(service.solve(p)),
        fresh.map(|rec| (rec.verdict, rec.objective)).map_err(advisor_refusal),
    ]
}

/// The README's quickstart instance (`examples/quickstart.rs`): its optimum
/// meets the 30 s budget with an exact excess of 99/2^56.
fn quickstart() -> ScheduleProblem {
    use insitu_types::{AnalysisProfile, ResourceConfig, GIB, MIB};
    ScheduleProblem::new(
        vec![
            AnalysisProfile::new("descriptive statistics")
                .with_compute(0.4, 64.0 * MIB)
                .with_output(0.1, 16.0 * MIB, 1)
                .with_interval(50),
            AnalysisProfile::new("histograms")
                .with_compute(1.2, 256.0 * MIB)
                .with_output(0.4, 128.0 * MIB, 2)
                .with_interval(100),
            AnalysisProfile::new("temporal correlation")
                .with_per_step(0.002, 2.0 * MIB)
                .with_compute(3.0, 512.0 * MIB)
                .with_output(1.0, 256.0 * MIB, 1)
                .with_interval(100)
                .with_weight(2.0),
        ],
        ResourceConfig::from_total_threshold(1000, 30.0, 8.0 * GIB, GIB),
    )
    .unwrap()
}

/// `runs` runs of 0.1 s each, `itv` 1, over 3 steps: three of them sum to
/// 3/2^56 more than the double 0.3.
fn tenths(budget: f64) -> ScheduleProblem {
    use insitu_types::{AnalysisProfile, ResourceConfig};
    ScheduleProblem::new(
        vec![AnalysisProfile::new("a").with_compute(0.1, 0.0).with_interval(1)],
        ResourceConfig::from_total_threshold(3, budget, 1e9, 1e9),
    )
    .unwrap()
}

/// Before the fold `recommend` served these two `PROVED` while the service
/// answered `certification failed: total analysis time 30 exceeds budget 30
/// (exact excess 99/72057594037927936)` (and `… 0.30000000000000004 exceeds
/// budget 0.3 (exact excess 3/72057594037927936)`), as did
/// `recommend_remaining`.
#[test]
fn dust_boundary_instances_get_one_answer_from_every_door() {
    use certify::Verdict::Proved;
    for (what, p, limit, objective) in [
        ("quickstart", quickstart(), 0, 35.0),
        ("three tenths, aggregate", tenths(0.3), 0, 4.0),
        ("three tenths, exact", tenths(0.3), 3, 4.0),
    ] {
        for (door, answer) in answers(&p, limit).into_iter().enumerate() {
            assert_eq!(answer, Ok((Proved, objective)), "{what}, door {door}");
        }
    }
    // and it is dust that was forgiven, not nothing: the strict replay of
    // the served schedule still lists the excess
    let rec = Advisor::default().recommend(&quickstart()).unwrap();
    let strict = certify::replay(&quickstart(), &rec.schedule).unwrap();
    assert_eq!(strict.violations.len(), 1);
    assert!(strict.violations[0].message.contains("exact excess 99/72057594037927936"));
    assert!(certify::forgiven(&strict.violations[0], &quickstart().resources));

    // the solved case `recheck` is shown on in docs/CERTIFY.md is this one
    let path = fuzz::corpus_dir().join("forgiven/quickstart.json");
    let text = std::fs::read_to_string(&path).expect("readable corpus case");
    let (p, s, cert) = fuzz::parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(p, quickstart());
    let c = certify::certify(&p, &s.expect("a schedule"), cert.as_ref());
    assert_eq!((c.verdict, c.problems.len()), (Proved, 0));
    assert_eq!(c.replay.unwrap().violations, strict.violations);
}

/// The rule forgives dust, not violations. The solver's own feasibility
/// tolerance (1e-6) is wider than the verdict's, so against a budget that
/// three tenths overrun by slightly more than `EXCESS_TOL · (1 + budget)`
/// it still proposes three runs — and every door refuses them, with the
/// complaint every verdict function gives about that schedule.
#[test]
fn an_excess_just_above_the_tolerance_is_invalid_through_every_door() {
    use insitu_types::{AnalysisSchedule, NodeCert, NodeOutcome, SearchCertificate};
    let mut three = Schedule::empty(1);
    three.per_analysis[0] = AnalysisSchedule::new(vec![1, 2, 3], vec![]);
    // a closing certificate for "three runs, objective 4 = 1 + 3"
    let claims_four = certify::CheckedCertificate::check(SearchCertificate {
        objective: 4.0,
        dual_bound: 4.0,
        abs_gap: 1e-9,
        maximize: true,
        proven_optimal: true,
        nodes: vec![NodeCert {
            id: 0,
            parent: None,
            lp_bound: 4.0,
            outcome: NodeOutcome::Integral { objective: 4.0 },
        }],
        cuts: Vec::new(),
    })
    .expect("a one-node tree closes");
    let fresh = certify::SuffixCarry::fresh(1);

    // tolerance at a 0.3 s budget: 1e-9 · 1.3; the schedule costs 0.3 + 3/2^56
    for (budget, passes) in [(0.3 - 1.2e-9, true), (0.3 - 1.4e-9, false)] {
        let p = tenths(budget);
        let judged = [
            certify::certify(&p, &three, Some(claims_four.get())),
            certify::certify_checked(&p, &three, &claims_four),
            certify::certify_suffix(&p, &three, &fresh, Some(&claims_four)),
        ];
        let report = insitu_core::validate_schedule(&p, &three);
        let doors = answers(&p, 0);
        if passes {
            assert!(judged.iter().all(|c| c.verdict == certify::Verdict::Proved));
            assert!(report.is_feasible());
            assert!(doors.iter().all(|a| *a == Ok((certify::Verdict::Proved, 4.0))), "{doors:?}");
        } else {
            let complaint = &judged[0].problems;
            assert!(complaint[0].contains("exceeds budget"), "{complaint:?}");
            assert!(judged.iter().all(|c| c.verdict == certify::Verdict::Invalid));
            assert!(judged.iter().all(|c| c.problems == *complaint));
            assert_eq!(report.violations, *complaint);
            assert!(doors.iter().all(|a| a.as_ref() == Err(complaint)), "{doors:?}");
        }
    }
}

/// An open defect, pinned at its *safe* behaviour (ROADMAP, first open
/// item): on this instance one warm-started child LP reports an optimum
/// 0.034 below its own child's, so the certificate's bounds are not
/// monotone and every door refuses the solve. The optimum the solver found
/// is right (brute force agrees) — what is wrong is a bound that could
/// prune wrongly elsewhere, and `certify` stopping the reply is the gate
/// working. When the LP defect is fixed this flips to `PROVED 11`.
#[test]
fn lp_bound_not_monotone_is_refused_by_every_door() {
    let path = fuzz::corpus_dir().join("open/lp-bound-not-monotone.json");
    let text = std::fs::read_to_string(&path).expect("readable corpus case");
    let (p, _, _) = fuzz::parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let complaint = "node 9: bound 11.310572422927393 improves on parent 2 bound 11.276222689958933";
    assert_eq!(one_answer("lp-bound-not-monotone", &p, 0), Err(vec![complaint.to_string()]));
    let oracle = fuzz::differential_check(&p).expect_err("the differential check refuses it too");
    assert!(oracle.contains(complaint), "{oracle}");
    let built = insitu_core::build_aggregate(&p).unwrap();
    let brute = milp::brute::brute_force(&built.model, fuzz::BRUTE_CAP).unwrap();
    assert_eq!(brute.objective, 11.0);
    let found = milp::solve(&built.model, &fuzz::serial_opts()).unwrap();
    assert_eq!(found.objective, 11.0);
}

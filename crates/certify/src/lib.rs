//! Independent schedule-certificate checker for the in-situ scheduling
//! pipeline.
//!
//! Given a [`ScheduleProblem`], a concrete [`Schedule`] and (optionally)
//! the solver's [`SearchCertificate`], [`certify`] stamps the solve with
//! one of three verdicts:
//!
//! * [`Verdict::Proved`] — the schedule is feasible (re-derived from the
//!   paper's Eqs. 2–9 in exact rational arithmetic; the verdict forgives a
//!   Time or Memory excess of at most [`EXCESS_TOL`], judged on the exact
//!   value — see [`forgiven`]) *and* the solver's branch-and-bound
//!   pruning certificate closes: no leaf of the search tree can hide a
//!   better schedule, modulo only the solver-attested LP bounds.
//! * [`Verdict::FeasibleOnly`] — the schedule is feasible, but no
//!   optimality certificate was supplied, so it might be sub-optimal.
//! * [`Verdict::Invalid`] — the schedule violates a constraint, the
//!   claimed objective is wrong, or the supplied certificate fails its
//!   closure checks (a solver that did not claim proven optimality
//!   counts). The offending facts are listed in
//!   [`Certification::problems`].
//!
//! A service that re-serves one solve to many requesters splits the work
//! along what depends on the requester: [`CheckedCertificate::check`]
//! decides the closure half once per certificate, [`certify_checked`] the
//! replay + objective half on every reply.
//!
//! This crate deliberately depends only on `insitu-types` (the data
//! model). It shares **no code** with the MILP formulations in
//! `insitu-core` or the solver in `milp`, so it catches bugs in either —
//! the checker-vs-solver split that makes replay meaningful. See
//! `docs/CERTIFY.md` for the format and the exact trust boundary.

pub mod certificate;
pub mod fingerprint;
#[cfg(test)]
mod fraction;
pub mod rational;
pub mod replay;
pub mod suffix;

pub use certificate::{check_certificate, CheckedCertificate, BOUND_TOL};
pub use fingerprint::{fingerprint, Fingerprint};
pub use rational::{Rat, RatError};
pub use replay::{replay, replay_time_series, ReplayReport, Violation, ViolationKind};
pub use suffix::{memory_state_at, replay_suffix, SuffixCarry};

use insitu_types::{ResourceConfig, Schedule, ScheduleProblem, SearchCertificate};

/// Relative slack the *verdict* allows on the Eq. 4 budget and the Eq. 8
/// threshold: schedules come out of a floating-point solve, so a placed
/// optimum can sit a few ulps past a threshold it meets in the model. Like
/// [`BOUND_TOL`] for LP bounds, this loosens no arithmetic — [`replay()`]
/// stays exact and lists every excess — only what [`certify`] makes of it.
pub const EXCESS_TOL: f64 = 1e-9;

/// The forgiveness rule, the only one in the workspace: a Time or Memory
/// violation whose *exact* excess is at most `EXCESS_TOL · (1 + |threshold|)`
/// is dust and does not cost a schedule its verdict; a Structure or
/// Interval violation is always fatal. A passing [`Certification`] whose
/// replay still lists violations has forgiven exactly those.
pub fn forgiven(violation: &Violation, resources: &ResourceConfig) -> bool {
    let threshold = match violation.kind {
        ViolationKind::Time => resources.total_threshold(),
        ViolationKind::Memory => resources.mem_threshold,
        ViolationKind::Structure | ViolationKind::Interval => return false,
    };
    violation.excess <= EXCESS_TOL * (1.0 + threshold.abs())
}

/// Outcome class of one certification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Feasible, and the optimality certificate closes.
    Proved,
    /// Feasible, and no certificate was supplied, so optimality is not
    /// claimed either way. A certificate that *is* supplied and fails —
    /// including one whose solver did not claim proven optimality — is
    /// [`Verdict::Invalid`], never this.
    FeasibleOnly,
    /// Constraint violation, objective mismatch, or broken certificate.
    Invalid,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Proved => "PROVED",
            Verdict::FeasibleOnly => "FEASIBLE-ONLY",
            Verdict::Invalid => "INVALID",
        })
    }
}

/// Full result of [`certify`].
#[derive(Debug, Clone)]
pub struct Certification {
    /// The stamp.
    pub verdict: Verdict,
    /// Exact replay of the feasibility recursions, when arithmetic
    /// succeeded (`None` only for non-finite inputs or i128 overflow). Its
    /// `violations` are strict: under a passing verdict they are the dust
    /// [`forgiven`] let through.
    pub replay: Option<ReplayReport>,
    /// Everything that went wrong, in human-readable form. Empty for
    /// [`Verdict::Proved`] and [`Verdict::FeasibleOnly`].
    pub problems: Vec<String>,
}

impl Certification {
    fn invalid(problems: Vec<String>, replay: Option<ReplayReport>) -> Self {
        Certification {
            verdict: Verdict::Invalid,
            replay,
            problems,
        }
    }
}

/// Certifies `schedule` against `problem`, and the optional solver
/// `certificate` against both.
///
/// The replay is exact (rational arithmetic) and the verdict forgives only
/// what [`forgiven`] names; the certificate checks allow [`BOUND_TOL`] of
/// slack on solver-attested f64 LP bounds only. The certificate's claimed
/// objective is compared to the *exactly replayed* Eq. 1 objective, so the
/// solver cannot grade its own homework.
///
/// # Examples
///
/// ```
/// use insitu_types::{AnalysisProfile, AnalysisSchedule, ResourceConfig,
///                    Schedule, ScheduleProblem};
/// let problem = ScheduleProblem::new(
///     vec![AnalysisProfile::new("rdf").with_compute(1.0, 0.0).with_interval(10)],
///     ResourceConfig::from_total_threshold(100, 5.0, 1e9, 1e9),
/// ).unwrap();
/// let mut schedule = Schedule::empty(1);
/// schedule.per_analysis[0] = AnalysisSchedule::new(vec![50, 100], vec![]);
/// let c = certify::certify(&problem, &schedule, None);
/// assert_eq!(c.verdict, certify::Verdict::FeasibleOnly);
/// ```
pub fn certify(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    certificate: Option<&SearchCertificate>,
) -> Certification {
    stamp(
        &problem.resources,
        replay::replay(problem, schedule),
        certificate,
        certificate::optimality_problems,
    )
}

/// Certifies a mid-run reschedule: a suffix `schedule` against the suffix
/// `problem`, seeded from the executed prefix's [`SuffixCarry`].
///
/// Feasibility is decided by [`suffix::replay_suffix`] — the Eq. 9
/// interval clock and the Eqs. 5–7 memory recursion start from the carried
/// prefix state instead of zero — so with [`SuffixCarry::fresh`] this *is*
/// [`certify`] for a certificate whose closure [`CheckedCertificate::check`]
/// already decided. A witness upgrades the verdict to [`Verdict::Proved`]
/// *for the suffix model the solver saw* (the solver's model is
/// carry-oblivious; a schedule the carry rules out is still
/// [`Verdict::Invalid`] here, whatever the certificate says).
pub fn certify_suffix(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    carry: &suffix::SuffixCarry,
    certificate: Option<&CheckedCertificate>,
) -> Certification {
    stamp(
        &problem.resources,
        suffix::replay_suffix(problem, schedule, carry),
        certificate.map(CheckedCertificate::get),
        |_| Vec::new(),
    )
}

/// The per-reply half of [`certify`], for a certificate whose closure was
/// already decided by [`CheckedCertificate::check`]: replays `schedule`
/// against `problem` exactly (Eqs. 2–9, the requester's instance in the
/// requester's order) and compares the replayed Eq. 1 objective with the
/// certificate's claim within [`BOUND_TOL`].
///
/// Same verdict and same problem strings as
/// `certify(problem, schedule, Some(certificate.get()))` — the closure
/// checks that call would repeat depend on nothing `problem` or
/// `schedule` supply, and `certificate` is the witness that they passed.
/// Never returns [`Verdict::FeasibleOnly`].
pub fn certify_checked(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    certificate: &CheckedCertificate,
) -> Certification {
    // nothing left to find: `certificate` exists because
    // `optimality_problems` came back empty on it
    stamp(
        &problem.resources,
        replay::replay(problem, schedule),
        Some(certificate.get()),
        |_| Vec::new(),
    )
}

/// The one body behind [`certify`], [`certify_suffix`] and
/// [`certify_checked`], which differ only in the replay they hand in and
/// in whether the certificate's closure still has to be checked
/// (`closure_problems`, run only once the replay passes). The objective
/// comparison and the verdict rule — every violation [`forgiven`] does not
/// excuse is fatal — live here and nowhere else.
fn stamp(
    resources: &ResourceConfig,
    report: Result<ReplayReport, RatError>,
    certificate: Option<&SearchCertificate>,
    closure_problems: impl FnOnce(&SearchCertificate) -> Vec<String>,
) -> Certification {
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            return Certification::invalid(vec![format!("exact replay impossible: {e}")], None)
        }
    };
    let fatal: Vec<String> = report
        .violations
        .iter()
        .filter(|v| !forgiven(v, resources))
        .map(|v| v.message.clone())
        .collect();
    if !fatal.is_empty() {
        return Certification::invalid(fatal, Some(report));
    }
    let Some(cert) = certificate else {
        return Certification {
            verdict: Verdict::FeasibleOnly,
            replay: Some(report),
            problems: Vec::new(),
        };
    };
    let problems = certificate::with_objective_check(
        cert.objective,
        report.objective.to_f64(),
        closure_problems(cert),
    );
    Certification {
        verdict: if problems.is_empty() {
            Verdict::Proved
        } else {
            Verdict::Invalid
        },
        replay: Some(report),
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{
        AnalysisProfile, AnalysisSchedule, NodeCert, NodeOutcome, ResourceConfig,
    };

    fn problem() -> ScheduleProblem {
        ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(2.0, 0.0)
                .with_output(1.0, 0.0, 1)
                .with_interval(10)],
            ResourceConfig::from_total_threshold(100, 10.0, 1e9, 1e9),
        )
        .unwrap()
    }

    fn feasible_schedule() -> Schedule {
        let mut s = Schedule::empty(1);
        // 3 * 2.0 + 1 * 1.0 = 7 <= 10
        s.per_analysis[0] = AnalysisSchedule::new(vec![10, 50, 100], vec![100]);
        s
    }

    /// A certificate consistent with `feasible_schedule`'s objective of 4
    /// (1 activation + 3 runs * weight 1).
    fn matching_cert() -> SearchCertificate {
        SearchCertificate {
            objective: 4.0,
            dual_bound: 4.5,
            abs_gap: 1e-9,
            maximize: true,
            proven_optimal: true,
            nodes: vec![
                NodeCert {
                    id: 0,
                    parent: None,
                    lp_bound: 4.5,
                    outcome: NodeOutcome::Branched,
                },
                NodeCert {
                    id: 1,
                    parent: Some(0),
                    lp_bound: 4.0,
                    outcome: NodeOutcome::Integral { objective: 4.0 },
                },
                NodeCert {
                    id: 2,
                    parent: Some(0),
                    lp_bound: 3.0,
                    outcome: NodeOutcome::PrunedBound,
                },
            ],
            cuts: Vec::new(),
        }
    }

    #[test]
    fn feasible_without_cert_is_feasible_only() {
        let c = certify(&problem(), &feasible_schedule(), None);
        assert_eq!(c.verdict, Verdict::FeasibleOnly);
        assert!(c.problems.is_empty());
        assert_eq!(c.replay.unwrap().objective, Rat::from_int(4));
    }

    #[test]
    fn feasible_with_closing_cert_is_proved() {
        let c = certify(&problem(), &feasible_schedule(), Some(&matching_cert()));
        assert_eq!(c.verdict, Verdict::Proved, "{:?}", c.problems);
    }

    #[test]
    fn infeasible_schedule_is_invalid_even_with_cert() {
        let mut s = Schedule::empty(1);
        // 6 * 2.0 = 12 > 10 budget
        s.per_analysis[0] =
            AnalysisSchedule::new(vec![10, 20, 30, 40, 50, 60], vec![]);
        let c = certify(&problem(), &s, Some(&matching_cert()));
        assert_eq!(c.verdict, Verdict::Invalid);
        assert!(!c.problems.is_empty());
    }

    #[test]
    fn cert_objective_must_match_exact_replay() {
        let mut cert = matching_cert();
        cert.objective = 5.0; // schedule really scores 4
        cert.nodes[1].outcome = NodeOutcome::Integral { objective: 5.0 };
        cert.nodes[1].lp_bound = 5.0;
        cert.dual_bound = 5.5;
        cert.nodes[0].lp_bound = 5.5;
        let c = certify(&problem(), &feasible_schedule(), Some(&cert));
        assert_eq!(c.verdict, Verdict::Invalid);
    }

    #[test]
    fn unproven_cert_downgrades_to_invalid() {
        let mut cert = matching_cert();
        cert.proven_optimal = false;
        let c = certify(&problem(), &feasible_schedule(), Some(&cert));
        assert_eq!(c.verdict, Verdict::Invalid);
        assert!(c
            .problems
            .iter()
            .any(|p| p.contains("proven optimality")));
    }

    #[test]
    fn certify_checked_is_certify_minus_the_closure_checks() {
        let same = |a: &Certification, b: &Certification| {
            assert_eq!((a.verdict, &a.problems, &a.replay), (b.verdict, &b.problems, &b.replay));
        };
        let (p, s) = (problem(), feasible_schedule());
        let checked = CheckedCertificate::check(matching_cert()).unwrap();
        let c = certify_checked(&p, &s, &checked);
        assert_eq!(c.verdict, Verdict::Proved, "{:?}", c.problems);
        same(&c, &certify(&p, &s, Some(checked.get())));

        // a schedule the requester's instance rules out: same complaints
        let mut over = Schedule::empty(1);
        over.per_analysis[0] = AnalysisSchedule::new(vec![10, 20, 30, 40, 50, 60], vec![]);
        let c = certify_checked(&p, &over, &checked);
        assert_eq!(c.verdict, Verdict::Invalid);
        same(&c, &certify(&p, &over, Some(checked.get())));

        // a feasible schedule that scores something else (3, not 4): the
        // closed certificate is about another optimum
        let mut fewer = Schedule::empty(1);
        fewer.per_analysis[0] = AnalysisSchedule::new(vec![10, 50], vec![]);
        let c = certify_checked(&p, &fewer, &checked);
        assert_eq!(c.verdict, Verdict::Invalid);
        assert_eq!(c.problems.len(), 1);
        assert!(c.problems[0].contains("caller expected 3"), "{:?}", c.problems);
        same(&c, &certify(&p, &fewer, Some(checked.get())));

        // no witness for a certificate that does not prove optimality
        let mut unproven = matching_cert();
        unproven.proven_optimal = false;
        let refused = CheckedCertificate::check(unproven.clone()).unwrap_err();
        assert_eq!(refused, certify(&p, &s, Some(&unproven)).problems);
    }

    #[test]
    fn non_finite_problem_is_invalid_not_a_panic() {
        let mut p = problem();
        p.analyses[0].compute_time = f64::INFINITY;
        let c = certify(&p, &feasible_schedule(), None);
        assert_eq!(c.verdict, Verdict::Invalid);
        assert!(c.replay.is_none());
    }

    #[test]
    fn certify_suffix_mirrors_certify_and_respects_the_carry() {
        let p = problem();
        let s = feasible_schedule();
        // fresh carry: same verdicts as plain certify
        let fresh = suffix::SuffixCarry::fresh(1);
        let c = certify_suffix(&p, &s, &fresh, None);
        assert_eq!(c.verdict, Verdict::FeasibleOnly);
        let checked = CheckedCertificate::check(matching_cert()).unwrap();
        let c = certify_suffix(&p, &s, &fresh, Some(&checked));
        assert_eq!(c.verdict, Verdict::Proved, "{:?}", c.problems);
        // a carry that rules the schedule out overrides even a closing
        // certificate: first run at 10 needs 0 more steps from scratch,
        // but an interval clock at 0 elapsed + itv 10 pushes it out
        let blocking = suffix::SuffixCarry {
            held_mem: vec![Some(Rat::from_int(0))],
            steps_since_run: vec![Some(0)],
        };
        let mut early = Schedule::empty(1);
        early.per_analysis[0] = AnalysisSchedule::new(vec![5, 50, 100], vec![]);
        let c = certify_suffix(&p, &early, &blocking, Some(&checked));
        assert_eq!(c.verdict, Verdict::Invalid);
    }

    #[test]
    fn the_verdict_forgives_dust_and_nothing_else() {
        // three runs of 0.1 s against a 0.3 s budget: the exact sum of the
        // three doubles is 3/2^56 past the exact budget
        let dusty = |itv| {
            ScheduleProblem::new(
                vec![AnalysisProfile::new("a")
                    .with_compute(0.1, 0.0)
                    .with_interval(itv)],
                ResourceConfig::from_total_threshold(3, 0.3, 1e9, 1e9),
            )
            .unwrap()
        };
        let mut s = Schedule::empty(1);
        s.per_analysis[0] = AnalysisSchedule::new(vec![1, 2, 3], vec![]);
        let cert = matching_cert(); // objective 4 = 1 activation + 3 runs
        for (certificate, verdict) in [
            (None, Verdict::FeasibleOnly),
            (Some(&cert), Verdict::Proved),
        ] {
            let c = certify(&dusty(1), &s, certificate);
            assert_eq!(c.verdict, verdict, "{:?}", c.problems);
            assert!(c.problems.is_empty());
            // forgiven is not silent: the strict replay still lists it
            let replay = c.replay.unwrap();
            assert!(!replay.is_feasible());
            assert_eq!(replay.violations.len(), 1);
            assert_eq!(replay.violations[0].kind, ViolationKind::Time);
            assert!(replay.violations[0]
                .message
                .contains("exact excess 3/72057594037927936"));
        }
        // the same schedule against itv 2 also breaks Eq. 9: INVALID, and the
        // complaint is the interval's, not the dust's
        let c = certify(&dusty(2), &s, Some(&cert));
        assert_eq!(c.verdict, Verdict::Invalid);
        assert!(!c.problems.is_empty());
        assert!(
            c.problems.iter().all(|p| p.contains("violate interval")),
            "{:?}",
            c.problems
        );

        // the rule itself: the same excess is dust on Time and Memory only,
        // and an excess just past the tolerance is a violation
        let resources = dusty(1).resources;
        let v = |kind, excess| Violation {
            kind,
            message: String::new(),
            excess,
        };
        let dust = 3.0 / 72057594037927936.0;
        assert!(forgiven(&v(ViolationKind::Time, dust), &resources));
        assert!(forgiven(&v(ViolationKind::Memory, dust), &resources));
        assert!(!forgiven(&v(ViolationKind::Interval, dust), &resources));
        assert!(!forgiven(&v(ViolationKind::Structure, dust), &resources));
        let edge = EXCESS_TOL * (1.0 + resources.total_threshold());
        assert!(forgiven(&v(ViolationKind::Time, edge), &resources));
        assert!(!forgiven(
            &v(ViolationKind::Time, edge * 1.000001),
            &resources
        ));
    }

    #[test]
    fn verdict_display_is_stable() {
        assert_eq!(Verdict::Proved.to_string(), "PROVED");
        assert_eq!(Verdict::FeasibleOnly.to_string(), "FEASIBLE-ONLY");
        assert_eq!(Verdict::Invalid.to_string(), "INVALID");
    }
}

//! The high-level API: "given these analyses and this machine, what should
//! I run in-situ, how often, and when should it write output?"
//!
//! Every answer to that question — [`Advisor::recommend`], a mid-run
//! [`Advisor::recommend_remaining`], a solve-service miss — is
//! [`Advisor::solve_and_stamp`]; the fresh case is the carried case with
//! nothing carried.

use certify::{Certification, CheckedCertificate, SuffixCarry, Verdict};
use insitu_types::{Schedule, ScheduleProblem};
use milp::{SolveError, SolveOptions, SolveStats};

use crate::aggregate::solve_aggregate;
use crate::formulation::{solve_exact, Solved};
use crate::validate::ValidationReport;

/// Advisor configuration.
#[derive(Debug, Clone, Default)]
pub struct AdvisorOptions {
    /// Options forwarded to the MILP solver.
    pub solver: SolveOptions,
    /// Use the exact time-indexed formulation whenever
    /// `Steps <= exact_steps_limit`; otherwise the aggregate reformulation.
    /// The aggregate model is vastly cheaper and agrees with the exact one
    /// on time and interval, but it is a *restriction* under memory
    /// pressure (see its module docs), so its `PROVED` is about the model
    /// the tree closed over. The default keeps this at 0.
    pub exact_steps_limit: usize,
}

/// Errors surfaced by the advisor.
#[derive(Debug, Clone, PartialEq)]
pub enum AdvisorError {
    /// The underlying MILP failed (infeasible models are reported as an
    /// empty recommendation instead, not an error).
    Solver(SolveError),
    /// A solved schedule failed independent certification — indicates a
    /// solver or formulation bug and should never occur.
    CertificationFailed(Vec<String>),
}

impl std::fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdvisorError::Solver(e) => write!(f, "solver error: {e}"),
            AdvisorError::CertificationFailed(v) => {
                write!(f, "schedule failed certification: {v:?}")
            }
        }
    }
}

impl std::error::Error for AdvisorError {}

/// A certified scheduling recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Certification stamp from `certify`, via [`Advisor::solve_and_stamp`]:
    /// [`certify::Verdict::Proved`] when the solver's branch-and-bound
    /// pruning certificate closed under
    /// [`certify::CheckedCertificate::check`] and its objective matches the
    /// exact replay, [`certify::Verdict::FeasibleOnly`] when no certificate
    /// was produced (e.g. the trivial zero-analysis problem). A
    /// recommendation is never returned with [`certify::Verdict::Invalid`]
    /// — that surfaces as [`AdvisorError::CertificationFailed`] instead.
    pub verdict: certify::Verdict,
    /// The concrete schedule (which steps each analysis runs/outputs at).
    pub schedule: Schedule,
    /// `|C_i|` per analysis — the "frequency" columns of the paper's tables.
    pub counts: Vec<usize>,
    /// `|O_i|` per analysis.
    pub output_counts: Vec<usize>,
    /// Objective value (Eq. 1).
    pub objective: f64,
    /// Predicted total in-situ analysis time (LHS of Eq. 4).
    pub predicted_time: f64,
    /// Full certification report.
    pub report: ValidationReport,
    /// Telemetry from the underlying MILP solve: nodes explored/pruned,
    /// simplex pivots, incumbent timeline and per-phase wall times. See
    /// [`milp::SolveStats`] and `docs/SOLVER.md`.
    pub solver_stats: SolveStats,
}

impl Recommendation {
    /// The paper's "% within threshold" metric.
    pub fn budget_utilization_percent(&self) -> f64 {
        self.report.budget_utilization() * 100.0
    }

    /// Total number of analysis executions across all analyses (Table 7's
    /// "Number of analyses" column).
    pub fn total_analyses(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Exports the recommendation into an [`obs::Registry`]: the solver's
    /// counters (via [`SolveStats::export_into`]) plus the schedule-level
    /// `advisor.*` metrics, so an advise-then-run pipeline reports through
    /// one sink.
    pub fn export_into(&self, registry: &obs::Registry) {
        self.solver_stats.export_into(registry);
        registry.add("advisor.total_analyses", self.total_analyses() as u64);
        registry.add(
            "advisor.total_outputs",
            self.output_counts.iter().sum::<usize>() as u64,
        );
        registry.observe_hist("advisor.objective", self.objective);
        registry.observe_hist("advisor.predicted_time_s", self.predicted_time);
        registry.observe_hist(
            "advisor.budget_utilization",
            self.report.budget_utilization(),
        );
    }
}

/// A solved schedule that passed the certification gate
/// ([`Advisor::solve_and_stamp`]), with what the gate established.
#[derive(Debug)]
pub struct Stamped {
    /// The schedule, in the steps of the problem it was solved for (for a
    /// mid-run re-solve, step 1 follows the reschedule point).
    pub schedule: Schedule,
    /// Exact-replay objective of `schedule` (Eq. 1), rounded to `f64`.
    pub objective: f64,
    /// Solver telemetry; its certificate is [`Stamped::certificate`].
    pub stats: SolveStats,
    /// The solver's optimality certificate, closure checked once, here —
    /// fit for [`certify::certify_checked`] on any later reply. `None`
    /// only for the zero-analysis problem, where nothing was solved.
    pub certificate: Option<CheckedCertificate>,
    /// The stamp, under the carry the solve was given, and the exact
    /// replay behind it. Never [`certify::Verdict::Invalid`]: that is
    /// [`AdvisorError::CertificationFailed`].
    pub certification: Certification,
}

/// The scheduling advisor.
#[derive(Debug, Clone, Default)]
pub struct Advisor {
    opts: AdvisorOptions,
}

impl Advisor {
    /// Creates an advisor with the given options.
    pub fn new(opts: AdvisorOptions) -> Self {
        Advisor { opts }
    }

    /// The one path from an instance to a stamped schedule: solve, check
    /// the certificate's closure once, replay exactly, take `certify`'s
    /// verdict.
    ///
    /// `carried` is the state of a partially executed run: the incumbent
    /// schedule's not-yet-run tail, offered to the MILP as a seed
    /// incumbent (a bad one costs the solver its head start, never
    /// correctness), and the exact [`SuffixCarry`] the prefix left behind.
    /// `None` is a run that has not started: no hint ([`milp::solve`]) and
    /// [`SuffixCarry::fresh`]. The solver's model is carry-oblivious, so a
    /// schedule the carry rules out (held memory pushes a step over the
    /// threshold, say) is refused as [`AdvisorError::CertificationFailed`].
    ///
    /// The solver is always asked for its pruning certificate, whatever
    /// the caller configured. `solved` sees the solver's telemetry between
    /// the solve and the gate, for a caller that times the halves apart.
    pub fn solve_and_stamp(
        &self,
        problem: &ScheduleProblem,
        carried: Option<(&Schedule, &SuffixCarry)>,
        solved: impl FnOnce(&SolveStats),
    ) -> Result<Stamped, AdvisorError> {
        let mut solver = self.opts.solver.clone();
        solver.certificate = true;
        let solve = if problem.resources.steps <= self.opts.exact_steps_limit {
            solve_exact
        } else {
            solve_aggregate
        };
        let (incumbent, carry) = carried.unzip();
        let Solved { schedule, mut stats, .. } =
            solve(problem, &solver, incumbent).map_err(AdvisorError::Solver)?;
        solved(&stats);
        let certificate = stats
            .certificate
            .take()
            .map(CheckedCertificate::check)
            .transpose()
            .map_err(AdvisorError::CertificationFailed)?;
        let carry = carry.cloned().unwrap_or_else(|| SuffixCarry::fresh(problem.len()));
        let certification =
            certify::certify_suffix(problem, &schedule, &carry, certificate.as_ref());
        if certification.verdict == Verdict::Invalid {
            return Err(AdvisorError::CertificationFailed(certification.problems));
        }
        let replayed = certification.replay.as_ref().expect("a passing verdict has a replay");
        Ok(Stamped {
            objective: replayed.objective.to_f64(),
            schedule,
            stats,
            certificate,
            certification,
        })
    }

    /// Solves the scheduling problem and returns a certified
    /// recommendation: [`Advisor::solve_and_stamp`] with nothing carried.
    pub fn recommend(&self, problem: &ScheduleProblem) -> Result<Recommendation, AdvisorError> {
        let mut s = self.solve_and_stamp(problem, None, |_| {})?;
        s.stats.certificate = s.certificate.map(CheckedCertificate::into_inner);
        let per_analysis = &s.schedule.per_analysis;
        let verdict = s.certification.verdict;
        let report = ValidationReport::of(problem, s.certification);
        Ok(Recommendation {
            verdict,
            counts: per_analysis.iter().map(|a| a.count()).collect(),
            output_counts: per_analysis.iter().map(|a| a.output_count()).collect(),
            objective: s.objective,
            predicted_time: report.total_time,
            report,
            schedule: s.schedule,
            solver_stats: s.stats,
        })
    }

    /// Re-solves over the *remaining* steps of a partially executed run:
    /// [`Advisor::solve_and_stamp`] with the run's state carried in.
    ///
    /// `remaining` is the suffix problem (measured profiles, remaining
    /// steps, remaining pro-rated budget); `incumbent` is the not-yet-run
    /// tail of the current schedule *re-indexed into suffix steps*;
    /// `carry` is the exact mid-run state, its memory half taken from
    /// [`certify::memory_state_at`]. On
    /// [`AdvisorError::CertificationFailed`] the caller keeps the incumbent.
    pub fn recommend_remaining(
        &self,
        remaining: &ScheduleProblem,
        incumbent: &Schedule,
        carry: &SuffixCarry,
    ) -> Result<Stamped, AdvisorError> {
        self.solve_and_stamp(remaining, Some((incumbent, carry)), |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, ResourceConfig, GIB};

    fn table5_like(budget: f64) -> ScheduleProblem {
        // Four analyses calibrated to the paper's Table-5 arithmetic:
        // A1–A3 together cost ~2.11 s for 30 executions (~0.07 s/unit),
        // A4 ~25.3 s per execution (103.47 s total at 20 % minus the rest).
        let mk = |name: &str, ct: f64, ot: f64| {
            AnalysisProfile::new(name)
                .with_compute(ct, 0.5 * GIB)
                .with_output(ot, 0.1 * GIB, 1)
                .with_interval(100)
        };
        ScheduleProblem::new(
            vec![
                mk("A1", 0.065, 0.005),
                mk("A2", 0.065, 0.005),
                mk("A3", 0.066, 0.005),
                mk("A4", 20.0, 5.34),
            ],
            ResourceConfig::from_total_threshold(1000, budget, 100.0 * GIB, GIB),
        )
        .unwrap()
    }

    #[test]
    fn recommendation_is_certified_and_within_budget() {
        let p = table5_like(64.7);
        let rec = Advisor::default().recommend(&p).unwrap();
        assert!(rec.report.is_feasible());
        assert!(rec.predicted_time <= 64.7 + 1e-9);
        assert_eq!(rec.counts[0], 10);
        assert_eq!(rec.counts[1], 10);
        assert_eq!(rec.counts[2], 10);
        assert!(rec.counts[3] < 10);
        assert!(rec.budget_utilization_percent() <= 100.0);
    }

    #[test]
    fn threshold_sweep_reproduces_table5_shape() {
        // A4's frequency decays as the threshold tightens; A1–A3 hold at 10
        let mut a4_counts = Vec::new();
        for budget in [129.35, 64.69, 32.34, 6.46] {
            let p = table5_like(budget);
            let rec = Advisor::default().recommend(&p).unwrap();
            assert_eq!(rec.counts[0], 10, "A1 @ {budget}");
            a4_counts.push(rec.counts[3]);
        }
        assert!(
            a4_counts.windows(2).all(|w| w[0] >= w[1]),
            "A4 must decay: {a4_counts:?}"
        );
        assert_eq!(*a4_counts.last().unwrap(), 0, "A4 infeasible at 1%");
        assert!(a4_counts[0] > 0);
    }

    #[test]
    fn exact_and_aggregate_agree_on_small_instances() {
        let p = ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a")
                    .with_compute(1.0, 0.0)
                    .with_output(0.5, 0.0, 1)
                    .with_interval(4),
                AnalysisProfile::new("b")
                    .with_compute(3.0, 0.0)
                    .with_output(0.5, 0.0, 1)
                    .with_interval(6)
                    .with_weight(2.0),
            ],
            ResourceConfig::from_total_threshold(24, 12.0, 1e9, 1e9),
        )
        .unwrap();
        // Both weights are integers, so the objective is integral and an
        // absolute gap just under 1 is still exact — it lets branch & bound
        // prune the plateau of fractional nodes whose LP bound sits between
        // the integer optimum and optimum+1.
        let integral_gap = milp::SolveOptions {
            abs_gap: 0.999,
            ..Default::default()
        };
        let exact = Advisor::new(AdvisorOptions {
            exact_steps_limit: 1000,
            solver: integral_gap.clone(),
        })
        .recommend(&p)
        .unwrap();
        let agg = Advisor::new(AdvisorOptions {
            solver: integral_gap,
            ..Default::default()
        })
        .recommend(&p)
        .unwrap();
        assert_eq!(
            exact.objective, agg.objective,
            "exact {:?} vs aggregate {:?}",
            exact.counts, agg.counts
        );
    }

    #[test]
    fn infeasible_budget_yields_empty_recommendation() {
        let p = table5_like(0.0);
        let rec = Advisor::default().recommend(&p).unwrap();
        assert_eq!(rec.total_analyses(), 0);
        assert_eq!(rec.objective, 0.0);
    }

    #[test]
    fn recommendations_are_stamped_proved() {
        // the advisor forces certificate emission even though the caller's
        // SolveOptions left it off, and the certificate must close
        let rec = Advisor::default().recommend(&table5_like(64.7)).unwrap();
        assert_eq!(rec.verdict, certify::Verdict::Proved);
        let cert = rec.solver_stats.certificate.as_ref().expect("certificate");
        assert!(cert.proven_optimal);
        assert!(
            certify::CheckedCertificate::check(cert.clone()).is_ok(),
            "certificate must re-check clean outside the advisor too"
        );
        assert!((cert.objective - rec.objective).abs() <= certify::BOUND_TOL);
        // exact-formulation path gets the same stamp
        let small = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(1.0, 0.0)
                .with_interval(4)],
            ResourceConfig::from_total_threshold(12, 2.5, 1e9, 1e9),
        )
        .unwrap();
        let exact = Advisor::new(AdvisorOptions {
            exact_steps_limit: 100,
            ..Default::default()
        })
        .recommend(&small)
        .unwrap();
        assert_eq!(exact.verdict, certify::Verdict::Proved);
    }

    #[test]
    fn trivial_problem_is_feasible_only() {
        // zero analyses: no solve happens, so there is no certificate and
        // the honest stamp is FEASIBLE-ONLY
        let p = ScheduleProblem::new(
            vec![],
            ResourceConfig::from_total_threshold(100, 10.0, 1e9, 1e9),
        )
        .unwrap();
        let rec = Advisor::default().recommend(&p).unwrap();
        assert_eq!(rec.verdict, certify::Verdict::FeasibleOnly);
        assert!(rec.solver_stats.certificate.is_none());
    }

    #[test]
    fn recommend_remaining_matches_fresh_solve_and_rejects_bad_carries() {
        let p = ScheduleProblem::new(
            vec![AnalysisProfile::new("a")
                .with_compute(1.0, 0.1 * GIB)
                .with_output(0.5, 0.0, 1)
                .with_interval(4)],
            ResourceConfig::from_total_threshold(24, 12.0, GIB, GIB),
        )
        .unwrap();
        let advisor = Advisor::default();
        let fresh = advisor.recommend(&p).unwrap();
        // with a fresh carry, the suffix solve is just a warm-started
        // full solve and must land on the same objective
        let out = advisor
            .recommend_remaining(&p, &fresh.schedule, &certify::SuffixCarry::fresh(1))
            .unwrap();
        assert_eq!(out.objective, fresh.objective);
        assert_ne!(out.certification.verdict, certify::Verdict::Invalid);
        // a carry already holding more memory than the threshold rules
        // out every schedule: the carry-aware certification must reject
        // what the carry-oblivious solver proposed
        let bad = certify::SuffixCarry {
            held_mem: vec![Some(certify::Rat::from_f64_exact(10.0 * GIB).unwrap())],
            steps_since_run: vec![Some(0)],
        };
        let err = advisor
            .recommend_remaining(&p, &fresh.schedule, &bad)
            .unwrap_err();
        assert!(matches!(err, AdvisorError::CertificationFailed(_)));
    }

    #[test]
    fn weights_flip_the_chosen_set() {
        // Table-8 shape: paper step times (F1 3.5 s, F2 1.25 s, F3 2.3 ms)
        // plus output costs chosen so the per-second value ordering flips
        // between I1 = (1,1,1) and I2 = (2,1,2): under I2 the optimizer
        // shifts budget from F2 to F1, the paper's headline observation.
        let mk = |w1: f64, w2: f64, w3: f64| {
            ScheduleProblem::new(
                vec![
                    AnalysisProfile::new("F1")
                        .with_compute(3.5, 0.0)
                        .with_output(0.5, 0.0, 1)
                        .with_interval(100)
                        .with_weight(w1),
                    AnalysisProfile::new("F2")
                        .with_compute(1.25, 0.0)
                        .with_output(1.25, 0.0, 1)
                        .with_interval(100)
                        .with_weight(w2),
                    AnalysisProfile::new("F3")
                        .with_compute(0.0023, 0.0)
                        .with_output(0.0027, 0.0, 1)
                        .with_interval(100)
                        .with_weight(w3),
                ],
                ResourceConfig::from_total_threshold(1000, 43.5, 1e12, 1e9),
            )
            .unwrap()
        };
        let equal = Advisor::default().recommend(&mk(1.0, 1.0, 1.0)).unwrap();
        let biased = Advisor::default().recommend(&mk(2.0, 1.0, 2.0)).unwrap();
        // under I2, F1 gains frequency at F2's expense (paper: 5, 0, 10)
        assert!(
            biased.counts[0] > equal.counts[0],
            "F1: {} !> {}",
            biased.counts[0],
            equal.counts[0]
        );
        assert!(
            biased.counts[1] < equal.counts[1],
            "F2: {} !< {}",
            biased.counts[1],
            equal.counts[1]
        );
        assert_eq!(biased.counts[2], 10, "cheap F3 always at max frequency");
    }
}

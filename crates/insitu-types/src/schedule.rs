//! Schedules: the decision variables `C` (analysis steps) and `O` (output
//! steps) of the optimization problem, per analysis.

use crate::problem::ScheduleProblem;
use crate::units::Seconds;

/// The schedule of one analysis: which simulation steps it runs after, and
/// at which of those it writes output. Steps are 1-based (step `j` means
/// "after the j-th simulation step"), matching the paper's `j ∈ {1..Steps}`.
///
/// `C_i` and `O_i` are sets, as in the paper: both lists are strictly
/// increasing, because [`AnalysisSchedule::new`] is the only way to fill
/// them. What depends on the problem — step 0, steps past `Steps`, an
/// output without an analysis step — stays representable; the exact replay
/// (`certify::replay`) judges it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisSchedule {
    analysis_steps: Vec<usize>,
    output_steps: Vec<usize>,
}

impl AnalysisSchedule {
    /// Builds a schedule from step lists in any order, with repeats: each
    /// list is sorted and deduplicated into the set it names.
    pub fn new(mut analysis_steps: Vec<usize>, mut output_steps: Vec<usize>) -> Self {
        analysis_steps.sort_unstable();
        analysis_steps.dedup();
        output_steps.sort_unstable();
        output_steps.dedup();
        AnalysisSchedule {
            analysis_steps,
            output_steps,
        }
    }

    /// `C_i` — the analysis steps, strictly increasing.
    pub fn analysis_steps(&self) -> &[usize] {
        &self.analysis_steps
    }

    /// `O_i` — the output steps, strictly increasing.
    pub fn output_steps(&self) -> &[usize] {
        &self.output_steps
    }

    /// `|C_i|` — how many times the analysis runs.
    pub fn count(&self) -> usize {
        self.analysis_steps.len()
    }

    /// `|O_i|` — how many times the analysis writes output.
    pub fn output_count(&self) -> usize {
        self.output_steps.len()
    }

    /// True if the analysis runs after simulation step `j`.
    pub fn runs_at(&self, j: usize) -> bool {
        self.analysis_steps.binary_search(&j).is_ok()
    }

    /// True if the analysis outputs after simulation step `j`.
    pub fn outputs_at(&self, j: usize) -> bool {
        self.output_steps.binary_search(&j).is_ok()
    }

    /// Smallest gap between consecutive analysis steps, or `None` when
    /// fewer than two steps are scheduled.
    pub fn min_gap(&self) -> Option<usize> {
        self.analysis_steps
            .windows(2)
            .map(|w| w[1] - w[0])
            .min()
    }
}

/// A full schedule: one [`AnalysisSchedule`] per candidate analysis, in the
/// same order as [`ScheduleProblem::analyses`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Per-analysis schedules, parallel to the problem's analysis list.
    pub per_analysis: Vec<AnalysisSchedule>,
}

impl Schedule {
    /// An empty schedule (no analysis runs) for `n` analyses.
    pub fn empty(n: usize) -> Self {
        Schedule {
            per_analysis: vec![AnalysisSchedule::default(); n],
        }
    }

    /// The set `A` of the paper: indices of analyses that run at least once.
    pub fn active(&self) -> Vec<usize> {
        (0..self.per_analysis.len())
            .filter(|&i| self.per_analysis[i].count() > 0)
            .collect()
    }

    /// Objective value of Eq. 1: `|A| + Σ_i w_i * |C_i|`.
    pub fn objective(&self, problem: &ScheduleProblem) -> f64 {
        let mut obj = 0.0;
        for (i, s) in self.per_analysis.iter().enumerate() {
            if s.count() > 0 {
                obj += 1.0 + problem.analyses[i].weight * s.count() as f64;
            }
        }
        obj
    }

    /// Total in-situ analysis time under this schedule (left-hand side of
    /// Eq. 4, telescoped): active analyses pay `ft + Steps*it`, plus `ct`
    /// per analysis step and `ot` per output step.
    pub fn total_time(&self, problem: &ScheduleProblem) -> Seconds {
        let steps = problem.resources.steps;
        self.per_analysis
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count() > 0)
            .map(|(i, s)| problem.analyses[i].total_time(steps, s.count(), s.output_count()))
            .sum()
    }

    /// Renders a human-readable frequency summary like the paper's tables:
    /// `hydronium rdf (A1): 10x (every ~100 steps), 5 outputs`.
    pub fn summary(&self, problem: &ScheduleProblem) -> String {
        let steps = problem.resources.steps;
        let mut out = String::new();
        for (i, s) in self.per_analysis.iter().enumerate() {
            let name = &problem.analyses[i].name;
            if s.count() == 0 {
                out.push_str(&format!("{name}: not scheduled\n"));
            } else {
                out.push_str(&format!(
                    "{name}: {}x (every ~{} steps), {} outputs\n",
                    s.count(),
                    steps / s.count(),
                    s.output_count()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AnalysisProfile;
    use crate::resources::ResourceConfig;
    use crate::units::GIB;

    fn problem() -> ScheduleProblem {
        ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a")
                    .with_compute(1.0, 0.0)
                    .with_output(0.5, 0.0, 1)
                    .with_weight(2.0),
                AnalysisProfile::new("b")
                    .with_fixed(3.0, 0.0)
                    .with_per_step(0.01, 0.0)
                    .with_compute(2.0, 0.0),
            ],
            ResourceConfig::new(100, 1.0, GIB, GIB),
        )
        .unwrap()
    }

    #[test]
    fn counts_and_membership() {
        let s = AnalysisSchedule::new(vec![30, 10, 20, 20], vec![20]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.output_count(), 1);
        assert!(s.runs_at(20));
        assert!(!s.runs_at(15));
        assert!(s.outputs_at(20));
        assert_eq!(s.min_gap(), Some(10));
    }

    #[test]
    fn objective_matches_eq1() {
        let p = problem();
        let mut sched = Schedule::empty(2);
        sched.per_analysis[0] = AnalysisSchedule::new(vec![10, 20, 30], vec![10, 20, 30]);
        // |A| = 1, w_0 * |C_0| = 2*3 => 7
        assert!((sched.objective(&p) - 7.0).abs() < 1e-12);
        sched.per_analysis[1] = AnalysisSchedule::new(vec![50], vec![]);
        // + 1 + 1*1 => 9
        assert!((sched.objective(&p) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn total_time_matches_eq4_lhs() {
        let p = problem();
        let mut sched = Schedule::empty(2);
        sched.per_analysis[0] = AnalysisSchedule::new(vec![10, 20], vec![20]);
        sched.per_analysis[1] = AnalysisSchedule::new(vec![50], vec![]);
        // a: 2*1.0 + 1*0.5 = 2.5 ; b: 3.0 + 100*0.01 + 2.0 = 6.0
        assert!((sched.total_time(&p) - 8.5).abs() < 1e-12);
    }

    #[test]
    fn inactive_analyses_cost_nothing() {
        let p = problem();
        let sched = Schedule::empty(2);
        assert_eq!(sched.total_time(&p), 0.0);
        assert_eq!(sched.objective(&p), 0.0);
        assert!(sched.active().is_empty());
    }

    #[test]
    fn summary_mentions_frequencies() {
        let p = problem();
        let mut sched = Schedule::empty(2);
        sched.per_analysis[0] = AnalysisSchedule::new(vec![25, 50, 75, 100], vec![50, 100]);
        let s = sched.summary(&p);
        assert!(s.contains("a: 4x (every ~25 steps), 2 outputs"));
        assert!(s.contains("b: not scheduled"));
    }
}

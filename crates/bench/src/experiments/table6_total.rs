//! Table 6: analyses frequencies under a *total* time threshold.
//!
//! 1 B-atom rhodopsin on 32 768 cores, 1000 steps, equal weights,
//! `itv = 100`; the user specifies an absolute budget (200…10 s) instead
//! of a percentage. Expected shape: cheap R1 pinned at 10 everywhere;
//! R2/R3 shrink with the budget and vanish at 20 s and 10 s; utilization
//! high (>85 %) except at the degenerate 10 s row.

use crate::scale::paper_quoted;
use crate::table::TextTable;
use insitu_core::{Advisor, AdvisorOptions};
use insitu_types::{ResourceConfig, ScheduleProblem, GIB};

/// Paper rows: (threshold s, R1, R2, R3, % within threshold).
pub const PAPER_ROWS: [(f64, usize, usize, usize, f64); 5] = [
    (200.0, 10, 4, 7, 94.59),
    (100.0, 10, 2, 3, 85.99),
    (60.0, 10, 1, 2, 86.01),
    (20.0, 10, 1, 0, 86.11),
    (10.0, 10, 0, 0, 0.3),
];

/// One reproduced row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Total threshold in seconds.
    pub threshold: f64,
    /// Counts for R1..R3.
    pub counts: [usize; 3],
    /// Percentage of the threshold used.
    pub within_pct: f64,
}

/// Experiment result.
#[derive(Debug)]
pub struct Outcome {
    /// Reproduced rows.
    pub rows: Vec<Row>,
    /// Printable report.
    pub report: String,
}

/// Runs the experiment.
pub fn run() -> Outcome {
    let advisor = Advisor::new(AdvisorOptions::default());
    let mut rows = Vec::new();
    let mut telemetry = String::new();
    let mut t = TextTable::new(&[
        "Threshold (s)",
        "R1",
        "R2",
        "R3",
        "% within",
        "| paper R1-R3",
        "paper %",
    ]);
    for &(threshold, p1, p2, p3, ppct) in &PAPER_ROWS {
        let problem = ScheduleProblem::new(
            paper_quoted::rhodopsin_table6(),
            ResourceConfig::from_total_threshold(1000, threshold, 1024.0 * GIB, GIB),
        )
        .expect("valid problem");
        let rec = advisor.recommend(&problem).expect("solvable");
        telemetry.push_str(&format!(
            "  {threshold:>5}s: {}\n",
            rec.solver_stats.summary()
        ));
        let row = Row {
            threshold,
            counts: [rec.counts[0], rec.counts[1], rec.counts[2]],
            within_pct: rec.budget_utilization_percent(),
        };
        t.row(&[
            format!("{threshold}"),
            row.counts[0].to_string(),
            row.counts[1].to_string(),
            row.counts[2].to_string(),
            format!("{:.1}", row.within_pct),
            format!("| {p1} {p2} {p3}"),
            format!("{ppct}"),
        ]);
        rows.push(row);
    }
    let report = format!(
        "Rhodopsin, 1B atoms, 32768 cores, 1000 steps; per-(analysis+output)\n\
         times 0.003/17.193/17.194 s as quoted by the paper.\n{}\
         solver telemetry per row:\n{telemetry}",
        t.render()
    );
    Outcome { rows, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let o = run();
        assert_eq!(o.rows.len(), 5);
        // R1 always at max frequency (it is essentially free); R2 and R3
        // are cost-degenerate (17.193 vs 17.194 s), so which vertex of the
        // optimal face the LP lands on decides their split — but never
        // their total, which is the paper's row for row (11/5/3/1/0)
        for (r, &(_, p1, p2, p3, _)) in o.rows.iter().zip(&PAPER_ROWS) {
            assert_eq!(r.counts[0], p1, "R1 @ {}s", r.threshold);
            assert_eq!(r.counts[1] + r.counts[2], p2 + p3, "R2 + R3 @ {}s", r.threshold);
            assert!(r.within_pct <= 100.0 + 1e-9);
        }
        // total heavy-analysis count decays with the budget
        let heavy: Vec<usize> = o.rows.iter().map(|r| r.counts[1] + r.counts[2]).collect();
        assert!(
            heavy.windows(2).all(|w| w[0] >= w[1]),
            "R2+R3 decays: {heavy:?}"
        );
        assert!(heavy[0] >= 8, "200s fits many heavy analyses: {}", heavy[0]);
        assert_eq!(heavy[4], 0, "10s fits none");
        // generous budgets are used efficiently (paper: >85%)
        assert!(o.rows[0].within_pct > 85.0, "{}", o.rows[0].within_pct);
        // the degenerate row uses almost nothing (paper: 0.3%)
        assert!(o.rows[4].within_pct < 5.0, "{}", o.rows[4].within_pct);
    }
}

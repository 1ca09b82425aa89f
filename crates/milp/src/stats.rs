//! Solver telemetry.
//!
//! Every [`crate::solve`] call fills a [`SolveStats`] with the counters a
//! MILP practitioner looks at first when a solve is slow: how many
//! branch-and-bound nodes were explored vs. pruned, how many simplex pivots
//! the LP solves cost, when each incumbent was found, and where the wall
//! time went. The bench binaries print [`SolveStats::summary`] next to the
//! paper tables so solver regressions show up in the same place as model
//! regressions.

use insitu_types::SearchCertificate;
use std::fmt;
use std::time::Duration;

/// Per-LP-solve counters of the revised simplex engine, carried on
/// [`crate::simplex::LpPoint`] and aggregated into [`SolveStats`].
///
/// All zeros from the dense tableau oracle (it has no factorization to
/// count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpTelemetry {
    /// Basis refactorizations (LU from scratch).
    pub refactorizations: usize,
    /// Longest eta file observed between refactorizations.
    pub max_eta_len: usize,
    /// Nanoseconds spent in FTRAN solves (`Bw = a_j`, rhs recomputes).
    pub ftran_ns: u64,
    /// Nanoseconds spent in BTRAN solves (pricing duals, dual-simplex rows).
    pub btran_ns: u64,
    /// Basis exchanges made by the dual-simplex warm-start repair (each
    /// one a dual ratio test over the pivot row).
    pub dual_pivots: usize,
}

impl LpTelemetry {
    /// Accumulates another solve's counters (peak for the eta length,
    /// sums for the rest).
    pub fn absorb(&mut self, other: &LpTelemetry) {
        self.refactorizations += other.refactorizations;
        self.max_eta_len = self.max_eta_len.max(other.max_eta_len);
        self.ftran_ns += other.ftran_ns;
        self.btran_ns += other.btran_ns;
        self.dual_pivots += other.dual_pivots;
    }
}

/// Cutting-plane counters of one branch-and-cut solve.
///
/// All zeros when the model has no integer variable or the root
/// relaxation was already integral.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CutStats {
    /// Gomory mixed-integer cuts generated by root separation rounds
    /// (before pool selection).
    pub gomory_generated: usize,
    /// Knapsack cover cuts generated by root separation rounds (before
    /// pool selection).
    pub cover_generated: usize,
    /// Cuts in the frozen root pool every node LP carries.
    pub cuts_applied: usize,
    /// Root-pool cuts evicted by activity-based aging (slack at the
    /// re-solved point for consecutive rounds).
    pub cuts_aged_out: usize,
    /// Wall time inside separation (tableau-row reads, cover search, pool
    /// maintenance) and the interleaved root re-solves.
    pub separation_time: Duration,
    /// Root LP bound before the first separation round, in the model's
    /// own sense.
    pub root_bound_before: f64,
    /// Root LP bound after the last separation round (equals
    /// `root_bound_before` when no cut was applied).
    pub root_bound_after: f64,
}

/// One improvement of the incumbent during branch & bound.
#[derive(Debug, Clone, PartialEq)]
pub struct IncumbentEvent {
    /// Objective of the new incumbent, in the model's own sense.
    pub objective: f64,
    /// Number of nodes explored when the incumbent was found (1-based:
    /// the node that produced it is counted).
    pub node: usize,
    /// Wall time since the search phase started.
    pub elapsed: Duration,
}

/// Telemetry of one [`crate::solve`] call.
///
/// Attached to every [`crate::Solution`]. A pure LP solve leaves the node
/// counters at zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Nodes whose LP relaxation was solved (or re-examined at the top of
    /// a dive). Equal to [`crate::Solution::nodes`].
    pub nodes_explored: usize,
    /// Children discarded because their LP bound could not beat the
    /// incumbent (within `abs_gap`).
    pub nodes_pruned_bound: usize,
    /// Children discarded because their LP relaxation was infeasible.
    pub nodes_pruned_infeasible: usize,
    /// Total simplex pivots + bound flips across every LP solve. Equal to
    /// [`crate::Solution::iterations`].
    pub lp_pivots: usize,
    /// Child LPs warm-started from the parent basis (vs. solved cold with
    /// two phases).
    pub warm_started: usize,
    /// Nodes where strong branching evaluated at least one candidate.
    pub strong_branch_calls: usize,
    /// Candidate child LPs solved by strong branching. Each is counted in
    /// [`SolveStats::lp_pivots`] too; probes for the chosen candidate are
    /// reused as the real children, so they are never solved twice.
    pub strong_branch_lps: usize,
    /// Nodes whose branching variable was chosen from pseudocost
    /// estimates alone (no strong-branch probe of the chosen variable).
    pub pseudocost_branches: usize,
    /// Whether a caller-supplied hint (via [`crate::solve_with_hint`])
    /// rounded to a feasible point and seeded the incumbent before any
    /// node was explored. `false` when no hint was given, the hint had
    /// the wrong length, or rounding it violated a constraint.
    pub hint_accepted: bool,
    /// Basis refactorizations across every LP solve.
    pub refactorizations: usize,
    /// Longest eta file observed between refactorizations, across all
    /// LP solves.
    pub max_eta_len: usize,
    /// Total wall time inside FTRAN solves across every LP solve.
    pub ftran_time: Duration,
    /// Total wall time inside BTRAN solves across every LP solve.
    pub btran_time: Duration,
    /// Dual-simplex pivots of the warm-start repairs across every LP
    /// solve, counted in [`SolveStats::lp_pivots`] too.
    pub dual_pivots: usize,
    /// Every incumbent improvement, in the order they were accepted.
    pub incumbent_updates: Vec<IncumbentEvent>,
    /// Wall time spent in presolve.
    pub presolve_time: Duration,
    /// Wall time spent solving the root LP relaxation.
    pub root_lp_time: Duration,
    /// Wall time spent in the branch-and-bound search loop.
    pub search_time: Duration,
    /// Cutting-plane counters (all zeros when no cut fired). See
    /// [`CutStats`].
    pub cuts: CutStats,
    /// Machine-checkable pruning certificate of the search tree. Only
    /// recorded when [`crate::SolveOptions::certificate`] is set; consumed
    /// by the independent `certify` crate, which shares no solver code.
    pub certificate: Option<SearchCertificate>,
}

impl SolveStats {
    /// Single-line summary for logs and bench output.
    ///
    /// # Examples
    ///
    /// ```
    /// use milp::SolveStats;
    /// let s = SolveStats { nodes_explored: 42, ..Default::default() };
    /// assert!(s.summary().contains("nodes 42"));
    /// ```
    pub fn summary(&self) -> String {
        format!(
            "nodes {} (pruned {} bound / {} infeas), pivots {} ({} dual, {} warm{}), \
             sb {} nodes ({} lps), pc {} nodes, \
             cuts {} ({} gomory / {} cover gen, {} aged), \
             refactor {} (eta peak {}), ftran {:.1?} + btran {:.1?}, \
             incumbents {}, t {:.1?} presolve + {:.1?} root + {:.1?} search",
            self.nodes_explored,
            self.nodes_pruned_bound,
            self.nodes_pruned_infeasible,
            self.lp_pivots,
            self.dual_pivots,
            self.warm_started,
            if self.hint_accepted { ", hint seeded" } else { "" },
            self.strong_branch_calls,
            self.strong_branch_lps,
            self.pseudocost_branches,
            self.cuts.cuts_applied,
            self.cuts.gomory_generated,
            self.cuts.cover_generated,
            self.cuts.cuts_aged_out,
            self.refactorizations,
            self.max_eta_len,
            self.ftran_time,
            self.btran_time,
            self.incumbent_updates.len(),
            self.presolve_time,
            self.root_lp_time,
            self.search_time,
        )
    }

    /// Exports the solve into an [`obs::Registry`] under `milp.*` — the
    /// adapter that lets a solve report through the same sink as a
    /// coupled run. Integer totals add to counters; each wall time and the
    /// eta-file peak are one histogram observation per solve (the LP-engine
    /// figures under `milp.lp.*`).
    pub fn export_into(&self, registry: &obs::Registry) {
        registry.add("milp.nodes_explored", self.nodes_explored as u64);
        registry.add("milp.nodes_pruned_bound", self.nodes_pruned_bound as u64);
        registry.add(
            "milp.nodes_pruned_infeasible",
            self.nodes_pruned_infeasible as u64,
        );
        registry.add("milp.lp_pivots", self.lp_pivots as u64);
        registry.add("milp.warm_started", self.warm_started as u64);
        registry.add("milp.strong_branch_calls", self.strong_branch_calls as u64);
        registry.add("milp.strong_branch_lps", self.strong_branch_lps as u64);
        registry.add("milp.pseudocost_branches", self.pseudocost_branches as u64);
        registry.add("milp.hint_accepted", self.hint_accepted as u64);
        registry.add("milp.cuts.gomory", self.cuts.gomory_generated as u64);
        registry.add("milp.cuts.cover", self.cuts.cover_generated as u64);
        registry.add("milp.cuts.applied", self.cuts.cuts_applied as u64);
        registry.add("milp.cuts.aged_out", self.cuts.cuts_aged_out as u64);
        registry.observe_hist(
            "milp.cuts.separation_s",
            self.cuts.separation_time.as_secs_f64(),
        );
        registry.add("milp.lp.refactorizations", self.refactorizations as u64);
        registry.add("milp.lp.dual_pivots", self.dual_pivots as u64);
        registry.add("milp.incumbents", self.incumbent_updates.len() as u64);
        registry.observe_hist("milp.lp.max_eta_len", self.max_eta_len as f64);
        registry.observe_hist("milp.lp.ftran_s", self.ftran_time.as_secs_f64());
        registry.observe_hist("milp.lp.btran_s", self.btran_time.as_secs_f64());
        registry.observe_hist("milp.presolve_s", self.presolve_time.as_secs_f64());
        registry.observe_hist("milp.root_lp_s", self.root_lp_time.as_secs_f64());
        registry.observe_hist("milp.search_s", self.search_time.as_secs_f64());
    }

    /// Multi-line report including the incumbent timeline.
    pub fn report(&self) -> String {
        let mut out = self.summary();
        for e in &self.incumbent_updates {
            out.push_str(&format!(
                "\n  incumbent {:>14.6} at node {:>6} (+{:.2?})",
                e.objective, e.node, e.elapsed
            ));
        }
        out
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_all_counters() {
        let s = SolveStats {
            nodes_explored: 7,
            nodes_pruned_bound: 3,
            nodes_pruned_infeasible: 2,
            lp_pivots: 99,
            dual_pivots: 13,
            warm_started: 4,
            strong_branch_calls: 5,
            strong_branch_lps: 12,
            pseudocost_branches: 6,
            hint_accepted: true,
            refactorizations: 11,
            max_eta_len: 8,
            cuts: CutStats {
                gomory_generated: 9,
                cover_generated: 4,
                cuts_applied: 10,
                cuts_aged_out: 3,
                ..Default::default()
            },
            incumbent_updates: vec![IncumbentEvent {
                objective: 1.5,
                node: 1,
                elapsed: Duration::from_millis(1),
            }],
            ..Default::default()
        };
        let line = s.summary();
        for needle in [
            "nodes 7",
            "3 bound",
            "2 infeas",
            "pivots 99",
            "13 dual",
            "4 warm",
            "sb 5 nodes (12 lps)",
            "pc 6 nodes",
            "cuts 10 (9 gomory / 4 cover gen, 3 aged)",
            "hint seeded",
            "refactor 11",
            "eta peak 8",
            "ftran",
            "btran",
        ] {
            assert!(line.contains(needle), "missing {needle}: {line}");
        }
        assert!(s.report().contains("at node"));
        assert_eq!(format!("{s}"), line);
    }

    #[test]
    fn telemetry_absorb_sums_and_peaks() {
        let mut a = LpTelemetry {
            refactorizations: 2,
            max_eta_len: 5,
            ftran_ns: 100,
            btran_ns: 50,
            dual_pivots: 6,
        };
        a.absorb(&LpTelemetry {
            refactorizations: 3,
            max_eta_len: 4,
            ftran_ns: 10,
            btran_ns: 20,
            dual_pivots: 1,
        });
        assert_eq!(a.refactorizations, 5);
        assert_eq!(a.max_eta_len, 5);
        assert_eq!((a.ftran_ns, a.btran_ns), (110, 70));
        assert_eq!(a.dual_pivots, 7);
    }

    #[test]
    fn export_into_reports_through_one_sink() {
        let s = SolveStats {
            nodes_explored: 7,
            lp_pivots: 99,
            strong_branch_lps: 12,
            refactorizations: 3,
            search_time: Duration::from_millis(10),
            ..Default::default()
        };
        let reg = obs::Registry::new();
        s.export_into(&reg);
        s.export_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("milp.nodes_explored"), Some(14));
        assert_eq!(snap.counter("milp.lp_pivots"), Some(198));
        assert_eq!(snap.counter("milp.strong_branch_lps"), Some(24));
        assert_eq!(snap.counter("milp.lp.refactorizations"), Some(6));
        // one observation per solve, value intact
        let search = snap.hist("milp.search_s").unwrap();
        assert_eq!((search.count, search.min, search.max), (2, 0.01, 0.01));
        assert_eq!(snap.hist("milp.lp.ftran_s").unwrap().count, 2);
    }

    #[test]
    fn default_is_empty() {
        let s = SolveStats::default();
        assert_eq!(s.nodes_explored, 0);
        assert!(s.incumbent_updates.is_empty());
        assert_eq!(s.cuts, CutStats::default());
    }

}

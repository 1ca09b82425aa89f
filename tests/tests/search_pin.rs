//! The branch & bound search, pinned whole.
//!
//! Recorded at commit `a366f02`, the last one whose search could run on
//! several worker threads, with the default `threads: 1` — the code every
//! caller that serves or measures a schedule ran. A serial search that owns
//! its pool, incumbent, pseudocosts and certificate claims to be that code
//! without the sharing, so every word below must stay as recorded: the
//! optimum and its point to the bit, every counter `SolveStats` keeps except
//! wall times, the incumbent timeline by node, every certificate record in
//! order, and the node-limit error with the incumbent it carries.
//!
//! The families: the differential-fuzz generator's instances (all eight
//! degenerate families) through both formulations — the aggregate model
//! with its cuts, and the time-indexed Eq. 1–9 model under a 400-node
//! budget (a few of its trees run to 10⁵ nodes; there the budget pins the
//! node-limit error instead of costing half a minute) — the same aggregate
//! models again seeded with their own optimum as a hint, and the plateau
//! instance of `branching_determinism.rs` (a real tree with both branching
//! tiers), once to optimality and once cut off by `max_nodes`.
//!
//! Re-recorded once, when `build_aggregate` stopped expanding `(k, q)`
//! where memory cannot decide the pair (commit `7652804`): the aggregate
//! models got smaller, so their trees moved, and every optimum held
//! (`optimum_pin.rs`). It read
//! `(362, 3017, 45073, 7_549_382_330_007_612_809)`. And once more when the
//! builder stopped charging `om` to analyses that never output, which
//! changes their memory coefficients: it read
//! `(362, 3025, 45116, 15_793_106_264_247_106_978)`.
//!
//! A value that moves means the search explored, counted or recorded
//! something else — find it, do not re-pin.

use insitu_core::{build_aggregate, formulation::build_exact};
use insitu_types::{AnalysisProfile, NodeOutcome, ResourceConfig, ScheduleProblem};
use integration_tests::fuzz;
use milp::{Model, Solution, SolveError, SolveOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a-64 over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Everything a solve returns that is not a wall time.
    fn solve(&mut self, result: &Result<Solution, SolveError>) {
        let s = match result {
            Ok(s) => s,
            Err(SolveError::NodeLimit { nodes, incumbent }) => {
                self.word(0xE1);
                self.word(*nodes as u64);
                self.float(incumbent.unwrap_or(f64::NAN));
                return;
            }
            Err(e) => {
                self.word(0xE2);
                for b in e.to_string().bytes() {
                    self.word(u64::from(b));
                }
                return;
            }
        };
        self.float(s.objective);
        self.word(s.values.len() as u64);
        for &v in &s.values {
            self.float(v);
        }
        let st = &s.stats;
        for n in [
            s.nodes,
            s.iterations,
            st.nodes_explored,
            st.nodes_pruned_bound,
            st.nodes_pruned_infeasible,
            st.lp_pivots,
            st.warm_started,
            st.strong_branch_calls,
            st.strong_branch_lps,
            st.pseudocost_branches,
            usize::from(st.hint_accepted),
            st.refactorizations,
            st.max_eta_len,
            st.cuts.gomory_generated,
            st.cuts.cover_generated,
            st.cuts.cuts_applied,
            st.cuts.cuts_aged_out,
            usize::from(s.proven_optimal),
        ] {
            self.word(n as u64);
        }
        self.float(st.cuts.root_bound_before);
        self.float(st.cuts.root_bound_after);
        self.word(st.incumbent_updates.len() as u64);
        for e in &st.incumbent_updates {
            self.float(e.objective);
            self.word(e.node as u64);
        }
        match &st.certificate {
            None => self.word(0),
            Some(c) => {
                self.word(1);
                self.float(c.objective);
                self.float(c.dual_bound);
                self.word(c.nodes.len() as u64);
                self.word(c.cuts.len() as u64);
                for n in &c.nodes {
                    self.word(n.id);
                    self.word(n.parent.map_or(u64::MAX, |p| p));
                    self.float(n.lp_bound);
                    match n.outcome {
                        NodeOutcome::Branched => self.word(1),
                        NodeOutcome::Integral { objective } => {
                            self.word(2);
                            self.float(objective);
                        }
                        NodeOutcome::PrunedBound => self.word(3),
                        NodeOutcome::PrunedInfeasible => self.word(4),
                    }
                }
            }
        }
    }
}

/// The plateau instance of `branching_determinism.rs`: its LP bound sits on
/// a fractional plateau the root cuts do not close, so the tree is real.
fn plateau_model() -> Model {
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
    .expect("valid problem");
    build_exact(&p).0
}

fn opts() -> SolveOptions {
    SolveOptions {
        certificate: true,
        ..SolveOptions::default()
    }
}

/// `(solves, Σ nodes, Σ pivots, digest)` over every family.
fn record() -> (usize, usize, usize, u64) {
    let mut h = Digest::new();
    let (mut solves, mut nodes, mut pivots) = (0usize, 0usize, 0usize);
    let mut count = |r: &Result<Solution, SolveError>| {
        solves += 1;
        if let Ok(s) = r {
            nodes += s.nodes;
            pivots += s.iterations;
        }
    };
    for case in 0..120usize {
        let mut rng = StdRng::seed_from_u64(0x5EA2_C4ED ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let problem = fuzz::gen_problem(&mut rng, case);
        let built = build_aggregate(&problem).expect("model builds");
        let plain = milp::solve(&built.model, &opts());
        h.solve(&plain);
        count(&plain);
        if let Ok(s) = &plain {
            let hinted = milp::solve_with_hint(&built.model, &opts(), &s.values);
            h.solve(&hinted);
            count(&hinted);
        }
        // a few time-indexed trees run to 10⁵ nodes; the cut-off pins the
        // node-limit path on them instead
        let capped = SolveOptions {
            max_nodes: 400,
            ..opts()
        };
        let exact = milp::solve(&build_exact(&problem).0, &capped);
        h.solve(&exact);
        count(&exact);
    }
    let plateau = plateau_model();
    let gap = SolveOptions {
        abs_gap: 0.999,
        ..opts()
    };
    let full = milp::solve(&plateau, &gap);
    h.solve(&full);
    count(&full);
    let cut_off = milp::solve(
        &plateau,
        &SolveOptions {
            max_nodes: 5,
            ..gap
        },
    );
    assert!(
        matches!(cut_off, Err(SolveError::NodeLimit { .. })),
        "the plateau tree must outgrow 5 nodes"
    );
    h.solve(&cut_off);
    count(&cut_off);
    (solves, nodes, pivots, h.0)
}

#[test]
fn search_matches_the_recording_made_with_the_shared_pool() {
    let got = record();
    assert_eq!(
        got,
        (362, 3025, 45114, 15_257_344_038_531_392_770),
        "the search moved"
    );
}

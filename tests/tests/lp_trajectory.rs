//! The LP trajectory of the time-indexed Eq. 1–9 model, pinned.
//!
//! The exact leg of the repo benchmark's `solve-scale` workload is the one
//! place the revised simplex and its LU factorization meet large LPs, and
//! every instance of it is solved at the root: its wall time is the pivot
//! path of one long LP. A change to `milp::lu` or `milp::revised` that
//! claims to compute *the same thing faster* has to leave that path alone —
//! the same pivots, the same refactorizations at the same moments, the same
//! Gomory rows read off the same final basis, the same point to the last
//! bit (signed zeros included). This test holds all seven shapes of the leg
//! (`bench::instances::exact_leg` restates the benchmark's formula) to
//! recorded values, and to "solved at the root, proven optimal".
//!
//! The path has been moved on purpose once. The values were first recorded
//! at commit `5906720`, before `LuFactors::factor` stopped scanning every
//! earlier pivot for every column, and PR 19 held them. At commit `c30b233`
//! (PR 20, "Start a cold LP from the slack crash basis") a cold LP stopped
//! starting from `m` artificials: every row of these models is a `<=` row
//! with a non-negative right-hand side, so each starts on its own slack,
//! phase 1 and the drive-out loop have nothing to do and the solve is phase
//! 2 alone — a third of the pivots, from a different start, to a different
//! vertex of the same degenerate optimal face (a different point and, on
//! three shapes, a different number of Gomory cuts; every objective equal).
//! What moved, old → new, pivots / refactorizations / cuts applied (the
//! optimum's digest moved on every shape):
//!
//! | shape  | pivots        | refactorizations | cuts    |
//! |--------|---------------|------------------|---------|
//! | 64×4   | 1 170 → 448   | 19 → 7           | 4       |
//! | 64×5   | 1 461 → 492   | 24 → 8           | 6 → 10  |
//! | 96×4   | 2 017 → 762   | 32 → 12          | 4       |
//! | 96×5   | 2 463 → 701   | 40 → 11          | 10 → 6  |
//! | 128×4  | 2 486 → 815   | 39 → 13          | 4       |
//! | 128×5  | 3 100 → 937   | 49 → 15          | 6 → 3   |
//! | 160×4  | 3 234 → 1 006 | 51 → 16          | 4       |
//!
//! (The last four shapes were not pinned before; their old values are the
//! parent commit `8a6f359`'s, read with this test's own loop.) The answers
//! are held elsewhere and did not move: `cold_start_differential`,
//! `engine_equivalence`, `certify_differential`, `bound_edit_differential`.
//! From here on the rule is the old one again: a value that moves means an
//! operation was reordered, re-associated or skipped — find it, do not
//! re-pin.

use bench::instances::exact_leg;
use insitu_core::formulation::build_exact;
use milp::SolveOptions;

/// FNV-1a-64 over the little-endian bytes of the raw bits of `values`.
fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one solve did at the recording commit.
struct Pin {
    steps: usize,
    n: usize,
    lp_pivots: usize,
    refactorizations: usize,
    max_eta_len: usize,
    cuts_applied: usize,
    objective: f64,
    values_digest: u64,
}

#[rustfmt::skip]
const PINS: [Pin; 7] = [
    Pin { steps: 64, n: 4, lp_pivots: 448, refactorizations: 7, max_eta_len: 64, cuts_applied: 4, objective: 51.0, values_digest: 0x5821_9714_659c_8f18 },
    Pin { steps: 64, n: 5, lp_pivots: 492, refactorizations: 8, max_eta_len: 64, cuts_applied: 10, objective: 62.0, values_digest: 0xf74e_a63e_a52a_3fd8 },
    Pin { steps: 96, n: 4, lp_pivots: 762, refactorizations: 12, max_eta_len: 64, cuts_applied: 4, objective: 51.0, values_digest: 0xc7a2_8fd3_9e2e_6098 },
    Pin { steps: 96, n: 5, lp_pivots: 701, refactorizations: 11, max_eta_len: 64, cuts_applied: 6, objective: 62.0, values_digest: 0x8e63_8258_8c61_2f58 },
    Pin { steps: 128, n: 4, lp_pivots: 815, refactorizations: 13, max_eta_len: 64, cuts_applied: 4, objective: 51.0, values_digest: 0x7d01_6348_f386_3b98 },
    Pin { steps: 128, n: 5, lp_pivots: 937, refactorizations: 15, max_eta_len: 64, cuts_applied: 3, objective: 62.0, values_digest: 0x6b60_d626_cb40_c258 },
    Pin { steps: 160, n: 4, lp_pivots: 1006, refactorizations: 16, max_eta_len: 64, cuts_applied: 4, objective: 51.0, values_digest: 0xf2f9_fe61_754b_a818 },
];

#[test]
fn exact_leg_lp_trajectory_is_the_parents() {
    // the benchmark's `exact_options()`: integral weights make the
    // objective integral, so a gap below 1 still proves optimality
    let opts = SolveOptions {
        threads: 1,
        certificate: true,
        abs_gap: 0.999,
        ..SolveOptions::default()
    };
    for pin in &PINS {
        let ctx = format!("Exact/{}x{}", pin.steps, pin.n);
        let (model, _) = build_exact(&exact_leg(pin.steps, pin.n));
        let sol = milp::solve(&model, &opts).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let stats = &sol.stats;
        assert_eq!(stats.lp_pivots, pin.lp_pivots, "{ctx}: lp_pivots");
        assert_eq!(stats.refactorizations, pin.refactorizations, "{ctx}: refactorizations");
        assert_eq!(stats.max_eta_len, pin.max_eta_len, "{ctx}: max_eta_len");
        assert_eq!(stats.cuts.cuts_applied, pin.cuts_applied, "{ctx}: cuts_applied");
        assert_eq!(stats.nodes_explored, 0, "{ctx}: solved at the root");
        assert!(sol.proven_optimal, "{ctx}");
        assert_eq!(sol.objective.to_bits(), pin.objective.to_bits(), "{ctx}: objective {}", sol.objective);
        let got = digest(&sol.values);
        assert_eq!(got, pin.values_digest, "{ctx}: digest of Solution::values is {got:#018x}");
    }
}

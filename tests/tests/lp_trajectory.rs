//! The LP trajectory of the time-indexed Eq. 1–9 model, pinned.
//!
//! The exact leg of the repo benchmark's `solve-scale` workload is the one
//! place the revised simplex and its LU factorization meet large LPs, and
//! every instance of it is solved at the root: its wall time is the pivot
//! path of one long LP. A change to `milp::lu` or `milp::revised` that
//! claims to compute *the same thing faster* has to leave that path alone —
//! the same pivots, the same refactorizations at the same moments, the same
//! Gomory rows read off the same final basis, the same point to the last
//! bit (signed zeros included). This test holds three of the leg's seven
//! shapes (`bench::instances::exact_leg` restates the benchmark's formula)
//! to the values recorded at commit `5906720`, before
//! `LuFactors::factor` stopped scanning every earlier pivot for every
//! column. A value that moves means an operation was reordered,
//! re-associated or skipped where the full scan performed it: find it, do
//! not re-pin.

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

/// What one solve of the parent commit did.
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
const PINS: [Pin; 3] = [
    Pin { steps: 64, n: 4, lp_pivots: 1170, refactorizations: 19, max_eta_len: 64, cuts_applied: 4, objective: 51.0, values_digest: 0xb378_e63a_d539_e198 },
    Pin { steps: 64, n: 5, lp_pivots: 1461, refactorizations: 24, max_eta_len: 64, cuts_applied: 6, objective: 62.0, values_digest: 0x02a6_f905_8018_b4d8 },
    Pin { steps: 96, n: 4, lp_pivots: 2017, refactorizations: 32, max_eta_len: 64, cuts_applied: 4, objective: 51.0, values_digest: 0xc23d_971e_6025_bd18 },
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

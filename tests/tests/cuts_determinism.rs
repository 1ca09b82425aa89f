//! Determinism of the cut-generating solver (see `docs/SOLVER.md`).
//!
//! Root separation runs before the search, and `threads` only fans out a
//! node's strong-branch probes, so the root cut pool — order, coefficients,
//! proofs, bit for bit — and the whole search after it must be independent
//! of the thread count and bitwise-reproducible run to run.

use insitu_core::build_aggregate;
use insitu_types::CutProof;
use integration_tests::fuzz;
use milp::SolveOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn four_thread_opts() -> SolveOptions {
    SolveOptions {
        threads: 4,
        certificate: true,
        ..SolveOptions::default()
    }
}

#[test]
fn root_cut_pool_is_thread_count_invariant() {
    let mut with_cuts = 0usize;
    for case in 0..24usize {
        let mut rng =
            StdRng::seed_from_u64(0x0C07_5EED ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let problem = fuzz::gen_problem(&mut rng, case);
        let built = build_aggregate(&problem).expect("model builds");

        let serial = milp::solve(&built.model, &fuzz::serial_opts()).expect("serial solve");
        let par = milp::solve(&built.model, &four_thread_opts()).expect("4-thread solve");
        // the generator emits half-integer weights, so distinct optima
        // differ by >= 0.5 and "equal within abs_gap" means exactly equal
        assert_eq!(
            serial.objective.to_bits(),
            par.objective.to_bits(),
            "case {case}: optimum must not depend on thread count"
        );
        let cs = serial.stats.certificate.as_ref().expect("serial certificate");
        let cp = par.stats.certificate.as_ref().expect("parallel certificate");
        assert_eq!(
            cs.cuts, cp.cuts,
            "case {case}: root cut pool must not depend on thread count"
        );
        assert_eq!(cs.dual_bound.to_bits(), cp.dual_bound.to_bits());
        if let Err(e) = fuzz::same_search(&serial, &par) {
            panic!("case {case}: the search must not depend on thread count: {e}");
        }
        if !cs.cuts.is_empty() {
            with_cuts += 1;
        }

        // the serial search is bitwise-reproducible, node counts included
        let again = milp::solve(&built.model, &fuzz::serial_opts()).expect("serial re-solve");
        assert_eq!(serial.objective.to_bits(), again.objective.to_bits());
        assert_eq!(serial.nodes, again.nodes, "case {case}: serial node count drifted");
        assert_eq!(
            cs.cuts,
            again.stats.certificate.as_ref().expect("certificate").cuts,
            "case {case}: serial cut pool drifted between runs"
        );
    }
    assert!(
        with_cuts >= 2,
        "expected several instances to separate cuts, got {with_cuts}"
    );
}

/// End-to-end tamper check: a solver-emitted certificate whose cut pool
/// has one coefficient nudged in the *strengthening* direction must be
/// rejected by the exact re-derivation (weakening is legal; claiming a
/// stronger cut than GMI allows is not).
#[test]
fn tampered_cut_coefficient_is_rejected() {
    for case in 0..24usize {
        let mut rng =
            StdRng::seed_from_u64(0x0C07_5EED ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let problem = fuzz::gen_problem(&mut rng, case);
        let built = build_aggregate(&problem).expect("model builds");
        let sol = milp::solve(&built.model, &fuzz::serial_opts()).expect("solve");
        let cert = sol.stats.certificate.as_ref().expect("certificate");
        let Some(gomory_at) = cert.cuts.iter().position(|c| matches!(
            c,
            CutProof::Gomory { cut, .. } if !cut.is_empty()
        )) else {
            continue;
        };
        assert!(
            certify::CheckedCertificate::check(cert.clone()).is_ok(),
            "untampered certificate must close"
        );
        assert!((cert.objective - sol.objective).abs() <= certify::BOUND_TOL);
        let mut bad = cert.clone();
        if let CutProof::Gomory { vars, cut, .. } = &mut bad.cuts[gomory_at] {
            let (var, coeff) = &mut cut[0];
            let at_upper = vars
                .iter()
                .find(|v| v.var == *var)
                .expect("cut var is in the base row")
                .at_upper;
            // shifted coefficient is −coeff for at-upper vars: push the
            // effective coefficient below the exact GMI value either way
            *coeff += if at_upper { 0.25 } else { -0.25 };
        }
        let problems = certify::CheckedCertificate::check(bad).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("cut")),
            "tampered cut must be called out, got {problems:?}"
        );
        return;
    }
    panic!("no fuzz instance produced a Gomory cut to tamper with");
}

/// FNV-1a over the words of one solve that the exact cut arithmetic can
/// move: every bit of every surviving cut proof, the node count and the
/// optimum.
fn pool_digest(h: &mut u64, sol: &milp::Solution) {
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(sol.nodes as u64);
    word(sol.objective.to_bits());
    for cut in &sol.stats.certificate.as_ref().expect("certificate").cuts {
        match cut {
            CutProof::Gomory { vars, base_rhs, cut, cut_rhs } => {
                word(1);
                for v in vars {
                    word(v.var as u64);
                    word(v.coeff.to_bits());
                    word(v.bound.to_bits());
                    word(v.integral as u64 | (v.at_upper as u64) << 1);
                }
                word(base_rhs.to_bits());
                for &(v, c) in cut {
                    word(v as u64);
                    word(c.to_bits());
                }
                word(cut_rhs.to_bits());
            }
            CutProof::Cover { row, rhs, members } => {
                word(2);
                for &(v, c) in row {
                    word(v as u64);
                    word(c.to_bits());
                }
                word(rhs.to_bits());
                for &m in members {
                    word(m as u64);
                }
            }
        }
    }
}

/// The separator's exact arithmetic decides which f64 every cut
/// coefficient rounds to, so swapping the number type underneath it must
/// not move one bit of any pool. First recorded at commit b860911 (general
/// `i128` fractions) over the 200 instances `certify_differential` sweeps,
/// as `(327, 7, 4_993_605_275_087_128_920)`; re-recorded at commit c30b233,
/// which starts a cold LP from the slack basis, so some root LPs end on a
/// different vertex of a degenerate optimal face and Gomory rows are read
/// off a different basis (the arithmetic did not change; every optimum is
/// equal, `certify_differential` holds them); and re-recorded from
/// `(335, 7, 861_432_312_668_375_803)` when the aggregate model stopped
/// expanding `(k, q)` where memory cannot decide the pair (commit
/// `7652804`), which changes the rows the cuts are read from; and from
/// `(402, 4, 6_871_643_870_694_759_146)` when the builder stopped charging
/// `om` to analyses that never output. A mismatch
/// here means a cut, and possibly the search after it, changed.
#[test]
fn cut_pools_match_the_recording_made_with_general_fractions() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (mut gomory, mut cover) = (0usize, 0usize);
    for case in 0..200usize {
        let mut rng =
            StdRng::seed_from_u64(20_150_815 ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let problem = fuzz::gen_problem(&mut rng, case);
        let built = build_aggregate(&problem).expect("model builds");
        let sol = milp::solve(&built.model, &fuzz::serial_opts()).expect("serial solve");
        for cut in &sol.stats.certificate.as_ref().expect("certificate").cuts {
            match cut {
                CutProof::Gomory { .. } => gomory += 1,
                CutProof::Cover { .. } => cover += 1,
            }
        }
        pool_digest(&mut h, &sol);
    }
    assert_eq!(
        (gomory, cover, h),
        (406, 4, 4_082_702_080_357_166_890),
        "a root cut pool moved"
    );
}

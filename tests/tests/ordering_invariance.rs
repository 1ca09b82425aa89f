//! Regression: model results must not depend on analysis insertion order.
//!
//! The serving tier canonicalizes every instance (analyses sorted by
//! name) before solving, and serves the canonical solve to requesters in
//! *any* analysis order. That is only sound if `build_aggregate` and the
//! exact formulation describe the same optimization problem regardless
//! of list order: the optimal **objective** must be identical (it is the
//! value of the instance, not of the encoding). The concrete schedule
//! may legitimately differ between orders when optima are tied — solver
//! tie-breaks follow variable order — which is why the service
//! re-certifies every served schedule instead of assuming uniqueness;
//! here each order's result must certify PROVED against the *other*
//! order's problem once permuted back.

use insitu_core::formulation;
use insitu_core::placement::place_schedule;
use insitu_core::solve_aggregate;
use insitu_types::canonical::{canonical_order, to_canonical};
use insitu_types::{Schedule, ScheduleProblem};
use integration_tests::fuzz;
use milp::SolveError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reversed(p: &ScheduleProblem) -> ScheduleProblem {
    let mut q = p.clone();
    q.analyses.reverse();
    q
}

/// `(|C_i|, |O_i|)` per analysis.
fn counts(s: &Schedule) -> (Vec<usize>, Vec<usize>) {
    s.per_analysis
        .iter()
        .map(|a| (a.count(), a.output_count()))
        .unzip()
}

#[test]
fn aggregate_objective_is_insertion_order_invariant() {
    let mut checked = 0usize;
    for case in 0..60usize {
        let mut rng = StdRng::seed_from_u64(0x0c0d_u64.wrapping_add(case as u64 * 0x9E37_79B9));
        let p = fuzz::gen_problem(&mut rng, case);
        if p.len() < 2 {
            continue;
        }
        let q = reversed(&p);
        let a = solve_aggregate(&p, &fuzz::serial_opts(), None);
        let b = solve_aggregate(&q, &fuzz::serial_opts(), None);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                // weights are half-integers and counts are small ints, so
                // both objectives are exact f64 sums: bitwise comparable
                assert_eq!(
                    a.objective.to_bits(),
                    b.objective.to_bits(),
                    "case {case}: insertion order changed the optimum \
                     ({} vs {})",
                    a.objective,
                    b.objective
                );
                // each order's schedule, permuted into the other order,
                // must still be PROVED optimal for that problem
                let cert = certify::certify(&q, &b.schedule, b.stats.certificate.as_ref());
                assert_eq!(
                    cert.verdict,
                    certify::Verdict::Proved,
                    "case {case}: reversed-order solve failed certification: {:?}",
                    cert.problems
                );
                // both orders' counts, mapped into canonical order, must
                // yield the same Eq. 1 objective on the canonical problem
                // (schedules themselves may differ when optima are tied)
                let (counts_a, outputs_a) = counts(&a.schedule);
                let (counts_b, outputs_b) = counts(&b.schedule);
                let canon_counts_a = to_canonical(&counts_a, &canonical_order(&p));
                let canon_counts_b = to_canonical(&counts_b, &canonical_order(&q));
                let canon_out_a = to_canonical(&outputs_a, &canonical_order(&p));
                let canon_out_b = to_canonical(&outputs_b, &canonical_order(&q));
                let (canon, _) = insitu_types::canonical::canonicalize(&p);
                let obj_a = place_schedule(&canon, &canon_counts_a, &canon_out_a).objective(&canon);
                let obj_b = place_schedule(&canon, &canon_counts_b, &canon_out_b).objective(&canon);
                assert_eq!(
                    obj_a.to_bits(),
                    obj_b.to_bits(),
                    "case {case}: permuted counts disagree on the replayed objective"
                );
                checked += 1;
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (a, b) => panic!(
                "case {case}: orders disagree on solvability: {:?} vs {:?}",
                a.map(|s| s.objective),
                b.map(|s| s.objective)
            ),
        }
    }
    assert!(checked >= 20, "too few multi-analysis cases exercised");
}

#[test]
fn exact_formulation_objective_is_insertion_order_invariant() {
    let mut checked = 0usize;
    for case in 0..60usize {
        let mut rng = StdRng::seed_from_u64(0xE84C7_u64.wrapping_add(case as u64 * 0x9E37_79B9));
        let p = fuzz::gen_problem(&mut rng, case);
        // the time-indexed model has 2*n*steps binaries; keep it small
        if p.len() < 2 || p.resources.steps > 10 {
            continue;
        }
        let q = reversed(&p);
        let a = formulation::solve_exact(&p, &fuzz::serial_opts(), None).map(|s| s.objective);
        let b = formulation::solve_exact(&q, &fuzz::serial_opts(), None).map(|s| s.objective);
        match (a, b) {
            (Ok(obj_a), Ok(obj_b)) => {
                assert_eq!(
                    obj_a.to_bits(),
                    obj_b.to_bits(),
                    "case {case}: exact formulation optimum depends on order \
                     ({obj_a} vs {obj_b})"
                );
                checked += 1;
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (a, b) => panic!(
                "case {case}: orders disagree on solvability: {:?} vs {:?}",
                a, b
            ),
        }
    }
    assert!(checked >= 3, "too few exact-formulation cases exercised");
}

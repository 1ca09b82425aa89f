//! The lowering of the scheduling models, held to a dense reference.
//!
//! `StandardForm::from_model` assembles the row-major copy of the
//! constraint matrix row by row (a row's terms on one column summed in term
//! order) and transposes it once into the column-major matrix the engine
//! factorizes. `milp::lp_fuzz::assert_lowering_matches` compares both,
//! cell by cell and bit for bit, with a dense term-by-term accumulation and
//! with each other; here it runs on the differential-fuzz generator's
//! problems through both formulations, each also with two cut-shaped `>=`
//! rows appended (long-mantissa coefficients on every variable, a column
//! repeated three times and a pair that cancels).

use insitu_core::{build_aggregate, formulation::build_exact};
use integration_tests::fuzz;
use milp::lp_fuzz::{assert_lowering_matches, with_cut_rows};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn scheduling_models_lower_like_the_dense_reference() {
    let (mut models, mut nnz) = (0usize, 0usize);
    for case in 0..160usize {
        let mut rng = StdRng::seed_from_u64(0x10_3E2 ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let problem = fuzz::gen_problem(&mut rng, case);
        let aggregate = build_aggregate(&problem).expect("model builds").model;
        let exact = build_exact(&problem).0;
        for model in [aggregate, exact] {
            nnz += assert_lowering_matches(&model);
            nnz += assert_lowering_matches(&with_cut_rows(&model));
            models += 2;
        }
    }
    assert_eq!(models, 640);
    assert!(nnz > 100_000, "{nnz} nonzeros compared");
}

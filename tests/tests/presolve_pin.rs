//! What `milp::presolve` makes of the scheduling models, pinned.
//!
//! `milp::solve` presolves every model it is handed before the root LP, so
//! presolve's output is the input of every later stage: a bound that moves
//! by one bit can move the pivot path, the cuts and the tree. This test
//! holds that output to a recording, model by model: the error, if
//! presolve proves the model infeasible, or else the number of rows it kept
//! and the raw bits of every variable's lower and upper bound.
//!
//! The families are the models `milp::solve` presolves where it serves or
//! measures a schedule: the differential-fuzz generator's instances (all
//! eight degenerate families) through both formulations — the aggregate
//! model and the time-indexed Eq. 1–9 model — the service-family instance
//! through the aggregate model, and the seven shapes of the benchmark's
//! exact leg through the time-indexed one (`bench::instances` restates the
//! benchmark's formulas). Root cuts are appended after presolve, so models
//! with cut rows are not presolve's input and are not pinned here.
//!
//! Recorded at commit `59b6cd8`, before bound tightening computed each
//! row's activity once instead of re-summing the other terms for each term,
//! and before dominated-row elimination was deleted. That deletion moved one
//! model on purpose, so it is pinned apart from the recording: the aggregate
//! model of fuzz case 562 has one analysis, so its time row and its memory
//! row share one support, and the memory row implies the time row under the
//! bounds; the deleted pass dropped the time row, now it stays (3 rows kept
//! instead of 2, every bound as recorded). The aggregate family (case 562
//! aside, which did not move) and the service-family model were re-recorded
//! when `build_aggregate` stopped expanding `(k, q)` where memory cannot
//! decide the pair (commit `7652804`): their models have other columns and
//! rows, so presolve has other input. They read
//! `(2 398 kept rows, rows 13_373_703_968_131_255_405, bounds
//! 14_722_783_118_135_148_459)` and `(22, 6_520_889_763_169_322_899,
//! 1_646_832_966_919_450_341)` before. Both aggregate pins were
//! re-recorded once more when `om` stopped being charged to analyses that
//! never output: case 562's one analysis is such an analysis, so its peak
//! bound fell to `cm·k_max` ≈ 45.0 under `mth` ≈ 45.6, the builder makes no
//! memory row and nothing implies the time row (2 rows kept, the bound
//! digest `7_671_093_867_544_896_472` before); the rest of the family read
//! `(2 918, 13_623_005_367_185_563_141, 3_552_876_332_086_225_855)`. A
//! value that moves means presolve derived, rounded or kept something else
//! — find it, do not re-pin.

use bench::instances::{exact_leg, service_like};
use insitu_core::{build_aggregate, formulation::build_exact};
use integration_tests::fuzz;
use milp::{presolve, Model};
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
}

/// What presolve made of a family: the number of models and of those it
/// proved infeasible, the rows it kept in all, and two digests, model by
/// model — `rows` of the error or the kept-row count, `bounds` of the
/// error or every variable's bounds.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    models: usize,
    infeasible: usize,
    kept_rows: usize,
    rows: u64,
    bounds: u64,
}

fn record<'a>(models: impl IntoIterator<Item = &'a Model>) -> Tally {
    let (mut rows, mut bounds) = (Digest::new(), Digest::new());
    let mut tally = Tally::default();
    for model in models {
        tally.models += 1;
        let mut m = model.clone();
        match presolve(&mut m) {
            Err(e) => {
                tally.infeasible += 1;
                for h in [&mut rows, &mut bounds] {
                    h.word(0xE0);
                    for b in format!("{e:?}").bytes() {
                        h.word(u64::from(b));
                    }
                }
            }
            Ok(_) => {
                tally.kept_rows += m.cons.len();
                rows.word(m.cons.len() as u64);
                for v in &m.vars {
                    bounds.word(v.lower.to_bits());
                    bounds.word(v.upper.to_bits());
                }
            }
        }
    }
    tally.rows = rows.0;
    tally.bounds = bounds.0;
    tally
}

/// The aggregate and time-indexed models of the fuzz generator's first
/// `cases` instances, seeded as `search_pin.rs` seeds them.
fn fuzz_models(cases: usize) -> (Vec<Model>, Vec<Model>) {
    (0..cases)
        .map(|case| {
            let mut rng =
                StdRng::seed_from_u64(0x5EA2_C4ED ^ (case as u64).wrapping_mul(0x9E37_79B9));
            let problem = fuzz::gen_problem(&mut rng, case);
            let aggregate = build_aggregate(&problem).expect("model builds").model;
            (aggregate, build_exact(&problem).0)
        })
        .unzip()
}

/// The fuzz case whose aggregate model kept, after dominated-row
/// elimination was deleted, the one row that pass removed.
const KEPT_DOMINATED_ROW: usize = 562;

#[test]
fn presolve_of_the_fuzz_models_matches_the_recording() {
    let (aggregate, exact) = fuzz_models(600);
    let (moved, held): (Vec<_>, Vec<_>) =
        aggregate.iter().enumerate().partition(|&(case, _)| case == KEPT_DOMINATED_ROW);
    assert_eq!(
        record(held.into_iter().map(|(_, m)| m)),
        Tally {
            models: 599,
            infeasible: 0,
            kept_rows: 2_919,
            rows: 9_038_144_551_118_837_478,
            bounds: 14_314_989_656_741_006_383,
        },
        "presolve of the aggregate models moved"
    );
    let moved = record(moved.into_iter().map(|(_, m)| m));
    assert_eq!(
        (moved.models, moved.infeasible, moved.bounds),
        (1, 0, 7_885_086_171_420_842_632),
        "presolve of case {KEPT_DOMINATED_ROW}'s aggregate model moved a bound"
    );
    assert_eq!(moved.kept_rows, 2, "the builder makes no memory row for this case");
    assert_eq!(
        record(&exact),
        Tally {
            models: 600,
            infeasible: 0,
            kept_rows: 33_015,
            rows: 5_904_085_667_802_300_229,
            bounds: 9_392_111_399_563_125_984,
        },
        "presolve of the time-indexed models moved"
    );
}

#[test]
fn presolve_of_the_benchmark_shapes_matches_the_recording() {
    let service = build_aggregate(&service_like()).expect("model builds").model;
    assert_eq!(
        record([&service]),
        Tally {
            models: 1,
            infeasible: 0,
            kept_rows: 25,
            rows: 8_164_984_352_168_075_964,
            bounds: 4_143_399_045_012_933_093,
        },
        "presolve of the service-family model moved"
    );
    let exact: Vec<Model> = [(64, 4), (64, 5), (96, 4), (96, 5), (128, 4), (128, 5), (160, 4)]
        .into_iter()
        .map(|(steps, n)| build_exact(&exact_leg(steps, n)).0)
        .collect();
    assert_eq!(
        record(&exact),
        Tally {
            models: 7,
            infeasible: 0,
            kept_rows: 8_273,
            rows: 12_637_594_137_059_114_679,
            bounds: 14_403_003_240_697_997_784,
        },
        "presolve of the exact-leg models moved"
    );
}

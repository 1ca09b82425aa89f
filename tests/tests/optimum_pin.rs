//! The aggregate model's optimum, pinned apart from the path that finds it.
//!
//! `search_pin`, `lp_counters` and `presolve_pin` hold *how* the search
//! runs, word for word; a change to the model's shape moves all of them on
//! purpose. This test holds only *what* it returns: the objective bits of
//! `solve_aggregate` (or its error) on every family below. A reformulation
//! that claims to leave the optimum where it was must leave this test as
//! recorded.
//!
//! The families: the differential-fuzz generator's instances seeded as
//! `search_pin.rs` and `presolve_pin.rs` seed them (all eight degenerate
//! families, cases 0..1200), the service-family instance of
//! `bench::instances`, and the fifteen paper instances behind the Table
//! 5–8 goldens (the same profiles and budgets the experiments build).
//!
//! Recorded at commit `a82d539`, before `build_aggregate` chose the integer
//! `(k, q)` form for flat-peak analyses and for problems whose memory row
//! cannot bind. A value that moves means the optimum moved — find it, do
//! not re-pin.

use bench::experiments::{table5_threshold, table6_total, table7_output, table8_weights};
use bench::instances::service_like;
use bench::scale::paper_quoted;
use insitu_core::solve_aggregate;
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem, GIB};
use integration_tests::fuzz;
use machine::{Machine, StorageTier};
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

/// The optimum `solve_aggregate` returns, or its error as text.
fn optimum(p: &ScheduleProblem) -> Result<f64, String> {
    solve_aggregate(p, &fuzz::serial_opts(), None)
        .map(|s| s.objective)
        .map_err(|e| e.to_string())
}

/// `(cases, errors, Σ objective, digest of every objective's bits)`.
fn record(problems: impl IntoIterator<Item = ScheduleProblem>) -> (usize, usize, f64, u64) {
    let mut h = Digest::new();
    let (mut cases, mut errors, mut sum) = (0usize, 0usize, 0.0f64);
    for p in problems {
        cases += 1;
        match optimum(&p) {
            Ok(objective) => {
                sum += objective;
                h.word(objective.to_bits());
            }
            Err(e) => {
                errors += 1;
                h.word(0xE0);
                for b in e.bytes() {
                    h.word(u64::from(b));
                }
            }
        }
    }
    (cases, errors, sum, h.0)
}

#[test]
fn aggregate_optima_of_the_fuzz_instances_match_the_recording() {
    let problems = (0..1200usize).map(|case| {
        let mut rng =
            StdRng::seed_from_u64(0x5EA2_C4ED ^ (case as u64).wrapping_mul(0x9E37_79B9));
        fuzz::gen_problem(&mut rng, case)
    });
    assert_eq!(
        record(problems),
        (1200, 0, 7721.5, 13_466_057_838_967_172_610),
        "an aggregate optimum moved"
    );
}

#[test]
fn aggregate_optimum_of_the_service_instance_matches_the_recording() {
    assert_eq!(optimum(&service_like()).map(f64::to_bits), Ok(979.5f64.to_bits()));
}

/// The problems the Table 5–8 experiments hand the advisor, row by row.
fn paper_instances() -> Vec<(String, ScheduleProblem)> {
    let at = |profiles: Vec<AnalysisProfile>, budget: f64| {
        ScheduleProblem::new(
            profiles,
            ResourceConfig::from_total_threshold(1000, budget, 1024.0 * GIB, GIB),
        )
        .expect("valid problem")
    };
    let mut out = Vec::new();
    for &(pct, ..) in &table5_threshold::PAPER_ROWS {
        let budget = table5_threshold::SIM_TIME * pct / 100.0;
        out.push((format!("table 5 @ {pct} %"), at(paper_quoted::waterions_table5(), budget)));
    }
    for &(threshold, ..) in &table6_total::PAPER_ROWS {
        let p = at(paper_quoted::rhodopsin_table6(), threshold);
        out.push((format!("table 6 @ {threshold} s"), p));
    }
    // table 7: the base threshold plus the output time freed by writing
    // 10, 5, then 2 outputs, and plus what NVRAM frees at 10 outputs
    let part = Machine::mira().partition_for_ranks(32_768).expect("2048 nodes");
    let one_output =
        Machine::mira().write_time(table7_output::OUTPUT_BYTES, &part, StorageTier::ParallelFs);
    for idx in 0..table7_output::PAPER_ROWS.len() {
        let sim_outputs = 10usize >> idx;
        let threshold = 50.0 + one_output * (10 - sim_outputs) as f64;
        let p = at(paper_quoted::rhodopsin_table6(), threshold);
        out.push((format!("table 7 @ {sim_outputs} outputs"), p));
    }
    let nv_out = Machine::mira_with_nvram(2.0e9).write_time(
        table7_output::OUTPUT_BYTES,
        &part,
        StorageTier::Nvram,
    );
    let nv_threshold = 50.0 + (one_output - nv_out) * 10.0;
    let p = at(paper_quoted::rhodopsin_table6(), nv_threshold);
    out.push(("table 7, NVRAM".to_string(), p));
    for &(weights, ..) in &table8_weights::PAPER_ROWS {
        out.push((
            format!("table 8 @ {weights:?}"),
            at(paper_quoted::flash_table8(weights), table8_weights::BUDGET),
        ));
    }
    out
}

#[test]
fn aggregate_optima_of_the_paper_instances_match_the_recording() {
    let got: Vec<(String, Result<f64, String>)> =
        paper_instances().into_iter().map(|(name, p)| (name, optimum(&p))).collect();
    let expected: [(&str, f64); 15] = [
        ("table 5 @ 20 %", 39.0),
        ("table 5 @ 10 %", 36.0),
        ("table 5 @ 5 %", 35.0),
        ("table 5 @ 1 %", 33.0),
        ("table 6 @ 200 s", 24.0),
        ("table 6 @ 100 s", 18.0),
        ("table 6 @ 60 s", 16.0),
        ("table 6 @ 20 s", 13.0),
        ("table 6 @ 10 s", 11.0),
        ("table 7 @ 10 outputs", 15.0),
        ("table 7 @ 5 outputs", 21.0),
        ("table 7 @ 2 outputs", 25.0),
        ("table 7, NVRAM", 27.0),
        ("table 8 @ [1.0, 1.0, 1.0]", 27.0),
        ("table 8 @ [2.0, 1.0, 2.0]", 44.0),
    ];
    assert_eq!(got.len(), expected.len());
    for ((name, o), (want_name, want)) in got.iter().zip(expected) {
        assert_eq!(name, want_name);
        assert_eq!(o.as_ref().map(|x| x.to_bits()), Ok(want.to_bits()), "{name}");
    }
}

//! Property tests for the canonical instance fingerprint.
//!
//! The serving tier keys its cache on [`certify::fingerprint`], so three
//! properties are load-bearing:
//!
//! 1. **Reorder invariance** — the same instance submitted in any
//!    analysis order fingerprints identically (otherwise duplicates miss
//!    the cache),
//! 2. **Encoding invariance** — rational-equal `f64` encodings (`0.0`
//!    vs `-0.0`) fingerprint identically, matching the exact replay's
//!    view of the inputs,
//! 3. **No collisions** — across the same 200-instance seeded corpus
//!    the differential fuzz harness uses, equal fingerprints only ever
//!    come from equal canonical instances; distinct instances (and
//!    therefore distinct-optimal instances) never collide.
//!
//! Knobs: `CERTIFY_FUZZ_CASES` / `CERTIFY_FUZZ_SEED`, shared with
//! `certify_differential.rs` so both suites sweep the same corpus.

use std::collections::HashMap;

use certify::{fingerprint, Fingerprint};
use insitu_types::canonical::{canonicalize, from_canonical_schedule, to_canonical_schedule};
use insitu_types::ScheduleProblem;
use integration_tests::fuzz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn case_rng(seed: u64, case: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9))
}

/// Fisher–Yates shuffle of the analysis list (the vendored rand shim has
/// no `shuffle`, so roll it by hand).
fn shuffled(problem: &ScheduleProblem, rng: &mut StdRng) -> ScheduleProblem {
    let mut q = problem.clone();
    for i in (1..q.analyses.len()).rev() {
        let j = rng.gen_range(0..=i);
        q.analyses.swap(i, j);
    }
    q
}

#[test]
fn fingerprint_invariant_under_analysis_reordering() {
    let cases = env_u64("CERTIFY_FUZZ_CASES", 200) as usize;
    let seed = env_u64("CERTIFY_FUZZ_SEED", 20_150_815);
    for case in 0..cases {
        let mut rng = case_rng(seed, case);
        let p = fuzz::gen_problem(&mut rng, case);
        let fp = fingerprint(&p);
        for _ in 0..3 {
            let q = shuffled(&p, &mut rng);
            assert_eq!(
                fingerprint(&q),
                fp,
                "case {case}: reordered analyses changed the fingerprint"
            );
            assert_eq!(
                canonicalize(&q).0,
                canonicalize(&p).0,
                "case {case}: reordering changed the canonical form"
            );
        }
    }
}

#[test]
fn fingerprint_invariant_under_rational_equal_encodings() {
    let cases = env_u64("CERTIFY_FUZZ_CASES", 200).min(200) as usize;
    let seed = env_u64("CERTIFY_FUZZ_SEED", 20_150_815);
    let mut flipped = 0usize;
    for case in 0..cases {
        let mut rng = case_rng(seed, case);
        let p = fuzz::gen_problem(&mut rng, case);
        // -0.0 is a different bit pattern but the same rational number;
        // gen_problem leaves many fields at 0.0, so this exercises real
        // instances, not a synthetic corner
        let mut q = p.clone();
        for a in &mut q.analyses {
            for field in [
                &mut a.fixed_time,
                &mut a.step_time,
                &mut a.compute_time,
                &mut a.output_time,
                &mut a.fixed_mem,
                &mut a.step_mem,
                &mut a.compute_mem,
                &mut a.output_mem,
            ] {
                if *field == 0.0 {
                    *field = -0.0;
                    flipped += 1;
                }
            }
        }
        assert_eq!(
            fingerprint(&q),
            fingerprint(&p),
            "case {case}: -0.0 encoding changed the fingerprint"
        );
    }
    assert!(flipped > 0, "corpus never exercised the -0.0 property");
}

#[test]
fn no_collisions_across_the_fuzz_corpus() {
    let cases = env_u64("CERTIFY_FUZZ_CASES", 200) as usize;
    let seed = env_u64("CERTIFY_FUZZ_SEED", 20_150_815);
    let mut seen: HashMap<Fingerprint, (usize, ScheduleProblem)> = HashMap::new();
    for case in 0..cases {
        let mut rng = case_rng(seed, case);
        let p = fuzz::gen_problem(&mut rng, case);
        let (canon, _) = canonicalize(&p);
        let fp = fingerprint(&p);
        if let Some((prev_case, prev)) = seen.get(&fp) {
            // equal fingerprints must mean equal canonical instances —
            // anything else would let the cache serve case A to case B
            // (caught by re-certification, but it must never happen here)
            assert_eq!(
                *prev, canon,
                "cases {prev_case} and {case}: distinct instances collided on {fp}"
            );
        } else {
            seen.insert(fp, (case, canon));
        }
    }
    assert!(seen.len() > cases / 2, "corpus unexpectedly degenerate");
}

#[test]
fn schedule_permutation_round_trips_on_fuzz_instances() {
    let seed = env_u64("CERTIFY_FUZZ_SEED", 20_150_815);
    for case in 0..40 {
        let mut rng = case_rng(seed, case);
        let p = fuzz::gen_problem(&mut rng, case);
        let q = shuffled(&p, &mut rng);
        let (_, perm) = canonicalize(&q);
        // a synthetic per-analysis schedule survives the order round-trip
        let mut sched = insitu_types::Schedule::empty(q.len());
        for (i, s) in sched.per_analysis.iter_mut().enumerate() {
            *s = insitu_types::AnalysisSchedule::new(vec![i + 1], vec![]);
        }
        let round = from_canonical_schedule(&to_canonical_schedule(&sched, &perm), &perm);
        assert_eq!(round, sched, "case {case}: permutation round-trip broke");
    }
}

/// The fingerprint is a cache key and a trace id, so its bits are a
/// contract: `write_f64` hashes the reduced numerator/denominator of every
/// exactly representable input and the raw bits of every other one. Pinned
/// (at commit b860911, before `certify::Rat` became a dyadic type) for
/// every corpus instance, for inputs at the edges of the exact-conversion
/// window, and — as one digest — for the 200-instance fuzz corpus.
#[test]
fn fingerprint_bits_are_pinned() {
    let mut got: Vec<(String, String)> = Vec::new();
    for path in fuzz::corpus_files() {
        let text = std::fs::read_to_string(&path).expect("readable corpus case");
        let (problem, _, _) = fuzz::parse_case(&text).expect("corpus case parses");
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        got.push((name, fingerprint(&problem).to_hex()));
    }
    // one field at each edge of the window: inside it the reduced pair is
    // hashed (tag 1), outside it the bit pattern (tag 2)
    let edges: [(&str, f64); 8] = [
        ("0.0", 0.0),
        ("-0.0", -0.0),
        ("5e-324", 5e-324),
        ("1e-30", 1e-30),
        ("2^-126", 2f64.powi(-126)),
        ("2^-127", 2f64.powi(-127)),
        ("1e300", 1e300),
        ("f64::MAX", f64::MAX),
    ];
    for (name, x) in edges {
        let mut p = fuzz::gen_problem(&mut case_rng(20_150_815, 0), 0);
        p.analyses[0].compute_time = x;
        p.resources.mem_threshold = x;
        got.push((format!("edge {name}"), fingerprint(&p).to_hex()));
    }
    let mut digest = 0u128;
    for case in 0..200 {
        let p = fuzz::gen_problem(&mut case_rng(20_150_815, case), case);
        digest = digest.rotate_left(7) ^ fingerprint(&p).0;
    }
    got.push(("fuzz corpus digest".into(), format!("{digest:032x}")));

    let want = [
        ("adaptive-remaining-budget.json", "71b17245d25fb047da681e7c7f5d1dce"),
        ("exemplar-proved.json", "9c2048cca3134cf66172564a8a2b3c11"),
        ("proptest-regression-664cd834.json", "0b5a02348883ec81a40bf2c15170b532"),
        ("regression-cm-accumulation.json", "be2f82c9017560659b64b682a1433da7"),
        ("edge 0.0", "d94faf7e7016a9d2ae08e5d8a8d87aab"),
        ("edge -0.0", "d94faf7e7016a9d2ae08e5d8a8d87aab"),
        ("edge 5e-324", "740a9de3eeaaad1f15ba07ef062f70cb"),
        ("edge 1e-30", "27647b4474e3babce71a25ccec1b64d3"),
        ("edge 2^-126", "d058fe9f7fc857f9f8a69ccbbd56742b"),
        ("edge 2^-127", "555190bcf3984eceee2170bd73b1fcdb"),
        ("edge 1e300", "b7e7659308a7d1981ba3125a38f4b6db"),
        ("edge f64::MAX", "da6110415ebd3c3e98cba1bd0ba3d59b"),
        ("fuzz corpus digest", "f73e9c6b542ee93f7c82f2d4b18530d3"),
    ];
    let got: Vec<(&str, &str)> = got.iter().map(|(n, h)| (n.as_str(), h.as_str())).collect();
    assert_eq!(got, want, "fingerprint bits moved");
}

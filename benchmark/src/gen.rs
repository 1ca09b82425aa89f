//! Input generators for the three solver-path workloads.
//!
//! **The catalogue says what is asked; the seed says when and in which
//! form.** Every instance's costs, weights and budget, the popularity mix
//! and the near-miss variants come from the constant [`CATALOGUE`]; `--seed`
//! decides the order requests arrive in, the order each lists its analyses
//! in, and the order of the solve suite. The reason is the solver, not
//! convenience: branch and cut is chaotic in its coefficients. On this
//! family one solve takes 0.2–350 ms (sd ≈ 2× mean), nudging a single cost
//! by 1/64 s — or merely reordering the analyses of a large instance —
//! moves an individual solve by up to 2×, and the mean over 320 freshly
//! drawn instances differs by ±20 % between draws. A catalogue drawn per
//! seed would bury any regression bound under input noise; with a fixed
//! catalogue two seeds do the same solver work in a different order, and
//! what still differs between them (cache interleaving, warm-start
//! neighbours, lock timing) is what a service sees from real traffic. The
//! service canonicalizes analysis order, so the per-request shuffle reaches
//! the JSON, canonicalize and fingerprint stages and never the solver.
//!
//! Shapes are tied to an instance's index: analysis count, intervals and
//! which analyses hold memory decide which model `build_aggregate` emits
//! (integer pair or unary expansion) and how long `certify` replays.
//!
//! **Costs are dyadic** (multiples of 1/64 s, whole bytes) and the per-step
//! threshold is a dyadic number whose product with `Steps` is at least the
//! intended total. Every schedule's total time is then an exact `f64`, and
//! the float solver and the exact-rational certifier agree on schedules
//! that spend the budget to the last 1/64 s — no request can fail on a
//! rounding sliver.

use insitu_types::json;
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem, ServiceRequest};

use crate::rng::{Rng, Zipf};

/// Source of every instance coefficient (see the module docs).
pub const CATALOGUE: u64 = 0x2015_0815;

/// Steps of every service-path instance (the `service_bench` size: a
/// fresh solve costs milliseconds, not microseconds).
pub const SERVICE_STEPS: usize = 240;
/// Distinct instance shapes of the service family, and the size of the
/// `svc-zipf` universe.
pub const TEMPLATES: usize = 64;

/// Unit of the service family's compute buffers. Small on purpose: above
/// 64 runs `build_aggregate` bounds an analysis's memory by `cm·kmax`
/// instead of modelling the frees, and with buffers of megabytes that bound,
/// not the budget, would decide the schedule.
const BUFFER: f64 = 16_384.0;

/// Resources whose Eq. 4 right-hand side `cth·Steps` is exact and is
/// `total` rounded up by less than `Steps·2⁻²⁰` — far below the 1/64 s
/// cost grid, so no extra schedule becomes feasible.
pub fn resources(steps: usize, total: f64, mem_threshold: f64) -> ResourceConfig {
    const SCALE: f64 = (1u64 << 20) as f64;
    let cth = (total / steps as f64 * SCALE).ceil() / SCALE;
    ResourceConfig::new(steps, cth, mem_threshold, 1e9)
}

/// One instance of the service family: 2–6 analyses over 240 steps.
/// `template` fixes the shape, `rng` the numbers.
pub fn service_instance(template: usize, rng: &mut Rng) -> ScheduleProblem {
    let t = template % TEMPLATES;
    let n = [4, 3, 5, 2, 6][t % 5];
    let mut full_cost = 0.0;
    let analyses: Vec<AnalysisProfile> = (0..n)
        .map(|j| {
            let itv = 1usize << ((t + j) % 4);
            let holds_memory = !(t + 2 * j).is_multiple_of(3);
            let ct = 0.5 + rng.int(1, 36) as f64 / 8.0;
            let ot = rng.int(1, 4) as f64 / 16.0;
            let cm = if holds_memory {
                rng.int(1, 8) as f64 * BUFFER
            } else {
                0.0
            };
            full_cost += (SERVICE_STEPS / itv) as f64 * (ct + ot);
            AnalysisProfile::new(format!("a{j}"))
                .with_compute(ct, cm)
                .with_interval(itv)
                .with_weight(rng.int(2, 8) as f64 / 2.0)
                .with_output(ot, 0.0, 1)
        })
        .collect();
    // 40–60 % of what running everything at every allowed step would
    // cost: several analyses fit, none fits fully, so the solver trades
    // them against each other
    let total = (full_cost * rng.int(40, 60) as f64 / 100.0 * 64.0).floor() / 64.0;
    ScheduleProblem::new(analyses, resources(SERVICE_STEPS, total, 1e9))
        .expect("generated service instance must validate")
}

/// A generated request stream: the wire requests the program sees and the
/// problems they carry (kept for the untimed output check).
pub struct Stream {
    pub requests: Vec<String>,
    pub problems: Vec<ScheduleProblem>,
    /// Requests that bring a new service to its steady state before the
    /// stream is timed (`svc-zipf`: one per base instance).
    pub preload: Vec<String>,
    /// The catalogue's first [`WARMUP`] instances in catalogue order: the
    /// same small piece of work under every seed, for set-up to push through
    /// a throwaway service.
    pub warmup: Vec<String>,
}

impl Stream {
    /// `catalogue` is the stream's instances in catalogue order, of which
    /// the first `preload` are the service's steady-state content.
    fn new(problems: Vec<ScheduleProblem>, catalogue: &[ScheduleProblem], preload: usize) -> Self {
        let render = |(id, p): (usize, &ScheduleProblem)| {
            json::to_string(&ServiceRequest {
                id: id as u64,
                problem: p.clone(),
            })
        };
        let head = |n: usize| catalogue.iter().take(n).enumerate().map(render).collect();
        Stream {
            requests: problems.iter().enumerate().map(render).collect(),
            preload: head(preload),
            warmup: head(WARMUP),
            problems,
        }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }
}

/// Instances set-up sends through a throwaway service.
pub const WARMUP: usize = 8;

/// Share of `svc-zipf` requests that are near misses.
pub const NEAR_MISS: f64 = 0.02;
/// Zipf exponent of `svc-zipf`.
pub const ZIPF_S: f64 = 1.1;

/// `svc-zipf`: the catalogue's [`TEMPLATES`] base instances in exact
/// Zipf(1.1) proportion (rank = template) plus a [`NEAR_MISS`] share of
/// catalogue-defined variants, all different — a base with one compute time
/// nudged by 1–16 64ths of a second, a new instance next to it. The seed
/// sets the arrival order and the order of each request's analyses.
pub fn zipf_stream(seed: u64, requests: usize) -> Stream {
    let mut values = Rng::derive(CATALOGUE, 1);
    let bases: Vec<ScheduleProblem> = (0..TEMPLATES)
        .map(|t| service_instance(t, &mut values))
        .collect();
    let zipf = Zipf::new(TEMPLATES, ZIPF_S);
    let near_misses = (requests as f64 * NEAR_MISS).round() as usize;
    let mut problems = Vec::with_capacity(requests);
    for (rank, &count) in zipf.apportion(requests - near_misses).iter().enumerate() {
        problems.extend(std::iter::repeat_n(&bases[rank], count).cloned());
    }
    let mut variants = Rng::derive(CATALOGUE, 2);
    let mut seen = std::collections::HashSet::new();
    while seen.len() < near_misses {
        let rank = zipf.sample(&mut variants);
        let k = variants.int(0, bases[rank].len() as u64 - 1) as usize;
        let nudge = variants.int(1, 16);
        if seen.insert((rank, k, nudge)) {
            let mut p = bases[rank].clone();
            p.analyses[k].compute_time += nudge as f64 / 64.0;
            problems.push(p);
        }
    }
    shuffle_stream(seed, &mut problems);
    Stream::new(problems, &bases, TEMPLATES)
}

/// `svc-fresh`: the catalogue's first `requests` pairwise distinct
/// instances (templates round-robin), in a seeded arrival order and each
/// with its analyses in a seeded order.
pub fn fresh_stream(seed: u64, requests: usize) -> Stream {
    let mut values = Rng::derive(CATALOGUE, 3);
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::with_capacity(requests);
    while pool.len() < requests {
        let p = service_instance(pool.len(), &mut values);
        if seen.insert(certify::fingerprint(&p)) {
            pool.push(p);
        }
    }
    let mut problems = pool.clone();
    shuffle_stream(seed, &mut problems);
    Stream::new(problems, &pool, 0)
}

/// The seed's part of a service stream: who arrives when, and in which
/// order each request lists its analyses.
fn shuffle_stream(seed: u64, problems: &mut [ScheduleProblem]) {
    let mut order = Rng::derive(seed, 5);
    order.shuffle(problems);
    for p in problems {
        order.shuffle(&mut p.analyses);
    }
}

/// Which constraint of a large aggregate instance is tight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Ample memory, budget at 45 % of the rough full cost.
    Budget,
    /// Budget at 60 %, memory at 35 % of the rough peak (`solver_bench`'s
    /// branching-ablation family).
    Memory,
    /// Budget at 45 %, memory at 30 % (`solver_bench`'s cut family: the
    /// root relaxation is fractional and the memory rows carry covers).
    Cut,
}

/// One entry of the `solve-scale` suite.
pub struct ScaleInstance {
    pub label: String,
    pub problem: ScheduleProblem,
    /// Solved through the time-indexed Eq. 1–9 formulation.
    pub exact: bool,
}

/// A large aggregate-model instance: `n` analyses whose intervals give
/// 4–16 runs each, accumulating memory freed only at outputs, half-integer
/// weights. Costs sit on `solver_bench`'s grids, drawn instead of derived.
fn aggregate_instance(family: Family, steps: usize, n: usize, rng: &mut Rng) -> ScheduleProblem {
    let mut rough_cost = 0.0;
    let mut rough_peak = 0.0;
    let analyses: Vec<AnalysisProfile> = (0..n)
        .map(|i| {
            let itv = (steps / (4 + 4 * (i % 4))).max(1);
            let k = (steps / itv) as f64;
            let ct = 0.5 * rng.int(1, 11) as f64;
            let cm = 4.0 * rng.int(0, 8) as f64;
            let ot = 0.25 * rng.int(1, 3) as f64;
            let om = 3.0 * rng.int(0, 6) as f64;
            let im = 0.5 * rng.int(0, 4) as f64;
            rough_cost += k * (ct + ot);
            rough_peak += im * steps as f64 + k * cm + om;
            AnalysisProfile::new(format!("A{i:02}"))
                .with_per_step(0.0, im)
                .with_compute(ct, cm)
                .with_output(ot, om, 1)
                .with_weight(0.5 * rng.int(1, 6) as f64)
                .with_interval(itv)
        })
        .collect();
    let (budget, memory) = match family {
        Family::Budget => (0.45, 4.0),
        Family::Memory => (0.60, 0.35),
        Family::Cut => (0.45, 0.30),
    };
    let total = (rough_cost * budget * 4.0).floor() / 4.0;
    ScheduleProblem::new(
        analyses,
        resources(steps, total, (rough_peak * memory).floor().max(1.0)),
    )
    .expect("generated aggregate instance must validate")
}

/// A time-indexed instance (`solver_bench::instance`): interval `Steps/8`,
/// integral weights, no memory, budget at 60 % of full cost. Its costs are
/// a formula of the analysis index, not catalogue draws: with drawn costs
/// the Eq. 1–9 model stops being solved at the root and one 64-step
/// instance took 3 s, a 192-step one 52 s.
fn exact_instance(steps: usize, n: usize) -> ScheduleProblem {
    let itv = (steps / 8).max(1);
    let kmax = (steps / itv) as f64;
    let mut rough = 0.0;
    let analyses: Vec<AnalysisProfile> = (0..n)
        .map(|i| {
            let ct = 1.0 + 1.5 * i as f64;
            let ot = 0.25 * (1 + i % 2) as f64;
            rough += kmax * (ct + ot);
            AnalysisProfile::new(format!("E{i}"))
                .with_compute(ct, 0.0)
                .with_output(ot, 0.0, 1)
                .with_weight((1 + i % 3) as f64)
                .with_interval(itv)
        })
        .collect();
    let total = (rough * 0.6 * 4.0).floor() / 4.0;
    ScheduleProblem::new(analyses, resources(steps, total, 1e12))
        .expect("generated exact instance must validate")
}

/// Shapes of the aggregate leg: `(family, Steps, |A|)`.
pub const AGGREGATE_SHAPES: [(Family, usize, usize); 12] = [
    (Family::Budget, 192, 8),
    (Family::Budget, 384, 12),
    (Family::Budget, 768, 16),
    (Family::Budget, 1024, 24),
    (Family::Memory, 192, 8),
    (Family::Memory, 256, 12),
    (Family::Memory, 512, 16),
    (Family::Memory, 1024, 20),
    (Family::Cut, 192, 8),
    (Family::Cut, 256, 12),
    (Family::Cut, 512, 16),
    (Family::Cut, 768, 20),
];

/// Shapes of the exact leg: `(Steps, |A|)`; 345×236 up to ~1650×1150 LPs.
pub const EXACT_SHAPES: [(usize, usize); 7] = [
    (64, 4),
    (64, 5),
    (96, 4),
    (96, 5),
    (128, 4),
    (128, 5),
    (160, 4),
];

/// `solve-scale`: the aggregate leg and the exact leg, in a seeded order.
/// `smoke` keeps the smallest shapes of each leg. Analysis order inside an
/// instance is the catalogue's: the advisor does not canonicalize, and a
/// reordering alone moves a large solve by up to 2×.
pub fn scale_suite(seed: u64, smoke: bool) -> Vec<ScaleInstance> {
    let mut values = Rng::derive(CATALOGUE, 4);
    let mut suite = Vec::new();
    for &(family, steps, n) in &AGGREGATE_SHAPES {
        let problem = aggregate_instance(family, steps, n, &mut values);
        if !smoke || steps <= 192 {
            suite.push(ScaleInstance {
                label: format!("{family:?}/{steps}x{n}"),
                problem,
                exact: false,
            });
        }
    }
    for &(steps, n) in &EXACT_SHAPES {
        if !smoke || steps <= 64 {
            suite.push(ScaleInstance {
                label: format!("Exact/{steps}x{n}"),
                problem: exact_instance(steps, n),
                exact: true,
            });
        }
    }
    Rng::derive(seed, 6).shuffle(&mut suite);
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_core::advisor::{Advisor, AdvisorOptions};

    fn suite_bytes(seed: u64) -> String {
        scale_suite(seed, false)
            .iter()
            .map(|s| json::to_string(&s.problem))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        assert_eq!(zipf_stream(5, 400).requests, zipf_stream(5, 400).requests);
        assert_ne!(zipf_stream(5, 400).requests, zipf_stream(6, 400).requests);
        assert_eq!(fresh_stream(5, 100).requests, fresh_stream(5, 100).requests);
        assert_ne!(fresh_stream(5, 100).requests, fresh_stream(6, 100).requests);
        assert_eq!(suite_bytes(5), suite_bytes(5));
        assert_ne!(suite_bytes(5), suite_bytes(6));
    }

    #[test]
    fn zipf_stream_has_the_stated_proportions() {
        let stream = zipf_stream(11, 8000);
        let mut by_fp = std::collections::HashMap::new();
        for p in &stream.problems {
            *by_fp.entry(certify::fingerprint(p)).or_insert(0usize) += 1;
        }
        // a near miss is a fingerprint next to one of the 64 bases (two
        // variants may coincide, so a few less than 2 % are distinct)
        let near_misses = by_fp.len() - TEMPLATES;
        let share = near_misses as f64 / stream.len() as f64;
        assert!(
            share <= NEAR_MISS && share > NEAR_MISS - 0.003,
            "near-miss share {share}"
        );
        // Zipf(1.1) over 64: the hottest instance takes 1/H(64, 1.1) of the
        // requests that are not near misses, to the request
        let harmonic: f64 = (1..=TEMPLATES).map(|k| (k as f64).powf(-ZIPF_S)).sum();
        let expected = (1.0 - NEAR_MISS) / harmonic;
        let head = *by_fp.values().max().unwrap() as f64 / stream.len() as f64;
        assert!(
            (head - expected).abs() < 1e-3,
            "head share {head}, expected {expected}"
        );
        // the same multiset of instances under every seed
        let mut other: std::collections::HashMap<_, usize> = Default::default();
        for p in &zipf_stream(12, 8000).problems {
            *other.entry(certify::fingerprint(p)).or_insert(0) += 1;
        }
        assert_eq!(by_fp, other);
        // shuffled duplicates: same fingerprint, more than one wire form
        let hot = by_fp
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(fp, _)| *fp)
            .unwrap();
        let forms: std::collections::HashSet<&String> = stream
            .problems
            .iter()
            .zip(&stream.requests)
            .filter(|(p, _)| certify::fingerprint(p) == hot)
            .map(|(_, r)| r)
            .collect();
        assert!(forms.len() > 1, "hot instance is never reordered");
    }

    #[test]
    fn fresh_stream_is_all_distinct() {
        let stream = fresh_stream(3, 600);
        let fps: std::collections::HashSet<_> =
            stream.problems.iter().map(certify::fingerprint).collect();
        assert_eq!(fps.len(), stream.len());
    }

    #[test]
    fn shape_is_fixed_by_the_index_not_the_draws() {
        for t in 0..TEMPLATES {
            let a = service_instance(t, &mut Rng::derive(1, 0));
            let b = service_instance(t, &mut Rng::derive(2, 0));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.analyses.iter().zip(&b.analyses) {
                assert_eq!(x.min_interval, y.min_interval);
                assert_eq!(x.compute_mem > 0.0, y.compute_mem > 0.0);
            }
        }
    }

    #[test]
    fn every_generated_instance_validates_and_is_feasible() {
        let advisor = Advisor::new(AdvisorOptions::default());
        let zipf = zipf_stream(9, 300);
        let fresh = fresh_stream(9, 128);
        for p in zipf.problems.iter().chain(&fresh.problems) {
            p.validate().expect("validates");
            let rec = advisor.recommend(p).expect("solvable");
            assert!(rec.objective > 0.0, "budget admits no analysis at all");
            let cert = certify::certify(p, &rec.schedule, rec.solver_stats.certificate.as_ref());
            assert_eq!(
                cert.verdict,
                certify::Verdict::Proved,
                "{:?}",
                cert.problems
            );
        }
        for s in scale_suite(9, true) {
            s.problem.validate().expect("validates");
            let rec = crate::scale::advisor_for(&s)
                .recommend(&s.problem)
                .unwrap_or_else(|e| panic!("{}: {e}", s.label));
            assert!(rec.objective > 0.0, "{}", s.label);
        }
    }
}

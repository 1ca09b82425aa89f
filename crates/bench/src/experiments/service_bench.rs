//! Solve-service throughput sweep: a Zipf-distributed request stream
//! hammers one [`service::SolveService`] at 1/4/16 worker threads.
//!
//! The stream draws from a fixed universe of distinct instances with a
//! Zipf(`s`) popularity law — a few hot instances dominate, a long tail
//! stays cold — which is the workload the instance cache is built for.
//! Every request shuffles its analysis order (the canonicalizer must
//! still hit), and a fixed fraction perturbs one compute time into a
//! near miss (a distinct fingerprint, so a fresh solve). Each worker
//! count gets a **fresh** service, so hit/dedup counters are comparable
//! across the sweep.
//!
//! [`Outcome::to_json`] serializes the `bench/service-sweep/v1` schema
//! documented in `EXPERIMENTS.md` (`BENCH_service.json`). Interpret
//! `requests_per_sec` against the recorded `host_cores`: on a 1-core
//! host the worker sweep measures contention overhead only — worker
//! scaling needs real cores.

use std::collections::BTreeMap;
use std::time::Instant;

use insitu_types::json::Value;
use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{ServiceConfig, SolveService};

use crate::table::{cells, TextTable};

/// Worker-thread counts for the full sweep (the ISSUE's 1/4/16 grid).
pub const WORKERS_FULL: [usize; 3] = [1, 4, 16];
/// Worker-thread counts for `--smoke` (CI).
pub const WORKERS_SMOKE: [usize; 2] = [1, 4];

/// Stream shape: universe size, request count, Zipf exponent, cache.
#[derive(Debug, Clone, Copy)]
pub struct StreamParams {
    /// Number of distinct base instances requests draw from.
    pub universe: usize,
    /// Requests per worker-count run.
    pub requests: usize,
    /// Zipf popularity exponent (`w_r ∝ 1/r^s`).
    pub zipf_s: f64,
    /// Fraction of requests that perturb one compute time (near miss).
    pub near_miss: f64,
    /// Service cache capacity.
    pub cache_capacity: usize,
    /// RNG seed for universe + stream.
    pub seed: u64,
}

/// Full-run stream: 24 instances, 480 requests, hot-headed Zipf.
pub const STREAM_FULL: StreamParams = StreamParams {
    universe: 24,
    requests: 480,
    zipf_s: 1.1,
    near_miss: 0.15,
    cache_capacity: 64,
    seed: 2015_0815,
};

/// Reduced CI stream.
pub const STREAM_SMOKE: StreamParams = StreamParams {
    universe: 8,
    requests: 64,
    zipf_s: 1.1,
    near_miss: 0.15,
    cache_capacity: 32,
    seed: 2015_0815,
};

/// Outcome classes a request can resolve to, in report order.
pub const CLASSES: [&str; 3] = ["hit", "dedup", "fresh"];

/// Latency quantiles of one outcome class at one worker count.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Outcome class (`hit`/`dedup`/`fresh`).
    pub class: &'static str,
    /// Requests that resolved to this class.
    pub count: u64,
    /// Estimated median latency (seconds).
    pub p50: f64,
    /// Estimated 90th-percentile latency (seconds).
    pub p90: f64,
    /// Estimated 99th-percentile latency (seconds).
    pub p99: f64,
}

/// One worker-count measurement.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Worker threads serving the batch.
    pub workers: usize,
    /// Requests served (== stream length).
    pub requests: u64,
    /// Cache hits.
    pub hits: u64,
    /// Requests that piggybacked on an identical in-flight solve.
    pub dedup_waits: u64,
    /// Cache misses (each one led a solve).
    pub misses: u64,
    /// Actual solver invocations.
    pub solves: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// `hits / requests`.
    pub hit_rate: f64,
    /// Wall time of the whole batch (seconds).
    pub wall_s: f64,
    /// Served requests per second of wall time.
    pub requests_per_sec: f64,
    /// Solver invocations per second of wall time.
    pub solves_per_sec: f64,
    /// Per-class latency quantiles (classes with zero requests omitted).
    pub latency: Vec<LatencyRow>,
    /// `obs/hist/v1` snapshot of the per-request objective histogram —
    /// wall-clock-free, so it must be bitwise identical at every worker
    /// count (asserted by [`run`]).
    pub objective_hist: String,
}

/// Sweep result.
#[derive(Debug)]
pub struct Outcome {
    /// Stream the sweep replayed.
    pub params: StreamParams,
    /// One point per worker count, ascending.
    pub points: Vec<SweepPoint>,
    /// Printable report.
    pub report: String,
}

/// Deterministic universe of distinct, solvable instances. All costs
/// are **dyadic** (multiples of 1/64) so every feasible schedule's total
/// time is an exact `f64` sum: the float solver and the exact-rational
/// certifier agree even on budget-saturating optima, and no request can
/// fail on a roundoff sliver.
fn universe(params: &StreamParams) -> Vec<ScheduleProblem> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    (0..params.universe)
        .map(|i| {
            let n = 2 + i % 3;
            let analyses = (0..n)
                .map(|j| {
                    AnalysisProfile::new(format!("a{j}"))
                        .with_compute(
                            0.5 + rng.gen_range(1..=36) as f64 / 8.0,
                            rng.gen_range(0..=8) as f64 * 1e6,
                        )
                        .with_interval(1 << rng.gen_range(0..=3u32))
                        .with_weight(rng.gen_range(1..=8) as f64 / 2.0)
                        .with_output(0.0625 * rng.gen_range(1..=4) as f64, 0.0, 1)
                })
                .collect();
            // 240 steps keeps each solve non-trivial (milliseconds, not
            // microseconds) so the sweep measures solver throughput and
            // not just cache-lock handoff
            ScheduleProblem::new(
                analyses,
                ResourceConfig::from_total_threshold(240, 48.0, 1e9, 1e9),
            )
            .expect("generated instance must validate")
        })
        .collect()
}

/// Inverse-CDF Zipf sampler over ranks `0..k` (the vendored rand shim
/// has no distributions module, so roll the CDF by hand).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(k);
        let mut total = 0.0;
        for r in 1..=k {
            total += 1.0 / (r as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The request stream: Zipf-popular bases, shuffled analysis order,
/// `near_miss` fraction with one compute time nudged. Public so tests
/// can replay exactly what the sweep replays.
pub fn stream(params: &StreamParams) -> Vec<ScheduleProblem> {
    let bases = universe(params);
    let zipf = Zipf::new(bases.len(), params.zipf_s);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5EED);
    (0..params.requests)
        .map(|_| {
            let mut p = bases[zipf.sample(&mut rng)].clone();
            for i in (1..p.analyses.len()).rev() {
                let j = rng.gen_range(0..=i);
                p.analyses.swap(i, j);
            }
            if rng.gen::<f64>() < params.near_miss {
                // dyadic nudge: stays exactly representable (see universe)
                let k = rng.gen_range(0..p.analyses.len());
                p.analyses[k].compute_time += rng.gen_range(1..=5) as f64 / 64.0;
            }
            p
        })
        .collect()
}

fn counter(service: &SolveService, name: &str) -> u64 {
    service.registry().snapshot().counter(name).unwrap_or(0)
}

/// Runs the sweep: one fresh service per worker count, same stream.
pub fn run(workers: &[usize], params: &StreamParams) -> Outcome {
    let requests = stream(params);
    let mut points = Vec::with_capacity(workers.len());
    for &w in workers {
        let svc = SolveService::new(ServiceConfig {
            cache_capacity: params.cache_capacity,
            ..ServiceConfig::default()
        });
        let t0 = Instant::now();
        let replies = svc.process_batch(&requests, w);
        let wall_s = t0.elapsed().as_secs_f64();
        let failed = replies.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 0, "bench universe produced unsolvable requests");
        let served = counter(&svc, "service.requests");
        let hits = counter(&svc, "service.hits");
        let solves = counter(&svc, "service.solves");
        let snap = svc.registry().snapshot();
        let latency: Vec<LatencyRow> = CLASSES
            .iter()
            .filter_map(|&class| {
                let h = snap.hist(&format!("service.request.latency_s.{class}"))?;
                Some(LatencyRow {
                    class,
                    count: h.count,
                    p50: h.quantile(0.50).unwrap_or(0.0),
                    p90: h.quantile(0.90).unwrap_or(0.0),
                    p99: h.quantile(0.99).unwrap_or(0.0),
                })
            })
            .collect();
        let objective_hist = snap
            .hist("service.request.objective")
            .map(|h| h.to_json_string())
            .unwrap_or_default();
        points.push(SweepPoint {
            workers: w,
            requests: served,
            hits,
            dedup_waits: counter(&svc, "service.dedup_waits"),
            misses: counter(&svc, "service.misses"),
            solves,
            evictions: counter(&svc, "service.evictions"),
            hit_rate: hits as f64 / served.max(1) as f64,
            wall_s,
            requests_per_sec: served as f64 / wall_s.max(1e-9),
            solves_per_sec: solves as f64 / wall_s.max(1e-9),
            latency,
            objective_hist,
        });
    }

    // the objective histogram depends only on the request multiset —
    // worker count, claiming order and merge order are all invisible in
    // it, so every sweep point must snapshot byte-identically
    for p in &points[1..] {
        assert_eq!(
            p.objective_hist, points[0].objective_hist,
            "objective histogram must be bitwise identical across worker counts"
        );
    }

    let mut table = TextTable::new(&[
        "workers", "requests", "hits", "dedup", "misses", "hit-rate", "req/s", "solves/s",
    ]);
    for p in &points {
        table.row(&cells([
            &p.workers,
            &p.requests,
            &p.hits,
            &p.dedup_waits,
            &p.misses,
            &format!("{:.3}", p.hit_rate),
            &format!("{:.0}", p.requests_per_sec),
            &format!("{:.0}", p.solves_per_sec),
        ]));
    }
    let mut lat_table = TextTable::new(&["workers", "class", "count", "p50(s)", "p90(s)", "p99(s)"]);
    for p in &points {
        for row in &p.latency {
            lat_table.row(&cells([
                &p.workers,
                &row.class,
                &row.count,
                &format!("{:.4}", row.p50),
                &format!("{:.4}", row.p90),
                &format!("{:.4}", row.p99),
            ]));
        }
    }
    let report = format!(
        "service sweep: {} requests over {} instances, Zipf s={}, cache {}\n{}\nper-class latency quantiles (log2-bucket estimate, <2x error):\n{}",
        params.requests,
        params.universe,
        params.zipf_s,
        params.cache_capacity,
        table.render(),
        lat_table.render()
    );
    Outcome {
        params: *params,
        points,
        report,
    }
}

impl Outcome {
    /// Serializes the `bench/service-sweep/v1` schema.
    pub fn to_json(&self) -> Value {
        let points: Vec<Value> = self
            .points
            .iter()
            .map(|p| {
                let mut o = BTreeMap::new();
                o.insert("workers".into(), Value::Number(p.workers as f64));
                o.insert("requests".into(), Value::Number(p.requests as f64));
                o.insert("hits".into(), Value::Number(p.hits as f64));
                o.insert("dedup_waits".into(), Value::Number(p.dedup_waits as f64));
                o.insert("misses".into(), Value::Number(p.misses as f64));
                o.insert("solves".into(), Value::Number(p.solves as f64));
                o.insert("evictions".into(), Value::Number(p.evictions as f64));
                o.insert("hit_rate".into(), Value::Number(p.hit_rate));
                o.insert("wall_s".into(), Value::Number(p.wall_s));
                o.insert(
                    "requests_per_sec".into(),
                    Value::Number(p.requests_per_sec),
                );
                o.insert("solves_per_sec".into(), Value::Number(p.solves_per_sec));
                Value::Object(o)
            })
            .collect();
        let latency_points: Vec<Value> = self
            .points
            .iter()
            .map(|p| {
                let mut classes = BTreeMap::new();
                for row in &p.latency {
                    let mut c = BTreeMap::new();
                    c.insert("count".into(), Value::Number(row.count as f64));
                    c.insert("p50".into(), Value::Number(row.p50));
                    c.insert("p90".into(), Value::Number(row.p90));
                    c.insert("p99".into(), Value::Number(row.p99));
                    classes.insert(row.class.to_string(), Value::Object(c));
                }
                let mut o = BTreeMap::new();
                o.insert("workers".into(), Value::Number(p.workers as f64));
                o.insert("classes".into(), Value::Object(classes));
                o.insert(
                    "objective_hist".into(),
                    Value::parse(&p.objective_hist).unwrap_or(Value::Null),
                );
                Value::Object(o)
            })
            .collect();
        let mut latency = BTreeMap::new();
        latency.insert(
            "schema".into(),
            Value::String("bench/service-latency/v1".into()),
        );
        latency.insert("points".into(), Value::Array(latency_points));
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut stream = BTreeMap::new();
        stream.insert("universe".into(), Value::Number(self.params.universe as f64));
        stream.insert("requests".into(), Value::Number(self.params.requests as f64));
        stream.insert("zipf_s".into(), Value::Number(self.params.zipf_s));
        stream.insert("near_miss".into(), Value::Number(self.params.near_miss));
        stream.insert(
            "cache_capacity".into(),
            Value::Number(self.params.cache_capacity as f64),
        );
        stream.insert("seed".into(), Value::Number(self.params.seed as f64));
        let mut root = BTreeMap::new();
        root.insert(
            "schema".into(),
            Value::String("bench/service-sweep/v1".into()),
        );
        root.insert("host_cores".into(), Value::Number(host as f64));
        root.insert("stream".into(), Value::Object(stream));
        root.insert("points".into(), Value::Array(points));
        root.insert("latency".into(), Value::Object(latency));
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_accounts_for_every_request() {
        let outcome = run(&[1, 2], &STREAM_SMOKE);
        assert_eq!(outcome.points.len(), 2);
        for p in &outcome.points {
            assert_eq!(p.requests, STREAM_SMOKE.requests as u64);
            assert_eq!(p.requests, p.hits + p.dedup_waits + p.misses);
            assert!(p.solves <= p.misses, "solves can only come from misses");
            assert!(p.hit_rate > 0.0, "Zipf stream must produce cache hits");
        }
        let json = outcome.to_json().to_string_pretty();
        assert!(json.contains("bench/service-sweep/v1"));
        assert!(json.contains("bench/service-latency/v1"));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn latency_rows_cover_every_served_class_and_objective_hist_reproduces() {
        let outcome = run(&[1, 2], &STREAM_SMOKE);
        for p in &outcome.points {
            let lat_total: u64 = p.latency.iter().map(|r| r.count).sum();
            assert_eq!(lat_total, p.requests, "every request lands in a class hist");
            for r in &p.latency {
                assert!(r.p50 <= r.p90 && r.p90 <= r.p99, "quantiles must be monotone");
                assert!(r.p99 > 0.0);
            }
            // wall-clock-free histogram: identical across worker counts
            // (run() also asserts this internally)
            assert_eq!(p.objective_hist, outcome.points[0].objective_hist);
            assert!(p.objective_hist.contains("obs/hist/v1"));
        }
    }

    #[test]
    fn zipf_sampler_is_head_heavy() {
        let z = Zipf::new(16, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 16];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[8], "rank 0 must dominate the tail");
        assert!(counts.iter().sum::<usize>() == 4000);
    }
}

//! `svc-zipf` and `svc-fresh`: `service/v1` JSON requests through
//! `SolveService::handle_json`, closed loop.
//!
//! `SolveService` is an in-process library whose callers each block on a
//! reply, so the load is a closed loop: `clients` threads, each sending its
//! next request when the previous reply is back, claiming requests from a
//! shared index. The two workloads drive the same service layer two ways:
//!
//! * `svc-zipf` — every pass starts a new service, loads the 64 base
//!   instances into its cache untimed (a long-running service is warm; the
//!   cost of misses is `svc-fresh`'s subject) and replays the whole stream:
//!   2 % near-miss solves, the rest cache hits, so `certify`
//!   re-certification, canonicalize/fingerprint, the state lock and
//!   `Lru::get` do most of the work.
//! * `svc-fresh` — one service, the pool replayed cyclically. The pool is
//!   larger than the LRU, so by the time an instance comes round again it
//!   has been evicted: every request misses, scans the full cache for a
//!   warm-start neighbour, solves, inserts and evicts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use insitu_types::ResponseSource;
use service::{ServiceConfig, SolveService};

use crate::gen::{self, Stream};
use crate::layers::{Layers, Traced};
use crate::report::Pass;
use crate::staged::{self, Staged};
use crate::stats::{mean, median};
use crate::verify;
use crate::Workload;

/// How many requests each workload sends, per size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub zipf_requests: usize,
    pub fresh_pool: usize,
    pub cache: usize,
    /// Prefix of the stream the traced legs replay.
    pub traced_requests: usize,
}

const FULL: Sizes = Sizes {
    zipf_requests: 2000,
    fresh_pool: 352,
    cache: 256,
    traced_requests: 1000,
};

const SMOKE: Sizes = Sizes {
    zipf_requests: 60,
    fresh_pool: 24,
    cache: 8,
    traced_requests: 60,
};

pub fn sizes(smoke: bool) -> &'static Sizes {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// Client threads of the closed loop: one per core, at most two.
pub fn clients() -> usize {
    crate::nproc().min(2)
}

fn service(cache: usize) -> SolveService {
    SolveService::new(ServiceConfig {
        cache_capacity: cache,
        ..ServiceConfig::default()
    })
}

/// One reply as the client saw it.
pub struct Reply {
    pub latency_ms: f64,
    pub text: String,
}

/// Sends `requests` through `svc` from `clients` closed-loop threads and
/// returns the wall time and the replies in request order.
pub fn drive(svc: &SolveService, requests: &[String], clients: usize) -> (f64, Vec<Reply>) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<Vec<(usize, Reply)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::with_capacity(requests.len() / clients + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        let sent = Instant::now();
                        let text = svc.handle_json(request);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        mine.push((i, Reply { latency_ms, text }));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut slots: Vec<Option<Reply>> = requests.iter().map(|_| None).collect();
    for (i, reply) in per_client.into_iter().flatten() {
        slots[i] = Some(reply);
    }
    let replies = slots
        .into_iter()
        .map(|r| r.expect("every request is claimed exactly once"))
        .collect();
    (wall_s, replies)
}

/// Reads objective, verdict and failures off the replies of one pass. With
/// `hits_fail`, a reply served from the cache counts as failed.
fn account(wall_s: f64, replies: &[Reply], hits_fail: bool) -> Pass {
    let mut pass = Pass {
        wall_s,
        op_ms: replies.iter().map(|r| r.latency_ms).collect(),
        ..Pass::default()
    };
    for reply in replies {
        match verify::parse_reply(&reply.text) {
            Ok(r) if r.verdict != "INVALID" && !(hits_fail && r.source == ResponseSource::Hit) => {
                pass.objective += r.objective;
                pass.graded += 1;
                pass.proved += usize::from(r.verdict == "PROVED");
            }
            _ => pass.failed += 1,
        }
    }
    pass
}

/// Full check of one pass: every reply's schedule replays feasible against
/// the requester's own instance at the claimed objective, requests with one
/// fingerprint got one objective, and the small instances match the count
/// oracle.
fn check(stream: &Stream, replies: &[Reply]) -> Vec<String> {
    let mut rejected = Vec::new();
    let mut by_fp: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (i, (problem, reply)) in stream.problems.iter().zip(replies).enumerate() {
        let r = match verify::parse_reply(&reply.text) {
            Ok(r) => r,
            Err(e) => {
                rejected.push(format!("request {i}: {e}"));
                continue;
            }
        };
        if r.id != i as u64 {
            rejected.push(format!("request {i}: reply carries id {}", r.id));
        }
        if let Err(e) = verify::check_schedule(problem, &r.schedule, r.objective) {
            rejected.push(format!("request {i}: {e}"));
        }
        if r.fingerprint != certify::fingerprint(problem).to_hex() {
            rejected.push(format!("request {i}: fingerprint is not the instance's"));
        }
        let (objective, first) = *by_fp
            .entry(r.fingerprint.clone())
            .or_insert((r.objective, i));
        if objective != r.objective {
            rejected.push(format!(
                "request {i}: objective {} but request {first} with the same fingerprint got {objective}",
                r.objective
            ));
        } else if first == i {
            if let Some(best) = verify::count_oracle(problem) {
                if best != r.objective {
                    rejected.push(format!(
                        "request {i}: objective {} but enumeration finds {best}",
                        r.objective
                    ));
                }
            }
        }
    }
    rejected
}

pub struct Zipf {
    stream: Stream,
    cache: usize,
    last: Vec<Reply>,
}

impl Zipf {
    pub fn setup(seed: u64, sizes: &Sizes) -> Self {
        let stream = gen::zipf_stream(seed, sizes.zipf_requests);
        drive(&service(sizes.cache), &stream.warmup, 1);
        Zipf {
            stream,
            cache: sizes.cache,
            last: Vec::new(),
        }
    }
}

impl Workload for Zipf {
    fn pass(&mut self) -> Pass {
        let svc = service(self.cache);
        drive(&svc, &self.stream.preload, clients());
        let (wall_s, replies) = drive(&svc, &self.stream.requests, clients());
        self.last = replies;
        account(wall_s, &self.last, false)
    }

    fn verify(&self) -> Vec<String> {
        check(&self.stream, &self.last)
    }
}

pub struct Fresh {
    stream: Stream,
    svc: SolveService,
    last: Vec<Reply>,
}

impl Fresh {
    pub fn setup(seed: u64, sizes: &Sizes) -> Self {
        // an entry is inserted when its solve ends, up to a few dozen
        // requests after it was asked for; the pool outgrows the cache by
        // enough that it is evicted all the same before it comes round
        assert!(sizes.fresh_pool >= sizes.cache + sizes.cache / 4 + 8);
        let stream = gen::fresh_stream(seed, sizes.fresh_pool);
        drive(&service(sizes.cache), &stream.warmup, 1);
        Fresh {
            stream,
            svc: service(sizes.cache),
            last: Vec::new(),
        }
    }
}

impl Workload for Fresh {
    fn pass(&mut self) -> Pass {
        let (wall_s, replies) = drive(&self.svc, &self.stream.requests, clients());
        self.last = replies;
        // a cache hit here means the pool stopped thrashing the LRU and the
        // workload no longer measures what it says
        account(wall_s, &self.last, true)
    }

    fn verify(&self) -> Vec<String> {
        check(&self.stream, &self.last)
    }
}

/// One leg through a service: the wall time, the client-side latencies (ms)
/// of the replies served from the cache and of those that were solved, and
/// the warm starts' outcome.
struct Leg {
    wall_s: f64,
    hit_ms: Vec<f64>,
    solved_ms: Vec<f64>,
    warm: usize,
    hint_accepted: usize,
}

fn leg(svc: &SolveService, requests: &[String], clients: usize) -> Leg {
    let (wall_s, replies) = drive(svc, requests, clients);
    let mut out = Leg {
        wall_s,
        hit_ms: Vec::new(),
        solved_ms: Vec::new(),
        warm: 0,
        hint_accepted: 0,
    };
    for reply in &replies {
        let Ok(r) = verify::parse_reply(&reply.text) else {
            continue;
        };
        match r.source {
            ResponseSource::Hit | ResponseSource::Dedup => out.hit_ms.push(reply.latency_ms),
            ResponseSource::Warm | ResponseSource::Fresh => {
                out.solved_ms.push(reply.latency_ms);
                if r.source == ResponseSource::Warm {
                    out.warm += 1;
                    out.hint_accepted += usize::from(r.hint_accepted);
                }
            }
        }
    }
    out
}

/// The traced run of either service workload (`--trace 1`): the staged
/// replay, the same prefix at one client untraced and traced, and at
/// `clients()` clients for the scaling ratio.
pub fn traced(zipf: bool, seed: u64, sizes: &Sizes, layers: &mut Layers) -> Result<Traced, String> {
    let stream = if zipf {
        gen::zipf_stream(seed, sizes.zipf_requests)
    } else {
        gen::fresh_stream(seed, sizes.fresh_pool)
    };
    let n = sizes.traced_requests.min(stream.len());
    let requests = &stream.requests[..n];
    // both measure a service in its steady state: svc-zipf holds its base
    // instances, svc-fresh a full cache (the pool's tail)
    let preload = |svc: &SolveService| {
        if zipf {
            drive(svc, &stream.preload, clients());
        } else {
            let tail = stream.len() - sizes.cache.min(stream.len());
            drive(svc, &stream.requests[tail..], clients());
        }
    };

    let plain = service(sizes.cache);
    preload(&plain);
    let counters_before = plain.registry().snapshot();
    let one = leg(&plain, requests, 1);
    let snap = plain.registry().snapshot();
    let counter =
        |name: &str| snap.counter(name).unwrap_or(0) - counters_before.counter(name).unwrap_or(0);

    let tracer = Arc::new(obs::Tracer::with_capacity(64 * n.max(1024)));
    let observed = service(sizes.cache).with_observability(
        Arc::new(obs::Registry::new()),
        obs::TraceHandle::new(tracer.clone()),
    );
    preload(&observed);
    let preload_spans = tracer.timeline().spans.len();
    let one_traced = leg(&observed, requests, 1);

    let both = service(sizes.cache);
    preload(&both);
    let two = leg(&both, requests, clients());

    let replay: Staged =
        staged::replay_service(if zipf { &stream.preload } else { &[] }, requests)?;

    let served = counter("service.requests").max(1) as f64;
    layers.set("service.hit_frac", counter("service.hits") as f64 / served);
    layers.set(
        "service.dedup_frac",
        counter("service.dedup_waits") as f64 / served,
    );
    layers.set(
        "service.warm_frac",
        counter("service.warm_starts") as f64 / served,
    );
    layers.set("service.evictions", counter("service.evictions") as f64);
    layers.set(
        "service.certify_rejects",
        counter("service.certify_rejects") as f64,
    );
    layers.set("service.hit_p50_us", median(&one.hit_ms) * 1e3);
    layers.set("service.solved_p50_us", median(&one.solved_ms) * 1e3);
    layers.set("service.scale_2c", one.wall_s / two.wall_s);
    layers.set(
        "milp.hint_accepted_frac",
        one.hint_accepted as f64 / one.warm.max(1) as f64,
    );
    layers.set(
        "obs.trace_overhead_frac",
        one_traced.wall_s / one.wall_s - 1.0,
    );
    layers.set(
        "obs.spans_recorded",
        (tracer.timeline().spans.len() - preload_spans) as f64,
    );
    layers.set("obs.spans_dropped", tracer.dropped() as f64);
    replay.export(layers);

    // reconciliation: staged sum + residual = one-client mean latency
    let mut lines = format!(
        "  {n} requests: 1 client {:.3} s, traced {:.3} s, {} clients {:.3} s\n",
        one.wall_s,
        one_traced.wall_s,
        clients(),
        two.wall_s
    );
    for (class, seen, staged_us, key) in [
        (
            "hit",
            &one.hit_ms,
            replay.hit_mean_us(),
            "service.residual_hit_us",
        ),
        (
            "solved",
            &one.solved_ms,
            replay.solved_mean_us(),
            "service.residual_solved_us",
        ),
    ] {
        if seen.is_empty() {
            continue;
        }
        let client_us = mean(seen) * 1e3;
        let residual = client_us - staged_us;
        layers.set(key, residual);
        lines.push_str(&format!(
            "  {class:<6} {:>6} replies: staged {staged_us:>9.1} us + residual {residual:>8.1} us \
             = 1-client mean {client_us:>9.1} us ({:+.1} %)\n",
            seen.len(),
            residual / client_us * 100.0,
        ));
    }
    lines.push_str(&format!(
        "  milp.solve share of the 1-client wall: {:.1} %\n",
        replay.solve_total_s() / one.wall_s * 100.0
    ));
    Ok(Traced {
        notes: lines,
        trace_json: replay.trace_json(),
    })
}

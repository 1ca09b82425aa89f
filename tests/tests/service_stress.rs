//! Concurrency stress suite for the solve service.
//!
//! Many client threads hammer one [`service::SolveService`] with a
//! seeded mix of exact duplicates (shuffled analysis orders), near
//! misses, and fresh instances. The properties under test:
//!
//! * **Nothing unproved is ever served** — every `Ok` reply is
//!   re-certified *client-side* against the exact problem that client
//!   submitted, independent of the service's own gate.
//! * **Dedup never double-solves** — a burst of identical requests
//!   costs exactly one solver invocation; everyone gets the same
//!   optimum.
//! * **Determinism** — equal instances get bitwise-equal objectives no
//!   matter which thread asked, and batch results do not depend on the
//!   worker-thread count.
//! * **Cache churn is harmless** — an instance evicted and re-admitted
//!   while near neighbors sit in the cache is solved from scratch again
//!   and returns its first solve's optimum and schedule, bit for bit.
//!
//! `SERVICE_STRESS_ITERS` scales the per-thread request count (default
//! 25; CI raises it via `scripts/verify.sh`).

use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};

use insitu_types::json::Value;
use insitu_types::{AnalysisProfile, ResourceConfig, Schedule, ScheduleProblem};
use integration_tests::fuzz;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{CacheEntry, ServiceConfig, ServiceError, SolveService};

const CLIENTS: usize = 8;

fn iters() -> usize {
    std::env::var("SERVICE_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

/// Seeded, solvable base instances the duplicate/near-miss mix draws
/// from. Filtered to non-empty problems the aggregate solver accepts,
/// so every derived request has a well-defined optimum.
fn bases(seed: u64) -> Vec<ScheduleProblem> {
    let mut out = Vec::new();
    let mut case = 0usize;
    while out.len() < 8 && case < 64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let p = fuzz::gen_problem(&mut rng, case);
        case += 1;
        if p.len() >= 2 && insitu_core::solve_aggregate(&p, &fuzz::serial_opts(), None).is_ok() {
            out.push(p);
        }
    }
    assert!(out.len() >= 4, "fuzz corpus too degenerate for stress mix");
    out
}

fn shuffled(p: &ScheduleProblem, rng: &mut StdRng) -> ScheduleProblem {
    let mut q = p.clone();
    for i in (1..q.analyses.len()).rev() {
        let j = rng.gen_range(0..=i);
        q.analyses.swap(i, j);
    }
    q
}

/// Draws one request: 60% shuffled duplicate of a base, 25% near miss
/// (one compute time nudged), 15% fresh (unique compute times).
fn draw(bases: &[ScheduleProblem], rng: &mut StdRng, uniq: u64) -> ScheduleProblem {
    let pick = rng.gen_range(0..bases.len());
    let roll: f64 = rng.gen();
    if roll < 0.60 {
        shuffled(&bases[pick], rng)
    } else if roll < 0.85 {
        let mut q = shuffled(&bases[pick], rng);
        let k = rng.gen_range(0..q.analyses.len());
        q.analyses[k].compute_time *= 1.0 + rng.gen_range(1..=5) as f64 / 100.0;
        q
    } else {
        let mut q = bases[pick].clone();
        for (i, a) in q.analyses.iter_mut().enumerate() {
            a.compute_time += (uniq % 997 + 1) as f64 / 1e4 + i as f64 / 1e6;
        }
        q
    }
}

#[test]
fn hammered_service_serves_only_certified_results() {
    let service = SolveService::new(ServiceConfig {
        cache_capacity: 64,
        ..ServiceConfig::default()
    });
    let bases = bases(0x57E5);
    let per_thread = iters();
    // fingerprint -> objective bits, shared across clients: equal
    // instances must get bitwise-equal optima no matter who asked
    let seen: Mutex<HashMap<service::Fingerprint, u64>> = Mutex::new(HashMap::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let service = &service;
            let bases = &bases;
            let seen = &seen;
            let errors = &errors;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC11E_4700 + t as u64);
                for i in 0..per_thread {
                    let uniq = (t * per_thread + i) as u64;
                    let p = draw(bases, &mut rng, uniq);
                    match service.solve(&p) {
                        Ok(reply) => {
                            // client-side proof: the reply must certify
                            // against *this* request, in *this* order
                            let cert =
                                certify::certify(&p, &reply.schedule, reply.search_certificate());
                            if cert.verdict != certify::Verdict::Proved {
                                errors.lock().unwrap().push(format!(
                                    "thread {t} iter {i}: served {} result: {:?}",
                                    cert.verdict, cert.problems
                                ));
                                continue;
                            }
                            let mut seen = seen.lock().unwrap();
                            let bits = reply.objective.to_bits();
                            if let Some(&prev) = seen.get(&reply.fingerprint) {
                                if prev != bits {
                                    errors.lock().unwrap().push(format!(
                                        "thread {t} iter {i}: objective drift on {}",
                                        reply.fingerprint
                                    ));
                                }
                            } else {
                                seen.insert(reply.fingerprint, bits);
                            }
                        }
                        // a nudged instance may legitimately be infeasible;
                        // anything else is a bug
                        Err(ServiceError::Solve(_)) => {}
                        Err(e) => errors
                            .lock()
                            .unwrap()
                            .push(format!("thread {t} iter {i}: {e}")),
                    }
                }
            });
        }
    });

    let errors = errors.into_inner().unwrap();
    assert!(errors.is_empty(), "stress violations:\n{}", errors.join("\n"));

    let snap = service.registry().snapshot();
    let requests = snap.counter("service.requests").unwrap_or(0);
    let hits = snap.counter("service.hits").unwrap_or(0);
    let dedup = snap.counter("service.dedup_waits").unwrap_or(0);
    let misses = snap.counter("service.misses").unwrap_or(0);
    let solves = snap.counter("service.solves").unwrap_or(0);
    assert_eq!(requests, (CLIENTS * iters()) as u64);
    assert_eq!(
        requests,
        hits + dedup + misses,
        "every request is exactly one of hit/dedup/miss"
    );
    // dedup/caching must have saved real work: with a 60% duplicate mix
    // the solver runs far fewer times than requests arrive
    assert!(
        solves < requests,
        "no deduplication happened ({solves} solves for {requests} requests)"
    );
    assert_eq!(snap.counter("service.certify_rejects").unwrap_or(0), 0);
    assert!(hits > 0, "a 60% duplicate mix must produce cache hits");
    assert!(solves <= misses, "solves can only come from misses");
    // a certificate's closure is checked once, by the solve that produced
    // it — hits and dedup waiters re-run only the replay + objective half
    assert_eq!(
        snap.counter("service.certificate_checks").unwrap_or(0),
        solves,
        "closure checks must track solves, not requests ({requests})"
    );
}

#[test]
fn duplicate_burst_is_solved_exactly_once() {
    let service = SolveService::new(ServiceConfig::default());
    let base = bases(0xB0B5).remove(0);
    let barrier = Barrier::new(CLIENTS);

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let service = &service;
                let base = &base;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xD0_0D + t as u64);
                    let p = shuffled(base, &mut rng);
                    barrier.wait(); // maximize the in-flight collision window
                    (p.clone(), service.solve(&p).expect("burst solve failed"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let snap = service.registry().snapshot();
    assert_eq!(
        snap.counter("service.solves"),
        Some(1),
        "a burst of {CLIENTS} identical requests must cost exactly one solve"
    );
    let fresh = replies
        .iter()
        .filter(|(_, r)| r.source == service::ResponseSource::Fresh)
        .count();
    assert_eq!(fresh, 1, "exactly one client leads the solve");

    let bits = replies[0].1.objective.to_bits();
    for (p, reply) in &replies {
        assert_eq!(reply.objective.to_bits(), bits, "burst optimum drifted");
        let cert = certify::certify(p, &reply.schedule, reply.search_certificate());
        assert_eq!(cert.verdict, certify::Verdict::Proved, "{:?}", cert.problems);
    }
}

#[test]
fn batch_results_are_independent_of_worker_count() {
    let bases = bases(0x3A7C);
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let stream: Vec<ScheduleProblem> = (0..40).map(|i| draw(&bases, &mut rng, i)).collect();

    let run = |workers: usize| {
        let service = SolveService::new(ServiceConfig {
            cache_capacity: 16,
            ..ServiceConfig::default()
        });
        let replies = service.process_batch(&stream, workers);
        let objective_hist = service
            .registry()
            .snapshot()
            .hist("service.request.objective")
            .expect("objective histogram registered")
            .to_json_string();
        (replies, objective_hist)
    };
    let (serial, serial_hist) = run(1);
    let (wide, wide_hist) = run(4);
    // wall-clock-free, so its `obs/hist/v1` snapshot depends only on the
    // request multiset: claiming order and merge order are invisible in it
    assert_eq!(
        serial_hist, wide_hist,
        "objective histogram must be bitwise identical across worker counts"
    );

    for (i, (a, b)) in serial.iter().zip(&wide).enumerate() {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                // schedules may differ when optima tie (cache timing
                // changes which tied solution is cached first), but the
                // optimum itself is worker-count invariant, bit for bit
                assert_eq!(
                    a.objective.to_bits(),
                    b.objective.to_bits(),
                    "request {i}: optimum depends on worker count"
                );
                assert_eq!(a.verdict, certify::Verdict::Proved);
                assert_eq!(b.verdict, certify::Verdict::Proved);
            }
            (Err(ServiceError::Solve(_)), Err(ServiceError::Solve(_))) => {}
            (a, b) => panic!("request {i}: worker counts disagree: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn evicted_then_readmitted_is_served_fresh_and_bitwise_equal() {
    // handcrafted instances with a provably unique optimum: counts are
    // capped at 10 (100 steps, interval 10) and weights are 16 vs 1, so
    // `(1 + 16·c_a) + (1 + c_b)` separates every count vector — no two
    // feasible schedules share an objective. Capacity 2 forces the
    // first instance out of the cache.
    let mk = |ct: f64| {
        ScheduleProblem::new(
            vec![
                AnalysisProfile::new("a")
                    .with_compute(ct, 0.0)
                    .with_interval(10)
                    .with_weight(16.0)
                    .with_output(0.1, 0.0, 1),
                AnalysisProfile::new("b")
                    .with_compute(ct * 1.5, 0.0)
                    .with_interval(10)
                    .with_output(0.1, 0.0, 1),
            ],
            ResourceConfig::from_total_threshold(100, 8.0, 1e9, 1e9),
        )
        .unwrap()
    };
    let p0 = mk(1.0);
    let p1 = mk(1.1);
    let p2 = mk(1.2);

    let service = SolveService::new(ServiceConfig {
        cache_capacity: 2,
        ..ServiceConfig::default()
    });
    let cold = service.solve(&p0).unwrap();
    assert_eq!(cold.source, service::ResponseSource::Fresh);
    service.solve(&p1).unwrap();
    service.solve(&p2).unwrap(); // p0 is now evicted
    assert_eq!(
        service.registry().snapshot().counter("service.evictions"),
        Some(1)
    );

    let readmitted = service.solve(&p0).unwrap();
    // a miss again: near neighbors p1/p2 are cached, and play no part
    assert_eq!(
        readmitted.source,
        service::ResponseSource::Fresh,
        "evicted instance must be solved from scratch"
    );
    assert_eq!(
        readmitted.objective.to_bits(),
        cold.objective.to_bits(),
        "re-solve changed the optimum"
    );
    assert_eq!(readmitted.counts, cold.counts);
    assert_eq!(readmitted.output_counts, cold.output_counts);
    assert_eq!(
        readmitted.schedule, cold.schedule,
        "unique-optimum instance must reproduce the first schedule exactly"
    );
    assert_eq!(readmitted.verdict, certify::Verdict::Proved);

    // and the re-solve repopulated the cache: next ask is a pure hit
    let hit = service.solve(&p0).unwrap();
    assert_eq!(hit.source, service::ResponseSource::Hit);
    assert_eq!(hit.objective.to_bits(), cold.objective.to_bits());
}

#[test]
fn certify_reject_under_load_dumps_a_parseable_flight_record() {
    // Poison the cache: plant a decoy instance's solution under the
    // target's fingerprint, then let a burst of clients request the
    // target. The certification gate must reject the poisoned entry,
    // every client must still receive a proved result (fresh-solve
    // fallback), and the reject must leave a parseable `flightrec/v1`
    // post-mortem naming the offending fingerprint.
    let service = SolveService::new(ServiceConfig {
        cache_capacity: 16,
        ..ServiceConfig::default()
    });
    let bases = bases(0xF116);
    let target = bases[0].clone();
    let decoy = bases[1].clone();
    let d = service.solve(&decoy).expect("decoy base must solve");
    let fp = certify::fingerprint(&target);
    service.inject_cache_entry_for_test(
        fp,
        Arc::new(CacheEntry {
            counts: vec![0; decoy.len()],
            output_counts: vec![0; decoy.len()],
            schedule: Schedule::empty(decoy.len()),
            objective: d.objective,
            certificate: d.certificate.clone().expect("fresh solve certifies"),
            nodes: d.nodes,
        }),
    );
    assert!(service.last_flight_dump().is_none());

    let barrier = Barrier::new(CLIENTS);
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let service = &service;
                let target = &target;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xF116 + t as u64);
                    let p = shuffled(target, &mut rng);
                    barrier.wait();
                    (p.clone(), service.solve(&p).expect("reject must recover"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // nothing unproved escaped, despite the poisoned entry
    for (p, reply) in &replies {
        let cert = certify::certify(p, &reply.schedule, reply.search_certificate());
        assert_eq!(cert.verdict, certify::Verdict::Proved, "{:?}", cert.problems);
    }
    let snap = service.registry().snapshot();
    let rejects = snap.counter("service.certify_rejects").unwrap_or(0);
    assert!(rejects >= 1, "the poisoned entry must trip the gate");

    // the reject left a parseable post-mortem
    let dump = service
        .last_flight_dump()
        .expect("certify reject must dump the flight recorder");
    let v = Value::parse(&dump).expect("flight dump must be valid JSON");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("flightrec/v1"));
    assert_eq!(
        v.get("reason").and_then(Value::as_str),
        Some("certify-reject")
    );
    assert_eq!(
        v.get("fingerprint").and_then(Value::as_str),
        Some(fp.to_hex().as_str())
    );
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("INVALID"));
    assert!(!v.get("entries").and_then(Value::as_array).unwrap().is_empty());
    // the dump's registry snapshot agrees with the live one on rejects
    let dumped = v
        .get("registry")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("service.certify_rejects"))
        .and_then(Value::as_f64)
        .expect("dump embeds the registry snapshot");
    assert!(dumped >= 1.0);
}

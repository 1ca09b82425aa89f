//! End-to-end observability smoke test, run as a `verify.sh` stage.
//!
//! Usage: `obs_smoke [--out DIR]` (artifacts default to the current
//! directory).
//!
//! Replays the smoke request stream through a fully-instrumented
//! [`service::SolveService`] at 1 and 4 workers and asserts the
//! observability contracts that the ISSUE pins down:
//!
//! 1. the wall-clock-free `service.request.objective` histogram snapshot
//!    is **bitwise identical** across worker counts (`obs/hist/v1`);
//! 2. trace ids are derived from fingerprints + stream position, so the
//!    per-request trace-id sequence is identical across worker counts;
//! 3. every span recorded during the batch carries a resolvable
//!    `trace_id`, and the Chrome export routes each request to its own
//!    named lane (plus the always-present `dropped_records` metadata);
//! 4. a forced certification reject produces a parseable `flightrec/v1`
//!    post-mortem naming the offending fingerprint and verdict;
//! 5. the solver's search certificate renders to a `milp/searchtrace/v1`
//!    document that round-trips through its own JSON.
//!
//! Artifacts written to `--out`: `obs_smoke_timeline.json`,
//! `obs_smoke_timeline.chrome.json`, `obs_smoke_flightrec.json`,
//! `obs_smoke_searchtrace.json` — the first and last are `trace_view`
//! inputs, which `verify.sh` renders as its next stage.

use bench::experiments::service_bench::{stream, STREAM_SMOKE};
use insitu_types::json::Value;
use insitu_types::{AnalysisProfile, ResourceConfig, ResponseSource, ScheduleProblem, Schedule};
use service::{CacheEntry, ServiceConfig, SolveService};
use std::sync::Arc;

fn traced_service(cache_capacity: usize) -> (SolveService, Arc<obs::Tracer>) {
    let tracer = Arc::new(obs::Tracer::with_capacity(1 << 16));
    let svc = SolveService::new(ServiceConfig {
        cache_capacity,
        ..ServiceConfig::default()
    })
    .with_observability(
        Arc::new(obs::Registry::new()),
        obs::TraceHandle::new(tracer.clone()),
    );
    (svc, tracer)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| ".".into());

    let requests = stream(&STREAM_SMOKE);
    println!(
        "obs_smoke: {} requests, workers 1 vs 4, artifacts -> {out_dir}",
        requests.len()
    );

    // --- 1+2+3: determinism + lanes across worker counts -------------
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        let (svc, tracer) = traced_service(STREAM_SMOKE.cache_capacity);
        let replies = svc.process_batch(&requests, workers);
        assert!(
            replies.iter().all(|r| r.is_ok()),
            "smoke stream must be fully solvable"
        );
        let snap = svc.registry().snapshot();
        let objective_hist = snap
            .hist("service.request.objective")
            .expect("objective histogram registered")
            .to_json_string();
        let tl = tracer.timeline();
        assert_eq!(tl.dropped, 0, "smoke tracer must not overflow");
        tl.validate().expect("timeline is structurally sound");
        assert!(
            tl.spans.iter().all(|s| s.trace_id.is_some()),
            "every span recorded during the batch must carry a trace id"
        );
        let cert = replies
            .iter()
            .flatten()
            .find_map(|r| r.certificate.clone());
        runs.push((workers, objective_hist, tl, cert));
    }
    let (_, serial_hist, serial_tl, cert) = &runs[0];
    let (_, parallel_hist, parallel_tl, _) = &runs[1];
    assert_eq!(
        serial_hist, parallel_hist,
        "objective histogram must be bitwise identical across worker counts"
    );
    assert_eq!(
        serial_tl.trace_ids(),
        parallel_tl.trace_ids(),
        "trace-id set must be identical across worker counts"
    );
    println!(
        "PASS determinism: objective hist bitwise-identical, {} trace ids match at 1 vs 4 workers",
        serial_tl.trace_ids().len()
    );

    let chrome = serial_tl.to_chrome_trace_string();
    for t in serial_tl.trace_ids() {
        let lane = format!("request {}", obs::trace_id_hex(t));
        assert!(chrome.contains(&lane), "chrome export missing lane {lane}");
    }
    assert!(chrome.contains("\"name\":\"dropped_records\""));
    println!(
        "PASS chrome lanes: {} per-request lanes + dropped_records metadata",
        serial_tl.trace_ids().len()
    );

    // --- 4: forced certify-reject dumps flightrec/v1 ------------------
    let mk = |names_ct: &[(&str, f64)]| -> ScheduleProblem {
        ScheduleProblem::new(
            names_ct
                .iter()
                .map(|&(n, ct)| {
                    AnalysisProfile::new(n)
                        .with_compute(ct, 0.0)
                        .with_interval(10)
                        .with_output(0.1, 0.0, 1)
                })
                .collect(),
            ResourceConfig::from_total_threshold(100, 8.0, 1e9, 1e9),
        )
        .unwrap()
    };
    let (svc, _tracer) = traced_service(16);
    let target = mk(&[("rdf", 0.5), ("msd", 1.0)]);
    let decoy = mk(&[("a", 0.9), ("b", 1.3), ("c", 0.2)]);
    let d = svc.solve(&decoy).expect("decoy solves");
    svc.inject_cache_entry_for_test(
        certify::fingerprint(&target),
        Arc::new(CacheEntry {
            counts: vec![0; 3],
            output_counts: vec![0; 3],
            schedule: Schedule::empty(3),
            objective: d.objective,
            certificate: d.certificate.clone().expect("fresh solve certifies"),
            nodes: d.nodes,
        }),
    );
    let r = svc.solve(&target).expect("service recovers from the reject");
    assert_eq!(r.source, ResponseSource::Fresh, "reject must fall back to a fresh solve");
    let dump = svc
        .last_flight_dump()
        .expect("certify reject leaves a flight dump");
    let v = Value::parse(&dump).expect("dump is valid JSON");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("flightrec/v1"));
    assert_eq!(v.get("reason").and_then(Value::as_str), Some("certify-reject"));
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("INVALID"));
    assert_eq!(
        v.get("fingerprint").and_then(Value::as_str),
        Some(certify::fingerprint(&target).to_hex().as_str())
    );
    assert!(!v.get("entries").and_then(Value::as_array).unwrap().is_empty());
    println!("PASS flightrec: forced certify-reject dumped parseable flightrec/v1");

    // --- 5: search trace from a real workload certificate -------------
    let cert = cert.as_ref().expect("smoke stream includes a fresh certified solve");
    let trace = milp::SearchTrace::from_certificate(cert.get(), 64);
    let trace_json = trace.to_json_string();
    let round = milp::SearchTrace::from_json(&trace_json).expect("searchtrace round-trips");
    assert_eq!(&round, &trace);
    println!(
        "PASS searchtrace: {} nodes ({} sampled) round-trip {}",
        trace.total_nodes,
        trace.nodes.len(),
        milp::SEARCHTRACE_SCHEMA
    );

    // --- artifacts -----------------------------------------------------
    let write = |name: &str, body: &str| {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, format!("{body}\n")).unwrap_or_else(|e| {
            eprintln!("obs_smoke: cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    };
    write("obs_smoke_timeline.json", &serial_tl.to_json_string());
    write("obs_smoke_timeline.chrome.json", &chrome);
    write("obs_smoke_flightrec.json", &dump);
    write("obs_smoke_searchtrace.json", &trace_json);
    println!("obs_smoke: all observability contracts hold");
}

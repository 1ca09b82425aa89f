//! Cross-crate observability contracts, property-tested.
//!
//! `obs` is std-only and hand-rolls its JSON, so these tests sit above
//! it and re-parse every exported document with the workspace's real
//! parser (`insitu_types::json::Value`) — the schema promises in
//! `docs/OBSERVABILITY.md` are only honest if a non-`obs` parser agrees.
//!
//! * **Histogram algebra** (`obs/hist/v1`): merge is associative and
//!   commutative at the bit level (shard-and-merge must not depend on
//!   worker scheduling), quantiles respect the documented `< 2×`
//!   relative error bound for positive samples, and snapshots are
//!   insertion-order invariant.
//! * **Flight recorder** (`flightrec/v1`): a dump round-trips through
//!   the JSON parser with every entry kind intact, and the ring keeps
//!   the *newest* entries when it wraps.
//! * **Trace contexts**: ids are pure functions of (fingerprint, seq) —
//!   re-derivation anywhere reproduces them.
//! * **Search traces** (`milp/searchtrace/v1`): the certificate a
//!   service reply carries renders to a trace that round-trips its JSON.

use insitu_types::json::Value;
use obs::{FlightRecorder, Hist, TraceContext};
use proptest::prelude::*;

/// Positive finite samples spanning the whole tracked exponent range,
/// plus the nonpositive bin.
fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    // mostly latencies/objectives around 1.0, with the occasional
    // extreme magnitude and nonpositive sample mixed in
    prop::collection::vec((0u64..8, 0.0001f64..10_000.0), 0..80).prop_map(|raw| {
        raw.into_iter()
            .map(|(sel, v)| match sel {
                0 => 0.0,
                1 => -3.5,
                2 => 1e-300,
                3 => 1e300,
                _ => v,
            })
            .collect()
    })
}

fn hist_of(samples: &[f64]) -> Hist {
    let mut h = Hist::new();
    for &s in samples {
        h.observe(s);
    }
    h
}

proptest! {
    #[test]
    fn hist_merge_is_associative_and_commutative(
        a in arb_samples(),
        b in arb_samples(),
        c in arb_samples(),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ∪ b) ∪ c == a ∪ (b ∪ c), bit for bit
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right_tail = hb.clone();
        right_tail.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_tail);
        prop_assert_eq!(left.to_json_string(), right.to_json_string());
        // a ∪ b == b ∪ a
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab.to_json_string(), ba.to_json_string());
        // and merging equals observing the concatenated stream in any order
        let mut all: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let streamed = hist_of(&all);
        all.reverse();
        let reversed = hist_of(&all);
        prop_assert_eq!(streamed.to_json_string(), reversed.to_json_string());
        prop_assert_eq!(left.to_json_string(), streamed.to_json_string());
    }

    #[test]
    fn hist_quantiles_respect_the_2x_error_bound(
        mut samples in prop::collection::vec(0.0001f64..10_000.0, 1..80),
        q in 0.0f64..1.0,
    ) {
        let h = hist_of(&samples);
        let est = h.quantile(q).unwrap();
        samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
        let exact = samples[rank];
        // documented bound: the estimate is the bucket's upper edge,
        // clamped to the observed range — within a factor of 2 of the
        // exact quantile for positive samples, and never above the max
        prop_assert!(est >= exact, "estimate {est} below exact {exact}");
        // a sample exactly on a bucket edge makes the estimate exactly 2x
        prop_assert!(est <= exact * 2.0, "estimate {est} breaks 2x bound on {exact}");
        prop_assert!(est <= h.max && est >= h.min);
    }

    #[test]
    fn hist_json_round_trips_through_the_real_parser(samples in arb_samples()) {
        let h = hist_of(&samples);
        let v = Value::parse(&h.to_json_string()).unwrap();
        prop_assert_eq!(v.get("schema").and_then(Value::as_str), Some("obs/hist/v1"));
        prop_assert_eq!(
            v.get("count").and_then(Value::as_f64),
            Some(samples.len() as f64)
        );
        let bucket_total: f64 = v
            .get("buckets")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|b| b.get("count").and_then(Value::as_f64).unwrap())
            .sum();
        let nonpositive = v.get("nonpositive").and_then(Value::as_f64).unwrap();
        prop_assert_eq!(bucket_total + nonpositive, samples.len() as f64);
    }

    #[test]
    fn trace_ids_are_pure_functions_of_fingerprint_and_seq(
        base_hi in any::<u64>(),
        base_lo in any::<u64>(),
        seq in any::<u64>(),
    ) {
        let base = (base_hi as u128) << 64 | base_lo as u128;
        let a = TraceContext::derive(base, seq);
        let b = TraceContext::derive(base, seq);
        prop_assert_eq!(a, b);
        // the child chain is equally reproducible
        prop_assert_eq!(a.child(7), b.child(7));
        // and distinct sequence numbers separate requests
        prop_assert_ne!(a.trace_id, TraceContext::derive(base, seq.wrapping_add(1)).trace_id);
    }
}

#[test]
fn flightrec_dump_round_trips_through_the_real_parser() {
    let flight = std::sync::Arc::new(FlightRecorder::with_capacity(8));
    let registry = obs::Registry::new();
    registry.attach_flight(flight.clone());
    registry.add("service.requests", 3); // tees a Delta entry into the ring
    let tracer = obs::Tracer::with_capacity(64);
    let ctx = TraceContext::derive(0xFEED_F00D, 42);
    {
        let _g = ctx.enter();
        let mut s = tracer.span("service.request");
        s.tag("class", "fresh");
        tracer.event("cache.evict", &[("victim", obs::TagValue::Int(7))]);
    }
    let tl = tracer.timeline();
    for s in &tl.spans {
        flight.record_span(s.clone());
    }
    for e in &tl.events {
        flight.record_event(e.clone());
    }
    flight.record_delta("manual.tick", 1);

    let snap = registry.snapshot();
    let dump = flight.dump("unit-test", Some("deadbeef"), Some("INVALID"), Some(&snap));
    let v = Value::parse(&dump).expect("flightrec dump must be valid JSON");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("flightrec/v1"));
    assert_eq!(v.get("reason").and_then(Value::as_str), Some("unit-test"));
    assert_eq!(v.get("fingerprint").and_then(Value::as_str), Some("deadbeef"));
    assert_eq!(v.get("verdict").and_then(Value::as_str), Some("INVALID"));
    let entries = v.get("entries").and_then(Value::as_array).unwrap();
    assert_eq!(entries.len(), 4, "span + event + delta + counter tee");
    let kinds: Vec<&str> = entries
        .iter()
        .map(|e| e.get("kind").and_then(Value::as_str).unwrap())
        .collect();
    assert!(kinds.contains(&"span"));
    assert!(kinds.contains(&"event"));
    assert!(kinds.contains(&"delta"));
    // the span kept its trace id through the dump
    let span = entries
        .iter()
        .find(|e| e.get("kind").and_then(Value::as_str) == Some("span"))
        .unwrap();
    assert_eq!(
        span.get("trace_id").and_then(Value::as_str),
        Some(obs::trace_id_hex(ctx.trace_id).as_str())
    );
    // the registry snapshot rides along
    let counters = v
        .get("registry")
        .and_then(|r| r.get("counters"))
        .and_then(Value::as_object)
        .unwrap();
    assert_eq!(
        counters.get("service.requests").and_then(Value::as_f64),
        Some(3.0)
    );
}

#[test]
fn flight_ring_keeps_the_newest_entries_when_it_wraps() {
    let flight = FlightRecorder::with_capacity(4);
    for i in 0..10u64 {
        flight.record_delta("tick", i);
    }
    assert_eq!(flight.recorded(), 10);
    let dump = flight.dump("wrap", None, None, None);
    let v = Value::parse(&dump).unwrap();
    let entries = v.get("entries").and_then(Value::as_array).unwrap();
    assert_eq!(entries.len(), 4, "ring is bounded at its capacity");
    let deltas: Vec<f64> = entries
        .iter()
        .map(|e| e.get("delta").and_then(Value::as_f64).unwrap())
        .collect();
    assert_eq!(deltas, vec![6.0, 7.0, 8.0, 9.0], "oldest entries overwritten");
    assert_eq!(v.get("fingerprint"), Some(&Value::Null));
}

#[test]
fn searchtrace_of_a_service_reply_round_trips_its_json() {
    let problem = insitu_types::ScheduleProblem::new(
        vec![
            insitu_types::AnalysisProfile::new("rdf")
                .with_compute(0.5, 0.0)
                .with_interval(10)
                .with_output(0.1, 0.0, 1),
            insitu_types::AnalysisProfile::new("msd")
                .with_compute(1.0, 0.0)
                .with_interval(10)
                .with_output(0.1, 0.0, 1),
        ],
        insitu_types::ResourceConfig::from_total_threshold(100, 8.0, 1e9, 1e9),
    )
    .unwrap();
    let service = service::SolveService::new(service::ServiceConfig::default());
    let reply = service.solve(&problem).expect("instance solves");
    let cert = reply
        .search_certificate()
        .expect("a fresh reply carries its search certificate");
    let trace = milp::SearchTrace::from_certificate(cert, 64);
    let round = milp::SearchTrace::from_json(&trace.to_json_string())
        .expect("milp/searchtrace/v1 parses");
    assert_eq!(round, trace);
}

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
//! * **Search trees**: the certificate a service reply carries renders
//!   as a text tree with every node it records, root first.
//! * **Run reports**: a coupled run's `kernel_telemetry` names exactly the
//!   simulation's own kernels, each timed by a bracket inside the
//!   coupler's simulation bracket; each analysis is timed once, by the
//!   coupler, in `analysis_times`.

use amrsim::analysis::{f1_vorticity, f2_l1_norm, f3_l2_norm};
use amrsim::sedov::SedovSetup;
use amrsim::FlashSim;
use insitu_core::runtime::{run_coupled, Analysis, CouplerConfig, RunReport, Simulator};
use insitu_types::json::Value;
use insitu_types::{AnalysisSchedule, Schedule};
use mdsim::analysis::{a1_hydronium_rdf, a2_ion_rdf, a3_vacf, a4_msd};
use mdsim::{water_ions, BuilderParams, System};
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
fn search_tree_of_a_service_reply_renders_every_certified_node() {
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
    let n = cert.nodes.len();
    let tree = milp::SearchTrace::from_certificate(cert).to_text_tree();
    let mut lines = tree.lines();
    let header = lines.next().expect("a header line");
    assert!(
        header.starts_with(&format!("search tree: {n} nodes, ")),
        "{tree}"
    );
    let root = cert.root().expect("a certificate has a root node");
    let root_line = lines.next().expect("a root line");
    assert!(
        root_line.starts_with(&format!("#{} bound={} ", root.id, root.lp_bound)),
        "{tree}"
    );
    assert_eq!(
        tree.matches(" bound=").count(),
        n,
        "one line per node: {tree}"
    );
}

/// Steps of the coupled runs below.
const RUN_STEPS: usize = 6;

/// Runs every analysis on `sim` for [`RUN_STEPS`] steps, analysis `i` at
/// every `(i + 1)`-th step (so each has its own run count) with one output
/// at its last run, and returns the report with those run counts.
fn report_of<Sim: Simulator>(
    sim: &mut Sim,
    analyses: &mut [Box<dyn Analysis<Sim::State> + '_>],
) -> (RunReport, Vec<usize>) {
    let mut schedule = Schedule::empty(analyses.len());
    let mut counts = Vec::new();
    for (i, entry) in schedule.per_analysis.iter_mut().enumerate() {
        let steps: Vec<usize> = (1..=RUN_STEPS).filter(|s| s % (i + 1) == 0).collect();
        counts.push(steps.len());
        let last = *steps.last().expect("every analysis runs");
        *entry = AnalysisSchedule::new(steps, vec![last]);
    }
    let cfg = CouplerConfig { steps: RUN_STEPS, sim_output_every: 0 };
    (run_coupled(sim, analyses, &schedule, &cfg), counts)
}

/// What reaches `RunReport`: the simulation's kernels by name, each once a
/// step and timed, their brackets nested inside the coupler's simulation
/// bracket; the analyses by their coupler brackets, each with its run
/// count. No analysis kernel adds a name of its own.
fn assert_report(report: &RunReport, kernels: &[&str], names: &[&str], counts: &[usize]) {
    let reported: Vec<&str> = report.kernel_telemetry.kernels.keys().map(String::as_str).collect();
    assert_eq!(reported, kernels);
    for (name, record) in &report.kernel_telemetry.kernels {
        assert_eq!(record.calls, RUN_STEPS, "{name}");
        assert!(record.wall_s > 0.0, "{name} ran, so its bracket is timed");
    }
    let kernel_s: f64 = report
        .kernel_telemetry
        .kernels
        .values()
        .map(|r| r.wall_s)
        .sum();
    assert!(
        kernel_s <= report.sim_time,
        "the kernel brackets ({kernel_s} s) nest inside the simulation's ({} s)",
        report.sim_time
    );
    let timed: Vec<(&str, usize, usize)> = report
        .analysis_times
        .iter()
        .map(|t| (t.name.as_str(), t.analyze_count, t.output_count))
        .collect();
    let want: Vec<(&str, usize, usize)> =
        names.iter().zip(counts).map(|(&name, &count)| (name, count, 1)).collect();
    assert_eq!(timed, want);
    for t in &report.analysis_times {
        assert!(t.analyze > 0.0, "{} ran, so its analyze bracket is timed", t.name);
    }
}

#[test]
fn a_coupled_run_reports_the_sim_kernels_and_times_each_analysis_once() {
    let mut flash = FlashSim::sedov(2, 8, SedovSetup::default());
    let mut analyses: Vec<Box<dyn Analysis<FlashSim>>> =
        vec![Box::new(f1_vorticity()), Box::new(f2_l1_norm()), Box::new(f3_l2_norm())];
    let names: Vec<String> = analyses.iter().map(|a| a.name().to_string()).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let (report, counts) = report_of(&mut flash, &mut analyses);
    assert_report(&report, &["hydro.cfl_dt", "hydro.ghosts", "hydro.step"], &names, &counts);

    let mut md = water_ions(&BuilderParams {
        n_particles: 500,
        ..Default::default()
    });
    // one step first, so the run's first step is not also the initial
    // force evaluation
    md.step();
    let mut analyses: Vec<Box<dyn Analysis<System>>> = vec![
        Box::new(a1_hydronium_rdf()),
        Box::new(a2_ion_rdf()),
        Box::new(a3_vacf(4)),
        Box::new(a4_msd()),
    ];
    let names: Vec<String> = analyses.iter().map(|a| a.name().to_string()).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let (report, counts) = report_of(&mut md, &mut analyses);
    assert_eq!(counts, [6, 3, 2, 1]);
    assert_report(&report, &["md.cell_rebuild", "md.force", "md.integrate"], &names, &counts);
}

//! Exporter round-trips, drift attribution, and overload behaviour of
//! the tracing layer, exercised through a real coupled run.
//!
//! - the `obs/timeline/v1` JSON and Chrome trace-event exports re-parse
//!   with the workspace JSON parser and agree with the in-memory
//!   timeline record-for-record;
//! - the drift report's predicted series is **bitwise** equal to
//!   `certify`'s exact Eq. 2–4 replay;
//! - a run that overflows the ring reports the exact number of dropped
//!   records and never reallocates the buffer.

use insitu_core::attribution::attribute;
use insitu_core::runtime::{run_coupled_traced, Analysis, CouplerConfig, SPAN_STEP};
use insitu_types::json::Value;
use insitu_types::{
    AnalysisProfile, AnalysisSchedule, ResourceConfig, Schedule, ScheduleProblem,
};
use mdsim::analysis::{a1_hydronium_rdf, a2_ion_rdf};
use mdsim::{water_ions, BuilderParams, System};
use std::sync::Arc;

const STEPS: usize = 16;

fn problem_and_schedule() -> (ScheduleProblem, Schedule) {
    let problem = ScheduleProblem::new(
        vec![
            AnalysisProfile::new("a1_hydronium_rdf")
                .with_compute(4e-3, 6e6)
                .with_output(1e-3, 2e6, 1)
                .with_interval(4),
            AnalysisProfile::new("a2_ion_rdf")
                .with_compute(4e-3, 6e6)
                .with_output(1e-3, 2e6, 1)
                .with_interval(8),
        ],
        ResourceConfig::from_total_threshold(STEPS, 10.0, 2e9, 1e9),
    )
    .expect("valid problem");
    let mut schedule = Schedule::empty(2);
    schedule.per_analysis[0] = AnalysisSchedule::new(vec![4, 8, 12, 16], vec![8, 16]);
    schedule.per_analysis[1] = AnalysisSchedule::new(vec![8, 16], vec![16]);
    (problem, schedule)
}

fn traced_run(capacity: usize) -> (Arc<obs::Tracer>, Schedule, ScheduleProblem) {
    let (problem, schedule) = problem_and_schedule();
    let mut sys = water_ions(&BuilderParams {
        n_particles: 1_500,
        ..Default::default()
    });
    let tracer = Arc::new(obs::Tracer::with_capacity(capacity));
    let handle = obs::TraceHandle::new(tracer.clone());
    sys.tracer = handle.clone();
    let mut analyses: Vec<Box<dyn Analysis<System>>> =
        vec![Box::new(a1_hydronium_rdf()), Box::new(a2_ion_rdf())];
    let report = run_coupled_traced(
        &mut sys,
        &mut analyses,
        &schedule,
        &CouplerConfig {
            steps: STEPS,
            sim_output_every: 0,
        },
        &handle,
    );
    assert!(report.sim_time > 0.0, "simulation did not run");
    assert!(
        report.kernel_telemetry.get("md.force").is_some(),
        "per-kernel attribution missing from the run report"
    );
    (tracer, schedule, problem)
}

#[test]
fn json_export_round_trips_record_for_record() {
    let (tracer, _, _) = traced_run(8 * 1024);
    let tl = tracer.timeline();
    tl.validate().expect("well-formed timeline");
    let doc = Value::parse(&tl.to_json_string()).expect("export parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(obs::timeline::TIMELINE_SCHEMA)
    );
    assert_eq!(
        doc.get("dropped").and_then(Value::as_f64),
        Some(tl.dropped as f64)
    );
    let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
    assert_eq!(spans.len(), tl.spans.len());
    for (got, want) in spans.iter().zip(&tl.spans) {
        assert_eq!(got.get("name").and_then(Value::as_str), Some(want.name));
        assert_eq!(
            got.get("start_ns").and_then(Value::as_f64),
            Some(want.start_ns as f64)
        );
        assert_eq!(
            got.get("dur_ns").and_then(Value::as_f64),
            Some(want.dur_ns as f64)
        );
        // tags survive with their values; spot-check the step index
        if let Some(step) = want.tag_i64("step") {
            let tags = got.get("tags").and_then(Value::as_object).expect("tags");
            let round_tripped = tags
                .iter()
                .find(|(k, _)| k.as_str() == "step")
                .and_then(|(_, v)| v.as_f64());
            assert_eq!(round_tripped, Some(step as f64));
        }
    }
}

#[test]
fn chrome_export_is_a_valid_trace_event_array() {
    let (tracer, _, _) = traced_run(8 * 1024);
    let tl = tracer.timeline();
    let doc = Value::parse(&tl.to_chrome_trace_string()).expect("chrome export parses");
    let events = doc.as_array().expect("trace-event array");
    // spans + events as X/i records, plus "M" metadata records (lane
    // names and the always-present dropped_records count)
    let data_events = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
        .count();
    assert_eq!(data_events, tl.spans.len() + tl.events.len());
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Value::as_str) == Some("dropped_records")));
    let mut step_events: Vec<(f64, f64)> = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("phase");
        assert!(ph == "X" || ph == "i" || ph == "M");
        if ph == "M" {
            continue;
        }
        assert!(e.get("ts").and_then(Value::as_f64).is_some());
        if ph == "X" && e.get("name").and_then(Value::as_str) == Some(SPAN_STEP) {
            step_events.push((
                e.get("ts").and_then(Value::as_f64).unwrap(),
                e.get("dur").and_then(Value::as_f64).unwrap(),
            ));
        }
    }
    // step spans: one per step, monotonic and non-overlapping in the
    // microsecond timeline the chrome viewer renders
    assert_eq!(step_events.len(), STEPS);
    step_events.sort_by(|a, b| a.0.total_cmp(&b.0));
    for w in step_events.windows(2) {
        assert!(
            w[1].0 >= w[0].0 + w[0].1,
            "step spans overlap in the chrome export: {w:?}"
        );
    }
}

#[test]
fn drift_report_predicted_series_matches_certify_bitwise() {
    let (tracer, schedule, problem) = traced_run(8 * 1024);
    let tl = tracer.timeline();
    let drift = attribute(&problem, &schedule, &tl).expect("drift report");
    let series = certify::replay_time_series(&problem, &schedule).expect("exact replay");
    assert_eq!(drift.per_step.len(), STEPS);
    assert_eq!(series.len(), STEPS + 1);
    for d in &drift.per_step {
        assert_eq!(
            d.predicted_cum.to_bits(),
            series[d.step].to_f64().to_bits(),
            "model-side divergence at step {}",
            d.step
        );
    }
    assert_eq!(
        drift.predicted_total.to_bits(),
        series.last().unwrap().to_f64().to_bits()
    );
    // measured side is real wall-clock: positive and finite
    for d in &drift.per_step {
        assert!(d.measured_cum.is_finite() && d.measured_cum > 0.0);
    }
}

#[test]
fn overflowing_run_reports_exact_drop_count_without_reallocating() {
    // reference run with ample capacity establishes how many records an
    // identical run emits (span structure is deterministic)
    let (full, _, _) = traced_run(8 * 1024);
    let full_tl = full.timeline();
    assert_eq!(full_tl.dropped, 0);
    let total = full_tl.spans.len() + full_tl.events.len();

    let capacity = 16;
    assert!(total > capacity, "test needs an overflowing run");
    let (tiny, _, _) = traced_run(capacity);
    assert_eq!(tiny.ring_allocated(), capacity, "ring must never grow");
    assert_eq!(
        tiny.dropped(),
        (total - capacity) as u64,
        "drop counter must account for every record that did not fit"
    );
    let tiny_tl = tiny.timeline();
    assert_eq!(tiny_tl.spans.len() + tiny_tl.events.len(), capacity);
    assert_eq!(tiny_tl.dropped, (total - capacity) as u64);
    // the truncated timeline still validates (dangling parents are
    // expected and allowed once records have been dropped)
    tiny_tl.validate().expect("truncated timeline still validates");
    // and every surviving child span still carries its own step tag, so
    // attribution keeps working under overload
    for s in tiny_tl.spans_named(insitu_core::runtime::SPAN_ANALYSIS_ANALYZE) {
        assert!(s.tag_i64("step").is_some());
    }
}

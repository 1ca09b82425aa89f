//! JSON round-trips: profiles measured on one machine can be stored and
//! re-used as a profiling database for later scheduling runs.

use insitu_types::json;
use insitu_types::{AnalysisProfile, ResourceConfig, Schedule, ScheduleProblem};

fn sample_problem() -> ScheduleProblem {
    ScheduleProblem::new(
        vec![
            AnalysisProfile::new("rdf (A1)")
                .with_compute(0.07, 1e8)
                .with_output(0.005, 1e7, 1)
                .with_interval(100),
            AnalysisProfile::new("msd (A4)")
                .with_fixed(0.5, 1e9)
                .with_per_step(0.001, 1e6)
                .with_compute(25.0, 2e9)
                .with_output(5.0, 5e8, 2)
                .with_weight(2.0)
                .with_interval(100),
        ],
        ResourceConfig::from_total_threshold(1000, 64.7, 1e12, 1e9),
    )
    .unwrap()
}

#[test]
fn problem_round_trips_through_json() {
    let p = sample_problem();
    let text = json::to_string_pretty(&p);
    assert!(text.contains("msd (A4)"));
    assert!(text.contains("compute_time"));
    let back: ScheduleProblem = json::from_str(&text).unwrap();
    assert_eq!(back, p);
    assert!(back.validate().is_ok());
}

#[test]
fn schedule_round_trips_through_json() {
    let mut s = Schedule::empty(2);
    s.per_analysis[0] = insitu_types::AnalysisSchedule::new(vec![100, 200, 300], vec![300]);
    let text = json::to_string(&s);
    let back: Schedule = json::from_str(&text).unwrap();
    assert_eq!(back, s);
    assert_eq!(back.per_analysis[0].count(), 3);

    // a hand-edited document: steps out of order and repeated decode to the
    // sets `AnalysisSchedule::new` makes of them, and re-encode sorted
    let edited = r#"{"per_analysis": [
        {"analysis_steps": [300, 100, 200, 100], "output_steps": [300, 300]},
        {"analysis_steps": [7, 7], "output_steps": []}
    ]}"#;
    let back: Schedule = json::from_str(edited).unwrap();
    let mut sets = s.clone();
    sets.per_analysis[1] = insitu_types::AnalysisSchedule::new(vec![7], vec![]);
    assert_eq!(back, sets);
    assert_eq!(back.per_analysis[0].analysis_steps(), [100, 200, 300]);
    assert_eq!(back.per_analysis[0].output_steps(), [300]);
    assert_eq!(
        json::to_string(&back),
        r#"{"per_analysis":[{"analysis_steps":[100,200,300],"output_steps":[300]},{"analysis_steps":[7],"output_steps":[]}]}"#
    );
}

#[test]
fn profile_fields_preserve_table1_names_in_code() {
    // guard: the serialized field names stay stable for external tooling
    let a = AnalysisProfile::new("x").with_compute(1.0, 2.0);
    let text = json::to_string(&a);
    for field in [
        "fixed_time",
        "step_time",
        "compute_time",
        "output_time",
        "fixed_mem",
        "step_mem",
        "compute_mem",
        "output_mem",
        "weight",
        "min_interval",
        "output_every",
    ] {
        assert!(text.contains(field), "missing field {field}: {text}");
    }
}

#[test]
fn malformed_json_is_rejected_with_context() {
    let err = json::from_str::<ScheduleProblem>("{\"analyses\": []}").unwrap_err();
    assert!(err.to_string().contains("resources"), "{err}");
    assert!(json::from_str::<Schedule>("[1,2,3]").is_err());
    assert!(json::from_str::<AnalysisProfile>("{").is_err());
}

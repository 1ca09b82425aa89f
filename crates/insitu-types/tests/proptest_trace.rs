//! Property tests on the Figure-1 coupling-trace notation and schedules.

use insitu_types::{AnalysisSchedule, CouplingTrace, Schedule};
use proptest::prelude::*;

/// Random schedules over up to 4 analyses and up to 40 steps.
fn arb_schedule() -> impl Strategy<Value = (Schedule, usize)> {
    (1usize..5, 5usize..40).prop_flat_map(|(n, steps)| {
        let per = prop::collection::vec(
            (
                prop::collection::vec(1..=steps, 0..8),
                prop::collection::vec(any::<bool>(), 8),
            ),
            n,
        );
        per.prop_map(move |entries| {
            let mut s = Schedule::empty(n);
            for (i, (asteps, oflags)) in entries.into_iter().enumerate() {
                let outputs: Vec<usize> = asteps
                    .iter()
                    .zip(&oflags)
                    .filter(|&(_, &o)| o)
                    .map(|(&j, _)| j)
                    .collect();
                s.per_analysis[i] = AnalysisSchedule::new(asteps, outputs);
            }
            (s, steps)
        })
    })
}

proptest! {
    #[test]
    fn trace_round_trips((schedule, steps) in arb_schedule(), sim_out in 0usize..7) {
        let trace = CouplingTrace::from_schedule(&schedule, steps, sim_out);
        prop_assert_eq!(trace.sim_steps(), steps);
        let text = trace.render();
        let parsed = CouplingTrace::parse(&text).unwrap();
        prop_assert_eq!(&parsed, &trace);
        let back = parsed.to_schedule(schedule.per_analysis.len());
        prop_assert_eq!(back, schedule);
    }

    #[test]
    fn schedules_are_canonical((schedule, _steps) in arb_schedule()) {
        for s in &schedule.per_analysis {
            // sorted and deduplicated
            prop_assert!(s.analysis_steps().windows(2).all(|w| w[0] < w[1]));
            prop_assert!(s.output_steps().windows(2).all(|w| w[0] < w[1]));
            // outputs are a subset of analysis steps by construction here
            for &o in s.output_steps() {
                prop_assert!(s.runs_at(o));
            }
            // min_gap consistent with the raw list
            if let Some(g) = s.min_gap() {
                prop_assert!(g >= 1);
                prop_assert!(s.analysis_steps().windows(2).any(|w| w[1] - w[0] == g));
            }
        }
    }

    #[test]
    fn active_set_matches_counts((schedule, _steps) in arb_schedule()) {
        let active = schedule.active();
        for (i, s) in schedule.per_analysis.iter().enumerate() {
            prop_assert_eq!(active.contains(&i), s.count() > 0);
        }
    }
}

//! The Figure-1 coupling-trace notation.
//!
//! The paper illustrates a schedule as a string over the alphabet
//! `S` (simulation step), `Os` (simulation output), `A` (analysis step) and
//! `Oa` (analysis output):
//!
//! ```text
//! S S S S A Oa S S S A Oa S S Os S S A S S S Os S A Oa S S S
//! ```
//!
//! [`CouplingTrace`] renders a [`Schedule`] in this notation and parses it
//! back, which gives tests a compact, human-auditable fixture format.

use crate::error::TypeError;
use crate::schedule::{AnalysisSchedule, Schedule};

/// One event in the coupling trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A simulation time step.
    Sim,
    /// Simulation writes its own output (`O_S`).
    SimOutput,
    /// Analysis `i` runs (`A`).
    Analysis(usize),
    /// Analysis `i` writes output (`O_A`).
    AnalysisOutput(usize),
}

/// A linearized schedule: the exact sequence of simulation / analysis /
/// output events, in execution order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CouplingTrace {
    /// Events in execution order.
    pub events: Vec<StepEvent>,
}

impl CouplingTrace {
    /// Linearizes a [`Schedule`] over `steps` simulation steps, with the
    /// simulation itself writing output every `sim_output_every` steps
    /// (`0` = never). After each simulation step the events are ordered:
    /// simulation output first, then for each analysis (in index order) its
    /// analysis event followed by its output event.
    pub fn from_schedule(schedule: &Schedule, steps: usize, sim_output_every: usize) -> Self {
        let mut events = Vec::with_capacity(steps + steps / 4);
        for j in 1..=steps {
            events.push(StepEvent::Sim);
            if sim_output_every > 0 && j % sim_output_every == 0 {
                events.push(StepEvent::SimOutput);
            }
            for (i, s) in schedule.per_analysis.iter().enumerate() {
                if s.runs_at(j) {
                    events.push(StepEvent::Analysis(i));
                    if s.outputs_at(j) {
                        events.push(StepEvent::AnalysisOutput(i));
                    }
                }
            }
        }
        CouplingTrace { events }
    }

    /// Reconstructs the per-analysis schedule from the event stream.
    /// `n` is the number of candidate analyses.
    pub fn to_schedule(&self, n: usize) -> Schedule {
        let mut analysis_steps = vec![Vec::new(); n];
        let mut output_steps = vec![Vec::new(); n];
        let mut j = 0usize;
        for e in &self.events {
            match *e {
                StepEvent::Sim => j += 1,
                StepEvent::SimOutput => {}
                StepEvent::Analysis(i) => analysis_steps[i].push(j),
                StepEvent::AnalysisOutput(i) => output_steps[i].push(j),
            }
        }
        Schedule {
            per_analysis: analysis_steps
                .into_iter()
                .zip(output_steps)
                .map(|(a, o)| AnalysisSchedule::new(a, o))
                .collect(),
        }
    }

    /// Number of simulation steps in the trace.
    pub fn sim_steps(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, StepEvent::Sim))
            .count()
    }

    /// Renders the Figure-1 string. Analyses are numbered when there is more
    /// than one: `A1 Oa1 ...`; a single analysis prints bare `A Oa`.
    pub fn render(&self) -> String {
        let multi = self
            .events
            .iter()
            .any(|e| matches!(e, StepEvent::Analysis(i) | StepEvent::AnalysisOutput(i) if *i > 0));
        let mut parts = Vec::with_capacity(self.events.len());
        for e in &self.events {
            parts.push(match *e {
                StepEvent::Sim => "S".to_string(),
                StepEvent::SimOutput => "Os".to_string(),
                StepEvent::Analysis(i) => {
                    if multi {
                        format!("A{}", i + 1)
                    } else {
                        "A".to_string()
                    }
                }
                StepEvent::AnalysisOutput(i) => {
                    if multi {
                        format!("Oa{}", i + 1)
                    } else {
                        "Oa".to_string()
                    }
                }
            });
        }
        parts.join(" ")
    }

    /// Parses a trace rendered by [`CouplingTrace::render`]. Bare `A` / `Oa`
    /// tokens refer to analysis 0.
    pub fn parse(text: &str) -> Result<Self, TypeError> {
        let mut events = Vec::new();
        for tok in text.split_whitespace() {
            let e = if tok == "S" {
                StepEvent::Sim
            } else if tok == "Os" {
                StepEvent::SimOutput
            } else if let Some(rest) = tok.strip_prefix("Oa") {
                let i = if rest.is_empty() {
                    0
                } else {
                    rest.parse::<usize>()
                        .map_err(|_| TypeError::TraceParse(format!("bad token `{tok}`")))?
                        .checked_sub(1)
                        .ok_or_else(|| TypeError::TraceParse(format!("bad token `{tok}`")))?
                };
                StepEvent::AnalysisOutput(i)
            } else if let Some(rest) = tok.strip_prefix('A') {
                let i = if rest.is_empty() {
                    0
                } else {
                    rest.parse::<usize>()
                        .map_err(|_| TypeError::TraceParse(format!("bad token `{tok}`")))?
                        .checked_sub(1)
                        .ok_or_else(|| TypeError::TraceParse(format!("bad token `{tok}`")))?
                };
                StepEvent::Analysis(i)
            } else {
                return Err(TypeError::TraceParse(format!("unknown token `{tok}`")));
            };
            events.push(e);
        }
        Ok(CouplingTrace { events })
    }
}

impl std::fmt::Display for CouplingTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure-1 caption: analysis every 4 simulation steps, analysis
    /// output every 2 analysis steps, simulation output every 5 steps.
    fn figure1_schedule() -> Schedule {
        let mut s = Schedule::empty(1);
        s.per_analysis[0] =
            AnalysisSchedule::new(vec![4, 8, 12, 16, 20], vec![8, 16]);
        s
    }

    #[test]
    fn figure1_trace_renders_expected_pattern() {
        let trace = CouplingTrace::from_schedule(&figure1_schedule(), 20, 5);
        let s = trace.render();
        assert!(s.starts_with("S S S S A S Os"));
        // analysis output appears exactly at the 2nd and 4th analyses
        assert_eq!(s.matches("Oa").count(), 2);
        assert_eq!(s.matches('A').count(), 5);
        assert_eq!(trace.sim_steps(), 20);
    }

    #[test]
    fn round_trip_through_text() {
        let sched = figure1_schedule();
        let trace = CouplingTrace::from_schedule(&sched, 20, 5);
        let parsed = CouplingTrace::parse(&trace.render()).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_schedule(1), sched);
    }

    #[test]
    fn multi_analysis_tokens_are_numbered() {
        let mut sched = Schedule::empty(2);
        sched.per_analysis[0] = AnalysisSchedule::new(vec![2], vec![2]);
        sched.per_analysis[1] = AnalysisSchedule::new(vec![3], vec![]);
        let trace = CouplingTrace::from_schedule(&sched, 3, 0);
        let s = trace.render();
        assert_eq!(s, "S S A1 Oa1 S A2");
        let back = CouplingTrace::parse(&s).unwrap().to_schedule(2);
        assert_eq!(back, sched);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CouplingTrace::parse("S S X").is_err());
        assert!(CouplingTrace::parse("A0").is_err());
        assert!(CouplingTrace::parse("Aq").is_err());
    }

    #[test]
    fn sim_output_events_do_not_advance_analysis_steps() {
        let trace = CouplingTrace::parse("S Os S A").unwrap();
        let sched = trace.to_schedule(1);
        assert_eq!(sched.per_analysis[0].analysis_steps(), vec![2]);
    }
}

//! Placement: turning optimal counts into concrete schedule steps.
//!
//! Analysis steps are spread evenly: the `t`-th of `k` analyses lands on
//! step `⌊t·Steps/k⌋`. Standard floor arithmetic guarantees every gap is at
//! least `⌊Steps/k⌋ >= itv` (because the aggregate model capped
//! `k <= ⌊Steps/itv⌋`), the first analysis happens only after `itv` steps,
//! and the last analysis lands exactly on the final step — so accumulated
//! analysis memory is always flushed before the run ends when outputs are
//! requested. Outputs take every `⌈k/q⌉`-ish analysis slot, always
//! including the last.

use insitu_types::{AnalysisSchedule, Schedule, ScheduleProblem};

/// Evenly spaced 1-based analysis positions for `k` analyses in `steps`.
pub fn analysis_positions(steps: usize, k: usize) -> Vec<usize> {
    (1..=k).map(|t| t * steps / k).collect()
}

/// The subset of `positions` used for `q` outputs: analysis indices
/// `⌊u·k/q⌋` for `u = 1..=q` (so the final analysis always outputs).
pub fn output_positions(positions: &[usize], q: usize) -> Vec<usize> {
    let k = positions.len();
    if q == 0 || k == 0 {
        return Vec::new();
    }
    let q = q.min(k);
    let mut out: Vec<usize> = (1..=q).map(|u| positions[u * k / q - 1]).collect();
    out.dedup();
    out
}

/// Exact peak memory of analysis `i` under even placement with counts
/// `(k, q)`, by simulating the Eq. 5–7 recursion step by step.
pub fn exact_peak_memory(problem: &ScheduleProblem, i: usize, k: usize, q: usize) -> f64 {
    let a = &problem.analyses[i];
    let steps = problem.resources.steps;
    if k == 0 {
        return 0.0;
    }
    let positions = analysis_positions(steps, k);
    let outputs = output_positions(&positions, q);
    let mut next_a = 0usize;
    let mut next_o = 0usize;
    let mut mem = a.fixed_mem; // mEnd_{i,0} = fm (Eq. 7)
    let mut peak = mem;
    for j in 1..=steps {
        mem += a.step_mem; // im, every step (Eq. 5)
        let is_analysis = next_a < positions.len() && positions[next_a] == j;
        let is_output = next_o < outputs.len() && outputs[next_o] == j;
        if is_analysis {
            mem += a.compute_mem;
            next_a += 1;
        }
        if is_output {
            mem += a.output_mem;
            next_o += 1;
        }
        peak = peak.max(mem); // mStart_{i,j}
        if is_output {
            mem = a.fixed_mem; // reset (Eq. 6)
        }
    }
    peak
}

/// Places all analyses' counts into a [`Schedule`].
pub fn place_schedule(
    problem: &ScheduleProblem,
    counts: &[usize],
    output_counts: &[usize],
) -> Schedule {
    let steps = problem.resources.steps;
    let mut schedule = Schedule::empty(problem.len());
    for i in 0..problem.len() {
        let k = counts[i];
        if k == 0 {
            continue;
        }
        let positions = analysis_positions(steps, k);
        let outputs = output_positions(&positions, output_counts[i]);
        schedule.per_analysis[i] = AnalysisSchedule::new(positions, outputs);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::{AnalysisProfile, ResourceConfig};

    #[test]
    fn positions_are_even_and_end_on_last_step() {
        let p = analysis_positions(1000, 10);
        assert_eq!(p, vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]);
        let p = analysis_positions(10, 3);
        assert_eq!(p, vec![3, 6, 10]);
    }

    #[test]
    fn gaps_at_least_floor_steps_over_k() {
        for steps in [10usize, 97, 1000] {
            for k in 1..=10 {
                let p = analysis_positions(steps, k);
                let floor = steps / k;
                let mut last = 0;
                for &j in &p {
                    assert!(j - last >= floor, "steps={steps} k={k}: gap {} < {floor}", j - last);
                    last = j;
                }
                assert_eq!(*p.last().unwrap(), steps);
            }
        }
    }

    #[test]
    fn outputs_include_last_analysis() {
        let pos = analysis_positions(1000, 10);
        for q in 1..=10 {
            let o = output_positions(&pos, q);
            assert_eq!(*o.last().unwrap(), 1000, "q={q}");
            assert!(o.len() <= q);
            assert!(o.iter().all(|j| pos.contains(j)));
        }
        assert!(output_positions(&pos, 0).is_empty());
    }

    #[test]
    fn oversized_q_clamps_to_k() {
        let pos = analysis_positions(100, 4);
        let o = output_positions(&pos, 99);
        assert_eq!(o, pos);
    }

    fn mem_problem() -> ScheduleProblem {
        ScheduleProblem::new(
            vec![AnalysisProfile::new("x")
                .with_fixed(0.0, 10.0)
                .with_per_step(0.0, 2.0)
                .with_compute(0.0, 5.0)
                .with_output(0.0, 3.0, 1)
                .with_interval(1)],
            ResourceConfig::from_total_threshold(100, 1.0, 1e9, 1e9),
        )
        .unwrap()
    }

    #[test]
    fn peak_memory_simulation() {
        let p = mem_problem();
        // no runs: zero
        assert_eq!(exact_peak_memory(&p, 0, 0, 0), 0.0);
        // k=5, no outputs: fm + im*100, plus the cm buffers of all five
        // analysis steps (only outputs free memory, Eq. 6)
        assert_eq!(exact_peak_memory(&p, 0, 5, 0), 10.0 + 200.0 + 25.0);
        // k=4, q=4: resets every 25 steps; peak at an output step
        assert_eq!(exact_peak_memory(&p, 0, 4, 4), 10.0 + 50.0 + 5.0 + 3.0);
        // more outputs => lower peak
        assert!(exact_peak_memory(&p, 0, 10, 10) < exact_peak_memory(&p, 0, 10, 2));
    }

    #[test]
    fn schedule_placement_round_trip() {
        let p = mem_problem();
        let s = place_schedule(&p, &[4], &[2]);
        assert_eq!(s.per_analysis[0].count(), 4);
        assert_eq!(s.per_analysis[0].output_count(), 2);
        assert!(crate::validate_schedule(&p, &s).is_feasible());
        let s0 = place_schedule(&p, &[0], &[0]);
        assert_eq!(s0.per_analysis[0].count(), 0);
    }

    #[test]
    fn first_analysis_respects_interval() {
        // k = kmax = steps/itv: first position is exactly itv
        let steps = 1000;
        let itv = 100;
        let k = steps / itv;
        let pos = analysis_positions(steps, k);
        assert_eq!(pos[0], itv);
    }
}

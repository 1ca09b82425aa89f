//! The untimed output check: nothing a workload reports counts unless the
//! schedules behind it replay feasible against the instance they answer.

use insitu_types::json;
use insitu_types::{Schedule, ScheduleProblem, ServiceResponse};

/// Parses a `service/v1` reply; an `error` object is a failed operation.
pub fn parse_reply(text: &str) -> Result<ServiceResponse, String> {
    json::from_str::<ServiceResponse>(text).map_err(|e| {
        let shown: String = text.chars().take(160).collect();
        format!("not a service/v1 response ({e}): {shown}")
    })
}

/// Replays `schedule` against `problem` in exact rationals and checks it is
/// feasible and worth exactly `claimed` (Eq. 1).
pub fn check_schedule(
    problem: &ScheduleProblem,
    schedule: &Schedule,
    claimed: f64,
) -> Result<(), String> {
    if schedule.per_analysis.len() != problem.len() {
        return Err(format!(
            "schedule covers {} analyses, the instance has {}",
            schedule.per_analysis.len(),
            problem.len()
        ));
    }
    let report = certify::replay(problem, schedule).map_err(|e| format!("replay: {e:?}"))?;
    if !report.is_feasible() {
        return Err(format!("infeasible: {}", report.messages().join("; ")));
    }
    let replayed = report.objective.to_f64();
    if replayed != claimed {
        return Err(format!("claims objective {claimed}, replays to {replayed}"));
    }
    Ok(())
}

/// Largest number of count vectors [`count_oracle`] will enumerate.
const ORACLE_POINTS: usize = 2_000_000;

/// Optimal Eq. 1 objective of a *small* instance by enumerating analysis
/// counts — independent of `milp`, `insitu-core` and `certify`.
///
/// Applies when every analysis outputs at each of its runs
/// (`output_every == 1`, so `q = k` and nothing accumulates), has no fixed
/// or per-step cost, and memory cannot bind even with everything active.
/// Then a count vector `k` is feasible iff `Σ k_i (ct_i + ot_i) ≤ cth·Steps`
/// and `k_i ≤ ⌊Steps/itv_i⌋` (even placement realizes it), and the objective
/// is `Σ_{k_i>0} (1 + w_i k_i)`. With dyadic costs the sums are exact.
/// `None` when the instance is outside that class or too large.
/// (`milp::brute` enumerates every variable of the aggregate model, whose
/// unary expansions put even a 2-analysis, 240-step instance far beyond
/// reach; counts are the model's real degrees of freedom.)
pub fn count_oracle(problem: &ScheduleProblem) -> Option<f64> {
    let steps = problem.resources.steps;
    let mut items: Vec<(usize, f64, f64)> = Vec::new(); // (kmax, cost, weight)
    let mut worst_mem = 0.0;
    for a in &problem.analyses {
        if a.output_every != 1 || a.fixed_time != 0.0 || a.step_time != 0.0 || a.step_mem != 0.0 {
            return None;
        }
        worst_mem += a.fixed_mem + a.compute_mem + a.output_mem;
        items.push((
            a.max_analysis_steps(steps),
            a.compute_time + a.output_time,
            a.weight,
        ));
    }
    if worst_mem > problem.resources.mem_threshold || items.is_empty() {
        return None;
    }
    // the analysis with the most allowed runs is settled in closed form
    items.sort_by_key(|&(kmax, _, _)| kmax);
    let looped: usize = items[..items.len() - 1]
        .iter()
        .map(|&(kmax, _, _)| kmax + 1)
        .product();
    if looped > ORACLE_POINTS {
        return None;
    }
    fn best(items: &[(usize, f64, f64)], budget: f64) -> f64 {
        let (kmax, cost, weight) = items[0];
        let value = |k: usize| if k == 0 { 0.0 } else { 1.0 + weight * k as f64 };
        if items.len() == 1 {
            let k = if cost > 0.0 {
                ((budget / cost).floor() as usize).min(kmax)
            } else {
                kmax
            };
            return value(k);
        }
        let mut top = 0.0f64;
        for k in 0..=kmax {
            let left = budget - k as f64 * cost;
            if left < 0.0 {
                break;
            }
            top = top.max(value(k) + best(&items[1..], left));
        }
        top
    }
    Some(best(&items, problem.resources.total_threshold()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::rng::Rng;
    use insitu_core::advisor::{Advisor, AdvisorOptions};

    #[test]
    fn oracle_agrees_with_the_solver_on_small_service_instances() {
        let advisor = Advisor::new(AdvisorOptions::default());
        let mut rng = Rng::derive(42, 0);
        let mut checked = 0;
        for t in 0..gen::TEMPLATES {
            let p = gen::service_instance(t, &mut rng);
            let Some(best) = count_oracle(&p) else {
                continue;
            };
            let rec = advisor.recommend(&p).expect("solvable");
            assert_eq!(rec.objective, best, "template {t}");
            check_schedule(&p, &rec.schedule, rec.objective).expect("replays");
            checked += 1;
        }
        assert!(checked >= 20, "oracle covered only {checked} templates");
    }

    #[test]
    fn a_wrong_objective_or_an_overspent_budget_is_rejected() {
        let p = gen::service_instance(3, &mut Rng::derive(1, 0));
        let rec = Advisor::new(AdvisorOptions::default())
            .recommend(&p)
            .unwrap();
        assert!(check_schedule(&p, &rec.schedule, rec.objective + 0.5).is_err());
        let mut tight = p.clone();
        tight.resources.step_threshold /= 4.0;
        assert!(check_schedule(&tight, &rec.schedule, rec.objective).is_err());
    }
}

//! Canonical instance form: order-independent normalization of a
//! [`ScheduleProblem`].
//!
//! Two users submitting the same analyses in a different order describe
//! the *same* optimization instance — Eq. 1's objective and Eqs. 2–9's
//! constraints are sums over the analysis set, so nothing about the
//! problem depends on list position. The serving tier exploits this:
//! every instance is rewritten into its canonical form (analyses sorted
//! by name — names are unique per [`ScheduleProblem::validate`], so the
//! order is total and deterministic) before fingerprinting, caching, or
//! solving, and results are permuted back into the requester's order on
//! the way out.
//!
//! The permutation returned by [`canonicalize`] is the bridge: `perm[c]`
//! is the requester-order index of the `c`-th canonical analysis, and
//! [`to_canonical`]/[`from_canonical`] move any per-analysis vector
//! (schedules, counts) across it.

use crate::problem::ScheduleProblem;
use crate::schedule::Schedule;

/// The permutation that sorts `problem.analyses` by name: `perm[c]` is
/// the original index of the `c`-th analysis in canonical order. The
/// sort is stable, so duplicate names (rejected by validation, but
/// representable) still produce a deterministic order.
pub fn canonical_order(problem: &ScheduleProblem) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..problem.len()).collect();
    perm.sort_by(|&a, &b| problem.analyses[a].name.cmp(&problem.analyses[b].name));
    perm
}

/// Rewrites the problem into canonical form and returns it together with
/// the permutation mapping canonical indices back to the original order
/// (see [`canonical_order`]).
///
/// # Examples
///
/// ```
/// use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};
/// use insitu_types::canonical::{canonicalize, from_canonical};
/// let p = ScheduleProblem::new(
///     vec![AnalysisProfile::new("msd"), AnalysisProfile::new("rdf")],
///     ResourceConfig::default(),
/// ).unwrap();
/// let q = ScheduleProblem::new(
///     vec![AnalysisProfile::new("rdf"), AnalysisProfile::new("msd")],
///     ResourceConfig::default(),
/// ).unwrap();
/// let (cp, perm_p) = canonicalize(&p);
/// let (cq, perm_q) = canonicalize(&q);
/// assert_eq!(cp, cq);                       // same instance, one canonical form
/// assert_eq!(from_canonical(&[10, 20], &perm_p), vec![10, 20]);
/// assert_eq!(from_canonical(&[10, 20], &perm_q), vec![20, 10]);
/// ```
pub fn canonicalize(problem: &ScheduleProblem) -> (ScheduleProblem, Vec<usize>) {
    let perm = canonical_order(problem);
    let analyses = perm.iter().map(|&i| problem.analyses[i].clone()).collect();
    (
        ScheduleProblem {
            analyses,
            resources: problem.resources.clone(),
        },
        perm,
    )
}

/// Permutes a per-analysis vector from the original order into canonical
/// order: `out[c] = items[perm[c]]`.
pub fn to_canonical<T: Clone>(items: &[T], perm: &[usize]) -> Vec<T> {
    perm.iter().map(|&i| items[i].clone()).collect()
}

/// Permutes a per-analysis vector from canonical order back into the
/// original order: `out[perm[c]] = items[c]`. Inverse of [`to_canonical`].
pub fn from_canonical<T: Clone + Default>(items: &[T], perm: &[usize]) -> Vec<T> {
    let mut out = vec![T::default(); items.len()];
    for (c, &i) in perm.iter().enumerate() {
        out[i] = items[c].clone();
    }
    out
}

/// [`to_canonical`] for a full [`Schedule`].
pub fn to_canonical_schedule(schedule: &Schedule, perm: &[usize]) -> Schedule {
    Schedule {
        per_analysis: to_canonical(&schedule.per_analysis, perm),
    }
}

/// [`from_canonical`] for a full [`Schedule`].
pub fn from_canonical_schedule(schedule: &Schedule, perm: &[usize]) -> Schedule {
    Schedule {
        per_analysis: from_canonical(&schedule.per_analysis, perm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AnalysisProfile;
    use crate::resources::ResourceConfig;
    use crate::schedule::AnalysisSchedule;

    fn problem(names: &[&str]) -> ScheduleProblem {
        ScheduleProblem::new(
            names.iter().map(|n| AnalysisProfile::new(*n)).collect(),
            ResourceConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn canonical_form_is_name_sorted_and_order_independent() {
        let p = problem(&["c", "a", "b"]);
        let (cp, perm) = canonicalize(&p);
        let names: Vec<&str> = cp.analyses.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(perm, vec![1, 2, 0]);
        let q = problem(&["a", "b", "c"]);
        let (cq, perm_q) = canonicalize(&q);
        assert_eq!(cp, cq);
        assert_eq!(perm_q, vec![0, 1, 2]);
    }

    #[test]
    fn permutation_round_trips_vectors_and_schedules() {
        let p = problem(&["c", "a", "b"]);
        let perm = canonical_order(&p);
        let counts = vec![3usize, 1, 2];
        let canon = to_canonical(&counts, &perm);
        assert_eq!(canon, vec![1, 2, 3]); // a's, b's, c's count
        assert_eq!(from_canonical(&canon, &perm), counts);

        let mut sched = Schedule::empty(3);
        sched.per_analysis[0] = AnalysisSchedule::new(vec![10], vec![10]);
        sched.per_analysis[2] = AnalysisSchedule::new(vec![5, 9], vec![]);
        let canon = to_canonical_schedule(&sched, &perm);
        assert_eq!(canon.per_analysis[2], sched.per_analysis[0]); // "c" is last
        assert_eq!(from_canonical_schedule(&canon, &perm), sched);
    }

    #[test]
    fn empty_problem_is_canonical() {
        let p = problem(&[]);
        let (cp, perm) = canonicalize(&p);
        assert!(cp.is_empty() && perm.is_empty());
    }
}

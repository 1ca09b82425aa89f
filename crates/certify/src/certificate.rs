//! Branch-and-bound pruning-certificate verification.
//!
//! A [`SearchCertificate`] is the solver's claim that its search tree was
//! *closed*: every node was either branched on (and both children are in
//! the log), integral (and no better than the claimed optimum), pruned by
//! bound (its LP relaxation could not beat the optimum within `abs_gap`),
//! or pruned as infeasible. This module re-checks the closure structure
//! and every bound inequality without any solver code.
//!
//! # Trust model
//!
//! The checks here are *structural*: the LP bound attached to each node
//! and the infeasibility claims are attested by the solver (re-deriving
//! them would require re-solving the LPs, i.e. trusting a second solver).
//! What the checker does establish is that **if** every recorded LP bound
//! is a valid relaxation bound, **then** no leaf of the tree can hide a
//! solution better than `objective + abs_gap`. Combined with the exact
//! feasibility replay of [`crate::replay()`], a PROVED verdict means: the
//! schedule is feasible beyond doubt, and optimality rests only on the
//! LP bounds, not on any branching or bookkeeping logic. See
//! `docs/CERTIFY.md` for the full argument.

use crate::rational::{Rat, RatError};
use insitu_types::{CutProof, GomoryVar, NodeOutcome, SearchCertificate};
use std::collections::BTreeMap;

/// Absolute slack allowed on solver-attested f64 bounds. This does *not*
/// loosen feasibility (which is checked exactly in rationals); it only
/// absorbs representation noise in the recorded LP objectives.
pub const BOUND_TOL: f64 = 1e-6;

/// A [`SearchCertificate`] whose requester-independent half has been
/// checked: the tree closes, bounds are monotone, every [`CutProof`]
/// re-derives exactly, and the solver claimed proven optimality.
///
/// None of that depends on who asks — it is a pure function of the
/// certificate value — so it is decided once, in [`CheckedCertificate::check`],
/// the only constructor. The field is private and access is read-only:
/// holding a `CheckedCertificate` *is* the evidence that the closure
/// checks passed on exactly these bytes. What still depends on the
/// requester (is the schedule feasible for *their* instance, does *their*
/// replayed Eq. 1 objective equal the certificate's claim) is
/// [`crate::certify_checked`]'s job, on every reply.
#[derive(Debug)]
pub struct CheckedCertificate {
    cert: SearchCertificate,
}

impl CheckedCertificate {
    /// Runs the closure checks and, when none fails, wraps `cert` as their
    /// witness. `Err` lists every problem found, exactly as
    /// [`crate::certify`] would report them.
    pub fn check(cert: SearchCertificate) -> Result<CheckedCertificate, Vec<String>> {
        let problems = optimality_problems(&cert);
        if problems.is_empty() {
            Ok(CheckedCertificate { cert })
        } else {
            Err(problems)
        }
    }

    /// The certificate the checks passed on.
    pub fn get(&self) -> &SearchCertificate {
        &self.cert
    }

    /// Gives the certificate back by value and the witness up: for a
    /// caller that is done certifying and reports the bare certificate.
    pub fn into_inner(self) -> SearchCertificate {
        self.cert
    }
}

/// Everything that keeps a certificate from proving optimality, whoever
/// asks: [`closure_problems`] plus the solver's own `proven_optimal` flag.
pub(crate) fn optimality_problems(cert: &SearchCertificate) -> Vec<String> {
    let mut problems = closure_problems(cert);
    if !cert.proven_optimal {
        problems.push("solver did not claim proven optimality".into());
    }
    problems
}

/// Puts the objective comparison in front of `problems`: `claimed` (a
/// certificate's objective) must equal `expected` (the exactly replayed
/// Eq. 1 objective) within [`BOUND_TOL`]. A non-finite claim is
/// [`closure_problems`]' to report.
pub(crate) fn with_objective_check(
    claimed: f64,
    expected: f64,
    mut problems: Vec<String>,
) -> Vec<String> {
    if claimed.is_finite() && (claimed - expected).abs() > BOUND_TOL {
        problems.insert(
            0,
            format!("certificate claims objective {claimed}, caller expected {expected}"),
        );
    }
    problems
}

/// The objective-independent checks of a pruning certificate: tree
/// closure, bound monotonicity and every cut proof. Depends on nothing but
/// `cert`; returns every problem found (empty = the tree closes).
fn closure_problems(cert: &SearchCertificate) -> Vec<String> {
    let mut problems = Vec::new();
    // sense-adjusted value: larger is better in both senses
    let adj = |x: f64| if cert.maximize { x } else { -x };

    if !cert.objective.is_finite() || !cert.dual_bound.is_finite() {
        problems.push("certificate objective/dual bound not finite".into());
        return problems;
    }
    if cert.nodes.is_empty() {
        problems.push("certificate has no nodes".into());
        return problems;
    }

    let mut by_id: BTreeMap<u64, &insitu_types::NodeCert> = BTreeMap::new();
    for n in &cert.nodes {
        if by_id.insert(n.id, n).is_some() {
            problems.push(format!("duplicate node id {}", n.id));
        }
        if !n.lp_bound.is_finite() {
            problems.push(format!("node {}: non-finite lp bound", n.id));
        }
    }

    // exactly one root, and its bound is the claimed dual bound
    let roots: Vec<_> = cert.nodes.iter().filter(|n| n.parent.is_none()).collect();
    if roots.len() != 1 {
        problems.push(format!("expected exactly one root, found {}", roots.len()));
    }
    if let Some(root) = roots.first() {
        if (root.lp_bound - cert.dual_bound).abs() > BOUND_TOL {
            problems.push(format!(
                "root bound {} disagrees with claimed dual bound {}",
                root.lp_bound, cert.dual_bound
            ));
        }
        // the optimum cannot beat the root relaxation
        if adj(cert.objective) > adj(root.lp_bound) + BOUND_TOL {
            problems.push(format!(
                "objective {} beats the root relaxation bound {}",
                cert.objective, root.lp_bound
            ));
        }
    }

    // parent links: resolve, point at Branched nodes, bounds monotone
    let mut child_count: BTreeMap<u64, usize> = BTreeMap::new();
    for n in &cert.nodes {
        if let Some(p) = n.parent {
            match by_id.get(&p) {
                None => problems.push(format!("node {}: dangling parent {p}", n.id)),
                Some(parent) => {
                    if !matches!(parent.outcome, NodeOutcome::Branched) {
                        problems.push(format!(
                            "node {}: parent {p} was not branched on",
                            n.id
                        ));
                    }
                    // a child's relaxation is tighter: its bound can only
                    // move away from the optimum, never toward it
                    if adj(n.lp_bound) > adj(parent.lp_bound) + BOUND_TOL {
                        problems.push(format!(
                            "node {}: bound {} improves on parent {} bound {}",
                            n.id, n.lp_bound, p, parent.lp_bound
                        ));
                    }
                }
            }
            *child_count.entry(p).or_insert(0) += 1;
        }
    }

    // per-node closure conditions
    for n in &cert.nodes {
        match n.outcome {
            NodeOutcome::Branched => {
                // binary branching on one variable: both sides must appear
                let c = child_count.get(&n.id).copied().unwrap_or(0);
                if c != 2 {
                    problems.push(format!(
                        "branched node {} has {c} recorded children, expected 2",
                        n.id
                    ));
                }
            }
            NodeOutcome::Integral { objective: leaf } => {
                if !leaf.is_finite() {
                    problems.push(format!("node {}: non-finite leaf objective", n.id));
                } else if adj(leaf) > adj(cert.objective) + BOUND_TOL {
                    problems.push(format!(
                        "integral leaf {} has objective {leaf}, better than claimed {}",
                        n.id, cert.objective
                    ));
                }
            }
            NodeOutcome::PrunedBound => {
                // prune is justified iff the subtree cannot beat the
                // optimum by more than the configured gap
                if adj(n.lp_bound) > adj(cert.objective) + cert.abs_gap + BOUND_TOL {
                    problems.push(format!(
                        "node {} pruned by bound {} which still beats objective {} + gap {}",
                        n.id, n.lp_bound, cert.objective, cert.abs_gap
                    ));
                }
            }
            // infeasibility is solver-attested; nothing structural to check
            NodeOutcome::PrunedInfeasible => {}
        }
    }

    if !cert.abs_gap.is_finite() || cert.abs_gap < 0.0 {
        problems.push(format!("invalid absolute gap {}", cert.abs_gap));
    }

    // every recorded cutting plane must carry a closing validity proof
    for (k, cut) in cert.cuts.iter().enumerate() {
        if let Err(why) = check_cut(cut) {
            problems.push(format!("cut {k}: {why}"));
        }
    }
    problems
}

fn rat(x: f64, what: &str) -> Result<Rat, String> {
    Rat::from_f64_exact(x).map_err(|e| format!("{what} {x} not exactly representable: {e:?}"))
}

fn overflow(what: &str) -> impl Fn(RatError) -> String + '_ {
    move |e| format!("rational arithmetic failed while {what}: {e:?}")
}

/// Re-derives one cut in exact `i128` rational arithmetic and verifies the
/// recorded cut is implied by the derivation. `Err` describes the first
/// failure; `Ok(())` means the cut is valid *conditional on its attested
/// source data* (base row / knapsack row, bounds, integrality flags) —
/// the same trust class as the per-node LP bounds.
fn check_cut(cut: &CutProof) -> Result<(), String> {
    match cut {
        CutProof::Cover { row, rhs, members } => check_cover(row, *rhs, members),
        CutProof::Gomory {
            vars,
            base_rhs,
            cut,
            cut_rhs,
        } => check_gomory(vars, *base_rhs, cut, *cut_rhs),
    }
}

/// A cover cut `Σ_{members} x ≤ |members| − 1` is valid when the members'
/// (positive) knapsack coefficients sum to strictly more than the row's
/// right-hand side: all members at 1 would violate the attested row.
fn check_cover(row: &[(usize, f64)], rhs: f64, members: &[usize]) -> Result<(), String> {
    if members.is_empty() {
        return Err("cover has no members".into());
    }
    let mut coeffs: BTreeMap<usize, Rat> = BTreeMap::new();
    for &(v, c) in row {
        if coeffs.insert(v, rat(c, "row coefficient")?).is_some() {
            return Err(format!("duplicate variable {v} in cover row"));
        }
    }
    let rhs = rat(rhs, "row rhs")?;
    let mut seen = std::collections::BTreeSet::new();
    let mut sum = Rat::ZERO;
    for &m in members {
        if !seen.insert(m) {
            return Err(format!("duplicate cover member {m}"));
        }
        let c = coeffs
            .get(&m)
            .ok_or_else(|| format!("cover member {m} not in the row"))?;
        if c.signum() <= 0 {
            return Err(format!("cover member {m} has non-positive coefficient"));
        }
        sum = sum.add(c).map_err(overflow("summing the cover"))?;
    }
    // strict: the full cover must overshoot the capacity
    if sum.le(&rhs).map_err(overflow("comparing cover weight"))? {
        return Err(format!(
            "cover weight {sum} does not exceed the row capacity {rhs}"
        ));
    }
    Ok(())
}

/// Replays a Gomory mixed-integer derivation exactly and checks dominance.
///
/// Shifted space: `t_j = x_j − bound_j` (or `bound_j − x_j` when
/// `at_upper`), all `t_j ≥ 0`. The attested base equality becomes
/// `Σ d_j t_j = b′` with `d_j = ±coeff_j`; with `f0 = frac(b′) ∈ (0,1)`
/// the GMI cut is `Σ g_j t_j ≥ f0` where for integral `t_j`
/// `g_j = min(frac(d_j), f0·(1−frac(d_j))/(1−f0))` and for continuous
/// `t_j` `g_j = max(d_j,0) + f0/(1−f0)·max(−d_j,0)`. The recorded cut is
/// valid iff its shifted coefficients dominate (`h_j ≥ g_j`) and its
/// shifted right-hand side is no larger than `f0` — then
/// `Σ h t ≥ Σ g t ≥ f0 ≥ rhs_t` for every feasible point.
///
/// Everything here is dyadic except the ratio `f0/(1−f0)`. Writing
/// `f0 = p/2^k` in lowest terms, `1−f0 = q/2^k` with `q = 2^k − p > 0`, so
/// the ratio is `p/q` and it is never formed: `frac(d_j) ≤ p/q·(1−frac(d_j))`
/// is `frac(d_j) ≤ f0` (multiply out by `1−f0 > 0`), and `p/q·t ≤ h_j` is
/// `p·t ≤ q·h_j` (multiply by `q > 0`) — see [`Rat::times_ratio_le`].
fn check_gomory(
    vars: &[GomoryVar],
    base_rhs: f64,
    cut: &[(usize, f64)],
    cut_rhs: f64,
) -> Result<(), String> {
    if vars.is_empty() {
        return Err("gomory base row has no variables".into());
    }
    // positions in `vars` ordered by variable index: the lookup table for
    // the recorded cut's terms. Of several repeated variables the one whose
    // repeat comes first in the row is reported.
    let mut by_var: Vec<usize> = (0..vars.len()).collect();
    by_var.sort_unstable_by_key(|&k| (vars[k].var, k));
    if let Some(repeat) = by_var
        .windows(2)
        .filter(|w| vars[w[0]].var == vars[w[1]].var)
        .map(|w| w[1])
        .min()
    {
        return Err(format!("duplicate variable {} in base row", vars[repeat].var));
    }
    // each variable's exact (coeff, bound), converted once for all three
    // loops; shifted right-hand side b' = base_rhs - sum coeff_j * bound_j
    let mut bp = rat(base_rhs, "base rhs")?;
    let mut exact: Vec<(Rat, Rat)> = Vec::with_capacity(vars.len());
    for g in vars {
        let coeff = rat(g.coeff, "base coefficient")?;
        let bound = rat(g.bound, "shift bound")?;
        let shift = coeff
            .mul(&bound)
            .map_err(overflow("shifting the base row"))?;
        bp = bp.sub(&shift).map_err(overflow("shifting the base row"))?;
        exact.push((coeff, bound));
    }
    let f0 = bp.frac();
    if f0.is_zero() {
        return Err("base row is integral at the recorded basis (f0 = 0)".into());
    }
    let one = Rat::from_int(1);
    let one_minus_f0 = one.sub(&f0).map_err(overflow("computing 1-f0"))?;
    // f0/(1-f0) = p/q: the two share their power-of-two denominator
    let (p, q) = (f0.numer(), one_minus_f0.numer());

    // recorded cut by position in `vars`; every term must sit on a
    // base-row variable
    let mut rec: Vec<Option<Rat>> = vec![None; vars.len()];
    for &(v, c) in cut {
        let Ok(at) = by_var.binary_search_by_key(&v, |&k| vars[k].var) else {
            return Err(format!("cut references variable {v} outside its base row"));
        };
        if rec[by_var[at]].replace(rat(c, "cut coefficient")?).is_some() {
            return Err(format!("duplicate variable {v} in cut"));
        }
    }

    for ((g, &(d, bound)), c) in vars.iter().zip(&exact).zip(&rec) {
        let d = if g.at_upper {
            Rat::ZERO.sub(&d).map_err(overflow("negating d_j"))?
        } else {
            d
        };
        // the exact coefficient is `t`, or `p/q·t` when `scaling` names the
        // step that multiplies by the ratio
        let (t, scaling) = if g.integral {
            // the integer treatment is only sound when the shift keeps the
            // variable on the integer lattice
            if !bound.frac().is_zero() {
                return Err(format!(
                    "variable {} flagged integral but its shift bound {} is not",
                    g.var, g.bound
                ));
            }
            let fj = d.frac();
            if fj.le(&f0).map_err(overflow("comparing GMI branches"))? {
                (fj, None)
            } else {
                let rest = one.sub(&fj).map_err(overflow("computing 1-f_j"))?;
                (rest, Some("scaling 1-f_j"))
            }
        } else if d.signum() >= 0 {
            (d, None)
        } else {
            let neg = Rat::ZERO.sub(&d).map_err(overflow("-d"))?;
            (neg, Some("scaling max(-d,0)"))
        };
        // shifted recorded coefficient h_j = ±c_j (0 when the var is absent)
        let c = c.unwrap_or(Rat::ZERO);
        let h = if g.at_upper {
            Rat::ZERO.sub(&c).map_err(overflow("negating h_j"))?
        } else {
            c
        };
        let dominated = match scaling {
            None => t.le(&h).map_err(overflow("dominance comparison"))?,
            Some(_) => t.times_ratio_le(p, q, &h),
        };
        if !dominated {
            // only the message needs the exact coefficient written out
            let exact = match scaling {
                None => t.to_string(),
                Some(step) => t.times_ratio_display(p, q).map_err(overflow(step))?,
            };
            return Err(format!(
                "cut coefficient on variable {} is {} in shifted space, \
                 below the exact GMI coefficient {}",
                g.var, h, exact
            ));
        }
    }

    // shifted recorded rhs must not exceed f0
    let mut rhs_t = rat(cut_rhs, "cut rhs")?;
    for &k in &by_var {
        let Some(c) = rec[k] else { continue };
        let shift = c
            .mul(&exact[k].1)
            .map_err(overflow("shifting the cut rhs"))?;
        rhs_t = rhs_t.sub(&shift).map_err(overflow("shifting the cut rhs"))?;
    }
    if !rhs_t.le(&f0).map_err(overflow("rhs dominance"))? {
        return Err(format!(
            "cut rhs is {rhs_t} in shifted space, above the exact GMI rhs {f0}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_types::NodeCert;

    /// A hand-built valid certificate: root branched into an integral
    /// leaf at the optimum and a bound-pruned leaf.
    fn good() -> SearchCertificate {
        SearchCertificate {
            objective: 5.0,
            dual_bound: 5.5,
            abs_gap: 1e-9,
            maximize: true,
            proven_optimal: true,
            nodes: vec![
                NodeCert {
                    id: 0,
                    parent: None,
                    lp_bound: 5.5,
                    outcome: NodeOutcome::Branched,
                },
                NodeCert {
                    id: 1,
                    parent: Some(0),
                    lp_bound: 5.0,
                    outcome: NodeOutcome::Integral { objective: 5.0 },
                },
                NodeCert {
                    id: 2,
                    parent: Some(0),
                    lp_bound: 4.2,
                    outcome: NodeOutcome::PrunedBound,
                },
            ],
            cuts: Vec::new(),
        }
    }

    /// The worked GMI example from `docs/CERTIFY.md`: base row
    /// `x0 + 0.5·x1 = 2.25` with integer `x0` and continuous `x1`, both
    /// shifted at lower bound 0. Then `f0 = 0.25`, `g0 = frac(1) = 0`,
    /// `g1 = max(0.5, 0) = 0.5`, so the exact cut is `0.5·x1 ≥ 0.25`.
    fn gomory_example() -> CutProof {
        CutProof::Gomory {
            vars: vec![
                GomoryVar {
                    var: 0,
                    coeff: 1.0,
                    bound: 0.0,
                    integral: true,
                    at_upper: false,
                },
                GomoryVar {
                    var: 1,
                    coeff: 0.5,
                    bound: 0.0,
                    integral: false,
                    at_upper: false,
                },
            ],
            base_rhs: 2.25,
            cut: vec![(1, 0.5)],
            cut_rhs: 0.25,
        }
    }

    fn cover_example() -> CutProof {
        // 3·x0 + 2·x2 ≤ 4 with both at 1 gives 5 > 4: x0 + x2 ≤ 1 valid
        CutProof::Cover {
            row: vec![(0, 3.0), (2, 2.0)],
            rhs: 4.0,
            members: vec![0, 2],
        }
    }

    /// The closure problems of `c` (none of them is about the objective),
    /// after asserting that [`CheckedCertificate::check`] refuses the
    /// certificate for exactly those reasons — or admits it when there are
    /// none.
    fn both(c: &SearchCertificate) -> Vec<String> {
        let problems = closure_problems(c);
        match CheckedCertificate::check(c.clone()) {
            Ok(_) => assert!(problems.is_empty(), "witness built over {problems:?}"),
            Err(refused) => assert_eq!(refused, problems),
        }
        problems
    }

    fn with_cuts(cuts: Vec<CutProof>) -> SearchCertificate {
        let mut c = good();
        c.cuts = cuts;
        c
    }

    #[test]
    fn valid_cuts_pass() {
        let c = with_cuts(vec![gomory_example(), cover_example()]);
        assert!(both(&c).is_empty());
    }

    #[test]
    fn weakened_gomory_cut_passes() {
        // a coefficient strictly above the exact GMI value and a rhs
        // strictly below f0 only weaken the cut — still valid
        let weak = CutProof::Gomory {
            vars: match gomory_example() {
                CutProof::Gomory { vars, .. } => vars,
                _ => unreachable!(),
            },
            base_rhs: 2.25,
            cut: vec![(0, 0.25), (1, 0.75)],
            cut_rhs: 0.125,
        };
        assert!(both(&with_cuts(vec![weak])).is_empty());
    }

    #[test]
    fn tampered_gomory_coefficient_rejected() {
        let bad = CutProof::Gomory {
            vars: match gomory_example() {
                CutProof::Gomory { vars, .. } => vars,
                _ => unreachable!(),
            },
            base_rhs: 2.25,
            cut: vec![(1, 0.25)], // below the exact 0.5: claims too much
            cut_rhs: 0.25,
        };
        let p = both(&with_cuts(vec![bad]));
        assert!(
            p.iter().any(|m| m.contains("below the exact GMI")),
            "{p:?}"
        );
    }

    #[test]
    fn tampered_gomory_rhs_rejected() {
        let bad = CutProof::Gomory {
            vars: match gomory_example() {
                CutProof::Gomory { vars, .. } => vars,
                _ => unreachable!(),
            },
            base_rhs: 2.25,
            cut: vec![(1, 0.5)],
            cut_rhs: 0.5, // above f0 = 0.25: cuts off feasible points
        };
        let p = both(&with_cuts(vec![bad]));
        assert!(p.iter().any(|m| m.contains("above the exact GMI")), "{p:?}");
    }

    #[test]
    fn gomory_integral_flag_needs_integral_bound() {
        let bad = CutProof::Gomory {
            vars: vec![GomoryVar {
                var: 0,
                coeff: 1.0,
                bound: 0.5, // fractional shift breaks the integer lattice
                integral: true,
                at_upper: false,
            }],
            base_rhs: 0.75,
            cut: vec![(0, 1.0)],
            cut_rhs: 0.25,
        };
        let p = both(&with_cuts(vec![bad]));
        assert!(p.iter().any(|m| m.contains("flagged integral")), "{p:?}");
    }

    #[test]
    fn gomory_cut_outside_base_row_rejected() {
        let bad = CutProof::Gomory {
            vars: match gomory_example() {
                CutProof::Gomory { vars, .. } => vars,
                _ => unreachable!(),
            },
            base_rhs: 2.25,
            cut: vec![(1, 0.5), (7, 1.0)], // var 7 is not in the base row
            cut_rhs: 0.25,
        };
        let p = both(&with_cuts(vec![bad]));
        assert!(p.iter().any(|m| m.contains("outside its base row")), "{p:?}");
    }

    #[test]
    fn gomory_at_upper_shift_is_sign_flipped() {
        // base row −x0 = −1.75 read with x0 shifted at upper bound 2:
        // t = 2 − x0, d = +1 (coeff −1 negated), b′ = −1.75 + 2 = 0.25,
        // f0 = 0.25, x0 integer ⇒ g = min(frac(1), …) = 0. In model space
        // the cut −0.0·x0 ≥ … is trivial; record rhs ≤ f0 − 0·2 and a
        // model coefficient of 0. A *negative* model coefficient (h = +c
        // flipped) of −0.5 would give h = 0.5 ≥ 0: also fine. Tamper with
        // a +0.5 model coefficient instead: h = −0.5 < 0 must fail.
        let vars = vec![GomoryVar {
            var: 0,
            coeff: -1.0,
            bound: 2.0,
            integral: true,
            at_upper: true,
        }];
        let ok = CutProof::Gomory {
            vars: vars.clone(),
            base_rhs: -1.75,
            cut: vec![(0, -0.5)],
            cut_rhs: -1.0, // shifted: −1 − (−0.5·2) = 0 ≤ f0 ✓
        };
        assert!(both(&with_cuts(vec![ok])).is_empty());
        let bad = CutProof::Gomory {
            vars,
            base_rhs: -1.75,
            cut: vec![(0, 0.5)], // shifted h = −0.5 < g = 0
            cut_rhs: -1.0,
        };
        let p = both(&with_cuts(vec![bad]));
        assert!(p.iter().any(|m| m.contains("below the exact GMI")), "{p:?}");
    }

    #[test]
    fn tampered_cover_rejected() {
        // dropping a member below the capacity threshold invalidates it
        let bad = CutProof::Cover {
            row: vec![(0, 3.0), (2, 2.0)],
            rhs: 6.0, // capacity raised: 5 ≤ 6, not a cover any more
            members: vec![0, 2],
        };
        let p = both(&with_cuts(vec![bad]));
        assert!(p.iter().any(|m| m.contains("does not exceed")), "{p:?}");
        // member not on the row
        let bad = CutProof::Cover {
            row: vec![(0, 3.0), (2, 2.0)],
            rhs: 4.0,
            members: vec![0, 5],
        };
        let p = both(&with_cuts(vec![bad]));
        assert!(p.iter().any(|m| m.contains("not in the row")), "{p:?}");
        // non-positive member coefficient
        let bad = CutProof::Cover {
            row: vec![(0, 3.0), (2, -2.0)],
            rhs: 2.0,
            members: vec![0, 2],
        };
        let p = both(&with_cuts(vec![bad]));
        assert!(p.iter().any(|m| m.contains("non-positive")), "{p:?}");
    }

    #[test]
    fn valid_certificate_passes() {
        assert!(both(&good()).is_empty());
    }

    #[test]
    fn minimization_sense_flips_inequalities() {
        let mut c = good();
        c.maximize = false;
        c.objective = 5.0;
        c.dual_bound = 4.5; // lower bound in minimization
        c.nodes[0].lp_bound = 4.5;
        c.nodes[1].lp_bound = 5.0;
        c.nodes[2].lp_bound = 6.1; // worse than optimum: prune justified
        assert!(both(&c).is_empty());
        // a min-sense prune with a *better* (smaller) bound must fail
        c.nodes[2].lp_bound = 4.6;
        assert!(!both(&c).is_empty());
    }

    #[test]
    fn objective_mismatch_detected() {
        let c = good();
        let p = with_objective_check(c.objective, 7.0, closure_problems(&c));
        assert!(p.iter().any(|m| m.contains("caller expected")));
        // whose objective is "expected" is the requester's business: the
        // witness does not depend on it
        assert!(CheckedCertificate::check(good()).is_ok());
    }

    #[test]
    fn unjustified_bound_prune_detected() {
        let mut c = good();
        c.nodes[2].lp_bound = 6.0; // could still hide a better solution
        let p = both(&c);
        assert!(p.iter().any(|m| m.contains("still beats")), "{p:?}");
    }

    #[test]
    fn too_good_integral_leaf_detected() {
        let mut c = good();
        c.nodes[1].outcome = NodeOutcome::Integral { objective: 5.4 };
        let p = both(&c);
        assert!(p.iter().any(|m| m.contains("better than claimed")), "{p:?}");
    }

    #[test]
    fn missing_child_detected() {
        let mut c = good();
        c.nodes.pop();
        let p = both(&c);
        assert!(p.iter().any(|m| m.contains("expected 2")), "{p:?}");
    }

    #[test]
    fn structural_corruption_detected() {
        // duplicate id
        let mut c = good();
        c.nodes[2].id = 1;
        assert!(both(&c)
            .iter()
            .any(|m| m.contains("duplicate")));
        // dangling parent
        let mut c = good();
        c.nodes[2].parent = Some(99);
        assert!(both(&c)
            .iter()
            .any(|m| m.contains("dangling")));
        // two roots
        let mut c = good();
        c.nodes[2].parent = None;
        assert!(both(&c)
            .iter()
            .any(|m| m.contains("exactly one root")));
        // parent that was never branched
        let mut c = good();
        c.nodes[0].outcome = NodeOutcome::PrunedBound;
        assert!(both(&c)
            .iter()
            .any(|m| m.contains("not branched")));
        // empty certificate
        let mut c = good();
        c.nodes.clear();
        assert!(both(&c)
            .iter()
            .any(|m| m.contains("no nodes")));
    }

    #[test]
    fn bound_monotonicity_enforced() {
        let mut c = good();
        c.nodes[1].lp_bound = 6.0; // child better than parent: impossible
        let p = both(&c);
        assert!(p.iter().any(|m| m.contains("improves on parent")), "{p:?}");
    }

    #[test]
    fn objective_beating_root_detected() {
        let mut c = good();
        c.objective = 6.0;
        c.nodes[1].outcome = NodeOutcome::Integral { objective: 6.0 };
        let p = both(&c);
        assert!(p.iter().any(|m| m.contains("root relaxation")), "{p:?}");
    }

    #[test]
    fn non_finite_values_rejected() {
        let mut c = good();
        c.nodes[2].lp_bound = f64::NAN;
        assert!(!both(&c).is_empty());
        let mut c = good();
        c.dual_bound = f64::INFINITY;
        assert!(!both(&c).is_empty());
        let mut c = good();
        c.abs_gap = -1.0;
        assert!(!both(&c).is_empty());
    }

    // -- differential: the dyadic `check_gomory` against the general-fraction
    //    one it replaced (`crate::fraction`, test-only) ----------------------

    use crate::fraction::{self, Frac};
    use proptest::prelude::*;

    type Proof = (Vec<GomoryVar>, f64, Vec<(usize, f64)>, f64);

    /// Runs both checkers on one proof. Wherever the reference decides —
    /// accepts, or rejects for any reason but its own arithmetic giving up —
    /// the verdict and the message must be identical, byte for byte; where it
    /// overflowed the new checker is free to decide. Returns the reference's
    /// verdict (`None`: it overflowed).
    fn agree((vars, base_rhs, cut, cut_rhs): &Proof) -> Option<bool> {
        let new = check_gomory(vars, *base_rhs, cut, *cut_rhs);
        let old = fraction::check_gomory(vars, *base_rhs, cut, *cut_rhs);
        match &old {
            Err(why) if why.starts_with("rational arithmetic failed") => None,
            _ => {
                assert_eq!(new, old, "on {vars:?} = {base_rhs}, cut {cut:?} >= {cut_rhs}");
                Some(old.is_ok())
            }
        }
    }

    fn ulps(x: f64, n: i64) -> f64 {
        if x == 0.0 {
            return n as f64 * f64::from_bits(1);
        }
        // toward larger magnitude for positive n, sign kept
        f64::from_bits((x.to_bits() as i64 + n) as u64)
    }

    /// Every way the existing tamper tests corrupt a proof, applied at every
    /// position: nudged and shifted coefficients and right-hand sides,
    /// dropped, repeated and foreign cut terms, repeated base variables (one
    /// and two of them, to pin which is reported), flipped flags, fractional
    /// and unrepresentable bounds.
    fn tamperings(proof: &Proof) -> Vec<Proof> {
        let (vars, base_rhs, cut, cut_rhs) = proof;
        let mut out = Vec::new();
        let mut push = |v: &Vec<GomoryVar>, b: f64, c: &Vec<(usize, f64)>, r: f64| {
            out.push((v.clone(), b, c.clone(), r));
        };
        for i in 0..cut.len() {
            for step in [-3, -2, -1, 1, 2] {
                let mut c = cut.clone();
                c[i].1 = ulps(c[i].1, step);
                push(vars, *base_rhs, &c, *cut_rhs);
            }
            for delta in [-0.25, 0.25] {
                let mut c = cut.clone();
                c[i].1 += delta;
                push(vars, *base_rhs, &c, *cut_rhs);
            }
            let mut c = cut.clone();
            c.remove(i);
            push(vars, *base_rhs, &c, *cut_rhs);
            let mut c = cut.clone();
            c.push(cut[i]);
            push(vars, *base_rhs, &c, *cut_rhs);
        }
        for step in [-2, -1, 1, 2] {
            push(vars, *base_rhs, cut, ulps(*cut_rhs, step));
        }
        push(vars, *base_rhs, cut, cut_rhs + 0.5);
        push(vars, *base_rhs, cut, cut_rhs - 0.5);
        push(vars, ulps(*base_rhs, 1), cut, *cut_rhs);
        push(vars, base_rhs.floor(), cut, *cut_rhs);
        let foreign = vars.iter().map(|v| v.var).max().unwrap_or(0) + 7;
        let mut c = cut.clone();
        c.insert(c.len() / 2, (foreign, 1.0));
        push(vars, *base_rhs, &c, *cut_rhs);
        c.push((foreign, 1e300));
        push(vars, *base_rhs, &c, *cut_rhs);
        for i in 0..vars.len() {
            let mut v = vars.clone();
            v[i].integral = !v[i].integral;
            push(&v, *base_rhs, cut, *cut_rhs);
            let mut v = vars.clone();
            v[i].at_upper = !v[i].at_upper;
            push(&v, *base_rhs, cut, *cut_rhs);
            let mut v = vars.clone();
            v[i].bound += 0.5;
            push(&v, *base_rhs, cut, *cut_rhs);
            let mut v = vars.clone();
            v[i].coeff = 1e300;
            push(&v, *base_rhs, cut, *cut_rhs);
            let mut v = vars.clone();
            v.push(vars[i].clone());
            push(&v, *base_rhs, cut, *cut_rhs);
            // two repeated variables: the one whose repeat comes first wins
            v.insert(vars.len(), vars[vars.len() - 1 - i].clone());
            push(&v, *base_rhs, cut, *cut_rhs);
        }
        push(&Vec::new(), *base_rhs, cut, *cut_rhs);
        out
    }

    /// Smallest double at or above `x` that a walk up from its nearest
    /// double reaches — the separator's outward rounding, on the reference
    /// fraction.
    fn round_up(x: &Frac) -> Option<f64> {
        let mut f = x.to_f64();
        for _ in 0..8 {
            if x.le(&Frac::from_f64_exact(f).ok()?).ok()? {
                return Some(f);
            }
            f = ulps(f, if f > 0.0 { 1 } else { -1 });
        }
        None
    }

    /// Derives the GMI cut of a base row on the reference fraction and rounds
    /// it outward, as the solver's separator does: a proof the checkers must
    /// both accept. `None` when the reference arithmetic gives up.
    fn derive(vars: &[GomoryVar], base_rhs: f64) -> Option<Proof> {
        let q = |x: f64| Frac::from_f64_exact(x).ok();
        let one = Frac::from_int(1);
        let mut bp = q(base_rhs)?;
        for g in vars {
            bp = bp.sub(&q(g.coeff)?.mul(&q(g.bound)?).ok()?).ok()?;
        }
        let f0 = fraction::frac_rat(&bp).ok()?;
        if f0.is_zero() {
            return None;
        }
        let ratio = f0.div(&one.sub(&f0).ok()?).ok()?;
        let (mut cut, mut target) = (Vec::new(), f0);
        for g in vars {
            let d = if g.at_upper { Frac::ZERO.sub(&q(g.coeff)?).ok()? } else { q(g.coeff)? };
            let exact = if g.integral {
                let fj = fraction::frac_rat(&d).ok()?;
                let alt = ratio.mul(&one.sub(&fj).ok()?).ok()?;
                if fj.le(&alt).ok()? { fj } else { alt }
            } else if d.signum() >= 0 {
                d
            } else {
                ratio.mul(&Frac::ZERO.sub(&d).ok()?).ok()?
            };
            let mag = round_up(&exact)?;
            let c = if g.at_upper { -mag } else { mag };
            if c != 0.0 {
                cut.push((g.var, c));
                target = target.add(&q(c)?.mul(&q(g.bound)?).ok()?).ok()?;
            }
        }
        let cut_rhs = -round_up(&Frac::ZERO.sub(&target).ok()?)?;
        Some((vars.to_vec(), base_rhs, cut, cut_rhs))
    }

    /// A base row the way a simplex tableau writes one: quotients of small
    /// integers (full mantissas), a few round numbers, integer shift bounds.
    fn arb_row() -> impl Strategy<Value = (Vec<GomoryVar>, f64)> {
        let coeff = (0u8..6, -40i32..=40, 1i32..=23).prop_map(|(family, n, d)| match family {
            0 => n as f64,
            1 => n as f64 / 8.0,
            2 => n as f64 * 1e-9 / d as f64,
            _ => n as f64 / d as f64,
        });
        let var = (coeff, 0u8..4, 0u8..8, any::<bool>()).prop_map(|(coeff, bound, kind, at_upper)| {
            GomoryVar { var: 0, coeff, bound: bound as f64, integral: kind < 5, at_upper }
        });
        (prop::collection::vec(var, 1..10), -200i32..=200, 1i32..=19, 1usize..5).prop_map(
            |(mut vars, n, d, stride)| {
                for (k, g) in vars.iter_mut().enumerate() {
                    g.var = 3 + k * stride; // ascending, as the separator records them
                }
                (vars, n as f64 / d as f64)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gomory_check_agrees_with_the_general_fraction_checker((vars, base_rhs) in arb_row()) {
            let Some(proof) = derive(&vars, base_rhs) else { return Ok(()) };
            prop_assert_eq!(agree(&proof), Some(true), "a derived cut must check: {:?}", proof);
            // shuffled rows look the variables up the same way
            let mut reversed = proof.clone();
            reversed.0.reverse();
            prop_assert_eq!(agree(&reversed), Some(true));
            for bad in tamperings(&proof) {
                agree(&bad);
            }
        }
    }

    /// The proofs a real solve emitted (the corpus exemplar), and every
    /// tampering of them, get the same verdict and the same words from both
    /// checkers; so do the hand-built proofs of the tests above.
    #[test]
    fn emitted_and_hand_built_proofs_agree_with_the_general_fraction_checker() {
        use insitu_types::json::{FromJson, Value};
        let text = include_str!("../../../tests/corpus/exemplar-proved.json");
        let Value::Object(case) = Value::parse(text).expect("corpus case is JSON") else {
            panic!("corpus case is an object");
        };
        let cert = SearchCertificate::from_json(&case["certificate"]).expect("certificate parses");
        let mut proofs: Vec<Proof> = Vec::new();
        for cut in cert.cuts.iter().chain(&[gomory_example()]) {
            if let CutProof::Gomory { vars, base_rhs, cut, cut_rhs } = cut {
                proofs.push((vars.clone(), *base_rhs, cut.clone(), *cut_rhs));
            }
        }
        assert!(proofs.len() > 1, "the exemplar carries Gomory cuts");
        let (mut accepted, mut rejected) = (0, 0);
        for proof in &proofs {
            assert_eq!(agree(proof), Some(true), "emitted proof {proof:?}");
            for bad in tamperings(proof) {
                match agree(&bad) {
                    Some(true) => accepted += 1,
                    Some(false) => rejected += 1,
                    None => {}
                }
            }
        }
        // weakenings pass, strengthenings fail: both sides of the verdict ran
        assert!(accepted > 10 && rejected > 10, "{accepted} accepted, {rejected} rejected");
    }
}

//! Machine-checkable solve certificates.
//!
//! A [`SearchCertificate`] is the audit trail a branch-and-bound solver
//! leaves behind so that an *independent* checker (the `certify` crate,
//! which shares no code with the solver) can re-derive why a claimed
//! optimum is in fact optimal: every node of the search tree is listed with
//! its LP relaxation bound and the reason it was fathomed. The checker
//! walks the tree and verifies that
//!
//! 1. the records form one rooted binary tree whose leaves are all
//!    fathomed (integral, bound-pruned, or infeasible),
//! 2. bounds are monotone along every root-to-leaf path (a child can never
//!    claim a better LP bound than its parent),
//! 3. every bound-pruned leaf's bound is dominated by the claimed optimum
//!    plus the solver's absolute gap, and
//! 4. every integral leaf's objective is itself dominated by the claimed
//!    optimum.
//!
//! Together with an independent feasibility replay of the claimed solution,
//! that is exactly the classical "checker vs. solver" split: the solver's
//! arithmetic is never trusted for *feasibility* (replayed exactly) and its
//! search is never trusted for *optimality* (the pruning log must close the
//! tree). LP relaxation bounds and infeasibility claims remain attested by
//! the solver — the same trust model as LP-dual-bound certificates in
//! classical practice; see `docs/CERTIFY.md`.
//!
//! The types live here (not in `milp`) so that the producer (`milp`) and
//! the consumer (`certify`) can share them without depending on each other.

use crate::error::TypeError;
use crate::json::{FromJson, ToJson, Value};
use std::collections::BTreeMap;

/// Why a search node was fathomed (or expanded).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOutcome {
    /// The node's LP relaxation was fractional and two children were
    /// created by splitting an integer variable's domain.
    Branched,
    /// The node's LP relaxation was integral: a candidate incumbent with
    /// the recorded objective value.
    Integral {
        /// Objective of the integral point, in the model's own sense.
        objective: f64,
    },
    /// The node was discarded because its LP bound could not beat the
    /// incumbent (within the solver's absolute gap).
    PrunedBound,
    /// The node's LP relaxation (or variable-bound intersection) was
    /// infeasible.
    PrunedInfeasible,
}

/// One variable's role in the attested base row of a Gomory cut.
///
/// The base row is the equality `Σ coeffᵢ·xᵢ = base_rhs` the solver read
/// from its LP basis (a tableau row with slacks substituted out). The
/// derivation shifts each variable to a non-negative one: `t = x − bound`
/// when `at_upper` is false, `t = bound − x` when it is true. `integral`
/// marks variables the derivation may round on — the checker additionally
/// requires the shift bound itself to be integral before trusting the
/// flag.
#[derive(Debug, Clone, PartialEq)]
pub struct GomoryVar {
    /// Model variable index.
    pub var: usize,
    /// Coefficient in the attested base equality.
    pub coeff: f64,
    /// The finite bound the shift uses (lower bound unless `at_upper`).
    pub bound: f64,
    /// Whether the shifted variable is integer-valued (integer variable
    /// with an integral shift bound).
    pub integral: bool,
    /// Shift from the upper bound (`t = bound − x`) instead of the lower.
    pub at_upper: bool,
}

/// Exact-rational validity proof for one cutting plane.
///
/// A branch-and-cut solver records one `CutProof` per cut it appended, so
/// the independent checker can re-derive the cut in `i128` rational
/// arithmetic and reject any tampered coefficient. The *source data*
/// (base row, variable bounds, integrality flags, knapsack row) is
/// solver-attested — the same trust class as the per-node LP bounds —
/// but the *derivation* from it is replayed exactly; see `docs/CERTIFY.md`.
#[derive(Debug, Clone, PartialEq)]
pub enum CutProof {
    /// A Gomory mixed-integer cut `Σ cutᵢ·xᵢ ≥ cut_rhs` derived from one
    /// attested base equality. The checker shifts every variable per its
    /// [`GomoryVar`], re-derives the GMI coefficients exactly, and
    /// verifies the recorded cut is dominated by the exact one
    /// (shifted-space coefficients no smaller, right-hand side no
    /// larger), which makes the recorded cut valid whenever the base row
    /// is.
    Gomory {
        /// Base-row terms: one entry per variable with its shift data.
        vars: Vec<GomoryVar>,
        /// Right-hand side of the attested base equality.
        base_rhs: f64,
        /// The recorded cut's model-space coefficients `(var, coeff)`.
        cut: Vec<(usize, f64)>,
        /// The recorded cut's right-hand side (`≥` sense).
        cut_rhs: f64,
    },
    /// A knapsack cover cut `Σ_{i ∈ members} xᵢ ≤ |members| − 1` from an
    /// attested row `Σ rowᵢ·xᵢ ≤ rhs` over binary variables. The checker
    /// verifies exactly that the members' coefficients are positive and
    /// sum to strictly more than `rhs` — so not all members can be 1
    /// simultaneously.
    Cover {
        /// The attested knapsack row's terms `(var, coeff)`.
        row: Vec<(usize, f64)>,
        /// The attested knapsack row's right-hand side.
        rhs: f64,
        /// Variable indices forming the cover.
        members: Vec<usize>,
    },
}

/// One node of the branch-and-bound tree.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCert {
    /// Unique node id (the solver's creation sequence number).
    pub id: u64,
    /// Parent node id; `None` for the root.
    pub parent: Option<u64>,
    /// The best bound known for the subtree rooted at this node: its own
    /// LP relaxation objective when one was solved, else the parent's.
    pub lp_bound: f64,
    /// How the node was fathomed (or that it was branched on).
    pub outcome: NodeOutcome,
}

/// The complete optimality certificate of one branch-and-bound solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCertificate {
    /// Claimed optimal objective value.
    pub objective: f64,
    /// A solver-attested dual (LP relaxation) bound on the optimum: an
    /// upper bound for maximization, a lower bound for minimization. The
    /// root LP relaxation objective.
    pub dual_bound: f64,
    /// Absolute optimality gap the solve was allowed (`0` = exact).
    pub abs_gap: f64,
    /// `true` when the model sense is maximization.
    pub maximize: bool,
    /// `true` when the search terminated by exhausting the tree (vs. a
    /// node limit or error). Only an exhausted tree can prove optimality.
    pub proven_optimal: bool,
    /// Every node the search created, in no particular order.
    pub nodes: Vec<NodeCert>,
    /// Every cutting plane the solve appended (root pool and node-local),
    /// each with its exact-rational validity proof. Empty for cut-free
    /// solves; absent in serialized pre-cut certificates (parsed as
    /// empty).
    pub cuts: Vec<CutProof>,
}

impl SearchCertificate {
    /// The root node record, if present.
    pub fn root(&self) -> Option<&NodeCert> {
        self.nodes.iter().find(|n| n.parent.is_none())
    }
}

impl ToJson for NodeCert {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("id".into(), Value::Number(self.id as f64));
        m.insert(
            "parent".into(),
            match self.parent {
                Some(p) => Value::Number(p as f64),
                None => Value::Null,
            },
        );
        m.insert("lp_bound".into(), Value::Number(self.lp_bound));
        let (kind, obj) = match &self.outcome {
            NodeOutcome::Branched => ("branched", None),
            NodeOutcome::Integral { objective } => ("integral", Some(*objective)),
            NodeOutcome::PrunedBound => ("pruned_bound", None),
            NodeOutcome::PrunedInfeasible => ("pruned_infeasible", None),
        };
        m.insert("outcome".into(), Value::String(kind.into()));
        if let Some(o) = obj {
            m.insert("objective".into(), Value::Number(o));
        }
        Value::Object(m)
    }
}

impl FromJson for NodeCert {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "NodeCert";
        let m = match v {
            Value::Object(m) => m,
            _ => return Err(TypeError::Parse(format!("{TY}: expected object"))),
        };
        let get = |name: &str| -> Result<&Value, TypeError> {
            m.get(name)
                .ok_or_else(|| TypeError::Parse(format!("{TY}: missing field '{name}'")))
        };
        let id = match get("id")? {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
            _ => return Err(TypeError::Parse(format!("{TY}: bad id"))),
        };
        let parent = match get("parent")? {
            Value::Null => None,
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => return Err(TypeError::Parse(format!("{TY}: bad parent"))),
        };
        let lp_bound = match get("lp_bound")? {
            Value::Number(n) => *n,
            _ => return Err(TypeError::Parse(format!("{TY}: bad lp_bound"))),
        };
        let outcome = match get("outcome")? {
            Value::String(s) => match s.as_str() {
                "branched" => NodeOutcome::Branched,
                "integral" => {
                    let objective = match m.get("objective") {
                        Some(Value::Number(n)) => *n,
                        _ => {
                            return Err(TypeError::Parse(format!(
                                "{TY}: integral node missing objective"
                            )))
                        }
                    };
                    NodeOutcome::Integral { objective }
                }
                "pruned_bound" => NodeOutcome::PrunedBound,
                "pruned_infeasible" => NodeOutcome::PrunedInfeasible,
                other => {
                    return Err(TypeError::Parse(format!("{TY}: unknown outcome '{other}'")))
                }
            },
            _ => return Err(TypeError::Parse(format!("{TY}: bad outcome"))),
        };
        Ok(NodeCert {
            id,
            parent,
            lp_bound,
            outcome,
        })
    }
}

fn terms_to_json(terms: &[(usize, f64)]) -> Value {
    Value::Array(
        terms
            .iter()
            .map(|&(v, c)| {
                let mut m = BTreeMap::new();
                m.insert("var".into(), Value::Number(v as f64));
                m.insert("coeff".into(), Value::Number(c));
                Value::Object(m)
            })
            .collect(),
    )
}

fn terms_from_json(v: &Value, what: &str) -> Result<Vec<(usize, f64)>, TypeError> {
    let Value::Array(items) = v else {
        return Err(TypeError::Parse(format!("{what}: expected array")));
    };
    items
        .iter()
        .map(|item| {
            let Value::Object(m) = item else {
                return Err(TypeError::Parse(format!("{what}: expected object term")));
            };
            let var = match m.get("var") {
                Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as usize,
                _ => return Err(TypeError::Parse(format!("{what}: bad var"))),
            };
            let coeff = match m.get("coeff") {
                Some(Value::Number(n)) => *n,
                _ => return Err(TypeError::Parse(format!("{what}: bad coeff"))),
            };
            Ok((var, coeff))
        })
        .collect()
}

impl ToJson for CutProof {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        match self {
            CutProof::Gomory {
                vars,
                base_rhs,
                cut,
                cut_rhs,
            } => {
                m.insert("kind".into(), Value::String("gomory".into()));
                m.insert(
                    "vars".into(),
                    Value::Array(
                        vars.iter()
                            .map(|g| {
                                let mut gm = BTreeMap::new();
                                gm.insert("var".into(), Value::Number(g.var as f64));
                                gm.insert("coeff".into(), Value::Number(g.coeff));
                                gm.insert("bound".into(), Value::Number(g.bound));
                                gm.insert("integral".into(), Value::Bool(g.integral));
                                gm.insert("at_upper".into(), Value::Bool(g.at_upper));
                                Value::Object(gm)
                            })
                            .collect(),
                    ),
                );
                m.insert("base_rhs".into(), Value::Number(*base_rhs));
                m.insert("cut".into(), terms_to_json(cut));
                m.insert("cut_rhs".into(), Value::Number(*cut_rhs));
            }
            CutProof::Cover { row, rhs, members } => {
                m.insert("kind".into(), Value::String("cover".into()));
                m.insert("row".into(), terms_to_json(row));
                m.insert("rhs".into(), Value::Number(*rhs));
                m.insert(
                    "members".into(),
                    Value::Array(
                        members.iter().map(|&i| Value::Number(i as f64)).collect(),
                    ),
                );
            }
        }
        Value::Object(m)
    }
}

impl FromJson for CutProof {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "CutProof";
        let Value::Object(m) = v else {
            return Err(TypeError::Parse(format!("{TY}: expected object")));
        };
        let num = |name: &str| -> Result<f64, TypeError> {
            match m.get(name) {
                Some(Value::Number(n)) => Ok(*n),
                _ => Err(TypeError::Parse(format!("{TY}: bad {name}"))),
            }
        };
        match m.get("kind") {
            Some(Value::String(s)) if s == "gomory" => {
                let vars = match m.get("vars") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|item| {
                            let Value::Object(gm) = item else {
                                return Err(TypeError::Parse(format!(
                                    "{TY}: expected gomory var object"
                                )));
                            };
                            let var = match gm.get("var") {
                                Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => {
                                    *n as usize
                                }
                                _ => return Err(TypeError::Parse(format!("{TY}: bad var"))),
                            };
                            let fetch = |name: &str| match gm.get(name) {
                                Some(Value::Number(n)) => Ok(*n),
                                _ => Err(TypeError::Parse(format!("{TY}: bad {name}"))),
                            };
                            let flag = |name: &str| match gm.get(name) {
                                Some(Value::Bool(b)) => Ok(*b),
                                _ => Err(TypeError::Parse(format!("{TY}: bad {name}"))),
                            };
                            Ok(GomoryVar {
                                var,
                                coeff: fetch("coeff")?,
                                bound: fetch("bound")?,
                                integral: flag("integral")?,
                                at_upper: flag("at_upper")?,
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(TypeError::Parse(format!("{TY}: bad vars"))),
                };
                Ok(CutProof::Gomory {
                    vars,
                    base_rhs: num("base_rhs")?,
                    cut: terms_from_json(
                        m.get("cut")
                            .ok_or_else(|| TypeError::Parse(format!("{TY}: missing cut")))?,
                        TY,
                    )?,
                    cut_rhs: num("cut_rhs")?,
                })
            }
            Some(Value::String(s)) if s == "cover" => {
                let members = match m.get("members") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|item| match item {
                            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => {
                                Ok(*n as usize)
                            }
                            _ => Err(TypeError::Parse(format!("{TY}: bad member"))),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(TypeError::Parse(format!("{TY}: bad members"))),
                };
                Ok(CutProof::Cover {
                    row: terms_from_json(
                        m.get("row")
                            .ok_or_else(|| TypeError::Parse(format!("{TY}: missing row")))?,
                        TY,
                    )?,
                    rhs: num("rhs")?,
                    members,
                })
            }
            Some(Value::String(other)) => {
                Err(TypeError::Parse(format!("{TY}: unknown kind '{other}'")))
            }
            _ => Err(TypeError::Parse(format!("{TY}: missing kind"))),
        }
    }
}

impl ToJson for SearchCertificate {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("objective".into(), Value::Number(self.objective));
        m.insert("dual_bound".into(), Value::Number(self.dual_bound));
        m.insert("abs_gap".into(), Value::Number(self.abs_gap));
        m.insert("maximize".into(), Value::Bool(self.maximize));
        m.insert("proven_optimal".into(), Value::Bool(self.proven_optimal));
        m.insert(
            "nodes".into(),
            Value::Array(self.nodes.iter().map(ToJson::to_json).collect()),
        );
        if !self.cuts.is_empty() {
            m.insert(
                "cuts".into(),
                Value::Array(self.cuts.iter().map(ToJson::to_json).collect()),
            );
        }
        Value::Object(m)
    }
}

impl FromJson for SearchCertificate {
    fn from_json(v: &Value) -> Result<Self, TypeError> {
        const TY: &str = "SearchCertificate";
        let m = match v {
            Value::Object(m) => m,
            _ => return Err(TypeError::Parse(format!("{TY}: expected object"))),
        };
        let get = |name: &str| -> Result<&Value, TypeError> {
            m.get(name)
                .ok_or_else(|| TypeError::Parse(format!("{TY}: missing field '{name}'")))
        };
        let f = |name: &str| -> Result<f64, TypeError> {
            match get(name)? {
                Value::Number(n) => Ok(*n),
                _ => Err(TypeError::Parse(format!("{TY}: bad {name}"))),
            }
        };
        let b = |name: &str| -> Result<bool, TypeError> {
            match get(name)? {
                Value::Bool(x) => Ok(*x),
                _ => Err(TypeError::Parse(format!("{TY}: bad {name}"))),
            }
        };
        let nodes = match get("nodes")? {
            Value::Array(items) => items
                .iter()
                .map(NodeCert::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(TypeError::Parse(format!("{TY}: bad nodes"))),
        };
        // absent in pre-branch-and-cut certificates: parse as empty
        let cuts = match m.get("cuts") {
            None => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .map(CutProof::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err(TypeError::Parse(format!("{TY}: bad cuts"))),
        };
        Ok(SearchCertificate {
            objective: f("objective")?,
            dual_bound: f("dual_bound")?,
            abs_gap: f("abs_gap")?,
            maximize: b("maximize")?,
            proven_optimal: b("proven_optimal")?,
            nodes,
            cuts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> SearchCertificate {
        SearchCertificate {
            objective: 7.0,
            dual_bound: 7.5,
            abs_gap: 0.0,
            maximize: true,
            proven_optimal: true,
            nodes: vec![
                NodeCert {
                    id: 0,
                    parent: None,
                    lp_bound: 7.5,
                    outcome: NodeOutcome::Branched,
                },
                NodeCert {
                    id: 1,
                    parent: Some(0),
                    lp_bound: 7.0,
                    outcome: NodeOutcome::Integral { objective: 7.0 },
                },
                NodeCert {
                    id: 2,
                    parent: Some(0),
                    lp_bound: 6.2,
                    outcome: NodeOutcome::PrunedBound,
                },
            ],
            cuts: vec![
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
                            coeff: 2.5,
                            bound: 3.0,
                            integral: false,
                            at_upper: true,
                        },
                    ],
                    base_rhs: 4.5,
                    cut: vec![(0, 0.5), (1, -0.25)],
                    cut_rhs: 0.125,
                },
                CutProof::Cover {
                    row: vec![(0, 3.0), (2, 2.0)],
                    rhs: 4.0,
                    members: vec![0, 2],
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let c = sample();
        let text = json::to_string(&c);
        let back: SearchCertificate = json::from_str(&text).unwrap();
        assert_eq!(back, c);
        // pretty form too
        let back2: SearchCertificate = json::from_str(&json::to_string_pretty(&c)).unwrap();
        assert_eq!(back2, c);
    }

    #[test]
    fn accessors() {
        let c = sample();
        assert_eq!(c.root().unwrap().id, 0);
    }

    #[test]
    fn missing_cuts_field_parses_as_empty() {
        // a pre-branch-and-cut certificate (no "cuts" key) must still load
        let mut c = sample();
        c.cuts.clear();
        let text = json::to_string(&c);
        assert!(!text.contains("\"cuts\""));
        let back: SearchCertificate = json::from_str(&text).unwrap();
        assert!(back.cuts.is_empty());
    }

    #[test]
    fn malformed_json_rejected() {
        for text in [
            "{}",
            // unknown cut kind
            r#"{"objective":1,"dual_bound":1,"abs_gap":0,"maximize":true,"proven_optimal":true,"nodes":[{"id":0,"parent":null,"lp_bound":1,"outcome":"integral","objective":1}],"cuts":[{"kind":"lift"}]}"#,
            // cover cut without members
            r#"{"objective":1,"dual_bound":1,"abs_gap":0,"maximize":true,"proven_optimal":true,"nodes":[{"id":0,"parent":null,"lp_bound":1,"outcome":"integral","objective":1}],"cuts":[{"kind":"cover","row":[],"rhs":1}]}"#,
            // gomory cut with a non-boolean flag
            r#"{"objective":1,"dual_bound":1,"abs_gap":0,"maximize":true,"proven_optimal":true,"nodes":[{"id":0,"parent":null,"lp_bound":1,"outcome":"integral","objective":1}],"cuts":[{"kind":"gomory","vars":[{"var":0,"coeff":1,"bound":0,"integral":1,"at_upper":false}],"base_rhs":0.5,"cut":[],"cut_rhs":0.5}]}"#,
            r#"{"objective":1,"dual_bound":1,"abs_gap":0,"maximize":true,"proven_optimal":true,"nodes":[{"id":-1,"parent":null,"lp_bound":1,"outcome":"branched"}]}"#,
            r#"{"objective":1,"dual_bound":1,"abs_gap":0,"maximize":true,"proven_optimal":true,"nodes":[{"id":0,"parent":null,"lp_bound":1,"outcome":"integral"}]}"#,
            r#"{"objective":1,"dual_bound":1,"abs_gap":0,"maximize":true,"proven_optimal":true,"nodes":[{"id":0,"parent":null,"lp_bound":1,"outcome":"nonsense"}]}"#,
        ] {
            assert!(
                json::from_str::<SearchCertificate>(text).is_err(),
                "{text}"
            );
        }
    }
}

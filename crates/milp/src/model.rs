//! The MILP model builder.

use std::fmt;

use crate::error::SolveError;
use crate::expr::{LinExpr, Var};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

/// Variable domain kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued.
    Continuous,
    /// Integer-valued (bounds still apply).
    Integer,
}

/// Variable metadata.
#[derive(Debug, Clone)]
pub struct VarData {
    /// Diagnostic name.
    pub name: String,
    /// Lower bound (may be `-inf`).
    pub lower: f64,
    /// Upper bound (may be `+inf`).
    pub upper: f64,
    /// Continuous or integer.
    pub kind: VarKind,
}

/// One linear constraint `expr cmp rhs` (constant folded into rhs).
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Left-hand side, compacted, constant already moved to `rhs`.
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A mixed-integer linear program.
///
/// Build the model incrementally — add variables, then constraints, then
/// the objective — and hand it to [`crate::solve`].
///
/// # Examples
///
/// ```
/// use milp::{Cmp, LinExpr, Model, Sense};
///
/// // maximize x + 2y  s.t.  x + y <= 3,  x binary,  0 <= y <= 2 integer
/// let mut m = Model::new(Sense::Maximize);
/// let x = m.binary("x");
/// let y = m.int_var("y", 0.0, 2.0);
/// m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 3.0);
/// m.set_objective(LinExpr::new().term(x, 1.0).term(y, 2.0));
/// assert_eq!(m.num_vars(), 2);
/// assert!(m.is_feasible(&[1.0, 2.0], 1e-9));
/// assert_eq!(m.objective_value(&[1.0, 2.0]), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    /// Optimization direction.
    pub sense: Sense,
    /// Variables in creation order; [`Var`] indexes into this.
    pub vars: Vec<VarData>,
    /// Constraints in creation order.
    pub cons: Vec<Constraint>,
    /// Objective expression (constant included in reported objective).
    pub objective: LinExpr,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            cons: Vec::new(),
            objective: LinExpr::new(),
        }
    }

    fn push_var(&mut self, name: &str, lower: f64, upper: f64, kind: VarKind) -> Var {
        self.vars.push(VarData {
            name: name.to_string(),
            lower,
            upper,
            kind,
        });
        Var(self.vars.len() - 1)
    }

    /// Adds a continuous variable with bounds `[lower, upper]`.
    pub fn num_var(&mut self, name: &str, lower: f64, upper: f64) -> Var {
        self.push_var(name, lower, upper, VarKind::Continuous)
    }

    /// Adds an integer variable with bounds `[lower, upper]`.
    pub fn int_var(&mut self, name: &str, lower: f64, upper: f64) -> Var {
        self.push_var(name, lower, upper, VarKind::Integer)
    }

    /// Adds a binary (0/1) variable.
    pub fn binary(&mut self, name: &str) -> Var {
        self.push_var(name, 0.0, 1.0, VarKind::Integer)
    }

    /// Adds the constraint `expr cmp rhs`; the expression's constant is
    /// folded into the right-hand side. Returns the constraint index.
    pub fn add_con(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) -> usize {
        let compact = expr.compact();
        let constant = compact.constant;
        self.cons.push(Constraint {
            expr: LinExpr {
                terms: compact.terms,
                constant: 0.0,
            },
            cmp,
            rhs: rhs - constant,
        });
        self.cons.len() - 1
    }

    /// Sets the objective expression.
    pub fn set_objective(&mut self, expr: LinExpr) {
        self.objective = expr.compact();
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Indices of integer variables.
    pub fn integer_vars(&self) -> Vec<usize> {
        (0..self.vars.len())
            .filter(|&i| self.vars[i].kind == VarKind::Integer)
            .collect()
    }

    /// Checks structural sanity: finite coefficients, bounds ordered,
    /// variable references in range.
    pub fn validate(&self) -> Result<(), SolveError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(SolveError::BadModel(format!("var {} has NaN bound", v.name)));
            }
            if v.lower > v.upper {
                return Err(SolveError::BadModel(format!(
                    "var {} (#{i}) has lower {} > upper {}",
                    v.name, v.lower, v.upper
                )));
            }
        }
        let width = self.vars.len();
        // `what` is only rendered when an error is returned: this runs on
        // every lowering, once per constraint
        let check_expr = |e: &LinExpr, what: &dyn fmt::Display| -> Result<(), SolveError> {
            for &(v, c) in &e.terms {
                if v.0 >= width {
                    return Err(SolveError::BadModel(format!(
                        "{what} references unknown var #{}",
                        v.0
                    )));
                }
                if !c.is_finite() {
                    return Err(SolveError::BadModel(format!(
                        "{what} has non-finite coefficient {c}"
                    )));
                }
            }
            Ok(())
        };
        check_expr(&self.objective, &"objective")?;
        for (k, c) in self.cons.iter().enumerate() {
            check_expr(&c.expr, &format_args!("constraint #{k}"))?;
            if !c.rhs.is_finite() {
                return Err(SolveError::BadModel(format!("constraint #{k} rhs not finite")));
            }
        }
        Ok(())
    }

    /// True when `assignment` satisfies every constraint and bound to
    /// within `tol`, with integer variables integral to within `tol`.
    pub fn is_feasible(&self, assignment: &[f64], tol: f64) -> bool {
        if assignment.len() != self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            let x = assignment[i];
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
            if v.kind == VarKind::Integer && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.cons {
            let lhs = c.expr.eval(assignment);
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
                Cmp::Ge => lhs >= c.rhs - tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Objective value of an assignment, in the model's own sense.
    pub fn objective_value(&self, assignment: &[f64]) -> f64 {
        self.objective.eval(assignment)
    }

    /// True when `a` is a better objective value than `b` for this sense.
    pub fn better(&self, a: f64, b: f64) -> bool {
        match self.sense {
            Sense::Maximize => a > b,
            Sense::Minimize => a < b,
        }
    }

    /// Worst possible objective value for this sense (used to seed
    /// incumbents).
    pub fn worst(&self) -> f64 {
        match self.sense {
            Sense::Maximize => f64::NEG_INFINITY,
            Sense::Minimize => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.num_var("x", 0.0, 10.0);
        let idx = m.add_con(LinExpr::var(x).plus(3.0), Cmp::Le, 5.0);
        assert_eq!(m.cons[idx].rhs, 2.0);
        assert_eq!(m.cons[idx].expr.constant, 0.0);
    }

    #[test]
    fn feasibility_checks_bounds_integrality_and_rows() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 5.0);
        let y = m.num_var("y", 0.0, 5.0);
        m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 6.0);
        assert!(m.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[2.5, 3.0], 1e-9)); // fractional integer
        assert!(!m.is_feasible(&[2.0, 5.0], 1e-9)); // row violated
        assert!(!m.is_feasible(&[-1.0, 0.0], 1e-9)); // bound violated
    }

    #[test]
    fn validation_rejects_bad_bounds_and_refs() {
        let mut m = Model::new(Sense::Minimize);
        m.num_var("x", 3.0, 1.0);
        assert!(matches!(m.validate(), Err(SolveError::BadModel(_))));

        let mut m = Model::new(Sense::Minimize);
        m.num_var("x", 0.0, 1.0);
        m.set_objective(LinExpr::var(Var(7)));
        assert!(m.validate().is_err());
    }

    #[test]
    fn sense_helpers() {
        let m = Model::new(Sense::Maximize);
        assert!(m.better(2.0, 1.0));
        assert_eq!(m.worst(), f64::NEG_INFINITY);
        let m = Model::new(Sense::Minimize);
        assert!(m.better(1.0, 2.0));
        assert_eq!(m.worst(), f64::INFINITY);
    }

    #[test]
    fn integer_vars_listed() {
        let mut m = Model::new(Sense::Maximize);
        m.num_var("a", 0.0, 1.0);
        m.binary("b");
        m.int_var("c", 0.0, 9.0);
        assert_eq!(m.integer_vars(), vec![1, 2]);
    }
}

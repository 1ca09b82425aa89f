//! Linear expressions over model variables.

/// Handle to a model variable. Cheap to copy; only valid for the
/// [`crate::Model`] that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Column index of the variable inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A linear expression `Σ coef_k · var_k + constant`.
///
/// Built fluently: `LinExpr::new().term(x, 3.0).term(y, -1.0).plus(2.0)`.
/// Duplicate variables are allowed and folded by [`LinExpr::compact`] (and
/// automatically when the expression enters a model).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// `(variable, coefficient)` pairs, possibly with repeats.
    pub terms: Vec<(Var, f64)>,
    /// Additive constant.
    pub constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// An expression consisting of a single variable with coefficient 1.
    pub fn var(v: Var) -> Self {
        LinExpr::new().term(v, 1.0)
    }

    /// A constant expression.
    pub fn constant(c: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Appends `coef * v`.
    pub fn term(mut self, v: Var, coef: f64) -> Self {
        self.terms.push((v, coef));
        self
    }

    /// Adds a constant.
    pub fn plus(mut self, c: f64) -> Self {
        self.constant += c;
        self
    }

    /// Adds another expression.
    pub fn add_expr(mut self, other: &LinExpr) -> Self {
        self.terms.extend_from_slice(&other.terms);
        self.constant += other.constant;
        self
    }

    /// Multiplies the whole expression by a scalar.
    pub fn scale(mut self, s: f64) -> Self {
        for (_, c) in &mut self.terms {
            *c *= s;
        }
        self.constant *= s;
        self
    }

    /// Sum of `coef * var` over an iterator — handy for Σ-style constraints.
    pub fn sum(items: impl IntoIterator<Item = (Var, f64)>) -> Self {
        LinExpr {
            terms: items.into_iter().collect(),
            constant: 0.0,
        }
    }

    /// Folds duplicate variables and drops zero coefficients; the result
    /// lists each variable once, ascending. Duplicates are summed in the
    /// order they were appended (a stable sort, then a merge of equal
    /// neighbours), so the outcome is a function of the term list alone.
    pub fn compact(&self) -> LinExpr {
        let mut terms = self.terms.clone();
        if !terms.windows(2).all(|w| w[0].0 < w[1].0) {
            terms.sort_by_key(|&(v, _)| v);
            terms.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
        }
        terms.retain(|&(_, c)| c != 0.0);
        LinExpr {
            terms,
            constant: self.constant,
        }
    }

    /// Evaluates the expression on an assignment (indexed by variable).
    pub fn eval(&self, assignment: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * assignment[v.0])
                .sum::<f64>()
    }

    /// Largest variable index referenced, or `None` for constants.
    pub fn max_var(&self) -> Option<usize> {
        self.terms.iter().map(|&(v, _)| v.0).max()
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        LinExpr::var(v)
    }
}

impl std::ops::Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        self.add_expr(&rhs)
    }
}

impl std::ops::Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, rhs: f64) -> LinExpr {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluent_construction_and_eval() {
        let x = Var(0);
        let y = Var(1);
        let e = LinExpr::new().term(x, 3.0).term(y, -1.0).plus(2.0);
        assert_eq!(e.eval(&[1.0, 4.0]), 3.0 - 4.0 + 2.0);
    }

    #[test]
    fn compact_folds_duplicates_and_drops_zeros() {
        let x = Var(0);
        let y = Var(1);
        let e = LinExpr::new()
            .term(x, 1.0)
            .term(y, 2.0)
            .term(x, -1.0)
            .term(y, 0.5);
        let c = e.compact();
        assert_eq!(c.terms, vec![(y, 2.5)]);
    }

    #[test]
    fn compact_sorts_and_sums_duplicates_in_append_order() {
        let (x, y, z) = (Var(0), Var(1), Var(2));
        // float addition is not associative: (1e16 + -1e16) + 1 = 1, but
        // 1e16 + (-1e16 + 1) = 0 — append order decides, not a hash
        let e = LinExpr::new()
            .term(z, 2.0)
            .term(x, 1e16)
            .term(y, 0.0)
            .term(x, -1e16)
            .term(x, 1.0);
        assert_eq!(e.compact().terms, vec![(x, 1.0), (z, 2.0)]);
        // already ascending and duplicate-free: only zeros are dropped
        let sorted = LinExpr::new().term(x, 3.0).term(y, 0.0).term(z, -1.0).plus(4.0);
        let c = sorted.compact();
        assert_eq!(c.terms, vec![(x, 3.0), (z, -1.0)]);
        assert_eq!(c.constant, 4.0);
        assert_eq!(c.compact(), c);
    }

    #[test]
    fn sum_and_operators() {
        let vars = [Var(0), Var(1), Var(2)];
        let e = LinExpr::sum(vars.iter().map(|&v| (v, 2.0)));
        assert_eq!(e.eval(&[1.0, 1.0, 1.0]), 6.0);
        let f = (e + LinExpr::constant(1.0)) * 2.0;
        assert_eq!(f.eval(&[1.0, 1.0, 1.0]), 14.0);
    }

    #[test]
    fn scale_touches_constant() {
        let e = LinExpr::var(Var(0)).plus(3.0).scale(-2.0);
        assert_eq!(e.constant, -6.0);
        assert_eq!(e.terms[0].1, -2.0);
    }

    #[test]
    fn max_var_reports_width() {
        assert_eq!(LinExpr::constant(1.0).max_var(), None);
        assert_eq!(
            LinExpr::new().term(Var(4), 1.0).term(Var(2), 1.0).max_var(),
            Some(4)
        );
    }
}

//! A `milp::Model` as text, bit for bit.
//!
//! A fixture that must reproduce a solver defect has to hand the solver the
//! very model that showed it, not a rebuild that a later change to a model
//! builder may reshape. So every number is written as the hex of its
//! `f64::to_bits`, followed by its decimal for the reader
//! (`0x3ff0000000000000/1`), and read back from the hex alone after
//! checking that the two agree. Terms keep their stored order and repeats:
//! [`parse`] fills `Model`'s fields directly instead of going through
//! `add_con`'s compaction.
//!
//! ```text
//! sense maximize
//! var int 0x0000000000000000/0 0x3ff0000000000000/1 run_0
//! con le 0x0000000000000000/0 0:0x3ff0000000000000/1 1:0xbff0000000000000/-1
//! obj 0x0000000000000000/0 0:0x3ff0000000000000/1
//! ```

use milp::{Cmp, LinExpr, Model, Sense, Var, VarKind};

fn number(x: f64) -> String {
    format!("{:#018x}/{x}", x.to_bits())
}

fn terms(e: &LinExpr) -> String {
    e.terms
        .iter()
        .map(|&(v, c)| format!(" {}:{}", v.index(), number(c)))
        .collect()
}

/// Renders `model` in the format [`parse`] reads.
pub fn render(model: &Model) -> String {
    let sense = match model.sense {
        Sense::Maximize => "maximize",
        Sense::Minimize => "minimize",
    };
    let mut out = format!("sense {sense}\n");
    for v in &model.vars {
        let kind = match v.kind {
            VarKind::Integer => "int",
            VarKind::Continuous => "real",
        };
        out += &format!("var {kind} {} {} {}\n", number(v.lower), number(v.upper), v.name);
    }
    for c in &model.cons {
        let cmp = match c.cmp {
            Cmp::Le => "le",
            Cmp::Eq => "eq",
            Cmp::Ge => "ge",
        };
        out += &format!("con {cmp} {}{}\n", number(c.rhs), terms(&c.expr));
    }
    out += &format!("obj {}{}\n", number(model.objective.constant), terms(&model.objective));
    out
}

fn parse_number(token: &str) -> Result<f64, String> {
    let (hex, decimal) = token.split_once('/').ok_or(format!("`{token}`: no `/`"))?;
    let digits = hex.strip_prefix("0x").ok_or(format!("`{token}`: no `0x`"))?;
    let bits = u64::from_str_radix(digits, 16).map_err(|e| format!("`{token}`: {e}"))?;
    let x = f64::from_bits(bits);
    match decimal.parse::<f64>() {
        Ok(d) if d.to_bits() == bits => Ok(x),
        _ => Err(format!("`{token}`: the decimal does not name the bits")),
    }
}

fn parse_terms<'a>(
    tokens: impl Iterator<Item = &'a str>,
    vars: &[Var],
) -> Result<Vec<(Var, f64)>, String> {
    tokens
        .map(|t| {
            let (index, coef) = t.split_once(':').ok_or(format!("`{t}`: no `:`"))?;
            let index: usize = index.parse().map_err(|e| format!("`{t}`: {e}"))?;
            let var = *vars.get(index).ok_or(format!("`{t}`: no variable {index}"))?;
            Ok((var, parse_number(coef)?))
        })
        .collect()
}

/// Reads a model written by [`render`].
pub fn parse(text: &str) -> Result<Model, String> {
    let mut lines = text.lines();
    let mut model = match lines.next() {
        Some("sense maximize") => Model::new(Sense::Maximize),
        Some("sense minimize") => Model::new(Sense::Minimize),
        other => return Err(format!("first line must be the sense, not {other:?}")),
    };
    let mut vars = Vec::new();
    for line in lines {
        let mut tokens = line.split(' ');
        match tokens.next() {
            Some("var") => {
                let kind = tokens.next();
                let lower = parse_number(tokens.next().unwrap_or_default())?;
                let upper = parse_number(tokens.next().unwrap_or_default())?;
                let name = tokens.collect::<Vec<_>>().join(" ");
                vars.push(match kind {
                    Some("int") => model.int_var(&name, lower, upper),
                    Some("real") => model.num_var(&name, lower, upper),
                    other => return Err(format!("unknown variable kind {other:?}")),
                });
            }
            Some("con") => {
                let cmp = match tokens.next() {
                    Some("le") => Cmp::Le,
                    Some("eq") => Cmp::Eq,
                    Some("ge") => Cmp::Ge,
                    other => return Err(format!("unknown comparison {other:?}")),
                };
                let rhs = parse_number(tokens.next().unwrap_or_default())?;
                let terms = parse_terms(tokens, &vars)?;
                model.cons.push(milp::model::Constraint {
                    expr: LinExpr {
                        terms,
                        constant: 0.0,
                    },
                    cmp,
                    rhs,
                });
            }
            Some("obj") => {
                let constant = parse_number(tokens.next().unwrap_or_default())?;
                model.objective = LinExpr {
                    terms: parse_terms(tokens, &vars)?,
                    constant,
                };
            }
            _ => return Err(format!("unreadable line `{line}`")),
        }
    }
    Ok(model)
}

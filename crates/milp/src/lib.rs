//! An exact mixed-integer linear programming (MILP) solver, from scratch.
//!
//! This crate stands in for the GAMS + CPLEX stack the paper used to solve
//! its scheduling formulation. It provides:
//!
//! * a [`Model`] builder with continuous, integer and binary variables,
//!   linear constraints and a linear objective,
//! * a **sparse revised simplex** LP engine ([`revised`]): LU-factorized
//!   basis ([`lu`]) with eta updates, BTRAN/FTRAN solves and partial
//!   pricing over the CSC constraint matrix; the model is lowered once per
//!   solve and every child LP is a column-bound edit on that form, with
//!   dual-simplex **warm starts** from a parent [`Basis`] factorized once
//!   per node ([`revised::FactoredBasis`]),
//! * a bounded-variable, two-phase primal **simplex** on a dense tableau
//!   ([`simplex`]), kept off every solve path as the oracle the LP-level
//!   differential tests compare the revised simplex against,
//! * **branch & cut** with best-first node selection and plunging,
//!   pseudocost/strong branching, exactly-certified root Gomory + cover
//!   cuts, and optional multi-threaded search ([`branch`]; see
//!   [`SolveOptions::threads`]),
//! * solver **telemetry** — node/prune/pivot counters, the incumbent
//!   timeline and per-phase wall times ([`SolveStats`], returned in every
//!   [`Solution`]),
//! * a brute-force enumeration oracle ([`brute`]) used by the test suite to
//!   certify optimality on small instances.
//!
//! The solver is exact (optimality gap 0) on the instances produced by the
//! in-situ scheduling formulation; it is not intended to compete with
//! commercial solvers on industrial LPs. The determinism contract (serial
//! runs are bitwise reproducible; parallel runs return the identical
//! optimum) is documented in `docs/SOLVER.md` and in [`branch`].
//!
//! # Relation to the paper (Eqs. 1–9)
//!
//! The SC '15 formulation reaches this crate through `insitu-core`:
//!
//! * **Eq. 1** (weighted analysis value) becomes the linear objective via
//!   [`Model::set_objective`];
//! * **Eqs. 2–4** (compute/output time recursion and the time threshold)
//!   telescope into a single `<=` row per instance
//!   ([`Model::add_con`] with [`Cmp::Le`]);
//! * **Eqs. 5–8** (memory recursion and the memory threshold) become
//!   either unary-expansion rows or a conservative peak bound, again
//!   plain linear rows;
//! * **Eq. 9** (interval constraint) becomes integer variable bounds
//!   ([`Model::int_var`]).
//!
//! So the whole paper formulation is expressible as `max c·x, A x <= b`
//! with integrality — exactly what [`solve`] accepts.
//!
//! # Example
//!
//! ```
//! use milp::{Model, Sense, Cmp, solve, SolveOptions};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2, x,y integer >= 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.int_var("x", 0.0, 2.0);
//! let y = m.int_var("y", 0.0, f64::INFINITY);
//! m.add_con(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, 4.0);
//! m.set_objective(LinExpr::new().term(x, 3.0).term(y, 2.0));
//! let sol = solve(&m, &SolveOptions::default()).unwrap();
//! assert_eq!(sol.objective.round(), 10.0); // x=2, y=2
//! # use milp::LinExpr;
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod brute;
mod cuts;
pub mod error;
pub mod expr;
#[doc(hidden)]
pub mod lp_fuzz;
pub mod lu;
pub mod model;
pub mod options;
pub mod presolve;
pub mod revised;
pub mod simplex;
pub mod solution;
pub mod standard;
pub mod stats;
pub mod trace;

pub use branch::{solve, solve_with_hint};
pub use error::SolveError;
pub use expr::{LinExpr, Var};
pub use model::{Cmp, Model, Sense, VarKind};
pub use options::SolveOptions;
pub use presolve::{presolve, PresolveStats};
pub use simplex::{solve_lp_relaxation, solve_lp_relaxation_dense, Basis};
pub use solution::Solution;
pub use stats::{CutStats, IncumbentEvent, LpTelemetry, SolveStats};
pub use trace::{SearchTrace, TraceNode, SEARCHTRACE_SCHEMA};

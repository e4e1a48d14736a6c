//! A self-contained linear and 0-1 mixed-integer linear programming solver.
//!
//! The DAC 1990 paper *"An Analytical Approach to Floorplan Design and
//! Optimization"* (Sutanthavibul, Shragowitz, Rosen) solves each successive
//! augmentation step of its floorplanner by calling the commercial **LINDO**
//! package as a procedure. This crate is the open substitute for LINDO: an
//! exact solver for small-to-medium mixed 0-1 linear programs built on
//!
//! * a **two-phase, bounded-variable primal simplex** — a sparse revised
//!   implementation with an LU-factorized basis and eta-file updates (the
//!   `sparse` module; a dense tableau survives only as the unit tests'
//!   differential oracle) — and
//! * a **branch-and-bound** search on the integer variables with
//!   most-fractional / user-priority branching, depth-first diving for early
//!   incumbents, and node / time limits that return the best incumbent found
//!   (the `branch` module). Child nodes **warm-start a dual simplex** from
//!   the parent's optimal basis instead of re-solving from scratch — a pure
//!   performance lever (every warm answer is re-verified or re-solved cold),
//!   toggled by [`SolveOptions::warm_start`]. A caller can also start a
//!   solve's first root LP from the cut-free root basis of an earlier solve
//!   of a model with the same columns ([`Model::solve_seeded`],
//!   [`SolveStats::root_basis`]); the solver itself keeps no state from
//!   one solve to the next. Before its LP, each node runs
//!   activity-based bound propagation whose implied bounds on integral
//!   columns round inward by the search's integrality tolerance. Besides
//!   the LP's rows it propagates rows no LP sees: the cutoff row
//!   `c·x ≤ incumbent − 1e-9`, lowered at each new incumbent, and every
//!   implication root probing learned. A node whose box it proves to hold
//!   no integer point that beats the incumbent is settled without its LP
//!   ([`SolveStats::propagated_nodes`]). No incumbent could come from
//!   below such a node, and every LP that still runs sees the same bounds
//!   and warm start, so a search that finishes returns the same answer
//!   with fewer nodes, and one that a node limit stops returns the same
//!   incumbent or a strictly better one.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y <= 4`, `x + 3y <= 6`, `x, y >= 0`:
//!
//! ```
//! use fp_milp::{Model, Sense};
//!
//! # fn main() -> Result<(), fp_milp::SolveError> {
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_continuous("x", 0.0, f64::INFINITY);
//! let y = m.add_continuous("y", 0.0, f64::INFINITY);
//! m.add_le(x + y, 4.0);
//! m.add_le(x + 3.0 * y, 6.0);
//! m.set_objective(3.0 * x + 2.0 * y);
//! let sol = m.solve()?;
//! assert!((sol.objective() - 12.0).abs() < 1e-6); // x = 4, y = 0
//! # Ok(())
//! # }
//! ```
//!
//! Integer variables turn the model into a MILP transparently:
//!
//! ```
//! use fp_milp::{Model, Sense};
//!
//! # fn main() -> Result<(), fp_milp::SolveError> {
//! let mut m = Model::new(Sense::Maximize);
//! let items = [(3.0, 4.0), (4.0, 5.0), (5.0, 6.0)]; // (weight, value)
//! let take: Vec<_> = (0..3).map(|i| m.add_binary(format!("t{i}"))).collect();
//! let weight = take.iter().zip(&items).map(|(&t, &(w, _))| w * t).sum::<fp_milp::LinExpr>();
//! m.add_le(weight, 8.0);
//! let value = take.iter().zip(&items).map(|(&t, &(_, v))| v * t).sum::<fp_milp::LinExpr>();
//! m.set_objective(value);
//! let sol = m.solve()?;
//! assert!((sol.objective() - 10.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod error;
mod expr;
mod model;
mod options;
mod presolve;
mod simplex;
mod solution;
mod sparse;
#[doc(hidden)]
pub mod test_support;
mod var;

pub use error::SolveError;
pub use expr::LinExpr;
pub use model::{Cmp, Constraint, Model, Sense};
pub use options::{SolveOptions, StopFlag};
pub use solution::{Optimality, RootBasis, Solution, SolveStats};
pub use var::{Var, VarKind};

//! A self-contained linear and 0-1 mixed-integer linear programming solver.
//!
//! The DAC 1990 paper *"An Analytical Approach to Floorplan Design and
//! Optimization"* (Sutanthavibul, Shragowitz, Rosen) solves each successive
//! augmentation step of its floorplanner by calling the commercial **LINDO**
//! package as a procedure. This crate is the open substitute for LINDO: an
//! exact solver for small-to-medium mixed 0-1 linear programs built on
//!
//! * a **two-phase, bounded-variable primal simplex** — by default a sparse
//!   revised implementation with an LU-factorized basis and eta-file updates
//!   (the `sparse` module), with the original dense-tableau engine kept as a
//!   differential reference behind [`SolveOptions::sparse`] — and
//! * a **branch-and-bound** search on the integer variables with
//!   most-fractional / user-priority branching, depth-first diving for early
//!   incumbents, and node / time limits that return the best incumbent found
//!   (the `branch` module). Child nodes **warm-start a dual simplex** from
//!   the parent's optimal basis instead of re-solving from scratch — a pure
//!   performance lever (every warm answer is re-verified or re-solved cold),
//!   toggled by [`SolveOptions::warm_start`].
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

mod basis_store;
mod branch;
mod error;
mod expr;
mod lp_format;
mod lp_parse;
mod model;
mod options;
mod presolve;
mod simplex;
mod solution;
mod sparse;
#[doc(hidden)]
pub mod test_support;
mod var;

pub use basis_store::{BasisStore, BasisTier};
pub use error::SolveError;
pub use expr::LinExpr;
pub use lp_parse::parse_lp;
pub use model::{Cmp, Constraint, Model, Sense};
pub use options::{SolveOptions, SparseMode, StopFlag};
pub use solution::{Optimality, Solution, SolveStats};
pub use var::{Var, VarKind};

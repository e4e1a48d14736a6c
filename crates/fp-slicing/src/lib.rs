//! Slicing floorplanner after Wong & Liu (DAC 1986) — the prior-art
//! baseline.
//!
//! The DAC 1990 paper positions its analytical (MILP) method against the
//! then-dominant **slicing** floorplanners, chiefly Wong & Liu's simulated
//! annealing over *normalized Polish expressions* (\[WON86\] in the paper's
//! §2.1). This crate implements that baseline so the benchmark harness can
//! compare both on the same problems:
//!
//! * [`PolishExpression`] — a normalized postfix encoding of a slicing
//!   tree (operands = modules, operators `H`/`V`), with the classic three
//!   move types (swap adjacent operands, complement an operator chain,
//!   swap an adjacent operand/operator pair subject to normalization);
//! * [`ShapeCurve`] — Pareto-minimal `(w, h)` lists per subtree, combined
//!   bottom-up (`V`: widths add, heights max; `H`: vice versa), supporting
//!   rigid, rotatable and flexible modules;
//! * [`SlicingAnnealer`] — a seeded simulated-annealing driver producing a
//!   [`Floorplan`](fp_core::Floorplan) comparable with the MILP
//!   floorplanner's output.
//!
//! # Example
//!
//! ```
//! use fp_slicing::SlicingAnnealer;
//!
//! let netlist = fp_netlist::generator::ProblemGenerator::new(8, 3).generate();
//! let result = SlicingAnnealer::new(&netlist).with_seed(7).run();
//! assert!(result.floorplan.is_valid());
//! assert_eq!(result.floorplan.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod curve;
mod polish;

pub use anneal::{SlicingAnnealer, SlicingResult};
pub use curve::{ShapeCurve, ShapePoint};
pub use polish::{Element, PolishExpression};

//! Rectilinear geometry for the DAC'90 analytical floorplanner.
//!
//! Provides the geometric substrate the floorplanner and router are built
//! on: axis-aligned rectangles ([`Rect`]), skyline step functions over a set
//! of placed rectangles ([`Skyline`]), exact union areas, and — centrally —
//! the paper's §3.1 **covering-rectangle decomposition** ([`covering`]) that
//! collapses an already-placed partial floorplan into `d ≤ N` fixed
//! rectangles so each successive-augmentation MILP keeps a near-constant
//! number of integer variables.
//!
//! # Example
//!
//! ```
//! use fp_geom::{Rect, covering::covering_rectangles};
//!
//! // Two stacked modules and one beside them (flat bottom, like Fig. 4).
//! let placed = vec![
//!     Rect::new(0.0, 0.0, 4.0, 2.0),
//!     Rect::new(0.0, 2.0, 3.0, 2.0),
//!     Rect::new(4.0, 0.0, 2.0, 3.0),
//! ];
//! let covers = covering_rectangles(&placed);
//! assert!(covers.len() <= placed.len());
//! // Every module is fully covered by the union of the covers.
//! for m in &placed {
//!     let covered: f64 = covers.iter().map(|c| c.intersection_area(m)).sum();
//!     assert!(covered >= m.area() - 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod contour;
pub mod covering;
mod grid;
mod point;
mod rect;
mod skyline;

pub use area::{union_area, union_area_oracle};
pub use contour::Contour;
pub use grid::BinGrid;
pub use point::Point;
pub use rect::Rect;
pub use skyline::Skyline;

/// Geometric comparison tolerance used across the workspace.
pub const GEOM_EPS: f64 = 1e-6;

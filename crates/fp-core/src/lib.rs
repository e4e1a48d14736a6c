//! MILP-based general floorplanning by successive augmentation.
//!
//! This crate is the primary contribution of *"An Analytical Approach to
//! Floorplan Design and Optimization"* (Sutanthavibul, Shragowitz, Rosen,
//! DAC 1990), rebuilt as a Rust library:
//!
//! * the 0-1 mixed integer programming formulation of non-overlapping
//!   placement — system (2) — with optional 90° rotation (formulation (4))
//!   and flexible (soft) modules via linearized `h = S/w` (formulations
//!   (6)–(8), Fig. 1) — [`formulation`-internal, driven by
//!   `Floorplanner`](Floorplanner);
//! * **successive augmentation** (Fig. 3): modules are added a few at a
//!   time, the partial floorplan is collapsed into covering rectangles
//!   (`fp_geom::covering`), and each step is solved optimally;
//! * **one flow**: [`Floorplanner::run`] runs augmentation, then the
//!   "adjust floorplan" rounds of [`Floorplanner::with_improvement`]; the
//!   CLI, the facade's `Pipeline`, fp-serve and fp-bench all enter here.
//!   Each augmentation step starts its root LP from the root basis of
//!   the run's latest earlier step with the same column count, and no
//!   solver state crosses runs, so every caller gets one answer per
//!   instance at the same options;
//! * §3.2 routing **envelopes**: module sides grow proportionally to their
//!   pin counts so the MILP reserves routing space;
//! * §2.5 **given-topology optimization**: with relations fixed, all
//!   integer variables vanish and a single LP re-optimizes coordinates and
//!   soft shapes ([`optimize_topology`]) — usable as global compaction; it
//!   keeps only the rows no chain of other relations implies;
//! * a bottom-left greedy [`baseline`](bottom_left) used as warm start,
//!   fallback, and comparison point.
//!
//! # Quickstart
//!
//! ```
//! use fp_core::{Floorplanner, FloorplanConfig, Objective};
//!
//! # fn main() -> Result<(), fp_core::FloorplanError> {
//! let netlist = fp_netlist::generator::ProblemGenerator::new(6, 7).generate();
//! let config = FloorplanConfig::default()
//!     .with_objective(Objective::AreaPlusWirelength { lambda: 0.5 })
//!     # .with_step_options(fp_milp::SolveOptions::default().with_node_limit(500))
//!     ;
//! let result = Floorplanner::with_config(&netlist, config).run()?;
//! assert!(result.floorplan.is_valid());
//! println!("chip {}x{}, utilization {:.1}%",
//!     result.floorplan.chip_width(),
//!     result.floorplan.chip_height(),
//!     100.0 * result.floorplan.utilization(&netlist));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
mod config;
mod eco;
mod envelope;
mod error;
mod formulation;
mod greedy;
mod improve;
mod placement;
mod step;
mod topology;

pub use augment::{
    derive_chip_width, FloorplanResult, Floorplanner, RunStats, StepKind, StepOutcome, StepStats,
};
pub use config::{FloorplanConfig, Objective, OrderingStrategy, SoftShapeModel};
pub use eco::{eco_replace, EcoOutcome};
pub use error::FloorplanError;
pub use fp_milp::StopFlag;
pub use greedy::{bottom_left, legalize, LegalizeItem};
pub use improve::{improve, improve_traced, reoptimize_top};
pub use placement::{Floorplan, PlacedModule};
pub use topology::{extract_topology, optimize_topology, Relation};

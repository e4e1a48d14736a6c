//! Graph-based global routing over the channel position graph (paper §3.2).
//!
//! The paper's routing model:
//!
//! * **Generalized pins** — instead of exact pin coordinates, one pin per
//!   module *side* ([`pins`]); a net connects the nearest generalized pins
//!   of its modules.
//! * **Channel position graph** — the free space of the floorplan (plus the
//!   §3.2 envelope margins) is partitioned into cells by the module edge
//!   coordinates; adjacent cells are connected by edges whose capacity is
//!   the number of routing tracks the shared boundary can carry
//!   ([`RoutingGrid`]).
//! * **Shortest path / weighted shortest path** — nets are routed in
//!   criticality order by Dijkstra, or by A* with a landmark lower bound
//!   where every edge is open; the weighted variant multiplies edge costs
//!   by a penalty once utilization exceeds the preliminary capacity
//!   ([`route`]).
//! * **Channel adjustment** — after routing, channel widths grow to
//!   accommodate the realized usage and the final chip area is computed
//!   ([`ChipAdjustment`]).
//!
//! Two routing modes mirror the paper's two experiment series:
//! over-the-cell (Table 2; wires may cross modules freely) and
//! around-the-cell (Table 3; module interiors are strongly penalized and
//! carry no capacity).
//!
//! # Example
//!
//! ```
//! use fp_core::{Floorplanner, FloorplanConfig};
//! use fp_route::{route, RouteConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = fp_netlist::generator::ProblemGenerator::new(6, 3).generate();
//! # let cfg = FloorplanConfig::default()
//! #     .with_step_options(fp_milp::SolveOptions::default().with_node_limit(400));
//! # let result = Floorplanner::with_config(&netlist, cfg).run()?;
//! let routing = route(&result.floorplan, &netlist, &RouteConfig::default())?;
//! assert_eq!(routing.routes.len(), netlist.num_nets());
//! assert!(routing.total_wirelength > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjust;
mod config;
mod error;
mod grid;
pub mod pins;
mod report;
mod router;

pub use adjust::ChipAdjustment;
pub use config::{RouteAlgorithm, RouteConfig, RoutingMode};
pub use error::RouteError;
pub use grid::{CellId, GridEdge, RoutingGrid};
pub use report::RouteReport;
pub use router::{route, RoutedNet, RoutingResult};

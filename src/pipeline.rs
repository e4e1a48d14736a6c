//! One-call orchestration of the full paper flow:
//! floorplan (successive augmentation) → adjust (top re-optimization +
//! §2.5 compaction) → global route → channel adjustment. The first two
//! stages are fp-core's flow entry point
//! ([`Floorplanner::with_improvement`]); routing stays in fp-route.

use fp_core::{Floorplan, FloorplanConfig, FloorplanError, Floorplanner, RunStats};
use fp_netlist::Netlist;
use fp_route::{route, RouteConfig, RouteError, RoutingResult};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Error from any stage of the [`Pipeline`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Floorplanning or improvement failed.
    Floorplan(FloorplanError),
    /// Global routing failed.
    Route(RouteError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Floorplan(e) => write!(f, "floorplan stage: {e}"),
            PipelineError::Route(e) => write!(f, "routing stage: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Floorplan(e) => Some(e),
            PipelineError::Route(e) => Some(e),
        }
    }
}

impl From<FloorplanError> for PipelineError {
    fn from(e: FloorplanError) -> Self {
        PipelineError::Floorplan(e)
    }
}

impl From<RouteError> for PipelineError {
    fn from(e: RouteError) -> Self {
        PipelineError::Route(e)
    }
}

/// The complete output of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The final (adjusted) floorplan.
    pub floorplan: Floorplan,
    /// Routing result, when routing was enabled.
    pub routing: Option<RoutingResult>,
    /// Step statistics of augmentation and improvement.
    pub stats: RunStats,
    /// End-to-end wall time.
    pub elapsed: Duration,
}

impl PipelineReport {
    /// Final chip area: post-routing (channel-adjusted) when routed,
    /// placement area otherwise.
    #[must_use]
    pub fn final_chip_area(&self) -> f64 {
        match &self.routing {
            Some(r) => r.adjustment.final_area(),
            None => self.floorplan.chip_area(),
        }
    }
}

/// Builder for the full flow (non-consuming, per C-BUILDER).
///
/// ```
/// use analytical_floorplan::Pipeline;
///
/// # fn main() -> Result<(), analytical_floorplan::PipelineError> {
/// let netlist = analytical_floorplan::netlist::generator::ProblemGenerator::new(6, 9).generate();
/// let mut pipeline = Pipeline::new();
/// pipeline.improve_rounds(2).route(Default::default());
/// # pipeline.floorplan_config(
/// #     fp_core::FloorplanConfig::default().with_step_options(
/// #         fp_milp::SolveOptions::default().with_node_limit(400)));
/// let report = pipeline.run(&netlist)?;
/// assert!(report.floorplan.is_valid());
/// assert!(report.routing.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    floorplan: FloorplanConfig,
    improve_config: Option<FloorplanConfig>,
    improve_rounds: usize,
    route: Option<RouteConfig>,
}

impl Pipeline {
    /// A pipeline with default floorplanning, no improvement rounds and no
    /// routing.
    #[must_use]
    pub fn new() -> Self {
        Pipeline {
            floorplan: FloorplanConfig::default(),
            improve_config: None,
            improve_rounds: 0,
            route: None,
        }
    }

    /// Sets the floorplanning configuration.
    pub fn floorplan_config(&mut self, config: FloorplanConfig) -> &mut Self {
        self.floorplan = config;
        self
    }

    /// Enables `rounds` of best-effort post-pass improvement (top/band
    /// re-optimization alternated with §2.5 compaction). They are skipped
    /// past the improvement configuration's deadline or stop flag, and an
    /// improvement error keeps the augmented floorplan.
    pub fn improve_rounds(&mut self, rounds: usize) -> &mut Self {
        self.improve_rounds = rounds;
        self
    }

    /// Overrides the solver budget for the improvement MILPs (they benefit
    /// from a larger binary allowance than augmentation steps).
    pub fn improve_config(&mut self, config: FloorplanConfig) -> &mut Self {
        self.improve_config = Some(config);
        self
    }

    /// Enables global routing with the given configuration.
    pub fn route(&mut self, config: RouteConfig) -> &mut Self {
        self.route = Some(config);
        self
    }

    /// Runs the configured stages on `netlist`.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] naming the failing stage.
    pub fn run(&self, netlist: &Netlist) -> Result<PipelineReport, PipelineError> {
        let started = Instant::now();
        let result = Floorplanner::with_config(netlist, self.floorplan.clone())
            .with_improvement(self.improve_rounds, self.improve_config.clone())
            .run()?;
        let routing = match &self.route {
            Some(route_cfg) => Some(route(&result.floorplan, netlist, route_cfg)?),
            None => None,
        };
        Ok(PipelineReport {
            floorplan: result.floorplan,
            routing,
            stats: result.stats,
            elapsed: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_milp::SolveOptions;
    use fp_netlist::generator::ProblemGenerator;

    fn fast() -> FloorplanConfig {
        FloorplanConfig::default().with_step_options(
            SolveOptions::default()
                .with_node_limit(300)
                .with_time_limit(Duration::from_millis(400)),
        )
    }

    #[test]
    fn stages_compose() {
        let nl = ProblemGenerator::new(7, 12).generate();
        let mut p = Pipeline::new();
        p.floorplan_config(fast())
            .improve_rounds(1)
            .route(RouteConfig::default());
        let report = p.run(&nl).unwrap();
        assert!(report.floorplan.is_valid());
        let routing = report.routing.as_ref().unwrap();
        assert_eq!(routing.routes.len(), nl.num_nets());
        assert!(report.final_chip_area() >= report.floorplan.chip_area() - 1e-6);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn routing_disabled_by_default() {
        let nl = ProblemGenerator::new(5, 1).generate();
        let mut p = Pipeline::new();
        p.floorplan_config(fast());
        let report = p.run(&nl).unwrap();
        assert!(report.routing.is_none());
        assert_eq!(report.final_chip_area(), report.floorplan.chip_area());
    }

    #[test]
    fn errors_name_the_stage() {
        let nl = fp_netlist::Netlist::new("empty");
        let p = Pipeline::new();
        match p.run(&nl) {
            Err(PipelineError::Floorplan(FloorplanError::EmptyNetlist)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let e = PipelineError::from(RouteError::EmptyFloorplan);
        assert!(e.to_string().contains("routing stage"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

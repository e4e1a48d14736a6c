//! Floorplanner error type.

use std::error::Error;
use std::fmt;

/// Errors raised by the floorplanning pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FloorplanError {
    /// A module is wider than the chip in every legal orientation/shape, so
    /// no placement can exist.
    ModuleTooWide {
        /// Module name.
        module: String,
        /// The module's minimum feasible width.
        min_width: f64,
        /// The configured chip width.
        chip_width: f64,
    },
    /// The netlist has no modules.
    EmptyNetlist,
    /// A custom ordering did not cover every module exactly once.
    InvalidOrdering(String),
    /// The underlying MILP solver failed in a way the driver cannot recover
    /// from (e.g. a structurally invalid model — a bug, not an input error).
    Solver(fp_milp::SolveError),
    /// A topology re-optimization was asked for a module set that does not
    /// match the floorplan.
    TopologyMismatch(String),
    /// The run was cancelled cooperatively: its stop flag was raised. Not a
    /// failure of the instance: another backend's result should be used.
    Cancelled(String),
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::ModuleTooWide {
                module,
                min_width,
                chip_width,
            } => write!(
                f,
                "module '{module}' needs width {min_width} but chip is only {chip_width} wide"
            ),
            FloorplanError::EmptyNetlist => write!(f, "netlist has no modules"),
            FloorplanError::InvalidOrdering(why) => write!(f, "invalid ordering: {why}"),
            FloorplanError::Solver(e) => write!(f, "MILP solver failure: {e}"),
            FloorplanError::TopologyMismatch(why) => write!(f, "topology mismatch: {why}"),
            FloorplanError::Cancelled(why) => write!(f, "cancelled: {why}"),
        }
    }
}

impl Error for FloorplanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FloorplanError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fp_milp::SolveError> for FloorplanError {
    fn from(e: fp_milp::SolveError) -> Self {
        FloorplanError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FloorplanError::ModuleTooWide {
            module: "ram".into(),
            min_width: 40.0,
            chip_width: 30.0,
        };
        assert!(e.to_string().contains("ram"));
        let s: FloorplanError = fp_milp::SolveError::Infeasible(Box::default()).into();
        assert!(std::error::Error::source(&s).is_some());
    }
}

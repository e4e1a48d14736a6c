//! Solver error types.

use crate::solution::SolveStats;
use std::error::Error;
use std::fmt;

/// Reasons a [`Model::solve`](crate::Model::solve) call can fail to produce a
/// solution.
///
/// Every reason but [`InvalidModel`](Self::InvalidModel) comes from a solve
/// that ran, and carries the [`SolveStats`] it gathered up to the failure
/// (see [`SolveError::stats`]), so a failed solve's nodes and pivots still
/// count.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The constraint system admits no feasible point, or, under an
    /// [`initial_upper_bound`](crate::SolveOptions::initial_upper_bound),
    /// none strictly better than it.
    Infeasible(Box<SolveStats>),
    /// The objective is unbounded in the optimization direction.
    Unbounded(Box<SolveStats>),
    /// A node, iteration or time limit, or the stop flag, ended the search
    /// before any integer-feasible incumbent was found. (If an incumbent
    /// exists, `solve` returns it with
    /// [`Optimality::Limit`](crate::Optimality::Limit) instead.)
    LimitWithoutIncumbent(Box<SolveStats>),
    /// The simplex exceeded its iteration safety cap — typically a sign of a
    /// badly scaled model.
    IterationLimit(Box<SolveStats>),
    /// The model is structurally invalid (e.g. a variable with `lb > ub`, or a
    /// non-finite coefficient). The payload describes the defect.
    InvalidModel(String),
}

impl SolveError {
    /// The statistics of the failed solve; `None` for
    /// [`InvalidModel`](Self::InvalidModel), which fails before solving.
    #[must_use]
    pub fn stats(&self) -> Option<&SolveStats> {
        match self {
            SolveError::Infeasible(stats)
            | SolveError::Unbounded(stats)
            | SolveError::LimitWithoutIncumbent(stats)
            | SolveError::IterationLimit(stats) => Some(stats),
            SolveError::InvalidModel(_) => None,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible(_) => write!(f, "model is infeasible"),
            SolveError::Unbounded(_) => write!(f, "objective is unbounded"),
            SolveError::LimitWithoutIncumbent(_) => {
                write!(
                    f,
                    "search limit reached before any feasible integer solution"
                )
            }
            SolveError::IterationLimit(_) => write!(f, "simplex iteration limit exceeded"),
            SolveError::InvalidModel(why) => write!(f, "invalid model: {why}"),
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let infeasible = SolveError::Infeasible(Box::default());
        assert_eq!(infeasible.to_string(), "model is infeasible");
        assert_eq!(infeasible.stats(), Some(&SolveStats::default()));
        assert!(SolveError::InvalidModel("lb > ub".into())
            .to_string()
            .contains("lb > ub"));
        assert!(SolveError::InvalidModel(String::new()).stats().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolveError>();
    }
}

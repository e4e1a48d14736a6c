//! One step MILP of the paper's Fig. 3 loop: the one copy that
//! augmentation, ECO re-placement and top/band re-optimization share.
//! Each caller keeps only its own policy for a solve that failed.

use crate::augment::{StepKind, StepOutcome, StepStats};
use crate::formulation::{StepInput, StepModel};
use crate::greedy::{realize_greedy, GreedyPlacement};
use crate::placement::PlacedModule;
use fp_milp::{BasisTier, Optimality, SolveError};
use std::time::Instant;

/// What one step MILP produced.
pub(crate) struct SolvedStep {
    /// The MILP's placement of the group, or the realized greedy witness
    /// when the solve failed.
    pub placements: Vec<PlacedModule>,
    pub stats: StepStats,
    /// How the root LP was seeded from a cross-solve basis store.
    pub basis: BasisTier,
    /// Why the solve failed (the outcome is then `GreedyFallback`).
    pub error: Option<SolveError>,
}

/// Builds the step MILP of `input`, solves it with the budgeted step
/// options, and records it as a `kind` step timed over build plus solve.
/// `greedy` is the witness behind `input.h_ub`. A failed solve records
/// the statistics its error carries, so a traced and an untraced run
/// count the same work.
pub(crate) fn solve_step(
    kind: StepKind,
    input: &StepInput<'_>,
    greedy: &[GreedyPlacement],
) -> SolvedStep {
    let started = Instant::now();
    let tracer = &input.config.tracer;
    let step = StepModel::build(input);
    // Budgeted after the build: with a config deadline the limit is the
    // wall clock *remaining*, so K steps cannot overshoot it K-fold.
    let options = input.config.budgeted_step_options();
    let (placements, outcome, solve, error) = match step.model.solve_traced(&options, tracer) {
        Ok(sol) => {
            let outcome = match sol.optimality() {
                Optimality::Proven => StepOutcome::Optimal,
                Optimality::Limit => StepOutcome::Incumbent,
            };
            let stats = sol.stats().clone();
            (step.extract(&sol, input.group), outcome, stats, None)
        }
        Err(e) => {
            let stats = e.stats().cloned().unwrap_or_default();
            let greedy = realize_greedy(greedy, input.group);
            (greedy, StepOutcome::GreedyFallback, stats, Some(e))
        }
    };
    let group = input.group.iter().map(|s| s.id).collect();
    let binaries = step.model.num_integer_vars();
    SolvedStep {
        placements,
        stats: StepStats::new(
            kind,
            group,
            input.obstacles.len(),
            binaries,
            &solve,
            started.elapsed(),
            outcome,
        ),
        basis: solve.basis_tier,
        error,
    }
}

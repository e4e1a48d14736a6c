//! One step MILP of the paper's Fig. 3 loop: the one copy that
//! augmentation, ECO re-placement and top/band re-optimization share.
//! Each caller keeps only its own policy for a solve that failed.

use crate::augment::{StepKind, StepOutcome, StepStats};
use crate::formulation::{StepInput, StepModel};
use crate::greedy::{realize_greedy, GreedyPlacement};
use crate::placement::PlacedModule;
use fp_milp::{Optimality, RootBasis, SolveError};
use std::collections::HashMap;
use std::time::Instant;

/// The root bases of a run's earlier step MILPs, one per column count:
/// the latest step of each count that reported one. Step models of equal
/// column count share their variable space, so a later step of that count
/// starts its root LP from the stored basis.
pub(crate) type Seeds = HashMap<usize, RootBasis>;

/// What one step MILP produced.
pub(crate) struct SolvedStep {
    /// The MILP's placement of the group, or the realized greedy witness
    /// when the solve failed.
    pub placements: Vec<PlacedModule>,
    pub stats: StepStats,
    /// Why the solve failed (the outcome is then `GreedyFallback`).
    pub error: Option<SolveError>,
}

/// Builds the step MILP of `input`, solves it with the budgeted step
/// options, and records it as a `kind` step timed over build plus solve.
/// `greedy` is the witness behind `input.h_ub`. A failed solve records
/// the statistics its error carries, so a traced and an untraced run
/// count the same work.
///
/// With `seeds`, the solve starts its root LP from the stored basis of
/// the model's column count, if any, and leaves its own root basis there
/// for the next step of that count, whether or not the solve succeeded.
pub(crate) fn solve_step(
    kind: StepKind,
    input: &StepInput<'_>,
    greedy: &[GreedyPlacement],
    seeds: Option<&mut Seeds>,
) -> SolvedStep {
    let started = Instant::now();
    let tracer = &input.config.tracer;
    let step = StepModel::build(input);
    #[cfg(test)]
    tests::record(&step.model);
    // Budgeted after the build: with a config deadline the limit is the
    // wall clock *remaining*, so K steps cannot overshoot it K-fold.
    let options = input.config.budgeted_step_options();
    let columns = step.model.num_vars();
    let seed = seeds.as_deref().and_then(|seeds| seeds.get(&columns));
    let solved = step.model.solve_seeded(&options, tracer, seed);
    let (placements, outcome, solve, error) = match solved {
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
    if let (Some(seeds), Some(basis)) = (seeds, &solve.root_basis) {
        seeds.insert(columns, basis.clone());
    }
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
        error,
    }
}

#[cfg(test)]
mod tests {
    use crate::{FloorplanConfig, Floorplanner};
    use fp_milp::{Model, SolveOptions};
    use std::cell::RefCell;

    thread_local! {
        /// The step models this thread built while a test records them.
        static RECORDED: RefCell<Option<Vec<Model>>> = const { RefCell::new(None) };
    }

    /// Keeps a copy of `model` when the thread is recording.
    pub(super) fn record(model: &Model) {
        RECORDED.with(|r| {
            if let Some(models) = r.borrow_mut().as_mut() {
                models.push(model.clone());
            }
        });
    }

    /// Root probing's dirty-row sweep must strengthen every step model of
    /// the paper's flow exactly as a sweep over every row does: the same
    /// rows, bounds and learned implications, bit for bit.
    #[test]
    fn probing_sweeps_match_the_full_sweep_on_every_ami33_step() {
        RECORDED.with(|r| *r.borrow_mut() = Some(Vec::new()));
        let config = FloorplanConfig::default()
            .with_step_options(SolveOptions::default().with_node_limit(4000));
        Floorplanner::with_config(&fp_netlist::ami33(), config)
            .with_improvement(1, None)
            .run()
            .expect("the flow succeeds");
        let models = RECORDED.with(|r| r.borrow_mut().take()).expect("recorded");
        assert!(models.len() > 11, "only {} step models", models.len());
        for (i, model) in models.iter().enumerate() {
            if let Err(e) = fp_milp::test_support::strengthen_matches_full_sweep(model) {
                panic!("step model {i}: {e}");
            }
        }
    }
}

//! The successive-augmentation driver (paper Fig. 3, `FloorplanDesign`).
//!
//! ```text
//! (1) select a seed group of m modules
//! (2,3) solve its MILP exactly → first partial floorplan
//! (4..11) while modules remain:
//!     select the next group (ordering strategy),
//!     replace the partial floorplan by d ≤ N covering rectangles,
//!     solve the (d fixed, e free) MILP, fix the new positions
//! (12,13) global routing + adjustment live in `fp-route`
//! ```
//!
//! Group sizes adapt so each step's 0-1 variable count stays below
//! [`FloorplanConfig::max_binaries`] — the paper's "number of variables
//! close to a constant in each step", which is what makes the whole run
//! linear in the number of modules (Table 1).

use crate::config::{FloorplanConfig, OrderingStrategy};
use crate::envelope::ShapeSpec;
use crate::error::FloorplanError;
use crate::formulation::{fit_group, StepInput};
use crate::greedy::{greedy_height_on, widest_error};
use crate::improve::improve_traced;
use crate::placement::{Floorplan, PlacedModule};
use crate::step::{solve_step, Seeds};
use fp_geom::covering::covering_rectangles_from_skyline;
use fp_geom::Skyline;
use fp_milp::{SolveError, SolveStats};
use fp_netlist::{ordering, ModuleId, Netlist};
use fp_obs::{Event, Phase, StepTermination};
use std::time::{Duration, Instant};

/// How one augmentation step concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step MILP was solved to proven optimality (the paper's normal
    /// case: "optimality at each step").
    Optimal,
    /// A limit stopped the search; the best incumbent was used.
    Incumbent,
    /// The MILP produced nothing in time. On a [`StepKind::Placement`]
    /// step the greedy placement stood in; on a [`StepKind::Reoptimize`]
    /// step the re-optimization kept its input floorplan unchanged, so the
    /// answer lost nothing.
    GreedyFallback,
}

impl StepOutcome {
    /// The trace-event form of this outcome.
    #[must_use]
    pub fn termination(self) -> StepTermination {
        match self {
            StepOutcome::Optimal => StepTermination::Optimal,
            StepOutcome::Incumbent => StepTermination::Incumbent,
            StepOutcome::GreedyFallback => StepTermination::GreedyFallback,
        }
    }
}

/// Which part of the pipeline a [`StepStats`] record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// An augmentation step of [`Floorplanner::run`].
    Placement,
    /// A re-optimization solve of [`improve_traced`](crate::improve_traced)
    /// / [`reoptimize_top`](crate::reoptimize_top).
    Reoptimize,
}

/// Statistics of one augmentation step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepStats {
    /// Where this step ran (augmentation vs re-optimization).
    pub kind: StepKind,
    /// Modules placed in this step.
    pub group: Vec<ModuleId>,
    /// Number of covering rectangles the partial floorplan collapsed to.
    pub obstacles: usize,
    /// 0-1 variables in the step MILP.
    pub binaries: usize,
    /// Branch-and-bound nodes explored, so that
    /// `warm_nodes + cold_nodes + propagated_nodes == nodes`.
    pub nodes: usize,
    /// Total simplex pivots.
    pub simplex_iterations: usize,
    /// Branch-and-bound nodes solved warm from the parent basis.
    pub warm_nodes: usize,
    /// Branch-and-bound nodes solved by the cold two-phase primal.
    pub cold_nodes: usize,
    /// Branch-and-bound nodes settled without an LP, because bound
    /// propagation proved that their box holds no integer point.
    pub propagated_nodes: usize,
    /// Basis LU (re)factorizations across this step's node LPs.
    pub refactorizations: usize,
    /// Eta-file basis updates across this step's node LPs.
    pub eta_updates: usize,
    /// Rows whose big-M coefficients the root strengthening layer
    /// tightened in this step's MILP.
    pub rows_tightened: usize,
    /// Binaries fixed by root 0-1 probing.
    pub binaries_fixed: usize,
    /// Cutting planes appended to the step's root LP.
    pub cuts_added: usize,
    /// Wall time of the step (model build + solve).
    pub elapsed: Duration,
    /// How the step concluded.
    pub outcome: StepOutcome,
}

impl StepStats {
    /// The record of one step, with the solver counters taken from
    /// `solve` (all zero for a step no MILP finished).
    pub(crate) fn new(
        kind: StepKind,
        group: Vec<ModuleId>,
        obstacles: usize,
        binaries: usize,
        solve: &SolveStats,
        elapsed: Duration,
        outcome: StepOutcome,
    ) -> Self {
        StepStats {
            kind,
            group,
            obstacles,
            binaries,
            nodes: solve.nodes,
            simplex_iterations: solve.simplex_iterations,
            warm_nodes: solve.warm_nodes,
            cold_nodes: solve.cold_nodes,
            propagated_nodes: solve.propagated_nodes,
            refactorizations: solve.refactorizations,
            eta_updates: solve.eta_updates,
            rows_tightened: solve.rows_tightened,
            binaries_fixed: solve.binaries_fixed,
            cuts_added: solve.cuts_added,
            elapsed,
            outcome,
        }
    }
}

/// Statistics of a whole floorplanning run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Per-step records, in execution order.
    pub steps: Vec<StepStats>,
    /// End-to-end wall time.
    pub elapsed: Duration,
}

impl RunStats {
    /// Placement steps that fell back to greedy placement. A
    /// re-optimization that found nothing keeps its input, so it does not
    /// count.
    #[must_use]
    pub fn greedy_fallbacks(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.kind == StepKind::Placement && s.outcome == StepOutcome::GreedyFallback)
            .count()
    }

    /// Total branch-and-bound nodes over all steps — augmentation *and*
    /// re-optimization solves recorded by
    /// [`improve_traced`](crate::improve_traced).
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.steps.iter().map(|s| s.nodes).sum()
    }

    /// Branch-and-bound nodes of steps of one [`StepKind`].
    #[must_use]
    pub fn nodes_of_kind(&self, kind: StepKind) -> usize {
        self.steps
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.nodes)
            .sum()
    }

    /// Largest per-step binary count (the paper's "close to a constant").
    #[must_use]
    pub fn max_binaries(&self) -> usize {
        self.steps.iter().map(|s| s.binaries).max().unwrap_or(0)
    }

    /// Branch-and-bound nodes solved warm from a parent basis, over all
    /// steps. Together with [`cold_nodes`](Self::cold_nodes) and
    /// [`propagated_nodes`](Self::propagated_nodes) this partitions
    /// [`total_nodes`](Self::total_nodes).
    #[must_use]
    pub fn warm_nodes(&self) -> usize {
        self.steps.iter().map(|s| s.warm_nodes).sum()
    }

    /// Branch-and-bound nodes solved by the cold two-phase primal, over
    /// all steps.
    #[must_use]
    pub fn cold_nodes(&self) -> usize {
        self.steps.iter().map(|s| s.cold_nodes).sum()
    }

    /// Branch-and-bound nodes that bound propagation settled without an
    /// LP, over all steps.
    #[must_use]
    pub fn propagated_nodes(&self) -> usize {
        self.steps.iter().map(|s| s.propagated_nodes).sum()
    }

    /// Basis LU (re)factorizations performed by the sparse revised simplex,
    /// over all steps.
    #[must_use]
    pub fn refactorizations(&self) -> usize {
        self.steps.iter().map(|s| s.refactorizations).sum()
    }

    /// Eta-file basis updates recorded by the sparse revised simplex, over
    /// all steps.
    #[must_use]
    pub fn eta_updates(&self) -> usize {
        self.steps.iter().map(|s| s.eta_updates).sum()
    }

    /// Rows tightened by the root strengthening layer, over all steps.
    #[must_use]
    pub fn rows_tightened(&self) -> usize {
        self.steps.iter().map(|s| s.rows_tightened).sum()
    }

    /// Binaries fixed by root probing, over all steps.
    #[must_use]
    pub fn binaries_fixed(&self) -> usize {
        self.steps.iter().map(|s| s.binaries_fixed).sum()
    }

    /// Root cutting planes added, over all steps.
    #[must_use]
    pub fn cuts_added(&self) -> usize {
        self.steps.iter().map(|s| s.cuts_added).sum()
    }
}

/// A completed run: the floorplan plus how it was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanResult {
    /// The floorplan.
    pub floorplan: Floorplan,
    /// Run statistics.
    pub stats: RunStats,
}

/// The MILP floorplanner (paper's contribution) and the one entry point
/// of the paper's Fig. 3 flow: successive augmentation, then optional
/// improvement rounds ("adjust floorplan").
///
/// A run's answer depends only on the netlist and the configuration: the
/// step MILPs have many optima of equal cost, and the one each returns
/// depends on where its root LP starts, so augmentation seeds each step
/// from the run's own earlier steps and from nothing else (see
/// [`run`](Self::run)). Only a time limit, deadline or stop flag that
/// binds can make two runs differ.
///
/// ```
/// use fp_core::{Floorplanner, FloorplanConfig, StepKind};
/// # fn main() -> Result<(), fp_core::FloorplanError> {
/// let netlist = fp_netlist::generator::ProblemGenerator::new(6, 1).generate();
/// // Budget each step MILP (optional; defaults are generous).
/// let config = FloorplanConfig::default()
///     .with_step_options(fp_milp::SolveOptions::default().with_node_limit(2_000));
/// let result = Floorplanner::with_config(&netlist, config)
///     .with_improvement(1, None)
///     .run()?;
/// assert!(result.floorplan.is_valid());
/// assert_eq!(result.floorplan.len(), 6);
/// assert_eq!(result.stats.steps[0].kind, StepKind::Placement);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Floorplanner<'a> {
    netlist: &'a Netlist,
    config: FloorplanConfig,
    improve_rounds: usize,
    improve_config: Option<FloorplanConfig>,
}

impl<'a> Floorplanner<'a> {
    /// A floorplanner with default configuration.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        Floorplanner::with_config(netlist, FloorplanConfig::default())
    }

    /// A floorplanner with explicit configuration.
    #[must_use]
    pub fn with_config(netlist: &'a Netlist, config: FloorplanConfig) -> Self {
        Floorplanner {
            netlist,
            config,
            improve_rounds: 0,
            improve_config: None,
        }
    }

    /// Follows augmentation with `rounds` improvement rounds (top/band
    /// re-optimization alternated with the §2.5 topology LP, as in
    /// [`improve_traced`](crate::improve_traced)) under `budget`, or under
    /// the augmentation's own configuration when `budget` is `None`. The
    /// default is 0 rounds: augmentation alone.
    ///
    /// Improvement is best-effort polish. The flow skips it once the
    /// budget's deadline has passed or its stop flag is raised, and an
    /// improvement error keeps the augmented floorplan.
    #[must_use]
    pub fn with_improvement(mut self, rounds: usize, budget: Option<FloorplanConfig>) -> Self {
        self.improve_rounds = rounds;
        self.improve_config = budget;
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &FloorplanConfig {
        &self.config
    }

    /// Runs successive augmentation to completion, then the improvement
    /// rounds set by [`with_improvement`](Self::with_improvement). The
    /// result's [`RunStats`] records every step MILP of both, placement
    /// steps first, and its `elapsed` covers the whole flow.
    ///
    /// Each augmentation step MILP starts its root LP from the cut-free
    /// root basis ([`fp_milp::SolveStats::root_basis`]) of the latest
    /// earlier augmentation step of this run whose model has the same
    /// column count; improvement steps start as their own root cut loop
    /// leaves them.
    ///
    /// # Errors
    ///
    /// * [`FloorplanError::EmptyNetlist`] for an empty problem,
    /// * [`FloorplanError::ModuleTooWide`] when a module cannot fit the chip,
    /// * [`FloorplanError::InvalidOrdering`] for a bad custom order,
    /// * [`FloorplanError::Cancelled`] when the stop flag is raised,
    /// * [`FloorplanError::Solver`] only for internal model bugs.
    pub fn run(&self) -> Result<FloorplanResult, FloorplanError> {
        let started = Instant::now();
        let (mut floorplan, mut stats) = self.augment()?;
        let budget = self.improve_config.as_ref().unwrap_or(&self.config);
        let expired = budget.deadline.is_some_and(|d| Instant::now() >= d);
        if self.improve_rounds > 0 && !expired && !budget.stop.is_set() {
            if let Ok(better) = improve_traced(
                &floorplan,
                self.netlist,
                budget,
                self.improve_rounds,
                &mut stats,
            ) {
                floorplan = better;
            }
        }
        stats.elapsed = started.elapsed();
        Ok(FloorplanResult { floorplan, stats })
    }

    /// Successive augmentation (Fig. 3 lines 1–11), its steps seeded as
    /// [`run`](Self::run) describes from a map that lives for this call.
    fn augment(&self) -> Result<(Floorplan, RunStats), FloorplanError> {
        let order = resolve_order(self.netlist, &self.config)?;
        let chip_width = resolve_chip_width(self.netlist, &self.config)?;
        let specs: Vec<ShapeSpec> = order
            .iter()
            .map(|&id| ShapeSpec::from_module(id, self.netlist.module(id), &self.config))
            .collect();

        let mut placed: Vec<PlacedModule> = Vec::with_capacity(order.len());
        // The partial floorplan's skyline, maintained incrementally: one
        // `add_rect` per placed module instead of a full rebuild per step.
        let mut sky = Skyline::new();
        let mut stats = RunStats::default();
        let mut seeds = Seeds::new();
        let mut cursor = 0usize;
        let mut target = self.config.seed_size.min(specs.len()).max(1);

        while cursor < specs.len() {
            if self.config.stop.is_set() {
                return Err(FloorplanError::Cancelled("stop flag raised".into()));
            }

            // Collapse the partial floorplan into covering rectangles
            // (§3.1) — derived from the incrementally-maintained skyline —
            // or keep every module as its own obstacle when the reduction
            // is ablated away.
            let obstacles = if self.config.covering_reduction {
                covering_rectangles_from_skyline(&sky)
            } else {
                placed.iter().map(|p| p.envelope).collect()
            };
            let floor = sky.max_height();

            // Adaptive group size: honor the target but stay under the
            // binary budget (>= 1 module per step, always).
            let take = fit_group(
                &specs[cursor..(cursor + target).min(specs.len())],
                obstacles.len(),
                self.config.max_binaries,
            );
            let group = &specs[cursor..cursor + take];

            // Greedy witness: both the incumbent fallback and the height
            // bound that keeps the MILP's big-M tight.
            let Some((greedy, h_ub)) = greedy_height_on(&sky, group, chip_width) else {
                return Err(widest_error(group, chip_width, self.netlist));
            };

            let input = StepInput {
                netlist: self.netlist,
                config: &self.config,
                chip_width,
                obstacles: &obstacles,
                placed: &placed,
                group,
                h_ub,
                floor,
                pull_down: false,
            };
            let step_index = stats.steps.len();
            let step = solve_step(StepKind::Placement, &input, &greedy, Some(&mut seeds));
            match step.error {
                Some(e @ SolveError::InvalidModel(_)) => return Err(FloorplanError::Solver(e)),
                // Infeasible cannot truly happen (the greedy witness
                // satisfies every constraint); numerical trouble and
                // limits both degrade to the greedy placement.
                Some(_) => self
                    .config
                    .tracer
                    .emit(Phase::Augment, Event::GreedyFallback { step: step_index }),
                None => {}
            }

            // Exactly one terminal event per augmentation step, after any
            // fallback marker.
            self.config.tracer.emit(
                Phase::Augment,
                Event::AugmentStep {
                    step: step_index,
                    group: take,
                    obstacles: obstacles.len(),
                    binaries: step.stats.binaries,
                    nodes: step.stats.nodes,
                    outcome: step.stats.outcome.termination(),
                },
            );
            stats.steps.push(step.stats);
            let before = placed.len();
            placed.extend(step.placements);
            for p in &placed[before..] {
                sky.add_rect(&p.envelope);
            }
            cursor += take;
            target = self.config.group_size.max(1);
        }

        Ok((Floorplan::new(chip_width, placed), stats))
    }
}

/// Resolves the module ordering per the configured strategy.
pub(crate) fn resolve_order(
    netlist: &Netlist,
    config: &FloorplanConfig,
) -> Result<Vec<ModuleId>, FloorplanError> {
    if netlist.num_modules() == 0 {
        return Err(FloorplanError::EmptyNetlist);
    }
    let order = match &config.ordering {
        OrderingStrategy::Random(seed) => ordering::random_order(netlist, *seed),
        OrderingStrategy::Connectivity => ordering::linear_order(netlist),
        OrderingStrategy::Area => ordering::area_order(netlist),
        OrderingStrategy::Custom(order) => {
            let mut seen = vec![false; netlist.num_modules()];
            for &id in order {
                if id.index() >= seen.len() || seen[id.index()] {
                    return Err(FloorplanError::InvalidOrdering(format!(
                        "module {id} out of range or repeated"
                    )));
                }
                seen[id.index()] = true;
            }
            if !seen.iter().all(|&s| s) {
                return Err(FloorplanError::InvalidOrdering(
                    "ordering does not cover every module".to_string(),
                ));
            }
            order.clone()
        }
    };
    Ok(order)
}

/// Resolves the chip width: configured, or derived from total envelope area
/// and the target utilization; always at least the widest module.
pub(crate) fn resolve_chip_width(
    netlist: &Netlist,
    config: &FloorplanConfig,
) -> Result<f64, FloorplanError> {
    if netlist.num_modules() == 0 {
        return Err(FloorplanError::EmptyNetlist);
    }
    let specs: Vec<ShapeSpec> = netlist
        .modules()
        .map(|(id, m)| ShapeSpec::from_module(id, m, config))
        .collect();
    let widest = specs
        .iter()
        .map(ShapeSpec::min_env_width)
        .fold(0.0, f64::max);
    match config.chip_width {
        Some(w) => {
            if widest > w + 1e-9 {
                Err(widest_error(&specs, w, netlist))
            } else {
                Ok(w)
            }
        }
        None => {
            let total: f64 = specs
                .iter()
                .map(|s| s.env_width(false, 0.0) * s.env_height(false, 0.0))
                .sum();
            let util = config.target_utilization.clamp(0.05, 1.0);
            Ok((total / util).sqrt().ceil().max(widest.ceil()))
        }
    }
}

/// The chip width a run with this configuration would use: the configured
/// width, or one derived from total module area and the target utilization.
/// Exposed so alternative backends (annealer, analytical placer) can target
/// the same fixed outline the MILP pipeline solves for, making portfolio
/// costs directly comparable.
///
/// # Errors
///
/// [`FloorplanError::EmptyNetlist`] or [`FloorplanError::ModuleTooWide`]
/// exactly as [`Floorplanner::run`] would report them.
pub fn derive_chip_width(
    netlist: &Netlist,
    config: &FloorplanConfig,
) -> Result<f64, FloorplanError> {
    resolve_chip_width(netlist, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Objective;
    use fp_milp::SolveOptions;
    use fp_netlist::generator::ProblemGenerator;
    use fp_netlist::Module;
    use std::time::Duration;

    /// Debug-build tests use a small solver budget; validity and structure
    /// assertions hold regardless of per-step optimality.
    fn fast() -> FloorplanConfig {
        FloorplanConfig::default().with_step_options(
            SolveOptions::default()
                .with_node_limit(600)
                .with_time_limit(Duration::from_millis(700)),
        )
    }

    #[test]
    fn small_run_is_valid_and_complete() {
        let nl = ProblemGenerator::new(8, 11).generate();
        let result = Floorplanner::with_config(&nl, fast()).run().unwrap();
        assert_eq!(result.floorplan.len(), 8);
        assert!(
            result.floorplan.is_valid(),
            "{:?}",
            result.floorplan.violations()
        );
        assert!(!result.stats.steps.is_empty());
    }

    #[test]
    fn binaries_stay_bounded() {
        let nl = ProblemGenerator::new(14, 5).generate();
        let cfg = fast();
        let result = Floorplanner::with_config(&nl, cfg.clone()).run().unwrap();
        assert!(
            result.stats.max_binaries() <= cfg.max_binaries,
            "step exceeded binary budget: {}",
            result.stats.max_binaries()
        );
    }

    #[test]
    fn utilization_beats_half() {
        let nl = ProblemGenerator::new(10, 2).generate();
        let result = Floorplanner::with_config(&nl, fast()).run().unwrap();
        let util = result.floorplan.utilization(&nl);
        assert!(util > 0.5, "utilization only {util}");
    }

    #[test]
    fn wirelength_objective_runs() {
        let nl = ProblemGenerator::new(8, 3).generate();
        let cfg = fast().with_objective(Objective::AreaPlusWirelength { lambda: 0.5 });
        let result = Floorplanner::with_config(&nl, cfg).run().unwrap();
        assert!(result.floorplan.is_valid());
    }

    #[test]
    fn custom_ordering_validation() {
        let nl = ProblemGenerator::new(4, 1).generate();
        let bad = FloorplanConfig::default()
            .with_ordering(OrderingStrategy::Custom(vec![ModuleId(0), ModuleId(0)]));
        assert!(matches!(
            Floorplanner::with_config(&nl, bad).run(),
            Err(FloorplanError::InvalidOrdering(_))
        ));
        let missing =
            FloorplanConfig::default().with_ordering(OrderingStrategy::Custom(vec![ModuleId(0)]));
        assert!(matches!(
            Floorplanner::with_config(&nl, missing).run(),
            Err(FloorplanError::InvalidOrdering(_))
        ));
    }

    #[test]
    fn pre_triggered_stop_cancels_run() {
        let nl = ProblemGenerator::new(8, 3).generate();
        let stop = fp_milp::StopFlag::new();
        stop.trigger();
        let cfg = fast().with_stop(stop);
        assert!(matches!(
            Floorplanner::with_config(&nl, cfg).run(),
            Err(FloorplanError::Cancelled(_))
        ));
    }

    #[test]
    fn too_narrow_chip_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("wide", 30.0, 2.0, false))
            .unwrap();
        let cfg = FloorplanConfig::default().with_chip_width(10.0);
        assert!(matches!(
            Floorplanner::with_config(&nl, cfg).run(),
            Err(FloorplanError::ModuleTooWide { .. })
        ));
    }

    #[test]
    fn tight_limits_fall_back_to_greedy_but_complete() {
        let nl = ProblemGenerator::new(10, 7).generate();
        let cfg = FloorplanConfig::default().with_step_options(
            SolveOptions::default()
                .with_node_limit(1)
                .with_time_limit(Duration::from_millis(1)),
        );
        let result = Floorplanner::with_config(&nl, cfg).run().unwrap();
        assert_eq!(result.floorplan.len(), 10);
        assert!(result.floorplan.is_valid());
        // With a 1-node limit most steps must have been non-optimal.
        assert!(
            result.stats.greedy_fallbacks() > 0
                || result
                    .stats
                    .steps
                    .iter()
                    .any(|s| s.outcome == StepOutcome::Incumbent)
        );
    }

    #[test]
    fn run_deadline_bounds_total_time_across_steps() {
        // Per-step limit far above the run deadline, small groups so the
        // run takes many steps: without per-step re-budgeting each step
        // could legally burn the full 60 s and the run would overshoot the
        // deadline by a factor of the step count.
        let nl = ProblemGenerator::new(12, 21).generate();
        let cfg = FloorplanConfig::default()
            .with_group_sizes(2, 2)
            .with_step_options(SolveOptions::default().with_time_limit(Duration::from_secs(60)))
            .with_deadline(Some(Instant::now() + Duration::from_millis(50)));
        let started = Instant::now();
        let result = Floorplanner::with_config(&nl, cfg).run().unwrap();
        assert_eq!(result.floorplan.len(), 12);
        assert!(result.floorplan.is_valid());
        // Generous watchdog-style bound: model build + one polling
        // granularity per step, nowhere near even one 60 s step limit.
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "deadline ignored across steps: run took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn exact_single_milp_matches_or_beats_augmentation() {
        // With seed size >= K the whole problem is one MILP (the paper's
        // §2.3 direct formulation); it can never be worse than the
        // suboptimal successive augmentation on the same width.
        let nl = ProblemGenerator::new(5, 44).generate();
        let width = resolve_chip_width(&nl, &FloorplanConfig::default()).unwrap();
        let exact_cfg = FloorplanConfig::default()
            .with_chip_width(width)
            .with_group_sizes(5, 5);
        let aug_cfg = FloorplanConfig::default()
            .with_chip_width(width)
            .with_group_sizes(2, 2)
            .with_step_options(SolveOptions::default().with_node_limit(2_000));
        let exact = Floorplanner::with_config(&nl, exact_cfg).run().unwrap();
        let aug = Floorplanner::with_config(&nl, aug_cfg).run().unwrap();
        assert_eq!(exact.stats.steps.len(), 1);
        assert!(
            exact.floorplan.chip_height() <= aug.floorplan.chip_height() + 1e-6,
            "exact {} vs augmented {}",
            exact.floorplan.chip_height(),
            aug.floorplan.chip_height()
        );
    }

    #[test]
    fn ablated_covering_reduction_still_completes() {
        let nl = ProblemGenerator::new(9, 15).generate();
        let cfg = fast().with_covering_reduction(false);
        let result = Floorplanner::with_config(&nl, cfg).run().unwrap();
        assert_eq!(result.floorplan.len(), 9);
        assert!(result.floorplan.is_valid());
        // Without the reduction, obstacle counts equal placed-module counts.
        let last = result.stats.steps.last().unwrap();
        let placed_before_last: usize = result
            .stats
            .steps
            .iter()
            .take(result.stats.steps.len() - 1)
            .map(|s| s.group.len())
            .sum();
        assert_eq!(last.obstacles, placed_before_last);
    }

    #[test]
    fn envelopes_produce_margined_floorplan() {
        let nl = ProblemGenerator::new(6, 9).generate();
        let cfg = fast().with_envelopes(true);
        let result = Floorplanner::with_config(&nl, cfg).run().unwrap();
        assert!(result.floorplan.is_valid());
        // Envelopes must be strictly larger than module rects somewhere.
        let grown = result
            .floorplan
            .iter()
            .any(|p| p.envelope.area() > p.rect.area() + 1e-9);
        assert!(grown);
    }

    #[test]
    fn derived_chip_width_fits_everything() {
        let nl = ProblemGenerator::new(9, 13).generate();
        let w = resolve_chip_width(&nl, &FloorplanConfig::default()).unwrap();
        let result = Floorplanner::with_config(&nl, fast()).run().unwrap();
        assert_eq!(result.floorplan.chip_width(), w);
        for p in result.floorplan.iter() {
            assert!(p.envelope.right() <= w + 1e-6);
        }
    }

    #[test]
    fn milp_beats_or_matches_greedy_baseline() {
        let nl = ProblemGenerator::new(9, 30).generate();
        let cfg = fast();
        let milp = Floorplanner::with_config(&nl, cfg.clone()).run().unwrap();
        let greedy = crate::greedy::bottom_left(&nl, &cfg).unwrap();
        // Not a theorem (partial floorplans diverge between the two flows),
        // but the MILP should never be meaningfully worse than bottom-left.
        assert!(
            milp.floorplan.chip_height() <= greedy.chip_height() * 1.1 + 1e-6,
            "MILP {} much worse than greedy {}",
            milp.floorplan.chip_height(),
            greedy.chip_height()
        );
    }
}

//! Floorplanner configuration.

use crate::portfolio::SharedIncumbent;
use fp_milp::{SolveOptions, StopFlag};
use fp_netlist::ModuleId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Objective function for the MILP steps (paper §4, Series 2 compares the
/// two).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize chip area (fixed width × minimized height) — formulation (3).
    Area,
    /// Minimize `chip area + λ · Σ c_ij · d_ij` with Manhattan distances
    /// between module centers (§3.2 "estimated area for interconnections in
    /// the objective function").
    AreaPlusWirelength {
        /// Trade-off weight λ (the paper does not publish its value; 0.5
        /// balances the two terms at ami33 scale).
        lambda: f64,
    },
}

impl Objective {
    /// The wirelength weight (0 for pure area).
    #[must_use]
    pub fn lambda(&self) -> f64 {
        match *self {
            Objective::Area => 0.0,
            Objective::AreaPlusWirelength { lambda } => lambda,
        }
    }
}

/// Order in which modules are fed to successive augmentation (Table 2
/// compares Random vs Connectivity).
#[derive(Debug, Clone, PartialEq)]
pub enum OrderingStrategy {
    /// Seeded random permutation.
    Random(u64),
    /// Kang-style linear ordering by connectivity (the paper's best).
    Connectivity,
    /// Descending module area (ablation baseline).
    Area,
    /// An explicit order provided by the caller.
    Custom(Vec<ModuleId>),
}

/// How a flexible module's `h = S/w` curve is linearized (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SoftShapeModel {
    /// First-order Taylor expansion at `w_max`, exactly as in the paper's
    /// formulation (6). *Underestimates* height away from the expansion
    /// point, so extracted placements may need a legalization shift.
    Taylor,
    /// Secant (chord) between the two extreme shapes. Overestimates height,
    /// so any MILP-feasible placement stays overlap-free with the *true*
    /// hyperbolic shapes — the sound default.
    #[default]
    Secant,
}

/// Full configuration for [`Floorplanner`](crate::Floorplanner).
///
/// ```
/// use fp_core::{FloorplanConfig, Objective};
/// let cfg = FloorplanConfig::default()
///     .with_chip_width(120.0)
///     .with_objective(Objective::AreaPlusWirelength { lambda: 0.5 })
///     .with_envelopes(true);
/// assert_eq!(cfg.chip_width, Some(120.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanConfig {
    /// Fixed chip width `W`; `None` derives one from total module area and
    /// [`FloorplanConfig::target_utilization`].
    pub chip_width: Option<f64>,
    /// Target utilization used when deriving the chip width.
    pub target_utilization: f64,
    /// MILP objective per step.
    pub objective: Objective,
    /// Module ordering strategy.
    pub ordering: OrderingStrategy,
    /// Modules in the first (seed) MILP — the paper's `m`.
    pub seed_size: usize,
    /// Modules added per augmentation step — the paper's `e`.
    pub group_size: usize,
    /// Cap on 0-1 variables per step MILP; groups are split when exceeded
    /// (the paper keeps "the number of variables close to a constant").
    pub max_binaries: usize,
    /// Whether to allow 90° rotation of rigid modules (formulation (4)).
    pub rotation: bool,
    /// Whether to grow modules into §3.2 routing envelopes.
    pub envelopes: bool,
    /// Metal pitch (width + spacing) of one horizontal routing track.
    pub pitch_h: f64,
    /// Metal pitch of one vertical routing track.
    pub pitch_v: f64,
    /// Linearization used for flexible modules.
    pub soft_model: SoftShapeModel,
    /// Solver limits for each augmentation-step MILP.
    pub step_options: SolveOptions,
    /// Absolute wall-clock deadline for the whole run. Each step MILP's
    /// time limit is clamped to the remaining budget (so a run of K steps
    /// cannot overshoot by K × [`SolveOptions::time_limit`]); once the
    /// deadline passes, remaining steps get a zero budget and degrade to
    /// their greedy fallback. `None` (the default) leaves per-step limits
    /// as configured.
    pub deadline: Option<Instant>,
    /// Impose `max_length` constraints of critical nets inside the MILPs.
    pub enforce_critical_nets: bool,
    /// Collapse the partial floorplan into §3.1 covering rectangles before
    /// each step (the paper's variable-count reduction). Disabling this is
    /// the ablation: every placed module becomes its own obstacle and the
    /// per-step integer count grows with the partial floorplan.
    pub covering_reduction: bool,
    /// Structured-event tracer threaded through every step MILP, the
    /// augmentation driver, and [`improve_traced`](crate::improve_traced).
    /// Disabled by default (one pointer check per would-be event).
    pub tracer: fp_obs::Tracer,
    /// Cooperative cancellation flag, checked at every augmentation-step
    /// boundary and inside every step MILP's branch-and-bound loop. When
    /// raised, the run returns
    /// [`FloorplanError::Cancelled`](crate::FloorplanError::Cancelled).
    /// Disabled by default.
    pub stop: StopFlag,
    /// Shared portfolio incumbent. When set and the objective is pure
    /// [`Objective::Area`], each step MILP receives the incumbent's best
    /// height as an external upper bound, and the run aborts with
    /// `Cancelled` as soon as its partial floorplan provably cannot beat
    /// that height (the partial floor is monotone across steps).
    pub incumbent: Option<Arc<SharedIncumbent>>,
}

impl Default for FloorplanConfig {
    fn default() -> Self {
        FloorplanConfig {
            chip_width: None,
            target_utilization: 0.85,
            objective: Objective::Area,
            ordering: OrderingStrategy::Connectivity,
            seed_size: 5,
            group_size: 3,
            max_binaries: 60,
            rotation: true,
            envelopes: false,
            pitch_h: 0.10,
            pitch_v: 0.10,
            soft_model: SoftShapeModel::default(),
            step_options: SolveOptions::default()
                .with_node_limit(20_000)
                .with_time_limit(Duration::from_secs(10)),
            deadline: None,
            enforce_critical_nets: false,
            covering_reduction: true,
            tracer: fp_obs::Tracer::disabled(),
            stop: StopFlag::disabled(),
            incumbent: None,
        }
    }
}

impl FloorplanConfig {
    /// Sets a fixed chip width.
    #[must_use]
    pub fn with_chip_width(mut self, w: f64) -> Self {
        self.chip_width = Some(w);
        self
    }

    /// Sets the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the ordering strategy.
    #[must_use]
    pub fn with_ordering(mut self, ordering: OrderingStrategy) -> Self {
        self.ordering = ordering;
        self
    }

    /// Enables or disables §3.2 routing envelopes.
    #[must_use]
    pub fn with_envelopes(mut self, on: bool) -> Self {
        self.envelopes = on;
        self
    }

    /// Sets seed and per-step group sizes.
    #[must_use]
    pub fn with_group_sizes(mut self, seed: usize, group: usize) -> Self {
        self.seed_size = seed.max(1);
        self.group_size = group.max(1);
        self
    }

    /// Sets per-step solver options.
    #[must_use]
    pub fn with_step_options(mut self, options: SolveOptions) -> Self {
        self.step_options = options;
        self
    }

    /// Sets (or clears) the absolute run deadline; every subsequent step
    /// MILP is budgeted with the remaining time, not the full per-step
    /// limit.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The per-step solver options with the time limit clamped to the time
    /// left before [`FloorplanConfig::deadline`] — what the augmentation
    /// and re-optimization drivers hand to each MILP solve.
    #[must_use]
    pub(crate) fn budgeted_step_options(&self) -> SolveOptions {
        let opts = match self.deadline {
            None => self.step_options.clone(),
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                self.step_options
                    .clone()
                    .with_time_limit(self.step_options.time_limit.min(remaining))
            }
        };
        // The run-level stop flag reaches into every step MILP so a
        // cancelled portfolio leg stops mid-branch-and-bound, not just at
        // the next step boundary.
        opts.with_stop(self.stop.clone())
    }

    /// Enables or disables rotation variables.
    #[must_use]
    pub fn with_rotation(mut self, on: bool) -> Self {
        self.rotation = on;
        self
    }

    /// Sets routing track pitches (technology input, §2.2).
    #[must_use]
    pub fn with_pitches(mut self, pitch_h: f64, pitch_v: f64) -> Self {
        self.pitch_h = pitch_h;
        self.pitch_v = pitch_v;
        self
    }

    /// Sets the soft-module linearization.
    #[must_use]
    pub fn with_soft_model(mut self, model: SoftShapeModel) -> Self {
        self.soft_model = model;
        self
    }

    /// Enables critical-net maximum-length constraints in the MILPs.
    #[must_use]
    pub fn with_critical_nets(mut self, on: bool) -> Self {
        self.enforce_critical_nets = on;
        self
    }

    /// Enables or disables the §3.1 covering-rectangle reduction
    /// (disable only for ablation studies).
    #[must_use]
    pub fn with_covering_reduction(mut self, on: bool) -> Self {
        self.covering_reduction = on;
        self
    }

    /// Installs a structured-event tracer; every step MILP, the
    /// augmentation loop, and the improvement loop emit through it.
    ///
    /// ```
    /// use fp_core::FloorplanConfig;
    /// use fp_obs::{Collector, Tracer};
    /// let collector = Collector::new();
    /// let cfg = FloorplanConfig::default().with_tracer(Tracer::new(collector.clone()));
    /// assert!(cfg.tracer.is_enabled());
    /// ```
    #[must_use]
    pub fn with_tracer(mut self, tracer: fp_obs::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Installs a cooperative stop flag; raising it cancels the run at the
    /// next step boundary and stops any in-flight step MILP.
    #[must_use]
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = stop;
        self
    }

    /// Installs (or clears) a shared portfolio incumbent used to bound and
    /// early-abort pure-area runs.
    #[must_use]
    pub fn with_incumbent(mut self, incumbent: Option<Arc<SharedIncumbent>>) -> Self {
        self.incumbent = incumbent;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = FloorplanConfig::default();
        assert_eq!(c.chip_width, None);
        assert!(c.rotation);
        assert!(!c.envelopes);
        assert_eq!(c.objective.lambda(), 0.0);
        assert_eq!(c.soft_model, SoftShapeModel::Secant);
    }

    #[test]
    fn builders_chain() {
        let c = FloorplanConfig::default()
            .with_chip_width(100.0)
            .with_objective(Objective::AreaPlusWirelength { lambda: 2.0 })
            .with_ordering(OrderingStrategy::Random(7))
            .with_envelopes(true)
            .with_group_sizes(0, 0)
            .with_rotation(false)
            .with_pitches(0.2, 0.3)
            .with_soft_model(SoftShapeModel::Taylor)
            .with_critical_nets(true);
        assert_eq!(c.chip_width, Some(100.0));
        assert_eq!(c.objective.lambda(), 2.0);
        assert_eq!(c.ordering, OrderingStrategy::Random(7));
        assert!(c.envelopes);
        assert_eq!((c.seed_size, c.group_size), (1, 1)); // clamped to >= 1
        assert!(!c.rotation);
        assert_eq!((c.pitch_h, c.pitch_v), (0.2, 0.3));
        assert_eq!(c.soft_model, SoftShapeModel::Taylor);
        assert!(c.enforce_critical_nets);
    }
}

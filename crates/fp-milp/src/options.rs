//! Solver configuration.

use crate::basis_store::BasisStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cooperative cancellation handle polled at branch-and-bound node
/// boundaries (and between root cut rounds).
///
/// The default flag is *disabled*: it never trips and costs one `Option`
/// check per poll. A live flag ([`StopFlag::new`]) can be cloned into a
/// solve and [triggered](StopFlag::trigger) from another thread; the search
/// stops at its next node boundary and reports its best incumbent (or
/// [`SolveError::LimitWithoutIncumbent`](crate::SolveError) when none
/// exists), exactly like a node or time limit binding.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(Option<Arc<AtomicBool>>);

impl StopFlag {
    /// A live flag, initially unset.
    #[must_use]
    pub fn new() -> Self {
        StopFlag(Some(Arc::new(AtomicBool::new(false))))
    }

    /// The disabled flag that never trips (what [`Default`] returns).
    #[must_use]
    pub fn disabled() -> Self {
        StopFlag(None)
    }

    /// Requests cancellation. Safe to call from any thread, idempotent, and
    /// a no-op on a disabled flag.
    pub fn trigger(&self) {
        if let Some(flag) = &self.0 {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.0.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// Two flags are equal when they share the same underlying cell (or are
/// both disabled) — handle identity, not current state, so configs holding
/// cloned flags compare equal.
impl PartialEq for StopFlag {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Which simplex kernel solves node LPs: the sparse revised simplex, the
/// dense reference tableau, or an automatic per-instance choice.
///
/// Both kernels implement identical pivot rules and are held equal by a
/// differential test suite, so the mode only changes speed. `BENCH_MILP`
/// shows the sparse kernel at 0.33–0.54× the dense per-pivot throughput on
/// tiny knapsacks (the CSC/LU machinery has fixed overhead a one-row
/// tableau never amortizes) while winning clearly on placement-sized LPs —
/// hence [`SparseMode::Auto`], which keeps the dense tableau below a small
/// size threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseMode {
    /// Pick per solve from the root LP dimensions: dense when
    /// `rows + structural columns < `[`SparseMode::AUTO_THRESHOLD`], sparse
    /// otherwise. The default.
    #[default]
    Auto,
    /// Always the sparse revised kernel.
    Sparse,
    /// Always the dense reference tableau.
    Dense,
}

impl SparseMode {
    /// `Auto` switches to the sparse kernel when `rows + structural
    /// columns` reaches this value. Calibrated so the knapsack family
    /// (1 row + ≤30 columns) stays dense while the placement MILPs
    /// (tens of rows and columns) go sparse.
    pub const AUTO_THRESHOLD: usize = 48;

    /// Resolves the mode against an instance's root dimensions: `true`
    /// selects the sparse kernel.
    #[must_use]
    pub fn resolve(self, rows: usize, structural_cols: usize) -> bool {
        match self {
            SparseMode::Sparse => true,
            SparseMode::Dense => false,
            SparseMode::Auto => rows + structural_cols >= Self::AUTO_THRESHOLD,
        }
    }
}

/// Tunable limits and tolerances for [`Model::solve_with`](crate::Model::solve_with).
///
/// The defaults are sized for the floorplanner's augmentation subproblems
/// (tens of binaries, a few hundred constraints). The paper relies on LINDO
/// returning the optimum of each subproblem; the limits here exist so a
/// pathological subproblem degrades to "best incumbent found" instead of
/// hanging, which keeps the successive-augmentation loop linear-time in
/// practice (Table 1's claim).
///
/// ```
/// let opts = fp_milp::SolveOptions::default().with_node_limit(1_000);
/// assert_eq!(opts.node_limit, 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Maximum branch-and-bound nodes explored.
    pub node_limit: usize,
    /// Wall-clock budget for the whole solve.
    pub time_limit: Duration,
    /// Feasibility tolerance for simplex basic values and constraint checks.
    pub feas_tol: f64,
    /// Reduced-cost optimality tolerance.
    pub opt_tol: f64,
    /// How far from integral a value may be and still count as integral.
    pub int_tol: f64,
    /// Accept any incumbent whose objective is within this absolute gap of
    /// the best bound and stop early. `0.0` demands a proven optimum.
    pub absolute_gap: f64,
    /// Warm-start each node's LP from its parent's optimal basis via the
    /// dual simplex instead of re-running two-phase primal from scratch.
    /// Purely a performance lever: any numerical doubt falls back to the
    /// cold solve, so results are identical either way. Default `true`.
    pub warm_start: bool,
    /// Maximum dual-simplex pivots per warm attempt before giving up and
    /// re-solving cold. `0` (the default) sizes the cap automatically from
    /// the row count.
    pub warm_pivot_cap: usize,
    /// Which kernel solves node LPs: the sparse revised simplex (CSC
    /// matrix, LU-factored basis with eta-file updates, partial pricing),
    /// the dense reference tableau, or a per-instance automatic choice.
    /// Both kernels implement identical pivot rules and are held equal by a
    /// differential test suite, so this only changes speed. Default
    /// [`SparseMode::Auto`]; [`SolveOptions::with_sparse`] still forces a
    /// kernel explicitly.
    pub sparse: SparseMode,
    /// Eta-file updates tolerated between basis refactorizations on the
    /// sparse kernel. Smaller values trade factorization time for tighter
    /// numerical drift control; `0` (the default) picks automatically.
    /// Ignored by the dense kernel, which refactorizes never (it carries
    /// `B⁻¹·A` explicitly). Sits alongside [`Self::warm_pivot_cap`] in the
    /// numerics-vs-speed knob family.
    pub refactor_interval: usize,
    /// Run the root model-strengthening layer (big-M coefficient
    /// tightening, 0-1 probing, root cutting planes) after classic
    /// presolve. Purely a performance lever: every reduction preserves the
    /// set of integer-feasible points, so the proven objective is identical
    /// either way. Default `true`.
    pub strengthen: bool,
    /// Work budget for 0-1 probing: the maximum number of tentative
    /// fix-and-propagate runs (each single-binary probe costs two, each
    /// co-occurring pair probe costs four). `0` disables probing while
    /// keeping coefficient tightening and knapsack cover cuts.
    pub probe_budget: usize,
    /// Maximum cutting planes appended to the root LP across all
    /// separation rounds. `0` disables cut generation.
    pub max_cuts: usize,
    /// Maximum fixpoint passes of the classic presolve loop (singleton
    /// folding, activity bounds, implied/integral tightening). The number
    /// actually run is reported in
    /// [`SolveStats::presolve_passes`](crate::SolveStats::presolve_passes).
    pub presolve_passes: usize,
    /// An externally known objective value (in the model's sense) that the
    /// search must strictly beat — typically the cost of a solution another
    /// solver already holds. Branch-and-bound prunes against it from the
    /// first node and only installs incumbents strictly better than it, so
    /// a solve can never return a solution at or worse than this bound; if
    /// nothing better exists the solve reports
    /// [`SolveError::Infeasible`](crate::SolveError) (proven) or
    /// [`SolveError::LimitWithoutIncumbent`](crate::SolveError) (limit
    /// bound first). For `Maximize` models the value acts as a lower
    /// cutoff. Non-finite values (the default, `f64::INFINITY`) disable it.
    pub initial_upper_bound: f64,
    /// Cooperative cancellation flag polled at node boundaries; see
    /// [`StopFlag`]. Disabled by default.
    pub stop: StopFlag,
    /// Cross-solve root-basis store (see [`BasisStore`]). When set, the
    /// solve fetches a root basis under [`Self::basis_load_key`] before the
    /// tree starts (unless the root cut loop already committed one of its
    /// own) and publishes its committed root basis under
    /// [`Self::basis_publish_key`] afterwards. `None` (the default) keeps
    /// warm starts strictly within one solve.
    pub basis_store: Option<Arc<BasisStore>>,
    /// Store key the root basis is *fetched* under — typically the base
    /// instance's fingerprint (an ECO re-solve loads the base job's basis).
    pub basis_load_key: u64,
    /// Store key the committed root basis is *published* under — typically
    /// this instance's own fingerprint.
    pub basis_publish_key: u64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            node_limit: 200_000,
            time_limit: Duration::from_secs(120),
            feas_tol: 1e-7,
            opt_tol: 1e-9,
            int_tol: 1e-6,
            absolute_gap: 0.0,
            warm_start: true,
            warm_pivot_cap: 0,
            sparse: SparseMode::Auto,
            refactor_interval: 0,
            strengthen: true,
            probe_budget: 512,
            max_cuts: 64,
            presolve_passes: 4,
            initial_upper_bound: f64::INFINITY,
            stop: StopFlag::disabled(),
            basis_store: None,
            basis_load_key: 0,
            basis_publish_key: 0,
        }
    }
}

impl SolveOptions {
    /// Returns options with the given node limit.
    #[must_use]
    pub fn with_node_limit(mut self, nodes: usize) -> Self {
        self.node_limit = nodes;
        self
    }

    /// Returns options with the given time limit.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Returns options accepting incumbents within `gap` of the best bound.
    #[must_use]
    pub fn with_absolute_gap(mut self, gap: f64) -> Self {
        self.absolute_gap = gap;
        self
    }

    /// Returns the options unchanged. The branch-and-bound search always
    /// runs on the calling thread, so there is no thread count to set; the
    /// method remains so that callers written for an earlier API still
    /// build.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Returns options with warm-started node LPs enabled or disabled.
    #[must_use]
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    /// Returns options with the given per-node dual pivot cap (`0` = auto).
    #[must_use]
    pub fn with_warm_pivot_cap(mut self, cap: usize) -> Self {
        self.warm_pivot_cap = cap;
        self
    }

    /// Returns options forcing a kernel: the sparse revised simplex
    /// (`true`) or the dense reference tableau (`false`), overriding the
    /// default per-instance [`SparseMode::Auto`] choice.
    #[must_use]
    pub fn with_sparse(mut self, sparse: bool) -> Self {
        self.sparse = if sparse {
            SparseMode::Sparse
        } else {
            SparseMode::Dense
        };
        self
    }

    /// Returns options with the given kernel-selection mode.
    #[must_use]
    pub fn with_sparse_mode(mut self, mode: SparseMode) -> Self {
        self.sparse = mode;
        self
    }

    /// Returns options with the given eta-update budget between basis
    /// refactorizations (`0` = auto; ignored by the dense kernel).
    #[must_use]
    pub fn with_refactor_interval(mut self, interval: usize) -> Self {
        self.refactor_interval = interval;
        self
    }

    /// Returns options with root model strengthening enabled or disabled.
    #[must_use]
    pub fn with_strengthen(mut self, on: bool) -> Self {
        self.strengthen = on;
        self
    }

    /// Returns options with the given probing work budget (`0` disables
    /// probing).
    #[must_use]
    pub fn with_probe_budget(mut self, probes: usize) -> Self {
        self.probe_budget = probes;
        self
    }

    /// Returns options with the given root-cut cap (`0` disables cuts).
    #[must_use]
    pub fn with_max_cuts(mut self, cuts: usize) -> Self {
        self.max_cuts = cuts;
        self
    }

    /// Returns options with the given presolve fixpoint pass cap (values
    /// `< 1` are treated as `1`; one pass always runs).
    #[must_use]
    pub fn with_presolve_passes(mut self, passes: usize) -> Self {
        self.presolve_passes = passes;
        self
    }

    /// Returns options with an externally known objective cutoff the search
    /// must strictly beat (non-finite disables; see
    /// [`Self::initial_upper_bound`]).
    #[must_use]
    pub fn with_initial_upper_bound(mut self, bound: f64) -> Self {
        self.initial_upper_bound = bound;
        self
    }

    /// Returns options polling the given cooperative cancellation flag at
    /// node boundaries.
    #[must_use]
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = stop;
        self
    }

    /// Returns options wired to a cross-solve [`BasisStore`]: the root LP
    /// is seeded from the basis stored under `load_key` and the committed
    /// root basis is published under `publish_key` (pass the same key for
    /// plain repeat-traffic warm starts).
    #[must_use]
    pub fn with_basis_store(
        mut self,
        store: Arc<BasisStore>,
        load_key: u64,
        publish_key: u64,
    ) -> Self {
        self.basis_store = Some(store);
        self.basis_load_key = load_key;
        self.basis_publish_key = publish_key;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let o = SolveOptions::default()
            .with_node_limit(5)
            .with_time_limit(Duration::from_millis(10))
            .with_absolute_gap(0.5);
        assert_eq!(o.node_limit, 5);
        assert_eq!(o.time_limit, Duration::from_millis(10));
        assert_eq!(o.absolute_gap, 0.5);
    }

    #[test]
    fn defaults_are_sane() {
        let o = SolveOptions::default();
        assert!(o.feas_tol > 0.0 && o.feas_tol < 1e-3);
        assert!(o.int_tol >= o.feas_tol / 10.0);
        assert!(o.node_limit > 1_000);
        assert!(o.warm_start);
        assert_eq!(o.warm_pivot_cap, 0);
        assert_eq!(o.sparse, SparseMode::Auto);
        assert_eq!(o.refactor_interval, 0);
        assert!(o.strengthen);
        assert!(o.probe_budget > 0);
        assert!(o.max_cuts > 0);
        assert!(o.presolve_passes >= 1);
        assert!(o.initial_upper_bound.is_infinite());
        assert!(!o.stop.is_set());
    }

    #[test]
    fn stop_flag_semantics() {
        let disabled = StopFlag::disabled();
        disabled.trigger();
        assert!(!disabled.is_set());

        let live = StopFlag::new();
        assert!(!live.is_set());
        let clone = live.clone();
        live.trigger();
        assert!(clone.is_set(), "clones share the underlying cell");

        // Identity equality: a clone is equal, a fresh flag is not.
        assert_eq!(live, clone);
        assert_ne!(live, StopFlag::new());
        assert_eq!(StopFlag::disabled(), StopFlag::default());
    }

    #[test]
    fn portfolio_builders() {
        let stop = StopFlag::new();
        let o = SolveOptions::default()
            .with_initial_upper_bound(42.5)
            .with_stop(stop.clone());
        assert_eq!(o.initial_upper_bound, 42.5);
        assert_eq!(o.stop, stop);
    }

    #[test]
    fn strengthen_builders() {
        let o = SolveOptions::default()
            .with_strengthen(false)
            .with_probe_budget(17)
            .with_max_cuts(3)
            .with_presolve_passes(9);
        assert!(!o.strengthen);
        assert_eq!(o.probe_budget, 17);
        assert_eq!(o.max_cuts, 3);
        assert_eq!(o.presolve_passes, 9);
    }

    #[test]
    fn warm_start_builders() {
        let o = SolveOptions::default()
            .with_warm_start(false)
            .with_warm_pivot_cap(7);
        assert!(!o.warm_start);
        assert_eq!(o.warm_pivot_cap, 7);
    }

    #[test]
    fn sparse_builders() {
        let o = SolveOptions::default()
            .with_sparse(false)
            .with_refactor_interval(16);
        assert_eq!(o.sparse, SparseMode::Dense);
        assert_eq!(o.refactor_interval, 16);
        assert_eq!(
            SolveOptions::default().with_sparse(true).sparse,
            SparseMode::Sparse
        );
        assert_eq!(
            SolveOptions::default()
                .with_sparse_mode(SparseMode::Auto)
                .sparse,
            SparseMode::Auto
        );
    }

    #[test]
    fn sparse_mode_resolution() {
        // Forced modes ignore the dimensions entirely.
        assert!(SparseMode::Sparse.resolve(0, 0));
        assert!(!SparseMode::Dense.resolve(1_000, 1_000));
        // Auto: knapsack-sized stays dense, placement-sized goes sparse.
        assert!(!SparseMode::Auto.resolve(1, 22)); // knapsack22
        assert!(SparseMode::Auto.resolve(32, 21)); // placement4
        let t = SparseMode::AUTO_THRESHOLD;
        assert!(!SparseMode::Auto.resolve(t - 1, 0));
        assert!(SparseMode::Auto.resolve(t, 0));
    }

    #[test]
    fn basis_store_builder() {
        let o = SolveOptions::default();
        assert!(o.basis_store.is_none());
        let store = Arc::new(BasisStore::new(8));
        let o = o.with_basis_store(Arc::clone(&store), 3, 9);
        assert!(o.basis_store.is_some());
        assert_eq!((o.basis_load_key, o.basis_publish_key), (3, 9));
        // Identity equality, like StopFlag: a clone of the handle is equal.
        assert_eq!(o.clone(), o);
    }

    #[test]
    fn with_threads_is_a_no_op() {
        assert_eq!(
            SolveOptions::default().with_threads(4),
            SolveOptions::default()
        );
    }
}

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
    /// Warm-start each node's LP from its parent's optimal basis via the
    /// dual simplex instead of re-running two-phase primal from scratch.
    /// Purely a performance lever: any numerical doubt falls back to the
    /// cold solve, so results are identical either way. Default `true`.
    pub warm_start: bool,
    /// Run the root model-strengthening layer (big-M coefficient
    /// tightening, 0-1 probing, root cutting planes) after classic
    /// presolve. Purely a performance lever: every reduction preserves the
    /// set of integer-feasible points, so the proven objective is identical
    /// either way. Default `true`.
    pub strengthen: bool,
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
    /// tree starts. The fetched basis seeds the first root LP: the root cut
    /// loop's baseline solve, whose committed basis the root node then
    /// starts from, or the root node itself when strengthening is off.
    /// Afterwards the solve publishes its cut-free root basis under
    /// [`Self::basis_publish_key`] (a solve with strengthening off has none
    /// to publish). `None` (the default) keeps warm starts strictly within
    /// one solve.
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
            warm_start: true,
            strengthen: true,
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

    /// Returns options with root model strengthening enabled or disabled.
    #[must_use]
    pub fn with_strengthen(mut self, on: bool) -> Self {
        self.strengthen = on;
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

    /// Returns options wired to a cross-solve [`BasisStore`]: the first
    /// root LP is seeded from the basis stored under `load_key` and the
    /// cut-free root basis is published under `publish_key` (pass the same
    /// key for plain repeat-traffic warm starts; see [`Self::basis_store`]).
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
            .with_time_limit(Duration::from_millis(10));
        assert_eq!(o.node_limit, 5);
        assert_eq!(o.time_limit, Duration::from_millis(10));
    }

    #[test]
    fn defaults_are_sane() {
        // Destructured without `..`, so adding or removing a field fails
        // to compile here until its default is pinned too.
        let SolveOptions {
            node_limit,
            time_limit,
            feas_tol,
            opt_tol,
            int_tol,
            warm_start,
            strengthen,
            initial_upper_bound,
            stop,
            basis_store,
            basis_load_key,
            basis_publish_key,
        } = SolveOptions::default();
        assert_eq!(node_limit, 200_000);
        assert_eq!(time_limit, Duration::from_secs(120));
        assert_eq!((feas_tol, opt_tol, int_tol), (1e-7, 1e-9, 1e-6));
        assert!(warm_start);
        assert!(strengthen);
        assert_eq!(initial_upper_bound, f64::INFINITY);
        assert!(!stop.is_set());
        assert!(basis_store.is_none());
        assert_eq!((basis_load_key, basis_publish_key), (0, 0));
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
        assert!(!SolveOptions::default().with_strengthen(false).strengthen);
    }

    #[test]
    fn warm_start_builders() {
        assert!(!SolveOptions::default().with_warm_start(false).warm_start);
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

//! Solver configuration.

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

/// Feasibility tolerance for simplex basic values and constraint checks.
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost optimality tolerance.
pub(crate) const OPT_TOL: f64 = 1e-9;
/// How far from integral a value may be and still count as integral.
pub(crate) const INT_TOL: f64 = 1e-6;

/// Tunable limits for [`Model::solve_with`](crate::Model::solve_with).
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
    /// Warm-start each node's LP from its parent's optimal basis via the
    /// dual simplex instead of re-running two-phase primal from scratch.
    /// Purely a performance lever: any numerical doubt falls back to the
    /// cold solve, so results are identical either way. Default `true`.
    /// Turned off, it also ignores the seed of
    /// [`Model::solve_seeded`](crate::Model::solve_seeded).
    pub warm_start: bool,
    /// Run the root model-strengthening layer (big-M coefficient
    /// tightening, 0-1 probing, root cutting planes) after classic
    /// presolve. Purely a performance lever: every reduction preserves the
    /// set of integer-feasible points, so the proven objective is identical
    /// either way. Default `true`.
    pub strengthen: bool,
    /// Cooperative cancellation flag polled at node boundaries; see
    /// [`StopFlag`]. Disabled by default.
    pub stop: StopFlag,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            node_limit: 200_000,
            time_limit: Duration::from_secs(120),
            warm_start: true,
            strengthen: true,
            stop: StopFlag::disabled(),
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

    /// Returns options polling the given cooperative cancellation flag at
    /// node boundaries.
    #[must_use]
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = stop;
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
            warm_start,
            strengthen,
            stop,
        } = SolveOptions::default();
        assert_eq!(node_limit, 200_000);
        assert_eq!(time_limit, Duration::from_secs(120));
        assert!(warm_start);
        assert!(strengthen);
        assert!(!stop.is_set());
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
        let o = SolveOptions::default().with_stop(stop.clone());
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
    fn with_threads_is_a_no_op() {
        assert_eq!(
            SolveOptions::default().with_threads(4),
            SolveOptions::default()
        );
    }
}

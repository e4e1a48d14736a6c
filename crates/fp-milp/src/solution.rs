//! Solution values and solve statistics.

use crate::var::Var;
use std::time::Duration;

/// Whether the returned solution is a proven optimum or the best incumbent
/// when a limit stopped the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Optimality {
    /// Proven optimal within tolerances.
    Proven,
    /// A node or time limit stopped the search; this is the best incumbent.
    Limit,
}

/// Search statistics reported alongside a [`Solution`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes taken off the search stack, whether their LP
    /// relaxation was solved or node propagation settled them, so that
    /// `warm_nodes + cold_nodes + propagated_nodes == nodes`. The node
    /// limit counts these.
    pub nodes: usize,
    /// Total simplex pivots across all nodes.
    pub simplex_iterations: usize,
    /// Nodes whose LP was solved warm from a known basis. A child node
    /// starts from its parent's basis. The root starts from the basis the
    /// root cut loop committed (whose first LP may itself start from a
    /// [`BasisStore`](crate::BasisStore) entry), or, with strengthening
    /// off, from the store entry directly, and solves cold only when it has
    /// neither.
    pub warm_nodes: usize,
    /// Nodes solved by the cold two-phase primal (including warm attempts
    /// that fell back on numerical trouble).
    pub cold_nodes: usize,
    /// Nodes settled without an LP: activity-based bound propagation over
    /// the node's bounds proved its LP relaxation infeasible. Propagation
    /// is LP-valid (it never rounds an integral bound), so exactly these
    /// nodes would have solved to an infeasible LP, and the search, its
    /// answer and `nodes` are what they would be without it.
    pub propagated_nodes: usize,
    /// Total basis LU (re)factorizations across all node LPs: every cold
    /// start and snapshot load factorizes the basis, and the eta file is
    /// folded into fresh factors once it reaches 64 updates, outgrows the
    /// factors, or a pivot looks numerically unstable.
    pub refactorizations: usize,
    /// Total eta-file basis updates recorded between refactorizations
    /// across all node LPs, one per basis exchange.
    pub eta_updates: usize,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Classic presolve fixpoint passes actually run, at most 4.
    pub presolve_passes: usize,
    /// Rows whose big-M / binary coefficients were tightened at the root.
    pub rows_tightened: usize,
    /// Binaries fixed by root probing (tentative fix propagated to a
    /// contradiction, so the opposite value is forced).
    pub binaries_fixed: usize,
    /// Binary implications harvested by probing (`x=u ⇒ y=v` edges, each
    /// of which the root cut loop may add as a logic cut).
    pub implications: usize,
    /// Cutting planes appended to the root LP (inherited by every node).
    pub cuts_added: usize,
    /// Which cross-solve [`BasisStore`](crate::BasisStore) seed the root
    /// LP was offered: `Hot` (a stored basis over exactly the presolved row
    /// count), `Warm` (a stored basis over fewer rows, slack-extended on
    /// load), or `Cold` (no seed fetched — the default, including when no
    /// store is wired or warm starts are off). A fetched seed feeds the
    /// root cut loop's first LP, or the root node itself when strengthening
    /// is off, so the tier is `Hot` or `Warm` whenever one was fetched.
    pub basis_tier: crate::BasisTier,
}

/// The result of a successful solve: an assignment of values to every model
/// variable plus the objective value.
///
/// ```
/// use fp_milp::{Model, Sense};
/// # fn main() -> Result<(), fp_milp::SolveError> {
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_continuous("x", 2.0, 10.0);
/// m.set_objective(x + 0.0);
/// let sol = m.solve()?;
/// assert_eq!(sol.value(x), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
    optimality: Optimality,
    stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(
        values: Vec<f64>,
        objective: f64,
        optimality: Optimality,
        stats: SolveStats,
    ) -> Self {
        Solution {
            values,
            objective,
            optimality,
            stats,
        }
    }

    /// The value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` belongs to a different (larger) model.
    #[must_use]
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// The value of `var` rounded to the nearest integer — convenient for
    /// reading binary decision variables.
    #[must_use]
    pub fn rounded(&self, var: Var) -> i64 {
        self.value(var).round() as i64
    }

    /// All variable values, indexed by [`Var::index`].
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The objective value in the model's optimization sense.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Whether the solution is proven optimal or a limit incumbent.
    #[must_use]
    pub fn optimality(&self) -> Optimality {
        self.optimality
    }

    /// Search statistics for this solve.
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let sol = Solution::new(
            vec![1.0, 0.4999, 2.0],
            7.5,
            Optimality::Proven,
            SolveStats::default(),
        );
        assert_eq!(sol.value(Var(0)), 1.0);
        assert_eq!(sol.rounded(Var(1)), 0);
        assert_eq!(sol.values().len(), 3);
        assert_eq!(sol.objective(), 7.5);
        assert_eq!(sol.optimality(), Optimality::Proven);
        assert_eq!(sol.stats().nodes, 0);
    }
}

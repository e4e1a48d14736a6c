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
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub nodes: usize,
    /// Total simplex pivots across all nodes.
    pub simplex_iterations: usize,
    /// Nodes whose LP was solved warm from a known basis, so that
    /// `warm_nodes + cold_nodes == nodes`. A child node starts from its
    /// parent's basis. The root starts from the basis the root cut loop
    /// committed, or from a [`BasisStore`](crate::BasisStore) entry, and
    /// solves cold only when it has neither.
    pub warm_nodes: usize,
    /// Nodes solved by the cold two-phase primal (including warm attempts
    /// that fell back on numerical trouble).
    pub cold_nodes: usize,
    /// Total basis LU (re)factorizations across all node LPs. Zero when the
    /// dense reference kernel solves them ([`SparseMode::Dense`], or
    /// [`SparseMode::Auto`] below its size threshold), since the dense
    /// tableau never factorizes.
    ///
    /// [`SparseMode::Dense`]: crate::SparseMode::Dense
    /// [`SparseMode::Auto`]: crate::SparseMode::Auto
    pub refactorizations: usize,
    /// Total eta-file basis updates recorded between refactorizations
    /// across all node LPs (sparse kernel only; see
    /// [`SolveOptions::refactor_interval`](crate::SolveOptions::refactor_interval)).
    pub eta_updates: usize,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Classic presolve fixpoint passes actually run (capped by
    /// [`SolveOptions::presolve_passes`](crate::SolveOptions::presolve_passes)).
    pub presolve_passes: usize,
    /// Rows whose big-M / binary coefficients were tightened at the root.
    pub rows_tightened: usize,
    /// Binaries fixed by root probing (tentative fix propagated to a
    /// contradiction, so the opposite value is forced).
    pub binaries_fixed: usize,
    /// Binary implications harvested by probing (`x=1 ⇒ y=v` edges feeding
    /// the clique cuts).
    pub implications: usize,
    /// Cutting planes appended to the root LP (inherited by every node).
    pub cuts_added: usize,
    /// How the root LP was seeded from a cross-solve
    /// [`BasisStore`](crate::BasisStore): `Hot` (exact-dimension stored
    /// basis), `Warm` (stored basis over fewer rows, slack-extended), or
    /// `Cold` (no cross-solve basis engaged — the default, including when
    /// no store is wired or the cut loop committed its own basis).
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

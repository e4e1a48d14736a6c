//! Model construction and the solve entry points.

use crate::branch;
use crate::error::SolveError;
use crate::expr::LinExpr;
use crate::options::SolveOptions;
use crate::solution::{RootBasis, Solution};
use crate::var::{Var, VarDef, VarKind};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective (the paper minimizes chip height / area).
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A stored linear constraint `expr (<=,>=,==) rhs` with the expression's
/// constant already folded into `rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub(crate) expr: LinExpr,
    pub(crate) cmp: Cmp,
    pub(crate) rhs: f64,
}

impl Constraint {
    /// The comparison operator.
    #[must_use]
    pub fn cmp(&self) -> Cmp {
        self.cmp
    }

    /// The right-hand side (constant side).
    #[must_use]
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// The variable side of the constraint.
    #[must_use]
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// Whether `values` satisfies this constraint within `tol`.
    #[must_use]
    pub fn is_satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.expr.eval(values);
        match self.cmp {
            Cmp::Le => lhs <= self.rhs + tol,
            Cmp::Ge => lhs >= self.rhs - tol,
            Cmp::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A mixed 0-1 integer linear program under construction.
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) cons: Vec<Constraint>,
    pub(crate) objective: LinExpr,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    #[must_use]
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            cons: Vec::new(),
            objective: LinExpr::new(),
        }
    }

    /// The optimization sense.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a variable with explicit kind and bounds and returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind, lb: f64, ub: f64) -> Var {
        let v = Var(self.vars.len());
        self.vars.push(VarDef {
            name: name.into(),
            lb,
            ub,
            kind,
            branch_priority: 0,
        });
        v
    }

    /// Adds a continuous variable in `[lb, ub]` (`ub` may be `f64::INFINITY`,
    /// `lb` may be `f64::NEG_INFINITY`).
    pub fn add_continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.add_var(name, VarKind::Continuous, lb, ub)
    }

    /// Adds a 0-1 variable — the paper's pair-relation (`x_ij`, `y_ij`) and
    /// rotation (`z_i`) variables.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Adds a general integer variable in `[lb, ub]`.
    pub fn add_integer(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.add_var(name, VarKind::Integer, lb, ub)
    }

    /// Sets the branching priority of `var`; higher priorities are branched
    /// on first. The floorplanner prioritizes pair variables of large
    /// modules, which prunes the big-M disjunctions early.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a variable of this model.
    pub fn set_branch_priority(&mut self, var: Var, priority: i32) {
        self.vars[var.index()].branch_priority = priority;
    }

    /// The diagnostic name a variable was created with.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a variable of this model.
    #[must_use]
    pub fn var_name(&self, var: Var) -> &str {
        &self.vars[var.index()].name
    }

    /// Looks up a variable by its creation name (first match).
    #[must_use]
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.vars.iter().position(|d| d.name == name).map(Var)
    }

    /// Bounds `(lb, ub)` of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a variable of this model.
    #[must_use]
    pub fn bounds(&self, var: Var) -> (f64, f64) {
        let d = &self.vars[var.index()];
        (d.lb, d.ub)
    }

    /// Tightens the bounds of an existing variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a variable of this model.
    pub fn set_bounds(&mut self, var: Var, lb: f64, ub: f64) {
        let d = &mut self.vars[var.index()];
        d.lb = lb;
        d.ub = ub;
    }

    /// Changes the kind (continuous/binary/integer) of an existing
    /// variable; binary narrows the bounds to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a variable of this model.
    pub fn set_kind(&mut self, var: Var, kind: VarKind) {
        let d = &mut self.vars[var.index()];
        d.kind = kind;
        if kind == VarKind::Binary {
            d.lb = d.lb.max(0.0);
            d.ub = d.ub.min(1.0);
        }
    }

    /// Adds `expr cmp rhs`; any constant inside `expr` is moved to the rhs.
    /// Returns the constraint's row index.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) -> usize {
        let mut expr = expr.into();
        let shifted = rhs - expr.constant_part();
        expr.add_constant(-expr.constant_part());
        expr.compact();
        self.cons.push(Constraint {
            expr,
            cmp,
            rhs: shifted,
        });
        self.cons.len() - 1
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> usize {
        self.add_constraint(expr, Cmp::Le, rhs)
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> usize {
        self.add_constraint(expr, Cmp::Ge, rhs)
    }

    /// Adds `expr == rhs`.
    pub fn add_eq(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> usize {
        self.add_constraint(expr, Cmp::Eq, rhs)
    }

    /// Sets the objective expression (constants are preserved and simply
    /// offset the reported objective value).
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>) {
        self.objective = expr.into();
    }

    /// The current objective expression.
    #[must_use]
    pub fn objective_expr(&self) -> &LinExpr {
        &self.objective
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// Number of integral (binary + integer) variables. The paper tracks this
    /// quantity carefully — `K(K-1)` pair variables for `K` modules — because
    /// it drives the branch-and-bound cost.
    #[must_use]
    pub fn num_integer_vars(&self) -> usize {
        self.vars.iter().filter(|d| d.kind.is_integral()).count()
    }

    /// Iterates over the constraints.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.cons.iter()
    }

    /// Checks structural validity: finite coefficients, consistent bounds,
    /// variables in range.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidModel`] describing the first defect found.
    pub fn validate(&self) -> Result<(), SolveError> {
        for (i, d) in self.vars.iter().enumerate() {
            if d.lb > d.ub {
                return Err(SolveError::InvalidModel(format!(
                    "variable {} ('{}') has lb {} > ub {}",
                    i, d.name, d.lb, d.ub
                )));
            }
            if d.lb.is_nan() || d.ub.is_nan() {
                return Err(SolveError::InvalidModel(format!(
                    "variable {} ('{}') has NaN bound",
                    i, d.name
                )));
            }
            if d.kind.is_integral() && (!d.lb.is_finite() || !d.ub.is_finite()) {
                return Err(SolveError::InvalidModel(format!(
                    "integer variable {} ('{}') must have finite bounds",
                    i, d.name
                )));
            }
        }
        let check_expr = |what: &str, e: &LinExpr| -> Result<(), SolveError> {
            if let Some(max) = e.max_col() {
                if max >= self.vars.len() {
                    return Err(SolveError::InvalidModel(format!(
                        "{what} references variable {max} but model has {}",
                        self.vars.len()
                    )));
                }
            }
            for (v, c) in e.iter() {
                if !c.is_finite() {
                    return Err(SolveError::InvalidModel(format!(
                        "{what} has non-finite coefficient on {v}"
                    )));
                }
            }
            Ok(())
        };
        check_expr("objective", &self.objective)?;
        for (r, con) in self.cons.iter().enumerate() {
            check_expr(&format!("constraint {r}"), &con.expr)?;
            if !con.rhs.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "constraint {r} has non-finite rhs"
                )));
            }
        }
        Ok(())
    }

    /// Whether `values` satisfies all constraints, bounds and integrality
    /// within `tol`. Used pervasively by the test suite.
    #[must_use]
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (d, &x) in self.vars.iter().zip(values) {
            if x < d.lb - tol || x > d.ub + tol {
                return false;
            }
            if d.kind.is_integral() && (x - x.round()).abs() > tol {
                return false;
            }
        }
        self.cons.iter().all(|c| c.is_satisfied(values, tol))
    }

    /// Solves the model with [`SolveOptions::default`].
    ///
    /// # Errors
    ///
    /// See [`SolveError`]; notably [`SolveError::Infeasible`] and
    /// [`SolveError::Unbounded`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solves the model with explicit options.
    ///
    /// Pure LPs (no integral variables) go straight to the simplex; otherwise
    /// branch-and-bound explores the 0-1 / integer space.
    ///
    /// # Errors
    ///
    /// See [`SolveError`].
    pub fn solve_with(&self, options: &SolveOptions) -> Result<Solution, SolveError> {
        self.solve_traced(options, &fp_obs::Tracer::disabled())
    }

    /// Solves the model with explicit options, emitting structured trace
    /// events ([`fp_obs::Event::SolveStart`], per-node
    /// [`fp_obs::Event::BnbNode`], [`fp_obs::Event::Incumbent`] updates in
    /// improvement order, and a final [`fp_obs::Event::SolveEnd`] whose node
    /// and simplex totals match [`Solution::stats`](crate::Solution::stats))
    /// through `tracer`. With [`fp_obs::Tracer::disabled`] this is exactly
    /// [`Model::solve_with`].
    ///
    /// ```
    /// use fp_milp::{Model, Sense, SolveOptions};
    /// use fp_obs::{Collector, EventKind, Tracer};
    /// # fn main() -> Result<(), fp_milp::SolveError> {
    /// let mut m = Model::new(Sense::Maximize);
    /// let x = m.add_integer("x", 0.0, 10.0);
    /// m.add_le(2.0 * x, 5.0);
    /// m.set_objective(x + 0.0);
    /// let collector = Collector::new();
    /// let s = m.solve_traced(&SolveOptions::default(), &Tracer::new(collector.clone()))?;
    /// assert_eq!(collector.count_of(EventKind::BnbNode), s.stats().nodes);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// See [`SolveError`]. Even on errors the trace pairs every
    /// `SolveStart` with a `SolveEnd`, except for
    /// [`SolveError::InvalidModel`], which is rejected before the solve
    /// starts and emits nothing.
    pub fn solve_traced(
        &self,
        options: &SolveOptions,
        tracer: &fp_obs::Tracer,
    ) -> Result<Solution, SolveError> {
        self.solve_seeded(options, tracer, None)
    }

    /// [`Model::solve_traced`], with the first root LP started from `seed`:
    /// the cut-free root basis of an earlier solve
    /// ([`SolveStats::root_basis`](crate::SolveStats::root_basis)). The
    /// seed loads only when [`SolveOptions::warm_start`] is on, this model
    /// has the seed's column count, and presolve leaves it at least the
    /// seed's rows; otherwise the solve runs as if it had none. Where the
    /// model has several optima of equal cost, the seed can decide which
    /// one comes back; the proven objective does not depend on it.
    ///
    /// ```
    /// use fp_milp::{Model, Sense, SolveOptions};
    /// use fp_obs::Tracer;
    /// # fn main() -> Result<(), fp_milp::SolveError> {
    /// let mut m = Model::new(Sense::Maximize);
    /// let x = m.add_integer("x", 0.0, 10.0);
    /// let y = m.add_integer("y", 0.0, 10.0);
    /// m.add_le(2.0 * x + 3.0 * y, 12.0);
    /// m.set_objective(x + y);
    /// let (options, tracer) = (SolveOptions::default(), Tracer::disabled());
    /// let first = m.solve_traced(&options, &tracer)?;
    /// let seed = first.stats().root_basis.clone();
    /// let again = m.solve_seeded(&options, &tracer, seed.as_ref())?;
    /// assert_eq!(again.objective(), first.objective());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`Model::solve_traced`].
    pub fn solve_seeded(
        &self,
        options: &SolveOptions,
        tracer: &fp_obs::Tracer,
        seed: Option<&RootBasis>,
    ) -> Result<Solution, SolveError> {
        self.validate()?;
        branch::solve(self, options, tracer, seed)
    }

    /// Solves the **LP relaxation**: integrality is dropped, everything else
    /// kept. The relaxation objective bounds the MILP optimum (lower bound
    /// when minimizing), which is useful for gap reporting and diagnostics.
    ///
    /// ```
    /// use fp_milp::{Model, Sense};
    /// # fn main() -> Result<(), fp_milp::SolveError> {
    /// let mut m = Model::new(Sense::Maximize);
    /// let x = m.add_integer("x", 0.0, 10.0);
    /// m.add_le(2.0 * x, 5.0);
    /// m.set_objective(x + 0.0);
    /// assert_eq!(m.solve()?.objective(), 2.0);             // integral
    /// assert_eq!(m.solve_relaxation()?.objective(), 2.5);  // relaxed
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// See [`SolveError`].
    pub fn solve_relaxation(&self) -> Result<Solution, SolveError> {
        let mut relaxed = self.clone();
        for def in &mut relaxed.vars {
            def.kind = VarKind::Continuous;
        }
        relaxed.solve()
    }

    /// Internal: objective coefficients as a dense vector in *minimization*
    /// form (maximization is negated), plus the constant offset.
    pub(crate) fn min_objective(&self) -> (Vec<f64>, f64) {
        let mut c = vec![0.0; self.vars.len()];
        for (v, coeff) in self.objective.iter() {
            c[v.index()] = coeff;
        }
        let mut offset = self.objective.constant_part();
        if self.sense == Sense::Maximize {
            for x in &mut c {
                *x = -*x;
            }
            offset = -offset;
        }
        (c, offset)
    }

    /// Internal: the constraint rows in the solver's sparse form.
    pub(crate) fn sparse_rows(&self) -> Vec<crate::simplex::SparseRow> {
        self.cons
            .iter()
            .map(|con| {
                (
                    con.expr.iter().map(|(v, a)| (v.index(), a)).collect(),
                    con.cmp,
                    con.rhs,
                )
            })
            .collect()
    }

    /// Internal: converts a minimization objective value back to the model's
    /// sense.
    pub(crate) fn externalize_obj(&self, min_obj: f64) -> f64 {
        match self.sense {
            Sense::Minimize => min_obj,
            Sense::Maximize => -min_obj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_into_rhs() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0);
        let row = m.add_le(x + 3.0, 5.0);
        let con = &m.cons[row];
        assert_eq!(con.rhs(), 2.0);
        assert_eq!(con.expr().constant_part(), 0.0);
    }

    #[test]
    fn validate_catches_bad_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_continuous("x", 2.0, 1.0);
        assert!(matches!(m.validate(), Err(SolveError::InvalidModel(_))));
    }

    #[test]
    fn validate_catches_unbounded_integer() {
        let mut m = Model::new(Sense::Minimize);
        m.add_integer("n", 0.0, f64::INFINITY);
        assert!(matches!(m.validate(), Err(SolveError::InvalidModel(_))));
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0);
        let b = m.add_binary("b");
        m.add_le(x + 5.0 * b, 7.0);
        assert!(m.is_feasible(&[2.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[3.0, 1.0], 1e-9)); // constraint violated
        assert!(!m.is_feasible(&[2.0, 0.5], 1e-9)); // fractional binary
        assert!(!m.is_feasible(&[11.0, 0.0], 1e-9)); // bound violated
        assert!(!m.is_feasible(&[2.0], 1e-9)); // wrong arity
    }

    #[test]
    fn min_objective_negates_for_maximize() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 1.0);
        m.set_objective(2.0 * x + 1.0);
        let (c, offset) = m.min_objective();
        assert_eq!(c, vec![-2.0]);
        assert_eq!(offset, -1.0);
        assert_eq!(m.externalize_obj(-3.0), 3.0);
    }

    #[test]
    fn counts() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0);
        let b = m.add_binary("b");
        m.add_integer("n", 0.0, 5.0);
        m.add_le(x + b, 1.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.num_integer_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
    }
}

//! Test-only probes into the sparse revised simplex kernel and the node
//! bound propagator.
//!
//! Hidden from docs and semver guarantees: this module exists so the
//! integration-level property tests (`tests/prop_solver.rs`,
//! `tests/node_propagation.rs`) can measure internal invariants — the LU +
//! eta-file basis round-trip, and that propagation only settles nodes
//! whose LP is infeasible — that have no business in the public API.
//! Nothing here is stable.

use crate::model::Model;
use crate::options::{FEAS_TOL, OPT_TOL};
use crate::presolve::NodePropagator;
use crate::simplex::{LpConfig, LpOutcome, LpProblem, Workspace};

/// The columns of `model`'s integral (binary or integer) variables.
pub fn integral_columns(model: &Model) -> Vec<usize> {
    (0..model.vars.len())
        .filter(|&j| model.vars[j].kind.is_integral())
        .collect()
}

/// What [`node_propagation_probe`] found on one bound box.
#[derive(Debug, Clone, Copy)]
pub struct PropagationProbe {
    /// Node propagation proved the box's LP relaxation infeasible, so
    /// branch-and-bound would settle the node without solving its LP.
    pub settled: bool,
    /// A cold LP solve of the box, at the solver's default tolerances,
    /// reported `Infeasible`.
    pub lp_infeasible: bool,
}

/// Runs the node propagator and a cold LP solve on one bound box: the
/// model's own bounds with column `j` fixed to `v` for each `(j, v)` of
/// `fixes`. Propagation reaches the box the way branch-and-bound does: a
/// root pass over the model's bounds, then one branching step per fix,
/// each starting from the box the step before proved.
pub fn node_propagation_probe(model: &Model, fixes: &[(usize, f64)]) -> PropagationProbe {
    let (c, _) = model.min_objective();
    let rows = model.sparse_rows();
    let mut lb: Vec<f64> = model.vars.iter().map(|d| d.lb).collect();
    let mut ub: Vec<f64> = model.vars.iter().map(|d| d.ub).collect();
    let mut prop = NodePropagator::new(&rows, model.vars.len());
    let mut settled = !prop.run(&lb, &ub, None);
    for &(j, v) in fixes {
        if settled {
            break;
        }
        lb[j] = v;
        ub[j] = v;
        let parent = prop.share();
        settled = !prop.run(&lb, &ub, Some((&parent, j)));
    }
    let cfg = LpConfig {
        feas_tol: FEAS_TOL,
        opt_tol: OPT_TOL,
        deadline: None,
        warm_pivot_cap: 0,
        refactor_interval: 0,
    };
    let p = LpProblem {
        ncols: model.vars.len(),
        rows: &rows,
        c: &c,
        lb: &lb,
        ub: &ub,
    };
    let (out, _) = Workspace::new().solve(&p, None, &cfg);
    PropagationProbe {
        settled,
        lp_infeasible: matches!(out, LpOutcome::Infeasible),
    }
}

/// What [`sparse_root_lp_probe`] measured on one root-LP solve.
#[derive(Debug, Clone, Copy)]
pub struct LuProbe {
    /// Root relaxation objective in minimization form (objective offset
    /// included), or `None` when the LP is infeasible/unbounded/limited.
    pub objective: Option<f64>,
    /// `max_i ‖B·(B⁻¹·e_i) − e_i‖_∞` over every basis column, with `B⁻¹`
    /// applied through the kernel's LU factors *plus the live eta file* and
    /// `B` through the raw constraint columns of the final basis.
    pub roundtrip: f64,
    /// Simplex pivots the solve spent.
    pub pivots: usize,
    /// Basis (re)factorizations performed.
    pub refactors: usize,
    /// Eta-file updates recorded over the whole solve (monotone counter;
    /// refactorizations do not rewind it).
    pub etas: usize,
    /// Eta columns still live in the product-form file at the probe point
    /// (the final accuracy refresh is suppressed so the file is *not*
    /// cleared before measuring).
    pub live_etas: usize,
}

/// Solves `model`'s root LP relaxation cold on the sparse kernel with the
/// given `refactor_interval` (`0` = auto) and probes the resulting basis
/// representation. The final accuracy refactorization is suppressed, so
/// after K pivots with a large interval the round-trip exercises an LU
/// factorization plus K eta updates — exactly the accumulated state the
/// equivalence argument depends on.
pub fn sparse_root_lp_probe(model: &Model, refactor_interval: usize) -> LuProbe {
    let (c, c_offset) = model.min_objective();
    let rows = model.sparse_rows();
    let lb: Vec<f64> = model.vars.iter().map(|d| d.lb).collect();
    let ub: Vec<f64> = model.vars.iter().map(|d| d.ub).collect();
    let p = LpProblem {
        ncols: model.vars.len(),
        rows: &rows,
        c: &c,
        lb: &lb,
        ub: &ub,
    };
    let cfg = LpConfig {
        feas_tol: FEAS_TOL,
        opt_tol: OPT_TOL,
        deadline: None,
        warm_pivot_cap: 0,
        refactor_interval,
    };
    let mut ws = Workspace::new();
    ws.sp.final_refresh = false;
    let (out, info) = ws.solve(&p, None, &cfg);
    LuProbe {
        objective: match out {
            LpOutcome::Optimal { obj, .. } => Some(obj + c_offset),
            _ => None,
        },
        roundtrip: ws.sp.roundtrip_residual(),
        pivots: info.pivots,
        refactors: info.refactors,
        etas: ws.sp.eta_updates,
        live_etas: ws.sp.live_etas(),
    }
}

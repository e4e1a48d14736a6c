//! Test-only probes into the sparse revised simplex kernel and the node
//! bound propagator.
//!
//! Hidden from docs and semver guarantees: this module exists so the
//! integration-level property tests (`tests/prop_solver.rs`,
//! `tests/node_propagation.rs`) can measure internal invariants — the LU +
//! eta-file basis round-trip, and that propagation only settles nodes
//! whose box holds no integer point — that have no business in the public
//! API. Nothing here is stable.

use crate::model::Model;
use crate::options::{FEAS_TOL, INT_TOL, OPT_TOL};
use crate::presolve::NodePropagator;
use crate::simplex::{LpConfig, LpOutcome, LpProblem, SparseRow, Workspace};

/// The columns of `model`'s integral (binary or integer) variables.
pub fn integral_columns(model: &Model) -> Vec<usize> {
    (0..model.vars.len())
        .filter(|&j| model.vars[j].kind.is_integral())
        .collect()
}

/// What [`node_propagation_probe`] found on one bound box.
#[derive(Debug, Clone, Copy)]
pub struct PropagationProbe {
    /// Node propagation proved that the box holds no integer point, so
    /// branch-and-bound would settle the node without solving its LP.
    pub settled: bool,
    /// The same propagation with every column read as continuous, so no
    /// bound is rounded, also settled the box: its proof holds for the
    /// box's whole LP relaxation.
    pub settled_unrounded: bool,
    /// A cold LP solve of the box, at the solver's default tolerances,
    /// reported `Infeasible`.
    pub lp_infeasible: bool,
}

/// The model's own bounds with column `j` fixed to `v` for each `(j, v)`
/// of `fixes`.
fn fixed_box(model: &Model, fixes: &[(usize, f64)]) -> (Vec<f64>, Vec<f64>) {
    let mut lb: Vec<f64> = model.vars.iter().map(|d| d.lb).collect();
    let mut ub: Vec<f64> = model.vars.iter().map(|d| d.ub).collect();
    for &(j, v) in fixes {
        lb[j] = v;
        ub[j] = v;
    }
    (lb, ub)
}

/// Whether node propagation over `integral` settles the box of `fixes`,
/// reached the way branch-and-bound reaches it: a root pass over the
/// model's bounds, then one branching step per fix, each starting from the
/// box the step before proved.
fn settles(model: &Model, rows: &[SparseRow], integral: &[bool], fixes: &[(usize, f64)]) -> bool {
    let (mut lb, mut ub) = fixed_box(model, &[]);
    let mut prop = NodePropagator::new(rows, integral);
    if !prop.run(&lb, &ub, None) {
        return true;
    }
    for &(j, v) in fixes {
        lb[j] = v;
        ub[j] = v;
        let parent = prop.share();
        if !prop.run(&lb, &ub, Some((&parent, j))) {
            return true;
        }
    }
    false
}

/// The LP configuration of a branch-and-bound node, without a deadline.
fn lp_config() -> LpConfig {
    LpConfig {
        feas_tol: FEAS_TOL,
        opt_tol: OPT_TOL,
        deadline: None,
        warm_pivot_cap: 0,
        refactor_interval: 0,
    }
}

/// Runs node propagation, with and without rounding, and a cold LP solve
/// on one bound box: the model's own bounds with column `j` fixed to `v`
/// for each `(j, v)` of `fixes`.
pub fn node_propagation_probe(model: &Model, fixes: &[(usize, f64)]) -> PropagationProbe {
    let (c, _) = model.min_objective();
    let rows = model.sparse_rows();
    let integral: Vec<bool> = model.vars.iter().map(|d| d.kind.is_integral()).collect();
    let (lb, ub) = fixed_box(model, fixes);
    let p = LpProblem {
        ncols: model.vars.len(),
        rows: &rows,
        c: &c,
        lb: &lb,
        ub: &ub,
    };
    let (out, _) = Workspace::new().solve(&p, None, &lp_config());
    PropagationProbe {
        settled: settles(model, &rows, &integral, fixes),
        settled_unrounded: settles(model, &rows, &vec![false; integral.len()], fixes),
        lp_infeasible: matches!(out, LpOutcome::Infeasible),
    }
}

/// Whether the box of `fixes` holds a point branch-and-bound would accept
/// as an incumbent, whatever its objective: every integral column within
/// `INT_TOL` of an integer and every row within the LP kernel's
/// tolerances. Decided without the propagator, by a depth-first search
/// over cold LP relaxations that prunes only on LP infeasibility. A node
/// whose LP vertex is not accepted splits on a column at fractional value
/// `v` into the values up to `⌊v⌋ + INT_TOL` and those from
/// `⌈v⌉ − INT_TOL`, which between them hold every value the search
/// accepts (less the last 1e-12 of each window). `None` when `max_lps` LP
/// solves, or an LP that ends neither optimal nor infeasible, leave the
/// question open.
pub fn box_holds_integer_point(
    model: &Model,
    fixes: &[(usize, f64)],
    max_lps: usize,
) -> Option<bool> {
    let (c, _) = model.min_objective();
    let rows = model.sparse_rows();
    let integral = integral_columns(model);
    let mut stack = vec![fixed_box(model, fixes)];
    for _ in 0..max_lps {
        let Some((lb, ub)) = stack.pop() else {
            return Some(false);
        };
        let p = LpProblem {
            ncols: model.vars.len(),
            rows: &rows,
            c: &c,
            lb: &lb,
            ub: &ub,
        };
        let x = match Workspace::new().solve(&p, None, &lp_config()).0 {
            LpOutcome::Optimal { x, .. } => x,
            LpOutcome::Infeasible => continue,
            _ => return None,
        };
        // A basic value may sit up to the feasibility tolerance outside
        // its bounds; read it inside them, so a column already held to a
        // window around an integer counts as integral.
        let value = |j: usize| x[j].clamp(lb[j], ub[j]);
        let Some(&j) = integral
            .iter()
            .find(|&&j| (value(j) - value(j).round()).abs() > INT_TOL)
        else {
            return Some(true);
        };
        // Each window stops 1e-12 inside INT_TOL, so that its end value,
        // once rounded to a float, still passes the integrality test.
        let window = INT_TOL - 1e-12;
        let v = value(j);
        let mut down = (lb.clone(), ub.clone());
        down.1[j] = down.1[j].min(v.floor() + window);
        let mut up = (lb, ub);
        up.0[j] = up.0[j].max(v.ceil() - window);
        // A child whose bounds cross holds nothing.
        for child in [up, down] {
            if child.0[j] <= child.1[j] {
                stack.push(child);
            }
        }
    }
    None
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
    let (lb, ub) = fixed_box(model, &[]);
    let p = LpProblem {
        ncols: model.vars.len(),
        rows: &rows,
        c: &c,
        lb: &lb,
        ub: &ub,
    };
    let cfg = LpConfig {
        refactor_interval,
        ..lp_config()
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

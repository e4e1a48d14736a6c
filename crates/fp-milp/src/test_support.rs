//! Test-only probes into the sparse revised simplex kernel.
//!
//! Hidden from docs and semver guarantees: this module exists so the
//! integration-level property tests (`tests/prop_solver.rs`) can measure
//! internal invariants — the LU + eta-file basis round-trip — that have no
//! business in the public API. Nothing here is stable.

use crate::model::Model;
use crate::simplex::{LpConfig, LpOutcome, LpProblem, SparseRow, Workspace};

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
    let rows: Vec<SparseRow> = model
        .cons
        .iter()
        .map(|con| {
            (
                con.expr.iter().map(|(v, a)| (v.index(), a)).collect(),
                con.cmp,
                con.rhs,
            )
        })
        .collect();
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
        feas_tol: 1e-7,
        opt_tol: 1e-9,
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

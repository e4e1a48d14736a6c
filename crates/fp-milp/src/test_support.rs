//! Test-only probes into the sparse revised simplex kernel, the node
//! bound propagator and root probing, and the oracles they are checked
//! against.
//!
//! Hidden from docs and semver guarantees: this module exists so the
//! integration-level property tests (`tests/prop_solver.rs`,
//! `tests/node_propagation.rs`, fp-core's step tests) can measure internal
//! invariants — the LU + eta-file basis round-trip, that propagation only
//! settles nodes whose box holds no integer point that beats the cutoff,
//! that the search with the cutoff and learned rows answers as one without
//! them, and that probing's dirty-row sweep equals a full sweep — that
//! have no business in the public API. Nothing here is stable.

use crate::branch::{solve_with, PRESOLVE_PASSES, PROBE_BUDGET};
use crate::error::SolveError;
use crate::model::{Cmp, Model};
use crate::options::{SolveOptions, FEAS_TOL, INT_TOL, OPT_TOL};
use crate::presolve::{
    activity, exceeds, imply_bounds, learned_rows, presolve, propagate, round_integral, sides,
    strengthen_with, ColumnRows, NodePropagator, PresolveStatus, Strengthened, Sweep,
};
use crate::simplex::{LpConfig, LpOutcome, LpProblem, SparseRow, Workspace};
use crate::solution::Solution;

/// The columns of `model`'s integral (binary or integer) variables.
pub fn integral_columns(model: &Model) -> Vec<usize> {
    (0..model.vars.len())
        .filter(|&j| model.vars[j].kind.is_integral())
        .collect()
}

/// Whether each column of `model` is integral (binary or integer).
fn integral_mask(model: &Model) -> Vec<bool> {
    model.vars.iter().map(|d| d.kind.is_integral()).collect()
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
    let (lb, ub) = fixed_box(model, &[]);
    let mut prop = NodePropagator::new(rows, integral, &[], Vec::new());
    !prop.run(&lb, &ub, None) || walk(&mut prop, lb, ub, fixes)
}

/// Whether `prop`, already run at the root over `lb`/`ub`, settles one of
/// the branching steps that fix column `j` to `v` for each `(j, v)` of
/// `fixes` in turn.
fn walk(
    prop: &mut NodePropagator<'_>,
    mut lb: Vec<f64>,
    mut ub: Vec<f64>,
    fixes: &[(usize, f64)],
) -> bool {
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
    let integral = integral_mask(model);
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

/// `c·x` for `model`'s minimization-form objective `c` without its
/// constant: the value a search compares with its incumbent.
pub fn min_form_objective(model: &Model, x: &[f64]) -> f64 {
    let (c, _) = model.min_objective();
    c.iter().zip(x).map(|(c, x)| c * x).sum()
}

/// Whether node propagation as a solve runs it settles the box of `fixes`
/// under the cutoff `cutoff`: over the rows and bounds root presolve and
/// strengthening leave, with the rows probing learned and the cutoff row
/// `c·x ≤ cutoff − 1e-9`, where `c` is the model's minimization-form
/// objective without its constant. The root pass runs before any
/// incumbent; the cutoff is set after it, so the first branching step
/// re-queues the cutoff row as the search's children do (a box without
/// fixes gets a second root pass). A model that presolve or probing
/// proves infeasible settles every box.
pub fn settles_under_cutoff(model: &Model, fixes: &[(usize, f64)], cutoff: f64) -> bool {
    let (c, _) = model.min_objective();
    let integral = integral_mask(model);
    let Some((rows, lb, ub, st)) = strengthened_root(model, &integral, propagate) else {
        return true;
    };
    let learned = learned_rows(&st, &lb, &ub);
    let mut prop = NodePropagator::new(&rows, &integral, &c, learned);
    if !prop.run(&lb, &ub, None) {
        return true;
    }
    prop.set_cutoff(cutoff);
    if fixes.is_empty() {
        return !prop.run(&lb, &ub, None);
    }
    walk(&mut prop, lb, ub, fixes)
}

/// A strengthened root: its rows, lower and upper bounds, and what
/// strengthening learned.
type Root = (Vec<SparseRow>, Vec<f64>, Vec<f64>, Strengthened);

/// The root that presolve and strengthening (probing with `sweep`) leave
/// for `model`, as a solve computes it; `None` when either proves the
/// model infeasible.
fn strengthened_root(model: &Model, integral: &[bool], sweep: Sweep) -> Option<Root> {
    let rows = model.sparse_rows();
    let (lb, ub) = fixed_box(model, &[]);
    let pre = presolve(&rows, lb, ub, integral, FEAS_TOL, PRESOLVE_PASSES);
    if pre.status == PresolveStatus::Infeasible {
        return None;
    }
    let mut rows: Vec<SparseRow> = pre.kept_rows.iter().map(|&r| rows[r].clone()).collect();
    let (mut lb, mut ub) = (pre.lb, pre.ub);
    let st = strengthen_with(
        &mut rows,
        &mut lb,
        &mut ub,
        integral,
        FEAS_TOL,
        PROBE_BUDGET,
        sweep,
    )
    .ok()?;
    Some((rows, lb, ub, st))
}

/// Solves `model` as [`Model::solve_with`] does, but with a node
/// propagator that has neither the cutoff row nor the rows probing
/// learned: the search every solve must answer as, bit for bit, when it
/// finishes.
///
/// # Errors
///
/// As for [`Model::solve_with`].
pub fn reference_solve(model: &Model, options: &SolveOptions) -> Result<Solution, SolveError> {
    model.validate()?;
    let tracer = fp_obs::Tracer::disabled();
    solve_with(model, options, &tracer, None, |rows, integral, _, _| {
        NodePropagator::new(rows, integral, &[], Vec::new())
    })
}

/// The probe sweep over every row in every pass, in order: the oracle
/// `propagate` must match bit for bit. The two share every piece of
/// arithmetic.
pub(crate) fn full_sweep(
    rows: &[SparseRow],
    _: &ColumnRows,
    lb: &mut [f64],
    ub: &mut [f64],
    integral: &[bool],
    feas_tol: f64,
    max_passes: usize,
) -> bool {
    for _ in 0..max_passes.max(1) {
        let mut changed = false;
        for (terms, cmp, rhs) in rows {
            let (min_act, max_act) = activity(terms, lb, ub);
            for &s in sides(*cmp) {
                let act = if s > 0.0 { min_act } else { max_act };
                if exceeds(s, *rhs, act, feas_tol) {
                    return false;
                }
                changed |= imply_bounds(terms, s, *rhs, act, lb, ub, |_| {});
            }
        }
        match round_integral(lb, ub, integral, feas_tol, |_| {}) {
            Some(moved) => changed |= moved,
            None => return false,
        }
        if !changed {
            break;
        }
    }
    true
}

/// Runs root presolve and strengthening on `model` twice, probing once
/// with the dirty-row sweep and once with the full sweep, and describes
/// the first difference in the strengthened rows, bounds or
/// learned implications, bit for bit; `Ok` when there is none.
///
/// # Errors
///
/// The first difference found.
pub fn strengthen_matches_full_sweep(model: &Model) -> Result<(), String> {
    let integral = integral_mask(model);
    let dirty = strengthened_root(model, &integral, propagate);
    let full = strengthened_root(model, &integral, full_sweep);
    let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
    match (dirty, full) {
        (None, None) => Ok(()),
        (Some((rows, lb, ub, st)), Some((f_rows, f_lb, f_ub, f_st))) => {
            if bits(&lb) != bits(&f_lb) || bits(&ub) != bits(&f_ub) {
                return Err(format!("bounds differ: {lb:?} {ub:?} vs {f_lb:?} {f_ub:?}"));
            }
            let row_bits = |rows: &[SparseRow]| {
                rows.iter()
                    .map(|(t, cmp, rhs)| {
                        let t: Vec<_> = t.iter().map(|&(j, a)| (j, a.to_bits())).collect();
                        (t, *cmp == Cmp::Le, *cmp == Cmp::Ge, rhs.to_bits())
                    })
                    .collect::<Vec<_>>()
            };
            if row_bits(&rows) != row_bits(&f_rows) {
                return Err("strengthened rows differ".to_string());
            }
            let (a, b) = (format!("{st:?}"), format!("{f_st:?}"));
            if a != b {
                return Err(format!("Strengthened differs: {a} vs {b}"));
            }
            Ok(())
        }
        (dirty, full) => Err(format!(
            "verdicts differ: dirty-row sweep feasible {}, full sweep feasible {}",
            dirty.is_some(),
            full.is_some()
        )),
    }
}

/// Whether the box of `fixes` holds a point branch-and-bound would accept
/// as a new incumbent under the incumbent objective `cap` (`f64::INFINITY`
/// before the first): every integral column within `INT_TOL` of an
/// integer, every row within the LP kernel's tolerances and `c·x <
/// cap − 1e-9`, the search's own acceptance test, where `c` is the
/// minimization-form objective without its constant. Decided without the
/// propagator, by a depth-first search over cold LP relaxations that
/// prunes only on LP infeasibility and, as the search does, on an LP
/// objective of at least `cap − 1e-9`. A node whose LP vertex is not
/// accepted splits on a column at fractional value `v` into the values up
/// to `⌊v⌋ + INT_TOL` and those from `⌈v⌉ − INT_TOL`, which between them
/// hold every value the search accepts (less the last 1e-12 of each
/// window). `None` when `max_lps` LP solves, or an LP that ends neither
/// optimal nor infeasible, leave the question open.
pub fn box_holds_integer_point(
    model: &Model,
    fixes: &[(usize, f64)],
    max_lps: usize,
    cap: f64,
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
            LpOutcome::Optimal { obj, .. } if obj >= cap - 1e-9 => continue,
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

//! Root presolve: bound tightening and redundant-row elimination.
//!
//! Run once before branch-and-bound. Three classic, safe reductions:
//!
//! 1. **Singleton rows** (`a·x ⋄ b` with one term) become variable bounds
//!    and are dropped.
//! 2. **Activity bounds**: a row whose worst-case activity already
//!    satisfies it is redundant and dropped; one whose best-case activity
//!    violates it proves infeasibility.
//! 3. **Implied bounds**: each variable's bound is tightened against every
//!    row's residual activity; integral variables then round their bounds
//!    inward.
//!
//! Passes repeat until a fixpoint (capped), since each tightening can
//! enable more.

use crate::model::Cmp;
use crate::options::INT_TOL;
use crate::simplex::SparseRow;
use std::collections::{BTreeSet, VecDeque};

/// Outcome of presolving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PresolveStatus {
    /// Continue with the reduced problem.
    Reduced,
    /// The constraint system is infeasible.
    Infeasible,
}

/// Result: tightened bounds plus the subset of rows still needed.
#[derive(Debug, Clone)]
pub(crate) struct Presolved {
    pub status: PresolveStatus,
    /// Indices into the original row set that must be kept.
    pub kept_rows: Vec<usize>,
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// Fixpoint passes actually run (1..=max_passes).
    pub passes: usize,
}

/// Presolves the system. `integral[j]` marks variables whose bounds may be
/// rounded inward. `max_passes` caps the fixpoint loop (values below one
/// are treated as one); the number of passes actually run is reported in
/// [`Presolved::passes`].
pub(crate) fn presolve(
    rows: &[SparseRow],
    mut lb: Vec<f64>,
    mut ub: Vec<f64>,
    integral: &[bool],
    feas_tol: f64,
    max_passes: usize,
) -> Presolved {
    let mut alive: Vec<bool> = rows.iter().map(|(terms, _, _)| !terms.is_empty()).collect();

    // Empty rows are pure feasibility checks.
    for (terms, cmp, rhs) in rows {
        if terms.is_empty() {
            let ok = match cmp {
                Cmp::Le => 0.0 <= rhs + feas_tol,
                Cmp::Ge => 0.0 >= rhs - feas_tol,
                Cmp::Eq => rhs.abs() <= feas_tol,
            };
            if !ok {
                return infeasible(lb, ub);
            }
        }
    }

    let mut passes = 0;
    for _ in 0..max_passes.max(1) {
        passes += 1;
        let mut changed = false;

        for (r, (terms, cmp, rhs)) in rows.iter().enumerate() {
            if !alive[r] {
                continue;
            }

            // Singleton rows fold into bounds and die.
            if terms.len() == 1 {
                let (j, a) = terms[0];
                if a.abs() > 1e-12 {
                    let v = rhs / a;
                    let (new_lb, new_ub) = match (cmp, a > 0.0) {
                        (Cmp::Le, true) | (Cmp::Ge, false) => (f64::NEG_INFINITY, v),
                        (Cmp::Le, false) | (Cmp::Ge, true) => (v, f64::INFINITY),
                        (Cmp::Eq, _) => (v, v),
                    };
                    if new_lb > lb[j] + 1e-12 {
                        lb[j] = new_lb;
                        changed = true;
                    }
                    if new_ub < ub[j] - 1e-12 {
                        ub[j] = new_ub;
                        changed = true;
                    }
                    alive[r] = false;
                    continue;
                }
            }

            let (min_act, max_act) = activity(terms, &lb, &ub);
            let s = match cmp {
                Cmp::Le => 1.0,
                Cmp::Ge => -1.0,
                Cmp::Eq => {
                    // Treat as both <= and >= for feasibility only (bound
                    // tightening through equalities is left to the LP).
                    if min_act.is_finite() && min_act > rhs + feas_tol * (1.0 + rhs.abs()) {
                        return infeasible(lb, ub);
                    }
                    if max_act.is_finite() && max_act < rhs - feas_tol * (1.0 + rhs.abs()) {
                        return infeasible(lb, ub);
                    }
                    continue;
                }
            };
            // Read as `Σ s·a_j·x_j ≤ s·rhs`, the row's least left-hand side
            // is `s·act` and its greatest `s·worst`.
            let (act, worst) = if s > 0.0 {
                (min_act, max_act)
            } else {
                (max_act, min_act)
            };
            if exceeds(s, *rhs, act, feas_tol) {
                return infeasible(lb, ub);
            }
            if worst.is_finite() && s * worst <= s * rhs + 1e-12 {
                alive[r] = false; // redundant
                changed = true;
                continue;
            }
            changed |= imply_bounds(terms, s, *rhs, act, &mut lb, &mut ub, |_| {});
        }

        match round_integral(&mut lb, &mut ub, integral, feas_tol, |_| {}) {
            Some(moved) => changed |= moved,
            None => return infeasible(lb, ub),
        }

        if !changed {
            break;
        }
    }

    Presolved {
        status: PresolveStatus::Reduced,
        kept_rows: alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(r, _)| r)
            .collect(),
        lb,
        ub,
        passes,
    }
}

fn infeasible(lb: Vec<f64>, ub: Vec<f64>) -> Presolved {
    Presolved {
        status: PresolveStatus::Infeasible,
        kept_rows: Vec::new(),
        lb,
        ub,
        passes: 0,
    }
}

/// The sides a row propagates as, each read as `Σ s·a_j·x_j ≤ s·rhs`: an
/// equality propagates as both inequalities.
pub(crate) fn sides(cmp: Cmp) -> &'static [f64] {
    match cmp {
        Cmp::Le => &[1.0],
        Cmp::Ge => &[-1.0],
        Cmp::Eq => &[1.0, -1.0],
    }
}

/// The least and the greatest value of `Σ a_j·x_j` over the box.
pub(crate) fn activity(terms: &[(usize, f64)], lb: &[f64], ub: &[f64]) -> (f64, f64) {
    let mut min_act = 0.0_f64;
    let mut max_act = 0.0_f64;
    for &(j, a) in terms {
        let (lo, hi) = if a >= 0.0 {
            (a * lb[j], a * ub[j])
        } else {
            (a * ub[j], a * lb[j])
        };
        min_act += lo;
        max_act += hi;
    }
    (min_act, max_act)
}

/// Whether one side of a row, read as `Σ s·a_j·x_j ≤ s·rhs`, proves the box
/// infeasible. `act` is the row's activity `Σ a_j·x_j` at the box corner
/// that minimizes the left-hand side: the least activity for `s = 1`, the
/// greatest for `s = -1`. The box is infeasible when that left-hand side
/// misses the right-hand side by more than the feasibility margin.
pub(crate) fn exceeds(s: f64, rhs: f64, act: f64, feas_tol: f64) -> bool {
    act.is_finite() && s * act > s * rhs + feas_tol.max(1e-9) * (1.0 + rhs.abs())
}

/// Bounds each column of one side of a row, read and with `act` as in
/// [`exceeds`], by what the rest of the row leaves it, and returns whether
/// a bound moved; `moved` hears of each column whose bound moved. The
/// arithmetic stays in the row's own signs, so a `≥` row and its negated
/// `≤` twin derive the same bounds.
pub(crate) fn imply_bounds(
    terms: &[(usize, f64)],
    s: f64,
    rhs: f64,
    act: f64,
    lb: &mut [f64],
    ub: &mut [f64],
    mut moved: impl FnMut(usize),
) -> bool {
    if !act.is_finite() {
        return false;
    }
    let mut changed = false;
    for &(j, a) in terms {
        let own = a * if (a >= 0.0) == (s > 0.0) {
            lb[j]
        } else {
            ub[j]
        };
        let implied = (rhs - (act - own)) / a;
        if s * a > 1e-12 {
            if implied < ub[j] - 1e-9 {
                ub[j] = implied;
                changed = true;
                moved(j);
            }
        } else if s * a < -1e-12 && implied > lb[j] + 1e-9 {
            lb[j] = implied;
            changed = true;
            moved(j);
        }
    }
    changed
}

/// Rounds the bounds of integral columns inward and checks every column for
/// crossed bounds. `None` means some column's bounds cross by more than
/// `feas_tol`; otherwise the result says whether a bound moved, and
/// `moved` hears of each column whose bound moved.
pub(crate) fn round_integral(
    lb: &mut [f64],
    ub: &mut [f64],
    integral: &[bool],
    feas_tol: f64,
    mut moved: impl FnMut(usize),
) -> Option<bool> {
    // Float fuzz must not push a bound past the integer it sits on.
    let snap = |bound: f64, rounded: f64| {
        if (bound - bound.round()).abs() <= 1e-9 {
            bound.round()
        } else {
            rounded
        }
    };
    let mut changed = false;
    for j in 0..lb.len() {
        if integral[j] {
            let mut moves = false;
            if lb[j].ceil() > lb[j] + 1e-9 {
                lb[j] = snap(lb[j], lb[j].ceil());
                moves = true;
            }
            if ub[j].floor() < ub[j] - 1e-9 {
                ub[j] = snap(ub[j], ub[j].floor());
                moves = true;
            }
            if moves {
                changed = true;
                moved(j);
            }
        }
        if lb[j] > ub[j] + feas_tol {
            return None;
        }
    }
    Some(changed)
}

// ---------------------------------------------------------------------------
// Model strengthening: big-M coefficient tightening, 0-1 probing, and the
// root cutting planes separated from what probing learned.
//
// Everything here preserves the set of integer-feasible points exactly —
// reductions may cut LP-relaxation points (that is the goal) but never an
// assignment where every integral variable takes an integer value within
// its original bounds and every original row holds.
// ---------------------------------------------------------------------------

/// Bound-propagation passes used inside each tentative probe.
const PROBE_PASSES: usize = 3;
/// Bound implications harvested per probe (memory cap; the strongest cuts
/// come from the first few row-mates anyway).
const HARVEST_CAP: usize = 8;

/// Which side of a variable's range a probing implication tightens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum BoundKind {
    /// The implication raises the variable's lower bound.
    Lower,
    /// The implication lowers the variable's upper bound.
    Upper,
}

/// A logical edge harvested by probing: `bin = val` forces `other = forced`.
/// Infeasible probe vertices are recorded in the same shape (`(vp, vq)`
/// infeasible ⇔ `p = vp ⇒ q = !vq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Implication {
    pub bin: usize,
    pub val: bool,
    pub other: usize,
    pub forced: bool,
}

/// `bin = val` implies `var`'s `kind` bound improves to `bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BoundImpl {
    pub bin: usize,
    pub val: bool,
    pub var: usize,
    pub kind: BoundKind,
    pub bound: f64,
}

/// What [`strengthen`] learned, feeding the `SolveStats` counters, node
/// propagation ([`learned_rows`]) and the root [`CutSeparator`].
#[derive(Debug, Default)]
pub(crate) struct Strengthened {
    /// Rows whose binary coefficients were tightened at least once.
    pub rows_tightened: usize,
    /// Binaries fixed because one probe value propagated to a contradiction.
    pub binaries_fixed: usize,
    /// Binary-to-binary implications (single probes + infeasible pair
    /// vertices), deduplicated.
    pub implications: Vec<Implication>,
    /// Single-binary continuous-bound implications.
    pub bound_impls: Vec<BoundImpl>,
}

/// The rows each column appears in, one entry per term, in row order.
#[derive(Debug)]
pub(crate) struct ColumnRows {
    /// The rows of column `j` are `rows[start[j]..start[j + 1]]`.
    start: Vec<usize>,
    rows: Vec<usize>,
}

impl ColumnRows {
    /// The index of `rows` over `ncols` columns.
    pub(crate) fn new<'r>(rows: impl Iterator<Item = &'r SparseRow> + Clone, ncols: usize) -> Self {
        let mut start = vec![0; ncols + 1];
        for (terms, _, _) in rows.clone() {
            for &(j, _) in terms {
                start[j + 1] += 1;
            }
        }
        for j in 0..ncols {
            start[j + 1] += start[j];
        }
        let mut fill = start.clone();
        let mut col_rows = vec![0; start[ncols]];
        for (r, (terms, _, _)) in rows.enumerate() {
            for &(j, _) in terms {
                col_rows[fill[j]] = r;
                fill[j] += 1;
            }
        }
        ColumnRows {
            start,
            rows: col_rows,
        }
    }

    /// The rows column `j` appears in.
    fn of(&self, j: usize) -> &[usize] {
        &self.rows[self.start[j]..self.start[j + 1]]
    }

    /// Marks every row of column `j`.
    fn mark(&self, j: usize, marked: &mut [bool]) {
        for &r in self.of(j) {
            marked[r] = true;
        }
    }
}

/// The signature of the probe sweep [`strengthen_with`] runs, so a test
/// can hand it the full-sweep oracle.
pub(crate) type Sweep =
    fn(&[SparseRow], &ColumnRows, &mut [f64], &mut [f64], &[bool], f64, usize) -> bool;

/// Activity-based bound propagation to a fixpoint (capped at `max_passes`):
/// implied bounds from each row's residual activity, integral rounding,
/// and crossed-bound detection. Unlike [`presolve`] it never drops rows, so
/// it is safe to run on tentative (probing) bound vectors. Returns `false`
/// when the bounds prove the system infeasible.
///
/// Each pass visits the rows in order, but only those a bound change
/// reached since their last visit began (`columns` indexes `rows`); the
/// first pass visits every row. A row none of whose columns moved since
/// then would compute the activities it computed then, which proved
/// nothing and moved no bound, so skipping it changes no bit of the
/// bounds or of the verdict: the result is that of a sweep over every
/// row in every pass.
pub(crate) fn propagate(
    rows: &[SparseRow],
    columns: &ColumnRows,
    lb: &mut [f64],
    ub: &mut [f64],
    integral: &[bool],
    feas_tol: f64,
    max_passes: usize,
) -> bool {
    let mut dirty = vec![true; rows.len()];
    for _ in 0..max_passes.max(1) {
        let mut changed = false;
        for (r, (terms, cmp, rhs)) in rows.iter().enumerate() {
            if !dirty[r] {
                continue;
            }
            // Cleared before the visit, so the bounds the row itself moves
            // bring it back next pass, as a full sweep would.
            dirty[r] = false;
            // Both sides of an equality start from the activities the row
            // had before either tightened.
            let (min_act, max_act) = activity(terms, lb, ub);
            for &s in sides(*cmp) {
                let act = if s > 0.0 { min_act } else { max_act };
                if exceeds(s, *rhs, act, feas_tol) {
                    return false;
                }
                changed |=
                    imply_bounds(terms, s, *rhs, act, lb, ub, |j| columns.mark(j, &mut dirty));
            }
        }
        match round_integral(lb, ub, integral, feas_tol, |j| columns.mark(j, &mut dirty)) {
            Some(moved) => changed |= moved,
            None => return false,
        }
        if !changed {
            break;
        }
    }
    true
}

/// Relative margin of node propagation. A row proves a node infeasible
/// only when its activity bound misses the right-hand side by more than
/// `NODE_PROP_TOL · (1 + |rhs| + Σ|a_j|·(1 + |bound_j|))`, and every bound
/// it implies is relaxed by the same margin. The margin dominates the
/// simplex's feasibility tolerances, and each term's share
/// `NODE_PROP_TOL · |a_j|·(1 + |bound_j|)` covers an integral column
/// sitting up to `INT_TOL` past the integer its bound was rounded to, so
/// no point the search would accept is ever cut off.
const NODE_PROP_TOL: f64 = 1e-6;

/// The box node propagation proved for one branch-and-bound node, shared
/// by both of its children the way the parent's basis snapshot is.
#[derive(Debug)]
pub(crate) struct PropBox {
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// The incumbent objective the box was proved under.
    cutoff: f64,
}

/// Activity-based bound propagation run before each node's LP. Every
/// bound it derives holds at every point of the node's box that the
/// search would accept as a new incumbent: a continuous column's implied
/// bound is relaxed by [`NODE_PROP_TOL`] and kept as it is, and an
/// integral column's is then rounded inward by the search's own
/// integrality tolerance, `ub ← ⌊b + INT_TOL⌋` and `lb ← ⌈b − INT_TOL⌉`.
/// So it settles a node only when the node's box holds no point with
/// every integral column within `INT_TOL` of an integer, every row within
/// the LP's tolerances and an objective that beats the incumbent: such a
/// subtree could never yield an incumbent. (Unlike [`propagate`]'s
/// rounding, which snaps only within 1e-9, an implied lower bound of 1e-7
/// stays 0 here, because the search accepts 1e-7 as 0.)
///
/// Besides the LP's rows it propagates rows no LP sees: the cutoff row
/// `c·x ≤ incumbent − 1e-9`, the search's own acceptance test, whose
/// right-hand side [`set_cutoff`](Self::set_cutoff) lowers at each new
/// incumbent, and the rows root probing learned ([`learned_rows`]), each
/// valid at every integer point. It is incremental: a child starts from
/// its parent's [`PropBox`], applies its branching bound and queues only
/// the rows of columns whose bound moved, plus the cutoff row when the
/// cutoff moved since the parent's box was proved, up to a cap of row
/// visits per node. The derived bounds only ever settle nodes; the LP
/// never sees them, because a tighter box would move the LP's vertices.
pub(crate) struct NodePropagator<'a> {
    rows: &'a [SparseRow],
    /// Rows after the LP's: the cutoff row first, when the objective has
    /// a term, then the learned rows.
    extra: Vec<SparseRow>,
    /// Index of the cutoff row, if any.
    cutoff_row: Option<usize>,
    /// The incumbent objective, +∞ until the first incumbent.
    cutoff: f64,
    /// Columns whose implied bounds round inward to integers.
    integral: &'a [bool],
    columns: ColumnRows,
    lb: Vec<f64>,
    ub: Vec<f64>,
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    /// Row visits one node may spend; a node cut short runs its LP.
    visit_cap: usize,
}

impl<'a> NodePropagator<'a> {
    /// A propagator over the LP's `rows`, with one entry of `integral` per
    /// column, the cutoff row of the min-form `objective` (none when it
    /// has no nonzero term) and the `learned` rows.
    pub(crate) fn new(
        rows: &'a [SparseRow],
        integral: &'a [bool],
        objective: &[f64],
        learned: Vec<SparseRow>,
    ) -> Self {
        let ncols = integral.len();
        let terms: Vec<(usize, f64)> = objective
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0.0)
            .map(|(j, &c)| (j, c))
            .collect();
        let cutoff_row = (!terms.is_empty()).then_some(rows.len());
        let mut extra = Vec::with_capacity(learned.len() + 1);
        if cutoff_row.is_some() {
            extra.push((terms, Cmp::Le, f64::INFINITY));
        }
        extra.extend(learned);
        let columns = ColumnRows::new(rows.iter().chain(&extra), ncols);
        let nrows = rows.len() + extra.len();
        NodePropagator {
            rows,
            extra,
            cutoff_row,
            cutoff: f64::INFINITY,
            integral,
            columns,
            lb: vec![0.0; ncols],
            ub: vec![0.0; ncols],
            queue: VecDeque::new(),
            queued: vec![false; nrows],
            visit_cap: 4 * nrows + 64,
        }
    }

    /// Lowers the cutoff to the new incumbent objective `obj` (min form):
    /// from now on a box settles when it holds no accepted point with
    /// `c·x < obj − 1e-9`, the test a node's LP must pass to be recorded.
    pub(crate) fn set_cutoff(&mut self, obj: f64) {
        self.cutoff = obj;
        if let Some(r) = self.cutoff_row {
            self.extra[r - self.rows.len()].2 = obj - 1e-9;
        }
    }

    fn row(&self, r: usize) -> &SparseRow {
        match r.checked_sub(self.rows.len()) {
            None => &self.rows[r],
            Some(e) => &self.extra[e],
        }
    }

    /// Propagates one node whose LP bounds are `lb`/`ub` and returns
    /// `false` when that proves its box holds no point the search would
    /// accept. The root (`parent` is `None`) starts from `lb`/`ub` with
    /// every row queued. A child starts from its parent's box, intersects
    /// column `j`'s bounds with `lb[j]`/`ub[j]` (the only column its
    /// branching moved) and queues `j`'s rows, and the cutoff row when the
    /// cutoff moved since the parent's box was proved.
    pub(crate) fn run(
        &mut self,
        lb: &[f64],
        ub: &[f64],
        parent: Option<(&PropBox, usize)>,
    ) -> bool {
        let feasible = match parent {
            None => {
                self.lb.copy_from_slice(lb);
                self.ub.copy_from_slice(ub);
                for r in 0..self.queued.len() {
                    self.queued[r] = true;
                    self.queue.push_back(r);
                }
                self.drain()
            }
            Some((from, j)) => {
                self.lb.copy_from_slice(&from.lb);
                self.ub.copy_from_slice(&from.ub);
                if from.cutoff != self.cutoff {
                    if let Some(r) = self.cutoff_row {
                        self.queue_row(r);
                    }
                }
                self.tighten_lb(j, lb[j]) && self.tighten_ub(j, ub[j]) && self.drain()
            }
        };
        while let Some(r) = self.queue.pop_front() {
            self.queued[r] = false;
        }
        feasible
    }

    /// The box the last [`run`](Self::run) proved, for the children of a
    /// node that branches.
    pub(crate) fn share(&self) -> PropBox {
        PropBox {
            lb: self.lb.clone(),
            ub: self.ub.clone(),
            cutoff: self.cutoff,
        }
    }

    /// Visits queued rows until the queue empties or the visit cap binds;
    /// `false` means a row proved the box infeasible.
    fn drain(&mut self) -> bool {
        for _ in 0..self.visit_cap {
            let Some(r) = self.queue.front().copied() else {
                return true;
            };
            // The row stays marked while it is visited, so the bounds it
            // tightens do not queue it again.
            if !sides(self.row(r).1).iter().all(|&s| self.visit(r, s)) {
                return false;
            }
            self.queue.pop_front();
            self.queued[r] = false;
        }
        true
    }

    /// Propagates row `r` read as `Σ s·a_j·x_j ≤ s·rhs`: infeasible when
    /// its minimum activity exceeds the right-hand side, otherwise each
    /// column's bound is implied by the minimum activity of the rest. At
    /// most one column may rest on an infinite bound; only that column
    /// then gets an implied bound.
    fn visit(&mut self, r: usize, s: f64) -> bool {
        let (terms, _, rhs) = self.row(r);
        let rhs = s * rhs;
        let mut act = 0.0;
        let mut scale = 1.0 + rhs.abs();
        let mut infinite = None;
        for &(j, a) in terms {
            let a = s * a;
            if a == 0.0 {
                continue;
            }
            let b = if a > 0.0 { self.lb[j] } else { self.ub[j] };
            if b.is_infinite() {
                if infinite.is_some() {
                    return true;
                }
                infinite = Some(j);
            } else {
                act += a * b;
                scale += a.abs() * (1.0 + b.abs());
            }
        }
        let room = rhs + NODE_PROP_TOL * scale;
        if infinite.is_none() && act > room {
            return false;
        }
        // Indexed, so the row is not borrowed while bounds tighten.
        for k in 0..terms.len() {
            let (j, a) = self.row(r).0[k];
            let a = s * a;
            if a.abs() < 1e-9 {
                continue;
            }
            let rest = match infinite {
                None => act - a * if a > 0.0 { self.lb[j] } else { self.ub[j] },
                Some(k) if k == j => act,
                Some(_) => continue,
            };
            let implied = (room - rest) / a;
            let ok = if a > 0.0 {
                self.tighten_ub(j, implied)
            } else {
                self.tighten_lb(j, implied)
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Lowers `ub[j]` to `bound`, rounded down to an integer when `j` is
    /// integral, when that is a real improvement, queuing `j`'s rows;
    /// `false` when the bound crosses `lb[j]` by more than the margin.
    fn tighten_ub(&mut self, j: usize, bound: f64) -> bool {
        let bound = if self.integral[j] {
            (bound + INT_TOL).floor()
        } else {
            bound
        };
        let (lb, ub) = (self.lb[j], self.ub[j]);
        // Written so that a NaN bound never counts as an improvement.
        let improves = bound < ub - NODE_PROP_TOL * (1.0 + bound.abs());
        if !improves {
            return true;
        }
        if bound < lb - NODE_PROP_TOL * (1.0 + lb.abs() + bound.abs()) {
            return false;
        }
        self.ub[j] = bound.max(lb);
        self.queue_rows(j);
        true
    }

    /// Raises `lb[j]` to `bound`; the mirror of [`tighten_ub`](Self::tighten_ub).
    fn tighten_lb(&mut self, j: usize, bound: f64) -> bool {
        let bound = if self.integral[j] {
            (bound - INT_TOL).ceil()
        } else {
            bound
        };
        let (lb, ub) = (self.lb[j], self.ub[j]);
        let improves = bound > lb + NODE_PROP_TOL * (1.0 + bound.abs());
        if !improves {
            return true;
        }
        if bound > ub + NODE_PROP_TOL * (1.0 + ub.abs() + bound.abs()) {
            return false;
        }
        self.lb[j] = bound.min(ub);
        self.queue_rows(j);
        true
    }

    fn queue_rows(&mut self, j: usize) {
        for k in self.columns.start[j]..self.columns.start[j + 1] {
            self.queue_row(self.columns.rows[k]);
        }
    }

    fn queue_row(&mut self, r: usize) {
        if !self.queued[r] {
            self.queued[r] = true;
            self.queue.push_back(r);
        }
    }
}

/// A free (unfixed) 0-1 column under the current bounds.
fn is_binary(j: usize, lb: &[f64], ub: &[f64], integral: &[bool]) -> bool {
    integral[j] && lb[j] == 0.0 && ub[j] == 1.0
}

/// Tightens the binary coefficients of one `<=` row.
///
/// For a binary `y` with coefficient `a > 0` in `f(x) + a·y <= b`: with
/// `U = max f` over the current box, if `d = b - U` is strictly between `0`
/// and `a` the `y = 0` branch has slack `d`, and `f + (a-d)·y <= b - d`
/// keeps both integer branches exactly (`y=0`: `f <= U`, always true;
/// `y=1`: `f <= b - a`, unchanged) while shrinking the LP relaxation.
///
/// For `a < 0`: the `y = 1` branch relaxes to `f <= b - a`; if `U < b - a`
/// the coefficient lifts to `a' = b - U > a` (`y=1` becomes `f <= U`,
/// always true; `y=0` unchanged). Returns whether anything changed.
fn tighten_le(
    terms: &mut [(usize, f64)],
    rhs: &mut f64,
    lb: &[f64],
    ub: &[f64],
    integral: &[bool],
) -> bool {
    let mut hit = false;
    // Each tightening changes the row activity, so recompute and re-scan;
    // the process provably stalls (a tightened coefficient's slack becomes
    // zero), the cap is belt-and-braces against float drift.
    for _ in 0..16 {
        let mut max_act = 0.0_f64;
        for &(j, a) in terms.iter() {
            max_act += if a >= 0.0 { a * ub[j] } else { a * lb[j] };
        }
        if !max_act.is_finite() {
            return hit;
        }
        let mut changed = false;
        for t in terms.iter_mut() {
            let (j, a) = (t.0, t.1);
            if a.abs() <= 1e-12 || !is_binary(j, lb, ub, integral) {
                continue;
            }
            let tol = 1e-9 * (1.0 + rhs.abs().max(a.abs()));
            if a > 0.0 {
                let rest = max_act - a; // y = 0 branch activity bound
                let delta = *rhs - rest;
                if delta > tol && delta < a - tol {
                    t.1 = a - delta;
                    *rhs -= delta;
                    changed = true;
                    hit = true;
                    break;
                }
            } else {
                let lifted = *rhs - max_act; // y's own max contribution is 0
                if lifted > a + tol {
                    t.1 = lifted;
                    changed = true;
                    hit = true;
                    break;
                }
            }
        }
        if !changed {
            return hit;
        }
    }
    hit
}

/// One coefficient-tightening sweep over every inequality row, marking the
/// rows it changed in `hit`. `>=` rows tighten through negation to `<=`
/// form; equalities have no slack branch and are skipped.
fn tighten_sweep(
    rows: &mut [SparseRow],
    lb: &[f64],
    ub: &[f64],
    integral: &[bool],
    hit: &mut [bool],
) {
    for (r, (terms, cmp, rhs)) in rows.iter_mut().enumerate() {
        let changed = match cmp {
            Cmp::Le => tighten_le(terms, rhs, lb, ub, integral),
            Cmp::Ge => {
                for t in terms.iter_mut() {
                    t.1 = -t.1;
                }
                *rhs = -*rhs;
                let changed = tighten_le(terms, rhs, lb, ub, integral);
                for t in terms.iter_mut() {
                    t.1 = -t.1;
                }
                *rhs = -*rhs;
                changed
            }
            Cmp::Eq => false,
        };
        if changed {
            hit[r] = true;
        }
    }
}

/// Runs the root model-strengthening pipeline in place: coefficient
/// tightening interleaved with propagation, then single-binary probing,
/// then pair probing on the two-binary disjunction rows, then a final
/// tighten/propagate sweep over whatever the probes fixed. `probe_budget`
/// is spent in propagation runs (2 per single probe, 4 per pair probe).
/// `Err(())` means the system was proven integer-infeasible.
pub(crate) fn strengthen(
    rows: &mut [SparseRow],
    lb: &mut [f64],
    ub: &mut [f64],
    integral: &[bool],
    feas_tol: f64,
    probe_budget: usize,
) -> Result<Strengthened, ()> {
    strengthen_with(rows, lb, ub, integral, feas_tol, probe_budget, propagate)
}

/// [`strengthen`] with each propagation run by `sweep`.
pub(crate) fn strengthen_with(
    rows: &mut [SparseRow],
    lb: &mut [f64],
    ub: &mut [f64],
    integral: &[bool],
    feas_tol: f64,
    probe_budget: usize,
    sweep: Sweep,
) -> Result<Strengthened, ()> {
    let mut out = Strengthened::default();
    let mut hit = vec![false; rows.len()];
    // Coefficient tightening moves values, never which columns a row
    // holds, so one index serves every sweep and the harvest.
    let n = lb.len();
    let columns = ColumnRows::new(rows.iter(), n);
    let propagate = |rows: &[SparseRow], lb: &mut [f64], ub: &mut [f64]| {
        sweep(rows, &columns, lb, ub, integral, feas_tol, PROBE_PASSES)
    };

    // Stage 1: tighten + propagate. Two rounds: propagation after the first
    // sweep can expose further coefficient slack.
    for _ in 0..2 {
        tighten_sweep(rows, lb, ub, integral, &mut hit);
        if !propagate(rows, lb, ub) {
            return Err(());
        }
    }

    let mut implications: BTreeSet<Implication> = BTreeSet::new();
    let mut budget = probe_budget;
    let mut fixed_any = false;

    // Stage 2: single-binary probing.
    let binaries: Vec<usize> = (0..n).filter(|&j| is_binary(j, lb, ub, integral)).collect();
    for &j in &binaries {
        if budget < 2 {
            break;
        }
        if lb[j] == ub[j] {
            continue; // fixed by an earlier probe
        }
        budget -= 2;
        let probe = |val: f64| -> Option<(Vec<f64>, Vec<f64>)> {
            let mut plb = lb.to_vec();
            let mut pub_ = ub.to_vec();
            plb[j] = val;
            pub_[j] = val;
            propagate(rows, &mut plb, &mut pub_).then_some((plb, pub_))
        };
        match (probe(0.0), probe(1.0)) {
            (None, None) => return Err(()),
            (None, Some(_)) => {
                lb[j] = 1.0;
                ub[j] = 1.0;
                out.binaries_fixed += 1;
                fixed_any = true;
            }
            (Some(_), None) => {
                lb[j] = 0.0;
                ub[j] = 0.0;
                out.binaries_fixed += 1;
                fixed_any = true;
            }
            (Some(zero), Some(one)) => {
                for (val, (plb, pub_)) in [(false, zero), (true, one)] {
                    harvest_single(
                        j,
                        val,
                        &plb,
                        &pub_,
                        lb,
                        ub,
                        integral,
                        &columns,
                        rows,
                        &mut implications,
                        &mut out.bound_impls,
                    );
                }
            }
        }
    }

    // Stage 3: pair probing on rows with exactly two free binaries — the
    // non-overlap disjunction shape. Each infeasible vertex is an
    // implication, and the surviving vertices may fix either binary.
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (terms, _, _) in rows.iter() {
        let mut bins = terms
            .iter()
            .map(|&(j, _)| j)
            .filter(|&j| is_binary(j, lb, ub, integral));
        if let (Some(a), Some(b), None) = (bins.next(), bins.next(), bins.next()) {
            if a != b {
                pairs.insert((a.min(b), a.max(b)));
            }
        }
    }
    for &(p, q) in &pairs {
        if budget < 4 {
            break;
        }
        if lb[p] == ub[p] || lb[q] == ub[q] {
            continue;
        }
        budget -= 4;
        let mut alive = Vec::new();
        for (vp, vq) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut plb = lb.to_vec();
            let mut pub_ = ub.to_vec();
            plb[p] = f64::from(u8::from(vp));
            pub_[p] = plb[p];
            plb[q] = f64::from(u8::from(vq));
            pub_[q] = plb[q];
            if propagate(rows, &mut plb, &mut pub_) {
                alive.push((vp, vq));
            } else {
                implications.insert(Implication {
                    bin: p,
                    val: vp,
                    other: q,
                    forced: !vq,
                });
            }
        }
        // A value every surviving vertex gives a binary fixes it.
        let Some(&(vp, vq)) = alive.first() else {
            return Err(());
        };
        for (j, v, shared) in [
            (p, vp, alive.iter().all(|a| a.0 == vp)),
            (q, vq, alive.iter().all(|a| a.1 == vq)),
        ] {
            if shared {
                lb[j] = f64::from(u8::from(v));
                ub[j] = lb[j];
                out.binaries_fixed += 1;
                fixed_any = true;
            }
        }
    }

    // Probing fixings enable another propagate + tighten round.
    if fixed_any {
        if !propagate(rows, lb, ub) {
            return Err(());
        }
        tighten_sweep(rows, lb, ub, integral, &mut hit);
    }

    out.rows_tightened = hit.iter().filter(|&&h| h).count();
    out.implications = implications.into_iter().collect();
    Ok(out)
}

/// Harvests what a feasible single probe (`bin = val`) learned, comparing
/// the propagated bounds of `bin`'s row-mates against the global ones.
#[allow(clippy::too_many_arguments)]
fn harvest_single(
    bin: usize,
    val: bool,
    plb: &[f64],
    pub_: &[f64],
    lb: &[f64],
    ub: &[f64],
    integral: &[bool],
    columns: &ColumnRows,
    rows: &[SparseRow],
    implications: &mut BTreeSet<Implication>,
    bound_impls: &mut Vec<BoundImpl>,
) {
    let mut neighbors: BTreeSet<usize> = BTreeSet::new();
    for &r in columns.of(bin) {
        neighbors.extend(rows[r].0.iter().map(|&(j, _)| j));
    }
    neighbors.remove(&bin);
    let mut harvested = 0usize;
    for &v in &neighbors {
        if harvested >= HARVEST_CAP {
            break;
        }
        if is_binary(v, lb, ub, integral) {
            if plb[v] == pub_[v] {
                implications.insert(Implication {
                    bin,
                    val,
                    other: v,
                    forced: plb[v] > 0.5,
                });
                harvested += 1;
            }
            continue;
        }
        let tol = 1e-7 * (1.0 + lb[v].abs().min(ub[v].abs()));
        if plb[v] > lb[v] + tol && plb[v].is_finite() {
            bound_impls.push(BoundImpl {
                bin,
                val,
                var: v,
                kind: BoundKind::Lower,
                bound: plb[v],
            });
            harvested += 1;
        }
        if harvested < HARVEST_CAP && pub_[v] < ub[v] - tol && pub_[v].is_finite() {
            bound_impls.push(BoundImpl {
                bin,
                val,
                var: v,
                kind: BoundKind::Upper,
                bound: pub_[v],
            });
            harvested += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Root cut separation.
// ---------------------------------------------------------------------------

/// A normal form for `<=` rows used to deduplicate cuts against the rows
/// already in the model (and against each other): sorted `(column,
/// coefficient-bits)` terms plus the rhs bits.
type RowKey = (Vec<(usize, u64)>, u64);

fn row_key(terms: &[(usize, f64)], rhs: f64) -> RowKey {
    let mut t: Vec<(usize, u64)> = terms.iter().map(|&(j, a)| (j, a.to_bits())).collect();
    t.sort_unstable();
    (t, rhs.to_bits())
}

/// Cut violation threshold: a candidate must beat the row by this much at
/// the LP point to be worth a round.
const CUT_VIOLATION: f64 = 1e-6;

/// Separates root cutting planes from what [`strengthen`] learned: logic
/// cuts from its binary implications and implied-bound cuts from its bound
/// implications. All cuts are `<=` rows valid for every integer-feasible
/// point, so appending them before the tree starts changes relaxation
/// bounds, never answers.
pub(crate) struct CutSeparator {
    implications: Vec<Implication>,
    bound_impls: Vec<BoundImpl>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    seen: BTreeSet<RowKey>,
}

impl CutSeparator {
    /// Builds a separator over the strengthened system. Every existing row
    /// is registered so no duplicate of it can be emitted as a cut.
    pub(crate) fn new(st: &Strengthened, rows: &[SparseRow], lb: &[f64], ub: &[f64]) -> Self {
        let mut seen = BTreeSet::new();
        for (terms, cmp, rhs) in rows {
            let neg: Vec<(usize, f64)> = terms.iter().map(|&(j, a)| (j, -a)).collect();
            match cmp {
                Cmp::Le => {
                    seen.insert(row_key(terms, *rhs));
                }
                Cmp::Ge => {
                    seen.insert(row_key(&neg, -*rhs));
                }
                Cmp::Eq => {
                    seen.insert(row_key(terms, *rhs));
                    seen.insert(row_key(&neg, -*rhs));
                }
            }
        }
        CutSeparator {
            implications: st.implications.clone(),
            bound_impls: st.bound_impls.clone(),
            lb: lb.to_vec(),
            ub: ub.to_vec(),
            seen,
        }
    }

    /// Appends `(terms, <=, rhs)` unless it duplicates a known row. Returns
    /// `false` once `max` cuts have been collected.
    fn push(
        &mut self,
        cuts: &mut Vec<SparseRow>,
        terms: Vec<(usize, f64)>,
        rhs: f64,
        max: usize,
    ) -> bool {
        if cuts.len() >= max {
            return false;
        }
        if self.seen.insert(row_key(&terms, rhs)) {
            cuts.push((terms, Cmp::Le, rhs));
        }
        true
    }

    /// Implication logic cuts — valid independent of any LP point, so they
    /// are added once, unconditionally, before the first separation round.
    pub(crate) fn logic_cuts(&mut self, max: usize) -> Vec<SparseRow> {
        let mut cuts = Vec::new();
        for imp in self.implications.clone() {
            let (terms, rhs) = logic_row(&imp);
            if !self.push(&mut cuts, terms, rhs, max) {
                break;
            }
        }
        cuts
    }

    /// Implied-bound cuts violated by the LP point `x`, at most `max` of
    /// them: each `bin=val ⇒ x ⋄ bound` is linearized over the binary so
    /// the relaxation feels the implication fractionally.
    pub(crate) fn separate(&mut self, x: &[f64], max: usize) -> Vec<SparseRow> {
        let mut cuts = Vec::new();
        for bi in self.bound_impls.clone() {
            let Some((terms, rhs)) = implied_bound_row(&bi, &self.lb, &self.ub) else {
                continue;
            };
            let act: f64 = terms.iter().map(|&(j, a)| a * x[j]).sum();
            if act > rhs + CUT_VIOLATION && !self.push(&mut cuts, terms, rhs, max) {
                break;
            }
        }
        cuts
    }
}

/// The `<=` row of a binary implication: `p+q <= 1`, `p <= q`, `p+q >= 1`
/// or `q <= p`.
fn logic_row(imp: &Implication) -> (Vec<(usize, f64)>, f64) {
    let (p, q) = (imp.bin, imp.other);
    match (imp.val, imp.forced) {
        (true, false) => (vec![(p, 1.0), (q, 1.0)], 1.0), // p+q <= 1
        (true, true) => (vec![(p, 1.0), (q, -1.0)], 0.0), // p <= q
        (false, true) => (vec![(p, -1.0), (q, -1.0)], -1.0), // p+q >= 1
        (false, false) => (vec![(p, -1.0), (q, 1.0)], 0.0), // q <= p
    }
}

/// The `<=` row of a bound implication linearized over its binary against
/// the root bounds `lb`/`ub`: `None` when the variable's root bound on that
/// side is infinite or the implication does not improve it.
fn implied_bound_row(bi: &BoundImpl, lb: &[f64], ub: &[f64]) -> Option<(Vec<(usize, f64)>, f64)> {
    let (b, v) = (bi.bin, bi.var);
    match bi.kind {
        BoundKind::Lower => {
            let l = lb[v];
            let g = bi.bound - l;
            if !l.is_finite() || g <= 1e-9 {
                return None;
            }
            Some(if bi.val {
                (vec![(v, -1.0), (b, g)], -l)
            } else {
                (vec![(v, -1.0), (b, -g)], -bi.bound)
            })
        }
        BoundKind::Upper => {
            let u = ub[v];
            let g = u - bi.bound;
            if !u.is_finite() || g <= 1e-9 {
                return None;
            }
            Some(if bi.val {
                (vec![(v, 1.0), (b, g)], u)
            } else {
                (vec![(v, 1.0), (b, -g)], bi.bound)
            })
        }
    }
}

/// Every implication `st` holds as a `<=` row over the root bounds
/// `lb`/`ub`: the logic row of each binary implication and the implied-bound
/// row of each bound implication, the rows [`CutSeparator`] draws its cuts
/// from. Each holds at every integer point, so node propagation may use
/// them all.
pub(crate) fn learned_rows(st: &Strengthened, lb: &[f64], ub: &[f64]) -> Vec<SparseRow> {
    let logic = st.implications.iter().map(logic_row);
    let bounds = st
        .bound_impls
        .iter()
        .filter_map(|bi| implied_bound_row(bi, lb, ub));
    logic
        .chain(bounds)
        .map(|(terms, rhs)| (terms, Cmp::Le, rhs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(terms: Vec<(usize, f64)>, rhs: f64) -> SparseRow {
        (terms, Cmp::Le, rhs)
    }
    fn ge(terms: Vec<(usize, f64)>, rhs: f64) -> SparseRow {
        (terms, Cmp::Ge, rhs)
    }

    #[test]
    fn singleton_rows_become_bounds() {
        let rows = vec![le(vec![(0, 2.0)], 10.0), ge(vec![(1, 1.0)], 3.0)];
        let p = presolve(
            &rows,
            vec![0.0, 0.0],
            vec![100.0, 100.0],
            &[false, false],
            1e-7,
            4,
        );
        assert_eq!(p.status, PresolveStatus::Reduced);
        assert!(p.kept_rows.is_empty());
        assert_eq!(p.ub[0], 5.0);
        assert_eq!(p.lb[1], 3.0);
    }

    #[test]
    fn redundant_rows_dropped() {
        // x + y <= 100 with x,y in [0,10] can never bind.
        let rows = vec![le(vec![(0, 1.0), (1, 1.0)], 100.0)];
        let p = presolve(&rows, vec![0.0; 2], vec![10.0; 2], &[false; 2], 1e-7, 4);
        assert!(p.kept_rows.is_empty());
    }

    #[test]
    fn infeasibility_detected() {
        // x + y >= 50 with x,y in [0,10].
        let rows = vec![ge(vec![(0, 1.0), (1, 1.0)], 50.0)];
        let p = presolve(&rows, vec![0.0; 2], vec![10.0; 2], &[false; 2], 1e-7, 4);
        assert_eq!(p.status, PresolveStatus::Infeasible);
        // Crossed bounds after singleton folding also infeasible.
        let rows = vec![le(vec![(0, 1.0)], 1.0), ge(vec![(0, 1.0)], 2.0)];
        let p = presolve(&rows, vec![0.0], vec![10.0], &[false], 1e-7, 4);
        assert_eq!(p.status, PresolveStatus::Infeasible);
    }

    #[test]
    fn implied_bounds_tighten() {
        // 2x + y <= 10, y >= 0 => x <= 5; y <= 10.
        let rows = vec![le(vec![(0, 2.0), (1, 1.0)], 10.0)];
        let p = presolve(
            &rows,
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            &[false, false],
            1e-7,
            4,
        );
        assert_eq!(p.status, PresolveStatus::Reduced);
        assert!((p.ub[0] - 5.0).abs() < 1e-9);
        assert!((p.ub[1] - 10.0).abs() < 1e-9);
        // Row stays (it can still bind).
        assert_eq!(p.kept_rows, vec![0]);
    }

    #[test]
    fn integral_bounds_round_inward() {
        // 2x <= 5 with x integer -> x <= 2.
        let rows = vec![le(vec![(0, 2.0)], 5.0)];
        let p = presolve(&rows, vec![0.0], vec![10.0], &[true], 1e-7, 4);
        assert_eq!(p.ub[0], 2.0);
    }

    #[test]
    fn ge_implied_bounds() {
        // x + y >= 8 with y <= 3 implies x >= 5.
        let rows = vec![ge(vec![(0, 1.0), (1, 1.0)], 8.0)];
        let p = presolve(&rows, vec![0.0, 0.0], vec![10.0, 3.0], &[false; 2], 1e-7, 4);
        assert!((p.lb[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_row_feasibility() {
        let rows = vec![(vec![], Cmp::Le, -1.0)];
        let p = presolve(&rows, vec![], vec![], &[], 1e-7, 4);
        assert_eq!(p.status, PresolveStatus::Infeasible);
        let rows = vec![(vec![], Cmp::Le, 1.0)];
        let p = presolve(&rows, vec![], vec![], &[], 1e-7, 4);
        assert_eq!(p.status, PresolveStatus::Reduced);
    }

    #[test]
    fn negative_coefficients() {
        // -x <= -4  =>  x >= 4 (singleton with negative coefficient).
        let rows = vec![le(vec![(0, -1.0)], -4.0)];
        let p = presolve(&rows, vec![0.0], vec![10.0], &[false], 1e-7, 4);
        assert_eq!(p.lb[0], 4.0);
        assert!(p.kept_rows.is_empty());
    }

    #[test]
    fn chained_tightening_across_passes() {
        // x <= 3 (singleton), then y <= x implies y <= 3 on the next pass.
        let rows = vec![le(vec![(0, 1.0)], 3.0), le(vec![(1, 1.0), (0, -1.0)], 0.0)];
        let p = presolve(
            &rows,
            vec![0.0, 0.0],
            vec![100.0, 100.0],
            &[false, false],
            1e-7,
            4,
        );
        assert!((p.ub[0] - 3.0).abs() < 1e-9);
        assert!((p.ub[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn passes_reported_and_capped() {
        // The dependent row comes first, so a single in-order pass cannot
        // see through the chain; a cap of one stops early and says so.
        let rows = vec![le(vec![(1, 1.0), (0, -1.0)], 0.0), le(vec![(0, 1.0)], 3.0)];
        let p = presolve(
            &rows,
            vec![0.0, 0.0],
            vec![100.0, 100.0],
            &[false, false],
            1e-7,
            1,
        );
        assert_eq!(p.passes, 1);
        assert!(p.ub[1] > 50.0, "one pass cannot see through the chain");
        let p = presolve(
            &rows,
            vec![0.0, 0.0],
            vec![100.0, 100.0],
            &[false, false],
            1e-7,
            8,
        );
        assert!(p.passes >= 2 && p.passes <= 8);
        assert!((p.ub[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ge_row_and_its_negated_le_twin_derive_identical_bounds() {
        // 1.3x - 0.7y + 2.9z >= 4.1 and its negation -1.3x + 0.7y - 2.9z
        // <= -4.1 describe the same set: presolve must derive the same
        // bounds bit for bit, integral rounding of z included.
        let terms = [(0, 1.3), (1, -0.7), (2, 2.9)];
        let neg: Vec<(usize, f64)> = terms.iter().map(|&(j, a)| (j, -a)).collect();
        let side = vec![ge(vec![(0, 1.0), (1, 1.0)], 1.7)];
        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        for rhs in [4.1, 6.35, 9.9] {
            let run = |row: SparseRow| {
                let mut rows = side.clone();
                rows.push(row);
                presolve(
                    &rows,
                    vec![0.2, 0.3, 0.0],
                    vec![2.5, 3.1, 3.0],
                    &[false, false, true],
                    1e-7,
                    4,
                )
            };
            let g = run(ge(terms.to_vec(), rhs));
            let l = run(le(neg.clone(), -rhs));
            assert_eq!(g.status, l.status, "rhs {rhs}");
            assert_eq!(g.kept_rows, l.kept_rows, "rhs {rhs}");
            assert_eq!(g.passes, l.passes, "rhs {rhs}");
            assert_eq!(
                bits(&g.lb),
                bits(&l.lb),
                "rhs {rhs}: {:?} vs {:?}",
                g.lb,
                l.lb
            );
            assert_eq!(
                bits(&g.ub),
                bits(&l.ub),
                "rhs {rhs}: {:?} vs {:?}",
                g.ub,
                l.ub
            );
            let moved = g.lb != [0.2, 0.3, 0.0] || g.ub != [2.5, 3.1, 3.0];
            assert!(moved || g.status == PresolveStatus::Infeasible, "rhs {rhs}");
        }
    }

    // -- strengthening ------------------------------------------------------

    /// `x + 5b <= 12` with `x in [0, 8]`: the `b = 0` branch has slack 4,
    /// so the row tightens to `x + b <= 8` (both integer branches intact).
    #[test]
    fn big_m_positive_coefficient_tightens() {
        let mut rows = vec![le(vec![(0, 1.0), (1, 5.0)], 12.0)];
        let mut lb = vec![0.0, 0.0];
        let mut ub = vec![8.0, 1.0];
        let st = strengthen(&mut rows, &mut lb, &mut ub, &[false, true], 1e-7, 0).unwrap();
        assert_eq!(st.rows_tightened, 1);
        assert!((rows[0].0[1].1 - 1.0).abs() < 1e-9, "coeff: {:?}", rows[0]);
        assert!((rows[0].2 - 8.0).abs() < 1e-9);
    }

    /// `x - 10b <= 0` with `x in [0, 8]`: the `b = 1` branch relaxes to
    /// `x <= 10`, never binding, so the coefficient lifts to `-8`.
    #[test]
    fn big_m_negative_coefficient_lifts() {
        let mut rows = vec![le(vec![(0, 1.0), (1, -10.0)], 0.0)];
        let mut lb = vec![0.0, 0.0];
        let mut ub = vec![8.0, 1.0];
        let st = strengthen(&mut rows, &mut lb, &mut ub, &[false, true], 1e-7, 0).unwrap();
        assert_eq!(st.rows_tightened, 1);
        assert!(
            (rows[0].0[1].1 - (-8.0)).abs() < 1e-9,
            "coeff: {:?}",
            rows[0]
        );
        assert!((rows[0].2 - 0.0).abs() < 1e-9);
    }

    /// `x + 10b >= 3` with `x in [0, 8]`: through negation the big-M
    /// shrinks to the least coefficient covering the `b = 1` branch.
    #[test]
    fn big_m_ge_row_tightens_via_negation() {
        let mut rows = vec![ge(vec![(0, 1.0), (1, 10.0)], 3.0)];
        let mut lb = vec![0.0, 0.0];
        let mut ub = vec![8.0, 1.0];
        let st = strengthen(&mut rows, &mut lb, &mut ub, &[false, true], 1e-7, 0).unwrap();
        assert_eq!(st.rows_tightened, 1);
        assert_eq!(rows[0].1, Cmp::Ge);
        assert!((rows[0].0[1].1 - 3.0).abs() < 1e-9, "coeff: {:?}", rows[0]);
        assert!((rows[0].2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn probing_fixes_contradicted_binary() {
        // x - 4b >= 2 and x + 4b <= 8 with x in [0, 10]: neither row alone
        // moves b (each implied bound stays above 1), but probing b = 1
        // chains them into x >= 6 and x <= 4 — contradiction, so b = 0.
        let mut rows = vec![
            ge(vec![(0, 1.0), (1, -4.0)], 2.0),
            le(vec![(0, 1.0), (1, 4.0)], 8.0),
        ];
        let mut lb = vec![0.0, 0.0];
        let mut ub = vec![10.0, 1.0];
        let st = strengthen(&mut rows, &mut lb, &mut ub, &[false, true], 1e-7, 64).unwrap();
        assert_eq!(st.binaries_fixed, 1);
        assert_eq!((lb[1], ub[1]), (0.0, 0.0));
    }

    #[test]
    fn probing_detects_total_infeasibility() {
        // x in [6, 10], x + 10b <= 10 and x - 10b <= 0: both b values die.
        let mut rows = vec![
            le(vec![(0, 1.0), (1, 10.0)], 10.0),
            le(vec![(0, 1.0), (1, -10.0)], 0.0),
        ];
        let mut lb = vec![6.0, 0.0];
        let mut ub = vec![10.0, 1.0];
        assert!(strengthen(&mut rows, &mut lb, &mut ub, &[false, true], 1e-7, 64).is_err());
    }

    #[test]
    fn probing_harvests_binary_implication() {
        // b + c <= 1 with both binaries and enough budget: probing b = 1
        // forces c = 0.
        let mut rows = vec![
            le(vec![(0, 1.0), (1, 1.0)], 1.0),
            // A second, non-binary row keeps the system from being solved
            // outright by bound propagation.
            le(vec![(0, 1.0), (2, 1.0)], 5.0),
        ];
        let mut lb = vec![0.0, 0.0, 0.0];
        let mut ub = vec![1.0, 1.0, 10.0];
        let st = strengthen(&mut rows, &mut lb, &mut ub, &[true, true, false], 1e-7, 64).unwrap();
        assert!(
            st.implications.contains(&Implication {
                bin: 0,
                val: true,
                other: 1,
                forced: false,
            }),
            "implications: {:?}",
            st.implications
        );
    }

    #[test]
    fn logic_cuts_dedup_against_existing_rows() {
        let st = Strengthened {
            implications: vec![Implication {
                bin: 0,
                val: true,
                other: 1,
                forced: false,
            }],
            ..Strengthened::default()
        };
        // The model already carries p + q <= 1: the logic cut is a dup.
        let rows = vec![le(vec![(0, 1.0), (1, 1.0)], 1.0)];
        let lb = vec![0.0; 2];
        let ub = vec![1.0; 2];
        let mut sep = CutSeparator::new(&st, &rows, &lb, &ub);
        assert!(sep.logic_cuts(64).is_empty());

        // Without the row it materializes.
        let mut sep = CutSeparator::new(&st, &[], &lb, &ub);
        let cuts = sep.logic_cuts(64);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].0, vec![(0, 1.0), (1, 1.0)]);
    }

    /// Randomized check that the whole strengthening pipeline —
    /// tightening, probing, and both cut families — never excludes an
    /// integer point that was feasible in the original system.
    #[test]
    fn strengthening_never_cuts_feasible_integer_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let feasible = |pt: &[f64], rows: &[SparseRow], lb: &[f64], ub: &[f64]| -> bool {
            pt.iter()
                .zip(lb.iter().zip(ub.iter()))
                .all(|(&v, (&l, &u))| v >= l - 1e-9 && v <= u + 1e-9)
                && rows.iter().all(|(t, cmp, rhs)| {
                    let act: f64 = t.iter().map(|&(j, a)| a * pt[j]).sum();
                    match cmp {
                        Cmp::Le => act <= rhs + 1e-7,
                        Cmp::Ge => act >= rhs - 1e-7,
                        Cmp::Eq => (act - rhs).abs() <= 1e-7,
                    }
                })
        };

        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let nbin = rng.gen_range(2..6usize);
            let ncont = rng.gen_range(1..4usize);
            let n = nbin + ncont;
            let lb0 = vec![0.0; n];
            let ub0: Vec<f64> = (0..n)
                .map(|j| {
                    if j < nbin {
                        1.0
                    } else {
                        2.0 + rng.gen_range(0..8) as f64
                    }
                })
                .collect();
            let integral: Vec<bool> = (0..n).map(|j| j < nbin).collect();

            let mut rows: Vec<SparseRow> = Vec::new();
            for _ in 0..rng.gen_range(2..6usize) {
                let mut terms: Vec<(usize, f64)> = Vec::new();
                for j in 0..n {
                    if rng.gen_bool(0.6) {
                        let mag = rng.gen_range(1..12) as f64;
                        terms.push((j, if rng.gen_bool(0.3) { -mag } else { mag }));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                // rhs near the midpoint activity keeps the system feasible
                // often enough to matter while still binding.
                let mid: f64 = terms
                    .iter()
                    .map(|&(j, a)| a * 0.5 * (lb0[j] + ub0[j]))
                    .sum();
                rows.push((terms, Cmp::Le, mid + rng.gen_range(0..6) as f64));
            }

            // Sample feasible integer points of the ORIGINAL system.
            let orig = rows.clone();
            let mut points: Vec<Vec<f64>> = Vec::new();
            for _ in 0..300 {
                let pt: Vec<f64> = (0..n)
                    .map(|j| {
                        if j < nbin {
                            f64::from(u8::from(rng.gen_bool(0.5)))
                        } else {
                            rng.gen_range(0..=(ub0[j] as i64)) as f64
                        }
                    })
                    .collect();
                if feasible(&pt, &orig, &lb0, &ub0) {
                    points.push(pt);
                }
                if points.len() >= 12 {
                    break;
                }
            }

            let mut lb = lb0.clone();
            let mut ub = ub0.clone();
            let st = match strengthen(&mut rows, &mut lb, &mut ub, &integral, 1e-7, 256) {
                Ok(st) => st,
                Err(()) => {
                    assert!(
                        points.is_empty(),
                        "seed {seed}: strengthen proved infeasible but {} feasible points exist",
                        points.len()
                    );
                    continue;
                }
            };

            // Generate every cut family: unconditional logic cuts plus
            // separation against random fractional LP-like points.
            let mut all_rows = rows.clone();
            let mut sep = CutSeparator::new(&st, &rows, &lb, &ub);
            all_rows.extend(sep.logic_cuts(256));
            for _ in 0..4 {
                let x: Vec<f64> = (0..n)
                    .map(|j| {
                        let (l, u) = (lb[j], ub[j]);
                        if l > u {
                            l
                        } else {
                            l + rng.gen::<f64>() * (u - l)
                        }
                    })
                    .collect();
                let cuts = sep.separate(&x, 256);
                if cuts.is_empty() {
                    break;
                }
                all_rows.extend(cuts);
            }

            for pt in &points {
                assert!(
                    feasible(pt, &all_rows, &lb, &ub),
                    "seed {seed}: strengthening cut off feasible point {pt:?}"
                );
            }
        }
    }

    /// The dirty-row sweep skips only rows whose visit would move nothing,
    /// so on random row systems, with integral and continuous columns,
    /// infinite bounds, equalities and any pass cap, it gives the full
    /// sweep's verdict and bounds bit for bit, and its bounds stop where
    /// the full sweep's do when it proves a system infeasible.
    #[test]
    fn dirty_row_sweep_matches_the_full_sweep() {
        use crate::test_support::full_sweep;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        let (mut infeasible, mut moved) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..9usize);
            let integral: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let lb: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..6) {
                    0 => f64::NEG_INFINITY,
                    _ => f64::from(rng.gen_range(-4..3i32)),
                })
                .collect();
            let ub: Vec<f64> = lb
                .iter()
                .map(|&l| match rng.gen_range(0..6) {
                    0 => f64::INFINITY,
                    _ => l.max(-4.0) + rng.gen_range(0.5..12.0),
                })
                .collect();
            let rows: Vec<SparseRow> = (0..rng.gen_range(1..10))
                .map(|_| {
                    let mut terms: Vec<(usize, f64)> = Vec::new();
                    for j in 0..n {
                        if rng.gen_bool(0.5) {
                            terms.push((j, rng.gen_range(-9.0..9.0)));
                        }
                    }
                    let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][rng.gen_range(0..3usize)];
                    (terms, cmp, rng.gen_range(-10.0..10.0))
                })
                .collect();
            let passes = rng.gen_range(1..6);
            let columns = ColumnRows::new(rows.iter(), n);
            let (mut d_lb, mut d_ub) = (lb.clone(), ub.clone());
            let (mut f_lb, mut f_ub) = (lb.clone(), ub.clone());
            let dirty = propagate(
                &rows, &columns, &mut d_lb, &mut d_ub, &integral, 1e-7, passes,
            );
            let full = full_sweep(
                &rows, &columns, &mut f_lb, &mut f_ub, &integral, 1e-7, passes,
            );
            assert_eq!(dirty, full, "seed {seed}: verdicts differ");
            assert_eq!(
                bits(&d_lb),
                bits(&f_lb),
                "seed {seed}: {d_lb:?} vs {f_lb:?}"
            );
            assert_eq!(
                bits(&d_ub),
                bits(&f_ub),
                "seed {seed}: {d_ub:?} vs {f_ub:?}"
            );
            infeasible += usize::from(!full);
            moved += usize::from(full && (bits(&f_lb) != bits(&lb) || bits(&f_ub) != bits(&ub)));
        }
        // Not vacuous: both verdicts occur, and feasible systems move bounds.
        assert!(
            infeasible > 20 && moved > 100,
            "{infeasible} infeasible, {moved} moved"
        );
    }

    /// Runs node propagation at the root of `rows` over `lb`/`ub`, with
    /// every column continuous.
    fn node_root(rows: &[SparseRow], lb: &[f64], ub: &[f64]) -> bool {
        NodePropagator::new(rows, &vec![false; lb.len()], &[], Vec::new()).run(lb, ub, None)
    }

    #[test]
    fn node_propagation_settles_boxes_the_cutoff_row_empties() {
        // min x0 + x1 over 0 <= x <= 10 with x0 + x1 >= 3: once an
        // incumbent of 4 is known, the box with x0 >= 5 holds no better
        // point, while x0 <= 3 still does. x0 >= 4 stays open: its best
        // point ties the incumbent within the propagation margin.
        let rows = vec![ge(vec![(0, 1.0), (1, 1.0)], 3.0)];
        let (lb, ub) = (vec![0.0; 2], vec![10.0; 2]);
        let mut prop = NodePropagator::new(&rows, &[true, true], &[1.0, 1.0], Vec::new());
        assert!(prop.run(&lb, &ub, None));
        let root = prop.share();
        prop.set_cutoff(4.0);
        // The cutoff moved since the root's box was proved, so each child
        // re-queues the cutoff row, which alone settles x0 >= 5.
        assert!(!prop.run(&[5.0, 0.0], &ub, Some((&root, 0))));
        assert!(prop.run(&[4.0, 0.0], &ub, Some((&root, 0))));
        assert!(prop.run(&lb, &[3.0, 10.0], Some((&root, 0))));
        // The cutoff row bounds x1 <= 4 in the box x0 <= 3 proved under
        // cutoff 4, so its child x1 >= 5 settles on its own rows.
        let low = prop.share();
        assert!(!prop.run(&[0.0, 5.0], &[3.0, 10.0], Some((&low, 1))));
        // An incumbent below the root box's best value settles the root.
        prop.set_cutoff(2.0);
        assert!(!prop.run(&lb, &ub, None));
    }

    #[test]
    fn node_propagation_uses_learned_rows() {
        // b0 + b1 <= 1 learned by probing, no LP row says so: the box with
        // both binaries at 1 settles only with the learned row.
        let learned = vec![le(vec![(0, 1.0), (1, 1.0)], 1.0)];
        let rows = vec![le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 5.0)];
        let (lb, ub) = (vec![1.0, 1.0, 0.0], vec![1.0, 1.0, 3.0]);
        let integral = [true, true, false];
        assert!(NodePropagator::new(&rows, &integral, &[], Vec::new()).run(&lb, &ub, None));
        assert!(!NodePropagator::new(&rows, &integral, &[], learned).run(&lb, &ub, None));
    }

    #[test]
    fn node_propagation_proves_a_chain_overflow() {
        // x0 + 5 <= x1, x1 + 5 <= x2, x2 <= 7: the chain needs x2 >= 10.
        let chain = |cap: f64| {
            vec![
                le(vec![(0, 1.0), (1, -1.0)], -5.0),
                le(vec![(1, 1.0), (2, -1.0)], -5.0),
                le(vec![(2, 1.0)], cap),
            ]
        };
        let (lb, ub) = (vec![0.0; 3], vec![100.0; 3]);
        assert!(!node_root(&chain(7.0), &lb, &ub));
        // Exactly enough room: the box is feasible and stays open.
        assert!(node_root(&chain(10.0), &lb, &ub));
        // A visit cap that cuts the proof short leaves the node open, so
        // its LP runs.
        let rows = chain(7.0);
        let mut prop = NodePropagator::new(&rows, &[false; 3], &[], Vec::new());
        prop.visit_cap = 1;
        assert!(prop.run(&lb, &ub, None));
    }

    #[test]
    fn node_propagation_rounds_integral_columns_only() {
        // 2x >= 1 and 2x <= 1.5 hold at x = 0.6 but at no integer x: an
        // integral x settles the box, a continuous one leaves it open.
        let rows = vec![ge(vec![(0, 2.0)], 1.0), le(vec![(0, 2.0)], 1.5)];
        let (lb, ub) = ([0.0], [1.0]);
        assert!(!NodePropagator::new(&rows, &[true], &[], Vec::new()).run(&lb, &ub, None));
        assert!(NodePropagator::new(&rows, &[false], &[], Vec::new()).run(&lb, &ub, None));

        // x >= 0.3 rounds up to 1 when x is integral and stays 0.3 (less
        // the margin) when it is continuous.
        let rows = vec![ge(vec![(0, 1.0)], 0.3)];
        let (lb, ub) = ([0.0], [5.0]);
        let mut prop = NodePropagator::new(&rows, &[true], &[], Vec::new());
        assert!(prop.run(&lb, &ub, None));
        assert_eq!(prop.share().lb[0], 1.0);
        let mut prop = NodePropagator::new(&rows, &[false], &[], Vec::new());
        assert!(prop.run(&lb, &ub, None));
        assert!((prop.share().lb[0] - 0.3).abs() < 1e-5);

        // An implied bound less than INT_TOL past an integer rounds to that
        // integer, not past it: 1000x >= 5e-4 holds at x = 5e-7, which the
        // search accepts as 0, so lb stays 0 (a 1e-9 snap would make it
        // 1); 1000x <= -5e-4 likewise lowers ub to 0, not -1.
        let rows = vec![ge(vec![(0, 1000.0)], 5e-4)];
        let mut prop = NodePropagator::new(&rows, &[true], &[], Vec::new());
        assert!(prop.run(&[0.0], &[f64::INFINITY], None));
        assert_eq!(prop.share().lb[0], 0.0);
        let rows = vec![le(vec![(0, 1000.0)], -5e-4)];
        let mut prop = NodePropagator::new(&rows, &[true], &[], Vec::new());
        assert!(prop.run(&[f64::NEG_INFINITY], &[f64::INFINITY], None));
        assert_eq!(prop.share().ub[0], 0.0);
    }

    #[test]
    fn node_propagation_ignores_violations_inside_the_margin() {
        // x >= 1 and x <= 1 - 1e-8 miss each other by less than the LP's
        // feasibility tolerance: not settled.
        let rows = vec![ge(vec![(0, 1.0)], 1.0), le(vec![(0, 1.0)], 1.0 - 1e-8)];
        assert!(node_root(&rows, &[0.0], &[2.0]));
        let rows = vec![ge(vec![(0, 1.0)], 1.0), le(vec![(0, 1.0)], 0.99)];
        assert!(!node_root(&rows, &[0.0], &[2.0]));
    }

    #[test]
    fn node_propagation_children_start_from_the_parent_box() {
        // x - 10b <= 0 and x + y >= 2 with y <= 0.5: the root derives
        // x >= 1.5 and the LP-valid (unrounded) b >= 0.15. The child b = 0
        // crosses that bound at once; the child b = 1 stays open.
        let rows = vec![
            le(vec![(0, 1.0), (2, -10.0)], 0.0),
            ge(vec![(0, 1.0), (1, 1.0)], 2.0),
        ];
        let (lb, ub) = (vec![0.0; 3], vec![10.0, 0.5, 1.0]);
        let mut prop = NodePropagator::new(&rows, &[false; 3], &[], Vec::new());
        assert!(prop.run(&lb, &ub, None));
        let root = prop.share();
        assert!((root.lb[0] - 1.5).abs() < 1e-4 && (root.lb[2] - 0.15).abs() < 1e-4);
        let down_ub = vec![10.0, 0.5, 0.0];
        assert!(!prop.run(&lb, &down_ub, Some((&root, 2))));
        let up_lb = vec![0.0, 0.0, 1.0];
        assert!(prop.run(&up_lb, &ub, Some((&root, 2))));
    }
}

//! The LP layer underneath branch-and-bound: problem, outcome and basis
//! types, plus the per-solve [`Workspace`] that runs every node LP on the
//! sparse revised simplex of `sparse.rs`.
//!
//! LPs are bound-constrained: general variable bounds (including free and
//! fixed variables) are handled without expanding them into rows, which
//! matters because every 0-1 variable of the floorplanning MILP would
//! otherwise add a row. All rows are converted to equalities with one slack
//! column each (`<=` gets a slack in `[0, ∞)`, `>=` in `(-∞, 0]`, `==` in
//! `[0, 0]`), and a cold solve adds one artificial column per row for its
//! phase 1. Pricing picks the largest reduced cost (within partial-pricing
//! blocks), with a permanent switch to Bland's rule after a stall
//! threshold to guard against cycling.
//!
//! Warm starts: a branch-and-bound child differs from its parent by one
//! tightened 0-1 bound, so the parent's optimal basis is still dual
//! feasible (reduced-cost signs are untouched by bound changes) while at
//! most one basic variable is primal infeasible. [`Workspace`] keeps the
//! kernel's allocations and factorization alive across node solves and can
//! be re-seeded from a [`BasisSnapshot`]; the dual simplex then restores
//! primal feasibility in a handful of pivots instead of re-running phase 1
//! from scratch. Any numerical trouble (singular refactorization, dual
//! pivot cap, a feasibility re-check failure against the original rows)
//! falls back to the cold two-phase primal, so warm starts can only ever
//! change speed, never answers.
//!
//! A dense two-phase tableau with the same pivot rules is compiled for
//! tests only, as the differential oracle of this module's unit tests.

use crate::model::Cmp;
use crate::sparse::SparseKernel;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// One sparse constraint row: `(terms, comparison, rhs)`.
pub(crate) type SparseRow = (Vec<(usize, f64)>, Cmp, f64);

/// How often (in simplex iterations) the cooperative deadline is polled.
/// `Instant::now()` costs tens of nanoseconds while even a small pivot is
/// an FTRAN, a BTRAN and a pricing pass, so polling every 16 iterations is
/// free yet bounds the overshoot past a deadline to 16 pivots.
pub(crate) const DEADLINE_POLL_MASK: usize = 15;

/// A bound-constrained LP in minimization form:
/// `min c·x` subject to `row·x (cmp) rhs` for each row and `lb <= x <= ub`.
///
/// Rows and costs are borrowed so branch-and-bound nodes share them; only
/// the bound vectors differ per node.
#[derive(Debug, Clone)]
pub(crate) struct LpProblem<'a> {
    pub ncols: usize,
    /// Sparse rows: `(terms, cmp, rhs)`.
    pub rows: &'a [SparseRow],
    pub c: &'a [f64],
    pub lb: &'a [f64],
    pub ub: &'a [f64],
}

/// Result of a relaxation solve.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    /// Optimal basic solution: structural values and objective.
    Optimal {
        x: Vec<f64>,
        obj: f64,
    },
    Infeasible,
    Unbounded,
    /// Safety cap hit; the model is probably badly scaled.
    IterationLimit,
    /// The caller's deadline passed mid-solve (cooperative check inside the
    /// pivot loop, so one long LP cannot overshoot a solve's time limit).
    TimedOut,
}

/// Per-solve tolerances and limits, shared by every node of one B&B run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LpConfig {
    /// Gates phase-1 acceptance and the warm-path feasibility re-check.
    pub feas_tol: f64,
    /// Pricing tolerance for both primal and dual pivots.
    pub opt_tol: f64,
    /// Cooperative deadline polled inside the pivot loops.
    pub deadline: Option<Instant>,
    /// Max dual pivots per warm attempt before falling back cold
    /// (`0` = auto: `2·m + 100`). Solves use auto; tests starve it.
    pub warm_pivot_cap: usize,
    /// Eta updates tolerated between basis refactorizations (`0` = auto).
    /// Solves use auto; tests force a refactorization per pivot.
    pub refactor_interval: usize,
}

/// How a node's LP was solved, for stats and tracing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LpInfo {
    /// `true` if the result came from a warm (basis-seeded) solve; cold
    /// fallbacks report `false` even when a warm attempt was made first.
    pub warm: bool,
    /// Simplex pivots spent on this node, wasted warm pivots included.
    pub pivots: usize,
    /// Basis LU (re)factorizations performed on this node.
    pub refactors: usize,
    /// Eta-file updates appended between refactorizations on this node.
    pub etas: usize,
}

/// A saved basis: which column is basic in each row plus the resting
/// status of every column, as captured at a node's optimum. Shared to both
/// children through an [`Arc`] so the frontier never clones kernel state.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BasisSnapshot {
    pub(crate) m: usize,
    pub(crate) n_struct: usize,
    pub(crate) basis: Vec<usize>,
    pub(crate) status: Vec<ColStatus>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColStatus {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free variable currently parked at zero.
    FreeAtZero,
}

/// The resting status a column would get in a fresh cold start.
pub(crate) fn default_status(lb: f64, ub: f64) -> ColStatus {
    if lb.is_finite() {
        ColStatus::AtLower
    } else if ub.is_finite() {
        ColStatus::AtUpper
    } else {
        ColStatus::FreeAtZero
    }
}

pub(crate) const PIVOT_TOL: f64 = 1e-9;
/// Minimum acceptable pivot magnitude when factorizing a basis; anything
/// smaller means the basis is (numerically) singular for the rows at hand
/// and a warm attempt is abandoned.
pub(crate) const REFACTOR_TOL: f64 = 1e-8;

pub(crate) enum StepOutcome {
    Optimal,
    Unbounded,
    Pivoted,
}

/// Why a primal `optimize` call stopped iterating.
pub(crate) enum OptimizeEnd {
    Done(StepOutcome),
    IterationCap,
    TimedOut,
}

/// Why a call to [`SparseKernel::dual_optimize`] stopped iterating.
pub(crate) enum DualEnd {
    /// All basic variables are back inside their bounds.
    Feasible,
    /// A violated row has no eligible entering column — an infeasibility
    /// claim. The caller either certifies it from the stuck row
    /// ([`SparseKernel::certify_infeasible`]) or confirms it with a cold
    /// solve; the raw claim is never trusted on its own.
    NoEntering {
        /// The violated row the ratio test got stuck on.
        row: usize,
    },
    /// Dual pivot budget exhausted (stall / cycling guard).
    Cap,
    TimedOut,
}

/// Reusable per-solve LP state: owns the sparse kernel so branch-and-bound
/// nodes reuse its allocations and factorization instead of churning fresh
/// buffers, and remembers which [`BasisSnapshot`] the kernel currently
/// realizes so a child popped right after its parent (the dive) skips the
/// snapshot reload and its refactorization.
pub(crate) struct Workspace {
    pub(crate) sp: SparseKernel,
    /// Whether the kernel's in-place state is an optimal basis for its
    /// cached row set — the precondition for the hot tier, which applies
    /// bound deltas to that state directly.
    optimal: bool,
    /// Snapshot the current kernel state was captured as, if any.
    loaded: Option<Weak<BasisSnapshot>>,
}

enum WarmAttempt {
    /// Warm solve finished with a trustworthy outcome.
    Done(LpOutcome),
    /// Abandon warm, run the cold path; carries the pivots already spent.
    Fallback(usize),
}

impl Workspace {
    pub(crate) fn new() -> Self {
        Workspace {
            sp: SparseKernel::new(),
            optimal: false,
            loaded: None,
        }
    }

    /// Captures the current basis so children of this node can warm-start.
    /// Only meaningful right after a solve that returned `Optimal`.
    pub(crate) fn snapshot(&mut self) -> Arc<BasisSnapshot> {
        let snap = Arc::new(BasisSnapshot {
            m: self.sp.m,
            n_struct: self.sp.n_struct,
            basis: self.sp.basis.clone(),
            status: self.sp.status.clone(),
        });
        self.loaded = Some(Arc::downgrade(&snap));
        snap
    }

    /// Drops the hot link for a node settled without its LP, as
    /// [`solve`](Self::solve) does for a solved one, so the next node
    /// reloads its snapshot exactly as it would after that node's LP.
    pub(crate) fn unlink(&mut self) {
        self.loaded = None;
    }

    /// Solves the LP, warm-starting from `basis` when given and falling
    /// back to the cold two-phase primal on any numerical doubt. Pivots and
    /// factorization work spent on an abandoned warm attempt are still
    /// charged to this node's counters.
    ///
    /// Two warm tiers are tried in order. *Hot*: the kernel still holds the
    /// optimal state `basis` was captured from, over the same row set, so
    /// only the bound deltas are applied — no reload, no refactorization.
    /// *Warm*: `basis` is loaded and factorized once. The dual simplex then
    /// repairs from whichever basis was seeded.
    pub(crate) fn solve(
        &mut self,
        p: &LpProblem<'_>,
        basis: Option<&Arc<BasisSnapshot>>,
        cfg: &LpConfig,
    ) -> (LpOutcome, LpInfo) {
        let loaded = self.loaded.take();
        self.sp.opt_tol = cfg.opt_tol;
        self.sp.refactor_interval = cfg.refactor_interval;
        let mut wasted = (0, 0, 0);
        if let Some(snap) = basis {
            // `snap.m < rows` is the cut-round and seeded-root case: the
            // snapshot predates appended rows, and the warm load extends it
            // with their slacks.
            if snap.m <= p.rows.len() && snap.n_struct == p.ncols {
                let parent_state = loaded
                    .as_ref()
                    .and_then(Weak::upgrade)
                    .is_some_and(|cur| Arc::ptr_eq(&cur, snap));
                for hot in [true, false] {
                    if hot && !(self.optimal && parent_state && self.sp.matches_problem(p)) {
                        continue;
                    }
                    match self.attempt_warm(p, snap, cfg, hot) {
                        WarmAttempt::Done(out) => {
                            self.optimal = matches!(out, LpOutcome::Optimal { .. });
                            return (
                                out,
                                LpInfo {
                                    warm: true,
                                    pivots: self.sp.iterations + wasted.0,
                                    refactors: self.sp.refactors + wasted.1,
                                    etas: self.sp.eta_updates + wasted.2,
                                },
                            );
                        }
                        WarmAttempt::Fallback(pivots) => {
                            wasted.0 += pivots;
                            wasted.1 += self.sp.refactors;
                            wasted.2 += self.sp.eta_updates;
                        }
                    }
                }
            }
        }
        let out = self.sp.solve_cold(p, cfg);
        self.optimal = matches!(out, LpOutcome::Optimal { .. });
        (
            out,
            LpInfo {
                warm: false,
                pivots: self.sp.iterations + wasted.0,
                refactors: self.sp.refactors + wasted.1,
                etas: self.sp.eta_updates + wasted.2,
            },
        )
    }

    /// One warm attempt: seed the kernel (in place if `hot`, else by
    /// loading the snapshot basis against these rows), restore primal
    /// feasibility with the dual simplex, polish with the primal, and
    /// re-check the claimed optimum against the original rows. There is no
    /// reprice step: the revised method derives reduced costs from
    /// `Bᵀ·y = c_B`, so loading the phase-2 cost vector is the entire
    /// re-seed.
    fn attempt_warm(
        &mut self,
        p: &LpProblem<'_>,
        snap: &BasisSnapshot,
        cfg: &LpConfig,
        hot: bool,
    ) -> WarmAttempt {
        let seeded = if hot {
            self.sp.apply_bound_deltas(p)
        } else {
            self.sp.load_snapshot(p, snap)
        };
        if !seeded {
            return WarmAttempt::Fallback(self.sp.iterations);
        }
        self.sp.set_phase2_cost(p.c);

        let m = self.sp.m;
        let cap = if cfg.warm_pivot_cap > 0 {
            cfg.warm_pivot_cap
        } else {
            2 * m + 100
        };
        match self.sp.dual_optimize(cfg.feas_tol, cap, cfg.deadline) {
            DualEnd::TimedOut => return WarmAttempt::Done(LpOutcome::TimedOut),
            // An infeasibility claim from the dual ratio test is only
            // accepted with a one-row interval certificate (branched
            // children with an empty feasible box carry one); anything it
            // cannot certify is confirmed cold, so a noisy warm start can
            // never prune a feasible subtree.
            DualEnd::NoEntering { row } => {
                if self.sp.certify_infeasible(row, cfg.feas_tol) {
                    return WarmAttempt::Done(LpOutcome::Infeasible);
                }
                return WarmAttempt::Fallback(self.sp.iterations);
            }
            DualEnd::Cap => return WarmAttempt::Fallback(self.sp.iterations),
            DualEnd::Feasible => {}
        }

        let max_iters = 60 * (m + self.sp.n) + 5_000;
        self.sp.bland = false;
        match self.sp.optimize(max_iters, cfg.deadline) {
            OptimizeEnd::TimedOut => WarmAttempt::Done(LpOutcome::TimedOut),
            // A warm "unbounded" on the child of a bounded parent is far
            // more likely numerical drift than truth; let cold decide.
            OptimizeEnd::IterationCap | OptimizeEnd::Done(StepOutcome::Unbounded) => {
                WarmAttempt::Fallback(self.sp.iterations)
            }
            OptimizeEnd::Done(_) => {
                let (x, obj) = self.sp.extract(p.c);
                if verify_primal(p, &x, cfg.feas_tol) {
                    WarmAttempt::Done(LpOutcome::Optimal { x, obj })
                } else {
                    WarmAttempt::Fallback(self.sp.iterations)
                }
            }
        }
    }
}

/// Re-checks a candidate structural solution against the *original* bounds
/// and rows — the warm path's defense against accumulated elimination
/// error. A `false` means "don't trust this basis representation" and sends
/// the caller cold.
fn verify_primal(p: &LpProblem<'_>, x: &[f64], feas_tol: f64) -> bool {
    let tol0 = feas_tol.max(1e-7);
    for (j, xv) in x.iter().enumerate() {
        let tol = tol0 * (1.0 + xv.abs());
        if *xv < p.lb[j] - tol || *xv > p.ub[j] + tol {
            return false;
        }
    }
    for (terms, cmp, rhs) in p.rows {
        let lhs: f64 = terms.iter().map(|&(j, a)| a * x[j]).sum();
        let tol = tol0 * (1.0 + rhs.abs());
        let ok = match cmp {
            Cmp::Le => lhs <= rhs + tol,
            Cmp::Ge => lhs >= rhs - tol,
            Cmp::Eq => (lhs - rhs).abs() <= tol,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// The dense bounded-variable tableau: the reference two-phase primal
/// simplex that the sparse kernel mirrors rule for rule (column layout,
/// Dantzig pricing, ratio-test tie-breaks, stall-to-Bland switch and
/// tolerances), kept for tests as the LP oracle of the differential unit
/// tests below. It carries `B⁻¹·A` explicitly, O(m·n) per pivot.
#[cfg(test)]
mod dense {
    use super::*;

    pub(super) struct Tableau {
        m: usize,
        /// Total columns: structural + slacks + artificials.
        n: usize,
        /// Row-major dense `m x n` tableau, kept equal to `B⁻¹·A`.
        t: Vec<f64>,
        /// Reduced costs for the current phase's cost vector.
        d: Vec<f64>,
        /// Values of the basic variables, one per row.
        xb: Vec<f64>,
        /// Basic column per row.
        basis: Vec<usize>,
        status: Vec<ColStatus>,
        lb: Vec<f64>,
        ub: Vec<f64>,
        opt_tol: f64,
        iterations: usize,
        bland: bool,
    }

    impl Tableau {
        #[inline]
        fn at(&self, i: usize, j: usize) -> f64 {
            self.t[i * self.n + j]
        }

        /// Current (non-basic or parked) value of column `j`.
        fn nonbasic_value(&self, j: usize) -> f64 {
            match self.status[j] {
                ColStatus::AtLower => self.lb[j],
                ColStatus::AtUpper => self.ub[j],
                ColStatus::FreeAtZero => 0.0,
                ColStatus::Basic(r) => self.xb[r],
            }
        }

        /// One simplex iteration: price, ratio test, pivot or bound flip.
        fn step(&mut self) -> StepOutcome {
            // --- pricing: pick the entering column -------------------------
            let mut enter: Option<(usize, i8, f64)> = None; // (col, dir, score)
            for j in 0..self.n {
                let (eligible, dir) = match self.status[j] {
                    ColStatus::Basic(_) => (false, 0i8),
                    ColStatus::AtLower => (self.d[j] < -self.opt_tol, 1),
                    ColStatus::AtUpper => (self.d[j] > self.opt_tol, -1),
                    ColStatus::FreeAtZero => (
                        self.d[j].abs() > self.opt_tol,
                        if self.d[j] < 0.0 { 1 } else { -1 },
                    ),
                };
                if !eligible {
                    continue;
                }
                if self.bland {
                    enter = Some((j, dir, 0.0));
                    break;
                }
                let score = self.d[j].abs();
                if enter.is_none_or(|(_, _, s)| score > s) {
                    enter = Some((j, dir, score));
                }
            }
            let Some((q, dir, _)) = enter else {
                return StepOutcome::Optimal;
            };
            let dir = f64::from(dir);

            // --- ratio test ------------------------------------------------
            // The entering variable moves by t >= 0 in direction `dir`; each
            // basic variable changes by -dir * t * T[i][q].
            let own_limit = if self.lb[q].is_finite() && self.ub[q].is_finite() {
                self.ub[q] - self.lb[q]
            } else {
                f64::INFINITY
            };
            let mut t_best = own_limit;
            let mut leave: Option<(usize, bool)> = None; // (row, hits_upper)
            for i in 0..self.m {
                let alpha = dir * self.at(i, q);
                let bi = self.basis[i];
                let (limit, hits_upper) = if alpha > PIVOT_TOL {
                    if self.lb[bi].is_finite() {
                        ((self.xb[i] - self.lb[bi]) / alpha, false)
                    } else {
                        continue;
                    }
                } else if alpha < -PIVOT_TOL {
                    if self.ub[bi].is_finite() {
                        ((self.ub[bi] - self.xb[i]) / (-alpha), true)
                    } else {
                        continue;
                    }
                } else {
                    continue;
                };
                let limit = limit.max(0.0); // degenerate steps clamp to zero
                let better = match leave {
                    None => {
                        limit < t_best - PIVOT_TOL || (t_best.is_infinite() && limit.is_finite())
                    }
                    Some((r, _)) => {
                        limit < t_best - PIVOT_TOL
                            // stability tie-break: larger pivot magnitude
                            || (limit < t_best + PIVOT_TOL
                                && self.at(i, q).abs() > self.at(r, q).abs())
                    }
                };
                if better {
                    t_best = limit;
                    leave = Some((i, hits_upper));
                }
            }

            if t_best.is_infinite() {
                return StepOutcome::Unbounded;
            }

            self.iterations += 1;
            let v_q = self.nonbasic_value(q);

            match leave {
                // Bound flip: entering variable runs to its opposite bound.
                None => {
                    for i in 0..self.m {
                        self.xb[i] -= dir * t_best * self.at(i, q);
                    }
                    self.status[q] = if dir > 0.0 {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::AtLower
                    };
                }
                Some((r, hits_upper)) => {
                    for i in 0..self.m {
                        self.xb[i] -= dir * t_best * self.at(i, q);
                    }
                    let old = self.basis[r];
                    // Snap the leaving variable exactly onto the bound it hit.
                    self.status[old] = if hits_upper {
                        self.xb[r] = self.ub[old];
                        ColStatus::AtUpper
                    } else {
                        self.xb[r] = self.lb[old];
                        ColStatus::AtLower
                    };
                    let entering_value = v_q + dir * t_best;
                    self.pivot(r, q);
                    self.basis[r] = q;
                    self.status[q] = ColStatus::Basic(r);
                    self.xb[r] = entering_value;
                }
            }
            StepOutcome::Pivoted
        }

        /// Gaussian elimination so column `q` becomes the `r`-th unit vector;
        /// also updates the reduced-cost row.
        fn pivot(&mut self, r: usize, q: usize) {
            let n = self.n;
            let piv = self.t[r * n + q];
            debug_assert!(piv.abs() > PIVOT_TOL, "pivot too small: {piv}");
            let inv = 1.0 / piv;
            for j in 0..n {
                self.t[r * n + j] *= inv;
            }
            self.t[r * n + q] = 1.0; // exact
            for i in 0..self.m {
                if i == r {
                    continue;
                }
                let factor = self.t[i * n + q];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    self.t[i * n + j] -= factor * self.t[r * n + j];
                }
                self.t[i * n + q] = 0.0; // exact
            }
            let dq = self.d[q];
            if dq != 0.0 {
                for j in 0..n {
                    self.d[j] -= dq * self.t[r * n + j];
                }
                self.d[q] = 0.0;
            }
        }

        /// Runs simplex iterations until optimal / unbounded / capped / past
        /// the caller's deadline.
        fn optimize(&mut self, max_iters: usize, deadline: Option<Instant>) -> OptimizeEnd {
            let stall_switch = 3 * (self.m + self.n) + 200;
            let start = self.iterations;
            loop {
                if self.iterations - start > stall_switch {
                    self.bland = true;
                }
                if self.iterations > max_iters {
                    return OptimizeEnd::IterationCap;
                }
                if self.iterations & DEADLINE_POLL_MASK == 0 {
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            return OptimizeEnd::TimedOut;
                        }
                    }
                }
                match self.step() {
                    StepOutcome::Pivoted => continue,
                    other => return OptimizeEnd::Done(other),
                }
            }
        }

        /// Recomputes reduced costs `d = c - c_B·T` for a new cost vector.
        fn reprice(&mut self, c: &[f64]) {
            self.d.copy_from_slice(c);
            for i in 0..self.m {
                let cb = c[self.basis[i]];
                if cb == 0.0 {
                    continue;
                }
                for j in 0..self.n {
                    self.d[j] -= cb * self.t[i * self.n + j];
                }
            }
            for i in 0..self.m {
                self.d[self.basis[i]] = 0.0;
            }
        }

        /// The cold two-phase primal on a fresh tableau.
        pub(super) fn solve_cold(p: &LpProblem<'_>, cfg: &LpConfig) -> LpOutcome {
            let m = p.rows.len();
            let n_struct = p.ncols;
            let n_slack = m;
            let n = n_struct + n_slack + m; // + artificials

            // Dense tableau of the original system (B = signed identity on
            // artificials initially, folded in below).
            let mut tab = Tableau {
                m,
                n,
                t: vec![0.0; m * n],
                d: vec![0.0; n],
                xb: Vec::with_capacity(m),
                basis: Vec::with_capacity(m),
                status: Vec::with_capacity(n),
                lb: p.lb.to_vec(),
                ub: p.ub.to_vec(),
                opt_tol: cfg.opt_tol,
                iterations: 0,
                bland: false,
            };
            for (_, cmp, _) in p.rows {
                let (lo, hi) = match cmp {
                    Cmp::Le => (0.0, f64::INFINITY),
                    Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                    Cmp::Eq => (0.0, 0.0),
                };
                tab.lb.push(lo);
                tab.ub.push(hi);
            }
            tab.lb.resize(n, 0.0);
            tab.ub.resize(n, f64::INFINITY);

            for j in 0..n_struct + n_slack {
                tab.status.push(default_status(tab.lb[j], tab.ub[j]));
            }
            tab.status.resize(n, ColStatus::AtLower);

            // Row data and initial residuals r_i = b_i - A_i · x_N.
            for (i, (terms, _, rhs)) in p.rows.iter().enumerate() {
                let mut residual = *rhs;
                for &(j, a) in terms {
                    tab.t[i * n + j] = a;
                    residual -= a * tab.nonbasic_value(j);
                }
                // slack column
                let sj = n_struct + i;
                tab.t[i * n + sj] = 1.0;
                residual -= tab.nonbasic_value(sj);
                // artificial column, signed so it starts basic and >= 0
                let aj = n_struct + n_slack + i;
                let sign = if residual >= 0.0 { 1.0 } else { -1.0 };
                tab.t[i * n + aj] = sign;
                // Fold B⁻¹ = diag(sign) into the tableau row immediately.
                if sign < 0.0 {
                    for j in 0..n {
                        tab.t[i * n + j] = -tab.t[i * n + j];
                    }
                }
                tab.basis.push(aj);
                tab.status[aj] = ColStatus::Basic(i);
                tab.xb.push(residual.abs());
            }

            let max_iters = 60 * (m + n) + 5_000;

            // --- Phase 1: minimize the sum of artificials ------------------
            let mut cost = vec![0.0; n];
            cost[n_struct + n_slack..].fill(1.0);
            tab.reprice(&cost);
            match tab.optimize(max_iters, cfg.deadline) {
                OptimizeEnd::IterationCap => return LpOutcome::IterationLimit,
                OptimizeEnd::TimedOut => return LpOutcome::TimedOut,
                OptimizeEnd::Done(StepOutcome::Unbounded) => {
                    // Phase-1 objective is bounded below by 0.
                    panic!("phase 1 reported unbounded");
                }
                OptimizeEnd::Done(_) => {}
            }
            let phase1_obj: f64 = (0..m)
                .filter(|&i| tab.basis[i] >= n_struct + n_slack)
                .map(|i| tab.xb[i])
                .sum();
            if phase1_obj > cfg.feas_tol.max(1e-7) * (1.0 + phase1_obj.abs()) && phase1_obj > 1e-6 {
                return LpOutcome::Infeasible;
            }

            // Fix artificials at zero so they can never re-enter or grow.
            for j in n_struct + n_slack..n {
                tab.lb[j] = 0.0;
                tab.ub[j] = 0.0;
                if let ColStatus::Basic(r) = tab.status[j] {
                    // Snap tiny residuals to exactly zero.
                    if tab.xb[r].abs() <= 1e-6 {
                        tab.xb[r] = 0.0;
                    }
                } else {
                    tab.status[j] = ColStatus::AtLower;
                }
            }

            // --- Phase 2: the real objective -------------------------------
            cost.fill(0.0);
            cost[..n_struct].copy_from_slice(p.c);
            tab.reprice(&cost);
            tab.bland = false;
            match tab.optimize(max_iters, cfg.deadline) {
                OptimizeEnd::IterationCap => LpOutcome::IterationLimit,
                OptimizeEnd::TimedOut => LpOutcome::TimedOut,
                OptimizeEnd::Done(StepOutcome::Unbounded) => LpOutcome::Unbounded,
                OptimizeEnd::Done(_) => {
                    let x: Vec<f64> = (0..n_struct).map(|j| tab.nonbasic_value(j)).collect();
                    let obj = p.c.iter().zip(&x).map(|(c, v)| c * v).sum();
                    LpOutcome::Optimal { x, obj }
                }
            }
        }
    }
}

/// Cold one-shot solve on a chosen kernel — the sparse revised simplex or
/// the dense reference tableau — for the differential unit tests.
#[cfg(test)]
pub(crate) fn solve_lp_kernel(
    p: &LpProblem<'_>,
    feas_tol: f64,
    opt_tol: f64,
    deadline: Option<Instant>,
    sparse: bool,
) -> LpOutcome {
    let cfg = LpConfig {
        feas_tol,
        opt_tol,
        deadline,
        warm_pivot_cap: 0,
        refactor_interval: 0,
    };
    if sparse {
        Workspace::new().solve(p, None, &cfg).0
    } else {
        dense::Tableau::solve_cold(p, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Owned problem data for tests; `LpProblem` itself borrows.
    #[derive(Clone)]
    struct Owned {
        ncols: usize,
        rows: Vec<SparseRow>,
        c: Vec<f64>,
        lb: Vec<f64>,
        ub: Vec<f64>,
    }

    impl Owned {
        fn as_problem(&self) -> LpProblem<'_> {
            LpProblem {
                ncols: self.ncols,
                rows: &self.rows,
                c: &self.c,
                lb: &self.lb,
                ub: &self.ub,
            }
        }
    }

    fn le(terms: Vec<(usize, f64)>, rhs: f64) -> (Vec<(usize, f64)>, Cmp, f64) {
        (terms, Cmp::Le, rhs)
    }
    fn ge(terms: Vec<(usize, f64)>, rhs: f64) -> (Vec<(usize, f64)>, Cmp, f64) {
        (terms, Cmp::Ge, rhs)
    }
    fn eq(terms: Vec<(usize, f64)>, rhs: f64) -> (Vec<(usize, f64)>, Cmp, f64) {
        (terms, Cmp::Eq, rhs)
    }

    fn cfg() -> LpConfig {
        LpConfig {
            feas_tol: 1e-7,
            opt_tol: 1e-9,
            deadline: None,
            warm_pivot_cap: 0,
            refactor_interval: 0,
        }
    }

    /// Requires `got` to match the dense oracle's `want`: the same outcome
    /// variant, and the same objective when optimal.
    fn assert_agrees(want: &LpOutcome, got: &LpOutcome, what: &str) {
        match (want, got) {
            (LpOutcome::Optimal { obj: a, .. }, LpOutcome::Optimal { obj: b, .. }) => {
                assert!(
                    (a - b).abs() <= 1e-7 * (1.0 + a.abs()),
                    "{what}: dense obj {a} vs sparse obj {b}"
                );
            }
            (d, s) => assert_eq!(
                std::mem::discriminant(d),
                std::mem::discriminant(s),
                "{what}: dense {d:?} vs sparse {s:?}"
            ),
        }
    }

    /// Differential solve: every in-module case runs cold on both kernels
    /// and must agree before the sparse result is handed to the assertion.
    fn solve(p: &Owned) -> LpOutcome {
        let dense = solve_lp_kernel(&p.as_problem(), 1e-7, 1e-9, None, false);
        let sparse = solve_lp_kernel(&p.as_problem(), 1e-7, 1e-9, None, true);
        assert_agrees(&dense, &sparse, "cold");
        sparse
    }

    fn optimal(p: &Owned) -> (Vec<f64>, f64) {
        match solve(p) {
            LpOutcome::Optimal { x, obj } => (x, obj),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_max_as_min() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 => x=4, y=0, obj 12.
        let p = Owned {
            ncols: 2,
            rows: vec![
                le(vec![(0, 1.0), (1, 1.0)], 4.0),
                le(vec![(0, 1.0), (1, 3.0)], 6.0),
            ],
            c: vec![-3.0, -2.0],
            lb: vec![0.0, 0.0],
            ub: vec![f64::INFINITY, f64::INFINITY],
        };
        let (x, obj) = optimal(&p);
        assert!((obj + 12.0).abs() < 1e-7);
        assert!((x[0] - 4.0).abs() < 1e-7);
        assert!(x[1].abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_rows() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 -> obj 10.
        let p = Owned {
            ncols: 2,
            rows: vec![
                eq(vec![(0, 1.0), (1, 1.0)], 10.0),
                ge(vec![(0, 1.0)], 3.0),
                ge(vec![(1, 1.0)], 2.0),
            ],
            c: vec![1.0, 1.0],
            lb: vec![0.0, 0.0],
            ub: vec![f64::INFINITY, f64::INFINITY],
        };
        let (x, obj) = optimal(&p);
        assert!((obj - 10.0).abs() < 1e-7);
        assert!((x[0] + x[1] - 10.0).abs() < 1e-7);
        assert!(x[0] >= 3.0 - 1e-7 && x[1] >= 2.0 - 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let p = Owned {
            ncols: 1,
            rows: vec![ge(vec![(0, 1.0)], 5.0), le(vec![(0, 1.0)], 3.0)],
            c: vec![0.0],
            lb: vec![0.0],
            ub: vec![f64::INFINITY],
        };
        assert!(matches!(solve(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let p = Owned {
            ncols: 1,
            rows: vec![ge(vec![(0, 1.0)], 1.0)],
            c: vec![-1.0],
            lb: vec![0.0],
            ub: vec![f64::INFINITY],
        };
        assert!(matches!(solve(&p), LpOutcome::Unbounded));
    }

    #[test]
    fn bounds_without_rows() {
        // min -x with x in [0, 7]: a pure bound-flip solve, no pivots needed.
        let p = Owned {
            ncols: 1,
            rows: vec![],
            c: vec![-1.0],
            lb: vec![0.0],
            ub: vec![7.0],
        };
        let (x, obj) = optimal(&p);
        assert_eq!(x[0], 7.0);
        assert!((obj + 7.0).abs() < 1e-12);
    }

    #[test]
    fn upper_bounded_vars_via_bound_flips() {
        // max x + y, x <= 2, y <= 3 as bounds, x + y <= 4 as a row.
        let p = Owned {
            ncols: 2,
            rows: vec![le(vec![(0, 1.0), (1, 1.0)], 4.0)],
            c: vec![-1.0, -1.0],
            lb: vec![0.0, 0.0],
            ub: vec![2.0, 3.0],
        };
        let (x, obj) = optimal(&p);
        assert!((obj + 4.0).abs() < 1e-7);
        assert!((x[0] + x[1] - 4.0).abs() < 1e-7);
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= -5 (x free): optimum -5.
        let p = Owned {
            ncols: 1,
            rows: vec![ge(vec![(0, 1.0)], -5.0)],
            c: vec![1.0],
            lb: vec![f64::NEG_INFINITY],
            ub: vec![f64::INFINITY],
        };
        let (x, obj) = optimal(&p);
        assert!((x[0] + 5.0).abs() < 1e-7);
        assert!((obj + 5.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variable_via_bounds() {
        // x fixed to 3 by lb=ub, minimize y with y >= x.
        let p = Owned {
            ncols: 2,
            rows: vec![ge(vec![(1, 1.0), (0, -1.0)], 0.0)],
            c: vec![0.0, 1.0],
            lb: vec![3.0, 0.0],
            ub: vec![3.0, f64::INFINITY],
        };
        let (x, obj) = optimal(&p);
        assert!((x[1] - 3.0).abs() < 1e-7);
        assert!((obj - 3.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-ish degenerate rows; correctness = termination + optimum.
        let p = Owned {
            ncols: 3,
            rows: vec![
                le(vec![(0, 1.0)], 1.0),
                le(vec![(0, 4.0), (1, 1.0)], 8.0),
                le(vec![(0, 8.0), (1, 4.0), (2, 1.0)], 50.0),
                le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 50.0),
                le(vec![(1, 1.0)], 8.0),
            ],
            c: vec![-4.0, -2.0, -1.0],
            lb: vec![0.0; 3],
            ub: vec![f64::INFINITY; 3],
        };
        let (x, obj) = optimal(&p);
        // Verify feasibility and local optimality versus hand solution:
        // x0=1 (row0), then row1: x1 <= 4, row2: x2 <= 50-8-4x1.
        assert!(x[0] <= 1.0 + 1e-7);
        assert!(obj <= -4.0 * 1.0 - 2.0 * 4.0 - 1.0 * 26.0 + 1e-6);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -4  (i.e. x >= 4)
        let p = Owned {
            ncols: 1,
            rows: vec![le(vec![(0, -1.0)], -4.0)],
            c: vec![1.0],
            lb: vec![0.0],
            ub: vec![f64::INFINITY],
        };
        let (x, _) = optimal(&p);
        assert!((x[0] - 4.0).abs() < 1e-7);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice: redundant artificial stays basic at 0.
        let p = Owned {
            ncols: 2,
            rows: vec![
                eq(vec![(0, 1.0), (1, 1.0)], 2.0),
                eq(vec![(0, 1.0), (1, 1.0)], 2.0),
            ],
            c: vec![1.0, 2.0],
            lb: vec![0.0, 0.0],
            ub: vec![f64::INFINITY, f64::INFINITY],
        };
        let (x, obj) = optimal(&p);
        assert!((x[0] - 2.0).abs() < 1e-7);
        assert!((obj - 2.0).abs() < 1e-7);
    }

    #[test]
    fn big_m_disjunction_relaxation() {
        // The paper's non-overlap row shape: xi + wi <= xj + W*p with p in
        // [0,1] continuous: LP relaxation should exploit p freely.
        let w = 100.0;
        let p = Owned {
            ncols: 3, // xi, xj, pair
            rows: vec![le(vec![(0, 1.0), (1, -1.0), (2, -w)], -10.0)],
            c: vec![0.0, 1.0, 0.0],
            lb: vec![0.0, 0.0, 0.0],
            ub: vec![50.0, 50.0, 1.0],
        };
        let (x, obj) = optimal(&p);
        // xj can be 0 because the pair var absorbs the offset.
        assert!(obj.abs() < 1e-7);
        assert!(x[2] >= 0.1 - 1e-7);
    }

    // --- warm-start paths ---------------------------------------------

    /// A small MILP-relaxation-shaped problem with a fractional optimum so
    /// tightening a bound actually moves the solution.
    fn branchy() -> Owned {
        Owned {
            ncols: 3,
            rows: vec![
                le(vec![(0, 3.0), (1, 5.0), (2, 4.0)], 10.0),
                le(vec![(0, 2.0), (1, 1.0), (2, 3.0)], 6.0),
                ge(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.0),
            ],
            c: vec![-5.0, -4.0, -3.0],
            lb: vec![0.0; 3],
            ub: vec![1.0; 3],
        }
    }

    fn expect_opt(out: &LpOutcome) -> (&[f64], f64) {
        match out {
            LpOutcome::Optimal { x, obj } => (x, *obj),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn hot_warm_start_matches_cold_after_tightening() {
        let c = cfg();
        let mut p = branchy();
        let mut ws = Workspace::new();
        let (out, info) = ws.solve(&p.as_problem(), None, &c);
        expect_opt(&out);
        assert!(!info.warm);
        let snap = ws.snapshot();

        // Branch x1 down to 0, then up to 1, reusing the same workspace.
        for (lo, hi) in [(0.0, 0.0), (1.0, 1.0)] {
            p.lb[1] = lo;
            p.ub[1] = hi;
            let (warm_out, warm_info) = ws.solve(&p.as_problem(), Some(&snap), &c);
            let (wx, wobj) = expect_opt(&warm_out);
            assert!(warm_info.warm, "expected the warm path for ({lo},{hi})");
            let (cx, cobj) = optimal(&p);
            assert!(
                (wobj - cobj).abs() <= 1e-9 * (1.0 + cobj.abs()),
                "warm {wobj} vs cold {cobj}"
            );
            for (a, b) in wx.iter().zip(&cx) {
                assert!((a - b).abs() < 1e-6, "warm x {wx:?} vs cold {cx:?}");
            }
        }
    }

    #[test]
    fn refactorized_warm_start_from_foreign_workspace() {
        let c = cfg();
        let mut p = branchy();
        let mut ws1 = Workspace::new();
        let (out, _) = ws1.solve(&p.as_problem(), None, &c);
        expect_opt(&out);
        let snap = ws1.snapshot();

        // A different workspace never saw this basis: must refactorize.
        p.ub[0] = 0.0;
        let mut ws2 = Workspace::new();
        let (warm_out, warm_info) = ws2.solve(&p.as_problem(), Some(&snap), &c);
        let (_, wobj) = expect_opt(&warm_out);
        assert!(warm_info.warm);
        let (_, cobj) = optimal(&p);
        assert!((wobj - cobj).abs() <= 1e-9 * (1.0 + cobj.abs()));
    }

    #[test]
    fn dimension_mismatch_falls_back_cold() {
        let p = branchy();
        let mut ws = Workspace::new();
        ws.solve(&p.as_problem(), None, &cfg());
        let snap = ws.snapshot();

        // A different problem shape must ignore the snapshot entirely.
        let q = Owned {
            ncols: 2,
            rows: vec![le(vec![(0, 1.0), (1, 1.0)], 4.0)],
            c: vec![-3.0, -2.0],
            lb: vec![0.0, 0.0],
            ub: vec![f64::INFINITY, f64::INFINITY],
        };
        let (out, info) = ws.solve(&q.as_problem(), Some(&snap), &cfg());
        expect_opt(&out);
        assert!(!info.warm);
    }

    #[test]
    fn warm_start_with_redundant_equality_basis() {
        // The snapshot keeps an artificial basic on the redundant row;
        // refactorization must re-admit it as a plain unit column.
        let c = cfg();
        let mut p = Owned {
            ncols: 2,
            rows: vec![
                eq(vec![(0, 1.0), (1, 1.0)], 2.0),
                eq(vec![(0, 1.0), (1, 1.0)], 2.0),
            ],
            c: vec![1.0, 2.0],
            lb: vec![0.0, 0.0],
            ub: vec![2.0, 2.0],
        };
        let mut ws = Workspace::new();
        let (out, _) = ws.solve(&p.as_problem(), None, &c);
        expect_opt(&out);
        let snap = ws.snapshot();

        p.ub[0] = 0.5; // force x1 = 1.5
        let (warm_out, info) = ws.solve(&p.as_problem(), Some(&snap), &c);
        let (x, obj) = expect_opt(&warm_out);
        assert!(info.warm);
        assert!((x[0] - 0.5).abs() < 1e-6);
        assert!((obj - 3.5).abs() < 1e-6);
    }

    #[test]
    fn tiny_pivot_cap_forces_cold_fallback() {
        let mut c = cfg();
        let mut p = branchy();
        let mut ws = Workspace::new();
        ws.solve(&p.as_problem(), None, &c);
        let snap = ws.snapshot();

        p.ub[1] = 0.0;
        p.lb[2] = 1.0;
        c.warm_pivot_cap = 1; // starve the dual loop so it caps out
        let (out, info) = ws.solve(&p.as_problem(), Some(&snap), &c);
        let (_, wobj) = expect_opt(&out);
        let (_, cobj) = optimal(&p);
        assert!((wobj - cobj).abs() <= 1e-9 * (1.0 + cobj.abs()));
        // Either the dual finished within one pivot (warm) or it fell
        // back cold; both must be correct, a cap must never error out.
        let _ = info;
    }

    #[test]
    fn warm_infeasible_child_is_certified_or_cold_confirmed() {
        // Tighten bounds until the >= 1 row is unsatisfiable. Both valid
        // endings: the stuck dual row certifies infeasibility warm (every
        // helpful column is boxed to zero width), or the claim fails the
        // certificate and a cold solve confirms it. Either way the outcome
        // must be `Infeasible` — never a bogus optimum.
        let c = cfg();
        let mut p = Owned {
            ncols: 2,
            rows: vec![ge(vec![(0, 1.0), (1, 1.0)], 1.5)],
            c: vec![1.0, 1.0],
            lb: vec![0.0, 0.0],
            ub: vec![1.0, 1.0],
        };
        let mut ws = Workspace::new();
        let (out, _) = ws.solve(&p.as_problem(), None, &c);
        expect_opt(&out);
        let snap = ws.snapshot();

        p.ub[0] = 0.0;
        p.ub[1] = 0.0;
        let (out, _info) = ws.solve(&p.as_problem(), Some(&snap), &c);
        assert!(matches!(out, LpOutcome::Infeasible), "got {out:?}");
    }

    #[test]
    fn infeasibility_certificate_respects_unbounded_columns() {
        // x in [2, 3] must equal the free variable y (y unbounded below
        // via two Ge rows): feasible, but a narrow warm box might tempt a
        // sloppy certificate. The solve must find the optimum, not claim
        // infeasibility.
        let c = cfg();
        let mut p = Owned {
            ncols: 2,
            rows: vec![
                ge(vec![(0, 1.0), (1, -1.0)], 0.0),
                ge(vec![(0, -1.0), (1, 1.0)], 0.0),
            ],
            c: vec![1.0, 0.0],
            lb: vec![0.0, f64::NEG_INFINITY],
            ub: vec![5.0, f64::INFINITY],
        };
        let mut ws = Workspace::new();
        let (out, _) = ws.solve(&p.as_problem(), None, &c);
        expect_opt(&out);
        let snap = ws.snapshot();

        p.lb[0] = 2.0;
        p.ub[0] = 3.0;
        let (out, _) = ws.solve(&p.as_problem(), Some(&snap), &c);
        let LpOutcome::Optimal { obj, .. } = out else {
            panic!("feasible child judged {out:?}");
        };
        assert!((obj - 2.0).abs() < 1e-6, "obj {obj}");
    }

    #[test]
    fn sparse_counters_populated_and_forced_refactor_agrees() {
        // A cold sparse solve factorizes at least once (the initial basis
        // load) and once more for the final accuracy refresh; forcing a
        // refactorization after every pivot must not change the optimum.
        let p = branchy();
        let mut ws = Workspace::new();
        let (out, info) = ws.solve(&p.as_problem(), None, &cfg());
        let (_, obj) = expect_opt(&out);
        assert!(info.refactors >= 1, "refactors {}", info.refactors);

        let mut forced = cfg();
        forced.refactor_interval = 1;
        let mut ws2 = Workspace::new();
        let (out2, info2) = ws2.solve(&p.as_problem(), None, &forced);
        let (_, obj2) = expect_opt(&out2);
        assert!((obj - obj2).abs() <= 1e-9 * (1.0 + obj.abs()));
        assert!(info2.refactors >= info.refactors);
    }

    // --- seeded property test: warm tiers against the dense oracle -----

    /// An integer point of the box `[lb, ub]` (integer bounds).
    fn random_point(rng: &mut StdRng, lb: &[f64], ub: &[f64]) -> Vec<f64> {
        lb.iter()
            .zip(ub)
            .map(|(&l, &u)| f64::from(rng.gen_range(l as i32..=u as i32)))
            .collect()
    }

    /// A row with small integer coefficients that `x` satisfies: an
    /// equality through `x`, or an inequality with up to 3 units of slack.
    fn random_row(rng: &mut StdRng, ncols: usize, x: &[f64]) -> SparseRow {
        let mut terms = Vec::new();
        for j in 0..ncols {
            let a = f64::from(rng.gen_range(-4i32..=4));
            if a != 0.0 && rng.gen_bool(0.6) {
                terms.push((j, a));
            }
        }
        if terms.is_empty() {
            terms.push((rng.gen_range(0..ncols), 1.0));
        }
        let at_x: f64 = terms.iter().map(|&(j, a)| a * x[j]).sum();
        let slack = f64::from(rng.gen_range(0i32..=3));
        match rng.gen_range(0..5u32) {
            0 => (terms, Cmp::Eq, at_x),
            1 | 2 => (terms, Cmp::Le, at_x + slack),
            _ => (terms, Cmp::Ge, at_x - slack),
        }
    }

    /// A random bounded LP with small integer data: 2–7 columns in integer
    /// boxes and 1–5 rows that one integer point of the box satisfies, so
    /// the cold solve is always optimal.
    fn random_bounded_lp(rng: &mut StdRng) -> Owned {
        let ncols = rng.gen_range(2..8usize);
        let lb: Vec<f64> = (0..ncols)
            .map(|_| f64::from(rng.gen_range(-3i32..=0)))
            .collect();
        let ub: Vec<f64> = lb
            .iter()
            .map(|&l| l + f64::from(rng.gen_range(1i32..=4)))
            .collect();
        let x0 = random_point(rng, &lb, &ub);
        let rows = (0..rng.gen_range(1..6usize))
            .map(|_| random_row(rng, ncols, &x0))
            .collect();
        let c = (0..ncols)
            .map(|_| f64::from(rng.gen_range(-5i32..=5)))
            .collect();
        Owned {
            ncols,
            rows,
            c,
            lb,
            ub,
        }
    }

    /// Seeded property test of the warm tiers. On random bounded LPs it
    /// solves cold and takes a snapshot, then
    /// (a) tightens one to three bounds to integers inside the box, as
    ///     branching does, and re-solves both hot in the same workspace and
    ///     by reloading the snapshot into a fresh one;
    /// (b) appends one to three random rows and re-solves from the
    ///     snapshot, which now has fewer rows than the problem: the
    ///     slack-extension load that every cut round and every seed over
    ///     fewer rows takes.
    ///
    /// Every outcome and objective must equal the dense oracle's cold solve.
    #[test]
    fn warm_tiers_match_dense_oracle() {
        const CASES: usize = 400;
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut warm = [0usize; 3];
        let mut infeasible = [0usize; 2];
        for case in 0..CASES {
            let base = random_bounded_lp(&mut rng);
            let mut ws = Workspace::new();
            let (out, _) = ws.solve(&base.as_problem(), None, &c);
            expect_opt(&out);
            let snap = ws.snapshot();

            // (a) Tightened bounds over the same row set, so the workspace
            // that took the snapshot may re-seed in place.
            let (mut lb, mut ub) = (base.lb.clone(), base.ub.clone());
            for _ in 0..rng.gen_range(1..=3usize) {
                let j = rng.gen_range(0..base.ncols);
                let v = f64::from(rng.gen_range(lb[j] as i32..=ub[j] as i32));
                if rng.gen_bool(0.5) {
                    lb[j] = v;
                } else {
                    ub[j] = v;
                }
            }
            let tight = LpProblem {
                lb: &lb,
                ub: &ub,
                ..base.as_problem()
            };
            let want = solve_lp_kernel(&tight, 1e-7, 1e-9, None, false);
            infeasible[0] += usize::from(matches!(want, LpOutcome::Infeasible));
            let (hot, info) = ws.solve(&tight, Some(&snap), &c);
            assert_agrees(&want, &hot, &format!("case {case} hot"));
            warm[0] += usize::from(info.warm);
            let (reloaded, info) = Workspace::new().solve(&tight, Some(&snap), &c);
            assert_agrees(&want, &reloaded, &format!("case {case} reloaded"));
            warm[1] += usize::from(info.warm);

            // (b) Appended rows, through a point of the box that need not
            // satisfy the original rows.
            let mut grown = base.clone();
            let x1 = random_point(&mut rng, &grown.lb, &grown.ub);
            for _ in 0..rng.gen_range(1..=3usize) {
                let row = random_row(&mut rng, grown.ncols, &x1);
                grown.rows.push(row);
            }
            let want = solve_lp_kernel(&grown.as_problem(), 1e-7, 1e-9, None, false);
            infeasible[1] += usize::from(matches!(want, LpOutcome::Infeasible));
            let (extended, info) = Workspace::new().solve(&grown.as_problem(), Some(&snap), &c);
            assert_agrees(&want, &extended, &format!("case {case} extended"));
            warm[2] += usize::from(info.warm);
        }
        // A fallback is legitimate now and then, but a tier that rarely
        // engages tests little, and both verdicts must be exercised.
        for (tier, count) in ["hot", "reloaded", "extended"].iter().zip(warm) {
            assert!(
                count * 10 > CASES * 9,
                "{tier}: only {count} of {CASES} solves stayed warm"
            );
        }
        assert!(
            infeasible.iter().all(|&n| n > 0 && n < CASES),
            "infeasible verdicts (tightened, extended): {infeasible:?}"
        );
    }
}

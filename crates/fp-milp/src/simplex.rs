//! Two-phase, bounded-variable primal simplex on a dense tableau, plus a
//! bounded-variable **dual simplex** used to warm-start branch-and-bound
//! nodes from their parent's optimal basis.
//!
//! This is the LP engine underneath branch-and-bound. It handles general
//! variable bounds (including free and fixed variables) without expanding
//! them into rows, which matters because every 0-1 variable of the
//! floorplanning MILP would otherwise add a row.
//!
//! Method: all rows are converted to equalities with one slack column each
//! (`<=` gets a slack in `[0, ∞)`, `>=` in `(-∞, 0]`, `==` in `[0, 0]`).
//! Phase 1 adds one artificial column per row, signed so the artificial
//! starts basic and non-negative, and minimizes the sum of artificials.
//! Phase 2 fixes the artificials to zero and optimizes the true objective.
//! Dantzig pricing with a permanent switch to Bland's rule after a stall
//! threshold guards against cycling.
//!
//! Warm starts: a branch-and-bound child differs from its parent by one
//! tightened 0-1 bound, so the parent's optimal basis is still dual
//! feasible (reduced-cost signs are untouched by bound changes) while at
//! most one basic variable is primal infeasible. [`Workspace`] keeps the
//! tableau allocations alive across node solves and can be re-seeded from
//! a [`BasisSnapshot`]; the dual simplex then restores primal feasibility
//! in a handful of pivots instead of re-running phase 1 from scratch. Any
//! numerical trouble (singular refactorization, dual pivot cap, a
//! feasibility re-check failure against the original rows) falls back to
//! the cold two-phase primal, so warm starts can only ever change speed,
//! never answers.

use crate::model::Cmp;
use crate::sparse::SparseKernel;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// One sparse constraint row: `(terms, comparison, rhs)`.
pub(crate) type SparseRow = (Vec<(usize, f64)>, Cmp, f64);

/// How often (in simplex iterations) the cooperative deadline is polled.
/// `Instant::now()` costs tens of nanoseconds while even a small pivot is
/// microseconds of dense row arithmetic, so polling every 16 iterations is
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
    /// (`0` = auto: `2·m + 100`).
    pub warm_pivot_cap: usize,
    /// Solve on the sparse revised kernel (LU basis + eta file) instead of
    /// the dense tableau. Both kernels implement identical pivot rules.
    pub sparse: bool,
    /// Eta updates tolerated between basis refactorizations on the sparse
    /// kernel (`0` = auto).
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
    /// Basis LU (re)factorizations performed on this node (sparse kernel;
    /// the dense tableau reports `0`).
    pub refactors: usize,
    /// Eta-file updates appended between refactorizations on this node
    /// (sparse kernel; the dense tableau reports `0`).
    pub etas: usize,
}

/// A saved basis: which column is basic in each row plus the resting
/// status of every column, as captured at a node's optimum. Shared to both
/// children through an [`Arc`] so the frontier never clones tableaux.
#[derive(Debug)]
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

struct Tableau {
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

pub(crate) const PIVOT_TOL: f64 = 1e-9;
/// Minimum acceptable pivot magnitude when re-eliminating a snapshot basis;
/// anything smaller means the saved basis is (numerically) singular for the
/// child and the warm attempt is abandoned.
pub(crate) const REFACTOR_TOL: f64 = 1e-8;

pub(crate) enum StepOutcome {
    Optimal,
    Unbounded,
    Pivoted,
}

/// Why a call to [`Tableau::optimize`] stopped iterating.
pub(crate) enum OptimizeEnd {
    Done(StepOutcome),
    IterationCap,
    TimedOut,
}

/// Why a call to [`Tableau::dual_optimize`] stopped iterating.
pub(crate) enum DualEnd {
    /// All basic variables are back inside their bounds.
    Feasible,
    /// A violated row has no eligible entering column — an infeasibility
    /// claim. The caller either certifies it from the stuck row
    /// ([`Tableau::certify_infeasible`]) or confirms it with a cold solve;
    /// the raw claim is never trusted on its own.
    NoEntering {
        /// The violated row the ratio test got stuck on.
        row: usize,
    },
    /// Dual pivot budget exhausted (stall / cycling guard).
    Cap,
    TimedOut,
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
                None => limit < t_best - PIVOT_TOL || (t_best.is_infinite() && limit.is_finite()),
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

    /// Bounded-variable dual simplex: starting from a dual-feasible basis
    /// whose `xb` violates some bounds (the warm-start state after a
    /// branching bound change), drives every basic variable back inside
    /// its bounds while keeping the reduced-cost signs valid.
    ///
    /// Leaving row: the largest relative bound violation. Entering column:
    /// minimum dual ratio `d_j / α_j` where `α_j = σ·T[r][j]` and `σ` is
    /// `+1` above the upper bound, `-1` below the lower; ties break on
    /// larger `|α|` for stability. The step moves the entering variable by
    /// exactly enough to land the leaving one on its violated bound; the
    /// entering variable is allowed to overshoot its own opposite bound
    /// (that just becomes the next iteration's violation).
    fn dual_optimize(
        &mut self,
        feas_tol: f64,
        max_pivots: usize,
        deadline: Option<Instant>,
    ) -> DualEnd {
        let start = self.iterations;
        loop {
            if self.iterations - start >= max_pivots {
                return DualEnd::Cap;
            }
            if self.iterations & DEADLINE_POLL_MASK == 0 {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return DualEnd::TimedOut;
                    }
                }
            }

            // --- leaving row: worst bound violation --------------------
            let mut leave: Option<(usize, f64, f64)> = None; // (row, target, viol)
            for i in 0..self.m {
                let bi = self.basis[i];
                let (target, viol) = if self.xb[i] > self.ub[bi] {
                    (
                        self.ub[bi],
                        (self.xb[i] - self.ub[bi]) / (1.0 + self.ub[bi].abs()),
                    )
                } else if self.xb[i] < self.lb[bi] {
                    (
                        self.lb[bi],
                        (self.lb[bi] - self.xb[i]) / (1.0 + self.lb[bi].abs()),
                    )
                } else {
                    continue;
                };
                if viol > feas_tol && leave.is_none_or(|(_, _, v)| viol > v) {
                    leave = Some((i, target, viol));
                }
            }
            let Some((r, target, _)) = leave else {
                return DualEnd::Feasible;
            };
            let sigma = if self.xb[r] > target { 1.0 } else { -1.0 };

            // --- entering column: min dual ratio -----------------------
            let mut enter: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
            for j in 0..self.n {
                let alpha = sigma * self.at(r, j);
                let eligible = match self.status[j] {
                    ColStatus::Basic(_) => false,
                    ColStatus::AtLower => alpha > PIVOT_TOL,
                    ColStatus::AtUpper => alpha < -PIVOT_TOL,
                    ColStatus::FreeAtZero => alpha.abs() > PIVOT_TOL,
                };
                if !eligible {
                    continue;
                }
                // Both eligible cases give d_j/α_j >= 0 in exact arithmetic;
                // clamp so a slightly wrong-signed d cannot produce a
                // negative ratio that derails the min search.
                let ratio = (self.d[j] / alpha).max(0.0);
                let better = match enter {
                    None => true,
                    Some((_, best, besta)) => {
                        ratio < best - PIVOT_TOL
                            || (ratio < best + PIVOT_TOL && alpha.abs() > besta)
                    }
                };
                if better {
                    enter = Some((j, ratio, alpha.abs()));
                }
            }
            let Some((q, _, _)) = enter else {
                return DualEnd::NoEntering { row: r };
            };

            // --- pivot: land xb[r] exactly on its violated bound -------
            self.iterations += 1;
            let step = (self.xb[r] - target) / self.at(r, q);
            let entering_value = self.nonbasic_value(q) + step;
            for i in 0..self.m {
                if i != r {
                    self.xb[i] -= step * self.at(i, q);
                }
            }
            let old = self.basis[r];
            self.status[old] = if sigma > 0.0 {
                ColStatus::AtUpper
            } else {
                ColStatus::AtLower
            };
            self.pivot(r, q);
            self.basis[r] = q;
            self.status[q] = ColStatus::Basic(r);
            self.xb[r] = entering_value;
        }
    }

    /// One-row infeasibility certificate for the state the dual ratio test
    /// got stuck in: row `r`'s basic variable sits outside its bounds and
    /// no eligible entering column exists, so the row equation
    /// `xb[r] = resid_r − Σ T[r][j]·x_j` bounds how far `xb[r]` can move
    /// over the whole nonbasic box. When even the extreme of that range
    /// stays outside the violated bound by more than the margin, the LP is
    /// infeasible regardless of further pivoting — no cold confirmation
    /// needed.
    ///
    /// Columns with an unbounded range are only treated as immovable when
    /// their row coefficient is below [`PIVOT_TOL`]: a sub-tolerance pivot
    /// element is rejected by every pivoting rule in this module, so
    /// "numerically zero" here matches what a cold solve could exploit.
    fn certify_infeasible(&self, r: usize, feas_tol: f64) -> bool {
        let bi = self.basis[r];
        let (sigma, bound) = if self.xb[r] > self.ub[bi] {
            (1.0, self.ub[bi])
        } else if self.xb[r] < self.lb[bi] {
            (-1.0, self.lb[bi])
        } else {
            return false;
        };
        // Total movement of `xb[r]` toward the violated bound achievable
        // by sweeping every nonbasic column across its box.
        let mut slack = 0.0f64;
        for j in 0..self.n {
            // Helpful coefficient: positive means moving `x_j` off its
            // resting value (up from a lower bound, down from an upper)
            // pushes `xb[r]` toward `bound`.
            let helpful = match self.status[j] {
                ColStatus::Basic(_) => continue,
                ColStatus::AtLower => sigma * self.at(r, j),
                ColStatus::AtUpper => -sigma * self.at(r, j),
                ColStatus::FreeAtZero => self.at(r, j).abs(),
            };
            if helpful <= 0.0 {
                continue;
            }
            let width = match self.status[j] {
                ColStatus::FreeAtZero => f64::INFINITY,
                _ => self.ub[j] - self.lb[j],
            };
            if width.is_finite() {
                slack += helpful * width;
            } else if helpful > PIVOT_TOL {
                return false; // genuinely usable unbounded column
            }
        }
        let margin = feas_tol.max(1e-7) * (1.0 + bound.abs());
        (self.xb[r] - bound).abs() > slack + margin
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
}

/// Reusable per-solve LP state: owns the tableau / reduced-cost / basis
/// allocations so branch-and-bound nodes don't churn fresh `Vec`s, and
/// remembers which [`BasisSnapshot`] its tableau currently realizes so a
/// child popped right after its parent (the dive) skips even the
/// refactorization.
pub(crate) struct Workspace {
    tab: Tableau,
    /// The sparse revised kernel, engaged when [`LpConfig::sparse`] is set.
    /// Both kernels stay allocated; a workspace can switch per solve.
    pub(crate) sp: SparseKernel,
    /// Which kernel produced the current state — governs which one
    /// [`Workspace::snapshot`] reads and gates the hot path (a hot re-seed
    /// is only valid on the kernel that actually realizes the snapshot).
    last_sparse: bool,
    /// Whether the sparse kernel's in-place state realizes an optimal basis
    /// for its cached row set. When it does, a sibling or backtracked node
    /// over the same rows can warm-start by applying bound deltas directly
    /// — no snapshot reload, no refactorization — even though the basis is
    /// not the parent's.
    sp_optimal: bool,
    n_struct: usize,
    /// Phase-2 cost buffer (structural costs then zeros), reused per solve.
    cost: Vec<f64>,
    /// Scratch `B⁻¹·b` column carried through refactorization.
    resid: Vec<f64>,
    row_used: Vec<bool>,
    /// Snapshot the current tableau state was captured as, if any.
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
            tab: Tableau {
                m: 0,
                n: 0,
                t: Vec::new(),
                d: Vec::new(),
                xb: Vec::new(),
                basis: Vec::new(),
                status: Vec::new(),
                lb: Vec::new(),
                ub: Vec::new(),
                opt_tol: 1e-9,
                iterations: 0,
                bland: false,
            },
            sp: SparseKernel::new(),
            last_sparse: false,
            sp_optimal: false,
            n_struct: 0,
            cost: Vec::new(),
            resid: Vec::new(),
            row_used: Vec::new(),
            loaded: None,
        }
    }

    /// Captures the current basis so children of this node can warm-start.
    /// Only meaningful right after a solve that returned `Optimal`. The
    /// snapshot format is kernel-agnostic (basis columns + resting
    /// statuses), so a basis saved by one kernel warm-starts the other.
    pub(crate) fn snapshot(&mut self) -> Arc<BasisSnapshot> {
        let snap = if self.last_sparse {
            Arc::new(BasisSnapshot {
                m: self.sp.m,
                n_struct: self.sp.n_struct,
                basis: self.sp.basis.clone(),
                status: self.sp.status.clone(),
            })
        } else {
            Arc::new(BasisSnapshot {
                m: self.tab.m,
                n_struct: self.n_struct,
                basis: self.tab.basis.clone(),
                status: self.tab.status.clone(),
            })
        };
        self.loaded = Some(Arc::downgrade(&snap));
        snap
    }

    /// Solves the LP on the kernel selected by [`LpConfig::sparse`],
    /// warm-starting from `basis` when given and falling back to the cold
    /// two-phase primal on any numerical doubt.
    pub(crate) fn solve(
        &mut self,
        p: &LpProblem<'_>,
        basis: Option<&Arc<BasisSnapshot>>,
        cfg: &LpConfig,
    ) -> (LpOutcome, LpInfo) {
        let loaded = self.loaded.take();
        if cfg.sparse {
            return self.solve_sparse(p, basis, cfg, loaded);
        }
        self.tab.opt_tol = cfg.opt_tol;
        let mut wasted = 0;
        if let Some(snap) = basis {
            if snap.m == p.rows.len() && snap.n_struct == p.ncols {
                let hot = !self.last_sparse
                    && loaded
                        .as_ref()
                        .and_then(Weak::upgrade)
                        .is_some_and(|cur| Arc::ptr_eq(&cur, snap));
                match self.attempt_warm(p, snap, cfg, hot) {
                    WarmAttempt::Done(out) => {
                        self.last_sparse = false;
                        let pivots = self.tab.iterations;
                        return (
                            out,
                            LpInfo {
                                warm: true,
                                pivots,
                                refactors: 0,
                                etas: 0,
                            },
                        );
                    }
                    WarmAttempt::Fallback(pivots) => wasted = pivots,
                }
            }
        }
        let out = self.solve_cold(p, cfg);
        self.last_sparse = false;
        let pivots = self.tab.iterations + wasted;
        (
            out,
            LpInfo {
                warm: false,
                pivots,
                refactors: 0,
                etas: 0,
            },
        )
    }

    /// The sparse-kernel twin of the dispatch above: same warm/cold tiers,
    /// with pivots *and* factorization work spent on an abandoned warm
    /// attempt still charged to this node's counters. The hot tier is wider
    /// than the dense kernel's: the revised method can re-seed from *any*
    /// optimal in-place state over the same row set by applying bound
    /// deltas (the dual simplex repairs from whatever basis is current), so
    /// backtracking to a sibling costs no snapshot reload and no
    /// refactorization. The parent-snapshot reload is the middle tier.
    fn solve_sparse(
        &mut self,
        p: &LpProblem<'_>,
        basis: Option<&Arc<BasisSnapshot>>,
        cfg: &LpConfig,
        loaded: Option<Weak<BasisSnapshot>>,
    ) -> (LpOutcome, LpInfo) {
        self.sp.opt_tol = cfg.opt_tol;
        self.sp.refactor_interval = cfg.refactor_interval;
        let mut wasted = (0, 0, 0);
        if let Some(snap) = basis {
            // `snap.m < rows` is the cut-round case: the snapshot predates
            // appended rows, and the warm load extends it with their slacks.
            if snap.m <= p.rows.len() && snap.n_struct == p.ncols {
                let parent_state = loaded
                    .as_ref()
                    .and_then(Weak::upgrade)
                    .is_some_and(|cur| Arc::ptr_eq(&cur, snap));
                for hot in [true, false] {
                    if hot
                        && !(self.last_sparse
                            && self.sp_optimal
                            && parent_state
                            && self.sp.matches_problem(p))
                    {
                        continue;
                    }
                    match self.attempt_warm_sparse(p, snap, cfg, hot) {
                        WarmAttempt::Done(out) => {
                            self.last_sparse = true;
                            self.sp_optimal = matches!(out, LpOutcome::Optimal { .. });
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
        self.last_sparse = true;
        self.sp_optimal = matches!(out, LpOutcome::Optimal { .. });
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

    /// One warm attempt on the sparse kernel, mirroring [`Self::attempt_warm`]
    /// tier for tier. There is no reprice step: the revised method derives
    /// reduced costs from `Bᵀ·y = c_B` fresh every iteration, so loading
    /// the phase-2 cost vector is the entire re-seed.
    fn attempt_warm_sparse(
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
        let dual_end = self.sp.dual_optimize(cfg.feas_tol, cap, cfg.deadline);
        match dual_end {
            DualEnd::TimedOut => return WarmAttempt::Done(LpOutcome::TimedOut),
            // Same trust policy as the dense kernel: an infeasibility claim
            // is only accepted with a one-row interval certificate; anything
            // weaker is confirmed by the cold fallback.
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
        let end = self.sp.optimize(max_iters, cfg.deadline);
        match end {
            OptimizeEnd::TimedOut => WarmAttempt::Done(LpOutcome::TimedOut),
            OptimizeEnd::IterationCap | OptimizeEnd::Done(StepOutcome::Unbounded) => {
                WarmAttempt::Fallback(self.sp.iterations)
            }
            OptimizeEnd::Done(_) => {
                let (x, obj) = self.sp.extract(p.c);
                let ok = verify_primal(p, &x, cfg.feas_tol);
                if ok {
                    WarmAttempt::Done(LpOutcome::Optimal { x, obj })
                } else {
                    WarmAttempt::Fallback(self.sp.iterations)
                }
            }
        }
    }

    /// One warm attempt: seed the tableau (in place if `hot`, else by
    /// refactorizing the snapshot basis against the child's rows), restore
    /// primal feasibility with the dual simplex, polish with the primal,
    /// and re-check the claimed optimum against the original rows.
    fn attempt_warm(
        &mut self,
        p: &LpProblem<'_>,
        snap: &BasisSnapshot,
        cfg: &LpConfig,
        hot: bool,
    ) -> WarmAttempt {
        let seeded = if hot {
            self.apply_bound_deltas(p)
        } else {
            self.refactorize(p, snap)
        };
        if !seeded {
            return WarmAttempt::Fallback(self.tab.iterations);
        }

        // Reprice from scratch every attempt: O(m·n), about one pivot, and
        // it stops reduced-cost drift accumulating across a warm dive chain.
        self.cost.clear();
        self.cost.resize(self.tab.n, 0.0);
        self.cost[..self.n_struct].copy_from_slice(p.c);
        let cost = std::mem::take(&mut self.cost);
        self.tab.reprice(&cost);
        self.cost = cost;

        let m = self.tab.m;
        let cap = if cfg.warm_pivot_cap > 0 {
            cfg.warm_pivot_cap
        } else {
            2 * m + 100
        };
        match self.tab.dual_optimize(cfg.feas_tol, cap, cfg.deadline) {
            DualEnd::TimedOut => return WarmAttempt::Done(LpOutcome::TimedOut),
            // An infeasibility claim from the dual ratio test is only as
            // good as the refactorized tableau. The stuck row itself often
            // carries an interval certificate (branched children with an
            // empty feasible box); anything it cannot certify is confirmed
            // cold so a noisy warm start can never prune a feasible subtree.
            DualEnd::NoEntering { row } => {
                if self.tab.certify_infeasible(row, cfg.feas_tol) {
                    return WarmAttempt::Done(LpOutcome::Infeasible);
                }
                return WarmAttempt::Fallback(self.tab.iterations);
            }
            DualEnd::Cap => return WarmAttempt::Fallback(self.tab.iterations),
            DualEnd::Feasible => {}
        }

        let max_iters = 60 * (m + self.tab.n) + 5_000;
        self.tab.bland = false;
        match self.tab.optimize(max_iters, cfg.deadline) {
            OptimizeEnd::TimedOut => WarmAttempt::Done(LpOutcome::TimedOut),
            // A warm "unbounded" on the child of a bounded parent is far
            // more likely numerical drift than truth; let cold decide.
            OptimizeEnd::IterationCap | OptimizeEnd::Done(StepOutcome::Unbounded) => {
                WarmAttempt::Fallback(self.tab.iterations)
            }
            OptimizeEnd::Done(_) => match self.extract_checked(p, cfg.feas_tol) {
                Some((x, obj)) => WarmAttempt::Done(LpOutcome::Optimal { x, obj }),
                None => WarmAttempt::Fallback(self.tab.iterations),
            },
        }
    }

    /// Hot path: the tableau already realizes `snap` for the parent's
    /// bounds, so only the bound deltas need applying — basic columns just
    /// update their box, nonbasic columns shift `xb` by
    /// `Δ(resting value) · T[·][j]`. No refactorization, no phase 1.
    fn apply_bound_deltas(&mut self, p: &LpProblem<'_>) -> bool {
        self.tab.iterations = 0;
        self.tab.bland = false;
        for j in 0..p.ncols {
            let (nl, nu) = (p.lb[j], p.ub[j]);
            if nl == self.tab.lb[j] && nu == self.tab.ub[j] {
                continue;
            }
            match self.tab.status[j] {
                ColStatus::Basic(_) => {
                    self.tab.lb[j] = nl;
                    self.tab.ub[j] = nu;
                }
                st => {
                    let old_v = match st {
                        ColStatus::AtLower => self.tab.lb[j],
                        ColStatus::AtUpper => self.tab.ub[j],
                        _ => 0.0,
                    };
                    let new_st = match st {
                        ColStatus::AtLower if nl.is_finite() => ColStatus::AtLower,
                        ColStatus::AtUpper if nu.is_finite() => ColStatus::AtUpper,
                        ColStatus::FreeAtZero if nl == f64::NEG_INFINITY && nu == f64::INFINITY => {
                            ColStatus::FreeAtZero
                        }
                        _ => default_status(nl, nu),
                    };
                    let new_v = match new_st {
                        ColStatus::AtLower => nl,
                        ColStatus::AtUpper => nu,
                        _ => 0.0,
                    };
                    let delta = new_v - old_v;
                    if !delta.is_finite() {
                        return false; // resting on an infinite bound: refuse
                    }
                    if delta != 0.0 {
                        let n = self.tab.n;
                        for i in 0..self.tab.m {
                            self.tab.xb[i] -= delta * self.tab.t[i * n + j];
                        }
                    }
                    self.tab.lb[j] = nl;
                    self.tab.ub[j] = nu;
                    self.tab.status[j] = new_st;
                }
            }
        }
        true
    }

    /// Warm path for a snapshot taken on a *different* tableau state:
    /// rebuild the raw rows, then Gauss-Jordan the snapshot's basis
    /// columns to the identity (free row pivoting on the largest available
    /// pivot), carrying the rhs along so `xb = B⁻¹b − B⁻¹N·x_N` drops out.
    /// Returns `false` when the basis is singular for these rows.
    fn refactorize(&mut self, p: &LpProblem<'_>, snap: &BasisSnapshot) -> bool {
        let m = p.rows.len();
        let n_struct = p.ncols;
        let n = n_struct + 2 * m;
        self.n_struct = n_struct;
        let tab = &mut self.tab;
        tab.m = m;
        tab.n = n;
        tab.iterations = 0;
        tab.bland = false;

        tab.t.clear();
        tab.t.resize(m * n, 0.0);
        tab.d.clear();
        tab.d.resize(n, 0.0);
        tab.lb.clear();
        tab.ub.clear();
        tab.lb.extend_from_slice(p.lb);
        tab.ub.extend_from_slice(p.ub);
        for (_, cmp, _) in p.rows {
            match cmp {
                Cmp::Le => {
                    tab.lb.push(0.0);
                    tab.ub.push(f64::INFINITY);
                }
                Cmp::Ge => {
                    tab.lb.push(f64::NEG_INFINITY);
                    tab.ub.push(0.0);
                }
                Cmp::Eq => {
                    tab.lb.push(0.0);
                    tab.ub.push(0.0);
                }
            }
        }
        // Artificials stay fixed at zero; they only exist so a snapshot in
        // which a redundant row kept its artificial basic stays a basis.
        // Phase-1 sign folds are irrelevant here (row scaling by ±1 never
        // changes which column sets are bases), so plain +1 units do.
        tab.lb.resize(n, 0.0);
        tab.ub.resize(n, 0.0);

        self.resid.clear();
        for (i, (terms, _, rhs)) in p.rows.iter().enumerate() {
            for &(j, a) in terms {
                tab.t[i * n + j] = a;
            }
            tab.t[i * n + n_struct + i] = 1.0; // slack
            tab.t[i * n + n_struct + m + i] = 1.0; // artificial
            self.resid.push(*rhs);
        }

        // Resting statuses from the snapshot, sanitized against the
        // child's bounds (a status is only kept if its bound is finite).
        tab.status.clear();
        for (j, st) in snap.status.iter().enumerate() {
            tab.status.push(match st {
                ColStatus::Basic(_) => ColStatus::AtLower, // overwritten below
                ColStatus::AtLower if tab.lb[j].is_finite() => ColStatus::AtLower,
                ColStatus::AtUpper if tab.ub[j].is_finite() => ColStatus::AtUpper,
                ColStatus::FreeAtZero
                    if tab.lb[j] == f64::NEG_INFINITY && tab.ub[j] == f64::INFINITY =>
                {
                    ColStatus::FreeAtZero
                }
                _ => default_status(tab.lb[j], tab.ub[j]),
            });
        }

        // Gauss-Jordan: make each snapshot basis column a unit vector,
        // picking the not-yet-used row with the largest pivot magnitude.
        self.row_used.clear();
        self.row_used.resize(m, false);
        tab.basis.clear();
        tab.basis.resize(m, usize::MAX);
        for &col in &snap.basis {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..m {
                if self.row_used[i] {
                    continue;
                }
                let a = tab.t[i * n + col].abs();
                if best.is_none_or(|(_, b)| a > b) {
                    best = Some((i, a));
                }
            }
            let Some((r, mag)) = best else { return false };
            if mag <= REFACTOR_TOL {
                return false; // singular for the child's rows
            }
            let inv = 1.0 / tab.t[r * n + col];
            for j in 0..n {
                tab.t[r * n + j] *= inv;
            }
            tab.t[r * n + col] = 1.0; // exact
            self.resid[r] *= inv;
            for i in 0..m {
                if i == r {
                    continue;
                }
                let factor = tab.t[i * n + col];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    tab.t[i * n + j] -= factor * tab.t[r * n + j];
                }
                tab.t[i * n + col] = 0.0; // exact
                self.resid[i] -= factor * self.resid[r];
            }
            self.row_used[r] = true;
            tab.basis[r] = col;
            tab.status[col] = ColStatus::Basic(r);
        }

        // xb = B⁻¹b − Σ_{nonbasic j with nonzero resting value} T[·][j]·x_j.
        tab.xb.clear();
        tab.xb.extend_from_slice(&self.resid);
        for j in 0..n {
            if matches!(tab.status[j], ColStatus::Basic(_)) {
                continue;
            }
            let v = tab.nonbasic_value(j);
            if v == 0.0 {
                continue;
            }
            for i in 0..m {
                tab.xb[i] -= v * tab.t[i * n + j];
            }
        }
        true
    }

    /// Reads the structural solution off the tableau and re-checks it
    /// against the *original* bounds and rows — the warm path's defense
    /// against accumulated elimination error. `None` means "don't trust
    /// this tableau", which sends the caller to the cold path.
    fn extract_checked(&self, p: &LpProblem<'_>, feas_tol: f64) -> Option<(Vec<f64>, f64)> {
        let mut x = vec![0.0; p.ncols];
        for (j, xv) in x.iter_mut().enumerate() {
            *xv = self.tab.nonbasic_value(j);
        }
        if !verify_primal(p, &x, feas_tol) {
            return None;
        }
        let obj = p.c.iter().zip(&x).map(|(c, v)| c * v).sum();
        Some((x, obj))
    }

    /// The cold two-phase primal, building into this workspace's buffers.
    fn solve_cold(&mut self, p: &LpProblem<'_>, cfg: &LpConfig) -> LpOutcome {
        let m = p.rows.len();
        let n_struct = p.ncols;
        let n_slack = m;
        let n = n_struct + n_slack + m; // + artificials
        self.n_struct = n_struct;

        let tab = &mut self.tab;
        tab.m = m;
        tab.n = n;
        tab.iterations = 0;
        tab.bland = false;

        // Dense tableau of the original system (B = signed identity on
        // artificials initially, folded in below).
        tab.t.clear();
        tab.t.resize(m * n, 0.0);
        tab.lb.clear();
        tab.ub.clear();
        tab.lb.extend_from_slice(p.lb);
        tab.ub.extend_from_slice(p.ub);
        for (_, cmp, _) in p.rows {
            match cmp {
                Cmp::Le => {
                    tab.lb.push(0.0);
                    tab.ub.push(f64::INFINITY);
                }
                Cmp::Ge => {
                    tab.lb.push(f64::NEG_INFINITY);
                    tab.ub.push(0.0);
                }
                Cmp::Eq => {
                    tab.lb.push(0.0);
                    tab.ub.push(0.0);
                }
            }
        }
        tab.lb.resize(n, 0.0);
        tab.ub.resize(n, f64::INFINITY);

        tab.status.clear();
        for j in 0..n_struct + n_slack {
            tab.status.push(default_status(tab.lb[j], tab.ub[j]));
        }
        tab.status.resize(n, ColStatus::AtLower);

        // Row data and initial residuals r_i = b_i - A_i · x_N.
        tab.basis.clear();
        tab.xb.clear();
        for (i, (terms, _, rhs)) in p.rows.iter().enumerate() {
            let mut residual = *rhs;
            for &(j, a) in terms {
                tab.t[i * n + j] = a;
                let xj = match tab.status[j] {
                    ColStatus::AtLower => tab.lb[j],
                    ColStatus::AtUpper => tab.ub[j],
                    _ => 0.0,
                };
                residual -= a * xj;
            }
            // slack column
            let sj = n_struct + i;
            tab.t[i * n + sj] = 1.0;
            let s_val = match tab.status[sj] {
                ColStatus::AtLower => tab.lb[sj],
                ColStatus::AtUpper => tab.ub[sj],
                _ => 0.0,
            };
            residual -= s_val;
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
        self.cost.clear();
        self.cost.resize(n, 0.0);
        self.cost[n_struct + n_slack..n].fill(1.0);
        let c1 = std::mem::take(&mut self.cost);
        tab.d.clear();
        tab.d.resize(n, 0.0);
        tab.reprice(&c1);
        self.cost = c1;
        match tab.optimize(max_iters, cfg.deadline) {
            OptimizeEnd::IterationCap => return LpOutcome::IterationLimit,
            OptimizeEnd::TimedOut => return LpOutcome::TimedOut,
            OptimizeEnd::Done(StepOutcome::Unbounded) => {
                // Phase-1 objective is bounded below by 0; unboundedness here
                // is numerical nonsense worth flagging loudly in debug builds.
                debug_assert!(false, "phase 1 reported unbounded");
                return LpOutcome::IterationLimit;
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
        self.cost.clear();
        self.cost.resize(n, 0.0);
        self.cost[..n_struct].copy_from_slice(p.c);
        let c2 = std::mem::take(&mut self.cost);
        tab.reprice(&c2);
        self.cost = c2;
        tab.bland = false;
        match tab.optimize(max_iters, cfg.deadline) {
            OptimizeEnd::IterationCap => LpOutcome::IterationLimit,
            OptimizeEnd::TimedOut => LpOutcome::TimedOut,
            OptimizeEnd::Done(StepOutcome::Unbounded) => LpOutcome::Unbounded,
            OptimizeEnd::Done(_) => {
                let mut x = vec![0.0; n_struct];
                for (j, xv) in x.iter_mut().enumerate() {
                    *xv = tab.nonbasic_value(j);
                }
                let obj = p.c.iter().zip(&x).map(|(c, v)| c * v).sum();
                LpOutcome::Optimal { x, obj }
            }
        }
    }
}

/// Re-checks a candidate structural solution against the *original* bounds
/// and rows, shared by both kernels' warm-path extraction. A `false` means
/// "don't trust this basis representation" and sends the caller cold.
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

/// Cold one-shot solve on a chosen kernel, kept as a test entry point.
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
        sparse,
        refactor_interval: 0,
    };
    Workspace::new().solve(p, None, &cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned problem data for tests; `LpProblem` itself borrows.
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

    fn cfg_kernel(sparse: bool) -> LpConfig {
        LpConfig {
            feas_tol: 1e-7,
            opt_tol: 1e-9,
            deadline: None,
            warm_pivot_cap: 0,
            sparse,
            refactor_interval: 0,
        }
    }

    fn cfg() -> LpConfig {
        cfg_kernel(true)
    }

    /// Differential solve: every in-module case runs on both kernels and
    /// must agree on the outcome variant (and objective, when optimal)
    /// before the sparse result is handed to the assertion.
    fn solve(p: &Owned) -> LpOutcome {
        let dense = solve_lp_kernel(&p.as_problem(), 1e-7, 1e-9, None, false);
        let sparse = solve_lp_kernel(&p.as_problem(), 1e-7, 1e-9, None, true);
        match (&dense, &sparse) {
            (LpOutcome::Optimal { obj: a, .. }, LpOutcome::Optimal { obj: b, .. }) => {
                assert!(
                    (a - b).abs() <= 1e-7 * (1.0 + a.abs()),
                    "dense obj {a} vs sparse obj {b}"
                );
            }
            (d, s) => assert_eq!(
                std::mem::discriminant(d),
                std::mem::discriminant(s),
                "dense {d:?} vs sparse {s:?}"
            ),
        }
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
        for c in [cfg_kernel(false), cfg_kernel(true)] {
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
    }

    #[test]
    fn refactorized_warm_start_from_foreign_workspace() {
        for c in [cfg_kernel(false), cfg_kernel(true)] {
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
    }

    #[test]
    fn snapshot_crosses_kernels_both_ways() {
        // A basis captured on one kernel must warm-start the other: the
        // snapshot format is kernel-agnostic, and a cross-solve basis store
        // is free to hand a sparse-made snapshot to the dense kernel (or
        // vice versa).
        for (first, second) in [(false, true), (true, false)] {
            let mut p = branchy();
            let mut ws = Workspace::new();
            let (out, _) = ws.solve(&p.as_problem(), None, &cfg_kernel(first));
            expect_opt(&out);
            let snap = ws.snapshot();

            p.ub[1] = 0.0;
            let (warm_out, info) = ws.solve(&p.as_problem(), Some(&snap), &cfg_kernel(second));
            let (_, wobj) = expect_opt(&warm_out);
            let (_, cobj) = optimal(&p);
            assert!(
                (wobj - cobj).abs() <= 1e-9 * (1.0 + cobj.abs()),
                "cross-kernel warm {wobj} vs cold {cobj}"
            );
            // The hot path must NOT fire across kernels; warm (refactorize)
            // or cold fallback are both acceptable, wrong answers are not.
            let _ = info;
        }
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
        for c in [cfg_kernel(false), cfg_kernel(true)] {
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
    }

    #[test]
    fn tiny_pivot_cap_forces_cold_fallback() {
        for mut c in [cfg_kernel(false), cfg_kernel(true)] {
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
    }

    #[test]
    fn warm_infeasible_child_is_certified_or_cold_confirmed() {
        // Tighten bounds until the >= 1 row is unsatisfiable. Both valid
        // endings: the stuck dual row certifies infeasibility warm (every
        // helpful column is boxed to zero width), or the claim fails the
        // certificate and a cold solve confirms it. Either way the outcome
        // must be `Infeasible` — never a bogus optimum.
        for c in [cfg_kernel(false), cfg_kernel(true)] {
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
    }

    #[test]
    fn infeasibility_certificate_respects_unbounded_columns() {
        // x in [2, 3] must equal the free variable y (y unbounded below
        // via two Ge rows): feasible, but a narrow warm box might tempt a
        // sloppy certificate. The solve must find the optimum, not claim
        // infeasibility.
        for c in [cfg_kernel(false), cfg_kernel(true)] {
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
    }

    #[test]
    fn sparse_counters_populated_and_forced_refactor_agrees() {
        // A cold sparse solve factorizes at least once (the initial basis
        // load) and once more for the final accuracy refresh; forcing a
        // refactorization after every pivot must not change the optimum.
        let p = branchy();
        let mut ws = Workspace::new();
        let (out, info) = ws.solve(&p.as_problem(), None, &cfg_kernel(true));
        let (_, obj) = expect_opt(&out);
        assert!(info.refactors >= 1, "refactors {}", info.refactors);

        let mut forced = cfg_kernel(true);
        forced.refactor_interval = 1;
        let mut ws2 = Workspace::new();
        let (out2, info2) = ws2.solve(&p.as_problem(), None, &forced);
        let (_, obj2) = expect_opt(&out2);
        assert!((obj - obj2).abs() <= 1e-9 * (1.0 + obj.abs()));
        assert!(info2.refactors >= info.refactors);
    }
}

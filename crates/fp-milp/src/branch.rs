//! Branch-and-bound over the integer variables.
//!
//! Depth-first search with dive-first child ordering (the child closest to
//! the LP-relaxation value is explored first), user branch priorities, and
//! incumbent pruning. Depth-first diving reaches integer-feasible leaves
//! quickly, which gives the strong upper bounds the big-M non-overlap
//! disjunctions of the floorplanning formulation need to prune.
//!
//! The search runs on the calling thread, one node at a time. Its node
//! order, and therefore its incumbent, node count and reported optimal
//! vertex, depend only on the model and the options: a solve that no
//! wall-clock limit or [`StopFlag`](crate::StopFlag) cuts short returns
//! the same answer on any host and any core count. Successive augmentation
//! turns each step's vertex into obstacles for every later step, so this
//! is what makes a whole floorplan repeatable.

use crate::error::SolveError;
use crate::model::Model;
use crate::options::{SolveOptions, FEAS_TOL, INT_TOL, OPT_TOL};
use crate::presolve::{
    presolve, strengthen, CutSeparator, NodePropagator, PresolveStatus, PropBox, Strengthened,
};
use crate::simplex::{BasisSnapshot, LpConfig, LpOutcome, LpProblem, SparseRow, Workspace};
use crate::solution::{Optimality, RootBasis, Solution, SolveStats};
use fp_obs::{Event, Phase, Tracer};
use std::sync::Arc;
use std::time::Instant;

struct Node {
    lb: Vec<f64>,
    ub: Vec<f64>,
    depth: usize,
    /// The parent's optimal basis, shared by both children so each node's
    /// LP can warm-start via the dual simplex. `None` at the root or when
    /// [`SolveOptions::warm_start`] is off.
    basis: Option<Arc<BasisSnapshot>>,
    /// The parent's propagated box and the column the parent branched on,
    /// shared by both children like `basis`. `None` at the root.
    parent_box: Option<(Arc<PropBox>, usize)>,
}

/// Fixpoint passes of the classic presolve loop (singleton folding,
/// activity bounds, implied/integral tightening); the number actually run
/// is reported in [`SolveStats::presolve_passes`].
const PRESOLVE_PASSES: usize = 4;

/// Work budget for 0-1 probing: tentative fix-and-propagate runs (each
/// single-binary probe costs two, each co-occurring pair probe four).
const PROBE_BUDGET: usize = 512;

/// Cutting planes appended to the root LP across all separation rounds.
const MAX_CUTS: usize = 64;

/// Cut generation rounds run against the root relaxation (logic cuts take
/// the first round, violated-cut separation the rest).
const CUT_ROUNDS: usize = 4;

/// Relative root-bound improvement a cut round must deliver to be kept.
/// A round that fails the test is rolled back: cuts that don't move the
/// relaxation bound still bloat every node LP in the tree and perturb
/// branching for nothing (the knapsack18 node-count regression).
const CUT_IMPROVE_TOL: f64 = 1e-9;

/// Appends root cutting planes to `rows`: implication-logic cuts first
/// (round 0, no LP point needed), then violated-cut separation against the
/// root relaxation, up to [`CUT_ROUNDS`] rounds total. Every round is
/// provisional until the re-solved root LP proves a relative bound
/// improvement of at least [`CUT_IMPROVE_TOL`]; a stalled round is
/// truncated off the row set and separation stops. Returns the number of
/// cuts kept (capped at [`MAX_CUTS`]) plus the optimal basis of the final
/// committed row set when the last LP solve still describes it — the
/// tree's root node warm-starts from that basis instead of repeating the
/// same cold two-phase solve.
///
/// The LP pivots spent separating are deliberately *not* counted in
/// [`SolveStats::simplex_iterations`], which tallies tree-node pivots only
/// (traced per-node pivot sums must keep matching it).
#[allow(clippy::too_many_arguments)]
fn add_root_cuts(
    model: &Model,
    options: &SolveOptions,
    started: Instant,
    c: &[f64],
    rows: &mut Vec<SparseRow>,
    lb: &[f64],
    ub: &[f64],
    st: &Strengthened,
    seed: Option<Arc<BasisSnapshot>>,
    tracer: &Tracer,
) -> (
    usize,
    Option<Arc<BasisSnapshot>>,
    Option<Arc<BasisSnapshot>>,
) {
    let mut sep = CutSeparator::new(st, rows, lb, ub);
    let mut added = 0;

    let lp_cfg = lp_config(options, started);
    let mut ws = Workspace::new();

    // Bound of the relaxation over the committed row set; the first
    // iteration solves the cut-free baseline it is measured against.
    let mut bound = f64::NEG_INFINITY;
    // `(round, cuts appended, row count before they were appended)` of the
    // round awaiting its bound-improvement verdict.
    let mut pending: Option<(usize, usize, usize)> = None;
    // Optimal basis over the latest *committed* row set, captured before any
    // provisional cuts are appended — a rollback truncates back to exactly
    // the row count this basis was solved over, so it stays reusable. The
    // caller's `seed` (if any) plays the role of a zeroth committed basis,
    // so the otherwise-cold baseline solve warm-starts from it.
    let mut committed: Option<Arc<BasisSnapshot>> = seed;
    // The basis of the cut-free baseline relaxation: the only snapshot whose
    // row count a *later* solve can still load (cut rows are per-solve), so
    // it is the solve's reported root basis.
    let mut baseline: Option<Arc<BasisSnapshot>> = None;

    for round in 0..=CUT_ROUNDS {
        let problem = LpProblem {
            ncols: model.num_vars(),
            rows,
            c,
            lb,
            ub,
        };
        // Rounds after the first warm-start from the last committed basis:
        // the kernel extends it across the appended cut rows (their slacks
        // go basic) and dual-repairs just those rows.
        let (outcome, _) = ws.solve(&problem, committed.as_ref(), &lp_cfg);
        let x = match outcome {
            LpOutcome::Optimal { x, obj } => {
                if let Some((r, count, base_len)) = pending.take() {
                    if obj > bound + CUT_IMPROVE_TOL * (1.0 + bound.abs()) {
                        added += count;
                        tracer.emit(
                            Phase::Solver,
                            Event::CutRound {
                                round: r,
                                cuts: count,
                            },
                        );
                    } else {
                        rows.truncate(base_len);
                        break;
                    }
                }
                bound = obj;
                committed = Some(ws.snapshot());
                if baseline.is_none() {
                    baseline = committed.clone();
                }
                x
            }
            // Infeasible/unbounded/limits: the pending round can't be
            // judged, but its cuts are valid inequalities — keep them and
            // let the tree surface the condition on its normal path.
            _ => {
                if let Some((r, count, _)) = pending.take() {
                    added += count;
                    tracer.emit(
                        Phase::Solver,
                        Event::CutRound {
                            round: r,
                            cuts: count,
                        },
                    );
                }
                break;
            }
        };
        if round == CUT_ROUNDS || added >= MAX_CUTS || options.stop.is_set() {
            break;
        }
        // Logic cuts need no LP point and go first; when probing found
        // none, the first round separates like the rest.
        let mut cuts = if round == 0 {
            sep.logic_cuts(MAX_CUTS - added)
        } else {
            Vec::new()
        };
        if cuts.is_empty() {
            cuts = sep.separate(&x, MAX_CUTS - added);
        }
        if cuts.is_empty() {
            break;
        }
        pending = Some((round, cuts.len(), rows.len()));
        rows.extend(cuts);
    }
    // `committed.m < rows.len()` (cuts kept on an unjudgeable break) still
    // warm-starts the root via the same slack-extension load.
    (added, committed, baseline)
}

/// The LP configuration shared by every LP of one solve. Its absolute
/// deadline lets a single long relaxation stop at the time limit (`None`
/// if the limit overflows [`Instant`]); the warm pivot cap and the
/// refactorization interval are sized automatically.
fn lp_config(options: &SolveOptions, started: Instant) -> LpConfig {
    LpConfig {
        feas_tol: FEAS_TOL,
        opt_tol: OPT_TOL,
        deadline: started.checked_add(options.time_limit),
        warm_pivot_cap: 0,
        refactor_interval: 0,
    }
}

/// A [`SolveError`] variant that carries statistics, still waiting for
/// them.
type Failure = fn(Box<SolveStats>) -> SolveError;

/// The search's `(incumbent values + min-form objective, bound proven)`,
/// or the error its failed root LP ends the solve with.
type SearchResult = Result<(Option<(Vec<f64>, f64)>, bool), Failure>;

/// Entry point used by [`Model::solve_seeded`] and so by every other
/// solve method; `seed` is the caller's root basis, if any.
///
/// Trace contract: exactly one `SolveStart` is emitted on entry and exactly
/// one `SolveEnd` on every exit path (including errors), with one `BnbNode`
/// per node counted in [`SolveStats::nodes`] in between. Every error but
/// [`SolveError::InvalidModel`] carries the statistics gathered so far.
pub(crate) fn solve(
    model: &Model,
    options: &SolveOptions,
    tracer: &Tracer,
    seed: Option<&RootBasis>,
) -> Result<Solution, SolveError> {
    let started = Instant::now();
    tracer.emit(
        Phase::Solver,
        Event::SolveStart {
            binaries: model.num_integer_vars(),
            constraints: model.num_constraints(),
        },
    );
    let (c, c_offset) = model.min_objective();

    let rows = model.sparse_rows();

    let base_lb: Vec<f64> = model.vars.iter().map(|d| d.lb).collect();
    let base_ub: Vec<f64> = model.vars.iter().map(|d| d.ub).collect();

    // Root presolve: tighten bounds, drop redundant rows, or prove
    // infeasibility outright.
    let integral: Vec<bool> = model.vars.iter().map(|d| d.kind.is_integral()).collect();
    let pre = presolve(
        &rows,
        base_lb,
        base_ub,
        &integral,
        FEAS_TOL,
        PRESOLVE_PASSES,
    );
    // Statistics of the whole solve: the root counters go in as they are
    // known, the search adds its own, and a failure hands them back.
    let mut stats = SolveStats {
        presolve_passes: pre.passes,
        ..SolveStats::default()
    };
    let failed = |stats: SolveStats, proven: bool, error: Failure| {
        // The trace reports a failure before the search, or at its root
        // LP, with a node-less SolveEnd.
        tracer.emit(
            Phase::Solver,
            Event::SolveEnd {
                nodes: 0,
                simplex_iterations: 0,
                proven,
            },
        );
        error(Box::new(SolveStats {
            elapsed: started.elapsed(),
            ..stats
        }))
    };
    if pre.status == PresolveStatus::Infeasible {
        return Err(failed(stats, true, SolveError::Infeasible));
    }

    let mut rows: Vec<SparseRow> = pre.kept_rows.iter().map(|&r| rows[r].clone()).collect();
    let mut lb = pre.lb;
    let mut ub = pre.ub;
    // The caller's seed for the first root LP. The checks mirror what the
    // kernel accepts (`n_struct` must match; fewer rows load via slack
    // extension), so a seed from another model is ignored, never an error:
    // a wrong-but-well-formed basis can only cost pivots. A load that fails
    // numerically falls back cold inside the kernel.
    let seed = seed
        .filter(|_| options.warm_start)
        .map(|seed| Arc::clone(&seed.0))
        .filter(|snap| snap.n_struct == model.num_vars() && snap.m <= rows.len());

    // Root model strengthening: big-M coefficient tightening, 0-1 probing,
    // and cutting planes appended to the row set so every node (and every
    // warm-started basis) inherits the tighter relaxation. The tree's root
    // node starts from the cut loop's final basis, so it does not repeat
    // that cold solve, or, with strengthening off, from the seed.
    let root_start = if options.strengthen {
        let st = match strengthen(
            &mut rows,
            &mut lb,
            &mut ub,
            &integral,
            FEAS_TOL,
            PROBE_BUDGET,
        ) {
            Ok(st) => st,
            // Probing proved the model integer-infeasible.
            Err(()) => return Err(failed(stats, true, SolveError::Infeasible)),
        };
        stats.rows_tightened = st.rows_tightened;
        stats.binaries_fixed = st.binaries_fixed;
        stats.implications = st.implications.len();
        tracer.emit(
            Phase::Solver,
            Event::Presolve {
                passes: pre.passes,
                rows_tightened: st.rows_tightened,
                binaries_fixed: st.binaries_fixed,
                implications: st.implications.len(),
            },
        );
        let (cuts_added, basis, baseline) = add_root_cuts(
            model, options, started, &c, &mut rows, &lb, &ub, &st, seed, tracer,
        );
        stats.cuts_added = cuts_added;
        stats.root_basis = baseline.map(RootBasis);
        basis.filter(|_| options.warm_start)
    } else {
        tracer.emit(
            Phase::Solver,
            Event::Presolve {
                passes: pre.passes,
                rows_tightened: 0,
                binaries_fixed: 0,
                implications: 0,
            },
        );
        seed
    };

    let root = Node {
        lb,
        ub,
        depth: 0,
        basis: root_start,
        parent_box: None,
    };

    // Integral columns ordered by descending branch priority (stable).
    let mut int_cols: Vec<usize> = model
        .vars
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind.is_integral())
        .map(|(i, _)| i)
        .collect();
    int_cols.sort_by_key(|&i| std::cmp::Reverse(model.vars[i].branch_priority));

    let trace = TraceCtx {
        tracer,
        model,
        c_offset,
    };
    let prop = NodePropagator::new(&rows, &integral);
    let searched = search(
        model, options, started, &c, &rows, &int_cols, prop, root, &trace, &mut stats,
    );
    let (incumbent, proven) = match searched {
        Ok(result) => result,
        // Root-LP failure: its SolveEnd must still pair with the SolveStart
        // above.
        Err(error) => return Err(failed(stats, false, error)),
    };
    stats.elapsed = started.elapsed();
    tracer.emit(
        Phase::Solver,
        Event::SolveEnd {
            nodes: stats.nodes,
            simplex_iterations: stats.simplex_iterations,
            proven,
        },
    );

    match incumbent {
        Some((values, min_obj)) => {
            let optimality = if proven {
                Optimality::Proven
            } else {
                Optimality::Limit
            };
            Ok(Solution::new(
                values,
                model.externalize_obj(min_obj + c_offset),
                optimality,
                stats,
            ))
        }
        None if proven => Err(SolveError::Infeasible(Box::new(stats))),
        None => Err(SolveError::LimitWithoutIncumbent(Box::new(stats))),
    }
}

/// The branching variable and its LP value: highest priority first, ties
/// broken by closeness to one half. `None` means integer feasible.
fn branch_choice(
    model: &Model,
    int_cols: &[usize],
    x: &[f64],
    int_tol: f64,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, i32, f64)> = None; // (col, val, prio, frac-score)
    for &j in int_cols {
        let v = x[j];
        let frac = (v - v.round()).abs();
        if frac <= int_tol {
            continue;
        }
        let prio = model.vars[j].branch_priority;
        let score = 0.5 - (v.fract().abs() - 0.5).abs(); // closeness to .5
        let better = match best {
            None => true,
            Some((_, _, bp, bs)) => prio > bp || (prio == bp && score > bs),
        };
        if better {
            best = Some((j, v, prio, score));
        }
    }
    best.map(|(j, v, _, _)| (j, v))
}

/// Splits `node` on column `j` at LP value `v` into (down, up) children,
/// both warm-startable from the parent's optimal `basis` and both
/// propagating from the parent's box `prop`.
fn split(
    node: Node,
    j: usize,
    v: f64,
    basis: Option<Arc<BasisSnapshot>>,
    prop: Arc<PropBox>,
) -> (Node, Node) {
    let mut down = Node {
        lb: node.lb.clone(),
        ub: node.ub.clone(),
        depth: node.depth + 1,
        basis: basis.clone(),
        parent_box: Some((Arc::clone(&prop), j)),
    };
    down.ub[j] = v.floor();
    let mut up = Node {
        lb: node.lb,
        ub: node.ub,
        depth: node.depth + 1,
        basis,
        parent_box: Some((prop, j)),
    };
    up.lb[j] = v.ceil();
    (down, up)
}

/// Tracing context of the search loop: the tracer plus what is needed to
/// report objectives in the model's external sense.
struct TraceCtx<'a> {
    tracer: &'a Tracer,
    model: &'a Model,
    c_offset: f64,
}

impl TraceCtx<'_> {
    /// Converts a minimization-form objective to the model's sense.
    fn external(&self, min_obj: f64) -> f64 {
        self.model.externalize_obj(min_obj + self.c_offset)
    }

    /// One `BnbNode` per claimed node, emitted *after* its LP solve so the
    /// warm/pivot/factorization fields are known; every outcome path emits
    /// exactly once.
    fn node(&self, depth: usize, info: &crate::simplex::LpInfo) {
        self.tracer.emit(
            Phase::Solver,
            Event::BnbNode {
                depth,
                warm: info.warm,
                pivots: info.pivots as u64,
                refactors: info.refactors as u64,
                etas: info.etas as u64,
                propagated: false,
            },
        );
    }

    /// The `BnbNode` of a node that propagation settled without an LP.
    fn settled(&self, depth: usize) {
        self.tracer.emit(
            Phase::Solver,
            Event::BnbNode {
                depth,
                warm: false,
                pivots: 0,
                refactors: 0,
                etas: 0,
                propagated: true,
            },
        );
    }

    fn root_lp(&self, min_obj: f64) {
        self.tracer.emit(
            Phase::Solver,
            Event::RootLp {
                objective: self.external(min_obj),
            },
        );
    }

    fn incumbent(&self, min_obj: f64) {
        self.tracer.emit(
            Phase::Solver,
            Event::Incumbent {
                objective: self.external(min_obj),
            },
        );
    }
}

/// The dive-first DFS loop: pops the last-pushed node, propagates its
/// bounds with `prop`, solves its LP warm from the parent's basis unless
/// propagation proved that its box holds no integer point, and prunes,
/// records or branches. Its node, pivot and factorization counts go into
/// `stats`.
#[allow(clippy::too_many_arguments)]
fn search(
    model: &Model,
    options: &SolveOptions,
    started: Instant,
    c: &[f64],
    rows: &[SparseRow],
    int_cols: &[usize],
    mut prop: NodePropagator,
    root: Node,
    trace: &TraceCtx,
    stats: &mut SolveStats,
) -> SearchResult {
    // The best integer point so far as (values, min-form objective); its
    // objective is the pruning bound, +∞ until the first one.
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    let mut bound = f64::INFINITY;
    let mut proven = true;
    let lp_cfg = lp_config(options, started);
    // One workspace for the whole solve: the dive child is popped
    // immediately after its parent, so its warm start is usually the hot
    // path (bound deltas applied to the parent's still-loaded basis).
    let mut ws = Workspace::new();

    let mut stack = vec![root];

    while let Some(node) = stack.pop() {
        if stats.nodes >= options.node_limit
            || started.elapsed() >= options.time_limit
            || options.stop.is_set()
        {
            proven = false;
            break;
        }
        stats.nodes += 1;

        // A node whose propagated box holds no integer point is settled
        // without its LP: no incumbent can come from below it. The next
        // node popped loads its own parent's snapshot, so every LP
        // outside the settled subtree returns the same bits.
        let parent_box = node.parent_box.as_ref().map(|(b, j)| (&**b, *j));
        if !prop.run(&node.lb, &node.ub, parent_box) {
            stats.propagated_nodes += 1;
            ws.unlink();
            trace.settled(node.depth);
            continue;
        }

        let problem = LpProblem {
            ncols: model.num_vars(),
            rows,
            c,
            lb: &node.lb,
            ub: &node.ub,
        };
        let basis = if options.warm_start {
            node.basis.as_ref()
        } else {
            None
        };
        let (outcome, info) = ws.solve(&problem, basis, &lp_cfg);
        stats.simplex_iterations += info.pivots;
        stats.refactorizations += info.refactors;
        stats.eta_updates += info.etas;
        if info.warm {
            stats.warm_nodes += 1;
        } else {
            stats.cold_nodes += 1;
        }
        trace.node(node.depth, &info);
        let (x, obj) = match outcome {
            LpOutcome::Optimal { x, obj } => {
                if node.depth == 0 {
                    trace.root_lp(obj);
                }
                (x, obj)
            }
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                if node.depth == 0 {
                    // Unbounded relaxation: the MILP is unbounded or
                    // infeasible; report unbounded, matching solver practice.
                    return Err(SolveError::Unbounded);
                }
                proven = false;
                continue;
            }
            LpOutcome::IterationLimit => {
                if node.depth == 0 {
                    return Err(SolveError::IterationLimit);
                }
                proven = false;
                continue;
            }
            // Deadline hit mid-LP: stop searching, exactly as if the
            // node-boundary time check had bound.
            LpOutcome::TimedOut => {
                proven = false;
                break;
            }
        };

        // Bound pruning against the incumbent (minimization form).
        if obj >= bound - 1e-9 {
            continue;
        }

        match branch_choice(model, int_cols, &x, INT_TOL) {
            None => {
                // Integer feasible: snap integers exactly and record.
                let mut vals = x;
                for &j in int_cols {
                    vals[j] = vals[j].round();
                }
                if obj < bound - 1e-9 {
                    trace.incumbent(obj);
                    bound = obj;
                    incumbent = Some((vals, obj));
                }
            }
            Some((j, v)) => {
                let floor = v.floor();
                let snap = options.warm_start.then(|| ws.snapshot());
                let (down, up) = split(node, j, v, snap, Arc::new(prop.share()));
                // Dive toward the nearer integer: push the preferred child
                // last so the LIFO stack pops it first.
                if v - floor <= 0.5 {
                    stack.push(up);
                    stack.push(down);
                } else {
                    stack.push(down);
                    stack.push(up);
                }
            }
        }
    }

    Ok((incumbent, proven))
}

#[cfg(test)]
mod tests {
    use crate::{Model, Optimality, RootBasis, Sense, Solution, SolveError, SolveOptions};
    use fp_obs::{Event, Tracer};
    use std::time::Duration;

    #[test]
    fn pure_lp_path() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_ge(x + y, 3.0);
        m.set_objective(2.0 * x + y);
        let s = m.solve_with(&SolveOptions::default()).unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-7);
        assert_eq!(s.optimality(), Optimality::Proven);
        assert_eq!(s.stats().nodes, 1);
    }

    #[test]
    fn knapsack_optimum() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6 -> b + c = 20.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_le(3.0 * a + 4.0 * b + 2.0 * c, 6.0);
        m.set_objective(10.0 * a + 13.0 * b + 7.0 * c);
        let s = m.solve().unwrap();
        assert!((s.objective() - 20.0).abs() < 1e-6);
        assert_eq!(s.rounded(a), 0);
        assert_eq!(s.rounded(b), 1);
        assert_eq!(s.rounded(c), 1);
    }

    #[test]
    fn integer_rounding_not_lp_rounding() {
        // Classic: max x, 2x <= 5, x integer -> 2 (LP gives 2.5).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_le(2.0 * x, 5.0);
        m.set_objective(LinExprOf(x));
        let s = m.solve().unwrap();
        assert_eq!(s.rounded(x), 2);
    }

    // helper because set_objective takes impl Into<LinExpr>
    #[allow(non_snake_case)]
    fn LinExprOf(v: crate::Var) -> crate::LinExpr {
        v + 0.0
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_ge(a + b, 3.0);
        assert!(matches!(m.solve(), Err(SolveError::Infeasible(_))));

        // Fractionally satisfiable but integrally infeasible: root presolve
        // derives a, b >= 0.5 from 2a + 2b = 3, rounds both up to 1 and
        // finds the row broken, so the search never starts.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_eq(2.0 * a + 2.0 * b, 3.0);
        m.set_objective(a + b);
        match m.solve() {
            Err(SolveError::Infeasible(stats)) => assert_eq!(stats.nodes, 0, "{stats:?}"),
            other => panic!("expected a presolve-proven infeasibility, got {other:?}"),
        }

        // A parity row over six binaries, 2·Σx = 5, holds fractionally but
        // at no integer point. No single fixing or pair of fixings empties
        // it, and neither does root propagation, so presolve and probing
        // cannot shortcut: the tree itself must prove infeasibility.
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let sum: crate::LinExpr = xs.iter().map(|&x| 2.0 * x).sum();
        m.add_eq(sum.clone(), 5.0);
        m.set_objective(sum);
        match m.solve() {
            Err(SolveError::Infeasible(stats)) => {
                assert!(stats.nodes > 1 && stats.propagated_nodes > 0, "{stats:?}");
            }
            other => panic!("expected a tree-proven infeasibility, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(x + 0.0);
        assert!(matches!(m.solve(), Err(SolveError::Unbounded(_))));
    }

    #[test]
    fn node_limit_returns_incumbent_or_error() {
        // Root relaxation is fractional (2Σb <= 3), so one node cannot
        // complete the search: the limit must bind.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|i| m.add_binary(format!("b{i}"))).collect();
        let total: crate::LinExpr = vars.iter().map(|&v| 2.0 * v).sum();
        m.add_le(total.clone(), 3.0);
        m.set_objective(total);
        let opts = SolveOptions::default().with_node_limit(1);
        match m.solve_with(&opts) {
            Ok(s) => assert_eq!(s.optimality(), Optimality::Limit),
            Err(e) => assert!(matches!(e, SolveError::LimitWithoutIncumbent(_)), "{e:?}"),
        }
        // With a generous limit the same model solves to proven optimality.
        let s = m.solve().unwrap();
        assert_eq!(s.optimality(), Optimality::Proven);
        assert!((s.objective() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn time_limit_zero_behaves() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a");
        m.set_objective(a + 0.0);
        let opts = SolveOptions::default().with_time_limit(Duration::ZERO);
        assert!(matches!(
            m.solve_with(&opts),
            Err(SolveError::LimitWithoutIncumbent(_))
        ));
    }

    #[test]
    fn branch_priority_respected_and_still_optimal() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_branch_priority(a, -5);
        m.set_branch_priority(b, 10);
        m.add_le(1.0 * a + 1.0 * b, 1.0);
        m.set_objective(2.0 * a + 3.0 * b);
        let s = m.solve().unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constrained_milp() {
        // min a + 2b + 3c with a + b + c = 2 (binaries) -> a=1, b=1: obj 3.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_eq(a + b + c, 2.0);
        m.set_objective(1.0 * a + 2.0 * b + 3.0 * c);
        let s = m.solve().unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-6);
        assert_eq!(s.rounded(c), 0);
    }

    #[test]
    fn disjunctive_big_m_interval_placement() {
        // Two unit intervals on [0, 2] must not overlap: the 1-D core of the
        // paper's non-overlap constraints, one binary selecting the order.
        let big = 10.0;
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.add_continuous("x1", 0.0, 1.0);
        let x2 = m.add_continuous("x2", 0.0, 1.0);
        let p = m.add_binary("p");
        // x1 + 1 <= x2 + M p   and   x2 + 1 <= x1 + M (1 - p)
        m.add_le(x1 + 1.0 - x2 - big * p, 0.0);
        m.add_le(x2 + 1.0 - x1 - big * (1.0 - p), 0.0);
        // Minimize the right edge: span y >= xi + 1.
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_ge(y - x1, 1.0);
        m.add_ge(y - x2, 1.0);
        m.set_objective(y + 0.0);
        let s = m.solve().unwrap();
        assert!((s.objective() - 2.0).abs() < 1e-6);
        let (a, b) = (s.value(x1), s.value(x2));
        assert!((a - b).abs() >= 1.0 - 1e-6, "intervals overlap: {a} {b}");
    }

    #[test]
    fn objective_constant_offset_preserved() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0, 5.0);
        m.set_objective(x + 100.0);
        let s = m.solve().unwrap();
        assert!((s.objective() - 101.0).abs() < 1e-7);
    }

    #[test]
    fn warm_cold_counts_partition_nodes() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("b{i}"))).collect();
        let weight: crate::LinExpr = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (2.0 + (i % 4) as f64) * v)
            .sum();
        m.add_le(weight, 11.0);
        let value: crate::LinExpr = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (3.0 + (i % 5) as f64) * v)
            .sum();
        m.set_objective(value);

        let warm = m.solve_with(&SolveOptions::default()).unwrap();
        let ws = warm.stats();
        assert_eq!(
            ws.warm_nodes + ws.cold_nodes + ws.propagated_nodes,
            ws.nodes
        );
        assert!(ws.warm_nodes > 0, "a branching solve should warm-start");

        // Without the strengthening cut loop there is no recovered root
        // basis, so the root relaxation must solve cold.
        let nostr = m
            .solve_with(&SolveOptions::default().with_strengthen(false))
            .unwrap();
        let ns = nostr.stats();
        assert_eq!(
            ns.warm_nodes + ns.cold_nodes + ns.propagated_nodes,
            ns.nodes
        );
        assert!(ns.cold_nodes >= 1, "without root cuts the root solves cold");

        let cold = m
            .solve_with(&SolveOptions::default().with_warm_start(false))
            .unwrap();
        let cs = cold.stats();
        assert_eq!(cs.warm_nodes, 0);
        assert_eq!(cs.cold_nodes + cs.propagated_nodes, cs.nodes);
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
    }

    /// Minimization covering knapsack used by the limit and seed tests:
    /// enough binaries that the tree is nontrivial.
    fn covering_knapsack() -> Model {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("b{i}"))).collect();
        let cover: crate::LinExpr = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (3.0 + (i % 5) as f64) * v)
            .sum();
        m.add_ge(cover, 17.0);
        let cost: crate::LinExpr = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (4.0 + (i % 7) as f64) * v)
            .sum();
        m.set_objective(cost);
        m
    }

    #[test]
    fn pre_triggered_stop_flag_halts_search() {
        let stop = crate::StopFlag::new();
        stop.trigger();
        // The stop binds before the first node, like a zero limit.
        let s = covering_knapsack().solve_with(&SolveOptions::default().with_stop(stop));
        assert!(matches!(s, Err(SolveError::LimitWithoutIncumbent(_))));
    }

    /// Solves `model` seeded with `seed` under `options` with strengthening
    /// off, so the seed (if it loads) starts the root node's LP itself;
    /// returns the solution and whether that first LP ran warm.
    fn seeded_root(
        model: &Model,
        options: SolveOptions,
        seed: Option<&RootBasis>,
    ) -> (Solution, bool) {
        use fp_obs::Collector;
        let collector = Collector::new();
        let tracer = Tracer::new(collector.clone());
        let sol = model
            .solve_seeded(&options.with_strengthen(false), &tracer, seed)
            .unwrap();
        let root = collector.of_kind(|e| matches!(e, Event::BnbNode { .. }));
        let warm = match root.first().map(|r| &r.event) {
            Some(Event::BnbNode { depth: 0, warm, .. }) => *warm,
            other => panic!("first node is not the root: {other:?}"),
        };
        (sol, warm)
    }

    /// The cut-free root basis of a default solve of `model`.
    fn root_basis_of(model: &Model) -> RootBasis {
        let sol = model.solve().unwrap();
        sol.stats()
            .root_basis
            .clone()
            .expect("a cut-free root basis")
    }

    #[test]
    fn seed_from_the_same_model_loads() {
        let model = covering_knapsack();
        let seed = root_basis_of(&model);
        let (cold, cold_root) = seeded_root(&model, SolveOptions::default(), None);
        assert!(!cold_root, "an unseeded root starts cold");
        let (seeded, warm_root) = seeded_root(&model, SolveOptions::default(), Some(&seed));
        assert!(warm_root, "the seed starts the root LP");
        assert_eq!(seeded.optimality(), Optimality::Proven);
        assert!((seeded.objective() - cold.objective()).abs() < 1e-9);
        // With strengthening on, the seed starts the cut loop's first LP
        // and the proven objective is unchanged too.
        let strengthened = model
            .solve_seeded(&SolveOptions::default(), &Tracer::disabled(), Some(&seed))
            .unwrap();
        assert!((strengthened.objective() - cold.objective()).abs() < 1e-9);
    }

    #[test]
    fn seed_over_fewer_rows_loads_by_slack_extension() {
        use crate::Var;
        let seed = root_basis_of(&covering_knapsack());
        // The same model plus one valid row that presolve keeps: the
        // optimum picks far fewer than 9 of the 10 binaries, and the row's
        // maximum activity 10 exceeds its bound. The seed then has one row
        // fewer than the new root and loads with the new row's slack basic.
        let mut grown = covering_knapsack();
        let count: crate::LinExpr = (0..10).map(|i| 1.0 * Var(i)).sum();
        grown.add_le(count, 9.0);
        let (plain, _) = seeded_root(&grown, SolveOptions::default(), None);
        let (seeded, warm_root) = seeded_root(&grown, SolveOptions::default(), Some(&seed));
        assert!(warm_root, "the shorter seed starts the root LP");
        assert_eq!(seeded.optimality(), Optimality::Proven);
        assert!((seeded.objective() - plain.objective()).abs() < 1e-9);
    }

    #[test]
    fn seed_over_another_column_count_is_ignored() {
        let seed = root_basis_of(&covering_knapsack());
        let mut wider = covering_knapsack();
        let extra = wider.add_binary("extra");
        wider.add_le(extra + 0.0, 1.0);
        let (plain, _) = seeded_root(&wider, SolveOptions::default(), None);
        let (seeded, warm_root) = seeded_root(&wider, SolveOptions::default(), Some(&seed));
        assert!(
            !warm_root,
            "a seed over 10 columns cannot start an 11-column root"
        );
        assert_eq!(seeded.values(), plain.values());
        assert_eq!(seeded.stats().nodes, plain.stats().nodes);
    }

    #[test]
    fn warm_start_off_ignores_the_seed() {
        let model = covering_knapsack();
        let seed = root_basis_of(&model);
        let no_warm = SolveOptions::default().with_warm_start(false);
        let (plain, _) = seeded_root(&model, no_warm.clone(), None);
        let (seeded, warm_root) = seeded_root(&model, no_warm, Some(&seed));
        assert!(!warm_root);
        assert_eq!(seeded.stats().warm_nodes, 0);
        assert_eq!(seeded.values(), plain.values());
        assert_eq!(seeded.stats().nodes, plain.stats().nodes);
    }
}

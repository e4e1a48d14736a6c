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
use crate::options::SolveOptions;
use crate::presolve::{
    presolve, strengthen, CutSeparator, NodePropagator, PresolveStatus, PropBox, Strengthened,
};
use crate::simplex::{BasisSnapshot, LpConfig, LpOutcome, LpProblem, SparseRow, Workspace};
use crate::solution::{Optimality, Solution, SolveStats};
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
    // cross-solve `seed` (if any) plays the role of a zeroth committed
    // basis, so the otherwise-cold baseline solve warm-starts from it.
    let mut committed: Option<Arc<BasisSnapshot>> = seed;
    // The basis of the cut-free baseline relaxation: the only snapshot whose
    // row count a *future* solve of this model can still load (cut rows are
    // per-solve), so it is what a BasisStore publishes.
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
        feas_tol: options.feas_tol,
        opt_tol: options.opt_tol,
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

/// Entry point used by [`Model::solve_with`] and [`Model::solve_traced`].
///
/// Trace contract: exactly one `SolveStart` is emitted on entry and exactly
/// one `SolveEnd` on every exit path (including errors), with one `BnbNode`
/// per node counted in [`SolveStats::nodes`] in between. Every error but
/// [`SolveError::InvalidModel`] carries the statistics gathered so far.
pub(crate) fn solve(
    model: &Model,
    options: &SolveOptions,
    tracer: &Tracer,
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

    // External-sense cutoff internalized to minimization form: the search
    // prunes against it from the first node and only accepts strictly
    // better incumbents, so the returned solution can never be at or worse
    // than the injected bound. `externalize_obj` is an involution, so it
    // also maps external → internal sense.
    let cutoff = if options.initial_upper_bound.is_finite() {
        model.externalize_obj(options.initial_upper_bound) - c_offset
    } else {
        f64::INFINITY
    };

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
        options.feas_tol,
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
    // Optimal basis of the final root relaxation, recovered from the cut
    // loop so the tree's root node does not repeat its cold solve.
    let mut root_basis: Option<Arc<BasisSnapshot>> = None;
    // The basis a cross-solve BasisStore publishes for future solves; only
    // the cut-free baseline qualifies (cut rows are per-solve).
    let mut publish_basis: Option<Arc<BasisSnapshot>> = None;

    // Cross-solve warm start: seed this solve's root relaxation from the
    // basis an earlier keyed solve published. Dimension checks mirror what
    // the kernel accepts (`n_struct` must match; fewer rows load via slack
    // extension), so a stale entry degrades to a cold root, never an error —
    // a wrong-but-well-formed basis can only cost pivots. The tier reports
    // which seed was fetched: the cut loop's first LP loads it (or the root
    // node does, with strengthening off), and a load that fails numerically
    // falls back cold inside the kernel without changing the tier.
    let mut basis_tier = crate::BasisTier::Cold;
    let basis_seed = if options.warm_start {
        options.basis_store.as_ref().and_then(|store| {
            store
                .fetch(crate::basis_store::slot(
                    options.basis_load_key,
                    model.num_vars(),
                ))
                .filter(|snap| snap.n_struct == model.num_vars() && snap.m <= rows.len())
        })
    } else {
        None
    };
    if let Some(snap) = &basis_seed {
        basis_tier = if snap.m == rows.len() {
            crate::BasisTier::Hot
        } else {
            crate::BasisTier::Warm
        };
    }

    stats.basis_tier = basis_tier;

    // Root model strengthening: big-M coefficient tightening, 0-1 probing,
    // and cutting planes appended to the row set so every node (and every
    // warm-started basis) inherits the tighter relaxation.
    if options.strengthen {
        let st = match strengthen(
            &mut rows,
            &mut lb,
            &mut ub,
            &integral,
            options.feas_tol,
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
            model, options, started, &c, &mut rows, &lb, &ub, &st, basis_seed, tracer,
        );
        stats.cuts_added = cuts_added;
        publish_basis = baseline;
        if options.warm_start {
            root_basis = basis;
        }
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
        if options.warm_start {
            root_basis = basis_seed;
        }
    }

    // Publish the cut-free baseline basis for future solves of this (or a
    // structurally similar) instance. Solves that never reached a baseline
    // optimum (strengthen off, infeasible root, limits) publish nothing.
    if let Some(store) = &options.basis_store {
        if let Some(snap) = &publish_basis {
            store.publish(
                crate::basis_store::slot(options.basis_publish_key, model.num_vars()),
                Arc::clone(snap),
            );
        }
    }

    let root = Node {
        lb,
        ub,
        depth: 0,
        basis: root_basis,
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
    let searched = search(
        model, options, started, &c, &rows, &int_cols, root, cutoff, &trace, &mut stats,
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
/// bounds, solves its LP warm from the parent's basis unless propagation
/// proved that LP infeasible, and prunes, records or branches. Its node,
/// pivot and factorization counts go into `stats`.
#[allow(clippy::too_many_arguments)]
fn search(
    model: &Model,
    options: &SolveOptions,
    started: Instant,
    c: &[f64],
    rows: &[SparseRow],
    int_cols: &[usize],
    root: Node,
    cutoff: f64,
    trace: &TraceCtx,
    stats: &mut SolveStats,
) -> SearchResult {
    let mut incumbent: Option<(Vec<f64>, f64)> = None; // (values, min-form obj)
                                                       // Pruning bound: starts at the externally injected cutoff (infinite when
                                                       // none) and tightens to each new incumbent. Exhausting the tree with a
                                                       // finite cutoff and no incumbent proves nothing better than the cutoff
                                                       // exists, which the epilogue reports as `Infeasible`.
    let mut bound = cutoff;
    let mut proven = true;
    let lp_cfg = lp_config(options, started);
    // One workspace for the whole solve: the dive child is popped
    // immediately after its parent, so its warm start is usually the hot
    // path (bound deltas applied to the parent's still-loaded basis).
    let mut ws = Workspace::new();
    let mut prop = NodePropagator::new(rows, model.num_vars());

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

        // A node whose propagated box is empty is settled exactly as an
        // infeasible LP would settle it, only without the LP.
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

        // Bound pruning against the incumbent or injected cutoff
        // (minimization form).
        if obj >= bound - 1e-9 {
            continue;
        }

        match branch_choice(model, int_cols, &x, options.int_tol) {
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
    use crate::{Model, Optimality, Sense, SolveError, SolveOptions};
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

        // Fractionally satisfiable but integrally infeasible, so presolve
        // cannot shortcut: the tree itself must prove infeasibility.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_eq(2.0 * a + 2.0 * b, 3.0);
        m.set_objective(a + b);
        assert!(matches!(m.solve(), Err(SolveError::Infeasible(_))));
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

    /// Minimization covering knapsack used by the cutoff tests: enough
    /// binaries that the tree is nontrivial, so pruning is observable.
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
    fn initial_upper_bound_prunes_and_never_returns_worse() {
        let baseline = covering_knapsack()
            .solve_with(&SolveOptions::default())
            .unwrap();
        let opt = baseline.objective();
        assert_eq!(baseline.optimality(), Optimality::Proven);

        // A bound strictly above the optimum: same answer, and the injected
        // cutoff can only prune (the dive order is identical), so the tree
        // is no larger than the baseline's.
        let loose = covering_knapsack()
            .solve_with(&SolveOptions::default().with_initial_upper_bound(opt + 0.5))
            .unwrap();
        assert!((loose.objective() - opt).abs() < 1e-7);
        assert_eq!(loose.optimality(), Optimality::Proven);
        assert!(loose.stats().nodes <= baseline.stats().nodes);

        // A bound at the optimum: the solver must strictly beat it, so it
        // proves no acceptable solution exists rather than returning one
        // that merely ties.
        let tied =
            covering_knapsack().solve_with(&SolveOptions::default().with_initial_upper_bound(opt));
        assert!(matches!(tied, Err(SolveError::Infeasible(_))));

        // A bound below the optimum: likewise never returns anything worse
        // than the bound.
        let below = covering_knapsack()
            .solve_with(&SolveOptions::default().with_initial_upper_bound(opt - 1.0));
        assert!(matches!(below, Err(SolveError::Infeasible(_))));
    }

    #[test]
    fn initial_upper_bound_maximize_sense() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6 -> optimum 20 (b + c).
        let build = || {
            let mut m = Model::new(Sense::Maximize);
            let a = m.add_binary("a");
            let b = m.add_binary("b");
            let c = m.add_binary("c");
            m.add_le(3.0 * a + 4.0 * b + 2.0 * c, 6.0);
            m.set_objective(10.0 * a + 13.0 * b + 7.0 * c);
            m
        };
        // For Maximize the "upper bound" is an objective value to beat from
        // below externally: a known solution of value 19 must not stop the
        // solver from finding 20...
        let s = build()
            .solve_with(&SolveOptions::default().with_initial_upper_bound(19.0))
            .unwrap();
        assert!((s.objective() - 20.0).abs() < 1e-7);
        // ...and a known solution of value 20 proves nothing better exists.
        let tied = build().solve_with(&SolveOptions::default().with_initial_upper_bound(20.0));
        assert!(matches!(tied, Err(SolveError::Infeasible(_))));
    }

    #[test]
    fn pre_triggered_stop_flag_halts_search() {
        let stop = crate::StopFlag::new();
        stop.trigger();
        // The stop binds before the first node, like a zero limit.
        let s = covering_knapsack().solve_with(&SolveOptions::default().with_stop(stop));
        assert!(matches!(s, Err(SolveError::LimitWithoutIncumbent(_))));
    }

    #[test]
    fn basis_store_cross_solve_hot_reuse() {
        use crate::{BasisStore, BasisTier};
        use std::sync::Arc;

        let store = Arc::new(BasisStore::new(8));
        let key = 0xfeed_beef_u64;
        let opts = SolveOptions::default().with_basis_store(Arc::clone(&store), key, key);

        // First solve: store is empty, so the root LP is cold; the cut-free
        // baseline basis is published under (key, num_vars).
        let cold = covering_knapsack().solve_with(&opts).unwrap();
        assert_eq!(cold.stats().basis_tier, BasisTier::Cold);
        assert!(!store.is_empty(), "first solve publishes its root basis");

        // Second solve of the identical model: same column and row space, so
        // the stored basis loads hot and the answer is unchanged.
        let hot = covering_knapsack().solve_with(&opts).unwrap();
        assert_eq!(hot.stats().basis_tier, BasisTier::Hot);
        assert!((hot.objective() - cold.objective()).abs() < 1e-9);
        assert_eq!(hot.optimality(), Optimality::Proven);
        let (hits, _, published) = store.stats();
        assert!(hits >= 1);
        assert!(published >= 2, "both solves publish");
    }

    #[test]
    fn basis_store_fewer_rows_seed_is_warm() {
        use crate::{BasisStore, BasisTier, Var};
        use std::sync::Arc;

        let store = Arc::new(BasisStore::new(8));
        let key = 0xcafe_u64;
        let opts = SolveOptions::default().with_basis_store(Arc::clone(&store), key, key);
        let base = covering_knapsack().solve_with(&opts).unwrap();
        assert_eq!(base.stats().basis_tier, BasisTier::Cold);
        assert!(
            !store.is_empty(),
            "the first solve publishes its root basis"
        );

        // The same model plus one valid row that presolve keeps: the
        // optimum picks far fewer than 9 of the 10 binaries, and the row's
        // maximum activity 10 exceeds its bound. The stored basis then has
        // one row fewer than the new root and loads by slack extension.
        let mut grown = covering_knapsack();
        let count: crate::LinExpr = (0..10).map(|i| 1.0 * Var(i)).sum();
        grown.add_le(count, 9.0);
        let load_only = SolveOptions::default().with_basis_store(Arc::clone(&store), key, 0);
        let warm = grown.solve_with(&load_only).unwrap();
        assert_eq!(warm.stats().basis_tier, BasisTier::Warm);
        assert_eq!(warm.optimality(), Optimality::Proven);

        let unkeyed = grown.solve_with(&SolveOptions::default()).unwrap();
        assert_eq!(unkeyed.stats().basis_tier, BasisTier::Cold);
        assert!((warm.objective() - unkeyed.objective()).abs() < 1e-9);
        assert!((warm.objective() - base.objective()).abs() < 1e-9);
    }

    #[test]
    fn basis_store_mismatched_key_stays_cold() {
        use crate::{BasisStore, BasisTier};
        use std::sync::Arc;

        let store = Arc::new(BasisStore::new(8));
        let first = SolveOptions::default().with_basis_store(Arc::clone(&store), 1, 1);
        covering_knapsack().solve_with(&first).unwrap();
        // Loading under a different key misses; the solve stays cold and
        // still reaches the same proven optimum.
        let second = SolveOptions::default().with_basis_store(Arc::clone(&store), 2, 2);
        let s = covering_knapsack().solve_with(&second).unwrap();
        assert_eq!(s.stats().basis_tier, BasisTier::Cold);
        assert_eq!(s.optimality(), Optimality::Proven);
    }

    #[test]
    fn basis_store_warm_start_off_ignores_store() {
        use crate::{BasisStore, BasisTier};
        use std::sync::Arc;

        let store = Arc::new(BasisStore::new(8));
        let opts = SolveOptions::default().with_basis_store(Arc::clone(&store), 5, 5);
        covering_knapsack().solve_with(&opts).unwrap();
        let no_warm = opts.clone().with_warm_start(false);
        let s = covering_knapsack().solve_with(&no_warm).unwrap();
        assert_eq!(s.stats().basis_tier, BasisTier::Cold);
    }
}

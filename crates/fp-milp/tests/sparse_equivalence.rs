//! The LP kernel against ground truth. The sparse revised simplex is the
//! solver's only kernel, so every suite here checks its proven answers
//! against optima known without it: the classics' known optima, the
//! hand-derived optima of degenerate structure (duplicated equalities,
//! rank-deficient row sets, zero-cost ties), and exhaustive enumeration of
//! the seeded random MILPs. A highly degenerate instance runs under a hard
//! pivot-count watchdog so a cycling regression fails fast instead of
//! hanging the suite. The differential check of the kernel against the
//! dense reference tableau lives in `simplex.rs`'s unit tests.

mod common;

use common::{classic_cases, random_milp};
use fp_milp::{LinExpr, Model, Optimality, Sense, Solution, SolveError, Var};
use std::sync::mpsc;
use std::time::Duration;

const TOL: f64 = 1e-9;

/// Generous wall-clock bound for the watchdog solves; a cycling kernel
/// shows up as a test failure, not a hung suite.
const WATCHDOG: Duration = Duration::from_secs(60);

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

/// Solves `model` with the default options expecting proven optimality
/// and a feasible incumbent; returns the solution for stats inspection.
fn proven(model: &Model, what: &str) -> Solution {
    let sol = model.solve().unwrap_or_else(|e| panic!("{what}: {e:?}"));
    assert_eq!(
        sol.optimality(),
        Optimality::Proven,
        "{what} hit a limit instead of proving optimality"
    );
    assert!(
        model.is_feasible(sol.values(), 1e-6),
        "{what}: proven incumbent violates the model"
    );
    sol
}

#[test]
fn classics_reach_known_optima() {
    for (name, build) in classic_cases() {
        let (model, expected) = build();
        let obj = proven(&model, name).objective();
        assert!(
            close(obj, expected),
            "{name}: {obj} != known optimum {expected}"
        );
    }
}

/// The optimum of a seeded `random_milp` by exhaustive enumeration. Its
/// variables are the binaries followed by the continuous `y`, which the
/// objective rewards and only `y <= Σ b` and `y <= n` bound, so at the
/// optimum `y` equals the number of binaries picked.
fn enumerated_optimum(model: &Model) -> f64 {
    let n = model.num_vars() - 1;
    assert!(n <= 12, "{n} binaries is too many to enumerate");
    let mut best = f64::NEG_INFINITY;
    let mut values = vec![0.0; n + 1];
    for mask in 0u32..1 << n {
        for (i, v) in values[..n].iter_mut().enumerate() {
            *v = f64::from((mask >> i) & 1);
        }
        values[n] = f64::from(mask.count_ones());
        if model.is_feasible(&values, 1e-9) {
            best = best.max(model.objective_expr().eval(&values));
        }
    }
    best
}

#[test]
fn seeded_models_match_exhaustive_enumeration() {
    let mut refactors = 0usize;
    for seed in 0..32u64 {
        let model = random_milp(seed);
        let what = format!("seed {seed}");
        let sol = proven(&model, &what);
        let want = enumerated_optimum(&model);
        assert!(
            close(sol.objective(), want),
            "{what}: proven {} != enumerated {want}",
            sol.objective()
        );
        refactors += sol.stats().refactorizations;
    }
    // Every node LP factorizes at least once on load, so a sweep that
    // never refactorized means the counters are broken.
    assert!(refactors > 0, "sweep reported no factorizations");
}

/// Duplicated equality rows: the slack of every copy is pinned to `[0, 0]`
/// and only one copy can sit in a nonsingular basis, so cold starts must
/// lean on the artificial handling and warm starts on the singularity
/// fallback. By hand: `b = 1` allows `x = 4, y = 2` for 13, `b = 0` forces
/// `x = 0, y = 6` for 6.
#[test]
fn duplicated_equalities_reach_hand_optimum() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_continuous("x", 0.0, 10.0);
    let y = m.add_continuous("y", 0.0, 10.0);
    let b = m.add_binary("b");
    for _ in 0..4 {
        m.add_eq(x + y, 6.0);
    }
    m.add_le(x - 4.0 * b, 0.0);
    m.set_objective(2.0 * x + y + 3.0 * b);
    let obj = proven(&m, "duplicated_equalities").objective();
    assert!(close(obj, 13.0), "{obj} != 13");
}

/// Contradictory duplicated equalities: the solver must prove
/// infeasibility, not stall on the rank-deficient row set.
#[test]
fn contradictory_duplicates_are_infeasible() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_continuous("x", 0.0, 10.0);
    let y = m.add_continuous("y", 0.0, 10.0);
    m.add_eq(x + y, 1.0);
    m.add_eq(x + y, 1.0);
    m.add_eq(x + y, 2.0);
    m.set_objective(x + y);
    assert_eq!(
        m.solve().map(|s| s.objective()),
        Err(SolveError::Infeasible),
        "missed the contradiction"
    );
}

/// Rank-deficient row set: scaled copies and a summed row add nothing to
/// the span, leaving several basis candidates singular. By hand: each unit
/// of `x` costs 1 plus half an integer unit of `z` at 3, each unit of `y`
/// costs 2, so `y = 4` and `x = z = 0` give 8 (against 9 for `x = y = 2`
/// and 10 for `x = 4`).
#[test]
fn rank_deficient_rows_reach_hand_optimum() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_continuous("x", 0.0, 20.0);
    let y = m.add_continuous("y", 0.0, 20.0);
    let z = m.add_integer("z", 0.0, 5.0);
    m.add_ge(x + y, 4.0);
    m.add_ge(2.0 * x + 2.0 * y, 8.0); // 2 × the first row
    m.add_ge(x + y + 0.0 * z, 4.0); // same face again
    m.add_ge(3.0 * x + 3.0 * y, 12.0); // and again, rescaled
    m.add_ge(1.0 * z - 0.5 * x, 0.0);
    m.set_objective(x + 2.0 * y + 3.0 * z);
    let obj = proven(&m, "rank_deficient_rows").objective();
    assert!(close(obj, 8.0), "{obj} != 8");
}

/// Zero-cost ties: every vertex of the assignment polytope is optimal, so
/// pricing breaks ties constantly. Every assignment picks four cells at
/// 1.25 each, so the optimum is 5.
#[test]
fn zero_cost_ties_reach_hand_optimum() {
    let n = 4usize;
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<Var>> = (0..n)
        .map(|i| (0..n).map(|j| m.add_binary(format!("x{i}{j}"))).collect())
        .collect();
    for i in 0..n {
        let row: LinExpr = x[i].iter().map(|&v| 1.0 * v).sum();
        m.add_eq(row, 1.0);
        let col: LinExpr = x.iter().map(|r| 1.0 * r[i]).sum();
        m.add_eq(col, 1.0);
    }
    // Uniform costs: the objective is 5 at every feasible point.
    let obj: LinExpr = x.iter().flatten().map(|&v| 1.25 * v).sum();
    m.set_objective(obj);
    let got = proven(&m, "zero_cost_ties").objective();
    assert!(close(got, 5.0), "{got} != 5");
}

/// A transportation-style instance with massive primal degeneracy (every
/// supply equals every demand, uniform costs) solved under both a
/// wall-clock watchdog and a hard pivot budget: anti-cycling (the Bland
/// fallback) must terminate the kernel in bounded work. By hand: any
/// permutation with `t00 = 1` ships six units at 2 and needs no `pick`,
/// so the optimum is 12.
#[test]
fn degenerate_instance_respects_pivot_watchdog() {
    let n = 6usize;
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<Var>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| m.add_continuous(format!("t{i}{j}"), 0.0, 1.0))
                .collect()
        })
        .collect();
    for i in 0..n {
        let row: LinExpr = x[i].iter().map(|&v| 1.0 * v).sum();
        m.add_eq(row, 1.0);
        let col: LinExpr = x.iter().map(|r| 1.0 * r[i]).sum();
        m.add_eq(col, 1.0);
    }
    // One binary so the solve still exercises the branch-and-bound path.
    let pick = m.add_binary("pick");
    m.add_ge(x[0][0] + 1.0 * pick, 1.0);
    let cost: LinExpr = x.iter().flatten().map(|&v| 2.0 * v).sum();
    m.set_objective(cost + 0.5 * pick);

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(m.solve());
    });
    let sol = rx
        .recv_timeout(WATCHDOG)
        .expect("solver cycled past the watchdog")
        .unwrap_or_else(|e| panic!("{e:?}"));
    assert_eq!(sol.optimality(), Optimality::Proven);
    assert!(close(sol.objective(), 12.0), "{}", sol.objective());
    // Hard pivot budget: a healthy solve of this instance takes tens of
    // pivots; anything in the thousands means the anti-cycling switch
    // failed and the iteration cap bailed us out instead.
    assert!(
        sol.stats().simplex_iterations < 2_000,
        "{} pivots on a 6x6 degenerate transportation instance",
        sol.stats().simplex_iterations
    );
}

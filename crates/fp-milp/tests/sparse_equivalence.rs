//! Dense vs sparse kernel equivalence: the sparse revised simplex is a
//! performance lever, never a semantics lever. Every suite here solves the
//! same model on the dense reference tableau (`with_sparse(false)`) and on
//! the sparse LU + eta-file kernel (the default), and requires identical
//! proven objectives and identical feasibility verdicts.
//! Degenerate structure — duplicated equalities, rank-deficient row sets,
//! zero-cost ties — gets its own cases, and a highly degenerate instance
//! runs under a hard pivot-count watchdog so a cycling regression fails
//! fast instead of hanging the suite.

mod common;

use common::{classic_cases, random_milp};
use fp_milp::{
    LinExpr, Model, Optimality, Sense, Solution, SolveError, SolveOptions, SparseMode, Var,
};
use std::sync::mpsc;
use std::time::Duration;

const TOL: f64 = 1e-9;

/// Generous wall-clock bound for the watchdog solves; a cycling kernel
/// shows up as a test failure, not a hung suite.
const WATCHDOG: Duration = Duration::from_secs(60);

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

fn dense() -> SolveOptions {
    SolveOptions::default().with_sparse(false)
}

fn sparse() -> SolveOptions {
    SolveOptions::default().with_sparse(true)
}

/// Solves `model` under `opts` expecting proven optimality and a feasible
/// incumbent; returns the solution for stats inspection.
fn proven(model: &Model, opts: &SolveOptions, what: &str) -> Solution {
    let sol = model
        .solve_with(opts)
        .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    assert_eq!(
        sol.optimality(),
        Optimality::Proven,
        "{what} hit a limit instead of proving optimality"
    );
    assert!(
        model.is_feasible(sol.values(), 1e-6),
        "{what}: proven incumbent violates the model"
    );
    if opts.sparse == SparseMode::Dense {
        let stats = sol.stats();
        assert_eq!(
            (stats.refactorizations, stats.eta_updates),
            (0, 0),
            "{what}: dense kernel must not report factorization work"
        );
    }
    sol
}

/// Solves on both kernels and requires the two proven objectives to
/// coincide; returns the agreed objective.
fn assert_kernels_agree(model: &Model, what: &str) -> f64 {
    let d = proven(model, &dense(), &format!("{what} [dense]")).objective();
    let s = proven(model, &sparse(), &format!("{what} [sparse]")).objective();
    assert!(close(d, s), "{what}: dense {d} != sparse {s}");
    d
}

#[test]
fn classics_agree_dense_vs_sparse() {
    for (name, build) in classic_cases() {
        let (model, expected) = build();
        let obj = assert_kernels_agree(&model, name);
        assert!(
            close(obj, expected),
            "{name}: {obj} != known optimum {expected}"
        );
    }
}

/// `SparseMode::Auto` is a dispatch policy, never a semantics lever: on
/// every classic case it must prove the same objective as both forced
/// kernels, whichever side of the size threshold the instance lands on.
#[test]
fn auto_mode_matches_forced_kernels() {
    for (name, build) in classic_cases() {
        let (model, expected) = build();
        let opts = SolveOptions::default().with_sparse_mode(SparseMode::Auto);
        let obj = proven(&model, &opts, &format!("{name} [auto]")).objective();
        assert!(
            close(obj, expected),
            "{name} [auto]: {obj} != known optimum {expected}"
        );
    }
}

#[test]
fn seeded_models_agree_dense_vs_sparse() {
    let mut refactors = 0usize;
    for seed in 0..32u64 {
        let model = random_milp(seed);
        let what = format!("seed {seed}");
        let d = proven(&model, &dense(), &format!("{what} [dense]"));
        let s = proven(&model, &sparse(), &format!("{what} [sparse]"));
        let (dobj, sobj) = (d.objective(), s.objective());
        assert!(close(dobj, sobj), "{what}: dense {dobj} != sparse {sobj}");
        refactors += s.stats().refactorizations;
    }
    // Every sparse node LP factorizes at least once on load, so a sweep
    // that never refactorized means the counters (or the dispatch to the
    // sparse kernel) are broken.
    assert!(refactors > 0, "sparse sweep reported no factorizations");
}

/// Duplicated equality rows: the slack of every copy is pinned to `[0, 0]`
/// and only one copy can sit in a nonsingular basis, so cold starts must
/// lean on the artificial handling and warm starts on the singularity
/// fallback.
#[test]
fn duplicated_equalities_agree() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_continuous("x", 0.0, 10.0);
    let y = m.add_continuous("y", 0.0, 10.0);
    let b = m.add_binary("b");
    for _ in 0..4 {
        m.add_eq(x + y, 6.0);
    }
    m.add_le(x - 4.0 * b, 0.0);
    m.set_objective(2.0 * x + y + 3.0 * b);
    let obj = assert_kernels_agree(&m, "duplicated_equalities");
    assert!(close(obj, 13.0), "{obj} != 13");
}

/// Contradictory duplicated equalities: both kernels must prove
/// infeasibility, not disagree or stall on the rank-deficient row set.
#[test]
fn contradictory_duplicates_are_infeasible_on_both_kernels() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_continuous("x", 0.0, 10.0);
    let y = m.add_continuous("y", 0.0, 10.0);
    m.add_eq(x + y, 1.0);
    m.add_eq(x + y, 1.0);
    m.add_eq(x + y, 2.0);
    m.set_objective(x + y);
    for (opts, what) in [(dense(), "dense"), (sparse(), "sparse")] {
        assert_eq!(
            m.solve_with(&opts).map(|s| s.objective()),
            Err(SolveError::Infeasible),
            "{what} kernel missed the contradiction"
        );
    }
}

/// Rank-deficient row set: scaled copies and a summed row add nothing to
/// the span, leaving several basis candidates singular.
#[test]
fn rank_deficient_rows_agree() {
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
    let obj = assert_kernels_agree(&m, "rank_deficient_rows");
    assert!(close(obj, 8.0), "{obj} != 8");
}

/// Zero-cost ties: every vertex of the assignment polytope is optimal, so
/// pricing breaks ties constantly. Objectives must still agree exactly.
#[test]
fn zero_cost_ties_agree() {
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
    let got = assert_kernels_agree(&m, "zero_cost_ties");
    assert!(close(got, 5.0), "{got} != 5");
}

/// A transportation-style instance with massive primal degeneracy (every
/// supply equals every demand, uniform costs) solved under both a
/// wall-clock watchdog and a hard pivot budget: anti-cycling (the Bland
/// fallback) must terminate the sparse kernel in bounded work.
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

    for (opts, what) in [(dense(), "dense"), (sparse(), "sparse")] {
        let (tx, rx) = mpsc::channel();
        let model = m.clone();
        std::thread::spawn(move || {
            let _ = tx.send(model.solve_with(&opts));
        });
        let sol = rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("{what}: solver cycled past the watchdog"))
            .unwrap_or_else(|e| panic!("{what}: {e:?}"));
        assert_eq!(sol.optimality(), Optimality::Proven, "{what}");
        assert!(close(sol.objective(), 12.0), "{what}: {}", sol.objective());
        // Hard pivot budget: a healthy solve of this instance takes tens of
        // pivots; anything in the thousands means the anti-cycling switch
        // failed and the iteration cap bailed us out instead.
        assert!(
            sol.stats().simplex_iterations < 2_000,
            "{what}: {} pivots on a 6x6 degenerate transportation instance",
            sol.stats().simplex_iterations
        );
    }
}

/// The refactorization interval is a drift-control knob, not a semantics
/// knob: factorizing after every pivot and (nearly) never must both land
/// on the reference objective.
#[test]
fn refactor_interval_extremes_agree() {
    for seed in [2u64, 7, 11] {
        let model = random_milp(seed);
        let what = format!("seed {seed}");
        let reference = proven(&model, &dense(), &format!("{what} [dense]")).objective();
        for interval in [1usize, 1_000_000] {
            let opts = sparse().with_refactor_interval(interval);
            let got = proven(&model, &opts, &format!("{what} [interval {interval}]")).objective();
            assert!(
                close(reference, got),
                "{what}: interval {interval} drifted: {got} != {reference}"
            );
        }
    }
}

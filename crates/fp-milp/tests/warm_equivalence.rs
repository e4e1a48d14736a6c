//! Warm-start equivalence: warm-started dual simplex is a performance
//! lever, never a semantics lever. Every suite here solves the same model
//! cold (`with_warm_start(false)`, the pre-warm-start behavior) and warm,
//! and requires identical proven objectives.

mod common;

use common::{classic_cases, random_milp};
use fp_milp::{Model, Optimality, Sense, SolveOptions};

const TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

/// Solves `model` under `opts` expecting proven optimality.
fn proven(model: &Model, opts: &SolveOptions, what: &str) -> f64 {
    let sol = model
        .solve_with(opts)
        .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    assert_eq!(
        sol.optimality(),
        Optimality::Proven,
        "{what} hit a limit instead of proving optimality"
    );
    let stats = sol.stats();
    assert_eq!(
        stats.warm_nodes + stats.cold_nodes,
        stats.nodes,
        "{what}: warm/cold counts must partition the node count"
    );
    if !opts.warm_start {
        assert_eq!(stats.warm_nodes, 0, "{what}: warm solves while disabled");
    }
    sol.objective()
}

#[test]
fn classics_agree_cold_vs_warm() {
    for (name, build) in classic_cases() {
        let (model, expected) = build();
        let cold = proven(
            &model,
            &SolveOptions::default().with_warm_start(false),
            name,
        );
        let warm = proven(&model, &SolveOptions::default(), name);
        assert!(close(cold, expected), "{name}: cold {cold} != {expected}");
        assert!(close(warm, expected), "{name}: warm {warm} != {expected}");
    }
}

#[test]
fn seeded_models_agree_cold_vs_warm() {
    let mut warm_total = 0usize;
    for seed in 0..20u64 {
        let model = random_milp(seed);
        let what = format!("seed {seed}");
        let cold = proven(
            &model,
            &SolveOptions::default().with_warm_start(false),
            &what,
        );
        let warm_sol = model
            .solve_with(&SolveOptions::default())
            .expect("feasible");
        assert_eq!(warm_sol.optimality(), Optimality::Proven, "{what}");
        assert!(
            close(cold, warm_sol.objective()),
            "{what}: warm {} != cold {cold}",
            warm_sol.objective()
        );
        warm_total += warm_sol.stats().warm_nodes;
    }
    // Individually a tiny tree may solve all-cold; across 20 seeds the
    // warm path must have engaged somewhere, or warm starts are dead code.
    assert!(
        warm_total > 0,
        "no warm node solves across the entire seeded set"
    );
}

/// A degenerate LP relaxation: duplicated equality rows make the basis
/// singular to refactorize for one child after branching, exercising the
/// cold-restart fallback without changing the optimum.
#[test]
fn degenerate_duplicated_rows_fall_back_and_stay_correct() {
    let build = || {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_continuous("z", 0.0, 2.0);
        // The same equality three times over: any basis carrying two of
        // the duplicate slacks is singular on the structural columns.
        for _ in 0..3 {
            m.add_eq(1.0 * x + 1.0 * y + 1.0 * z, 2.0);
        }
        m.add_le(1.0 * x + 1.0 * y, 1.0);
        m.set_objective(3.0 * x + 2.0 * y + 1.0 * z);
        m
    };
    let cold = proven(
        &build(),
        &SolveOptions::default().with_warm_start(false),
        "degenerate cold",
    );
    let warm = proven(&build(), &SolveOptions::default(), "degenerate warm");
    assert!(close(cold, warm), "degenerate: warm {warm} != cold {cold}");
}

/// A pivot cap of 1 starves almost every dual re-optimization, forcing
/// the fallback path; results must not change.
#[test]
fn tiny_pivot_cap_only_costs_time() {
    for seed in [2u64, 7, 11] {
        let model = random_milp(seed);
        let what = format!("capped seed {seed}");
        let cold = proven(
            &model,
            &SolveOptions::default().with_warm_start(false),
            &what,
        );
        let capped_opts = SolveOptions::default().with_warm_pivot_cap(1);
        let capped_sol = model.solve_with(&capped_opts).expect("feasible");
        assert_eq!(capped_sol.optimality(), Optimality::Proven, "{what}");
        assert!(
            close(cold, capped_sol.objective()),
            "{what}: capped {} != cold {cold}",
            capped_sol.objective()
        );
        let stats = capped_sol.stats();
        assert_eq!(stats.warm_nodes + stats.cold_nodes, stats.nodes, "{what}");
        if stats.nodes > 1 {
            assert!(
                stats.cold_nodes > 1,
                "{what}: a 1-pivot cap should force cold fallbacks \
                 (got {} cold of {} nodes)",
                stats.cold_nodes,
                stats.nodes
            );
        }
    }
}

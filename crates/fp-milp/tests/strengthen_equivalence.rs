//! Strengthening equivalence: probing presolve, coefficient tightening and
//! root cuts are a performance lever, never a semantics lever. Every suite
//! solves the same model with strengthening off (`with_strengthen(false)`,
//! the pre-strengthening behavior) and on, and requires identical proven
//! objectives plus feasibility of the returned point in the *original*
//! model.

mod common;

use common::{classic_cases, random_milp};
use fp_milp::{Model, Optimality, SolveOptions};

const TOL: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

/// Solves `model` under `opts` expecting proven optimality; returns the
/// objective after asserting the point satisfies the original model.
fn proven(model: &Model, opts: &SolveOptions, what: &str) -> f64 {
    let sol = model
        .solve_with(opts)
        .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    assert_eq!(
        sol.optimality(),
        Optimality::Proven,
        "{what} hit a limit instead of proving optimality"
    );
    assert!(
        model.is_feasible(sol.values(), FEAS_TOL),
        "{what}: returned point violates the original (unstrengthened) model"
    );
    let stats = sol.stats();
    if !opts.strengthen {
        assert_eq!(
            (
                stats.rows_tightened,
                stats.binaries_fixed,
                stats.implications,
                stats.cuts_added
            ),
            (0, 0, 0, 0),
            "{what}: strengthening counters moved while disabled"
        );
    }
    sol.objective()
}

#[test]
fn classics_agree_strengthen_on_vs_off() {
    for (name, build) in classic_cases() {
        let (model, expected) = build();
        let off = proven(
            &model,
            &SolveOptions::default().with_strengthen(false),
            name,
        );
        let on = proven(&model, &SolveOptions::default(), name);
        assert!(close(off, expected), "{name}: off {off} != {expected}");
        assert!(close(on, expected), "{name}: on {on} != {expected}");
    }
}

#[test]
fn seeded_models_agree_strengthen_on_vs_off() {
    let mut engaged = 0usize;
    for seed in 0..20u64 {
        let model = random_milp(seed);
        let what = format!("seed {seed}");
        let off = proven(
            &model,
            &SolveOptions::default().with_strengthen(false),
            &what,
        );
        let on_sol = model
            .solve_with(&SolveOptions::default())
            .expect("feasible");
        assert_eq!(on_sol.optimality(), Optimality::Proven, "{what}");
        assert!(
            model.is_feasible(on_sol.values(), FEAS_TOL),
            "{what}: strengthened point infeasible in the original model"
        );
        assert!(
            close(off, on_sol.objective()),
            "{what}: on {} != off {off}",
            on_sol.objective()
        );
        let stats = on_sol.stats();
        engaged +=
            stats.rows_tightened + stats.binaries_fixed + stats.implications + stats.cuts_added;
    }
    // Individually a model may offer nothing to tighten; across 20 seeds
    // the strengthening layer must have engaged somewhere, or it is dead
    // code behind a default-on flag.
    assert!(
        engaged > 0,
        "no tightened rows, fixings, implications or cuts across the seeded set"
    );
}

/// Starved knobs must degrade to exactly the off behavior, never to a
/// half-strengthened model with different semantics.
#[test]
fn zero_budgets_match_off_objectives() {
    for seed in [1u64, 5, 13] {
        let model = random_milp(seed);
        let what = format!("starved seed {seed}");
        let off = proven(
            &model,
            &SolveOptions::default().with_strengthen(false),
            &what,
        );
        let starved = SolveOptions::default()
            .with_probe_budget(0)
            .with_max_cuts(0);
        let starved_obj = proven(&model, &starved, &what);
        assert!(
            close(off, starved_obj),
            "{what}: starved {starved_obj} != off {off}"
        );
    }
}

/// Strengthening composes with warm starts disabled: the cuts land in the
/// root rows before the tree starts, so the cold path must see them too.
#[test]
fn strengthening_composes_with_cold_solves() {
    for (name, build) in classic_cases() {
        let (model, expected) = build();
        let cold_on = proven(
            &model,
            &SolveOptions::default().with_warm_start(false),
            name,
        );
        assert!(
            close(cold_on, expected),
            "{name}: cold+strengthen {cold_on} != {expected}"
        );
    }
}

//! Determinism: a solve depends only on the model and the options. Solving
//! the same model again must return the same point, objective and search
//! statistics bit for bit, on the classics with known optima and on a
//! battery of seeded random MILPs.
//!
//! Instance builders live in [`common`] and are shared with the
//! `traced_solve` suite.

mod common;

use common::{classic_cases, random_milp};
use fp_milp::{Model, Optimality, Solution, SolveOptions};
use std::time::Duration;

/// Solves `m` twice. The first solve must be proven and feasible, and the
/// second must repeat it bit for bit, wall-clock time aside.
fn solve_twice(m: &Model, label: &str) -> Solution {
    let a = m.solve_with(&SolveOptions::default()).expect("first solve");
    let b = m
        .solve_with(&SolveOptions::default())
        .expect("second solve");
    assert_eq!(a.optimality(), Optimality::Proven, "{label}: not proven");
    assert!(m.is_feasible(a.values(), 1e-6), "{label}: point infeasible");
    let bits = |s: &Solution| -> Vec<u64> { s.values().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&a), bits(&b), "{label}: values differ");
    assert_eq!(
        a.objective().to_bits(),
        b.objective().to_bits(),
        "{label}: objectives differ"
    );
    assert_eq!(a.optimality(), b.optimality(), "{label}");
    let untimed = |s: &Solution| {
        let mut stats = s.stats().clone();
        stats.elapsed = Duration::ZERO;
        stats
    };
    assert_eq!(
        untimed(&a),
        untimed(&b),
        "{label}: search statistics differ"
    );
    a
}

#[test]
fn classics_resolve_bit_identically() {
    for (label, build) in classic_cases() {
        let (m, expected) = build();
        let s = solve_twice(&m, label);
        assert!(
            (s.objective() - expected).abs() < 1e-6,
            "{label}: objective {} != known optimum {expected}",
            s.objective()
        );
    }
}

#[test]
fn random_models_resolve_bit_identically() {
    for seed in 0..20u64 {
        solve_twice(&random_milp(seed), &format!("random_milp(seed {seed})"));
    }
}

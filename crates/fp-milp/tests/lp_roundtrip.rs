//! LP-format golden round-trip: fixture decks in `tests/fixtures/` parse,
//! solve to their known optima, survive `to_lp_string` → `parse_lp` →
//! re-solve.
//!
//! This pins the export/import dialect: if either side of the round-trip
//! drifts (signs, sections, bounds, integrality markers), a fixture's
//! re-solved optimum changes and the test fails.

use fp_milp::{parse_lp, Model, Optimality, SolveOptions};
use std::path::PathBuf;

/// `(fixture file, known optimal objective)`.
const CASES: &[(&str, f64)] = &[
    ("knapsack.lp", 20.0),
    ("assignment.lp", 6.0),
    ("flow.lp", 34.0),
    ("negative_integer.lp", 0.0),
];

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

fn solve_proven(m: &Model, label: &str) -> f64 {
    let s = m
        .solve_with(&SolveOptions::default())
        .unwrap_or_else(|e| panic!("{label}: solve failed: {e:?}"));
    assert_eq!(s.optimality(), Optimality::Proven, "{label}");
    assert!(m.is_feasible(s.values(), 1e-6), "{label}: point infeasible");
    s.objective()
}

#[test]
fn fixtures_solve_to_known_optima() {
    for &(file, expected) in CASES {
        let m = parse_lp(&fixture(file)).unwrap_or_else(|e| panic!("{file}: parse: {e:?}"));
        let obj = solve_proven(&m, file);
        assert!(
            (obj - expected).abs() < 1e-6,
            "{file}: objective {obj} != known optimum {expected}"
        );
    }
}

#[test]
fn write_parse_resolve_reproduces_optimum() {
    for &(file, expected) in CASES {
        let original = parse_lp(&fixture(file)).unwrap();
        let text = original.to_lp_string();
        let reparsed =
            parse_lp(&text).unwrap_or_else(|e| panic!("{file}: re-parse of export: {e:?}\n{text}"));
        let obj = solve_proven(&reparsed, file);
        assert!(
            (obj - expected).abs() < 1e-6,
            "{file}: round-tripped objective {obj} != {expected}"
        );
        // A second round-trip must be a fixed point objective-wise too.
        let twice = parse_lp(&reparsed.to_lp_string()).unwrap();
        let obj2 = solve_proven(&twice, file);
        assert!((obj2 - expected).abs() < 1e-6, "{file}: second round-trip");
    }
}

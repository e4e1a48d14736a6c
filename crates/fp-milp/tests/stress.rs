//! Larger-scale robustness tests for the solver: these sizes exceed
//! anything the floorplanner generates per step, guarding headroom.

use fp_milp::{LinExpr, Model, Optimality, Sense, SolveOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A dense 120-variable LP with 120 rows solves to proven optimality well
/// inside the iteration caps.
#[test]
fn dense_lp_120() {
    let n = 120;
    let mut rng = StdRng::seed_from_u64(9);
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_continuous(format!("x{i}"), 0.0, 10.0))
        .collect();
    for _ in 0..n {
        let mut e = LinExpr::new();
        let mut rhs = 1.0;
        for &v in &vars {
            let c: f64 = rng.gen_range(-1.0..2.0);
            e.add_term(v, c);
            rhs += c.max(0.0); // x = 1 feasible
        }
        m.add_le(e, rhs);
    }
    let obj: LinExpr = vars.iter().map(|&v| 1.0 * v).sum();
    m.set_objective(obj);
    let sol = m.solve().expect("feasible by construction");
    assert_eq!(sol.optimality(), Optimality::Proven);
    assert!(m.is_feasible(sol.values(), 1e-5));
    // Objective of all-zeros is 0; nothing forces positives, so optimum 0.
    assert!(sol.objective().abs() < 1e-6);
}

/// Badly scaled coefficients (1e-4 .. 1e4 spread) still solve correctly.
#[test]
fn poorly_scaled_lp() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_continuous("x", 0.0, 1e6);
    let y = m.add_continuous("y", 0.0, 1e6);
    m.add_ge(1e4 * x + 1e-4 * y, 2.0);
    m.add_ge(1e-4 * x + 1e4 * y, 2.0);
    m.set_objective(x + y);
    let sol = m.solve().unwrap();
    assert!(m.is_feasible(sol.values(), 1e-4));
    // Near-optimal point: x = y ≈ 2 / (1e4 + 1e-4).
    let expect = 2.0 / (1e4 + 1e-4) * 2.0;
    assert!(
        (sol.objective() - expect).abs() < 1e-6,
        "{}",
        sol.objective()
    );
}

/// A 60-binary MILP with block structure: optimal solution is forced by
/// construction, branch-and-bound must find it within the node budget.
#[test]
fn structured_milp_60_binaries() {
    // 20 groups of 3 binaries; exactly one per group; the middle one has
    // the best payoff in every group.
    let mut m = Model::new(Sense::Maximize);
    let mut obj = LinExpr::new();
    for g in 0..20 {
        let a = m.add_binary(format!("a{g}"));
        let b = m.add_binary(format!("b{g}"));
        let c = m.add_binary(format!("c{g}"));
        m.add_eq(a + b + c, 1.0);
        obj.add_term(a, 1.0);
        obj.add_term(b, 3.0);
        obj.add_term(c, 2.0);
    }
    m.set_objective(obj);
    let opts = SolveOptions::default().with_time_limit(Duration::from_secs(30));
    let sol = m.solve_with(&opts).unwrap();
    assert!((sol.objective() - 60.0).abs() < 1e-6);
    assert_eq!(sol.optimality(), Optimality::Proven);
}

/// Equality-constrained transportation problem (LP-integral): optimal cost
/// must match the known value and the basic solution must be integral even
/// without integer variables.
#[test]
fn transportation_problem() {
    // 2 supplies (30, 20), 3 demands (10, 25, 15); costs:
    //        d0  d1  d2
    //  s0     2   4   5
    //  s1     3   1   7
    // Optimal: s1 ships 20 to d1 (cost 20); s0 ships 10 to d0 (20),
    // 5 to d1 (20) and 15 to d2 (75): total 135.
    let mut m = Model::new(Sense::Minimize);
    let costs = [[2.0, 4.0, 5.0], [3.0, 1.0, 7.0]];
    let supply = [30.0, 20.0];
    let demand = [10.0, 25.0, 15.0];
    let mut x = Vec::new();
    for (s, row) in costs.iter().enumerate() {
        let mut r = Vec::new();
        for (d, _) in row.iter().enumerate() {
            r.push(m.add_continuous(format!("x{s}{d}"), 0.0, f64::INFINITY));
        }
        x.push(r);
    }
    for (s, &cap) in supply.iter().enumerate() {
        let e: LinExpr = x[s].iter().map(|&v| 1.0 * v).sum();
        m.add_eq(e, cap);
    }
    for (d, &need) in demand.iter().enumerate() {
        let e: LinExpr = x.iter().map(|row| 1.0 * row[d]).sum();
        m.add_eq(e, need);
    }
    let mut obj = LinExpr::new();
    for (s, row) in costs.iter().enumerate() {
        for (d, &c) in row.iter().enumerate() {
            obj.add_term(x[s][d], c);
        }
    }
    m.set_objective(obj);
    let sol = m.solve().unwrap();
    assert!(
        (sol.objective() - 135.0).abs() < 1e-6,
        "{}",
        sol.objective()
    );
}

/// Repeated solves of the same model are deterministic.
#[test]
fn deterministic_resolve() {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..15).map(|i| m.add_binary(format!("b{i}"))).collect();
    let w: LinExpr = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| ((i % 5) as f64 + 1.0) * v)
        .sum();
    m.add_le(w, 17.0);
    let val: LinExpr = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| ((i % 7) as f64 + 1.0) * v)
        .sum();
    m.set_objective(val);
    let opts = SolveOptions::default();
    let a = m.solve_with(&opts).unwrap();
    let b = m.solve_with(&opts).unwrap();
    assert_eq!(a.values(), b.values());
    assert_eq!(a.objective(), b.objective());
}

//! Shared MILP instance builders for the integration suites
//! (`determinism`, `traced_solve` and the equivalence suites).
//!
//! Each builder returns the model together with its known optimal
//! objective, so suites can assert proven optimality against ground truth.

#![allow(dead_code)] // each test binary uses a subset

use fp_milp::{LinExpr, Model, Sense, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named instance builder returning the model and its known optimum.
pub type CaseFn = fn() -> (Model, f64);

/// Every classic instance with a known optimum, for sweep-style suites.
pub fn classic_cases() -> Vec<(&'static str, CaseFn)> {
    vec![
        ("assignment_3x3", assignment_3x3),
        ("set_cover", set_cover),
        ("facility_location", facility_location),
        ("small_knapsack", small_knapsack),
        ("flow_conservation", flow_conservation),
        ("large_uniform_knapsack", large_uniform_knapsack),
        ("rotation_disjunction_chain", rotation_disjunction_chain),
        ("negative_bounds_ip", negative_bounds_ip),
    ]
}

pub fn assignment_3x3() -> (Model, f64) {
    let costs = [[9.0, 1.0, 8.0], [2.0, 9.0, 7.0], [8.0, 7.0, 3.0]];
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<Var>> = (0..3)
        .map(|i| (0..3).map(|j| m.add_binary(format!("x{i}{j}"))).collect())
        .collect();
    for (i, row_vars) in x.iter().enumerate() {
        let row: LinExpr = row_vars.iter().map(|&v| 1.0 * v).sum();
        m.add_eq(row, 1.0);
        let col: LinExpr = x.iter().map(|r| 1.0 * r[i]).sum();
        m.add_eq(col, 1.0);
    }
    let obj: LinExpr = (0..3)
        .flat_map(|i| (0..3).map(move |j| (i, j)))
        .map(|(i, j)| costs[i][j] * x[i][j])
        .sum();
    m.set_objective(obj);
    (m, 6.0)
}

pub fn set_cover() -> (Model, f64) {
    let sets: [&[usize]; 5] = [&[1, 2, 3], &[2, 4], &[3, 4], &[4, 5], &[1, 5]];
    let mut m = Model::new(Sense::Minimize);
    let picks: Vec<Var> = (0..5).map(|i| m.add_binary(format!("s{i}"))).collect();
    for element in 1..=5usize {
        let mut cover = LinExpr::new();
        for (k, set) in sets.iter().enumerate() {
            if set.contains(&element) {
                cover.add_term(picks[k], 1.0);
            }
        }
        m.add_ge(cover, 1.0);
    }
    let obj: LinExpr = picks.iter().map(|&p| 1.0 * p).sum();
    m.set_objective(obj);
    (m, 2.0)
}

pub fn facility_location() -> (Model, f64) {
    let open_cost = [10.0, 12.0];
    let serve = [[2.0, 9.0, 6.0], [8.0, 3.0, 4.0]];
    let mut m = Model::new(Sense::Minimize);
    let open: Vec<Var> = (0..2).map(|f| m.add_binary(format!("open{f}"))).collect();
    let assign: Vec<Vec<Var>> = (0..2)
        .map(|f| (0..3).map(|c| m.add_binary(format!("a{f}{c}"))).collect())
        .collect();
    for (&a0, &a1) in assign[0].iter().zip(&assign[1]) {
        m.add_eq(1.0 * a0 + 1.0 * a1, 1.0);
        m.add_le(1.0 * a0 - 1.0 * open[0], 0.0);
        m.add_le(1.0 * a1 - 1.0 * open[1], 0.0);
    }
    let mut obj = LinExpr::new();
    for f in 0..2 {
        obj.add_term(open[f], open_cost[f]);
        for c in 0..3 {
            obj.add_term(assign[f][c], serve[f][c]);
        }
    }
    m.set_objective(obj);
    (m, 27.0)
}

pub fn small_knapsack() -> (Model, f64) {
    let mut m = Model::new(Sense::Maximize);
    let a = m.add_binary("a");
    let b = m.add_binary("b");
    let c = m.add_binary("c");
    m.add_le(3.0 * a + 4.0 * b + 2.0 * c, 6.0);
    m.set_objective(10.0 * a + 13.0 * b + 7.0 * c);
    (m, 20.0)
}

pub fn flow_conservation() -> (Model, f64) {
    let mut m = Model::new(Sense::Minimize);
    let sa = m.add_continuous("sa", 0.0, 6.0);
    let sb = m.add_continuous("sb", 0.0, 10.0);
    let at = m.add_continuous("at", 0.0, 10.0);
    let bt = m.add_continuous("bt", 0.0, 10.0);
    m.add_eq(sa + sb, 10.0);
    m.add_eq(sa - at, 0.0);
    m.add_eq(sb - bt, 0.0);
    m.set_objective(1.0 * sa + 3.0 * sb + 2.0 * at + 1.0 * bt);
    (m, 34.0)
}

pub fn large_uniform_knapsack() -> (Model, f64) {
    let mut m = Model::new(Sense::Maximize);
    let mut weight = LinExpr::new();
    let mut value = LinExpr::new();
    for i in 0..40 {
        let b = m.add_binary(format!("b{i}"));
        weight.add_term(b, 2.0);
        value.add_term(b, 3.0);
    }
    m.add_le(weight, 40.0);
    m.set_objective(value);
    (m, 60.0)
}

pub fn rotation_disjunction_chain() -> (Model, f64) {
    let mut m = Model::new(Sense::Minimize);
    let l = m.add_continuous("L", 0.0, 100.0);
    let big = 100.0;
    let mut starts = Vec::new();
    let mut lens: Vec<LinExpr> = Vec::new();
    for i in 0..3 {
        let x = m.add_continuous(format!("x{i}"), 0.0, 100.0);
        let z = m.add_binary(format!("z{i}"));
        starts.push(x);
        lens.push(2.0 * z + 5.0 * (1.0 - z));
    }
    for i in 0..3 {
        m.add_le(starts[i] + lens[i].clone() - l, 0.0);
        for j in i + 1..3 {
            let p = m.add_binary(format!("p{i}{j}"));
            m.add_le(starts[i] + lens[i].clone() - starts[j] - big * p, 0.0);
            m.add_le(
                starts[j] + lens[j].clone() - starts[i] - big * (1.0 - p),
                0.0,
            );
        }
    }
    m.set_objective(l + 0.0);
    (m, 6.0)
}

pub fn negative_bounds_ip() -> (Model, f64) {
    // min x + y, x integer in [-5, 5], y >= 2x, y >= -x: optimum 0.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_integer("x", -5.0, 5.0);
    let y = m.add_continuous("y", f64::NEG_INFINITY, f64::INFINITY);
    m.add_ge(y - 2.0 * x, 0.0);
    m.add_ge(y + 1.0 * x, 0.0);
    m.set_objective(x + y);
    (m, 0.0)
}

/// A feasible-by-construction random MILP: a knapsack core, pairwise
/// conflict cuts, and a continuous coupling variable. The all-zeros point
/// is always feasible, so every instance has a proven optimum.
pub fn random_milp(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(6..13usize);
    let mut m = Model::new(Sense::Maximize);
    let bins: Vec<Var> = (0..n).map(|i| m.add_binary(format!("b{i}"))).collect();
    let mut weight = LinExpr::new();
    let mut value = LinExpr::new();
    let mut total_weight = 0.0;
    for &b in &bins {
        let w: f64 = rng.gen_range(1.0..20.0);
        weight.add_term(b, w);
        value.add_term(b, rng.gen_range(1.0..30.0));
        total_weight += w;
    }
    m.add_le(weight, total_weight * rng.gen_range(0.3..0.7));
    // A few pairwise conflicts to roughen the polytope.
    for _ in 0..n / 3 {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            m.add_le(1.0 * bins[i] + 1.0 * bins[j], 1.0);
        }
    }
    // Continuous coupling: y <= picked count, objective earns a little y.
    let y = m.add_continuous("y", 0.0, n as f64);
    let count: LinExpr = bins.iter().map(|&b| 1.0 * b).sum();
    m.add_le(y + -1.0 * count, 0.0);
    value.add_term(y, 0.5);
    m.set_objective(value);
    m
}

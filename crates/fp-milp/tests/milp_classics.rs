//! Classic optimization instances with known optima — deeper coverage of
//! the solver than the unit tests, exercising structures the floorplanner
//! does not (equalities in volume, assignment polytopes, covering).

use fp_milp::{LinExpr, Model, Optimality, Sense, SolveError, Var};

fn assert_obj(m: &Model, expected: f64) {
    let sol = m.solve().expect("feasible");
    assert_eq!(sol.optimality(), Optimality::Proven);
    assert!(
        (sol.objective() - expected).abs() < 1e-6,
        "objective {} != {expected}",
        sol.objective()
    );
    assert!(m.is_feasible(sol.values(), 1e-6));
}

#[test]
fn assignment_problem_3x3() {
    // Costs; optimal assignment 0->1, 1->0, 2->2 with cost 1+2+3 = 6.
    let costs = [[9.0, 1.0, 8.0], [2.0, 9.0, 7.0], [8.0, 7.0, 3.0]];
    let mut m = Model::new(Sense::Minimize);
    let mut x = [[Var::default_placeholder(); 3]; 3];
    for (i, xrow) in x.iter_mut().enumerate() {
        for (j, cell) in xrow.iter_mut().enumerate() {
            *cell = m.add_binary(format!("x{i}{j}"));
        }
    }
    for (i, xrow) in x.iter().enumerate() {
        let row: LinExpr = xrow.iter().map(|&v| 1.0 * v).sum();
        m.add_eq(row, 1.0);
        let col: LinExpr = (0..3).map(|j| 1.0 * x[j][i]).sum();
        m.add_eq(col, 1.0);
    }
    let obj: LinExpr = (0..3)
        .flat_map(|i| (0..3).map(move |j| (i, j)))
        .map(|(i, j)| costs[i][j] * x[i][j])
        .sum();
    m.set_objective(obj);
    assert_obj(&m, 6.0);
}

// Var has no public constructor; tests build placeholders via a tiny trait.
trait Placeholder {
    fn default_placeholder() -> Self;
}
impl Placeholder for Var {
    fn default_placeholder() -> Self {
        // Any valid handle works; it is overwritten before use.
        let mut m = Model::new(Sense::Minimize);
        m.add_binary("tmp")
    }
}

#[test]
fn set_cover() {
    // Universe {1..5}; sets A={1,2,3}, B={2,4}, C={3,4}, D={4,5}, E={1,5}.
    // Optimal cover: A + D (cost 2).
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
    assert_obj(&m, 2.0);
}

#[test]
fn facility_location() {
    // 2 facilities (open cost 10, 12), 3 clients; service costs:
    //          c0   c1   c2
    //   f0      2    9    6
    //   f1      8    3    4
    // Optimum: open both (10+12) + 2+3+4 = 31, vs single-facility
    // 10+2+9+6=27 or 12+8+3+4=27 -> single facility wins: 27.
    let open_cost = [10.0, 12.0];
    let serve = [[2.0, 9.0, 6.0], [8.0, 3.0, 4.0]];
    let mut m = Model::new(Sense::Minimize);
    let open: Vec<Var> = (0..2).map(|f| m.add_binary(format!("open{f}"))).collect();
    let mut assign = Vec::new();
    for f in 0..2 {
        let row: Vec<Var> = (0..3).map(|c| m.add_binary(format!("a{f}{c}"))).collect();
        assign.push(row);
    }
    #[allow(clippy::needless_range_loop)] // c indexes two parallel tables
    for c in 0..3 {
        m.add_eq(1.0 * assign[0][c] + 1.0 * assign[1][c], 1.0);
        for (f, &open_f) in open.iter().enumerate() {
            // Can only assign to open facilities.
            m.add_le(1.0 * assign[f][c] - 1.0 * open_f, 0.0);
        }
    }
    let mut obj = LinExpr::new();
    for f in 0..2 {
        obj.add_term(open[f], open_cost[f]);
        for c in 0..3 {
            obj.add_term(assign[f][c], serve[f][c]);
        }
    }
    m.set_objective(obj);
    assert_obj(&m, 27.0);
}

#[test]
fn integer_program_with_negative_bounds() {
    // min x + y with x in [-5, 5] integer, y continuous >= 2x, y >= -x.
    // Optimal: x = 0 is not it — try x = -5: y >= max(-10, 5) = 5 -> 0?
    // x=-5: y >= 5 (from y >= -x) -> obj 0. x=-2: y>=2 -> 0. x=0:y>=0 -> 0.
    // Hmm: obj = x + y >= x + max(2x, -x). For x<=0: = x - x = 0; x>0: 3x.
    // So optimum 0, attained at any x <= 0 with y = -x.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_integer("x", -5.0, 5.0);
    let y = m.add_continuous("y", f64::NEG_INFINITY, f64::INFINITY);
    m.add_ge(y - 2.0 * x, 0.0);
    m.add_ge(y + 1.0 * x, 0.0);
    m.set_objective(x + y);
    let sol = m.solve().unwrap();
    assert!(
        sol.objective().abs() < 1e-6,
        "objective {}",
        sol.objective()
    );
    let xv = sol.value(x);
    assert!((xv - xv.round()).abs() < 1e-6);
}

#[test]
fn fractional_lp_vs_integer_gap() {
    // max 7a + 5b subject to 3a + 2b <= 4 (binaries).
    // LP relaxation: b = 1 (best value/weight), a = 2/3 -> 29/3 ≈ 9.667;
    // MILP: a=1,b=0 -> 7 (beats a=0,b=1 -> 5).
    let mut m = Model::new(Sense::Maximize);
    let a = m.add_binary("a");
    let b = m.add_binary("b");
    m.add_le(3.0 * a + 2.0 * b, 4.0);
    m.set_objective(7.0 * a + 5.0 * b);
    let milp = m.solve().unwrap();
    let lp = m.solve_relaxation().unwrap();
    assert!((milp.objective() - 7.0).abs() < 1e-6);
    assert!((lp.objective() - 29.0 / 3.0).abs() < 1e-6);
    assert!(lp.objective() >= milp.objective());
}

#[test]
fn equality_heavy_flow_conservation() {
    // Min-cost flow on a 4-node diamond: s -> {a, b} -> t, supply 10.
    // Costs: s-a 1, s-b 3, a-t 2, b-t 1; caps: s-a 6, others 10.
    // Optimum: 6 via a (cost 18), 4 via b (cost 16) -> 34.
    let mut m = Model::new(Sense::Minimize);
    let sa = m.add_continuous("sa", 0.0, 6.0);
    let sb = m.add_continuous("sb", 0.0, 10.0);
    let at = m.add_continuous("at", 0.0, 10.0);
    let bt = m.add_continuous("bt", 0.0, 10.0);
    m.add_eq(sa + sb, 10.0); // supply
    m.add_eq(sa - at, 0.0); // conservation at a
    m.add_eq(sb - bt, 0.0); // conservation at b
    m.set_objective(1.0 * sa + 3.0 * sb + 2.0 * at + 1.0 * bt);
    assert_obj(&m, 34.0);
}

#[test]
fn infeasible_cover_reports_infeasible() {
    let mut m = Model::new(Sense::Minimize);
    let a = m.add_binary("a");
    m.add_ge(1.0 * a, 2.0);
    assert!(matches!(m.solve(), Err(SolveError::Infeasible(_))));
}

#[test]
fn large_knapsack_terminates_quickly() {
    // 40 items: stress DFS + pruning; optimum known by construction:
    // weights all 2, values all 3, capacity 40 -> take 20 items -> 60.
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
    assert_obj(&m, 60.0);
}

#[test]
fn mixed_rotation_disjunction_chain() {
    // Three 1-D segments with selectable lengths (rotation-like binary
    // swapping 2 <-> 5) packed on a line of length L minimized.
    // Optimal: all pick length 2 -> L = 6.
    let mut m = Model::new(Sense::Minimize);
    let l = m.add_continuous("L", 0.0, 100.0);
    let big = 100.0;
    let mut starts = Vec::new();
    let mut lens: Vec<LinExpr> = Vec::new();
    for i in 0..3 {
        let x = m.add_continuous(format!("x{i}"), 0.0, 100.0);
        let z = m.add_binary(format!("z{i}"));
        starts.push(x);
        lens.push(2.0 * z + 5.0 * (1.0 - z)); // z=1 -> 2, z=0 -> 5
    }
    for i in 0..3 {
        m.add_le(starts[i] + lens[i].clone() - l, 0.0);
        for j in i + 1..3 {
            let p = m.add_binary(format!("p{i}{j}"));
            // i before j or j before i.
            m.add_le(starts[i] + lens[i].clone() - starts[j] - big * p, 0.0);
            m.add_le(
                starts[j] + lens[j].clone() - starts[i] - big * (1.0 - p),
                0.0,
            );
        }
    }
    m.set_objective(l + 0.0);
    assert_obj(&m, 6.0);
}

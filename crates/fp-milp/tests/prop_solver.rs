//! Property-based tests: the solver is checked against brute force on tiny
//! random MILPs and against feasibility/optimality invariants on random LPs.

use fp_milp::{Cmp, LinExpr, Model, Optimality, Sense, SolveError};
use proptest::prelude::*;

/// A randomly generated pure-binary program plus its data for brute force.
#[derive(Debug, Clone)]
struct BinaryProgram {
    nvars: usize,
    /// rows: coefficients, cmp (0 = Le, 1 = Ge), rhs
    rows: Vec<(Vec<i32>, u8, i32)>,
    obj: Vec<i32>,
    maximize: bool,
}

fn binary_program() -> impl Strategy<Value = BinaryProgram> {
    (2usize..=7).prop_flat_map(|nvars| {
        let row = (
            proptest::collection::vec(-4i32..=4, nvars),
            0u8..=1,
            -6i32..=10,
        );
        (
            proptest::collection::vec(row, 1..=4),
            proptest::collection::vec(-5i32..=5, nvars),
            any::<bool>(),
        )
            .prop_map(move |(rows, obj, maximize)| BinaryProgram {
                nvars,
                rows,
                obj,
                maximize,
            })
    })
}

fn build_model(p: &BinaryProgram) -> (Model, Vec<fp_milp::Var>) {
    let mut m = Model::new(if p.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let vars: Vec<_> = (0..p.nvars)
        .map(|i| m.add_binary(format!("b{i}")))
        .collect();
    for (coeffs, cmp, rhs) in &p.rows {
        let mut e = LinExpr::new();
        for (v, &c) in vars.iter().zip(coeffs) {
            e.add_term(*v, f64::from(c));
        }
        let cmp = if *cmp == 0 { Cmp::Le } else { Cmp::Ge };
        m.add_constraint(e, cmp, f64::from(*rhs));
    }
    let mut obj = LinExpr::new();
    for (v, &c) in vars.iter().zip(&p.obj) {
        obj.add_term(*v, f64::from(c));
    }
    m.set_objective(obj);
    (m, vars)
}

/// Exhaustive optimum over all 2^n binary assignments, or None if infeasible.
fn brute_force(p: &BinaryProgram) -> Option<i64> {
    let mut best: Option<i64> = None;
    for mask in 0u32..(1 << p.nvars) {
        let x: Vec<i64> = (0..p.nvars).map(|i| i64::from(mask >> i & 1)).collect();
        let feasible = p.rows.iter().all(|(coeffs, cmp, rhs)| {
            let lhs: i64 = coeffs.iter().zip(&x).map(|(&c, &v)| i64::from(c) * v).sum();
            if *cmp == 0 {
                lhs <= i64::from(*rhs)
            } else {
                lhs >= i64::from(*rhs)
            }
        });
        if !feasible {
            continue;
        }
        let obj: i64 = p.obj.iter().zip(&x).map(|(&c, &v)| i64::from(c) * v).sum();
        best = Some(match best {
            None => obj,
            Some(b) => {
                if p.maximize {
                    b.max(obj)
                } else {
                    b.min(obj)
                }
            }
        });
    }
    best
}

/// Builds the witness-feasible random LP shared by the LP properties: each
/// row is `a·x <= a·witness + slack`, so `witness` is always feasible.
/// Returns the model and the witness's objective value.
fn witness_lp(
    witness: &[f64],
    coeff_rows: &[Vec<i32>],
    obj: &[i32],
    slacks: &[f64],
) -> (Model, f64) {
    let n = witness.len();
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_continuous(format!("x{i}"), 0.0, 20.0))
        .collect();
    for (coeffs, slack) in coeff_rows.iter().zip(slacks) {
        let mut e = LinExpr::new();
        let mut rhs = *slack;
        for (v, (&c, w)) in vars.iter().zip(coeffs.iter().zip(witness)) {
            e.add_term(*v, f64::from(c));
            rhs += f64::from(c) * w;
        }
        m.add_le(e, rhs);
    }
    let mut objective = LinExpr::new();
    let mut witness_obj = 0.0;
    for (v, (&c, w)) in vars.iter().zip(obj.iter().zip(witness)) {
        objective.add_term(*v, f64::from(c));
        witness_obj += f64::from(c) * w;
    }
    m.set_objective(objective);
    (m, witness_obj)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Branch-and-bound matches exhaustive enumeration on tiny binary MILPs.
    #[test]
    fn milp_matches_brute_force(p in binary_program()) {
        let (model, _) = build_model(&p);
        let expected = brute_force(&p);
        match (model.solve(), expected) {
            (Ok(sol), Some(best)) => {
                prop_assert_eq!(sol.optimality(), Optimality::Proven);
                prop_assert!((sol.objective() - best as f64).abs() < 1e-6,
                    "solver {} vs brute force {}", sol.objective(), best);
                // The reported point itself must be feasible.
                prop_assert!(model.is_feasible(sol.values(), 1e-6));
            }
            (Err(SolveError::Infeasible(_)), None) => {}
            (got, want) => prop_assert!(false, "solver {:?} vs brute force {:?}", got, want),
        }
    }

    /// Random LPs built around a known feasible point: the solver must return
    /// a feasible solution at least as good as that point.
    #[test]
    fn lp_solution_feasible_and_no_worse_than_witness(
        witness in proptest::collection::vec(0.0f64..10.0, 2..6),
        coeff_rows in proptest::collection::vec(
            proptest::collection::vec(-3i32..=3, 6), 1..5),
        obj in proptest::collection::vec(-3i32..=3, 6),
        slacks in proptest::collection::vec(0.0f64..5.0, 1..5),
    ) {
        let (m, witness_obj) = witness_lp(&witness, &coeff_rows, &obj, &slacks);
        let sol = m.solve().expect("witness point guarantees feasibility");
        prop_assert!(m.is_feasible(sol.values(), 1e-5),
            "returned point infeasible: {:?}", sol.values());
        prop_assert!(sol.objective() <= witness_obj + 1e-6,
            "solver {} worse than witness {}", sol.objective(), witness_obj);
    }

    /// With no constraints, each variable lands on the bound favored by its
    /// objective coefficient.
    #[test]
    fn unconstrained_boxes_hit_bounds(
        bounds in proptest::collection::vec((0.0f64..5.0, 5.0f64..10.0), 1..6),
        signs in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = bounds
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| m.add_continuous(format!("x{i}"), lo, hi))
            .collect();
        let mut e = LinExpr::new();
        for (v, &s) in vars.iter().zip(&signs) {
            e.add_term(*v, if s { 1.0 } else { -1.0 });
        }
        m.set_objective(e);
        let sol = m.solve().unwrap();
        for ((v, &(lo, hi)), &s) in vars.iter().zip(&bounds).zip(&signs) {
            let expect = if s { lo } else { hi };
            prop_assert!((sol.value(*v) - expect).abs() < 1e-7);
        }
    }

    /// Mixed binary + continuous: solution respects integrality and coupling
    /// rows `x_i <= 10 b_i` (a fixed-charge structure).
    #[test]
    fn fixed_charge_structure(
        gains in proptest::collection::vec(1i32..=9, 2..5),
        budget in 1i32..=15,
    ) {
        let n = gains.len();
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..n).map(|i| m.add_continuous(format!("x{i}"), 0.0, 10.0)).collect();
        let bs: Vec<_> = (0..n).map(|i| m.add_binary(format!("b{i}"))).collect();
        for (x, b) in xs.iter().zip(&bs) {
            m.add_le(*x - 10.0 * *b, 0.0);
        }
        let opened: LinExpr = bs.iter().map(|&b| 3.0 * b).sum();
        m.add_le(opened, f64::from(budget));
        let mut obj = LinExpr::new();
        for (x, &g) in xs.iter().zip(&gains) {
            obj.add_term(*x, f64::from(g));
        }
        m.set_objective(obj);
        let sol = m.solve().unwrap();
        prop_assert!(m.is_feasible(sol.values(), 1e-6));
        // Optimal structure: open the floor(budget/3) highest-gain plants
        // fully.
        let mut sorted = gains.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let open = ((budget / 3) as usize).min(n);
        let expect: f64 = sorted[..open].iter().map(|&g| 10.0 * f64::from(g)).sum();
        prop_assert!((sol.objective() - expect).abs() < 1e-5,
            "got {} expected {}", sol.objective(), expect);
    }

    /// Sparse revised basis invariant: with the refactorization interval
    /// pushed out of reach, the eta file holds every pivot since the last
    /// factorization, and `B·(B⁻¹·e_i)` must still round-trip within 1e-7
    /// for every basis column.
    #[test]
    fn sparse_basis_roundtrips_after_random_pivots(
        witness in proptest::collection::vec(0.0f64..10.0, 2..6),
        coeff_rows in proptest::collection::vec(
            proptest::collection::vec(-3i32..=3, 6), 1..5),
        obj in proptest::collection::vec(-3i32..=3, 6),
        slacks in proptest::collection::vec(0.0f64..5.0, 1..5),
    ) {
        let (m, _) = witness_lp(&witness, &coeff_rows, &obj, &slacks);
        let probe = fp_milp::test_support::sparse_root_lp_probe(&m, 1_000_000);
        prop_assert!(probe.objective.is_some(), "witness LP must solve to optimality");
        prop_assert!(probe.roundtrip <= 1e-7,
            "basis round-trip residual {} after {} pivots ({} etas live, {} refactors)",
            probe.roundtrip, probe.pivots, probe.live_etas, probe.refactors);
    }

    /// Refactorizing after every pivot must land on the same objective as
    /// the accumulated eta-file path: the interval trades factorization
    /// time against drift, never the answer.
    #[test]
    fn forced_refactorization_reaches_same_objective(
        witness in proptest::collection::vec(0.0f64..10.0, 2..6),
        coeff_rows in proptest::collection::vec(
            proptest::collection::vec(-3i32..=3, 6), 1..5),
        obj in proptest::collection::vec(-3i32..=3, 6),
        slacks in proptest::collection::vec(0.0f64..5.0, 1..5),
    ) {
        let (m, _) = witness_lp(&witness, &coeff_rows, &obj, &slacks);
        let lazy = fp_milp::test_support::sparse_root_lp_probe(&m, 1_000_000);
        let eager = fp_milp::test_support::sparse_root_lp_probe(&m, 1);
        match (lazy.objective, eager.objective) {
            (Some(a), Some(b)) => prop_assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                "interval drift: lazy {a} vs forced {b}"
            ),
            (None, None) => {}
            other => prop_assert!(false, "outcome diverged: {other:?}"),
        }
        // Interval 1 really does refactorize the eta file away after every
        // pivot (one survivor tolerated in case a refresh hit a singular
        // scratch factorization and fell back to the eta representation).
        prop_assert!(eager.live_etas <= 1,
            "{} live etas after {} pivots at interval 1", eager.live_etas, eager.pivots);
    }
}

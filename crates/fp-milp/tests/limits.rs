//! Termination under node and time limits: the solver must return
//! promptly, must not claim a proof, and any incumbent it does return must
//! be feasible. Every solve runs on a watchdog thread with a generous
//! outer timeout so a termination bug fails the test instead of hanging
//! the suite.

use fp_milp::{LinExpr, Model, Optimality, Sense, Solution, SolveError, SolveOptions};
use std::sync::mpsc;
use std::time::Duration;

/// Generous bound on how long a "returns almost immediately" solve may
/// really take before we call it a hang.
const WATCHDOG: Duration = Duration::from_secs(30);

/// A 1-D segment-packing MILP whose tree is far too large for a few
/// milliseconds: `n` segments with selectable lengths and pairwise big-M
/// ordering disjunctions.
fn hard_packing(n: usize) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let l = m.add_continuous("L", 0.0, 1000.0);
    let big = 1000.0;
    let mut starts = Vec::new();
    let mut lens: Vec<LinExpr> = Vec::new();
    for i in 0..n {
        let x = m.add_continuous(format!("x{i}"), 0.0, 1000.0);
        let z = m.add_binary(format!("z{i}"));
        starts.push(x);
        let short = 2.0 + (i % 3) as f64;
        let long = 5.0 + (i % 4) as f64;
        lens.push(short * z + long * (1.0 - z));
    }
    for i in 0..n {
        m.add_le(starts[i] + lens[i].clone() - l, 0.0);
        for j in i + 1..n {
            let p = m.add_binary(format!("p{i}_{j}"));
            m.add_le(starts[i] + lens[i].clone() - starts[j] - big * p, 0.0);
            m.add_le(
                starts[j] + lens[j].clone() - starts[i] - big * (1.0 - p),
                0.0,
            );
        }
    }
    m.set_objective(l + 0.0);
    m
}

/// Runs the solve on its own thread and panics if it exceeds the watchdog —
/// a search that ignores its limits shows up as a test failure, not a hung
/// suite.
fn solve_with_watchdog(m: Model, opts: SolveOptions) -> Result<Solution, SolveError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(m.solve_with(&opts));
    });
    rx.recv_timeout(WATCHDOG)
        .expect("solver did not return before the watchdog")
}

/// Whatever the limited solve returns must be an honest "limit bound"
/// answer: a feasible incumbent marked `Limit`, or `LimitWithoutIncumbent`.
fn assert_limit_outcome(m: &Model, result: Result<Solution, SolveError>, label: &str) {
    match result {
        Ok(s) => {
            assert_eq!(
                s.optimality(),
                Optimality::Limit,
                "{label}: a truncated search must not claim a proof"
            );
            assert!(
                m.is_feasible(s.values(), 1e-6),
                "{label}: limit incumbent is infeasible"
            );
        }
        Err(e) => assert!(
            matches!(e, SolveError::LimitWithoutIncumbent(_)),
            "{label}: {e:?}"
        ),
    }
}

#[test]
fn tiny_node_limit_terminates() {
    let m = hard_packing(10);
    let check = m.clone();
    let result = solve_with_watchdog(m, SolveOptions::default().with_node_limit(5));
    if let Ok(s) = &result {
        assert!(
            s.stats().nodes <= 5,
            "node limit overshot to {}",
            s.stats().nodes
        );
    }
    assert_limit_outcome(&check, result, "node_limit");
}

#[test]
fn short_time_limit_terminates() {
    let m = hard_packing(12);
    let check = m.clone();
    let opts = SolveOptions::default().with_time_limit(Duration::from_millis(50));
    let result = solve_with_watchdog(m, opts);
    assert_limit_outcome(&check, result, "time_limit");
}

#[test]
fn both_limits_zero_return_immediately() {
    let opts = SolveOptions::default()
        .with_node_limit(0)
        .with_time_limit(Duration::ZERO);
    let result = solve_with_watchdog(hard_packing(6), opts);
    assert!(matches!(result, Err(SolveError::LimitWithoutIncumbent(_))));
}

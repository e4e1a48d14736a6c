//! The time limit must bind *inside* a single LP solve, not only at
//! branch-and-bound node boundaries. A pure LP whose relaxation alone takes
//! far longer than the limit is the pathological case: the node-boundary
//! check passes at elapsed ~ 0 and the old solver would then run the whole
//! relaxation to optimality, overshooting a millisecond budget by seconds.

use fp_milp::{LinExpr, Model, Sense, Solution, SolveError, SolveOptions};
use std::sync::mpsc;
use std::time::Duration;

/// Generous outer bound; a deadline bug shows up as a failed assertion, a
/// termination bug as a watchdog panic instead of a hung suite.
const WATCHDOG: Duration = Duration::from_secs(30);

/// A dense feasible pure LP (no integers, so exactly one B&B node) sized so
/// the two-phase simplex needs well over the test's time limit to finish:
/// `n` variables, `n` dense `>=` rows forcing a long phase 1.
fn slow_dense_lp(n: usize) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<_> = (0..n)
        .map(|j| m.add_continuous(format!("x{j}"), 0.0, 10.0))
        .collect();
    for i in 0..n {
        let row: LinExpr = xs
            .iter()
            .enumerate()
            .map(|(j, &x)| (1.0 + ((i * j + i + j) % 7) as f64) * x)
            .sum();
        m.add_ge(row, (n + i) as f64);
    }
    let obj: LinExpr = xs.iter().map(|&x| 1.0 * x).sum();
    m.set_objective(obj);
    m
}

fn solve_with_watchdog(m: Model, opts: SolveOptions) -> Result<Solution, SolveError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(m.solve_with(&opts));
    });
    rx.recv_timeout(WATCHDOG)
        .expect("solver did not return before the watchdog")
}

#[test]
fn pathological_lp_respects_tiny_time_limit() {
    let opts = SolveOptions::default().with_time_limit(Duration::from_millis(5));
    let result = solve_with_watchdog(slow_dense_lp(400), opts);
    // The relaxation cannot finish in 5 ms, so the only honest answer is
    // "limit bound with no incumbent". The pre-fix solver instead ran the
    // LP to completion and returned a proven optimum.
    assert!(
        matches!(result, Err(SolveError::LimitWithoutIncumbent(_))),
        "a 5 ms budget must interrupt a multi-second LP"
    );
}

#[test]
fn generous_time_limit_still_solves_the_same_lp() {
    // Sanity check that the cooperative deadline does not break a solve
    // that has enough budget: the same construction, small enough to
    // finish comfortably, must still reach a proven optimum.
    let opts = SolveOptions::default().with_time_limit(Duration::from_secs(60));
    let s = solve_with_watchdog(slow_dense_lp(40), opts).expect("optimal");
    assert_eq!(s.optimality(), fp_milp::Optimality::Proven);
    assert!(s.objective() > 0.0);
}

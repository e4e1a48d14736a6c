//! Pins the solver counts of the paper's flow at the end-to-end
//! benchmark's settings: serial branch-and-bound, 4000-node steps and a
//! one-day time limit, so only node limits end a search and every count
//! is a pure function of the input.
//!
//! Each pin sums the augmentation and improvement steps' branch-and-bound
//! nodes, simplex pivots, basis refactorizations, eta updates and nodes
//! settled by bound propagation, and records the final chip height. A change meant to leave answers alone,
//! such as a faster LP kernel, must leave every number as it is. A change
//! that moves answers on purpose updates the numbers and says why.
//!
//! The apte9 and xerox10 pins date from the solver's move to one LP
//! kernel. Some of their small step MILPs used to run on a dense tableau,
//! which can return a different optimal vertex, so that move changed
//! their counts; xerox10's 55-binary re-optimization step now stops at
//! the 4000-node cap.
//!
//! Node bound propagation settles, without its LP, each node whose box
//! holds no integer point (`propagated_nodes`): its implied bounds on
//! integral columns round inward by the search's integrality tolerance,
//! so it also settles nodes whose LP is feasible, and their subtrees are
//! never searched. No incumbent could come from such a subtree, and every
//! LP outside it sees the same bounds and warm start, so a search that
//! finishes returns the same answer with fewer nodes: every `height`
//! stayed when rounding came in, while ami33 went from 7539 to 6387
//! nodes, gsrc20 from 7130 to 3553 and xerox10 from 5871 to 5713. A step
//! that stops at the 4000-node cap searches past its old frontier within
//! the same budget, which is why xerox10's pivots rose (13804 → 14045)
//! and apte9's node count, two capped steps' worth, stayed 8128.
//!
//! The §2.5 topology LP now carries one row per edge of each axis's
//! transitive reduction instead of one per module pair. Its feasible set
//! and optimum are the same, so every `height` stayed, but it can return a
//! different optimal vertex, and the improvement round's re-optimization
//! MILP starts from the compacted floorplan. ami33's counts moved (nodes
//! 6387 → 6257, pivots 16244 → 16026) and gsrc20's too (nodes 3553 → 2767,
//! pivots 10636 → 8422); apte9's and xerox10's did not.
//!
//! The three Table-1 decks the benchmark's paper_flow runs were pinned at
//! the counts the next change started from (nodes 240, 667 and 495).
//!
//! Node propagation then learned to settle each node whose box holds no
//! accepted point that beats the incumbent: it propagates the cutoff row
//! `c·x ≤ incumbent − 1e-9` and the implications root probing learned,
//! rows no LP sees. Every LP outside a settled subtree still sees the same
//! bounds and warm start, so every `height` stayed and every count fell:
//! nodes 6257 → 5973 on ami33, 2767 → 1573 on gsrc20, 8128 → 7509 on
//! apte9, 5713 → 4528 on xerox10 and 240 → 206, 667 → 547 and 495 → 437
//! on the Table-1 decks. The capped steps of apte9 and xerox10 reach past
//! their old frontier within the same 4000 nodes.

use fp_core::{FloorplanConfig, FloorplanResult, Floorplanner, StepStats};
use fp_milp::SolveOptions;
use fp_netlist::generator::ProblemGenerator;
use fp_netlist::{ami33, apte9, decks, xerox10, Netlist};
use std::time::Duration;

#[derive(Debug, PartialEq)]
struct Counts {
    nodes: usize,
    pivots: usize,
    refactorizations: usize,
    eta_updates: usize,
    propagated_nodes: usize,
    height: f64,
}

/// Augmentation, then one improvement round, through the flow entry
/// point. The benchmark composes the same flow from `Floorplanner::run`
/// and `improve_traced`; the pins were taken from that composition.
fn flow_counts(netlist: &Netlist) -> Counts {
    let config = FloorplanConfig::default().with_step_options(
        SolveOptions::default()
            .with_node_limit(4000)
            .with_time_limit(Duration::from_secs(24 * 3600)),
    );
    let FloorplanResult { floorplan, stats } = Floorplanner::with_config(netlist, config)
        .with_improvement(1, None)
        .run()
        .expect("the flow succeeds");
    assert!(floorplan.is_valid(), "{:?}", floorplan.violations());
    let sum = |f: fn(&StepStats) -> usize| stats.steps.iter().map(f).sum();
    Counts {
        nodes: sum(|s| s.nodes),
        pivots: sum(|s| s.simplex_iterations),
        refactorizations: sum(|s| s.refactorizations),
        eta_updates: sum(|s| s.eta_updates),
        propagated_nodes: sum(|s| s.propagated_nodes),
        height: floorplan.chip_height(),
    }
}

#[test]
fn ami33_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&ami33()),
        Counts {
            nodes: 5973,
            pivots: 13153,
            refactorizations: 1909,
            eta_updates: 12915,
            propagated_nodes: 2436,
            height: 116.0,
        }
    );
}

/// A quarter of the deck's modules are flexible, so the §2.5 topology LP
/// runs on a real shape trade-off.
#[test]
fn gsrc20_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&decks::gsrc_style(20, 1)),
        Counts {
            nodes: 1573,
            pivots: 5688,
            refactorizations: 682,
            eta_updates: 5453,
            propagated_nodes: 487,
            height: 34.0,
        }
    );
}

#[test]
fn apte9_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&apte9()),
        Counts {
            nodes: 7509,
            pivots: 15687,
            refactorizations: 2468,
            eta_updates: 15325,
            propagated_nodes: 3508,
            height: 122.0,
        }
    );
}

#[test]
fn xerox10_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&xerox10()),
        Counts {
            nodes: 4528,
            pivots: 9445,
            refactorizations: 1594,
            eta_updates: 9043,
            propagated_nodes: 1924,
            height: 70.0,
        }
    );
}

/// The Table-1 random decks of the paper's experiments, at the seed the
/// end-to-end benchmark's paper_flow workload generates them with.
fn table1_deck(modules: usize) -> Netlist {
    ProblemGenerator::new(modules, 1988).generate()
}

#[test]
fn table1_15_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&table1_deck(15)),
        Counts {
            nodes: 206,
            pivots: 660,
            refactorizations: 97,
            eta_updates: 634,
            propagated_nodes: 72,
            height: 56.0,
        }
    );
}

#[test]
fn table1_20_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&table1_deck(20)),
        Counts {
            nodes: 547,
            pivots: 1920,
            refactorizations: 236,
            eta_updates: 1859,
            propagated_nodes: 189,
            height: 68.0,
        }
    );
}

#[test]
fn table1_25_flow_counts_are_pinned() {
    assert_eq!(
        flow_counts(&table1_deck(25)),
        Counts {
            nodes: 437,
            pivots: 1556,
            refactorizations: 216,
            eta_updates: 1524,
            propagated_nodes: 122,
            height: 70.0,
        }
    );
}

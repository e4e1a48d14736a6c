//! Soundness of node bound propagation: branch-and-bound settles a node
//! without its LP only when propagation proves the node's LP relaxation
//! infeasible, so propagation must never claim a box whose LP is
//! feasible. Each model here is probed under random branching boxes, with
//! a random subset of its binaries fixed, and every box propagation
//! settles must be one a cold LP solve also calls infeasible. The suite
//! also checks that propagation settles a real share of the boxes, so it
//! cannot pass by never firing.

mod common;

use common::{random_milp, rotation_disjunction_chain};
use fp_milp::test_support::{integral_columns, node_propagation_probe};
use fp_milp::{LinExpr, Model, Sense};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A big-M rectangle-packing model in the shape of the floorplanner's
/// step MILP: `n` rectangles in a strip of width `w`, two binaries per
/// pair selecting left-of, right-of, below or above, and the strip height
/// as the objective.
fn rectangle_packing(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..6usize);
    let dims: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            (
                f64::from(rng.gen_range(2..9u32)),
                f64::from(rng.gen_range(2..9u32)),
            )
        })
        .collect();
    let width = 12.0;
    let h_max: f64 = dims.iter().map(|d| d.1).sum();
    let mut m = Model::new(Sense::Minimize);
    let height = m.add_continuous("H", 0.0, h_max);
    let pos: Vec<_> = dims
        .iter()
        .enumerate()
        .map(|(i, &(w, h))| {
            (
                m.add_continuous(format!("x{i}"), 0.0, width - w),
                m.add_continuous(format!("y{i}"), 0.0, h_max - h),
            )
        })
        .collect();
    for i in 0..n {
        let (yi, hi) = (pos[i].1, dims[i].1);
        m.add_le(yi + hi - height, 0.0);
        for j in i + 1..n {
            let (p, q) = (
                m.add_binary(format!("p{i}{j}")),
                m.add_binary(format!("q{i}{j}")),
            );
            let (xi, yi) = pos[i];
            let (xj, yj) = pos[j];
            let (wi, hi) = dims[i];
            let (wj, hj) = dims[j];
            m.add_le(xi + wi - xj - width * p - width * q, 0.0);
            m.add_le(xj + wj - xi + width * p - width * q, width);
            m.add_le(yi + hi - yj - h_max * p + h_max * q, h_max);
            m.add_le(yj + hj - yi + h_max * p + h_max * q, 2.0 * h_max);
        }
    }
    let objective: LinExpr = 1.0 * height;
    m.set_objective(objective);
    m
}

/// Probes `model` under `boxes` random branching boxes and returns
/// `(settled, lp_infeasible)` box counts, panicking on any box that
/// propagation settles while its LP is feasible.
fn probe_boxes(model: &Model, label: &str, rng: &mut StdRng, boxes: usize) -> (usize, usize) {
    let binaries = integral_columns(model);
    let (mut settled, mut infeasible) = (0, 0);
    for b in 0..boxes {
        let share = rng.gen_range(0.2..0.9);
        let mut fixes = Vec::new();
        for &j in &binaries {
            if rng.gen_bool(share) {
                fixes.push((j, if rng.gen_bool(0.5) { 1.0 } else { 0.0 }));
            }
        }
        // Branching fixes columns in no particular order.
        fixes.shuffle(rng);
        let probe = node_propagation_probe(model, &fixes);
        assert!(
            !probe.settled || probe.lp_infeasible,
            "{label}, box {b}: propagation settled a box whose LP is feasible: {fixes:?}"
        );
        settled += usize::from(probe.settled);
        infeasible += usize::from(probe.lp_infeasible);
    }
    (settled, infeasible)
}

#[test]
fn propagation_settles_only_infeasible_boxes() {
    let mut rng = StdRng::seed_from_u64(0x05e7_71ed);
    let mut families = Vec::new();

    let mut knapsacks = (0, 0);
    for seed in 0..20 {
        let (s, i) = probe_boxes(
            &random_milp(seed),
            &format!("random_milp({seed})"),
            &mut rng,
            40,
        );
        knapsacks = (knapsacks.0 + s, knapsacks.1 + i);
    }
    families.push(("random_milp", knapsacks, 800));

    let (chain, _) = rotation_disjunction_chain();
    families.push((
        "rotation_disjunction_chain",
        probe_boxes(&chain, "rotation_disjunction_chain", &mut rng, 400),
        400,
    ));

    let mut packings = (0, 0);
    for seed in 0..20 {
        let (s, i) = probe_boxes(
            &rectangle_packing(seed),
            &format!("rectangle_packing({seed})"),
            &mut rng,
            40,
        );
        packings = (packings.0 + s, packings.1 + i);
    }
    families.push(("rectangle_packing", packings, 800));

    // Not vacuous: in every family propagation must settle most of the
    // boxes whose LP is infeasible, and over all families a real share of
    // the boxes.
    let (mut settled_total, mut boxes_total) = (0, 0);
    for (name, (settled, infeasible), boxes) in families {
        eprintln!("{name}: {settled} settled, {infeasible} LP-infeasible of {boxes} boxes");
        assert!(
            infeasible > 0 && settled * 2 >= infeasible,
            "{name}: propagation settled only {settled} of {infeasible} LP-infeasible boxes"
        );
        settled_total += settled;
        boxes_total += boxes;
    }
    assert!(
        settled_total * 5 >= boxes_total,
        "propagation settled only {settled_total} of {boxes_total} boxes"
    );
}

//! Soundness of node bound propagation on an integer oracle.
//! Branch-and-bound settles a node without its LP when propagation proves
//! that the node's box holds no point the search would accept: every
//! integral column within `INT_TOL` of an integer and every row within the
//! LP's tolerances. Such a subtree could never yield an incumbent, so
//! settling it leaves the answer of a search that finishes unchanged. Each
//! model here is probed under random branching boxes, with a random subset
//! of its binaries fixed, and every box propagation settles must hold no
//! such point. The oracle decides that without the propagator, by a
//! depth-first search over LP relaxations that prunes only on LP
//! infeasibility. The suite also checks that rounding never loses a box
//! the unrounded, LP-valid rule settles, that it settles boxes whose LP is
//! feasible, and that propagation settles a real share of the boxes, so it
//! cannot pass by never firing.
//!
//! The search's propagator also carries the cutoff row `c·x ≤ z − 1e-9`
//! under the incumbent objective `z` and the rows root probing learned.
//! Every box it settles under a cutoff must hold no accepted point with an
//! objective below `z`, by the same oracle with an objective cap. And
//! since those rows settle only subtrees that could never yield an
//! incumbent, every solve must answer bit for bit as a reference search
//! whose propagator has neither, with no more nodes when it finishes, and
//! with the same incumbent or a strictly better one when a node limit
//! stops both.

mod common;

use common::{classic_cases, random_milp, rotation_disjunction_chain};
use fp_milp::test_support::{
    box_holds_integer_point, integral_columns, min_form_objective, node_propagation_probe,
    reference_solve, settles_under_cutoff,
};
use fp_milp::{LinExpr, Model, Optimality, Sense, SolveError, SolveOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// LP solves the oracle may spend on one box before it gives up.
const ORACLE_LPS: usize = 20_000;

/// A big-M rectangle-packing model in the shape of the floorplanner's
/// step MILP: `n` rectangles in a strip of width `w`, two binaries per
/// pair selecting left-of, right-of, below or above, and the strip height
/// as the objective. Sides are whole numbers, or with `tenths` multiples
/// of 0.1, which leave the positions' implied bounds fractional.
fn rectangle_packing(seed: u64, tenths: bool) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..6usize);
    let mut side = || {
        if tenths {
            f64::from(rng.gen_range(20..90u32)) / 10.0
        } else {
            f64::from(rng.gen_range(2..9u32))
        }
    };
    let dims: Vec<(f64, f64)> = (0..n).map(|_| (side(), side())).collect();
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

/// Box counts of one family.
#[derive(Default)]
struct Tally {
    boxes: usize,
    settled: usize,
    lp_infeasible: usize,
    /// Settled boxes whose LP relaxation is feasible: only rounding can
    /// settle them.
    settled_lp_feasible: usize,
}

/// Probes `model` under `boxes` random branching boxes into `tally`,
/// panicking on any box that propagation settles while it holds a point
/// the search would accept, and on any box the unrounded rule settles but
/// the rounding rule does not.
fn probe_boxes(model: &Model, label: &str, rng: &mut StdRng, boxes: usize, tally: &mut Tally) {
    let binaries = integral_columns(model);
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
            !probe.settled_unrounded || probe.settled,
            "{label}, box {b}: rounding lost a box the unrounded rule settles: {fixes:?}"
        );
        if probe.settled {
            let oracle = box_holds_integer_point(model, &fixes, ORACLE_LPS, f64::INFINITY);
            assert_eq!(
                oracle,
                Some(false),
                "{label}, box {b}: propagation settled a box the oracle does not prove empty: {fixes:?}"
            );
        }
        tally.boxes += 1;
        tally.settled += usize::from(probe.settled);
        tally.lp_infeasible += usize::from(probe.lp_infeasible);
        tally.settled_lp_feasible += usize::from(probe.settled && !probe.lp_infeasible);
    }
}

#[test]
fn propagation_settles_only_boxes_without_integer_points() {
    let mut rng = StdRng::seed_from_u64(0x05e7_71ed);
    let mut families: Vec<(&str, Tally)> = Vec::new();

    let mut tally = Tally::default();
    for seed in 0..20 {
        let label = format!("random_milp({seed})");
        probe_boxes(&random_milp(seed), &label, &mut rng, 40, &mut tally);
    }
    families.push(("random_milp", tally));

    let mut tally = Tally::default();
    let (chain, _) = rotation_disjunction_chain();
    probe_boxes(
        &chain,
        "rotation_disjunction_chain",
        &mut rng,
        400,
        &mut tally,
    );
    families.push(("rotation_disjunction_chain", tally));

    for (name, tenths) in [
        ("rectangle_packing", false),
        ("rectangle_packing_tenths", true),
    ] {
        let mut tally = Tally::default();
        for seed in 0..20 {
            let label = format!("{name}({seed})");
            let model = rectangle_packing(seed, tenths);
            probe_boxes(&model, &label, &mut rng, 40, &mut tally);
        }
        families.push((name, tally));
    }

    // Not vacuous: in every family propagation must settle most of the
    // boxes whose LP is infeasible, and over all families a real share of
    // the boxes and some boxes whose LP is feasible, which only rounding
    // can settle.
    let (mut settled_total, mut boxes_total, mut rounded_total) = (0, 0, 0);
    for (name, t) in &families {
        eprintln!(
            "{name}: {} settled ({} with a feasible LP), {} LP-infeasible of {} boxes",
            t.settled, t.settled_lp_feasible, t.lp_infeasible, t.boxes
        );
        let settled_lp_infeasible = t.settled - t.settled_lp_feasible;
        assert!(
            t.lp_infeasible > 0 && settled_lp_infeasible * 2 >= t.lp_infeasible,
            "{name}: propagation settled only {settled_lp_infeasible} of {} LP-infeasible boxes",
            t.lp_infeasible
        );
        settled_total += t.settled;
        boxes_total += t.boxes;
        rounded_total += t.settled_lp_feasible;
    }
    assert!(
        settled_total * 5 >= boxes_total,
        "propagation settled only {settled_total} of {boxes_total} boxes"
    );
    assert!(
        rounded_total > 0,
        "no settled box had a feasible LP: rounding never fired"
    );
}

/// Random branching boxes of `model`: each binary fixed with a random
/// share, to a random value, in no particular order.
fn random_fixes(model: &Model, rng: &mut StdRng) -> Vec<(usize, f64)> {
    let share = rng.gen_range(0.1..0.8);
    let mut fixes = Vec::new();
    for j in integral_columns(model) {
        if rng.gen_bool(share) {
            fixes.push((j, if rng.gen_bool(0.5) { 1.0 } else { 0.0 }));
        }
    }
    fixes.shuffle(rng);
    fixes
}

#[test]
fn the_cutoff_and_learned_rows_settle_only_boxes_without_better_points() {
    let mut rng = StdRng::seed_from_u64(0xc0_7055);
    let mut models: Vec<(String, Model)> = (0..20)
        .map(|seed| (format!("random_milp({seed})"), random_milp(seed)))
        .collect();
    for seed in 0..12 {
        models.push((
            format!("rectangle_packing({seed})"),
            rectangle_packing(seed, false),
        ));
        models.push((
            format!("rectangle_packing_tenths({seed})"),
            rectangle_packing(seed, true),
        ));
    }
    let (mut boxes, mut settled, mut by_cutoff) = (0, 0, 0);
    for (label, model) in &models {
        let best = model.solve().expect("every family is feasible");
        let opt = min_form_objective(model, best.values());
        // The optimum itself, where no box holds a better point, and two
        // looser cutoffs that leave the optimal boxes open.
        for z in [opt, opt + 0.5, opt + 0.1 * (1.0 + opt.abs())] {
            for b in 0..15 {
                let fixes = random_fixes(model, &mut rng);
                boxes += 1;
                if !settles_under_cutoff(model, &fixes, z) {
                    continue;
                }
                settled += 1;
                assert_eq!(
                    box_holds_integer_point(model, &fixes, ORACLE_LPS, z),
                    Some(false),
                    "{label}, cutoff {z}, box {b}: settled a box the oracle finds a point below the cutoff in: {fixes:?}"
                );
                by_cutoff += usize::from(!node_propagation_probe(model, &fixes).settled);
            }
        }
    }
    eprintln!(
        "{settled} of {boxes} boxes settled, {by_cutoff} only with the cutoff and learned rows"
    );
    // Not vacuous: the cutoff and learned rows settle boxes the LP rows
    // alone leave open.
    assert!(
        settled * 4 >= boxes && by_cutoff * 10 >= settled,
        "{settled} settled, {by_cutoff} by the cutoff, of {boxes}"
    );
}

/// Asserts that `model` solved under `options` answers as the reference
/// search does: bit for bit with no more nodes when the search finishes,
/// the same incumbent or a strictly better one when a limit stops it.
fn assert_answers_as_reference(model: &Model, options: &SolveOptions, label: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ours = model.solve_with(options);
    let reference = reference_solve(model, options);
    match (&ours, &reference) {
        (Ok(s), Ok(r)) if r.optimality() == Optimality::Proven => {
            assert_eq!(s.optimality(), Optimality::Proven, "{label}");
            assert_eq!(s.objective().to_bits(), r.objective().to_bits(), "{label}");
            assert_eq!(bits(s.values()), bits(r.values()), "{label}");
            assert!(
                s.stats().nodes <= r.stats().nodes,
                "{label}: {} > {} nodes",
                s.stats().nodes,
                r.stats().nodes
            );
        }
        (Ok(s), Ok(r)) => {
            let (ours, theirs) = (
                min_form_objective(model, s.values()),
                min_form_objective(model, r.values()),
            );
            if bits(s.values()) != bits(r.values()) {
                assert!(
                    ours < theirs - 1e-9,
                    "{label}: a capped search returned {ours}, the reference {theirs}"
                );
            }
        }
        (Ok(_), Err(SolveError::LimitWithoutIncumbent(_))) => {}
        (Err(e), Err(f)) => {
            assert_eq!(
                std::mem::discriminant(e),
                std::mem::discriminant(f),
                "{label}: {e:?} vs {f:?}"
            );
            if let (SolveError::Infeasible(s), SolveError::Infeasible(r)) = (e, f) {
                assert!(s.nodes <= r.nodes, "{label}");
            }
        }
        _ => panic!("{label}: {ours:?} against the reference's {reference:?}"),
    }
}

#[test]
fn solves_answer_as_the_search_without_cutoff_or_learned_rows() {
    let mut models: Vec<(String, Model)> = (0..40)
        .map(|seed| (format!("random_milp({seed})"), random_milp(seed)))
        .collect();
    for seed in 0..20 {
        models.push((
            format!("rectangle_packing({seed})"),
            rectangle_packing(seed, false),
        ));
        models.push((
            format!("rectangle_packing_tenths({seed})"),
            rectangle_packing(seed, true),
        ));
    }
    for (name, build) in classic_cases() {
        models.push((name.to_string(), build().0));
    }
    for (label, model) in &models {
        assert_answers_as_reference(model, &SolveOptions::default(), label);
        for limit in [3, 10, 40] {
            let options = SolveOptions::default().with_node_limit(limit);
            assert_answers_as_reference(model, &options, &format!("{label}, {limit} nodes"));
        }
        let no_strengthen = SolveOptions::default().with_strengthen(false);
        assert_answers_as_reference(model, &no_strengthen, &format!("{label}, no strengthening"));
    }
}

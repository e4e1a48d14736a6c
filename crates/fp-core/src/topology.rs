//! Floorplan optimization with a *given topology* (paper §2.5).
//!
//! When the relative position of every module pair is known, all integer
//! variables vanish: for each pair only the single active non-overlap
//! inequality is needed, leaving a pure LP over the `2K` coordinates (plus
//! one `Δw` per flexible module). The paper proposes this for shape
//! optimization; here it also serves as a **compaction pass** — re-solving
//! the entire chip's coordinates (and flexible shapes) at once after
//! successive augmentation, something the per-step MILPs cannot do
//! globally.
//!
//! # Rows: the transitive reduction of each axis
//!
//! [`extract_topology`] returns one relation for each of the `K(K−1)/2`
//! pairs, but most of their rows are implied. Read the horizontal
//! relations as a directed graph (`LeftOf(i, j)` is the edge `i → j`,
//! `RightOf(i, j)` the edge `j → i`) and the vertical ones likewise
//! (`Below`, `Above`). When a path `u → k → … → v` of two or more edges
//! joins a pair, summing the path's rows gives `x_u + w_u + Σ w_k ≤ x_v`,
//! and every envelope side is positive for every value of its columns: a
//! rigid side is a constant, a flexible width is `w_max − Δw ≥ w_min > 0`
//! and a flexible height `h(w_max) + slope·Δw` with a positive slope. So
//! the path implies the pair's own row, and [`optimize_topology`] emits a
//! row only for the edges of each axis graph's transitive reduction, in
//! the relations' order. The feasible set and the optimum are exactly
//! those of the all-pairs LP; the row count falls from `K(K−1)/2` to a
//! few per module (ami33 528 → 139, ami49c 1176 → 227, gsrc100
//! 4950 → 642, gsrc130 8385 → 829, gsrc200 19900 → 1471 on augmented
//! floorplans).
//!
//! A legal floorplan's axis graphs are acyclic: a chosen relation's gap is
//! at least `−GEOM_EPS`, so a cycle needs sides summing below `GEOM_EPS`.
//! An axis whose graph has a cycle anyway keeps every one of its rows.
//!
//! The LP's own optimal vertex is the answer. Packing each axis to its
//! longest-path positions instead would make the compacted floorplan
//! independent of the row set, but it moves the floorplans that later
//! node-limited re-optimization MILPs start from: on the end-to-end
//! benchmark's paper_flow workload it took the ECO polish MILPs of two
//! decks to their node cap and the ECO median from 8 ms to 75 ms.

use crate::config::FloorplanConfig;
use crate::envelope::ShapeSpec;
use crate::error::FloorplanError;
use crate::placement::{Floorplan, PlacedModule};
use fp_geom::GEOM_EPS;
use fp_milp::{LinExpr, Model, Sense};
use fp_netlist::Netlist;
use fp_obs::Phase;

/// The relative position of an ordered module pair `(i, j)` — which of the
/// four disjuncts of system (2) is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `i` is to the left of `j`.
    LeftOf,
    /// `i` is to the right of `j`.
    RightOf,
    /// `i` is below `j`.
    Below,
    /// `i` is above `j`.
    Above,
}

/// Extracts the topology of an existing floorplan: for every pair, the
/// separating relation with the largest slack.
///
/// # Errors
///
/// [`FloorplanError::TopologyMismatch`] if some pair of envelopes overlaps
/// (no separating relation exists).
pub fn extract_topology(
    floorplan: &Floorplan,
) -> Result<Vec<(usize, usize, Relation)>, FloorplanError> {
    let placed: Vec<&PlacedModule> = floorplan.iter().collect();
    let mut out = Vec::new();
    for i in 0..placed.len() {
        for j in i + 1..placed.len() {
            let (a, b) = (placed[i].envelope, placed[j].envelope);
            // Gap of each candidate relation; pick the widest non-negative.
            let candidates = [
                (Relation::LeftOf, b.x - a.right()),
                (Relation::RightOf, a.x - b.right()),
                (Relation::Below, b.y - a.top()),
                (Relation::Above, a.y - b.top()),
            ];
            let best = candidates
                .iter()
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .expect("four candidates");
            if best.1 < -GEOM_EPS {
                return Err(FloorplanError::TopologyMismatch(format!(
                    "{} and {} overlap; no separating relation",
                    placed[i].id, placed[j].id
                )));
            }
            out.push((i, j, best.0));
        }
    }
    Ok(out)
}

/// Re-optimizes module coordinates (and flexible shapes) for the fixed
/// topology of `floorplan`, minimizing chip height. Orientations are kept
/// as placed. Returns the compacted floorplan.
///
/// The LP carries one non-overlap row per edge of each axis's transitive
/// reduction (see the module docs), which has the same feasible set and
/// optimum as one row per pair. The result is never taller than the input
/// (the input is feasible for the LP), which the integration tests assert.
/// A traced `config` times the call as a `topology_lp` span.
///
/// # Errors
///
/// * [`FloorplanError::TopologyMismatch`] for overlapping inputs,
/// * [`FloorplanError::Solver`] if the LP fails (indicates a bug: the input
///   placement is always a feasible witness).
pub fn optimize_topology(
    floorplan: &Floorplan,
    netlist: &Netlist,
    config: &FloorplanConfig,
) -> Result<Floorplan, FloorplanError> {
    let _span = config.tracer.span(Phase::Improve, "topology_lp");
    if floorplan.is_empty() {
        return Ok(floorplan.clone());
    }
    let relations = extract_topology(floorplan)?;
    let keep = transitive_reduction(floorplan.len(), &relations);
    let rows: Vec<(usize, usize, Relation)> = relations
        .into_iter()
        .zip(keep)
        .filter_map(|(relation, kept)| kept.then_some(relation))
        .collect();
    solve_topology_lp(floorplan, netlist, config, &rows)
}

/// The edge `from → to` that `relation` puts on the horizontal graph
/// (`true`) or the vertical one (`false`).
fn axis_edge(&(i, j, relation): &(usize, usize, Relation)) -> (bool, usize, usize) {
    match relation {
        Relation::LeftOf => (true, i, j),
        Relation::RightOf => (true, j, i),
        Relation::Below => (false, i, j),
        Relation::Above => (false, j, i),
    }
}

/// Marks which of `relations` (over modules `0..n`) are edges of the
/// transitive reduction of their axis's relation graph: `u → v` is kept
/// unless a path of two or more edges also leads from `u` to `v`. An axis
/// whose graph has a cycle keeps all of its relations.
///
/// Reachability is a `u64` bitset per module, filled in reverse
/// topological order, so the cost is `O(n · E / 64)` for `E` edges.
fn transitive_reduction(n: usize, relations: &[(usize, usize, Relation)]) -> Vec<bool> {
    let mut keep = vec![true; relations.len()];
    let words = n.div_ceil(64);
    for horizontal in [true, false] {
        // Successors of each module on this axis, with the relation's index.
        let mut succ: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (r, relation) in relations.iter().enumerate() {
            let (axis, from, to) = axis_edge(relation);
            if axis == horizontal {
                succ[from].push((to, r));
            }
        }
        let Some(order) = topological_order(&succ) else {
            continue;
        };
        // reach[u]: the modules reachable from u over one or more edges.
        let mut reach = vec![0u64; n * words];
        let mut implied = vec![0u64; words];
        for &u in order.iter().rev() {
            // Modules reachable from u over two or more edges.
            implied.fill(0);
            for &(v, _) in &succ[u] {
                for (bits, &from_v) in implied.iter_mut().zip(&reach[v * words..(v + 1) * words]) {
                    *bits |= from_v;
                }
            }
            for &(v, r) in &succ[u] {
                if implied[v / 64] >> (v % 64) & 1 == 1 {
                    keep[r] = false;
                }
            }
            let reach_u = &mut reach[u * words..(u + 1) * words];
            reach_u.copy_from_slice(&implied);
            for &(v, _) in &succ[u] {
                reach_u[v / 64] |= 1 << (v % 64);
            }
        }
    }
    keep
}

/// A topological order of the graph `succ` (Kahn's algorithm), or `None`
/// when it has a cycle.
fn topological_order(succ: &[Vec<(usize, usize)>]) -> Option<Vec<usize>> {
    let mut indegree = vec![0usize; succ.len()];
    for &(v, _) in succ.iter().flatten() {
        indegree[v] += 1;
    }
    let mut order: Vec<usize> = (0..succ.len()).filter(|&u| indegree[u] == 0).collect();
    let mut next = 0;
    while let Some(&u) = order.get(next) {
        next += 1;
        for &(v, _) in &succ[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                order.push(v);
            }
        }
    }
    (order.len() == succ.len()).then_some(order)
}

/// The §2.5 LP of `floorplan` with one non-overlap row for each of `rows`
/// (pairs of indices into `floorplan.iter()`), solved and realized.
fn solve_topology_lp(
    floorplan: &Floorplan,
    netlist: &Netlist,
    config: &FloorplanConfig,
    rows: &[(usize, usize, Relation)],
) -> Result<Floorplan, FloorplanError> {
    let placed: Vec<&PlacedModule> = floorplan.iter().collect();
    let chip_w = floorplan.chip_width();

    let specs: Vec<ShapeSpec> = placed
        .iter()
        .map(|p| ShapeSpec::from_module(p.id, netlist.module(p.id), config))
        .collect();

    let mut model = Model::new(Sense::Minimize);
    let h_ub = floorplan.chip_height();
    let ychip = model.add_continuous("y_chip", 0.0, h_ub);

    // Positions; orientation fixed to the placed one, Δw re-optimized.
    let vars: Vec<(fp_milp::Var, fp_milp::Var, Option<fp_milp::Var>)> = placed
        .iter()
        .zip(&specs)
        .map(|(p, spec)| {
            let name = netlist.module(p.id).name().to_string();
            let x = model.add_continuous(format!("x_{name}"), 0.0, chip_w);
            let y = model.add_continuous(format!("y_{name}"), 0.0, h_ub);
            let dw = spec
                .has_dw
                .then(|| model.add_continuous(format!("dw_{name}"), 0.0, spec.dw_max));
            (x, y, dw)
        })
        .collect();

    // Envelope dimension expressions with the *fixed* orientation folded in.
    let env_w = |k: usize| -> LinExpr {
        let spec = &specs[k];
        let z = placed[k].rotated;
        let mut e = LinExpr::constant(spec.we0 + if z { spec.wez } else { 0.0 });
        if let Some(dw) = vars[k].2 {
            e.add_term(dw, spec.wed);
        }
        e
    };
    let env_h = |k: usize| -> LinExpr {
        let spec = &specs[k];
        let z = placed[k].rotated;
        let mut e = LinExpr::constant(spec.he0 + if z { spec.hez } else { 0.0 });
        if let Some(dw) = vars[k].2 {
            e.add_term(dw, spec.hed);
        }
        e
    };

    // Chip bounds.
    for (k, v) in vars.iter().enumerate() {
        model.add_le(v.0 + env_w(k), chip_w);
        let row = v.1 + env_h(k) - ychip;
        model.add_le(row, 0.0);
    }

    // One active non-overlap row per relation (§2.5: "only one inequality
    // is needed" per pair, integer variables eliminated).
    for relation in rows {
        let (horizontal, from, to) = axis_edge(relation);
        let row = if horizontal {
            vars[from].0 + env_w(from) - vars[to].0
        } else {
            vars[from].1 + env_h(from) - vars[to].1
        };
        model.add_le(row, 0.0);
    }

    // Objective: chip area (W·height), plus the configured wirelength term
    // — §2.5 allows "chip area, interconnection length ... or any
    // combinations"; with all relations fixed this stays a pure LP.
    let mut objective = LinExpr::new();
    objective.add_term(ychip, chip_w);
    let lambda = config.objective.lambda();
    if lambda > 0.0 {
        let span = chip_w.max(h_ub);
        let conn = netlist.connectivity_matrix();
        for i in 0..placed.len() {
            let row = &conn[placed[i].id.index()];
            for j in i + 1..placed.len() {
                let c = row[placed[j].id.index()];
                if c <= 0.0 {
                    continue;
                }
                let dx = model.add_continuous(format!("dx_{i}_{j}"), 0.0, span);
                let dy = model.add_continuous(format!("dy_{i}_{j}"), 0.0, span);
                let cx = |k: usize| {
                    let mut e = LinExpr::from(vars[k].0);
                    e += env_w(k) * 0.5;
                    e
                };
                let cy = |k: usize| {
                    let mut e = LinExpr::from(vars[k].1);
                    e += env_h(k) * 0.5;
                    e
                };
                model.add_le(cx(i) - cx(j) - dx, 0.0);
                model.add_le(cx(j) - cx(i) - dx, 0.0);
                model.add_le(cy(i) - cy(j) - dy, 0.0);
                model.add_le(cy(j) - cy(i) - dy, 0.0);
                objective.add_term(dx, lambda * c);
                objective.add_term(dy, lambda * c);
            }
        }
    }
    model.set_objective(objective);
    let sol = model.solve().map_err(FloorplanError::Solver)?;

    let new_placed = placed
        .iter()
        .zip(&specs)
        .zip(&vars)
        .map(|((p, spec), &(x, y, dw))| {
            let dw_val = dw.map_or(0.0, |v| sol.value(v).clamp(0.0, spec.dw_max));
            let (rect, envelope, rotated) = spec.realize(
                sol.value(x).max(0.0),
                sol.value(y).max(0.0),
                p.rotated,
                dw_val,
            );
            PlacedModule {
                id: p.id,
                rect,
                envelope,
                rotated,
            }
        })
        .collect();
    Ok(Floorplan::new(chip_w, new_placed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Objective, SoftShapeModel};
    use fp_geom::Rect;
    use fp_netlist::decks;
    use fp_netlist::generator::ProblemGenerator;
    use fp_netlist::{Module, ModuleId};
    use proptest::prelude::*;

    fn place(id: usize, x: f64, y: f64, w: f64, h: f64) -> PlacedModule {
        PlacedModule {
            id: ModuleId(id),
            rect: Rect::new(x, y, w, h),
            envelope: Rect::new(x, y, w, h),
            rotated: false,
        }
    }

    #[test]
    fn extract_relations() {
        let fp = Floorplan::new(
            10.0,
            vec![place(0, 0.0, 0.0, 3.0, 3.0), place(1, 5.0, 0.0, 3.0, 3.0)],
        );
        let rel = extract_topology(&fp).unwrap();
        assert_eq!(rel, vec![(0, 1, Relation::LeftOf)]);
    }

    #[test]
    fn extract_rejects_overlap() {
        let fp = Floorplan::new(
            10.0,
            vec![place(0, 0.0, 0.0, 4.0, 4.0), place(1, 2.0, 2.0, 4.0, 4.0)],
        );
        assert!(matches!(
            extract_topology(&fp),
            Err(FloorplanError::TopologyMismatch(_))
        ));
    }

    #[test]
    fn compaction_removes_slack() {
        // A floorplan with deliberate gaps: module 1 floats at y = 5 above
        // module 0 (height 2). Compaction must drop it to y = 2.
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("a", 4.0, 2.0, false)).unwrap();
        nl.add_module(Module::rigid("b", 4.0, 2.0, false)).unwrap();
        let fp = Floorplan::new(
            4.0,
            vec![place(0, 0.0, 0.0, 4.0, 2.0), place(1, 0.0, 5.0, 4.0, 2.0)],
        );
        let cfg = FloorplanConfig::default();
        let compact = optimize_topology(&fp, &nl, &cfg).unwrap();
        assert!((compact.chip_height() - 4.0).abs() < 1e-6);
        assert!(compact.is_valid());
    }

    #[test]
    fn compaction_never_increases_height() {
        let nl = ProblemGenerator::new(9, 17).generate();
        let cfg = FloorplanConfig::default();
        let fp = crate::greedy::bottom_left(&nl, &cfg).unwrap();
        let compact = optimize_topology(&fp, &nl, &cfg).unwrap();
        assert!(compact.is_valid(), "{:?}", compact.violations());
        assert!(compact.chip_height() <= fp.chip_height() + 1e-6);
    }

    #[test]
    fn soft_shapes_reoptimized() {
        // Rigid 4x4 and a soft area-8 module stacked on a 6-wide chip; the
        // topology LP can reshape the soft one but "Below" keeps the stack.
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("r", 4.0, 4.0, false)).unwrap();
        nl.add_module(Module::flexible("s", 8.0, 0.5, 2.0)).unwrap();
        let fp = Floorplan::new(
            6.0,
            vec![
                place(0, 0.0, 0.0, 4.0, 4.0),
                // soft placed as 2x4 beside the rigid module
                place(1, 4.0, 0.0, 2.0, 4.0),
            ],
        );
        let cfg = FloorplanConfig::default();
        let out = optimize_topology(&fp, &nl, &cfg).unwrap();
        assert!(out.is_valid());
        assert!(out.chip_height() <= fp.chip_height() + 1e-6);
        let soft = out.placement(ModuleId(1)).unwrap();
        assert!((soft.rect.area() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn wirelength_objective_pulls_connected_pair() {
        use crate::config::Objective;
        use fp_netlist::Net;
        // Three modules in a row with horizontal slack; a & c connected.
        // Pure-area compaction leaves x positions free (height-optimal
        // anyway); the wirelength term must drag a and c together.
        let mut nl = Netlist::new("t");
        let a = nl.add_module(Module::rigid("a", 2.0, 2.0, false)).unwrap();
        nl.add_module(Module::rigid("b", 2.0, 2.0, false)).unwrap();
        let c = nl.add_module(Module::rigid("c", 2.0, 2.0, false)).unwrap();
        nl.add_net(Net::new("ac", [a, c])).unwrap();
        let fp = Floorplan::new(
            12.0,
            vec![
                place(0, 0.0, 0.0, 2.0, 2.0),
                place(1, 5.0, 0.0, 2.0, 2.0),
                place(2, 10.0, 0.0, 2.0, 2.0),
            ],
        );
        let cfg = FloorplanConfig::default()
            .with_objective(Objective::AreaPlusWirelength { lambda: 1.0 });
        let out = optimize_topology(&fp, &nl, &cfg).unwrap();
        assert!(out.is_valid());
        let pa = out.placement(ModuleId(0)).unwrap().rect.center();
        let pc = out.placement(ModuleId(2)).unwrap().rect.center();
        // Relations keep a left of b left of c, so the best distance is
        // a..b..c packed: centers 4 apart (vs 10 initially).
        assert!(
            pa.manhattan(&pc) <= 4.0 + 1e-6,
            "distance {} not compacted",
            pa.manhattan(&pc)
        );
        assert!(out.chip_height() <= fp.chip_height() + 1e-9);
    }

    #[test]
    fn reduction_drops_the_edge_a_chain_implies() {
        use Relation::{Above, Below, LeftOf, RightOf};
        // a → b → c with a → c, once per axis and direction.
        for (ab, ac, bc) in [
            ((0, 1, LeftOf), (0, 2, LeftOf), (1, 2, LeftOf)),
            ((1, 0, RightOf), (2, 0, RightOf), (2, 1, RightOf)),
            ((0, 1, Below), (0, 2, Below), (1, 2, Below)),
            ((1, 0, Above), (2, 0, Above), (2, 1, Above)),
        ] {
            assert_eq!(
                transitive_reduction(3, &[ab, ac, bc]),
                vec![true, false, true]
            );
        }
        // Edges on the other axis are no path: a left of b, b below c, a
        // left of c keeps all three.
        assert_eq!(
            transitive_reduction(3, &[(0, 1, LeftOf), (0, 2, LeftOf), (1, 2, Below)]),
            vec![true; 3]
        );
    }

    #[test]
    fn cyclic_axis_keeps_every_row() {
        use Relation::{Below, LeftOf, RightOf};
        // Horizontally the cycle 0 → 1 → 2 → 0 beside 3 → 4 → 5 with the
        // implied 3 → 5, which the cycle keeps too; vertically 6 → 7 → 8
        // with the implied 6 → 8, which goes.
        let relations = [
            (0, 1, LeftOf),
            (0, 2, RightOf),
            (1, 2, LeftOf),
            (3, 4, LeftOf),
            (3, 5, LeftOf),
            (4, 5, LeftOf),
            (6, 7, Below),
            (6, 8, Below),
            (7, 8, Below),
        ];
        let mut expected = vec![true; relations.len()];
        expected[7] = false;
        assert_eq!(transitive_reduction(9, &relations), expected);
    }

    /// Which modules `edges` reach from `from`, leaving out the edge at
    /// index `skip`.
    fn reaches(n: usize, edges: &[(usize, usize)], skip: Option<usize>, from: usize) -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            for (e, &(a, b)) in edges.iter().enumerate() {
                if a == u && Some(e) != skip && !seen[b] {
                    seen[b] = true;
                    stack.push(b);
                }
            }
        }
        seen
    }

    /// Up to 39 random rectangles, each kept only when it overlaps none
    /// kept before it: a legal floorplan whose topology is arbitrary.
    fn random_floorplan() -> impl Strategy<Value = Floorplan> {
        proptest::collection::vec(
            (0.0f64..40.0, 0.0f64..40.0, 0.5f64..9.0, 0.5f64..9.0),
            1..40,
        )
        .prop_map(|candidates| {
            let mut placed: Vec<PlacedModule> = Vec::new();
            for (x, y, w, h) in candidates {
                let rect = Rect::new(x, y, w, h);
                if placed.iter().all(|p| !p.envelope.overlaps(&rect)) {
                    placed.push(place(placed.len(), x, y, w, h));
                }
            }
            Floorplan::new(50.0, placed)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The kept relations reach exactly what all relations reach on
        /// each axis, and dropping any kept one loses a reachable pair.
        #[test]
        fn reduction_keeps_reachability_and_is_minimal(fp in random_floorplan()) {
            let n = fp.len();
            let relations = extract_topology(&fp).unwrap();
            let keep = transitive_reduction(n, &relations);
            for horizontal in [true, false] {
                let mut all = Vec::new();
                let mut kept = Vec::new();
                for (relation, &k) in relations.iter().zip(&keep) {
                    let (axis, from, to) = axis_edge(relation);
                    if axis == horizontal {
                        all.push((from, to));
                        if k {
                            kept.push((from, to));
                        }
                    }
                }
                for u in 0..n {
                    prop_assert_eq!(reaches(n, &all, None, u), reaches(n, &kept, None, u));
                }
                for (e, &(from, to)) in kept.iter().enumerate() {
                    prop_assert!(
                        !reaches(n, &kept, Some(e), from)[to],
                        "kept edge {} -> {} is implied",
                        from,
                        to
                    );
                }
            }
        }

        /// The LP over the reduced rows and over every pair's row reach the
        /// same optimum, on rigid and soft decks, at λ = 0 and λ > 0.
        #[test]
        fn reduced_rows_keep_the_optimum(
            n in 2usize..24,
            seed in 0u64..1000,
            gsrc in any::<bool>(),
            lambda in prop_oneof![Just(0.0), 0.05f64..2.0],
            envelopes in any::<bool>(),
            taylor in any::<bool>(),
        ) {
            let netlist = if gsrc {
                decks::gsrc_style(n, seed)
            } else {
                ProblemGenerator::new(n, seed).with_flexible_fraction(0.3).generate()
            };
            let objective = if lambda > 0.0 {
                Objective::AreaPlusWirelength { lambda }
            } else {
                Objective::Area
            };
            let soft = if taylor { SoftShapeModel::Taylor } else { SoftShapeModel::Secant };
            let cfg = FloorplanConfig::default()
                .with_objective(objective)
                .with_envelopes(envelopes)
                .with_soft_model(soft);
            let fp = crate::greedy::bottom_left(&netlist, &cfg).unwrap();
            let reduced = optimize_topology(&fp, &netlist, &cfg).unwrap();
            let full = solve_topology_lp(&fp, &netlist, &cfg, &extract_topology(&fp).unwrap())
                .unwrap();
            prop_assert!(reduced.is_valid(), "{:?}", reduced.violations());
            let (a, b) = (reduced.chip_height(), full.chip_height());
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "heights {} vs {}", a, b);
            // The objective the LP minimizes, read off the envelopes.
            let conn = netlist.connectivity_matrix();
            let cost = |out: &Floorplan| {
                let modules: Vec<&PlacedModule> = out.iter().collect();
                let mut wire = 0.0;
                for (k, p) in modules.iter().enumerate() {
                    for q in &modules[k + 1..] {
                        let c = conn[p.id.index()][q.id.index()];
                        wire += c * p.envelope.center().manhattan(&q.envelope.center());
                    }
                }
                out.chip_width() * out.chip_height() + lambda * wire
            };
            let (a, b) = (cost(&reduced), cost(&full));
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "objectives {} vs {}", a, b);
        }
    }

    #[test]
    fn empty_floorplan_passthrough() {
        let nl = Netlist::new("t");
        let fp = Floorplan::new(5.0, Vec::new());
        let out = optimize_topology(&fp, &nl, &FloorplanConfig::default()).unwrap();
        assert!(out.is_empty());
    }
}

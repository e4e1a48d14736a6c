//! Building one augmentation-step MILP (paper formulations (2)–(8)).
//!
//! Each step places a small *group* of new modules against the fixed
//! *obstacles* (covering rectangles of the partial floorplan). Per pair of
//! rectangles whose relative position is free, two 0-1 variables
//! `(p, q) = (x_ij, y_ij)` select which of the four disjunctive non-overlap
//! constraints is active, exactly as in the paper's system (2):
//!
//! ```text
//! (p,q) = (0,0): i left of j    x_i + W_i ≤ x_j + W̄·(p + q)
//! (p,q) = (0,1): i right of j   x_j + W_j ≤ x_i + W̄·(1 + p − q)
//! (p,q) = (1,0): i below j      y_i + H_i ≤ y_j + H̄·(1 − p + q)
//! (p,q) = (1,1): i above j      y_j + H_j ≤ y_i + H̄·(2 − p − q)
//! ```
//!
//! Rotation (`z_i`, formulation (4)) and flexible shaping (`Δw_i`,
//! formulations (6)–(8)) enter through the linear envelope dimensions of
//! [`ShapeSpec`]. Two solver-hardening devices keep branch-and-bound fast
//! without changing the optimum:
//!
//! * the vertical big-M `H̄` and the `y_chip` upper bound are set to the
//!   *greedy feasible height*, so the LP relaxation is tight;
//! * geometrically impossible relations (e.g. "below" an obstacle resting
//!   on the chip floor) are cut off with 1-row binary cuts.

use crate::config::FloorplanConfig;
use crate::envelope::ShapeSpec;
use crate::placement::PlacedModule;
use fp_geom::Rect;
use fp_milp::{LinExpr, Model, Sense, Solution, Var};
use fp_netlist::Netlist;
use std::collections::HashMap;

/// Everything a step MILP needs to know.
pub(crate) struct StepInput<'a> {
    pub netlist: &'a Netlist,
    pub config: &'a FloorplanConfig,
    pub chip_width: f64,
    /// Covering rectangles of the already-placed floorplan.
    pub obstacles: &'a [Rect],
    /// The already-placed modules (for wirelength terms / critical nets).
    pub placed: &'a [PlacedModule],
    /// The new modules to place in this step.
    pub group: &'a [ShapeSpec],
    /// A feasible chip height (greedy witness): `y_chip` upper bound & H̄.
    pub h_ub: f64,
    /// Highest obstacle top: `y_chip` lower bound.
    pub floor: f64,
    /// Add a small `Σ y_i` term to the objective so modules pack low even
    /// when the chip height is pinned by fixed obstacles — used by the
    /// improvement pass, where the freed slack is harvested by the
    /// subsequent compaction LP.
    pub pull_down: bool,
}

/// Decision variables of one new module.
#[derive(Debug, Clone, Copy)]
struct ModVars {
    x: Var,
    y: Var,
    z: Option<Var>,
    dw: Option<Var>,
}

/// A built step model plus the handles needed to read the solution back.
pub(crate) struct StepModel {
    pub model: Model,
    vars: Vec<ModVars>,
    #[allow(dead_code)]
    ychip: Var,
}

/// Number of 0-1 variables a step with `group_size` new modules,
/// `obstacles` fixed rectangles and `rotatable` rotation candidates will
/// need — used by the driver to keep steps within
/// [`FloorplanConfig::max_binaries`] ("number of variables close to a
/// constant", §1).
#[must_use]
pub(crate) fn estimate_binaries(group_size: usize, obstacles: usize, rotatable: usize) -> usize {
    group_size * group_size.saturating_sub(1) // 2 per unordered new-new pair
        + 2 * group_size * obstacles
        + rotatable
}

/// How many of `candidates`, taken as a prefix and at least one, one step
/// MILP can place against `obstacles` fixed rectangles without exceeding
/// `max_binaries` 0-1 variables.
pub(crate) fn fit_group(candidates: &[ShapeSpec], obstacles: usize, max_binaries: usize) -> usize {
    (2..=candidates.len())
        .rev()
        .find(|&take| {
            let rot = candidates[..take].iter().filter(|s| s.has_z).count();
            estimate_binaries(take, obstacles, rot) <= max_binaries
        })
        .unwrap_or(1)
}

impl StepModel {
    /// Builds the MILP for one augmentation step.
    pub(crate) fn build(input: &StepInput<'_>) -> StepModel {
        let mut model = Model::new(Sense::Minimize);
        let w_chip = input.chip_width;
        let w_bar = w_chip;
        let h_bar = height_bound(input);

        let max_area = input.group.iter().map(|s| s.area).fold(1.0_f64, f64::max);

        // --- variables --------------------------------------------------
        let ychip = model.add_continuous("y_chip", input.floor, h_bar);
        let vars: Vec<ModVars> = input
            .group
            .iter()
            .map(|spec| {
                let name = input.netlist.module(spec.id).name().to_string();
                let x_ub = (w_chip - spec.min_env_width()).max(0.0);
                let y_ub = (h_bar - spec.min_env_height()).max(0.0);
                let x = model.add_continuous(format!("x_{name}"), 0.0, x_ub);
                let y = model.add_continuous(format!("y_{name}"), 0.0, y_ub);
                let z = spec.has_z.then(|| {
                    let z = model.add_binary(format!("z_{name}"));
                    model.set_branch_priority(z, (spec.area / max_area * 20.0) as i32 - 60);
                    z
                });
                let dw = spec
                    .has_dw
                    .then(|| model.add_continuous(format!("dw_{name}"), 0.0, spec.dw_max));
                ModVars { x, y, z, dw }
            })
            .collect();

        // --- chip bounds (formulations (3)/(5)) --------------------------
        for (spec, mv) in input.group.iter().zip(&vars) {
            // x + We(z, dw) <= W
            let mut row = LinExpr::from(mv.x);
            add_env_width(&mut row, spec, mv, 1.0);
            model.add_le(row, w_chip);
            // y + He(z, dw) <= y_chip
            let mut row = LinExpr::from(mv.y);
            add_env_height(&mut row, spec, mv, 1.0);
            row -= LinExpr::from(ychip);
            model.add_le(row, 0.0);
        }

        // --- non-overlap: new vs new (system (2)) ------------------------
        for i in 0..input.group.len() {
            for j in i + 1..input.group.len() {
                let (si, sj) = (&input.group[i], &input.group[j]);
                let (vi, vj) = (vars[i], vars[j]);
                let prio = ((si.area + sj.area) / (2.0 * max_area) * 100.0) as i32;
                let p = model.add_binary(format!("p_{i}_{j}"));
                let q = model.add_binary(format!("q_{i}_{j}"));
                model.set_branch_priority(p, prio);
                model.set_branch_priority(q, prio);

                // Geometric impossibility cuts.
                let horizontal_ok = si.min_env_width() + sj.min_env_width() <= w_chip + 1e-9;
                let vertical_ok = si.min_env_height() + sj.min_env_height() <= h_bar + 1e-9;
                forbid_impossible(
                    &mut model,
                    p,
                    q,
                    [horizontal_ok, horizontal_ok, vertical_ok, vertical_ok],
                );

                // (0,0): i left of j.
                let mut r = LinExpr::from(vi.x);
                add_env_width(&mut r, si, &vi, 1.0);
                r -= LinExpr::from(vj.x);
                r.add_term(p, -w_bar);
                r.add_term(q, -w_bar);
                model.add_le(r, 0.0);
                // (0,1): i right of j.
                let mut r = LinExpr::from(vj.x);
                add_env_width(&mut r, sj, &vj, 1.0);
                r -= LinExpr::from(vi.x);
                r.add_term(p, -w_bar);
                r.add_term(q, w_bar);
                model.add_le(r, w_bar);
                // (1,0): i below j.
                let mut r = LinExpr::from(vi.y);
                add_env_height(&mut r, si, &vi, 1.0);
                r -= LinExpr::from(vj.y);
                r.add_term(p, h_bar);
                r.add_term(q, -h_bar);
                model.add_le(r, h_bar);
                // (1,1): i above j.
                let mut r = LinExpr::from(vj.y);
                add_env_height(&mut r, sj, &vj, 1.0);
                r -= LinExpr::from(vi.y);
                r.add_term(p, h_bar);
                r.add_term(q, h_bar);
                model.add_le(r, 2.0 * h_bar);
            }
        }

        // --- non-overlap: new vs fixed obstacle --------------------------
        for (i, (spec, mv)) in input.group.iter().zip(&vars).enumerate() {
            for (f, obs) in input.obstacles.iter().enumerate() {
                let p = model.add_binary(format!("p_{i}_f{f}"));
                let q = model.add_binary(format!("q_{i}_f{f}"));
                let prio = (spec.area / max_area * 100.0) as i32 + 10;
                model.set_branch_priority(p, prio);
                model.set_branch_priority(q, prio);

                let left_ok = obs.x >= spec.min_env_width() - 1e-9;
                let right_ok = obs.right() + spec.min_env_width() <= w_chip + 1e-9;
                let below_ok = obs.y >= spec.min_env_height() - 1e-9;
                let above_ok = obs.top() + spec.min_env_height() <= h_bar + 1e-9;
                forbid_impossible(&mut model, p, q, [left_ok, right_ok, below_ok, above_ok]);

                // (0,0): i left of obstacle.
                let mut r = LinExpr::from(mv.x);
                add_env_width(&mut r, spec, mv, 1.0);
                r.add_term(p, -w_bar);
                r.add_term(q, -w_bar);
                model.add_le(r, obs.x);
                // (0,1): i right of obstacle.
                let mut r = LinExpr::new();
                r.add_term(mv.x, -1.0);
                r.add_term(p, -w_bar);
                r.add_term(q, w_bar);
                model.add_le(r, w_bar - obs.right());
                // (1,0): i below obstacle.
                let mut r = LinExpr::from(mv.y);
                add_env_height(&mut r, spec, mv, 1.0);
                r.add_term(p, h_bar);
                r.add_term(q, -h_bar);
                model.add_le(r, obs.y + h_bar);
                // (1,1): i above obstacle.
                let mut r = LinExpr::new();
                r.add_term(mv.y, -1.0);
                r.add_term(p, h_bar);
                r.add_term(q, h_bar);
                model.add_le(r, 2.0 * h_bar - obs.top());
            }
        }

        // --- objective ---------------------------------------------------
        let lambda = input.config.objective.lambda();
        let mut objective = LinExpr::new();
        objective.add_term(ychip, w_chip); // chip area = W · height
        if input.pull_down {
            // Subordinate to the height term (coefficient 1 vs W), but
            // breaks ties toward low packing.
            for mv in &vars {
                objective.add_term(mv.y, 1.0);
            }
        }

        if lambda > 0.0 || input.config.enforce_critical_nets {
            let mut dist_cache: HashMap<(usize, DistTarget), (Var, Var)> = HashMap::new();
            if lambda > 0.0 {
                let conn = input.netlist.connectivity_matrix();
                for i in 0..input.group.len() {
                    let row = &conn[input.group[i].id.index()];
                    // Wirelength between new modules.
                    for j in i + 1..input.group.len() {
                        let c = row[input.group[j].id.index()];
                        if c > 0.0 {
                            let (dx, dy) = dist_vars(
                                &mut model,
                                &mut dist_cache,
                                input,
                                &vars,
                                i,
                                DistTarget::Group(j),
                            );
                            objective.add_term(dx, lambda * c);
                            objective.add_term(dy, lambda * c);
                        }
                    }
                    // Wirelength to already-placed modules.
                    for (k, placed) in input.placed.iter().enumerate() {
                        let c = row[placed.id.index()];
                        if c > 0.0 {
                            let (dx, dy) = dist_vars(
                                &mut model,
                                &mut dist_cache,
                                input,
                                &vars,
                                i,
                                DistTarget::Placed(k),
                            );
                            objective.add_term(dx, lambda * c);
                            objective.add_term(dy, lambda * c);
                        }
                    }
                }
            }

            // Critical-net maximum length constraints.
            if input.config.enforce_critical_nets {
                add_critical_net_rows(&mut model, &mut dist_cache, input, &vars);
            }
        }
        model.set_objective(objective);

        StepModel { model, vars, ychip }
    }

    /// Reads the solution back into placements.
    pub(crate) fn extract(&self, sol: &Solution, group: &[ShapeSpec]) -> Vec<PlacedModule> {
        group
            .iter()
            .zip(&self.vars)
            .map(|(spec, mv)| {
                let x = sol.value(mv.x).max(0.0);
                let y = sol.value(mv.y).max(0.0);
                let z = mv.z.is_some_and(|z| sol.rounded(z) == 1);
                let dw = mv
                    .dw
                    .map_or(0.0, |dw| sol.value(dw).clamp(0.0, spec.dw_max));
                let (rect, envelope, rotated) = spec.realize(x, y, z, dw);
                PlacedModule {
                    id: spec.id,
                    rect,
                    envelope,
                    rotated,
                }
            })
            .collect()
    }
}

/// The chip-height bound H̄ used for variable bounds and big-M rows. The
/// greedy height is a feasible bound for the plain problem, but
/// critical-net length constraints (which greedy ignores) can force a
/// taller chip — give the model headroom in that case.
fn height_bound(input: &StepInput<'_>) -> f64 {
    let h_slack = if input.config.enforce_critical_nets {
        1.5
    } else {
        1.0
    };
    (input.h_ub * h_slack).max(input.floor).max(1e-6)
}

/// Identifies the second endpoint of a cached distance pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DistTarget {
    Group(usize),
    Placed(usize),
}

/// Adds `c · (expr terms of We)` to `row`: `c·(we0 + wez·z + wed·dw)`.
fn add_env_width(row: &mut LinExpr, spec: &ShapeSpec, mv: &ModVars, c: f64) {
    row.add_constant(c * spec.we0);
    if let Some(z) = mv.z {
        row.add_term(z, c * spec.wez);
    }
    if let Some(dw) = mv.dw {
        row.add_term(dw, c * spec.wed);
    }
}

/// Adds `c · He(z, dw)` to `row`.
fn add_env_height(row: &mut LinExpr, spec: &ShapeSpec, mv: &ModVars, c: f64) {
    row.add_constant(c * spec.he0);
    if let Some(z) = mv.z {
        row.add_term(z, c * spec.hez);
    }
    if let Some(dw) = mv.dw {
        row.add_term(dw, c * spec.hed);
    }
}

/// Center-x of a new module as a linear expression.
fn center_x(spec: &ShapeSpec, mv: &ModVars) -> LinExpr {
    let mut e = LinExpr::from(mv.x);
    add_env_width(&mut e, spec, mv, 0.5);
    e
}

/// Center-y of a new module as a linear expression.
fn center_y(spec: &ShapeSpec, mv: &ModVars) -> LinExpr {
    let mut e = LinExpr::from(mv.y);
    add_env_height(&mut e, spec, mv, 0.5);
    e
}

/// Cuts off impossible `(p,q)` relations. `possible` is indexed
/// `[left, right, below, above]` = `[(0,0), (0,1), (1,0), (1,1)]`.
fn forbid_impossible(model: &mut Model, p: Var, q: Var, possible: [bool; 4]) {
    if !possible[0] {
        // forbid (0,0): p + q >= 1
        model.add_ge(p + q, 1.0);
    }
    if !possible[1] {
        // forbid (0,1): p >= q
        model.add_ge(p - q, 0.0);
    }
    if !possible[2] {
        // forbid (1,0): q >= p
        model.add_ge(q - p, 0.0);
    }
    if !possible[3] {
        // forbid (1,1): p + q <= 1
        model.add_le(p + q, 1.0);
    }
}

/// Returns (creating on demand) the `|Δcx|, |Δcy|` auxiliary variables
/// between group module `i` and `target`.
fn dist_vars(
    model: &mut Model,
    cache: &mut HashMap<(usize, DistTarget), (Var, Var)>,
    input: &StepInput<'_>,
    vars: &[ModVars],
    i: usize,
    target: DistTarget,
) -> (Var, Var) {
    if let Some(&pair) = cache.get(&(i, target)) {
        return pair;
    }
    // Tighter H̄ handoff: each separation is bounded by its own axis
    // (|Δcx| ≤ W from the chip rows, |Δcy| ≤ H̄ from the height bound)
    // instead of the symmetric worst case, so the activity bounds the
    // solver's strengthening layer starts from are already per-axis tight.
    let dx = model.add_continuous(format!("dx_{i}_{target:?}"), 0.0, input.chip_width);
    let dy = model.add_continuous(format!("dy_{i}_{target:?}"), 0.0, height_bound(input));
    let (cxi, cyi) = (
        center_x(&input.group[i], &vars[i]),
        center_y(&input.group[i], &vars[i]),
    );
    let (cxj, cyj) = match target {
        DistTarget::Group(j) => (
            center_x(&input.group[j], &vars[j]),
            center_y(&input.group[j], &vars[j]),
        ),
        DistTarget::Placed(k) => {
            let c = input.placed[k].envelope.center();
            (LinExpr::constant(c.x), LinExpr::constant(c.y))
        }
    };
    // dx >= |cxi - cxj| via two rows; minimization pulls dx down to the max.
    model.add_le(cxi.clone() - cxj.clone() - dx, 0.0);
    model.add_le(cxj - cxi - dx, 0.0);
    model.add_le(cyi.clone() - cyj.clone() - dy, 0.0);
    model.add_le(cyj - cyi - dy, 0.0);
    cache.insert((i, target), (dx, dy));
    (dx, dy)
}

/// Adds `Σ (dx+dy) <= L` rows for critical nets whose endpoints are all
/// available (new or placed), pairwise.
fn add_critical_net_rows(
    model: &mut Model,
    cache: &mut HashMap<(usize, DistTarget), (Var, Var)>,
    input: &StepInput<'_>,
    vars: &[ModVars],
) {
    let group_index: HashMap<_, _> = input
        .group
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id, i))
        .collect();
    let placed_index: HashMap<_, _> = input
        .placed
        .iter()
        .enumerate()
        .map(|(k, p)| (p.id, k))
        .collect();

    for (_, net) in input.netlist.nets() {
        let Some(limit) = net.max_length() else {
            continue;
        };
        let members = net.modules();
        for (a_pos, &a) in members.iter().enumerate() {
            for &b in &members[a_pos + 1..] {
                // Need at least one new endpoint; the other new or placed.
                let (i, target) = match (group_index.get(&a), group_index.get(&b)) {
                    (Some(&ia), Some(&ib)) => (ia, DistTarget::Group(ib)),
                    (Some(&ia), None) => match placed_index.get(&b) {
                        Some(&k) => (ia, DistTarget::Placed(k)),
                        None => continue,
                    },
                    (None, Some(&ib)) => match placed_index.get(&a) {
                        Some(&k) => (ib, DistTarget::Placed(k)),
                        None => continue,
                    },
                    (None, None) => continue,
                };
                let (dx, dy) = dist_vars(model, cache, input, vars, i, target);
                model.add_le(dx + dy, limit);
            }
        }
    }
}

impl ShapeSpec {
    /// Smallest envelope height over all orientations and shapes.
    pub(crate) fn min_env_height(&self) -> f64 {
        let mut h = self.env_height(false, 0.0);
        if self.has_z {
            h = h.min(self.env_height(true, 0.0));
        }
        // hed >= 0 for soft modules (height grows as width shrinks), so the
        // minimum over dw is at dw = 0 — already covered.
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Objective;
    use fp_milp::SolveOptions;
    use fp_netlist::{Module, ModuleId, Net};

    fn netlist_of(mods: &[(&str, f64, f64, bool)]) -> Netlist {
        let mut nl = Netlist::new("t");
        for &(name, w, h, rot) in mods {
            nl.add_module(Module::rigid(name, w, h, rot)).unwrap();
        }
        nl
    }

    fn specs_for(nl: &Netlist, cfg: &FloorplanConfig) -> Vec<ShapeSpec> {
        nl.modules()
            .map(|(id, m)| ShapeSpec::from_module(id, m, cfg))
            .collect()
    }

    fn solve_step(input: &StepInput<'_>) -> (StepModel, Solution) {
        let sm = StepModel::build(input);
        let sol = sm.model.solve_with(&SolveOptions::default()).unwrap();
        (sm, sol)
    }

    #[test]
    fn two_rigid_modules_pack_perfectly() {
        // Two 4x2 modules on an 8-wide chip: optimal height 2 (side by side).
        let nl = netlist_of(&[("a", 4.0, 2.0, false), ("b", 4.0, 2.0, false)]);
        let cfg = FloorplanConfig::default();
        let group = specs_for(&nl, &cfg);
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 8.0,
            obstacles: &[],
            placed: &[],
            group: &group,
            h_ub: 4.0, // greedy would stack: height 4
            floor: 0.0,
            pull_down: false,
        };
        let (sm, sol) = solve_step(&input);
        let placed = sm.extract(&sol, &group);
        assert_eq!(placed.len(), 2);
        let top = placed.iter().map(|p| p.rect.top()).fold(0.0, f64::max);
        assert!((top - 2.0).abs() < 1e-5, "expected height 2, got {top}");
        assert!(!placed[0].rect.overlaps(&placed[1].rect));
    }

    #[test]
    fn rotation_reduces_height() {
        // One 6x2 module on a 2-wide chip: must rotate; plus a 2x2 beside.
        let nl = netlist_of(&[("tall", 6.0, 2.0, true), ("sq", 2.0, 2.0, false)]);
        let cfg = FloorplanConfig::default();
        let group = specs_for(&nl, &cfg);
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 4.0,
            obstacles: &[],
            placed: &[],
            group: &group,
            h_ub: 8.0,
            floor: 0.0,
            pull_down: false,
        };
        let (sm, sol) = solve_step(&input);
        let placed = sm.extract(&sol, &group);
        // Optimal: rotate tall to 2x6, put 2x2 beside it: height 6.
        let top = placed.iter().map(|p| p.rect.top()).fold(0.0, f64::max);
        assert!((top - 6.0).abs() < 1e-5, "got height {top}");
        assert!(placed[0].rotated);
    }

    #[test]
    fn obstacles_are_respected() {
        // Chip 8 wide; obstacle occupies (0,0)-(8,3); one 4x2 new module
        // must land at y = 3.
        let nl = netlist_of(&[("m", 4.0, 2.0, false)]);
        let cfg = FloorplanConfig::default();
        let group = specs_for(&nl, &cfg);
        let obstacles = vec![Rect::new(0.0, 0.0, 8.0, 3.0)];
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 8.0,
            obstacles: &obstacles,
            placed: &[],
            group: &group,
            h_ub: 5.0,
            floor: 3.0,
            pull_down: false,
        };
        let (sm, sol) = solve_step(&input);
        let placed = sm.extract(&sol, &group);
        assert!(placed[0].rect.y >= 3.0 - 1e-6);
        assert!((sol.objective() / 8.0 - 5.0).abs() < 1e-5); // chip height 5
    }

    #[test]
    fn partial_width_obstacle_allows_side_placement() {
        // Obstacle (0,0)-(4,4) on an 8-wide chip; a 4x2 module fits beside
        // it at (4, 0): optimal height stays 4.
        let nl = netlist_of(&[("m", 4.0, 2.0, false)]);
        let cfg = FloorplanConfig::default();
        let group = specs_for(&nl, &cfg);
        let obstacles = vec![Rect::new(0.0, 0.0, 4.0, 4.0)];
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 8.0,
            obstacles: &obstacles,
            placed: &[],
            group: &group,
            h_ub: 6.0,
            floor: 4.0,
            pull_down: false,
        };
        let (sm, sol) = solve_step(&input);
        let placed = sm.extract(&sol, &group);
        assert!(placed[0].rect.x >= 4.0 - 1e-6, "{placed:?}");
        assert!((sol.objective() / 8.0 - 4.0).abs() < 1e-5);
    }

    #[test]
    fn wirelength_pulls_connected_modules_together() {
        // Three modules in a row of width 12; a & c connected. Pure area
        // admits any permutation (height 2); wirelength must put a next to c.
        let mut nl = netlist_of(&[
            ("a", 4.0, 2.0, false),
            ("b", 4.0, 2.0, false),
            ("c", 4.0, 2.0, false),
        ]);
        nl.add_net(Net::new("ac", [ModuleId(0), ModuleId(2)]))
            .unwrap();
        let cfg = FloorplanConfig::default()
            .with_objective(Objective::AreaPlusWirelength { lambda: 1.0 });
        let group = specs_for(&nl, &cfg);
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 12.0,
            obstacles: &[],
            placed: &[],
            group: &group,
            h_ub: 6.0,
            floor: 0.0,
            pull_down: false,
        };
        let (sm, sol) = solve_step(&input);
        let placed = sm.extract(&sol, &group);
        let ca = placed[0].rect.center();
        let cc = placed[2].rect.center();
        assert!(
            ca.manhattan(&cc) <= 4.0 + 1e-5,
            "connected modules not adjacent: {}",
            ca.manhattan(&cc)
        );
    }

    #[test]
    fn soft_module_shapes_to_fill() {
        // A rigid 4x4 and a soft area-8 module (aspect 0.5..2) on a 6-wide
        // chip. Soft can become 2x4 and sit beside the rigid: height 4.
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("r", 4.0, 4.0, false)).unwrap();
        nl.add_module(Module::flexible("s", 8.0, 0.5, 2.0)).unwrap();
        let cfg = FloorplanConfig::default();
        let group = specs_for(&nl, &cfg);
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 6.0,
            obstacles: &[],
            placed: &[],
            group: &group,
            h_ub: 8.0,
            floor: 0.0,
            pull_down: false,
        };
        let (sm, sol) = solve_step(&input);
        let placed = sm.extract(&sol, &group);
        let top = placed.iter().map(|p| p.envelope.top()).fold(0.0, f64::max);
        // Secant over-reserves slightly; optimal is between 4 and 5.4.
        assert!(top <= 5.5 + 1e-6, "height {top}");
        assert!(!placed[0].envelope.overlaps(&placed[1].envelope));
        // Soft module keeps its true area.
        assert!((placed[1].rect.area() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn critical_net_constraint_enforced() {
        // Two modules forced apart by an obstacle wall would violate a tight
        // max length; without the wall the MILP must keep them within L.
        let mut nl = netlist_of(&[("a", 2.0, 2.0, false), ("b", 2.0, 2.0, false)]);
        nl.add_net(
            Net::new("crit", [ModuleId(0), ModuleId(1)])
                .with_criticality(1.0)
                .with_max_length(3.0),
        )
        .unwrap();
        let cfg = FloorplanConfig::default().with_critical_nets(true);
        let group = specs_for(&nl, &cfg);
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 12.0,
            obstacles: &[],
            placed: &[],
            group: &group,
            h_ub: 4.0,
            floor: 0.0,
            pull_down: false,
        };
        let (sm, sol) = solve_step(&input);
        let placed = sm.extract(&sol, &group);
        let d = placed[0].rect.center().manhattan(&placed[1].rect.center());
        assert!(d <= 3.0 + 1e-5, "critical net length {d} > 3");
    }

    #[test]
    fn impossible_relations_are_cut() {
        // A full-width obstacle on the floor: "i left/right/below" are all
        // geometrically impossible, so the cuts force (p,q) = (1,1) = above
        // with almost no branching.
        let nl = netlist_of(&[("m", 6.0, 2.0, false)]);
        let cfg = FloorplanConfig::default();
        let group = specs_for(&nl, &cfg);
        let obstacles = vec![Rect::new(0.0, 0.0, 8.0, 3.0)];
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 8.0,
            obstacles: &obstacles,
            placed: &[],
            group: &group,
            h_ub: 5.0,
            floor: 3.0,
            pull_down: false,
        };
        let sm = StepModel::build(&input);
        // The node-count bound below assumes the dive-first DFS order.
        let opts = fp_milp::SolveOptions::default();
        let sol = sm.model.solve_with(&opts).unwrap();
        let p = sm.model.var_by_name("p_0_f0").unwrap();
        let q = sm.model.var_by_name("q_0_f0").unwrap();
        assert_eq!(sol.rounded(p), 1);
        assert_eq!(sol.rounded(q), 1);
        assert!(sol.stats().nodes <= 8, "nodes {}", sol.stats().nodes);
    }

    #[test]
    fn binary_estimate_formula() {
        // 3 new modules, 4 obstacles, 2 rotatable:
        // pairs: 3 choose 2 = 3 -> 6 binaries; vs obstacles: 3*4*2 = 24; +2.
        assert_eq!(estimate_binaries(3, 4, 2), 32);
        assert_eq!(estimate_binaries(1, 0, 0), 0);
    }

    #[test]
    fn paper_variable_counts_without_reduction() {
        // §2.3: K modules all pairwise free => K(K-1) integer variables and
        // 2K continuous position variables (rotation/obstacles/aux aside).
        let nl = netlist_of(&[
            ("a", 2.0, 2.0, false),
            ("b", 2.0, 2.0, false),
            ("c", 2.0, 2.0, false),
            ("d", 2.0, 2.0, false),
            ("e", 2.0, 2.0, false),
        ]);
        let cfg = FloorplanConfig::default().with_rotation(false);
        let group = specs_for(&nl, &cfg);
        let input = StepInput {
            netlist: &nl,
            config: &cfg,
            chip_width: 10.0,
            obstacles: &[],
            placed: &[],
            group: &group,
            h_ub: 10.0,
            floor: 0.0,
            pull_down: false,
        };
        let sm = StepModel::build(&input);
        let k = 5;
        assert_eq!(sm.model.num_integer_vars(), k * (k - 1));
        // 2K positions + y_chip.
        assert_eq!(sm.model.num_vars() - sm.model.num_integer_vars(), 2 * k + 1);
    }

    /// The strengthen_equivalence pin for the real pipeline: the first
    /// ami33 augmentation steps solve to the same proven objective with
    /// root strengthening on and off. Each step's inputs are advanced with
    /// the strengthen-on extraction so both solves always see one model.
    #[test]
    fn ami33_steps_objectives_match_strengthen_on_off() {
        use crate::greedy::greedy_height;
        use fp_geom::Skyline;
        let nl = fp_netlist::ami33();
        let cfg = FloorplanConfig::default();
        let order = crate::augment::resolve_order(&nl, &cfg).unwrap();
        let chip_width = crate::augment::derive_chip_width(&nl, &cfg).unwrap();
        let specs: Vec<ShapeSpec> = order
            .iter()
            .map(|&id| ShapeSpec::from_module(id, nl.module(id), &cfg))
            .collect();

        let on_opts = fp_milp::SolveOptions::default();
        let off_opts = on_opts.clone().with_strengthen(false);
        let mut placed: Vec<PlacedModule> = Vec::new();
        let mut envelopes: Vec<Rect> = Vec::new();
        let mut cursor = 0usize;
        let mut steps = 0usize;
        while cursor < specs.len() && steps < 3 {
            let take = cfg.group_size.min(specs.len() - cursor);
            let group = &specs[cursor..cursor + take];
            let (_, h_ub) =
                greedy_height(&Skyline::from_rects(&envelopes), group, chip_width).unwrap();
            let floor = envelopes.iter().map(Rect::top).fold(0.0, f64::max);
            let input = StepInput {
                netlist: &nl,
                config: &cfg,
                chip_width,
                obstacles: &envelopes,
                placed: &placed,
                group,
                h_ub,
                floor,
                pull_down: false,
            };
            let sm = StepModel::build(&input);
            let on = sm.model.solve_with(&on_opts).unwrap();
            let off = sm.model.solve_with(&off_opts).unwrap();
            assert_eq!(
                on.optimality(),
                fp_milp::Optimality::Proven,
                "on, step {steps}"
            );
            assert_eq!(
                off.optimality(),
                fp_milp::Optimality::Proven,
                "off, step {steps}"
            );
            assert!(
                (on.objective() - off.objective()).abs() <= 1e-6 * (1.0 + on.objective().abs()),
                "step {steps}: strengthened {} != plain {}",
                on.objective(),
                off.objective()
            );
            let new = sm.extract(&on, group);
            envelopes.extend(new.iter().map(|p| p.envelope));
            placed.extend(new);
            cursor += take;
            steps += 1;
        }
        assert!(steps >= 2, "expected at least two ami33 steps");
    }
}

//! Incremental re-floorplanning (ECO — engineering change order).
//!
//! A small netlist edit rarely invalidates the whole placement: the paper's
//! successive-augmentation view (Fig. 3) makes the partial floorplan a
//! first-class object, so a delta job can *keep* every untouched module
//! where the base solve put it and re-run only the augmentation machinery
//! for the edited neighborhood. [`eco_replace`] does exactly that:
//!
//! 1. **Keep** — every unedited module whose base placement still realizes
//!    its (possibly re-parameterized) shape keeps its position; its envelope
//!    is re-derived under the *edited* instance's margins, so a routing or
//!    pin change is picked up without moving anything.
//! 2. **Neighborhoods** — kept modules that now overlap (an envelope grew),
//!    fall outside the chip, or share a net with an edited module (when the
//!    objective weighs wirelength) join the replace set, so the re-solve
//!    frees exactly the region and connectivity the edit disturbed.
//! 3. **Re-place** — the replace set is placed by the ordinary step MILP
//!    against the kept modules' *raw envelopes* (not covering rectangles —
//!    a mid-chip removal leaves a usable hole that the hole-free covering
//!    decomposition of §3.1 would pave over), in budget-bounded groups with
//!    the greedy skyline witness as fallback, then one local improvement
//!    round polishes the result.
//!
//! Anything that cannot be kept soundly is replaced; anything that cannot
//! be replaced soundly is an error, and the caller (the service's ECO path)
//! falls back to a scratch solve. An ECO result is therefore always a
//! *valid* floorplan of the edited instance — only its quality, never its
//! legality, depends on how local the edit really was.

use crate::augment::{derive_chip_width, RunStats, StepKind, StepOutcome, StepStats};
use crate::config::{FloorplanConfig, Objective};
use crate::envelope::ShapeSpec;
use crate::error::FloorplanError;
use crate::formulation::{fit_group, StepInput};
use crate::greedy::{greedy_height, widest_error};
use crate::improve::improve_traced;
use crate::placement::{Floorplan, PlacedModule};
use crate::step::solve_step;
use fp_geom::{Rect, Skyline};
use fp_milp::{SolveError, SolveStats};
use fp_netlist::{ModuleId, Netlist};
use std::collections::BTreeSet;
use std::time::Instant;

/// The result of an incremental re-solve: the edited instance's floorplan
/// plus how much of the base placement survived.
#[derive(Debug, Clone)]
pub struct EcoOutcome {
    /// A valid floorplan of the edited netlist.
    pub floorplan: Floorplan,
    /// MILP bookkeeping for the replacement steps and the polish round.
    pub stats: RunStats,
    /// Modules that were re-placed (edited ones plus their disturbed
    /// neighborhoods), in ascending id order.
    pub replaced: Vec<ModuleId>,
    /// Total modules in the edited instance.
    pub total: usize,
}

impl EcoOutcome {
    /// Fraction of the instance that had to be re-placed (`0.0` = pure
    /// keep, `1.0` = effectively a scratch solve).
    #[must_use]
    pub fn touched_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.replaced.len() as f64 / self.total as f64
        }
    }
}

/// Exact placement of ONE rigid module against fixed obstacle envelopes.
///
/// The pure-area step objective (`W·height + y`, the pull-down form) is
/// monotone in `y`, so it admits a *supported* optimum: slide any feasible
/// placement down until blocked, then left until blocked, and repeat —
/// neither move raises the objective and the fixpoint has `x ∈ {0} ∪
/// {obstacle rights}` and `y ∈ {0} ∪ {obstacle tops}`. Enumerating that
/// O(k²) grid (times the ≤ 2 orientations) with an O(k) feasibility scan
/// therefore finds the step optimum in O(k³) arithmetic — microseconds at
/// ECO scales, where the step MILP spends thousands of branch-and-bound
/// nodes proving the same position optimal against ~4k disjunction
/// binaries. Single-module groups dominate ECO traffic (a one-module edit
/// *is* the replace set), which is why this lives here and not in the
/// scratch ladder.
///
/// Only exact for rigid shapes under the pure-area objective; callers
/// gate on that and fall back to the MILP otherwise.
fn place_single_exact(
    spec: &ShapeSpec,
    obstacles: &[Rect],
    chip_width: f64,
    floor: f64,
) -> Option<PlacedModule> {
    let mut orientations = vec![false];
    if spec.has_z {
        orientations.push(true);
    }
    let mut xs: Vec<f64> = Vec::with_capacity(obstacles.len() + 1);
    let mut ys: Vec<f64> = Vec::with_capacity(obstacles.len() + 1);
    xs.push(0.0);
    ys.push(0.0);
    for obs in obstacles {
        xs.push(obs.right());
        ys.push(obs.top());
    }
    // Best = lowest objective, ties broken toward low y, then low x, then
    // the unrotated orientation — a deterministic choice the MILP's
    // arbitrary tie-breaking cannot beat.
    let mut best: Option<(f64, f64, f64, f64, bool)> = None;
    for &z in &orientations {
        let ew = spec.env_width(z, 0.0);
        let eh = spec.env_height(z, 0.0);
        if ew > chip_width + 1e-9 {
            continue;
        }
        for &x in &xs {
            if x + ew > chip_width + 1e-9 {
                continue;
            }
            'candidate: for &y in &ys {
                let rect = Rect::new(x, y, ew, eh);
                for obs in obstacles {
                    if rect.overlaps(obs) {
                        continue 'candidate;
                    }
                }
                let cost = chip_width * (y + eh).max(floor) + y;
                let better = match best {
                    None => true,
                    Some((c, by, bx, ..)) => {
                        cost < c - 1e-9
                            || (cost < c + 1e-9
                                && (y < by - 1e-9 || (y < by + 1e-9 && x < bx - 1e-9)))
                    }
                };
                if better {
                    best = Some((cost, y, x, ew, z));
                }
            }
        }
    }
    best.map(|(_, y, x, _, z)| {
        let (rect, envelope, rotated) = spec.realize(x, y, z, 0.0);
        PlacedModule {
            id: spec.id,
            rect,
            envelope,
            rotated,
        }
    })
}

/// Incrementally re-solves `netlist` (the *edited* instance) starting from
/// `base` — placements expressed in the edited netlist's id space (the
/// caller maps base-job placements by module name). `edited` lists the
/// modules whose definition changed; brand-new modules need not be listed
/// (any module without a base placement is replaced automatically).
///
/// The chip width is resolved from `config` exactly as in a scratch solve,
/// so pass the base job's width via
/// [`FloorplanConfig::with_chip_width`] to re-solve on the same die.
///
/// # Errors
///
/// [`FloorplanError::EmptyNetlist`] on an empty instance,
/// [`FloorplanError::InvalidOrdering`] when `edited` names an id outside
/// the netlist, [`FloorplanError::ModuleTooWide`] when a replaced module
/// cannot fit the chip width, solver model bugs, and
/// [`FloorplanError::Cancelled`] when the stop flag is raised or the
/// incremental result failed validation — the caller should fall back to a
/// scratch solve.
pub fn eco_replace(
    netlist: &Netlist,
    config: &FloorplanConfig,
    base: &[PlacedModule],
    edited: &[ModuleId],
) -> Result<EcoOutcome, FloorplanError> {
    let total = netlist.num_modules();
    if total == 0 {
        return Err(FloorplanError::EmptyNetlist);
    }
    let chip_width = derive_chip_width(netlist, config)?;
    let specs: Vec<ShapeSpec> = netlist
        .module_ids()
        .into_iter()
        .map(|id| ShapeSpec::from_module(id, netlist.module(id), config))
        .collect();

    for &id in edited {
        if id.0 >= total {
            return Err(FloorplanError::InvalidOrdering(format!(
                "edited module id {} out of range ({total} modules)",
                id.0
            )));
        }
    }
    let mut replace: BTreeSet<ModuleId> = edited.iter().copied().collect();

    // Base placements by edited-instance id; ids beyond the edited netlist
    // (modules the delta removed, left unmapped by the caller) are ignored.
    let mut base_of: Vec<Option<&PlacedModule>> = vec![None; total];
    for p in base {
        if p.id.0 < total {
            base_of[p.id.0] = Some(p);
        }
    }

    // Keep step: re-realize every unedited placement under the edited
    // instance's shape/margins. A placement that no longer realizes its
    // module (dims changed, rotation now illegal, missing) is replaced.
    let mut kept: Vec<PlacedModule> = Vec::with_capacity(total);
    for (idx, spec) in specs.iter().enumerate() {
        let id = ModuleId(idx);
        if replace.contains(&id) {
            continue;
        }
        let Some(p) = base_of[idx] else {
            replace.insert(id);
            continue;
        };
        if p.rotated && !spec.has_z {
            replace.insert(id);
            continue;
        }
        let dw = if spec.has_dw {
            (spec.base_dims.0 - p.rect.w).clamp(0.0, spec.dw_max)
        } else {
            0.0
        };
        let (rect, envelope, rotated) = spec.realize(p.envelope.x, p.envelope.y, p.rotated, dw);
        let same_dims = (rect.w - p.rect.w).abs() < 1e-6 && (rect.h - p.rect.h).abs() < 1e-6;
        if !same_dims {
            replace.insert(id);
            continue;
        }
        kept.push(PlacedModule {
            id,
            rect,
            envelope,
            rotated,
        });
    }

    // Overlap neighborhood: envelopes may have grown under the edited
    // parameters. Evict the smaller of each clashing pair (and anything
    // protruding off the chip) until the kept set is pairwise legal.
    kept.retain(|p| {
        let inside = p.envelope.x >= -1e-9
            && p.envelope.y >= -1e-9
            && p.envelope.right() <= chip_width + 1e-9;
        if !inside {
            replace.insert(p.id);
        }
        inside
    });
    loop {
        let mut evict: Option<usize> = None;
        'scan: for i in 0..kept.len() {
            for j in (i + 1)..kept.len() {
                if kept[i].envelope.overlaps(&kept[j].envelope) {
                    let loser = if kept[i].rect.area() <= kept[j].rect.area() {
                        i
                    } else {
                        j
                    };
                    evict = Some(loser);
                    break 'scan;
                }
            }
        }
        let Some(loser) = evict else { break };
        replace.insert(kept[loser].id);
        kept.swap_remove(loser);
    }

    // Net neighborhood: when the objective weighs wirelength, modules that
    // share a net with an edit should be free to follow it. Pure-area runs
    // skip this — moving an unedited module cannot improve the height the
    // MILP optimizes, it only inflates the replace set. Expansion stops at
    // half the instance: past that an ECO is no longer incremental and the
    // caller's touched-fraction threshold should divert to scratch anyway.
    if matches!(config.objective, Objective::AreaPlusWirelength { .. }) {
        let kept_ids: Vec<ModuleId> = kept.iter().map(|p| p.id).collect();
        'expand: for &id in edited {
            for net in netlist.nets_of(id) {
                for &member in netlist.net(net).modules() {
                    if 2 * replace.len() >= total {
                        break 'expand;
                    }
                    if member != id && kept_ids.contains(&member) {
                        replace.insert(member);
                    }
                }
            }
        }
        kept.retain(|p| !replace.contains(&p.id));
    }

    // Re-place the replace set, largest modules first (the default
    // area-descending ordering), in budget-bounded groups against the raw
    // kept envelopes — holes left by removed or shrunken modules stay
    // available as placement sites.
    let mut order: Vec<ModuleId> = replace.iter().copied().collect();
    order.sort_by(|a, b| {
        specs[b.0]
            .area
            .total_cmp(&specs[a.0].area)
            .then(a.0.cmp(&b.0))
    });

    let mut stats = RunStats::default();
    let mut placed: Vec<PlacedModule> = kept.clone();
    let mut cursor = 0usize;
    while cursor < order.len() {
        if config.stop.is_set() {
            return Err(FloorplanError::Cancelled("stop flag raised".into()));
        }
        let obstacles: Vec<Rect> = placed.iter().map(|p| p.envelope).collect();
        let floor = obstacles.iter().map(Rect::top).fold(0.0, f64::max);

        let window: Vec<ShapeSpec> = order[cursor..]
            .iter()
            .take(config.group_size.max(1))
            .map(|id| specs[id.0].clone())
            .collect();
        let take = fit_group(&window, obstacles.len(), config.max_binaries);

        // A single rigid module under the pure-area objective is placed
        // exactly by candidate enumeration — the common ECO shape (one
        // edited module, everything else kept), where the step MILP would
        // otherwise spend thousands of nodes on ~4k obstacle binaries.
        if take == 1 && matches!(config.objective, Objective::Area) && !config.enforce_critical_nets
        {
            let spec = &window[0];
            if spec.soft.is_none() && !spec.has_dw {
                let step_started = Instant::now();
                if let Some(pm) = place_single_exact(spec, &obstacles, chip_width, floor) {
                    stats.steps.push(StepStats::new(
                        StepKind::Placement,
                        vec![spec.id],
                        obstacles.len(),
                        0,
                        &SolveStats::default(),
                        step_started.elapsed(),
                        StepOutcome::Optimal,
                    ));
                    placed.push(pm);
                    cursor += 1;
                    continue;
                }
            }
        }
        let group = &window[..take];

        let Some((greedy, h_ub)) =
            greedy_height(&Skyline::from_rects(&obstacles), group, chip_width)
        else {
            return Err(widest_error(group, chip_width, netlist));
        };

        let input = StepInput {
            netlist,
            config,
            chip_width,
            obstacles: &obstacles,
            placed: &placed,
            group,
            h_ub,
            floor,
            // The kept top usually pins the chip height, so packing the
            // replacements low is the objective that actually helps.
            pull_down: true,
        };
        // The greedy witness satisfies every constraint, so limits and
        // numerical trouble degrade to the greedy placement.
        let step = solve_step(StepKind::Placement, &input, &greedy, None);
        if let Some(e @ SolveError::InvalidModel(_)) = step.error {
            return Err(FloorplanError::Solver(e));
        }
        stats.steps.push(step.stats);
        placed.extend(step.placements);
        cursor += take;
    }

    let candidate = Floorplan::new(chip_width, placed);
    if candidate.len() != total || !candidate.is_valid() {
        return Err(FloorplanError::Cancelled(format!(
            "eco result invalid: {} of {total} modules, violations: {:?}",
            candidate.len(),
            candidate.violations()
        )));
    }

    // One local improvement round: a compaction LP plus a single top-band
    // re-solve. Bounded work, and `improve_traced` never returns a worse
    // floorplan than its input.
    let polished = improve_traced(&candidate, netlist, config, 1, &mut stats)?;

    Ok(EcoOutcome {
        floorplan: polished,
        stats,
        replaced: order
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::Floorplanner;
    use fp_milp::SolveOptions;
    use fp_netlist::generator::ProblemGenerator;
    use fp_netlist::Module;
    use std::time::Duration;

    fn fast() -> FloorplanConfig {
        FloorplanConfig::default().with_step_options(
            SolveOptions::default()
                .with_node_limit(800)
                .with_time_limit(Duration::from_millis(800)),
        )
    }

    fn solve(nl: &Netlist, cfg: &FloorplanConfig) -> Floorplan {
        Floorplanner::with_config(nl, cfg.clone())
            .run()
            .unwrap()
            .floorplan
    }

    /// Rebuilds `nl` with module `target` swapped for `replacement` —
    /// ids stay stable because insertion order is preserved.
    fn with_swapped(nl: &Netlist, target: ModuleId, replacement: Module) -> Netlist {
        let mut out = Netlist::new(nl.name());
        for (id, module) in nl.modules() {
            let m = if id == target {
                replacement.clone()
            } else {
                module.clone()
            };
            out.add_module(m).unwrap();
        }
        for (_, net) in nl.nets() {
            out.add_net(net.clone()).unwrap();
        }
        out
    }

    #[test]
    fn single_edit_keeps_most_of_the_base() {
        let nl = ProblemGenerator::new(12, 7).generate();
        let cfg = fast();
        let base = solve(&nl, &cfg);
        // Resize one module; every other placement should survive.
        let target = ModuleId(3);
        let (w, h) = {
            let (lo, _) = nl.module(target).width_range();
            (lo * 1.3, nl.module(target).area() / (lo * 1.3))
        };
        let edited_nl = with_swapped(
            &nl,
            target,
            Module::rigid(nl.module(target).name(), w, h, false),
        );
        let cfg = cfg.with_chip_width(base.chip_width());
        let base_mods: Vec<PlacedModule> = base.iter().copied().collect();
        let out = eco_replace(&edited_nl, &cfg, &base_mods, &[target]).unwrap();
        assert!(out.floorplan.is_valid(), "{:?}", out.floorplan.violations());
        assert_eq!(out.total, 12);
        assert!(out.replaced.contains(&target));
        assert!(
            out.touched_fraction() <= 0.5,
            "single edit replaced {:?}",
            out.replaced
        );
        assert_eq!(out.floorplan.len(), 12);
    }

    #[test]
    fn missing_placement_counts_as_new_module() {
        let nl = ProblemGenerator::new(8, 5).generate();
        let cfg = fast();
        let base = solve(&nl, &cfg);
        let cfg = cfg.with_chip_width(base.chip_width());
        // Drop one placement from the base: the driver must re-place it.
        let partial: Vec<PlacedModule> = base
            .iter()
            .filter(|p| p.id != ModuleId(2))
            .copied()
            .collect();
        let out = eco_replace(&nl, &cfg, &partial, &[]).unwrap();
        assert!(out.floorplan.is_valid());
        assert!(out.replaced.contains(&ModuleId(2)));
        assert_eq!(out.floorplan.len(), 8);
    }

    #[test]
    fn unedited_identical_instance_is_pure_keep() {
        let nl = ProblemGenerator::new(9, 4).generate();
        let cfg = fast();
        let base = solve(&nl, &cfg);
        let cfg = cfg.with_chip_width(base.chip_width());
        let mods: Vec<PlacedModule> = base.iter().copied().collect();
        let out = eco_replace(&nl, &cfg, &mods, &[]).unwrap();
        assert!(out.replaced.is_empty(), "replaced {:?}", out.replaced);
        assert!(out.floorplan.is_valid());
        // Improvement may still compact, so height can only get better.
        assert!(out.floorplan.chip_height() <= base.chip_height() + 1e-9);
    }

    #[test]
    fn out_of_range_edit_id_rejected() {
        let nl = ProblemGenerator::new(4, 2).generate();
        let cfg = fast();
        let base = solve(&nl, &cfg);
        let mods: Vec<PlacedModule> = base.iter().copied().collect();
        let err = eco_replace(&nl, &cfg, &mods, &[ModuleId(99)]).unwrap_err();
        assert!(matches!(err, FloorplanError::InvalidOrdering(_)));
    }

    /// A polish round that stops without an incumbent returns its input,
    /// a legal placement, so it must not count as a greedy fallback.
    #[test]
    fn failed_polish_round_is_not_a_greedy_fallback() {
        let capped = |nodes| {
            FloorplanConfig::default().with_step_options(
                SolveOptions::default()
                    .with_node_limit(nodes)
                    .with_time_limit(Duration::from_secs(24 * 3600)),
            )
        };
        let nl = ProblemGenerator::new(12, 7).generate();
        let base = solve(&nl, &capped(800));
        let target = ModuleId(3);
        let (lo, _) = nl.module(target).width_range();
        let smaller = Module::rigid(nl.module(target).name(), lo * 0.5, lo * 0.5, false);
        let edited_nl = with_swapped(&nl, target, smaller);
        let cfg = capped(1).with_chip_width(base.chip_width());
        let base_mods: Vec<PlacedModule> = base.iter().copied().collect();
        let out = eco_replace(&edited_nl, &cfg, &base_mods, &[target]).unwrap();
        assert!(out.floorplan.is_valid(), "{:?}", out.floorplan.violations());
        let steps: Vec<_> = out
            .stats
            .steps
            .iter()
            .map(|s| (s.kind, s.outcome))
            .collect();
        assert_eq!(
            steps,
            [
                (StepKind::Placement, StepOutcome::Optimal),
                (StepKind::Reoptimize, StepOutcome::GreedyFallback)
            ]
        );
        assert_eq!(out.stats.greedy_fallbacks(), 0);
    }

    #[test]
    fn empty_base_degrades_to_scratch_quality_solve() {
        // Every module lacks a placement, so ECO re-places everything and
        // must still produce a valid floorplan.
        let nl = ProblemGenerator::new(6, 3).generate();
        let cfg = fast();
        let out = eco_replace(&nl, &cfg, &[], &[]).unwrap();
        assert_eq!(out.replaced.len(), 6);
        assert!((out.touched_fraction() - 1.0).abs() < 1e-12);
        assert!(out.floorplan.is_valid());
    }
}

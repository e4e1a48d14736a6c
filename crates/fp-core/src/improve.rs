//! Post-augmentation floorplan improvement (paper Fig. 3, line 13:
//! "Adjust floorplan").
//!
//! Successive augmentation is greedy across groups: the last groups land on
//! whatever skyline the earlier ones left, so the loss concentrates at the
//! ragged top of the chip. [`reoptimize_top`] attacks exactly that: it
//! removes the modules that define the chip's top, collapses the rest into
//! covering rectangles, and re-solves one MILP for the removed group — the
//! same subproblem shape as an augmentation step, so the binary budget
//! stays bounded. [`improve`] alternates this with the §2.5 topology LP
//! until a round stops helping.

use crate::augment::{derive_chip_width, RunStats, StepKind};
use crate::config::FloorplanConfig;
use crate::envelope::ShapeSpec;
use crate::error::FloorplanError;
use crate::formulation::{estimate_binaries, StepInput};
use crate::greedy::greedy_height;
use crate::placement::{Floorplan, PlacedModule};
use crate::step::solve_step;
use crate::topology::optimize_topology;
use fp_geom::covering::covering_rectangles;
use fp_geom::{Rect, Skyline};
use fp_netlist::Netlist;
use fp_obs::{Event, Phase};
use std::time::Instant;

/// Removes the `group_size` modules with the highest envelope tops and
/// re-places them optimally against the rest. Returns the improved
/// floorplan, or a clone of the input when no strictly better placement was
/// found (or the MILP hit its limits).
///
/// # Errors
///
/// Propagates configuration errors ([`FloorplanError::ModuleTooWide`],
/// solver model bugs); solver *limits* are not errors — the input is
/// returned unchanged.
pub fn reoptimize_top(
    floorplan: &Floorplan,
    netlist: &Netlist,
    config: &FloorplanConfig,
    group_size: usize,
) -> Result<Floorplan, FloorplanError> {
    reoptimize(
        floorplan,
        netlist,
        config,
        group_size,
        0,
        &mut RunStats::default(),
    )
}

/// Like [`reoptimize_top`], but skips the `skip_top` topmost modules before
/// selecting the group — re-solving a deeper band of the chip, which lets
/// [`improve`] keep making progress when the very top is already optimal.
/// Every MILP it solves is appended to `stats` as a
/// [`StepKind::Reoptimize`] step, whatever its outcome.
fn reoptimize(
    floorplan: &Floorplan,
    netlist: &Netlist,
    config: &FloorplanConfig,
    group_size: usize,
    skip_top: usize,
    stats: &mut RunStats,
) -> Result<Floorplan, FloorplanError> {
    if floorplan.len() < 2 || group_size == 0 {
        return Ok(floorplan.clone());
    }
    let chip_width = derive_chip_width(
        netlist,
        &config.clone().with_chip_width(floorplan.chip_width()),
    )?;

    // Topmost modules first; the band starts `skip_top` below the top.
    let mut order: Vec<&PlacedModule> = floorplan.iter().collect();
    order.sort_by(|a, b| b.envelope.top().total_cmp(&a.envelope.top()));
    let skip = skip_top.min(floorplan.len().saturating_sub(2));
    let group_size = group_size.min(floorplan.len() - skip - 1).max(1);

    let mut removed: Vec<&PlacedModule> = order[skip..skip + group_size].to_vec();
    let remaining: Vec<PlacedModule> = order[..skip]
        .iter()
        .chain(order[skip + group_size..].iter())
        .map(|&&p| p)
        .collect();

    let envelopes: Vec<Rect> = remaining.iter().map(|p| p.envelope).collect();
    // Top removal (skip = 0) leaves a flat-ish arrangement where the
    // covering decomposition is safe and shrinks the obstacle set. A deeper
    // band leaves a hole that covering would fill, so the band mode keeps
    // every remaining envelope as its own obstacle.
    let mut obstacles = if skip == 0 {
        covering_rectangles(&envelopes)
    } else {
        envelopes
    };
    let floor = obstacles.iter().map(Rect::top).fold(0.0, f64::max);

    // Respect the binary budget: shrink the group (put modules back into
    // the obstacle set) if needed.
    let mut specs: Vec<ShapeSpec> = removed
        .iter()
        .map(|p| ShapeSpec::from_module(p.id, netlist.module(p.id), config))
        .collect();
    let mut returned: Vec<PlacedModule> = Vec::new();
    while specs.len() > 1 {
        let rot = specs.iter().filter(|s| s.has_z).count();
        if estimate_binaries(specs.len(), obstacles.len(), rot) <= config.max_binaries {
            break;
        }
        // Return the lowest of the removed modules to the fixed set: it
        // becomes an obstacle again and keeps its placement.
        let back = *removed.pop().expect("non-empty");
        specs.pop();
        obstacles.push(back.envelope);
        returned.push(back);
    }

    let Some((greedy, h_ub)) = greedy_height(&Skyline::from_rects(&obstacles), &specs, chip_width)
    else {
        return Ok(floorplan.clone());
    };
    // The current floorplan height is also an upper bound achieved by a
    // *real* placement; aim below the better of the two.
    let current = floorplan.chip_height();
    let input = StepInput {
        netlist,
        config,
        chip_width,
        obstacles: &obstacles,
        placed: &remaining,
        group: &specs,
        h_ub: h_ub.min(current.max(floor)).max(floor),
        floor,
        // Band mode's chip height is pinned by the fixed top, so packing
        // low is the whole objective; in top mode the pure height objective
        // prunes better.
        pull_down: skip > 0,
    };
    // Record the solve whatever its outcome: a limit that produced no
    // incumbent still explored nodes, and those belong in the totals.
    let step = solve_step(StepKind::Reoptimize, &input, &greedy, None);
    stats.steps.push(step.stats);
    // A failed solve keeps the input: it is a legal placement already.
    if step.error.is_some() {
        return Ok(floorplan.clone());
    }

    let mut modules = remaining;
    modules.extend(returned);
    modules.extend(step.placements);
    let candidate = Floorplan::new(floorplan.chip_width(), modules);
    debug_assert_eq!(
        candidate.len(),
        floorplan.len(),
        "module lost in reoptimize_top"
    );

    // Accept a strictly lower chip, or — at equal height — a strictly
    // lower packing (the band mode's win: compaction then harvests the
    // slack at the top).
    let accept = candidate.len() == floorplan.len()
        && candidate.is_valid()
        && (candidate.chip_height() < current - 1e-9
            || (candidate.chip_height() < current + 1e-9
                && packing_score(&candidate) < packing_score(floorplan) - 1e-6));
    if accept {
        Ok(candidate)
    } else {
        Ok(floorplan.clone())
    }
}

/// Area-weighted sum of envelope bottoms: lower = better packed toward the
/// chip floor.
fn packing_score(floorplan: &Floorplan) -> f64 {
    floorplan.iter().map(|p| p.envelope.y * p.rect.area()).sum()
}

/// Improvement loop: alternately compacts (§2.5 topology LP) and re-solves
/// the chip's top (one MILP per round), for at most `rounds` rounds or
/// until a full round yields no gain.
///
/// The result is never worse than the input.
///
/// # Errors
///
/// Propagates [`FloorplanError`] from the topology LP or configuration.
pub fn improve(
    floorplan: &Floorplan,
    netlist: &Netlist,
    config: &FloorplanConfig,
    rounds: usize,
) -> Result<Floorplan, FloorplanError> {
    let mut discarded = RunStats::default();
    improve_traced(floorplan, netlist, config, rounds, &mut discarded)
}

/// [`improve`] with per-solve bookkeeping: every re-optimization MILP is
/// appended to `stats` as a [`StepKind::Reoptimize`] step (so
/// [`RunStats::total_nodes`] covers the whole pipeline, not just
/// augmentation), and each round emits an
/// [`fp_obs::Event::ImproveRound`] through the config's tracer.
///
/// The §2.5 topology LP has no integer variables, so its solve emits no
/// solver events and traced branch-and-bound node totals stay equal to the
/// recorded MILP step statistics; each call is timed as a `topology_lp`
/// span.
///
/// # Errors
///
/// Propagates [`FloorplanError`] from the topology LP or configuration.
pub fn improve_traced(
    floorplan: &Floorplan,
    netlist: &Netlist,
    config: &FloorplanConfig,
    rounds: usize,
    stats: &mut RunStats,
) -> Result<Floorplan, FloorplanError> {
    let mut best = optimize_topology(floorplan, netlist, config)?;
    let group = config.group_size.max(3) + 2;
    let mut skip = 0usize;
    for round in 0..rounds {
        // Improvement is strictly optional polish: once the run deadline
        // has passed, stop instead of burning zero-budget MILP rounds.
        if config.deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let candidate = reoptimize(&best, netlist, config, group, skip, stats)?;
        let candidate = optimize_topology(&candidate, netlist, config)?;
        let better = candidate.chip_height() < best.chip_height() - 1e-9
            || (candidate.chip_height() < best.chip_height() + 1e-9
                && packing_score(&candidate) < packing_score(&best) - 1e-6);
        if better {
            best = candidate;
            skip = 0; // progress: go back to attacking the top
        }
        config.tracer.emit(
            Phase::Improve,
            Event::ImproveRound {
                round,
                accepted: better,
                height: best.chip_height(),
            },
        );
        if !better {
            // Stalled at this band: move one band deeper into the chip.
            skip += group;
            if skip + 1 >= best.len() {
                break;
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::Floorplanner;
    use fp_milp::SolveOptions;
    use fp_netlist::generator::ProblemGenerator;
    use fp_netlist::ModuleId;
    use std::time::Duration;

    fn fast() -> FloorplanConfig {
        FloorplanConfig::default().with_step_options(
            SolveOptions::default()
                .with_node_limit(800)
                .with_time_limit(Duration::from_millis(800)),
        )
    }

    #[test]
    fn improve_never_hurts_and_stays_valid() {
        let nl = ProblemGenerator::new(10, 31).generate();
        let cfg = fast();
        let base = Floorplanner::with_config(&nl, cfg.clone()).run().unwrap();
        let improved = improve(&base.floorplan, &nl, &cfg, 3).unwrap();
        assert!(improved.is_valid(), "{:?}", improved.violations());
        assert!(improved.chip_height() <= base.floorplan.chip_height() + 1e-9);
        assert_eq!(improved.len(), 10);
    }

    #[test]
    fn reoptimize_fixes_a_bad_top() {
        // Build a deliberately bad floorplan: a wide flat base with one
        // module wastefully floating on top beside free space.
        let nl = {
            let mut nl = fp_netlist::Netlist::new("t");
            nl.add_module(fp_netlist::Module::rigid("base", 8.0, 2.0, false))
                .unwrap();
            nl.add_module(fp_netlist::Module::rigid("a", 4.0, 2.0, false))
                .unwrap();
            nl.add_module(fp_netlist::Module::rigid("b", 4.0, 2.0, false))
                .unwrap();
            nl
        };
        use fp_geom::Rect;
        let place = |id: usize, x: f64, y: f64, w: f64, h: f64| PlacedModule {
            id: ModuleId(id),
            rect: Rect::new(x, y, w, h),
            envelope: Rect::new(x, y, w, h),
            rotated: false,
        };
        // a and b stacked instead of side by side: height 6 instead of 4.
        let bad = Floorplan::new(
            8.0,
            vec![
                place(0, 0.0, 0.0, 8.0, 2.0),
                place(1, 0.0, 2.0, 4.0, 2.0),
                place(2, 0.0, 4.0, 4.0, 2.0),
            ],
        );
        let cfg = FloorplanConfig::default();
        let fixed = reoptimize_top(&bad, &nl, &cfg, 2).unwrap();
        assert!(fixed.is_valid());
        assert!(
            (fixed.chip_height() - 4.0).abs() < 1e-6,
            "expected height 4, got {}",
            fixed.chip_height()
        );
    }

    #[test]
    fn degenerate_inputs_pass_through() {
        let nl = ProblemGenerator::new(1, 1).generate();
        let cfg = fast();
        let base = Floorplanner::with_config(&nl, cfg.clone()).run().unwrap();
        let same = reoptimize_top(&base.floorplan, &nl, &cfg, 3).unwrap();
        assert_eq!(same.len(), 1);
        let same = improve(&base.floorplan, &nl, &cfg, 2).unwrap();
        assert_eq!(same.len(), 1);
    }

    #[test]
    fn budget_shrink_never_loses_modules() {
        // Regression: with a tiny binary budget the group shrinks and the
        // pushed-back modules must survive into the result.
        let nl = ProblemGenerator::new(12, 8).generate();
        let mut cfg = fast();
        cfg.max_binaries = 8; // force aggressive shrinking
        let base = Floorplanner::with_config(&nl, cfg.clone()).run().unwrap();
        let out = reoptimize_top(&base.floorplan, &nl, &cfg, 6).unwrap();
        assert_eq!(out.len(), 12, "modules lost during budget shrink");
        assert!(out.is_valid());
        for (id, _) in nl.modules() {
            assert!(out.placement(id).is_some(), "{id} missing");
        }
    }

    #[test]
    fn group_zero_is_identity() {
        let nl = ProblemGenerator::new(5, 2).generate();
        let cfg = fast();
        let base = Floorplanner::with_config(&nl, cfg.clone()).run().unwrap();
        let out = reoptimize_top(&base.floorplan, &nl, &cfg, 0).unwrap();
        assert_eq!(out, base.floorplan);
    }
}

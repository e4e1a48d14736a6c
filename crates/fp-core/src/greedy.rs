//! Bottom-left greedy placement on the skyline.
//!
//! Two roles:
//!
//! 1. **Warm start / upper bound** for every augmentation-step MILP: the
//!    greedy height is a *feasible* chip height, so it both caps the `y`
//!    search space and tightens the vertical big-M — the practical reason
//!    the per-step branch-and-bound stays fast.
//! 2. **Fallback**: if a step's MILP hits its limits without an incumbent,
//!    the greedy placement stands in, so the floorplanner always completes
//!    (matching the paper's engineering stance that each step must finish).
//!
//! The public [`bottom_left`] entry is also the constructive baseline the
//! benchmark harness compares the MILP floorplanner against.

use crate::config::FloorplanConfig;
use crate::envelope::ShapeSpec;
use crate::error::FloorplanError;
use crate::placement::{Floorplan, PlacedModule};
use fp_geom::{Rect, Skyline};
use fp_netlist::{ModuleId, Netlist};

/// A greedy shape + position decision for one module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GreedyPlacement {
    pub x: f64,
    pub y: f64,
    pub z: bool,
    pub dw: f64,
}

/// Drops each module of `group` (in order) bottom-left onto the skyline of
/// `existing` envelopes, choosing the shape candidate that minimizes the
/// resulting top edge (ties: smaller x).
///
/// Returns `None` if some module fits in no orientation/shape — the caller
/// treats that as [`FloorplanError::ModuleTooWide`].
pub(crate) fn greedy_place(
    existing: &[Rect],
    group: &[ShapeSpec],
    chip_w: f64,
) -> Option<Vec<GreedyPlacement>> {
    greedy_place_on(&Skyline::from_rects(existing), group, chip_w)
}

/// [`greedy_place`] on a pre-built skyline — the incremental path for the
/// augmentation driver, which maintains one skyline across all steps.
pub(crate) fn greedy_place_on(
    existing: &Skyline,
    group: &[ShapeSpec],
    chip_w: f64,
) -> Option<Vec<GreedyPlacement>> {
    // One skyline maintained incrementally: each placement is a single
    // `add_rect` instead of a full rebuild over all placed rects.
    let mut sky = existing.clone();
    let mut out = Vec::with_capacity(group.len());
    for spec in group {
        let mut best: Option<(f64, f64, GreedyPlacement)> = None; // (top, x, g)
        for (z, dw) in spec.shape_candidates() {
            let we = spec.env_width(z, dw);
            let he = spec.env_height(z, dw);
            let Some((x, y)) = sky.drop_position(we, chip_w) else {
                continue;
            };
            let top = y + he;
            let better = match &best {
                None => true,
                Some((bt, bx, _)) => top < bt - 1e-9 || ((top - bt).abs() <= 1e-9 && x < *bx),
            };
            if better {
                best = Some((top, x, GreedyPlacement { x, y, z, dw }));
            }
        }
        let (_, _, g) = best?;
        sky.add_rect(&Rect::new(
            g.x,
            g.y,
            spec.env_width(g.z, g.dw),
            spec.env_height(g.z, g.dw),
        ));
        out.push(g);
    }
    Some(out)
}

/// The resulting chip height of a greedy placement of `group` on top of
/// `existing` (the feasible upper bound fed to the MILP).
pub(crate) fn greedy_height(
    existing: &[Rect],
    group: &[ShapeSpec],
    chip_w: f64,
) -> Option<(Vec<GreedyPlacement>, f64)> {
    greedy_height_on(&Skyline::from_rects(existing), group, chip_w)
}

/// [`greedy_height`] on a pre-built skyline (see [`greedy_place_on`]).
pub(crate) fn greedy_height_on(
    existing: &Skyline,
    group: &[ShapeSpec],
    chip_w: f64,
) -> Option<(Vec<GreedyPlacement>, f64)> {
    let placements = greedy_place_on(existing, group, chip_w)?;
    let mut top: f64 = existing.max_height();
    for (g, spec) in placements.iter().zip(group) {
        top = top.max(g.y + spec.env_height(g.z, g.dw));
    }
    Some((placements, top))
}

/// Constructive bottom-left baseline floorplanner (no MILP).
///
/// Places every module of `netlist` in the order implied by
/// `config.ordering`, greedily bottom-left. Serves as the comparison
/// baseline in the benchmark harness and as documentation of what the MILP
/// buys over a classic constructive heuristic.
///
/// # Errors
///
/// [`FloorplanError::EmptyNetlist`] or [`FloorplanError::ModuleTooWide`].
pub fn bottom_left(
    netlist: &Netlist,
    config: &FloorplanConfig,
) -> Result<Floorplan, FloorplanError> {
    let order = crate::augment::resolve_order(netlist, config)?;
    let chip_w = crate::augment::resolve_chip_width(netlist, config)?;
    let specs: Vec<ShapeSpec> = order
        .iter()
        .map(|&id| ShapeSpec::from_module(id, netlist.module(id), config))
        .collect();
    let placements = greedy_place(&[], &specs, chip_w).ok_or_else(|| {
        // greedy_place only fails when some module exceeds the chip width,
        // which resolve_chip_width should have caught; report the widest.
        widest_error(&specs, chip_w, netlist)
    })?;
    Ok(Floorplan::new(chip_w, realize_greedy(&placements, &specs)))
}

/// The placed modules of greedy decisions: `placements[i]` places
/// `group[i]`.
pub(crate) fn realize_greedy(
    placements: &[GreedyPlacement],
    group: &[ShapeSpec],
) -> Vec<PlacedModule> {
    placements
        .iter()
        .zip(group)
        .map(|(g, spec)| {
            let (rect, envelope, rotated) = spec.realize(g.x, g.y, g.z, g.dw);
            PlacedModule {
                id: spec.id,
                rect,
                envelope,
                rotated,
            }
        })
        .collect()
}

/// One module's shape decision handed to [`legalize`], in placement order.
///
/// Produced by continuous or tree-based backends (the analytical placer,
/// the slicing annealer) that know *which* shape each module should take
/// and roughly *where* it should sit, but whose raw coordinates may overlap
/// or overflow the outline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalizeItem {
    /// The module to place.
    pub id: ModuleId,
    /// Preferred orientation (ignored when the module cannot rotate).
    pub rotated: bool,
    /// Preferred soft-module width shrink Δw from `w_max`; clamped to the
    /// legal range and ignored for rigid modules.
    pub width_adjust: f64,
}

/// Legalizes a backend's placement intent onto the skyline: drops each
/// module bottom-left **in the given order**, honoring its preferred shape
/// when it fits and falling back to the best-fitting alternative shape
/// otherwise. Always returns a valid overlap-free [`Floorplan`] on the
/// same fixed outline the MILP pipeline uses (see
/// [`derive_chip_width`](crate::derive_chip_width)).
///
/// The order *is* the placement information: callers sort modules by their
/// intended position (bottom row first), which the skyline drop then
/// reproduces as closely as legality allows.
///
/// # Errors
///
/// * [`FloorplanError::InvalidOrdering`] unless `items` covers every module
///   of `netlist` exactly once,
/// * [`FloorplanError::EmptyNetlist`] / [`FloorplanError::ModuleTooWide`]
///   as the width derivation reports them.
pub fn legalize(
    netlist: &Netlist,
    config: &FloorplanConfig,
    items: &[LegalizeItem],
) -> Result<Floorplan, FloorplanError> {
    let n = netlist.num_modules();
    let mut seen = vec![false; n];
    for item in items {
        if item.id.0 >= n {
            return Err(FloorplanError::InvalidOrdering(format!(
                "module id {} out of range ({n} modules)",
                item.id.0
            )));
        }
        if seen[item.id.0] {
            return Err(FloorplanError::InvalidOrdering(format!(
                "module id {} listed twice",
                item.id.0
            )));
        }
        seen[item.id.0] = true;
    }
    if items.len() != n {
        return Err(FloorplanError::InvalidOrdering(format!(
            "{} items for {n} modules",
            items.len()
        )));
    }
    let chip_w = crate::augment::resolve_chip_width(netlist, config)?;

    // Incremental skyline: one `add_rect` per placed module instead of an
    // O(n) rebuild before each drop.
    let mut sky = Skyline::new();
    let mut placed: Vec<PlacedModule> = Vec::with_capacity(n);
    for item in items {
        let spec = ShapeSpec::from_module(item.id, netlist.module(item.id), config);
        // Preferred shape first, then the generic candidates as fallbacks.
        let preferred = (
            item.rotated && spec.has_z,
            if spec.has_dw {
                item.width_adjust.clamp(0.0, spec.dw_max)
            } else {
                0.0
            },
        );
        let mut chosen: Option<(f64, f64, f64, bool, f64)> = None; // (top, x, y, z, dw)
        let we = spec.env_width(preferred.0, preferred.1);
        if let Some((x, y)) = sky.drop_position(we, chip_w) {
            let he = spec.env_height(preferred.0, preferred.1);
            chosen = Some((y + he, x, y, preferred.0, preferred.1));
        } else {
            for (z, dw) in spec.shape_candidates() {
                let we = spec.env_width(z, dw);
                let Some((x, y)) = sky.drop_position(we, chip_w) else {
                    continue;
                };
                let top = y + spec.env_height(z, dw);
                let better = match &chosen {
                    None => true,
                    Some((bt, bx, ..)) => top < bt - 1e-9 || ((top - bt).abs() <= 1e-9 && x < *bx),
                };
                if better {
                    chosen = Some((top, x, y, z, dw));
                }
            }
        }
        let Some((_, x, y, z, dw)) = chosen else {
            return Err(widest_error(&[spec], chip_w, netlist));
        };
        let (rect, envelope, rotated) = spec.realize(x, y, z, dw);
        sky.add_rect(&envelope);
        placed.push(PlacedModule {
            id: spec.id,
            rect,
            envelope,
            rotated,
        });
    }
    Ok(Floorplan::new(chip_w, placed))
}

pub(crate) fn widest_error(specs: &[ShapeSpec], chip_w: f64, netlist: &Netlist) -> FloorplanError {
    let widest = specs
        .iter()
        .max_by(|a, b| a.min_env_width().total_cmp(&b.min_env_width()))
        .expect("at least one module");
    FloorplanError::ModuleTooWide {
        module: netlist.module(widest.id).name().to_string(),
        min_width: widest.min_env_width(),
        chip_width: chip_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netlist::{Module, ModuleId};

    fn spec(id: usize, w: f64, h: f64, rot: bool) -> ShapeSpec {
        ShapeSpec::from_module(
            ModuleId(id),
            &Module::rigid(format!("m{id}"), w, h, rot),
            &FloorplanConfig::default(),
        )
    }

    #[test]
    fn fills_row_then_stacks() {
        let group = vec![
            spec(0, 4.0, 2.0, false),
            spec(1, 4.0, 2.0, false),
            spec(2, 4.0, 2.0, false),
        ];
        let g = greedy_place(&[], &group, 8.0).unwrap();
        assert_eq!((g[0].x, g[0].y), (0.0, 0.0));
        assert_eq!((g[1].x, g[1].y), (4.0, 0.0));
        assert_eq!((g[2].x, g[2].y), (0.0, 2.0));
    }

    #[test]
    fn rotation_used_when_it_helps() {
        // 6x2 module on a 3-wide chip only fits rotated (2x6).
        let group = vec![spec(0, 6.0, 2.0, true)];
        let g = greedy_place(&[], &group, 3.0).unwrap();
        assert!(g[0].z);
        // Without rotation it cannot fit.
        let fixed = vec![spec(0, 6.0, 2.0, false)];
        assert!(greedy_place(&[], &fixed, 3.0).is_none());
    }

    #[test]
    fn respects_existing_obstacles() {
        let existing = vec![Rect::new(0.0, 0.0, 8.0, 3.0)];
        let group = vec![spec(0, 4.0, 2.0, false)];
        let (g, top) = greedy_height(&existing, &group, 8.0).unwrap();
        assert_eq!(g[0].y, 3.0);
        assert_eq!(top, 5.0);
    }

    #[test]
    fn greedy_height_counts_existing_top() {
        let existing = vec![Rect::new(0.0, 0.0, 2.0, 10.0)];
        let group = vec![spec(0, 4.0, 2.0, false)];
        let (_, top) = greedy_height(&existing, &group, 8.0).unwrap();
        assert_eq!(top, 10.0); // module fits beside the tower
    }

    #[test]
    fn baseline_floorplan_is_valid() {
        let nl = fp_netlist::generator::ProblemGenerator::new(10, 3).generate();
        let fp = bottom_left(&nl, &FloorplanConfig::default()).unwrap();
        assert_eq!(fp.len(), 10);
        assert!(fp.is_valid(), "{:?}", fp.violations());
        assert!(fp.utilization(&nl) > 0.3);
    }

    #[test]
    fn baseline_rejects_empty() {
        let nl = Netlist::new("empty");
        assert!(matches!(
            bottom_left(&nl, &FloorplanConfig::default()),
            Err(FloorplanError::EmptyNetlist)
        ));
    }

    #[test]
    fn legalize_produces_valid_floorplan() {
        let nl = fp_netlist::generator::ProblemGenerator::new(12, 3)
            .with_flexible_fraction(0.3)
            .generate();
        let items: Vec<LegalizeItem> = (0..12)
            .map(|i| LegalizeItem {
                id: ModuleId(i),
                rotated: i % 2 == 0,
                width_adjust: 0.5,
            })
            .collect();
        let fp = legalize(&nl, &FloorplanConfig::default(), &items).unwrap();
        assert_eq!(fp.len(), 12);
        assert!(fp.is_valid(), "{:?}", fp.violations());
    }

    #[test]
    fn legalize_honors_preferred_rotation_when_it_fits() {
        let mut nl = Netlist::new("one");
        nl.add_module(Module::rigid("a", 6.0, 2.0, true)).unwrap();
        let cfg = FloorplanConfig::default().with_chip_width(10.0);
        let items = [LegalizeItem {
            id: ModuleId(0),
            rotated: true,
            width_adjust: 0.0,
        }];
        let fp = legalize(&nl, &cfg, &items).unwrap();
        let placed = fp.placement(ModuleId(0)).unwrap();
        assert!(placed.rotated);
        // 6x2 rotated -> 2x6 footprint.
        assert_eq!(placed.rect.w, 2.0);
    }

    #[test]
    fn legalize_rejects_bad_coverage() {
        let nl = fp_netlist::generator::ProblemGenerator::new(3, 2).generate();
        let short = [LegalizeItem {
            id: ModuleId(0),
            rotated: false,
            width_adjust: 0.0,
        }];
        assert!(matches!(
            legalize(&nl, &FloorplanConfig::default(), &short),
            Err(FloorplanError::InvalidOrdering(_))
        ));
        let dup: Vec<LegalizeItem> = [0usize, 1, 1]
            .iter()
            .map(|&i| LegalizeItem {
                id: ModuleId(i),
                rotated: false,
                width_adjust: 0.0,
            })
            .collect();
        assert!(matches!(
            legalize(&nl, &FloorplanConfig::default(), &dup),
            Err(FloorplanError::InvalidOrdering(_))
        ));
    }
}

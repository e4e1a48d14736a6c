//! Net ordering, decomposition and Dijkstra routing (paper §3.2).

use crate::adjust::{adjust, ChipAdjustment};
use crate::config::{RouteAlgorithm, RouteConfig, RoutingMode};
use crate::error::RouteError;
use crate::grid::{CellId, GridEdge, RoutingGrid};
use crate::pins::{pin_anchor, pin_toward};
use fp_core::Floorplan;
use fp_geom::Point;
use fp_netlist::{NetId, Netlist};
use fp_obs::{Event, Phase};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One routed net.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedNet {
    /// Which net.
    pub id: NetId,
    /// Total routed length (grid path lengths plus pin offsets).
    pub length: f64,
    /// Polylines, one per two-pin segment of the net's spanning tree.
    pub paths: Vec<Vec<Point>>,
    /// For nets with a `max_length`: whether the routed length met it.
    pub within_limit: Option<bool>,
}

/// The full routing outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// Per-net routes, in netlist order.
    pub routes: Vec<RoutedNet>,
    /// Sum of all net lengths — the paper's "Wire Length" column.
    pub total_wirelength: f64,
    /// Channel adjustment and final chip area — Table 3's "Chip Area".
    pub adjustment: ChipAdjustment,
    /// The channel position graph (kept for inspection/visualization).
    pub grid: RoutingGrid,
    /// Final per-edge usage, parallel to `grid.edges()`.
    pub usage: Vec<f64>,
}

impl RoutingResult {
    /// Per-cell congestion: for every grid cell, the maximum
    /// `usage / capacity` over its incident edges (∞-free: capacity-0 edges
    /// with any usage report as `f64::INFINITY`-capped ratio 10).
    /// Returned as `(cell rectangle, ratio)` for heatmap rendering.
    #[must_use]
    pub fn cell_congestion(&self) -> Vec<(fp_geom::Rect, f64)> {
        let mut out = Vec::with_capacity(self.grid.num_cells());
        for c in 0..self.grid.num_cells() {
            let cell = CellId(c);
            let mut worst = 0.0_f64;
            for &e in self.grid.incident(cell) {
                let edge = &self.grid.edges()[e];
                let used = self.usage[e];
                let ratio = if edge.capacity > 0.0 {
                    used / edge.capacity
                } else if used > 0.0 {
                    10.0 // blocked edge in use: saturated
                } else {
                    0.0
                };
                worst = worst.max(ratio);
            }
            out.push((self.grid.cell_rect(cell), worst.min(10.0)));
        }
        out
    }

    /// Wirelength weighted by net weights.
    #[must_use]
    pub fn weighted_wirelength(&self, netlist: &Netlist) -> f64 {
        self.routes
            .iter()
            .map(|r| r.length * netlist.net(r.id).weight())
            .sum()
    }

    /// Number of critical nets that missed their length limit.
    #[must_use]
    pub fn missed_limits(&self) -> usize {
        self.routes
            .iter()
            .filter(|r| r.within_limit == Some(false))
            .count()
    }
}

/// Globally routes `netlist` on `floorplan`.
///
/// Nets are routed in descending criticality (ties: descending weight, then
/// netlist order) — "nets with the tight timing requirements are routed
/// first". Multi-pin nets are decomposed into two-pin segments along a
/// minimum spanning tree of their generalized pins. A traced `config`
/// times the call as a `route_all` span.
///
/// # Errors
///
/// * [`RouteError::EmptyFloorplan`] / [`RouteError::DegenerateChip`],
/// * [`RouteError::UnplacedModule`] if a net references a module missing
///   from the floorplan.
pub fn route(
    floorplan: &Floorplan,
    netlist: &Netlist,
    config: &RouteConfig,
) -> Result<RoutingResult, RouteError> {
    let _span = config.tracer.span(Phase::Route, "route_all");
    let grid = RoutingGrid::build(floorplan, config)?;
    let mut usage = vec![0.0_f64; grid.num_edges()];
    config.tracer.emit(
        Phase::Route,
        Event::RouteStart {
            nets: netlist.num_nets(),
            cells: grid.num_cells(),
            edges: grid.num_edges(),
        },
    );

    // Net routing order per the configured strategy.
    let mut order: Vec<NetId> = netlist.nets().map(|(id, _)| id).collect();
    let bbox_estimate = |id: NetId| -> f64 {
        let net = netlist.net(id);
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &m in net.modules() {
            if let Some(p) = floorplan.placement(m) {
                let c = p.rect.center();
                min = Point::new(min.x.min(c.x), min.y.min(c.y));
                max = Point::new(max.x.max(c.x), max.y.max(c.y));
            }
        }
        if min.x.is_finite() {
            (max.x - min.x) + (max.y - min.y)
        } else {
            0.0
        }
    };
    match config.ordering {
        crate::NetOrdering::CriticalityFirst => order.sort_by(|&a, &b| {
            let (na, nb) = (netlist.net(a), netlist.net(b));
            nb.criticality()
                .total_cmp(&na.criticality())
                .then(nb.weight().total_cmp(&na.weight()))
                .then(a.cmp(&b))
        }),
        crate::NetOrdering::ShortestFirst => {
            order.sort_by(|&a, &b| {
                bbox_estimate(a)
                    .total_cmp(&bbox_estimate(b))
                    .then(a.cmp(&b))
            });
        }
        crate::NetOrdering::LongestFirst => {
            order.sort_by(|&a, &b| {
                bbox_estimate(b)
                    .total_cmp(&bbox_estimate(a))
                    .then(a.cmp(&b))
            });
        }
        crate::NetOrdering::Netlist => {}
    }

    let mut routes: Vec<Option<RoutedNet>> = vec![None; netlist.num_nets()];
    for id in order {
        let net = netlist.net(id);
        // Collect placements (validating all members are placed).
        let mut members = Vec::with_capacity(net.degree());
        for &m in net.modules() {
            let placed = floorplan
                .placement(m)
                .ok_or_else(|| RouteError::UnplacedModule {
                    net: net.name().to_string(),
                    module: netlist.module(m).name().to_string(),
                })?;
            members.push(placed);
        }
        if members.len() < 2 {
            config.tracer.emit(
                Phase::Route,
                Event::RouteNet {
                    net: id.index(),
                    length: 0.0,
                    segments: 0,
                },
            );
            routes[id.index()] = Some(RoutedNet {
                id,
                length: 0.0,
                paths: Vec::new(),
                within_limit: net.max_length().map(|_| true),
            });
            continue;
        }

        // Generalized pins facing the net centroid.
        let centroid = {
            let mut cx = 0.0;
            let mut cy = 0.0;
            for p in &members {
                let c = p.rect.center();
                cx += c.x;
                cy += c.y;
            }
            Point::new(cx / members.len() as f64, cy / members.len() as f64)
        };
        // Pins plus their routing anchors (nudged outside the module so the
        // source/target cells are channel cells, not module interiors).
        let (chip_w, chip_h) = (floorplan.chip_width(), floorplan.chip_height());
        let pins: Vec<(Point, Point)> = members
            .iter()
            .map(|p| {
                let (side, pin) = pin_toward(p, centroid);
                (pin, pin_anchor(side, pin, chip_w, chip_h))
            })
            .collect();

        // Two-pin decomposition: Prim MST over the pins.
        let pin_points: Vec<Point> = pins.iter().map(|&(pin, _)| pin).collect();
        let tree = prim_mst(&pin_points);

        let mut length = 0.0;
        let mut paths = Vec::with_capacity(tree.len());
        for (a, b) in tree {
            let (seg_len, path) = route_segment(&grid, &usage, config, pins[a], pins[b])
                .ok_or_else(|| RouteError::Unroutable {
                    net: net.name().to_string(),
                })?;
            // Commit usage along the path edges.
            for &edge_idx in &path.edges {
                usage[edge_idx] += 1.0;
            }
            length += seg_len;
            paths.push(path.points);
        }

        config.tracer.emit(
            Phase::Route,
            Event::RouteNet {
                net: id.index(),
                length,
                segments: paths.len(),
            },
        );
        routes[id.index()] = Some(RoutedNet {
            id,
            length,
            paths,
            within_limit: net.max_length().map(|limit| length <= limit + 1e-9),
        });
    }

    let adjustment = adjust(
        &grid,
        &usage,
        config,
        floorplan.chip_width(),
        floorplan.chip_height(),
    );
    config.tracer.emit(
        Phase::Route,
        Event::ChannelAdjust {
            extra_width: adjustment.extra_width,
            extra_height: adjustment.extra_height,
            overflowed_edges: adjustment.overflowed_edges,
        },
    );
    let routes: Vec<RoutedNet> = routes
        .into_iter()
        .map(|r| r.expect("every net routed"))
        .collect();
    let total_wirelength = routes.iter().map(|r| r.length).sum();
    Ok(RoutingResult {
        routes,
        total_wirelength,
        adjustment,
        grid,
        usage,
    })
}

/// Prim's MST over points with Manhattan distance; returns tree edges as
/// index pairs.
fn prim_mst(points: &[Point]) -> Vec<(usize, usize)> {
    let n = points.len();
    let mut in_tree = vec![false; n];
    let mut best_dist = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    in_tree[0] = true;
    for k in 1..n {
        best_dist[k] = points[0].manhattan(&points[k]);
    }
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let next = (0..n)
            .filter(|&k| !in_tree[k])
            .min_by(|&a, &b| best_dist[a].total_cmp(&best_dist[b]))
            .expect("some node outside tree");
        edges.push((best_from[next], next));
        in_tree[next] = true;
        for k in 0..n {
            if !in_tree[k] {
                let d = points[next].manhattan(&points[k]);
                if d < best_dist[k] {
                    best_dist[k] = d;
                    best_from[k] = next;
                }
            }
        }
    }
    edges
}

/// A found path: polyline points, edge indices, for usage commitment.
struct FoundPath {
    points: Vec<Point>,
    edges: Vec<usize>,
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    cell: CellId,
}

impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison.
        other.dist.total_cmp(&self.dist)
    }
}

fn edge_cost(e: &GridEdge, used: f64, config: &RouteConfig, soft_blockage: bool) -> f64 {
    let mut cost = e.length;
    if soft_blockage && e.touches_blockage {
        cost *= config.blockage_penalty;
    }
    if config.algorithm == RouteAlgorithm::WeightedShortestPath {
        let over = (used + 1.0 - e.capacity).max(0.0);
        if over > 0.0 {
            cost *= 1.0 + config.penalty * over / e.capacity.max(1.0);
        }
    }
    cost
}

/// Routes one two-pin segment. Around-the-cell mode first tries **hard**
/// blockage — module interiors are impassable except as escape hatches next
/// to the two pins (wires physically cannot cross macros). Only when the
/// pins are sealed off (fully enclosed pockets) does it fall back to soft
/// blockage so routing always completes; those crossings then show up as
/// overflow and drive the channel adjustment.
///
/// Returns `None` when even the fully-relaxed grid has no path — impossible
/// on grids from [`RoutingGrid::build`] (connected by construction), but
/// propagated as [`RouteError::Unroutable`] by the caller rather than
/// panicking on a malformed grid.
fn route_segment(
    grid: &RoutingGrid,
    usage: &[f64],
    config: &RouteConfig,
    from: (Point, Point),
    to: (Point, Point),
) -> Option<(f64, FoundPath)> {
    if config.mode == RoutingMode::AroundTheCell {
        if let Some(found) = dijkstra(grid, usage, config, from, to, Blockage::Hard) {
            return Some(found);
        }
        return dijkstra(grid, usage, config, from, to, Blockage::Soft);
    }
    dijkstra(grid, usage, config, from, to, Blockage::Free)
}

#[derive(PartialEq, Clone, Copy)]
enum Blockage {
    /// Blocked edges are impassable except adjacent to source/target.
    Hard,
    /// Blocked edges passable at `blockage_penalty` times the cost.
    Soft,
    /// No blockage at all (over-the-cell technology).
    Free,
}

/// Dijkstra between two `(pin, anchor)` pairs: the anchors select the
/// source/target cells, the pins terminate the polyline. Returns the
/// geometric length (not the penalized cost) and the path, or `None` when
/// the target is unreachable under hard blockage.
fn dijkstra(
    grid: &RoutingGrid,
    usage: &[f64],
    config: &RouteConfig,
    (from, from_anchor): (Point, Point),
    (to, to_anchor): (Point, Point),
    blockage: Blockage,
) -> Option<(f64, FoundPath)> {
    let source = grid.cell_at(from_anchor);
    let target = grid.cell_at(to_anchor);
    if source == target {
        return Some((
            from.manhattan(&to),
            FoundPath {
                points: vec![from, to],
                edges: Vec::new(),
            },
        ));
    }

    let n = grid.num_cells();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev_edge: Vec<Option<usize>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source.0] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        cell: source,
    });

    let mut reached = false;
    while let Some(HeapItem { dist: d, cell }) = heap.pop() {
        if cell == target {
            reached = true;
            break;
        }
        if d > dist[cell.0] + 1e-12 {
            continue;
        }
        for &edge_idx in grid.incident(cell) {
            let e = &grid.edges()[edge_idx];
            let other = if e.a == cell { e.b } else { e.a };
            if blockage == Blockage::Hard && e.touches_blockage && cell != source && other != target
            {
                continue; // macros are physically impassable
            }
            let nd = d + edge_cost(e, usage[edge_idx], config, blockage == Blockage::Soft);
            if nd < dist[other.0] - 1e-12 {
                dist[other.0] = nd;
                prev_edge[other.0] = Some(edge_idx);
                heap.push(HeapItem {
                    dist: nd,
                    cell: other,
                });
            }
        }
    }
    if !reached && dist[target.0].is_infinite() {
        return None;
    }

    let mut edges = Vec::new();
    let mut cells = vec![target];
    let mut cur = target;
    while cur != source {
        let edge_idx = prev_edge[cur.0].expect("path was reconstructed from a reached target");
        edges.push(edge_idx);
        let e = &grid.edges()[edge_idx];
        cur = if e.a == cur { e.b } else { e.a };
        cells.push(cur);
    }
    edges.reverse();
    cells.reverse();

    let geo_len: f64 = edges.iter().map(|&i| grid.edges()[i].length).sum();
    let mut points = Vec::with_capacity(cells.len() + 2);
    points.push(from);
    points.extend(cells.iter().map(|&c| grid.cell_center(c)));
    points.push(to);
    let length = geo_len
        + from.manhattan(&grid.cell_center(source))
        + to.manhattan(&grid.cell_center(target));
    Some((length, FoundPath { points, edges }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::PlacedModule;
    use fp_geom::Rect;
    use fp_netlist::{Module, ModuleId, Net};

    fn placed(id: usize, x: f64, y: f64, w: f64, h: f64) -> PlacedModule {
        PlacedModule {
            id: ModuleId(id),
            rect: Rect::new(x, y, w, h),
            envelope: Rect::new(x, y, w, h),
            rotated: false,
        }
    }

    /// Two modules at opposite corners of a 12x8 chip with a wall between.
    fn walled_world() -> (Floorplan, Netlist) {
        let fp = Floorplan::new(
            12.0,
            vec![
                placed(0, 0.0, 0.0, 2.0, 2.0),
                placed(1, 10.0, 0.0, 2.0, 2.0),
                // wall from the floor up to y=6 in the middle
                placed(2, 5.0, 0.0, 2.0, 6.0),
                // spacer that sets chip height 8
                placed(3, 0.0, 6.0, 1.0, 2.0),
            ],
        );
        let mut nl = Netlist::new("w");
        nl.add_module(Module::rigid("a", 2.0, 2.0, false)).unwrap();
        nl.add_module(Module::rigid("b", 2.0, 2.0, false)).unwrap();
        nl.add_module(Module::rigid("wall", 2.0, 6.0, false))
            .unwrap();
        nl.add_module(Module::rigid("spacer", 1.0, 2.0, false))
            .unwrap();
        nl.add_net(Net::new("ab", [ModuleId(0), ModuleId(1)]))
            .unwrap();
        (fp, nl)
    }

    #[test]
    fn around_the_cell_detours_over_wall() {
        let (fp, nl) = walled_world();
        let around = route(&fp, &nl, &RouteConfig::default()).unwrap();
        let over = route(
            &fp,
            &nl,
            &RouteConfig::default().with_mode(RoutingMode::OverTheCell),
        )
        .unwrap();
        let (la, lo) = (around.routes[0].length, over.routes[0].length);
        assert!(
            la > lo + 3.0,
            "detour {la} should be clearly longer than direct {lo}"
        );
    }

    #[test]
    fn direct_route_close_to_manhattan() {
        let (fp, nl) = walled_world();
        let over = route(
            &fp,
            &nl,
            &RouteConfig::default().with_mode(RoutingMode::OverTheCell),
        )
        .unwrap();
        // Pin-to-pin Manhattan distance: right pin of a (2,1) to left pin of
        // b (10,1) = 8; grid quantization adds slack.
        let l = over.routes[0].length;
        assert!((8.0..14.0).contains(&l), "length {l}");
    }

    #[test]
    fn wsp_spreads_congestion() {
        // Many identical nets between two pin clusters: WSP must incur
        // fewer overflowed edges (or at least no more) than plain SP.
        let fp = Floorplan::new(
            12.0,
            vec![
                placed(0, 0.0, 0.0, 2.0, 8.0),
                placed(1, 10.0, 0.0, 2.0, 8.0),
            ],
        );
        let mut nl = Netlist::new("c");
        nl.add_module(Module::rigid("a", 2.0, 8.0, false)).unwrap();
        nl.add_module(Module::rigid("b", 2.0, 8.0, false)).unwrap();
        for k in 0..40 {
            nl.add_net(Net::new(format!("n{k}"), [ModuleId(0), ModuleId(1)]))
                .unwrap();
        }
        let coarse = RouteConfig::default().with_pitches(1.0, 1.0); // capacity ~8 per edge
        let sp = route(
            &fp,
            &nl,
            &coarse.clone().with_algorithm(RouteAlgorithm::ShortestPath),
        )
        .unwrap();
        let wsp = route(
            &fp,
            &nl,
            &coarse.with_algorithm(RouteAlgorithm::WeightedShortestPath),
        )
        .unwrap();
        assert!(
            wsp.adjustment.final_area() <= sp.adjustment.final_area() + 1e-9,
            "WSP {} should not exceed SP {}",
            wsp.adjustment.final_area(),
            sp.adjustment.final_area()
        );
        // Usage must be conserved: both routed 40 nets.
        assert_eq!(sp.routes.len(), 40);
        assert_eq!(wsp.routes.len(), 40);
    }

    #[test]
    fn critical_net_flag_and_order() {
        let (fp, mut nl) = walled_world();
        nl.add_net(
            Net::new("crit", [ModuleId(0), ModuleId(3)])
                .with_criticality(1.0)
                .with_max_length(100.0),
        )
        .unwrap();
        let result = route(&fp, &nl, &RouteConfig::default()).unwrap();
        let crit = &result.routes[1];
        assert_eq!(crit.within_limit, Some(true));
        assert_eq!(result.missed_limits(), 0);
        // Tight limit fails.
        nl.add_net(
            Net::new("tight", [ModuleId(0), ModuleId(1)])
                .with_criticality(1.0)
                .with_max_length(0.5),
        )
        .unwrap();
        let result = route(&fp, &nl, &RouteConfig::default()).unwrap();
        assert_eq!(result.missed_limits(), 1);
    }

    #[test]
    fn unplaced_module_rejected() {
        let (fp, mut nl) = walled_world();
        nl.add_module(Module::rigid("ghost", 1.0, 1.0, false))
            .unwrap();
        nl.add_net(Net::new("bad", [ModuleId(0), ModuleId(4)]))
            .unwrap();
        assert!(matches!(
            route(&fp, &nl, &RouteConfig::default()),
            Err(RouteError::UnplacedModule { .. })
        ));
    }

    #[test]
    fn multipin_net_spans_all_members() {
        let fp = Floorplan::new(
            12.0,
            vec![
                placed(0, 0.0, 0.0, 2.0, 2.0),
                placed(1, 10.0, 0.0, 2.0, 2.0),
                placed(2, 5.0, 4.0, 2.0, 2.0),
            ],
        );
        let mut nl = Netlist::new("m");
        for i in 0..3 {
            nl.add_module(Module::rigid(format!("m{i}"), 2.0, 2.0, false))
                .unwrap();
        }
        nl.add_net(Net::new("tri", [ModuleId(0), ModuleId(1), ModuleId(2)]))
            .unwrap();
        let result = route(&fp, &nl, &RouteConfig::default()).unwrap();
        assert_eq!(result.routes[0].paths.len(), 2); // MST of 3 pins
        assert!(result.routes[0].length > 0.0);
        assert!(result.total_wirelength > 0.0);
    }

    #[test]
    fn prim_mst_shapes() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let tree = prim_mst(&pts);
        assert_eq!(tree.len(), 2);
        // Chain 0-1-2, never the long 0-2 edge plus both shorts.
        let total: f64 = tree.iter().map(|&(a, b)| pts[a].manhattan(&pts[b])).sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn all_net_orderings_route_everything() {
        let (fp, nl) = walled_world();
        for ordering in [
            crate::NetOrdering::CriticalityFirst,
            crate::NetOrdering::ShortestFirst,
            crate::NetOrdering::LongestFirst,
            crate::NetOrdering::Netlist,
        ] {
            let cfg = RouteConfig::default().with_ordering(ordering);
            let result = route(&fp, &nl, &cfg).unwrap();
            assert_eq!(result.routes.len(), nl.num_nets(), "{ordering:?}");
            assert!(result.total_wirelength > 0.0);
        }
    }

    #[test]
    fn degenerate_single_cell_grid_routes_without_panicking() {
        // Two coincident modules covering the whole chip collapse the cut
        // lines to the chip boundary: the grid is a single (blocked) cell
        // with zero edges. Every pin anchor clamps into that one cell, so
        // both hard-blockage Dijkstra and its relaxed fallbacks must take
        // the source==target path and return Ok — this used to ride on an
        // `expect("free grid is fully connected")`.
        let fp = Floorplan::new(
            6.0,
            vec![placed(0, 0.0, 0.0, 6.0, 4.0), placed(1, 0.0, 0.0, 6.0, 4.0)],
        );
        let mut nl = Netlist::new("d");
        nl.add_module(Module::rigid("a", 6.0, 4.0, false)).unwrap();
        nl.add_module(Module::rigid("b", 6.0, 4.0, false)).unwrap();
        nl.add_net(Net::new("ab", [ModuleId(0), ModuleId(1)]))
            .unwrap();
        for mode in [RoutingMode::AroundTheCell, RoutingMode::OverTheCell] {
            let cfg = RouteConfig::default().with_mode(mode);
            let result = route(&fp, &nl, &cfg)
                .unwrap_or_else(|e| panic!("single-cell grid must still route ({mode:?}): {e}"));
            assert_eq!(result.routes.len(), 1);
            assert!(result.routes[0].length.is_finite());
        }
    }

    #[test]
    fn empty_floorplan_rejected() {
        let nl = Netlist::new("e");
        let fp = Floorplan::new(5.0, vec![]);
        assert_eq!(
            route(&fp, &nl, &RouteConfig::default()).unwrap_err(),
            RouteError::EmptyFloorplan
        );
    }
}

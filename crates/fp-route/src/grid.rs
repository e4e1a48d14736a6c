//! The channel position graph as a compressed grid.
//!
//! The free space of the floorplan is partitioned into cells by the x/y
//! coordinates of every module and envelope edge (plus the chip boundary).
//! Adjacent cells are connected by an edge whose **capacity** is the number
//! of routing tracks that fit across the shared boundary: wires crossing a
//! vertical boundary run horizontally and stack at the horizontal track
//! pitch, and vice versa. Cells covered by a module interior are marked
//! blocked; how blocked cells are treated is the router's mode decision.

use crate::config::{RouteConfig, RoutingMode};
use crate::error::RouteError;
use fp_core::Floorplan;
use fp_geom::{Point, Rect, GEOM_EPS};

/// Index of a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub usize);

/// An undirected edge between two adjacent cells.
#[derive(Debug, Clone, PartialEq)]
pub struct GridEdge {
    /// One endpoint.
    pub a: CellId,
    /// The other endpoint.
    pub b: CellId,
    /// Center-to-center distance (the base routing cost).
    pub length: f64,
    /// Shared boundary length.
    pub boundary: f64,
    /// Preliminary capacity in tracks (0 across blocked cells in
    /// around-the-cell mode).
    pub capacity: f64,
    /// Whether the boundary crossed is vertical (i.e. the move is
    /// horizontal).
    pub crosses_vertical_boundary: bool,
    /// Whether either endpoint is a blocked (module-interior) cell.
    pub touches_blockage: bool,
}

/// The channel position graph.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingGrid {
    xs: Vec<f64>,
    ys: Vec<f64>,
    blocked: Vec<bool>,
    edges: Vec<GridEdge>,
    /// Cell `c`'s incident edges, each with the cell across it, are
    /// `incidence[offsets[c]..offsets[c + 1]]`, in edge order. Indices
    /// are stored as `u32`, half the bytes of `usize`: a grid past 2^32
    /// edges would need hundreds of gigabytes for `edges` alone.
    offsets: Vec<usize>,
    incidence: Vec<(u32, u32)>,
}

impl RoutingGrid {
    /// Builds the grid for a floorplan.
    ///
    /// # Errors
    ///
    /// [`RouteError::EmptyFloorplan`] / [`RouteError::DegenerateChip`].
    pub fn build(floorplan: &Floorplan, config: &RouteConfig) -> Result<Self, RouteError> {
        if floorplan.is_empty() {
            return Err(RouteError::EmptyFloorplan);
        }
        let w = floorplan.chip_width();
        let h = floorplan.chip_height();
        if w <= GEOM_EPS || h <= GEOM_EPS {
            return Err(RouteError::DegenerateChip);
        }

        let mut xs = vec![0.0, w];
        let mut ys = vec![0.0, h];
        for p in floorplan.iter() {
            for r in [p.rect, p.envelope] {
                xs.push(r.x.clamp(0.0, w));
                xs.push(r.right().clamp(0.0, w));
                ys.push(r.y.clamp(0.0, h));
                ys.push(r.top().clamp(0.0, h));
            }
        }
        dedup_sorted(&mut xs);
        dedup_sorted(&mut ys);
        let nx = xs.len() - 1;
        let ny = ys.len() - 1;

        let module_rects: Vec<Rect> = floorplan.module_rects();
        let mut blocked = vec![false; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let cx = (xs[i] + xs[i + 1]) / 2.0;
                let cy = (ys[j] + ys[j + 1]) / 2.0;
                blocked[j * nx + i] = module_rects
                    .iter()
                    .any(|r| r.x < cx && cx < r.right() && r.y < cy && cy < r.top());
            }
        }

        let mut edges = Vec::new();
        let push_edge = |edges: &mut Vec<GridEdge>,
                         a: usize,
                         b: usize,
                         length: f64,
                         boundary: f64,
                         vertical: bool| {
            let touches = blocked[a] || blocked[b];
            let pitch = if vertical {
                config.pitch_h
            } else {
                config.pitch_v
            };
            let capacity = if touches && config.mode == RoutingMode::AroundTheCell {
                0.0
            } else {
                boundary / pitch.max(1e-9)
            };
            edges.push(GridEdge {
                a: CellId(a),
                b: CellId(b),
                length,
                boundary,
                capacity,
                crosses_vertical_boundary: vertical,
                touches_blockage: touches,
            });
        };

        for j in 0..ny {
            for i in 0..nx {
                let cell = j * nx + i;
                if i + 1 < nx {
                    // horizontal move across the vertical boundary x=xs[i+1]
                    let length = (xs[i + 2] - xs[i]) / 2.0;
                    let boundary = ys[j + 1] - ys[j];
                    push_edge(&mut edges, cell, cell + 1, length, boundary, true);
                }
                if j + 1 < ny {
                    let length = (ys[j + 2] - ys[j]) / 2.0;
                    let boundary = xs[i + 1] - xs[i];
                    push_edge(&mut edges, cell, cell + nx, length, boundary, false);
                }
            }
        }
        let (offsets, incidence) = incidence_lists(nx * ny, &edges);

        Ok(RoutingGrid {
            xs,
            ys,
            blocked,
            edges,
            offsets,
            incidence,
        })
    }

    /// Number of cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.blocked.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges.
    #[must_use]
    pub fn edges(&self) -> &[GridEdge] {
        &self.edges
    }

    /// The edges incident to `cell`, in edge order, each as its index
    /// into [`edges`](Self::edges) and the cell across it.
    pub fn incident(&self, cell: CellId) -> impl ExactSizeIterator<Item = (usize, CellId)> + '_ {
        self.incidence[self.offsets[cell.0]..self.offsets[cell.0 + 1]]
            .iter()
            .map(|&(e, c)| (e as usize, CellId(c as usize)))
    }

    /// Whether the cell lies inside a module.
    #[must_use]
    pub fn is_blocked(&self, cell: CellId) -> bool {
        self.blocked[cell.0]
    }

    /// The cell containing point `p` (clamped onto the chip).
    #[must_use]
    pub fn cell_at(&self, p: Point) -> CellId {
        let nx = self.xs.len() - 1;
        let i = strip_of(&self.xs, p.x);
        let j = strip_of(&self.ys, p.y);
        CellId(j * nx + i)
    }

    /// Geometric center of a cell.
    #[must_use]
    pub fn cell_center(&self, cell: CellId) -> Point {
        let r = self.cell_rect(cell);
        r.center()
    }

    /// The rectangle of a cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[must_use]
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let nx = self.xs.len() - 1;
        let i = cell.0 % nx;
        let j = cell.0 / nx;
        Rect::new(
            self.xs[i],
            self.ys[j],
            self.xs[i + 1] - self.xs[i],
            self.ys[j + 1] - self.ys[j],
        )
    }

    /// Grid dimensions `(columns, rows)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.xs.len() - 1, self.ys.len() - 1)
    }

    /// The x grid lines.
    #[must_use]
    pub fn x_lines(&self) -> &[f64] {
        &self.xs
    }

    /// The y grid lines.
    #[must_use]
    pub fn y_lines(&self) -> &[f64] {
        &self.ys
    }
}

/// The incidence lists of `cells` cells joined by `edges`, in compressed
/// form: cell `c`'s entries are `incidence[offsets[c]..offsets[c + 1]]`,
/// each an edge index with the cell across that edge, in edge order.
fn incidence_lists(cells: usize, edges: &[GridEdge]) -> (Vec<usize>, Vec<(u32, u32)>) {
    let index = |i: usize| u32::try_from(i).expect("grid indices fit in u32");
    let mut offsets = vec![0usize; cells + 1];
    for e in edges {
        offsets[e.a.0 + 1] += 1;
        offsets[e.b.0 + 1] += 1;
    }
    for c in 0..cells {
        offsets[c + 1] += offsets[c];
    }
    let mut next = offsets[..cells].to_vec();
    let mut incidence = vec![(0, 0); 2 * edges.len()];
    for (idx, e) in edges.iter().enumerate() {
        incidence[next[e.a.0]] = (index(idx), index(e.b.0));
        next[e.a.0] += 1;
        incidence[next[e.b.0]] = (index(idx), index(e.a.0));
        next[e.b.0] += 1;
    }
    (offsets, incidence)
}

fn dedup_sorted(v: &mut Vec<f64>) {
    v.sort_by(f64::total_cmp);
    v.dedup_by(|a, b| (*a - *b).abs() <= GEOM_EPS);
}

/// Index of the strip containing `x` (clamped to the valid range).
fn strip_of(lines: &[f64], x: f64) -> usize {
    let n = lines.len() - 1;
    for k in 0..n {
        if x < lines[k + 1] {
            return k;
        }
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::PlacedModule;
    use fp_netlist::ModuleId;

    fn simple_floorplan() -> Floorplan {
        // One 4x4 module centered-ish on a 10x8 chip; a second module
        // establishes the chip height.
        Floorplan::new(
            10.0,
            vec![
                PlacedModule {
                    id: ModuleId(0),
                    rect: Rect::new(3.0, 2.0, 4.0, 4.0),
                    envelope: Rect::new(3.0, 2.0, 4.0, 4.0),
                    rotated: false,
                },
                PlacedModule {
                    id: ModuleId(1),
                    rect: Rect::new(0.0, 6.0, 2.0, 2.0),
                    envelope: Rect::new(0.0, 6.0, 2.0, 2.0),
                    rotated: false,
                },
            ],
        )
    }

    #[test]
    fn grid_dimensions_and_blockage() {
        let grid = RoutingGrid::build(&simple_floorplan(), &RouteConfig::default()).unwrap();
        let (nx, ny) = grid.dims();
        // x cuts: 0, 2, 3, 7, 10 -> 4 columns; y cuts: 0, 2, 6, 8 -> 3 rows.
        assert_eq!((nx, ny), (4, 3));
        // The module cell (x in [3,7], y in [2,6]) is blocked.
        let c = grid.cell_at(Point::new(5.0, 4.0));
        assert!(grid.is_blocked(c));
        let free = grid.cell_at(Point::new(1.0, 1.0));
        assert!(!grid.is_blocked(free));
    }

    #[test]
    fn capacities_follow_boundaries_and_mode() {
        let fp = simple_floorplan();
        let around = RoutingGrid::build(&fp, &RouteConfig::default()).unwrap();
        // Every edge touching the blocked cell has zero capacity.
        for e in around.edges() {
            if e.touches_blockage {
                assert_eq!(e.capacity, 0.0);
            } else {
                assert!(e.capacity > 0.0);
                // both pitches are 0.1 in the default config
                assert!((e.capacity - e.boundary / 0.1).abs() < 1e-6);
            }
        }
        let over = RoutingGrid::build(
            &fp,
            &RouteConfig::default().with_mode(RoutingMode::OverTheCell),
        )
        .unwrap();
        assert!(over.edges().iter().all(|e| e.capacity > 0.0));
    }

    #[test]
    fn cell_lookup_roundtrip() {
        let grid = RoutingGrid::build(&simple_floorplan(), &RouteConfig::default()).unwrap();
        for c in 0..grid.num_cells() {
            let cell = CellId(c);
            let center = grid.cell_center(cell);
            assert_eq!(grid.cell_at(center), cell);
            assert!(grid.cell_rect(cell).contains(center));
        }
        // Out-of-range points clamp to boundary cells.
        let c = grid.cell_at(Point::new(999.0, 999.0));
        assert!(c.0 < grid.num_cells());
    }

    #[test]
    fn adjacency_is_consistent() {
        let grid = RoutingGrid::build(&simple_floorplan(), &RouteConfig::default()).unwrap();
        for (idx, e) in grid.edges().iter().enumerate() {
            assert!(grid.incident(e.a).any(|x| x == (idx, e.b)));
            assert!(grid.incident(e.b).any(|x| x == (idx, e.a)));
            assert!(e.length > 0.0);
            assert!(e.boundary > 0.0);
        }
        // Each cell lists its edges once, in edge order.
        for c in 0..grid.num_cells() {
            let list: Vec<(usize, CellId)> = grid.incident(CellId(c)).collect();
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
        }
        // Interior cell has 4 incident edges, corner has 2.
        let corner = grid.cell_at(Point::new(0.1, 0.1));
        assert_eq!(grid.incident(corner).len(), 2);
    }

    #[test]
    fn empty_and_degenerate_rejected() {
        let empty = Floorplan::new(10.0, vec![]);
        assert_eq!(
            RoutingGrid::build(&empty, &RouteConfig::default()).unwrap_err(),
            RouteError::EmptyFloorplan
        );
    }
}

//! Uniform bin grid over points, for neighbor-pair pruning.
//!
//! The analytic placer's bell overlap kernel has *compact support*: the
//! pair `(i, j)` contributes exactly zero unless `|cx_i − cx_j| <
//! (w_i + w_j)/2` **and** `|cy_i − cy_j| < (h_i + h_j)/2`. Every pair
//! within the kernel's support therefore has `j`'s center inside the
//! window `cx_i ± (w_i + w_max)/2` × `cy_i ± (h_i + h_max)/2`, and
//! [`BinGrid::for_each_run_in_window`] visits every point in every cell
//! that window touches — the pruning is exact, not approximate.

/// A uniform grid bucketing point indices (`u32`) by cell.
///
/// Built fresh per use (`O(n)`); iteration order inside each bin is the
/// insertion order of [`BinGrid::build`]'s input, so results are
/// deterministic for a fixed input order.
///
/// ```
/// use fp_geom::BinGrid;
/// let pts = [(0.0, 0.0), (0.5, 0.5), (10.0, 10.0)];
/// let grid = BinGrid::build(pts.iter().copied(), 1.0);
/// let mut near_origin = Vec::new();
/// grid.for_each_run_in_window(-1.0, -1.0, 1.0, 1.0, |run| {
///     near_origin.extend_from_slice(&grid.items()[run]);
/// });
/// assert_eq!(near_origin, vec![0, 1]); // the far point is pruned
/// ```
#[derive(Debug, Clone)]
pub struct BinGrid {
    cell_x: f64,
    cell_y: f64,
    min_x: f64,
    min_y: f64,
    nx: usize,
    ny: usize,
    /// CSR layout: `items[starts[c]..starts[c + 1]]` are the point indices
    /// in cell `c`, in input order.
    starts: Vec<u32>,
    items: Vec<u32>,
}

impl BinGrid {
    /// Buckets `points` into square cells of side `cell` (clamped to a
    /// small positive minimum so degenerate inputs stay finite).
    #[must_use]
    pub fn build(points: impl IntoIterator<Item = (f64, f64)> + Clone, cell: f64) -> Self {
        Self::build_xy(points, cell, cell)
    }

    /// Like [`BinGrid::build`] with separate cell extents per axis — the
    /// kernel's support is `w_max × h_max`, so rectangular cells prune
    /// tighter when modules are wide-and-flat or tall-and-thin.
    #[must_use]
    pub fn build_xy(
        points: impl IntoIterator<Item = (f64, f64)> + Clone,
        cell_x: f64,
        cell_y: f64,
    ) -> Self {
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for (x, y) in points.clone() {
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        Self::build_xy_bounded(points, cell_x, cell_y, (min_x, min_y, max_x, max_y))
    }

    /// Like [`BinGrid::build_xy`] with the points' bounding box
    /// precomputed by the caller (who often already has it from a prior
    /// pass) — skips the builder's own min/max pass, leaving one counting
    /// and one filling pass. `bounds` is `(min_x, min_y, max_x, max_y)`;
    /// an inverted box means "no points". Points outside the box stay
    /// *correct* — they clamp to boundary cells, which window clamping in
    /// [`BinGrid::for_each_run_in_window`] still reaches — the box only
    /// shapes cell occupancy.
    #[must_use]
    pub fn build_xy_bounded(
        points: impl IntoIterator<Item = (f64, f64)> + Clone,
        cell_x: f64,
        cell_y: f64,
        bounds: (f64, f64, f64, f64),
    ) -> Self {
        let mut grid = BinGrid {
            cell_x: 1.0,
            cell_y: 1.0,
            min_x: 0.0,
            min_y: 0.0,
            nx: 0,
            ny: 0,
            starts: vec![0],
            items: Vec::new(),
        };
        grid.rebuild_xy_bounded(points, cell_x, cell_y, bounds);
        grid
    }

    /// [`BinGrid::build_xy_bounded`] in place, reusing the CSR
    /// allocations — the analytic descent re-bins every evaluation, so
    /// the steady-state cost is two passes over the points with zero
    /// allocator traffic.
    pub fn rebuild_xy_bounded(
        &mut self,
        points: impl IntoIterator<Item = (f64, f64)> + Clone,
        cell_x: f64,
        cell_y: f64,
        bounds: (f64, f64, f64, f64),
    ) {
        let cell_x = cell_x.max(1e-9);
        let cell_y = cell_y.max(1e-9);
        let (min_x, min_y, max_x, max_y) = bounds;
        self.cell_x = cell_x;
        self.cell_y = cell_y;
        self.min_x = min_x;
        self.min_y = min_y;
        self.items.clear();
        self.starts.clear();
        if max_x < min_x || max_y < min_y {
            self.min_x = 0.0;
            self.min_y = 0.0;
            self.nx = 0;
            self.ny = 0;
            self.starts.push(0);
            return;
        }
        let nx = (((max_x - min_x) / cell_x).floor() as usize) + 1;
        let ny = (((max_y - min_y) / cell_y).floor() as usize) + 1;
        self.nx = nx;
        self.ny = ny;
        // Counting sort into CSR: one pass to size the bins, one to fill.
        let cells = nx * ny;
        self.starts.resize(cells + 1, 0);
        let cell_of = |x: f64, y: f64| -> usize {
            let cx = (((x - min_x) / cell_x).floor() as usize).min(nx - 1);
            let cy = (((y - min_y) / cell_y).floor() as usize).min(ny - 1);
            cy * nx + cx
        };
        for (x, y) in points.clone() {
            self.starts[cell_of(x, y) + 1] += 1;
        }
        for c in 0..cells {
            self.starts[c + 1] += self.starts[c];
        }
        let n = self.starts[cells] as usize;
        self.items.resize(n, 0);
        // Fill using `starts[c]` as the write cursor for cell `c`: the
        // exclusive prefix sums advance to each cell's *end* offset, so
        // one rotate restores the start offsets afterwards — no separate
        // cursor array to allocate.
        for (idx, (x, y)) in points.into_iter().enumerate() {
            let c = cell_of(x, y);
            self.items[self.starts[c] as usize] = u32::try_from(idx).expect("point count fits u32");
            self.starts[c] += 1;
        }
        self.starts.rotate_right(1);
        self.starts[0] = 0;
    }

    /// Number of bucketed points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the grid holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The bucketed point indices in CSR order: each cell's run is
    /// contiguous, cells laid out row-major bottom-to-top. Pair with
    /// [`BinGrid::for_each_run_in_window`] to get the per-row ranges —
    /// callers that reorder point payloads into this layout get sequential
    /// scans instead of random indexing.
    #[must_use]
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Calls `f(range)` once per non-empty grid row intersecting the
    /// closed window `[x0, x1] × [y0, y1]`, where `range` indexes
    /// [`BinGrid::items`] and covers that row's window cells as one
    /// contiguous CSR run — cells within a row are adjacent in memory, so
    /// empty cells in the span cost nothing and every callback is a
    /// single sequential scan. Rows scan bottom-to-top (deterministic).
    /// The window — and therefore the slice of the grid touched — is the
    /// caller's: per-query radii prune tighter when point extents are
    /// heterogeneous.
    pub fn for_each_run_in_window(
        &self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        mut f: impl FnMut(std::ops::Range<usize>),
    ) {
        if self.items.is_empty() || x1 < x0 || y1 < y0 {
            return;
        }
        let clamp_x = |x: f64| {
            (((x - self.min_x) / self.cell_x).floor() as isize).clamp(0, self.nx as isize - 1)
                as usize
        };
        let clamp_y = |y: f64| {
            (((y - self.min_y) / self.cell_y).floor() as isize).clamp(0, self.ny as isize - 1)
                as usize
        };
        let (cx0, cx1) = (clamp_x(x0), clamp_x(x1));
        let (cy0, cy1) = (clamp_y(y0), clamp_y(y1));
        for gy in cy0..=cy1 {
            let row = gy * self.nx;
            let lo = self.starts[row + cx0] as usize;
            let hi = self.starts[row + cx1 + 1] as usize;
            if lo < hi {
                f(lo..hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The point indices in every cell the window touches, in scan order.
    fn window(grid: &BinGrid, x0: f64, y0: f64, x1: f64, y1: f64) -> Vec<usize> {
        let mut seen = Vec::new();
        grid.for_each_run_in_window(x0, y0, x1, y1, |r| {
            seen.extend(grid.items()[r].iter().map(|&j| j as usize));
        });
        seen
    }

    #[test]
    fn empty_grid() {
        let grid = BinGrid::build(std::iter::empty(), 1.0);
        assert!(grid.is_empty());
        let mut called = false;
        grid.for_each_run_in_window(-1.0, -1.0, 1.0, 1.0, |_| called = true);
        assert!(!called);
    }

    #[test]
    fn neighborhood_covers_all_pairs_within_cell_distance() {
        // Any two points closer than `cell` in both axes must see each
        // other through a window of half-width `cell` — the compact-support
        // guarantee.
        let cell = 2.0;
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|k| {
                let k = k as f64;
                ((k * 0.73) % 11.0, (k * 1.31) % 7.0)
            })
            .collect();
        let grid = BinGrid::build(pts.iter().copied(), cell);
        assert_eq!(grid.len(), 40);
        for i in 0..pts.len() {
            let (x, y) = pts[i];
            let seen = window(&grid, x - cell, y - cell, x + cell, y + cell);
            for (j, p) in pts.iter().enumerate() {
                let close = (p.0 - x).abs() < cell && (p.1 - y).abs() < cell;
                assert!(
                    !close || seen.contains(&j),
                    "pair ({i}, {j}) within cell distance but pruned"
                );
            }
            assert!(seen.contains(&i), "a point must see itself");
        }
    }

    #[test]
    fn window_runs_cover_exactly_the_window_cells() {
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|k| {
                let k = k as f64;
                ((k * 1.7) % 9.0, (k * 2.3) % 9.0)
            })
            .collect();
        let grid = BinGrid::build(pts.iter().copied(), 1.5);
        // Every point recovered through its own zero-radius window.
        for (i, &(x, y)) in pts.iter().enumerate() {
            let seen = window(&grid, x, y, x, y);
            assert!(seen.contains(&i), "point {i} missing from its own cell");
        }
        // A window spanning everything yields each point exactly once.
        let mut all = Vec::new();
        grid.for_each_run_in_window(-100.0, -100.0, 100.0, 100.0, |r| {
            all.extend(grid.items()[r].iter().copied());
        });
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pts.len());
        // Windowed scans match brute-force membership: any point inside
        // the window is inside one of its cells and must be seen. The
        // converse is *not* asserted — a run covers whole cells, so it may
        // legitimately include near-window points the caller re-filters.
        let seen = window(&grid, 2.0, 2.0, 5.0, 5.0);
        for (j, &(x, y)) in pts.iter().enumerate() {
            if (2.0..=5.0).contains(&x) && (2.0..=5.0).contains(&y) {
                assert!(seen.contains(&j), "point {j} in window but unseen");
            }
        }
        // Far-outside windows clamp to the boundary cells by contract, so
        // only the inverted window is empty.
        let mut called = false;
        grid.for_each_run_in_window(5.0, 5.0, 2.0, 2.0, |_| called = true);
        assert!(!called, "inverted window must visit nothing");
    }

    #[test]
    fn single_point_degenerate_extent() {
        let grid = BinGrid::build([(3.0, 4.0)], 5.0);
        assert_eq!(window(&grid, -2.0, -1.0, 8.0, 9.0), vec![0]);
    }
}

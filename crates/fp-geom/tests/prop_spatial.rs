//! Property/differential tests for the spatial layer: sweep-line union
//! area against the `O(n³)` compressed-grid oracle — including touching
//! edges and GEOM_EPS-degenerate inputs — and incremental skylines
//! against batch builds.

use fp_geom::{union_area, union_area_oracle, Rect, Skyline, GEOM_EPS};
use proptest::prelude::*;

/// Rectangles on a quarter-unit grid, so exact abutments (shared edges)
/// occur constantly.
fn grid_rects() -> impl Strategy<Value = Vec<Rect>> {
    proptest::collection::vec((0u32..60, 0u32..40, 1u32..16, 1u32..16), 1..40).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, w, h)| {
                Rect::new(
                    f64::from(x) * 0.25,
                    f64::from(y) * 0.25,
                    f64::from(w) * 0.25,
                    f64::from(h) * 0.25,
                )
            })
            .collect()
    })
}

/// Rectangles with arbitrary float coordinates, a fraction of them
/// degenerate (width or height at or below GEOM_EPS).
fn messy_rects() -> impl Strategy<Value = Vec<Rect>> {
    let normal = || {
        (0.0f64..20.0, 0.0f64..12.0, 0.01f64..6.0, 0.01f64..6.0)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
            .boxed()
    };
    let degenerate = (0.0f64..20.0, 0.0f64..12.0, 0.0f64..2.0)
        .prop_map(|(x, y, l)| Rect::new(x, y, GEOM_EPS / 2.0, l))
        .boxed();
    // Weight 4:1 toward normal rects by repeating the variant.
    proptest::collection::vec(
        proptest::strategy::Union::new(vec![normal(), normal(), normal(), normal(), degenerate]),
        1..30,
    )
}

proptest! {
    /// Sweep-line union area equals the O(n³) oracle on touching-edge
    /// grids (exactly) ...
    #[test]
    fn sweep_union_matches_oracle_on_grids(rects in grid_rects()) {
        let sweep = union_area(&rects);
        let oracle = union_area_oracle(&rects);
        prop_assert!((sweep - oracle).abs() <= 1e-9 * (1.0 + oracle),
            "sweep {sweep} vs oracle {oracle}");
    }

    /// ... and within GEOM_EPS-scale tolerance on messy float inputs with
    /// degenerate slivers (the oracle merges coordinates within GEOM_EPS;
    /// the sweep is exact).
    #[test]
    fn sweep_union_matches_oracle_on_messy_inputs(rects in messy_rects()) {
        let sweep = union_area(&rects);
        let oracle = union_area_oracle(&rects);
        // Each merged coordinate can shift the oracle by eps × extent.
        let extent = Rect::bounding(&rects).map_or(0.0, |b| b.w + b.h);
        let tol = 1e-9 + 4.0 * GEOM_EPS * extent * rects.len() as f64;
        prop_assert!((sweep - oracle).abs() <= tol,
            "sweep {sweep} vs oracle {oracle} (tol {tol})");
    }

    /// Incrementally grown skylines agree with batch builds on arbitrary
    /// (floating, overlapping) rectangle sets.
    #[test]
    fn incremental_skyline_matches_batch(rects in grid_rects()) {
        let mut sky = Skyline::new();
        for r in &rects {
            sky.add_rect(r);
        }
        let batch = Skyline::from_rects(&rects);
        let a: Vec<_> = sky.segments().collect();
        let b: Vec<_> = batch.segments().collect();
        prop_assert_eq!(a.len(), b.len(), "{:?} vs {:?}", sky, batch);
        for ((x0, x1, h), (y0, y1, g)) in a.iter().zip(&b) {
            prop_assert!((x0 - y0).abs() <= 1e-9);
            prop_assert!((x1 - y1).abs() <= 1e-9);
            prop_assert!((h - g).abs() <= 1e-9);
        }
    }
}

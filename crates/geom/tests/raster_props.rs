//! Property tests for exact integer rasterisation: summed-area tables must
//! be bit-identical to the direct sweep on arbitrary (overlapping) rects,
//! and the sweep itself must be invariant under rect permutation.

use hotspot_geom::{AreaTableGrid, DensityGrid, Point, Rect};
use proptest::prelude::*;

fn arb_rect(span: i64) -> impl Strategy<Value = Rect> {
    (-span..span, -span..span, 1..span, 1..span)
        .prop_map(move |(x, y, w, h)| Rect::from_origin_size(Point::new(x, y), w, h))
}

fn arb_rects(span: i64, n: usize) -> impl Strategy<Value = Vec<Rect>> {
    proptest::collection::vec(arb_rect(span), 0..n)
}

/// Rasterises `window` through a one-subtile table grid anchored at its
/// corner: the table path on its own, for comparison with the sweep.
fn table_raster(rects: &[Rect], window: &Rect, nx: usize, ny: usize) -> DensityGrid {
    let side = window.width().max(window.height());
    AreaTableGrid::build(window, side, 0, rects, usize::MAX)
        .rasterize(window, nx, ny)
        .expect("an uncapped one-subtile grid answers its own window")
}

proptest! {
    /// Rasterising through a summed-area table is bit-identical (exact f64
    /// equality, not approximate) to the direct sweep for every grid size
    /// and window — arbitrary possibly-overlapping rects, windows that only
    /// partially overlap the geometry.
    #[test]
    fn sat_rasterisation_is_bit_identical(
        rects in arb_rects(200, 24),
        window in arb_rect(300),
        nx in 1usize..12,
        ny in 1usize..12,
    ) {
        let sat = table_raster(&rects, &window, nx, ny);
        let naive = DensityGrid::from_rects(&window, &rects, nx, ny);
        prop_assert_eq!(sat.cells(), naive.cells());
    }

    /// Satellite invariant: integer accumulation makes the direct sweep
    /// order-independent — any permutation (here: reversal plus a rotation)
    /// of the rect list, disjoint or overlapping, yields identical cells.
    #[test]
    fn from_rects_is_permutation_invariant(
        rects in arb_rects(150, 16),
        window in arb_rect(200),
        rotate_by in 0usize..16,
        nx in 1usize..10,
        ny in 1usize..10,
    ) {
        let base = DensityGrid::from_rects(&window, &rects, nx, ny);
        let mut reversed = rects.clone();
        reversed.reverse();
        prop_assert_eq!(
            DensityGrid::from_rects(&window, &reversed, nx, ny).cells(),
            base.cells()
        );
        let mut rotated = rects.clone();
        if !rotated.is_empty() {
            let mid = rotate_by % rotated.len();
            rotated.rotate_left(mid);
        }
        prop_assert_eq!(
            DensityGrid::from_rects(&window, &rotated, nx, ny).cells(),
            base.cells()
        );
    }

    /// `transform_into` reuses a scratch buffer but must produce exactly the
    /// allocating `transform`.
    #[test]
    fn scratch_transform_matches_allocating(
        a_rects in arb_rects(120, 12),
        n in 1usize..9,
    ) {
        let window = Rect::from_extents(-120, -120, 120, 120);
        let a = DensityGrid::from_rects(&window, &a_rects, n, n);
        let mut scratch = DensityGrid::from_cells(0, 0, Vec::new());
        for o in hotspot_geom::D8 {
            a.transform_into(o, &mut scratch);
            prop_assert_eq!(scratch.cells(), a.transform(o).cells());
        }
    }
}

// Degenerate cases the fuzz strategies rarely hit exactly.

proptest! {
    /// Shared per-tile subtile tables answer every window they were built
    /// for bit-identically to the direct sweep — arbitrary overlapping
    /// rects, arbitrary anchored windows, and an in-place rebuild of a
    /// previously used grid (stale retained storage must be invisible).
    #[test]
    fn grid_tables_are_bit_identical_and_rebuild_safely(
        rects_a in arb_rects(200, 16),
        rects_b in arb_rects(200, 16),
        anchors in proptest::collection::vec((0i64..120, 0i64..120, 1i64..40, 1i64..40), 1..6),
        nx in 1usize..9,
    ) {
        let region = Rect::from_extents(0, 0, 160, 160);
        let windows: Vec<Rect> = anchors
            .iter()
            .map(|&(x, y, w, h)| Rect::from_extents(x, y, (x + w).min(160), (y + h).min(160)))
            .filter(|r| !r.is_empty() && r.width() <= 40 && r.height() <= 40)
            .collect();
        let mut grid = AreaTableGrid::build_for(&region, 40, 40, &rects_a, usize::MAX, &windows);
        for w in &windows {
            if let Some(sat) = grid.rasterize(w, nx, nx) {
                let naive = DensityGrid::from_rects(w, &rects_a, nx, nx);
                prop_assert_eq!(sat.cells(), naive.cells());
            }
        }
        grid.rebuild_for(&region, 40, 40, &rects_b, usize::MAX, &windows);
        for w in &windows {
            if let Some(sat) = grid.rasterize(w, nx, nx) {
                let naive = DensityGrid::from_rects(w, &rects_b, nx, nx);
                prop_assert_eq!(sat.cells(), naive.cells());
            }
        }
    }
}

#[test]
fn empty_tile_rasterises_to_zero_grid() {
    let window = Rect::from_extents(0, 0, 100, 100);
    let sat = table_raster(&[], &window, 4, 4);
    let naive = DensityGrid::from_rects(&window, &[], 4, 4);
    assert_eq!(sat.cells(), naive.cells());
    assert!(sat.cells().iter().all(|&c| c == 0.0));
}

#[test]
fn clip_fully_outside_coverage_is_zero() {
    let rects = [Rect::from_extents(0, 0, 50, 50)];
    let window = Rect::from_extents(10_000, 10_000, 10_100, 10_100);
    let sat = table_raster(&rects, &window, 8, 8);
    let naive = DensityGrid::from_rects(&window, &rects, 8, 8);
    assert_eq!(sat.cells(), naive.cells());
    assert!(sat.cells().iter().all(|&c| c == 0.0));
}

#[test]
fn one_by_one_grid_is_exact_mean_coverage() {
    let rects = [
        Rect::from_extents(0, 0, 30, 120),
        Rect::from_extents(60, 60, 90, 90),
    ];
    let window = Rect::from_extents(0, 0, 120, 120);
    let sat = table_raster(&rects, &window, 1, 1);
    let naive = DensityGrid::from_rects(&window, &rects, 1, 1);
    assert_eq!(sat.cells(), naive.cells());
    let covered: i64 = rects.iter().map(|r| r.overlap_area(&window)).sum();
    assert_eq!(sat.at(0, 0), covered as f64 / window.area() as f64);
}

#[test]
fn grid_finer_than_window_handles_empty_pixels() {
    // A 3-nm-wide window split into 8 columns leaves zero-width pixels;
    // both paths must agree (empty pixels stay 0.0, no NaNs).
    let window = Rect::from_extents(0, 0, 3, 3);
    let rects = [Rect::from_extents(0, 0, 2, 3)];
    let sat = table_raster(&rects, &window, 8, 8);
    let naive = DensityGrid::from_rects(&window, &rects, 8, 8);
    assert_eq!(sat.cells(), naive.cells());
    assert!(sat.cells().iter().all(|c| c.is_finite()));
}

//! Property tests pinning the compiled admission router to the naive
//! 8-orientation search: admitted kernel sets and best orientations must be
//! identical, distances within 1e-9 (they are in fact bit-identical — the
//! exact pass reuses `l1_distance`'s summation order — but the property
//! asserts the contract from the issue).

use hotspot_geom::{DensityGrid, Orientation, Rect, D8};
use hotspot_topo::route::{CentroidRouter, RouteStats};
use proptest::prelude::*;

/// Random density grid with cells in the unit interval, nx × ny.
fn grid_of(nx: usize, ny: usize) -> impl Strategy<Value = DensityGrid> {
    proptest::collection::vec(0.0f64..1.0, nx * ny)
        .prop_map(move |cells| DensityGrid::from_cells(nx, ny, cells))
}

/// Random square density grid, n × n.
fn grid(n: usize) -> impl Strategy<Value = DensityGrid> {
    grid_of(n, n)
}

/// A kernel: a centroid grid plus an admission threshold. Thresholds are
/// drawn around the typical distance scale so both admissions and
/// rejections occur, with occasional near-zero and huge (single-cluster
/// ablation) values.
fn kernel(n: usize) -> impl Strategy<Value = (DensityGrid, f64)> {
    (grid(n), 0.0f64..1.0, 0u8..7).prop_map(|(g, t, sel)| (g, threshold(t, sel, 25.0)))
}

/// A kernel of an nx × ny centroid, its typical thresholds scaled with the
/// cell count from the 8×8 kernels' 25.
fn kernel_of(nx: usize, ny: usize) -> impl Strategy<Value = (DensityGrid, f64)> {
    let scale = (nx * ny) as f64 * 25.0 / 64.0;
    (grid_of(nx, ny), 0.0f64..1.0, 0u8..7)
        .prop_map(move |(g, t, sel)| (g, threshold(t, sel, scale)))
}

/// A threshold drawn by [`kernel`]: mostly `t * scale`, sometimes near
/// zero or huge.
fn threshold(t: f64, sel: u8, scale: f64) -> f64 {
    match sel {
        0..=4 => t * scale,
        5 => t * 1e-3,
        _ => f64::MAX / 4.0 * 1.5,
    }
}

/// The naive oracle: per-kernel dimension guard + `DensityGrid::distance`
/// (exhaustive D8 search) + inclusive threshold compare — exactly the
/// reference admission loop in `hotspot-core`.
fn naive_admissions(
    query: &DensityGrid,
    kernels: &[(DensityGrid, f64)],
) -> Vec<(usize, f64, Orientation)> {
    kernels
        .iter()
        .enumerate()
        .filter(|(_, (c, _))| (c.nx(), c.ny()) == (query.nx(), query.ny()))
        .filter_map(|(i, (c, threshold))| {
            let d = query.distance(c);
            (d.distance <= *threshold).then_some((i, d.distance, d.orientation))
        })
        .collect()
}

fn assert_router_matches(query: &DensityGrid, kernels: &[(DensityGrid, f64)]) {
    let router =
        CentroidRouter::compile(kernels.iter().map(|(c, t)| (c, *t)), query.nx(), query.ny());
    let (admissions, stats) = router.route(query);
    let expected = naive_admissions(query, kernels);
    assert_eq!(
        admissions.len(),
        expected.len(),
        "admitted kernel count diverged from the naive search"
    );
    for (a, (kernel, distance, orientation)) in admissions.iter().zip(&expected) {
        assert_eq!(a.kernel, *kernel, "admitted kernel set diverged");
        assert_eq!(
            a.orientation, *orientation,
            "best orientation diverged on kernel {kernel}"
        );
        assert!(
            (a.distance - distance).abs() <= 1e-9,
            "distance diverged on kernel {kernel}: {} vs {}",
            a.distance,
            distance
        );
    }
    assert_eq!(stats.admitted, expected.len());
    // Every considered row is accounted for by exactly one outcome.
    assert_eq!(
        stats.mass_skips + stats.block_skips + stats.early_exits + stats.exact_passes,
        stats.rows_considered
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random 8×8 clips against a bank of random kernels: the production
    /// grid shape (`ClusterParams::grid = 8`).
    #[test]
    fn router_matches_naive_on_production_grids(
        query in grid(8),
        kernels in proptest::collection::vec(kernel(8), 0..12),
    ) {
        assert_router_matches(&query, &kernels);
    }

    /// Small odd-sized grids leave some of the 4×4 blocks empty and
    /// exercise the early-exit checkpoint remainder.
    #[test]
    fn router_matches_naive_on_small_grids(
        query in grid(3),
        kernels in proptest::collection::vec(kernel(3), 0..10),
    ) {
        assert_router_matches(&query, &kernels);
    }

    /// Non-square grids search only the four orientations that keep the
    /// shape, and their blocks are ragged (the 6-cell side splits 3+3 into
    /// quadrants and 2+1+2+1 into fine blocks).
    #[test]
    fn router_matches_naive_on_6x4_grids(
        query in grid_of(6, 4),
        kernels in proptest::collection::vec(kernel_of(6, 4), 0..10),
    ) {
        assert_router_matches(&query, &kernels);
    }

    /// A 5×3 grid has ragged quadrants on both axes and empty fine blocks
    /// along its 3-cell side.
    #[test]
    fn router_matches_naive_on_5x3_grids(
        query in grid_of(5, 3),
        kernels in proptest::collection::vec(kernel_of(5, 3), 0..10),
    ) {
        assert_router_matches(&query, &kernels);
    }

    /// An odd square: every orientation keeps the shape, but no block
    /// boundary is symmetric, so rotated blocks differ from the originals.
    #[test]
    fn router_matches_naive_on_7x7_grids(
        query in grid(7),
        kernels in proptest::collection::vec(kernel_of(7, 7), 0..10),
    ) {
        assert_router_matches(&query, &kernels);
    }

    /// Larger grids than production: 16 cells per block, and the block
    /// sums still fit the router's fixed-size buffer.
    #[test]
    fn router_matches_naive_on_16x16_grids(
        query in grid(16),
        kernels in proptest::collection::vec(kernel_of(16, 16), 0..8),
    ) {
        assert_router_matches(&query, &kernels);
    }

    /// Near-duplicate centroids (query plus a sparse perturbation) stress
    /// the tie-break and tight-threshold paths where distances cluster
    /// around the admission boundary.
    #[test]
    fn router_matches_naive_on_near_duplicates(
        query in grid(4),
        deltas in proptest::collection::vec((0usize..16, 0.0f64..0.1), 1..8),
        threshold in 0.0f64..1.0,
    ) {
        let mut cells = query.cells().to_vec();
        for (idx, delta) in deltas {
            cells[idx] = (cells[idx] + delta - 0.05).clamp(0.0, 1.0);
        }
        let near = DensityGrid::from_cells(4, 4, cells);
        let kernels = vec![
            (near.clone(), threshold),
            (near.transform(hotspot_geom::D8[3]), threshold),
            (query.clone(), threshold),
        ];
        assert_router_matches(&query, &kernels);
    }

    /// Mixed-dimension kernel banks: mismatched centroids must be ignored
    /// by both searches.
    #[test]
    fn router_matches_naive_with_mismatched_dimensions(
        query in grid(5),
        matching in proptest::collection::vec(kernel(5), 0..5),
        mismatched in proptest::collection::vec(kernel(3), 0..5),
    ) {
        let mut kernels = Vec::new();
        for (i, k) in matching.into_iter().enumerate() {
            kernels.push(k);
            if i < mismatched.len() {
                kernels.push(mismatched[i].clone());
            }
        }
        assert_router_matches(&query, &kernels);
    }
}

/// A fixed multi-kernel bank on the production 8×8 grid, routed for a few
/// fixed queries. Its exact counters are pinned: a change to the screens
/// shows here as a count delta, while the admissions must stay the naive
/// search's.
#[test]
fn route_stats_of_a_fixed_fixture_are_pinned() {
    let window = Rect::from_extents(0, 0, 160, 160);
    let grid = |rects: &[Rect]| DensityGrid::from_rects(&window, rects, 8, 8);
    let bar = |x0, y0, x1, y1| Rect::from_extents(x0, y0, x1, y1);
    let base = grid(&[bar(0, 0, 40, 160), bar(80, 0, 160, 30)]);
    let mut kernels: Vec<(DensityGrid, f64)> = Vec::new();
    // Rotated and mirrored copies of the base pattern: admitted at 0.
    for o in [D8[1], D8[4], D8[6]] {
        kernels.push((base.transform(o), 0.5));
    }
    // Bars of growing width: some near the queries, some mass-gated.
    for i in 0..8 {
        let w = 10 + 20 * i;
        kernels.push((grid(&[bar(0, 0, w, 160)]), 4.0));
        kernels.push((grid(&[bar(0, 0, 160, w), bar(150, 0, 160, 160)]), 6.0));
    }
    // Same mass as the base pattern, different layout: only the block
    // screens and the exact pass can tell them apart.
    kernels.push((grid(&[bar(60, 60, 100, 160), bar(0, 0, 160, 30)]), 2.0));
    kernels.push((grid(&[bar(120, 0, 160, 160), bar(0, 130, 80, 160)]), 2.0));
    // One-cell stripes: every 2×2-cell block is half covered whatever the
    // phase or orientation, so only the exact pass separates these.
    let stripes = |phase: i64| -> Vec<Rect> {
        (0..4)
            .map(|k| bar(40 * k + phase, 0, 40 * k + phase + 20, 160))
            .collect()
    };
    kernels.push((grid(&stripes(20)), 4.0));
    kernels.push((grid(&stripes(0)), 4.0));
    let queries = [
        base.clone(),
        grid(&[bar(0, 0, 50, 160), bar(80, 0, 160, 30)]),
        grid(&[bar(0, 0, 160, 70)]),
        grid(&[bar(40, 40, 120, 120)]),
        grid(&stripes(0)),
    ];
    let router = CentroidRouter::compile(kernels.iter().map(|(c, t)| (c, *t)), 8, 8);
    let mut stats = RouteStats::default();
    let mut out = Vec::new();
    for q in &queries {
        router.route_into(q, &mut out, &mut stats);
        let got: Vec<(usize, f64, Orientation)> = out
            .iter()
            .map(|a| (a.kernel, a.distance, a.orientation))
            .collect();
        assert_eq!(got, naive_admissions(q, &kernels));
    }
    assert_eq!(
        stats,
        RouteStats {
            queries: 5,
            admitted: 9,
            rows_considered: 920,
            mass_skips: 728,
            block_skips: 167,
            exact_passes: 13,
            early_exits: 12,
        }
    );
}

//! Property tests pinning `DensityClustering::run_on_grids` to the naive
//! clustering it replaced: the eq. (2) radius over every pair and every
//! orientation, each transformed grid materialised by
//! `DensityGrid::distance`, then the same incremental assignment and
//! medoid search. The production pass gathers through permutations built
//! once per group, skips pairs whose triangle bound through two pivots is
//! within the running maximum, and stops a pair's orientation loop early,
//! so the radius, the cluster members, the centroids and the medoids must
//! agree bit for bit.

use hotspot_geom::{DensityGrid, D8};
use hotspot_topo::cluster::{ClusterParams, DensityClustering};
use proptest::prelude::*;
use std::ops::Range;

/// One oracle cluster: members, centroid, medoid.
type OracleCluster = (Vec<usize>, DensityGrid, usize);

/// The naive clustering: returns the radius and the clusters.
fn oracle(grids: &[DensityGrid], params: &ClusterParams) -> (f64, Vec<OracleCluster>) {
    if grids.is_empty() {
        return (params.radius_floor, Vec::new());
    }
    let mut max_pair = 0.0f64;
    for i in 0..grids.len() {
        for j in (i + 1)..grids.len() {
            let d = grids[i].distance(&grids[j]).distance;
            if d > max_pair {
                max_pair = d;
            }
        }
    }
    let k = params.expected_count.max(1) as f64;
    let radius = params.radius_floor.max(max_pair / k);

    let mut clusters: Vec<(Vec<usize>, DensityGrid)> = Vec::new();
    for (idx, grid) in grids.iter().enumerate() {
        match clusters
            .iter_mut()
            .find(|(_, centroid)| centroid.distance(grid).distance <= radius)
        {
            Some((members, centroid)) => {
                centroid.fold_mean(grid, members.len());
                members.push(idx);
            }
            None => clusters.push((vec![idx], grid.clone())),
        }
    }
    let clusters = clusters
        .into_iter()
        .map(|(members, centroid)| {
            let mut best: Option<(usize, f64)> = None;
            for &m in &members {
                let d = centroid.distance(&grids[m]).distance;
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((m, d));
                }
            }
            let medoid = best.expect("clusters are never empty").0;
            (members, centroid, medoid)
        })
        .collect();
    (radius, clusters)
}

fn bits(g: &DensityGrid) -> Vec<u64> {
    g.cells().iter().map(|c| c.to_bits()).collect()
}

fn assert_matches_oracle(grids: Vec<DensityGrid>, params: &ClusterParams) {
    let (radius, expected) = oracle(&grids, params);
    let dc = DensityClustering::run_on_grids(grids.clone(), params);
    assert_eq!(
        dc.radius.to_bits(),
        radius.to_bits(),
        "radius {} vs oracle {radius}",
        dc.radius
    );
    assert_eq!(
        dc.grids.iter().map(bits).collect::<Vec<_>>(),
        grids.iter().map(bits).collect::<Vec<_>>(),
        "input grids changed"
    );
    assert_eq!(dc.clusters.len(), expected.len(), "cluster count");
    for (c, (members, centroid, medoid)) in dc.clusters.iter().zip(&expected) {
        assert_eq!(&c.members, members, "cluster members");
        assert_eq!(
            (c.centroid.nx(), c.centroid.ny()),
            (centroid.nx(), centroid.ny())
        );
        assert_eq!(bits(&c.centroid), bits(centroid), "centroid cells");
        assert_eq!(c.medoid(&dc.grids), *medoid, "medoid");
    }
}

/// Clustering parameters: a zero, small or large radius floor, and `K` of
/// 1 (the radius then equals the largest pair distance, so a pair at
/// exactly that distance tests the inclusive comparison), 3 or the paper's
/// 10.
fn params() -> impl Strategy<Value = ClusterParams> {
    (0u8..3, 0u8..3, 0.0f64..2.0).prop_map(|(f, k, floor)| ClusterParams {
        radius_floor: match f {
            0 => 0.0,
            1 => floor,
            _ => 8.0 * floor,
        },
        expected_count: [1, 3, 10][usize::from(k)],
        grid: 8,
    })
}

/// A topology group of `size` grids of shape `nx × ny`. Each member copies
/// one of four base grids in a random D8 orientation (skipping those that
/// change the shape) and may overwrite one pixel. That yields exact
/// duplicates, reoriented copies at distance 0 and near misses besides
/// distinct grids. Cells are quarter steps in half the cases, so distances
/// tie, and continuous in the rest, so a changed summation order would
/// show in the last bits.
fn group(nx: usize, ny: usize, size: Range<usize>) -> impl Strategy<Value = Vec<DensityGrid>> {
    let n = nx * ny;
    let member = (0usize..4, 0usize..8, 0usize..n, 0u8..8);
    (
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, n), 4),
        0u8..2,
        proptest::collection::vec(member, size),
    )
        .prop_map(move |(bases, quantised, members)| {
            let level = |v: f64| {
                if quantised == 1 {
                    (v * 5.0).floor() / 4.0
                } else {
                    v
                }
            };
            let bases: Vec<DensityGrid> = bases
                .into_iter()
                .map(|cells| {
                    DensityGrid::from_cells(nx, ny, cells.into_iter().map(level).collect())
                })
                .collect();
            members
                .into_iter()
                .map(|(base, o, pixel, value)| {
                    let mut cells = reorient(&bases[base], o).cells().to_vec();
                    if value < 4 {
                        cells[pixel] = f64::from(value) / 4.0;
                    }
                    DensityGrid::from_cells(nx, ny, cells)
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Small square groups: all eight orientations align.
    #[test]
    fn matches_the_oracle_on_square_groups(
        grids in group(3, 3, 1..24),
        params in params(),
    ) {
        assert_matches_oracle(grids, &params);
    }

    /// Non-square groups: the quarter turns change the shape and are
    /// skipped, leaving four orientations.
    #[test]
    fn matches_the_oracle_on_non_square_groups(
        (a, b, c) in (group(3, 2, 1..20), group(2, 5, 1..20), group(1, 4, 1..20)),
        params in params(),
    ) {
        assert_matches_oracle(a, &params);
        assert_matches_oracle(b, &params);
        assert_matches_oracle(c, &params);
    }

    /// The production grid shape (`ClusterParams::grid = 8`).
    #[test]
    fn matches_the_oracle_on_production_grids(
        grids in group(8, 8, 2..40),
        params in params(),
    ) {
        assert_matches_oracle(grids, &params);
    }
}

/// `grid` in orientation `D8[o]`, or unchanged when that orientation
/// changes the shape: at eq. (1) distance 0 from `grid` either way.
fn reorient(grid: &DensityGrid, o: usize) -> DensityGrid {
    let t = grid.transform(D8[o]);
    if (t.nx(), t.ny()) == (grid.nx(), grid.ny()) {
        t
    } else {
        grid.clone()
    }
}

/// A cellwise-monotone family `tᵢ·v`, each member in a random orientation.
/// In exact arithmetic `ρ(tᵢ·v, tⱼ·v) = |tᵢ − tⱼ|·Σv`, so the family lies
/// on a line and the pivot bound is tight for every pair that straddles a
/// pivot: only the bound's slack keeps such a pair's rounded distance
/// from exceeding it. `t` takes eighth steps in half the cases (exact
/// sums and ties) and is continuous in the rest (rounded sums).
fn scaled_family(
    nx: usize,
    ny: usize,
    size: Range<usize>,
) -> impl Strategy<Value = Vec<DensityGrid>> {
    (
        proptest::collection::vec(0.0f64..1.0, nx * ny),
        0u8..2,
        proptest::collection::vec((0.0f64..1.0, 0usize..8), size),
    )
        .prop_map(move |(v, quantised, members)| {
            members
                .into_iter()
                .map(|(t, o)| {
                    let t = if quantised == 1 {
                        (t * 9.0).floor() / 8.0
                    } else {
                        t
                    };
                    let grid = DensityGrid::from_cells(nx, ny, v.iter().map(|x| t * x).collect());
                    reorient(&grid, o)
                })
                .collect()
        })
}

/// A group whose farthest pair involves neither pivot. Cell 0 holds an
/// anchor of 100 that no orientation can move without costing more than
/// any listed distance, so eq. (1) is the plain L1 of cells 1 and 2. In
/// the 45°-rotated coordinates `u = a + b`, `v = a − b` that L1 is the L∞
/// distance. Member 0 sits at the origin, the far pivot at `(0, 5.5)`,
/// the farthest pair at `(±5, 0)` (distance 10, against 5.5 from the far
/// pivot), and the fillers inside `|u| ≤ 4.5`, `−4 ≤ v ≤ 4.5`, below 10
/// from every member.
fn off_pivot_group() -> impl Strategy<Value = Vec<DensityGrid>> {
    (
        proptest::collection::vec((-4.5f64..4.5, -4.0f64..4.5), 0..30),
        proptest::collection::vec(0usize..64, 3),
    )
        .prop_map(|(mut points, at)| {
            for (point, at) in [(0.0, 5.5), (5.0, 0.0), (-5.0, 0.0)].into_iter().zip(at) {
                points.insert(at % (points.len() + 1), point);
            }
            points.insert(0, (0.0, 0.0));
            points
                .into_iter()
                .map(|(u, v)| {
                    let (a, b) = ((u + v) / 2.0, (u - v) / 2.0);
                    let mut cells = vec![0.0; 9];
                    cells[..3].copy_from_slice(&[100.0, 6.0 + a, 6.0 + b]);
                    DensityGrid::from_cells(3, 3, cells)
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cellwise-monotone families: square (all eight orientations),
    /// non-square and production-shape grids.
    #[test]
    fn matches_the_oracle_on_scaled_families(
        (a, b, c) in (scaled_family(3, 3, 2..40), scaled_family(2, 5, 2..40), scaled_family(8, 8, 2..60)),
        params in params(),
    ) {
        assert_matches_oracle(a, &params);
        assert_matches_oracle(b, &params);
        assert_matches_oracle(c, &params);
    }

    /// Groups whose farthest pair avoids both pivots.
    #[test]
    fn matches_the_oracle_when_the_farthest_pair_avoids_the_pivots(
        grids in off_pivot_group(),
        params in params(),
    ) {
        let dc = DensityClustering::run_on_grids(grids.clone(), &ClusterParams {
            radius_floor: 0.0,
            expected_count: 1,
            grid: 3,
        });
        prop_assert_eq!(dc.radius, 10.0, "the farthest pair is at distance 10");
        assert_matches_oracle(grids, &params);
    }

    /// Zero-distance groups larger than the small proptest groups: every
    /// member reorients one base grid, so every pivot bound is 0.
    #[test]
    fn matches_the_oracle_on_zero_distance_groups(
        (square, other) in (group(8, 8, 1..2), group(3, 2, 1..2)),
        (os, more) in (proptest::collection::vec(0usize..8, 25..80), proptest::collection::vec(0usize..8, 25..80)),
        params in params(),
    ) {
        let a: Vec<DensityGrid> = os.iter().map(|&o| reorient(&square[0], o)).collect();
        let b: Vec<DensityGrid> = more.iter().map(|&o| reorient(&other[0], o)).collect();
        let dc = DensityClustering::run_on_grids(a.clone(), &params);
        prop_assert_eq!(dc.radius, params.radius_floor);
        assert_matches_oracle(a, &params);
        assert_matches_oracle(b, &params);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Groups of a few hundred members, the size of the largest topology
    /// groups in the small-scale training sets, where the early exit skips
    /// the most orientations.
    #[test]
    fn matches_the_oracle_on_large_groups(
        grids in group(8, 8, 200..320),
        params in params(),
    ) {
        assert_matches_oracle(grids, &params);
    }
}

#[test]
fn duplicate_grids_are_at_distance_zero() {
    let g = DensityGrid::from_cells(2, 2, vec![0.25, 0.5, 0.0, 1.0]);
    for floor in [0.0, 0.5] {
        let params = ClusterParams {
            radius_floor: floor,
            expected_count: 10,
            grid: 2,
        };
        assert_matches_oracle(vec![g.clone(); 5], &params);
        let dc = DensityClustering::run_on_grids(vec![g.clone(); 5], &params);
        assert_eq!(dc.radius, floor);
        assert_eq!(dc.clusters.len(), 1);
    }
}

#[test]
fn all_empty_grids_form_one_cluster() {
    let params = ClusterParams {
        radius_floor: 0.0,
        expected_count: 1,
        grid: 4,
    };
    let grids = vec![DensityGrid::from_cells(4, 4, vec![0.0; 16]); 7];
    assert_matches_oracle(grids.clone(), &params);
    let dc = DensityClustering::run_on_grids(grids, &params);
    assert_eq!(dc.radius.to_bits(), 0.0f64.to_bits());
    assert_eq!(dc.clusters.len(), 1);
}

#[test]
fn a_single_member_group_keeps_the_radius_floor() {
    let params = ClusterParams::default();
    let grids = vec![DensityGrid::from_cells(8, 8, vec![0.5; 64])];
    assert_matches_oracle(grids.clone(), &params);
    let dc = DensityClustering::run_on_grids(grids, &params);
    assert_eq!(dc.radius, params.radius_floor);
    assert_eq!(dc.clusters[0].members, vec![0]);
}

#[test]
fn an_empty_group_keeps_the_radius_floor() {
    assert_matches_oracle(Vec::new(), &ClusterParams::default());
}

#[test]
fn nan_cells_never_raise_the_radius() {
    // A NaN cell makes every distance of its grid NaN: the pivot bounds
    // through it never skip, and its pairs never raise the maximum. Member
    // 0, the would-be far pivot and an inner member each carry a NaN.
    let params = ClusterParams {
        radius_floor: 0.0,
        expected_count: 1,
        grid: 2,
    };
    let grid = |cells: [f64; 4]| DensityGrid::from_cells(2, 2, cells.to_vec());
    let groups = [
        vec![
            grid([f64::NAN, 0.0, 0.0, 0.0]),
            grid([0.5, 0.0, 0.0, 0.0]),
            grid([1.0, 1.0, 0.0, 0.0]),
            grid([0.0, 0.25, 0.0, 0.0]),
        ],
        vec![
            grid([0.0; 4]),
            grid([1.0, f64::NAN, 0.0, 0.0]),
            grid([0.75, 0.5, 0.0, 0.0]),
            grid([0.0, 0.25, 1.0, 0.0]),
        ],
        vec![
            grid([0.0; 4]),
            grid([1.0, 1.0, 1.0, 0.0]),
            grid([0.25, f64::NAN, 0.0, 0.0]),
            grid([0.0, 0.25, 0.5, 0.0]),
        ],
    ];
    for grids in groups {
        assert_matches_oracle(grids, &params);
    }
}

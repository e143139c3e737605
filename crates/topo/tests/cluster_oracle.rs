//! Property tests pinning `DensityClustering::run_on_grids` to the naive
//! clustering it replaced: the eq. (2) radius over every pair and every
//! orientation, each transformed grid materialised by
//! `DensityGrid::distance`, then the same incremental assignment and
//! medoid search. The production pass gathers through permutations built
//! once per group and stops a pair's orientation loop early, so the
//! radius, the cluster members, the centroids and the medoids must agree
//! bit for bit.

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
    assert_eq!(dc.grids, grids, "input grids changed");
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
                    let o = D8[o];
                    let t = bases[base].transform(o);
                    let mut cells = if (t.nx(), t.ny()) == (nx, ny) {
                        t.cells().to_vec()
                    } else {
                        bases[base].cells().to_vec()
                    };
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

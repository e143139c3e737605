//! Density-based classification (Section III-B2).
//!
//! After string-based classification, patterns sharing a topology may still
//! differ geometrically. Each pattern is pixelated into a density grid; the
//! distance between patterns is eq. (1) (orientation-minimised L1), and the
//! cluster radius is eq. (2):
//!
//! ```text
//! R = max(R₀, max_{i,j} ρ(pᵢ, pⱼ) / K)
//! ```
//!
//! Clustering is incremental: a pattern joins the first cluster whose
//! centroid is within `R`, recalculating that centroid, and otherwise seeds
//! a new cluster.
//!
//! Every distance here compares grids of one shape, so the D8 pixel
//! permutations are built once per group (`D8Perms`) and eq. (1) gathers
//! through them instead of materialising transformed grids. Each
//! orientation's L1 is summed in [`DensityGrid::l1_distance`]'s pixel
//! order, so every value is bit-identical to [`DensityGrid::distance`].
//!
//! The eq. (2) maximum is found without comparing every pair. Eq. (1) is a
//! metric on orientation classes: the shape-preserving orientations form a
//! group and L1 is invariant under a common pixel permutation, so
//! `ρ(i, j) ≤ ρ(p, i) + ρ(p, j)` for any pivot `p`. The pass computes the
//! exact distance of every member to two farthest-first pivots (member 0,
//! then the member farthest from it), visits the other pairs in descending
//! order of their distance to the second pivot, and skips a pair whose
//! bound `min_p(ρ(p, i) + ρ(p, j)) · (1 + 1e-9)` is within the running
//! maximum; an outer member's sweep ends at the first pair whose
//! second-pivot bound alone is within it. The `1e-9` slack covers the
//! rounding of the computed sums (at most about `cells · 2⁻⁵³` relative,
//! `7·10⁻¹⁵` for 64 cells), so a skipped pair's computed distance cannot
//! exceed the maximum. A visited pair stops its orientation loop at the
//! first orientation within the running maximum, as its minimum then
//! cannot raise it. Every distance is computed with the `(min, max)`
//! argument order of the all-pairs loop, and a maximum of floats does not
//! depend on visiting order, so the radius is bit-identical to the
//! all-pairs pass.

use hotspot_geom::{DensityGrid, Rect, D8};
use serde::{Deserialize, Serialize};

/// Parameters of density-based classification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterParams {
    /// User-defined radius floor `R₀`.
    pub radius_floor: f64,
    /// Expected cluster count `K` (the paper uses 10).
    pub expected_count: usize,
    /// Density-grid resolution (pixels per side).
    pub grid: usize,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            radius_floor: 0.5,
            expected_count: 10,
            grid: 8,
        }
    }
}

/// One density cluster: member indices into the input slice, the running
/// centroid grid, and the medoid (member closest to the centroid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Indices of member patterns in the order they were added.
    pub members: Vec<usize>,
    /// Mean density grid of the members.
    pub centroid: DensityGrid,
}

impl Cluster {
    /// Index (into the original input) of the member whose grid is closest
    /// to the centroid — the cluster representative the paper selects when
    /// downsampling nonhotspots.
    ///
    /// # Panics
    ///
    /// Panics if a member's grid differs in shape from the centroid.
    pub fn medoid(&self, grids: &[DensityGrid]) -> usize {
        let perms = D8Perms::new(self.centroid.nx(), self.centroid.ny());
        let mut best: Option<(usize, f64)> = None;
        for &m in &self.members {
            let d = perms.distance(&self.centroid, &grids[m]);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((m, d));
            }
        }
        best.expect("clusters are never empty").0
    }
}

/// Runs density-based classification over patterns given as rect sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityClustering {
    /// The radius actually used (after applying eq. (2)).
    pub radius: f64,
    /// The clusters, in creation order.
    pub clusters: Vec<Cluster>,
    /// The density grid of every input pattern.
    pub grids: Vec<DensityGrid>,
    /// Pair distances the eq. (2) radius pass computed, pivot rows
    /// included: a deterministic work count.
    pub pair_distances: usize,
}

impl DensityClustering {
    /// Clusters `patterns` (each a rect set inside `window`).
    ///
    /// Returns an empty clustering for no patterns.
    pub fn run(window: &Rect, patterns: &[Vec<Rect>], params: &ClusterParams) -> Self {
        let grids: Vec<DensityGrid> = patterns
            .iter()
            .map(|rects| DensityGrid::from_rects(window, rects, params.grid, params.grid))
            .collect();
        Self::run_on_grids(grids, params)
    }

    /// Clusters precomputed density grids.
    ///
    /// # Panics
    ///
    /// Panics if the grids do not all share one shape.
    pub fn run_on_grids(grids: Vec<DensityGrid>, params: &ClusterParams) -> Self {
        if grids.is_empty() {
            return DensityClustering {
                radius: params.radius_floor,
                clusters: Vec::new(),
                grids,
                pair_distances: 0,
            };
        }
        let perms = D8Perms::new(grids[0].nx(), grids[0].ny());

        // Eq. (2): R = max(R0, max pairwise distance / K).
        let (max_pair, pair_distances) = max_pair_distance(&grids, &perms);
        let k = params.expected_count.max(1) as f64;
        let radius = params.radius_floor.max(max_pair / k);

        let mut clusters: Vec<Cluster> = Vec::new();
        for (idx, grid) in grids.iter().enumerate() {
            let mut joined = false;
            for cluster in &mut clusters {
                if perms
                    .distance_above(&cluster.centroid, grid, radius)
                    .is_none()
                {
                    // Recalculate the centroid as the running mean.
                    let n = cluster.members.len();
                    cluster.centroid.fold_mean(grid, n);
                    cluster.members.push(idx);
                    joined = true;
                    break;
                }
            }
            if !joined {
                clusters.push(Cluster {
                    members: vec![idx],
                    centroid: grid.clone(),
                });
            }
        }

        DensityClustering {
            radius,
            clusters,
            grids,
            pair_distances,
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when no patterns were clustered.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster index containing pattern `idx`, if any.
    pub fn cluster_of(&self, idx: usize) -> Option<usize> {
        self.clusters.iter().position(|c| c.members.contains(&idx))
    }
}

/// Relative slack on the pivot bound. A computed L1 over `c` cells is
/// within `c · 2⁻⁵³` of the exact sum (relative), far below `1e-9` for any
/// grid up to a million cells, so a computed pair distance never exceeds
/// its slackened bound.
const PIVOT_SLACK: f64 = 1.0 + 1e-9;

/// The largest eq. (1) distance over all pairs of `grids`, bit-identical
/// to comparing every pair, and the number of pair distances computed.
///
/// The pivot rows hold every member's exact distance to member 0 (`near`)
/// and to the member farthest from it (`far`). The other pairs are
/// visited in descending order of `far`: a pair is skipped when its
/// triangle bound through either pivot is within the running maximum, and
/// an outer member's sweep ends at the first pair whose `far` bound is,
/// since that bound only shrinks further down the order.
fn max_pair_distance(grids: &[DensityGrid], perms: &D8Perms) -> (f64, usize) {
    let n = grids.len();
    if n < 2 {
        return (0.0, 0);
    }
    // Every distance takes the all-pairs loop's argument order: the lower
    // index first.
    let exact = |i: usize, j: usize| perms.distance(&grids[i.min(j)], &grids[i.max(j)]);
    let near: Vec<f64> = (0..n)
        .map(|i| if i == 0 { 0.0 } else { exact(0, i) })
        .collect();
    let far_pivot = (2..n).fold(1, |best, i| if near[i] > near[best] { i } else { best });
    let far: Vec<f64> = (0..n)
        .map(|i| match i {
            0 => near[far_pivot],
            i if i == far_pivot => 0.0,
            i => exact(far_pivot, i),
        })
        .collect();
    let mut computed = 2 * n - 3;
    let mut max = 0.0f64;
    for &d in near.iter().chain(&far) {
        if d > max {
            max = d;
        }
    }

    let mut order: Vec<usize> = (1..n).filter(|&i| i != far_pivot).collect();
    order.sort_by(|&a, &b| far[b].total_cmp(&far[a]));
    for (s, &i) in order.iter().enumerate() {
        for &j in &order[s + 1..] {
            if (far[i] + far[j]) * PIVOT_SLACK <= max {
                break;
            }
            if (near[i] + near[j]) * PIVOT_SLACK <= max {
                continue;
            }
            computed += 1;
            let (a, b) = (&grids[i.min(j)], &grids[i.max(j)]);
            if let Some(d) = perms.distance_above(a, b, max) {
                if d > max {
                    max = d;
                }
            }
        }
    }
    (max, computed)
}

/// The D8 pixel permutations of one grid shape, in [`D8`] order, keeping
/// only the orientations that map the shape onto itself (all eight for a
/// square grid, the four without a quarter turn otherwise), as
/// [`DensityGrid::distance`] skips the others.
struct D8Perms {
    shape: (usize, usize),
    perms: Vec<Vec<usize>>,
}

impl D8Perms {
    fn new(nx: usize, ny: usize) -> Self {
        let perms = D8
            .iter()
            .map(|&o| DensityGrid::transform_permutation(o, nx, ny))
            .filter(|(shape, _)| *shape == (nx, ny))
            .map(|(_, perm)| perm)
            .collect();
        D8Perms {
            shape: (nx, ny),
            perms,
        }
    }

    /// The eq. (1) distance of `a` and `b`: the first minimum over the
    /// orientations of `b`, as [`DensityGrid::distance`] picks it.
    fn distance(&self, a: &DensityGrid, b: &DensityGrid) -> f64 {
        self.distance_above(a, b, f64::NEG_INFINITY)
            .expect("no L1 distance is below -inf")
    }

    /// The eq. (1) distance of `a` and `b`, or `None` as soon as one
    /// orientation is within `bound`: the minimum is then within `bound`
    /// too, and its exact value is not needed.
    ///
    /// Each orientation's `Σ_k |a[k] − b[perm[k]]|` adds in
    /// [`DensityGrid::l1_distance`]'s pixel order, so it is bit-identical
    /// to the L1 against the transformed grid.
    fn distance_above(&self, a: &DensityGrid, b: &DensityGrid, bound: f64) -> Option<f64> {
        assert!(
            (a.nx(), a.ny()) == self.shape && (b.nx(), b.ny()) == self.shape,
            "grid dimension mismatch"
        );
        let (a, b) = (a.cells(), b.cells());
        let mut best: Option<f64> = None;
        for perm in &self.perms {
            let d: f64 = a.iter().zip(perm).map(|(x, &p)| (x - b[p]).abs()).sum();
            if d <= bound {
                return None;
            }
            if best.is_none_or(|bd| d < bd) {
                best = Some(d);
            }
        }
        Some(best.expect("the identity maps every shape onto itself"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Rect {
        Rect::from_extents(0, 0, 100, 100)
    }

    fn params() -> ClusterParams {
        ClusterParams {
            radius_floor: 0.5,
            expected_count: 10,
            grid: 6,
        }
    }

    #[test]
    fn empty_input() {
        let c = DensityClustering::run(&window(), &[], &params());
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn identical_patterns_form_one_cluster() {
        let p = vec![Rect::from_extents(0, 0, 50, 100)];
        let patterns = vec![p.clone(), p.clone(), p];
        let c = DensityClustering::run(&window(), &patterns, &params());
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters[0].members, vec![0, 1, 2]);
    }

    #[test]
    fn distinct_patterns_split() {
        let patterns = vec![
            vec![Rect::from_extents(0, 0, 20, 20)], // sparse corner
            vec![window()],                         // full coverage
        ];
        let c = DensityClustering::run(&window(), &patterns, &params());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn rotated_copies_cluster_together() {
        // Eq. (1) minimises over D8, so rotations are distance 0.
        let base = vec![
            Rect::from_extents(0, 0, 30, 100),
            Rect::from_extents(70, 0, 100, 100),
        ];
        let rotated: Vec<Rect> = hotspot_geom::Orientation::R90.apply_rects(&base, 100, 100);
        let c = DensityClustering::run(&window(), &[base, rotated], &params());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn radius_respects_floor_and_eq2() {
        let patterns = vec![vec![Rect::from_extents(0, 0, 20, 20)], vec![window()]];
        let p = ClusterParams {
            radius_floor: 0.1,
            expected_count: 2,
            grid: 6,
        };
        let c = DensityClustering::run(&window(), &patterns, &p);
        let d = c.grids[0].distance(&c.grids[1]).distance;
        assert!((c.radius - d / 2.0).abs() < 1e-12, "eq. (2) radius");

        let p_floor = ClusterParams {
            radius_floor: 1000.0,
            ..p
        };
        let c2 = DensityClustering::run(&window(), &patterns, &p_floor);
        assert_eq!(c2.radius, 1000.0);
        // A huge radius collapses everything into one cluster.
        assert_eq!(c2.len(), 1);
    }

    #[test]
    fn medoid_is_closest_to_centroid() {
        let patterns = vec![
            vec![Rect::from_extents(0, 0, 50, 100)],
            vec![Rect::from_extents(0, 0, 52, 100)],
            vec![Rect::from_extents(0, 0, 80, 100)],
        ];
        let p = ClusterParams {
            radius_floor: 100.0, // force one cluster
            ..params()
        };
        let c = DensityClustering::run(&window(), &patterns, &p);
        assert_eq!(c.len(), 1);
        let m = c.clusters[0].medoid(&c.grids);
        // The middle pattern is nearest the mean of the three.
        assert_eq!(m, 1);
    }

    #[test]
    fn cluster_of_finds_membership() {
        let patterns = vec![vec![Rect::from_extents(0, 0, 20, 20)], vec![window()]];
        let c = DensityClustering::run(&window(), &patterns, &params());
        assert_eq!(c.cluster_of(0), Some(0));
        assert_eq!(c.cluster_of(1), Some(1));
        assert_eq!(c.cluster_of(99), None);
    }

    #[test]
    fn pivot_bounds_skip_most_pairs_of_a_one_dimensional_family() {
        // 300 scalings `t·v` of one grid in a scrambled order: the farthest
        // pair spans the family, and the pivot rows bound nearly every
        // other pair below it.
        let v: Vec<f64> = (0..64).map(|k| f64::from(k % 7) / 6.0).collect();
        let n = 300;
        let grids: Vec<DensityGrid> = (0..n)
            .map(|i| {
                let t = ((i * 97) % n) as f64 / n as f64;
                DensityGrid::from_cells(8, 8, v.iter().map(|x| t * x).collect())
            })
            .collect();
        let c = DensityClustering::run_on_grids(grids, &ClusterParams::default());
        let all_pairs = n * (n - 1) / 2;
        assert!(
            c.pair_distances < all_pairs / 20,
            "{} of {all_pairs} pair distances computed",
            c.pair_distances
        );
        assert!(c.pair_distances >= 2 * n - 3, "pivot rows are counted");
    }

    #[test]
    fn every_pattern_lands_in_exactly_one_cluster() {
        let patterns: Vec<Vec<Rect>> = (0..10)
            .map(|i| vec![Rect::from_extents(0, 0, 10 + 9 * i, 100)])
            .collect();
        let c = DensityClustering::run(&window(), &patterns, &params());
        let total: usize = c.clusters.iter().map(|cl| cl.members.len()).sum();
        assert_eq!(total, patterns.len());
        for i in 0..patterns.len() {
            assert!(c.cluster_of(i).is_some());
        }
    }
}

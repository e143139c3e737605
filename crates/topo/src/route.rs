//! Compiled admission routing: the batched 8-orientation centroid search.
//!
//! Kernel admission evaluates the eq. (1) distance — the per-pixel L1
//! difference minimised over the eight D8 orientations — between a clip's
//! core density grid and every kernel centroid. The naive search
//! ([`DensityGrid::distance`]) allocates a transformed copy of the centroid
//! per orientation per kernel per clip; with the SVM hot loop compiled,
//! that routing search dominates the evaluation stage.
//!
//! [`CentroidRouter`] gives routing the same compiled-engine treatment. At
//! model-compile time it keeps one copy of each centroid whose shape
//! matches the queries, the centroid's mass, and its block sums over two
//! fixed partitions of its own frame: 2×2 quadrants and 4×4 blocks (2×2
//! cells each on the production 8×8 grid). It also builds the pixel
//! permutation ([`DensityGrid::transform_permutation`]) of every
//! orientation that maps the query shape onto itself, shared by all
//! kernels. A query is then admitted in one allocation-free pass:
//!
//! 1. **mass gate** — `|Σq − Σc| ≤ L1(q, τ(c))` for every orientation `τ`
//!    (the pixel sum is orientation-invariant), so one comparison against
//!    the admission threshold can discharge all eight rows of a kernel;
//! 2. **block-sum screens** — for any partition of the cells,
//!    `Σ_b |Σ_{i∈b} q_i − Σ_{i∈b} c_i| ≤ L1(q, c)` (the successive
//!    elimination bound of block-matching motion estimation; the mass
//!    gate is its one-block case). The query's block sums are taken once
//!    per orientation through that orientation's permutation, so each
//!    centroid-orientation row costs 4, then 16, absolute differences
//!    before it reaches the exact metric;
//! 3. **exact pass** — the surviving rows sum `|q[i] − c[perm[i]]|` in `i`
//!    order, which is [`DensityGrid::l1_distance`] against the transformed
//!    centroid term for term (bit-identical result), early-exiting once
//!    the running partial sum exceeds the bound
//!    `min(admission threshold, best distance so far)` — valid because L1
//!    partial sums are monotone non-decreasing.
//!
//! The screens are conservative (slack absorbs the rounding of the
//! differently ordered block sums), and rows they prune provably exceed
//! the bound, so the admitted kernel set, the minimal distance, and the
//! arg-min orientation (first-wins tie-break in D8 order) are exactly
//! those of the naive search — pinned by the property tests in
//! `tests/route_equivalence.rs`.

use hotspot_geom::{DensityGrid, Orientation, D8};

/// Blocks per side of the coarse (quadrant) partition.
const QUAD_SIDE: usize = 2;

/// Blocks per side of the fine partition.
const BLOCK_SIDE: usize = 4;

/// Quadrant sums lead each block-sum table.
const QUADS: usize = QUAD_SIDE * QUAD_SIDE;

/// Quadrant sums, then fine block sums, per grid and orientation.
const SUMS: usize = QUADS + BLOCK_SIDE * BLOCK_SIDE;

/// Cells per early-exit checkpoint of the exact L1 pass. Accumulation
/// stays strictly sequential; only the bound comparison is amortised.
const EXIT_CHECK: usize = 8;

/// Relative slack on the screening bounds, absorbing the rounding of the
/// threshold product and the screened quantity at large magnitudes.
const REL_SLACK: f64 = 1e-9;

/// Absolute slack on the screening bounds, absorbing summation rounding of
/// masses and block sums near zero thresholds.
const ABS_SLACK: f64 = 1e-7;

/// One admitted kernel of a routed query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admission {
    /// Index of the kernel in the router's compile order.
    pub kernel: usize,
    /// The exact eq. (1) distance — identical to the naive search's.
    pub distance: f64,
    /// The arg-min orientation (first minimising orientation in D8 order).
    pub orientation: Orientation,
}

/// Counters of one or more routing passes, for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Queries routed.
    pub queries: usize,
    /// Kernels admitted by the density metric across all queries.
    pub admitted: usize,
    /// Centroid-orientation rows considered (kernels × aligned
    /// orientations).
    pub rows_considered: usize,
    /// Rows discharged by the orientation-invariant mass gate.
    pub mass_skips: usize,
    /// Rows pruned by the quadrant or 4×4 block-sum screen.
    pub block_skips: usize,
    /// Rows that ran the exact L1 pass to completion.
    pub exact_passes: usize,
    /// Exact passes abandoned once the partial sum exceeded the bound.
    pub early_exits: usize,
}

impl RouteStats {
    /// Accumulates another set of counters into this one.
    pub fn absorb(&mut self, other: &RouteStats) {
        self.queries += other.queries;
        self.admitted += other.admitted;
        self.rows_considered += other.rows_considered;
        self.mass_skips += other.mass_skips;
        self.block_skips += other.block_skips;
        self.exact_passes += other.exact_passes;
        self.early_exits += other.early_exits;
    }

    /// Rows pruned without computing their full exact distance — the
    /// telemetry `admission_skips` counter.
    pub fn rows_pruned(&self) -> usize {
        self.mass_skips + self.block_skips + self.early_exits
    }
}

/// The screening constants of one compiled kernel.
#[derive(Debug, Clone)]
struct KernelSlot {
    /// Index of the centroid in the router's stored copies, or `None` when
    /// its dimensions differ from the queries' (never admitted).
    centroid: Option<usize>,
    /// Admission threshold: a kernel admits when the minimal exact
    /// distance is `<= threshold`.
    threshold: f64,
    /// Pixel sum of the centroid (orientation-invariant).
    mass: f64,
}

/// The compiled admission router: one copy of each kernel centroid with its
/// mass and block sums, plus the D8 pixel permutations of the query shape,
/// queried by an allocation-free pass per clip.
///
/// Built once per model compile (alongside the flattened SVM engine) and
/// shared read-only by every evaluation thread.
#[derive(Debug, Clone)]
pub struct CentroidRouter {
    nx: usize,
    ny: usize,
    dim: usize,
    /// The shape-preserving orientations, in D8 order.
    orientations: Vec<Orientation>,
    /// `perms[o*dim..(o+1)*dim]`: the pixel permutation of orientation
    /// `o`, so `c.transform(orientations[o]).cells()[i] == c.cells()[perm[i]]`.
    perms: Vec<usize>,
    /// For each cell of a centroid's own frame, its quadrant and its fine
    /// block, as indices into a [`SUMS`]-long block-sum table.
    cell_blocks: Vec<[u8; 2]>,
    /// Matching centroids, row-major, `dim` cells each, in their own frame.
    centroids: Vec<f64>,
    /// Block sums of each matching centroid over `cell_blocks`.
    centroid_sums: Vec<[f64; SUMS]>,
    slots: Vec<KernelSlot>,
}

impl CentroidRouter {
    /// Compiles `(centroid, admission threshold)` pairs into a router for
    /// queries of `nx × ny` cells.
    ///
    /// Kernels whose centroid dimensions differ from `nx × ny` are never
    /// density-admitted, mirroring the dimension guard in front of the
    /// naive search. For centroids that do match, only orientations
    /// preserving the dimensions are searched (all eight for square
    /// grids), exactly the set [`DensityGrid::distance`] searches.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero.
    pub fn compile<'a, I>(kernels: I, nx: usize, ny: usize) -> CentroidRouter
    where
        I: IntoIterator<Item = (&'a DensityGrid, f64)>,
    {
        assert!(nx > 0 && ny > 0, "router dimensions must be positive");
        let dim = nx * ny;
        let mut orientations = Vec::new();
        let mut perms = Vec::new();
        for o in D8 {
            let (shape, perm) = DensityGrid::transform_permutation(o, nx, ny);
            if shape == (nx, ny) {
                orientations.push(o);
                perms.extend(perm);
            }
        }
        // Each level partitions the cells, which is all its bound needs.
        // `x * k / n` also nests the fine blocks inside the quadrants
        // (⌊⌊4x/n⌋/2⌋ = ⌊2x/n⌋), so the fine bound is never the weaker
        // one; a side of fewer than 4 cells leaves some fine blocks empty.
        let cell_blocks = (0..dim)
            .map(|i| {
                let (x, y) = (i % nx, i / nx);
                let quad = (y * QUAD_SIDE / ny) * QUAD_SIDE + x * QUAD_SIDE / nx;
                let block = (y * BLOCK_SIDE / ny) * BLOCK_SIDE + x * BLOCK_SIDE / nx;
                [quad as u8, (QUADS + block) as u8]
            })
            .collect::<Vec<_>>();

        let mut centroids = Vec::new();
        let mut centroid_sums = Vec::new();
        let mut slots = Vec::new();
        for (centroid, threshold) in kernels {
            let mut slot = KernelSlot {
                centroid: None,
                threshold,
                mass: 0.0,
            };
            if (centroid.nx(), centroid.ny()) == (nx, ny) {
                let cells = centroid.cells();
                slot.mass = cells.iter().sum();
                slot.centroid = Some(centroid_sums.len());
                centroid_sums.push(block_sums(&cell_blocks, cells.iter().copied().enumerate()));
                centroids.extend_from_slice(cells);
            }
            slots.push(slot);
        }
        CentroidRouter {
            nx,
            ny,
            dim,
            orientations,
            perms,
            cell_blocks,
            centroids,
            centroid_sums,
            slots,
        }
    }

    /// Query grid width the router was compiled for.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Query grid height the router was compiled for.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Kernels the router was compiled with.
    pub fn kernel_count(&self) -> usize {
        self.slots.len()
    }

    /// Centroid-orientation rows a query is searched against: matching
    /// centroids × shape-preserving orientations.
    pub fn row_count(&self) -> usize {
        self.centroid_sums.len() * self.orientations.len()
    }

    /// Routes one query: fills `out` with the density-admitted kernels in
    /// compile order, each carrying the exact eq. (1) distance and arg-min
    /// orientation of the naive search, and accumulates counters into
    /// `stats`.
    ///
    /// Allocation-free once `out` has grown to the admitted high-water
    /// mark.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensions differ from the router's.
    pub fn route_into(
        &self,
        query: &DensityGrid,
        out: &mut Vec<Admission>,
        stats: &mut RouteStats,
    ) {
        assert_eq!(
            (query.nx(), query.ny()),
            (self.nx, self.ny),
            "query dimensions do not match the compiled router"
        );
        out.clear();
        stats.queries += 1;
        let q = query.cells();
        let q_mass: f64 = q.iter().sum();
        // The query's block sums in each orientation's centroid frame:
        // `c.transform(o)[i] = c[perm[i]]`, so cell `i` of the query meets
        // centroid cell `perm[i]` and joins that cell's blocks.
        let mut query_sums = [[0.0f64; SUMS]; D8.len()];
        for (sums, perm) in query_sums.iter_mut().zip(self.perms.chunks_exact(self.dim)) {
            *sums = block_sums(&self.cell_blocks, perm.iter().zip(q).map(|(&p, &x)| (p, x)));
        }
        let rows = self.orientations.len();

        for (kernel, slot) in self.slots.iter().enumerate() {
            let Some(idx) = slot.centroid else {
                continue;
            };
            stats.rows_considered += rows;
            let threshold = slot.threshold;
            // Mass gate: |Σx − Σc| lower-bounds the L1 distance at every
            // orientation, so one comparison discharges the whole kernel.
            if (q_mass - slot.mass).abs() > threshold * (1.0 + REL_SLACK) + ABS_SLACK {
                stats.mass_skips += rows;
                continue;
            }
            let c = &self.centroids[idx * self.dim..(idx + 1) * self.dim];
            let c_sums = &self.centroid_sums[idx];

            let mut best = f64::INFINITY;
            let mut best_orientation = None;
            for (r, perm) in self.perms.chunks_exact(self.dim).enumerate() {
                let bound = best.min(threshold);
                // Block-sum screens, coarse then fine: each is an L1 lower
                // bound, so a row clearing the slackened bound provably
                // exceeds it in the exact metric as well.
                let gate = bound * (1.0 + REL_SLACK) + ABS_SLACK;
                let q_sums = &query_sums[r];
                if abs_diff_sum(&q_sums[..QUADS], &c_sums[..QUADS]) > gate
                    || abs_diff_sum(&q_sums[QUADS..], &c_sums[QUADS..]) > gate
                {
                    stats.block_skips += 1;
                    continue;
                }
                // Exact L1 against the transformed centroid, in the
                // sequential order of `DensityGrid::l1_distance`
                // (bit-identical when it completes); partial sums are
                // monotone non-decreasing, so exceeding the bound at a
                // checkpoint is final.
                let mut acc = 0.0;
                let mut exited = false;
                for (qs, ps) in q.chunks(EXIT_CHECK).zip(perm.chunks(EXIT_CHECK)) {
                    for (&x, &p) in qs.iter().zip(ps) {
                        acc += (x - c[p]).abs();
                    }
                    if acc > bound {
                        exited = true;
                        break;
                    }
                }
                if exited {
                    stats.early_exits += 1;
                    continue;
                }
                stats.exact_passes += 1;
                if acc < best {
                    best = acc;
                    best_orientation = Some(self.orientations[r]);
                }
            }
            if best <= threshold {
                stats.admitted += 1;
                out.push(Admission {
                    kernel,
                    distance: best,
                    orientation: best_orientation.expect("admitted kernel has a best row"),
                });
            }
        }
    }

    /// [`route_into`](Self::route_into) into a fresh vector, for one-off
    /// queries and tests.
    pub fn route(&self, query: &DensityGrid) -> (Vec<Admission>, RouteStats) {
        let mut out = Vec::new();
        let mut stats = RouteStats::default();
        self.route_into(query, &mut out, &mut stats);
        (out, stats)
    }
}

/// Sums `(cell, value)` pairs into the quadrant and fine block of each
/// cell, as `cell_blocks` assigns them.
fn block_sums(cell_blocks: &[[u8; 2]], cells: impl Iterator<Item = (usize, f64)>) -> [f64; SUMS] {
    let mut sums = [0.0; SUMS];
    for (cell, value) in cells {
        let [quad, block] = cell_blocks[cell];
        sums[quad as usize] += value;
        sums[block as usize] += value;
    }
    sums
}

/// `Σ |a_k − b_k|`: the block-sum lower bound of the L1 distance.
fn abs_diff_sum(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::Rect;

    fn grid_from(cells: Vec<f64>, n: usize) -> DensityGrid {
        DensityGrid::from_cells(n, n, cells)
    }

    /// The naive per-kernel admission the router must reproduce exactly.
    fn naive(
        query: &DensityGrid,
        kernels: &[(DensityGrid, f64)],
    ) -> Vec<(usize, f64, Orientation)> {
        let mut out = Vec::new();
        for (idx, (centroid, threshold)) in kernels.iter().enumerate() {
            if (query.nx(), query.ny()) != (centroid.nx(), centroid.ny()) {
                continue;
            }
            let d = query.distance(centroid);
            if d.distance <= *threshold {
                out.push((idx, d.distance, d.orientation));
            }
        }
        out
    }

    fn check_equivalence(query: &DensityGrid, kernels: &[(DensityGrid, f64)]) {
        let router =
            CentroidRouter::compile(kernels.iter().map(|(c, t)| (c, *t)), query.nx(), query.ny());
        let (admissions, stats) = router.route(query);
        let expected = naive(query, kernels);
        let got: Vec<(usize, f64, Orientation)> = admissions
            .iter()
            .map(|a| (a.kernel, a.distance, a.orientation))
            .collect();
        assert_eq!(got, expected, "router disagrees with the naive search");
        assert_eq!(stats.admitted, expected.len());
    }

    fn ramp(n: usize, scale: f64) -> DensityGrid {
        let cells = (0..n * n).map(|i| (i as f64 * scale) % 1.0).collect();
        grid_from(cells, n)
    }

    #[test]
    fn identical_grid_admits_at_zero_distance() {
        let g = ramp(8, 0.13);
        let router = CentroidRouter::compile([(&g, 0.5)], 8, 8);
        let (adm, stats) = router.route(&g);
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].kernel, 0);
        assert_eq!(adm[0].distance, 0.0);
        assert_eq!(adm[0].orientation, D8[0]);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.rows_considered, 8);
    }

    #[test]
    fn transformed_copies_admit_with_matching_orientation() {
        let window = Rect::from_extents(0, 0, 120, 120);
        let rects = [
            Rect::from_extents(0, 0, 30, 120),
            Rect::from_extents(60, 0, 120, 30),
        ];
        let g = DensityGrid::from_rects(&window, &rects, 6, 6);
        for o in D8 {
            let t = g.transform(o);
            check_equivalence(&g, &[(t, 0.25)]);
        }
    }

    #[test]
    fn far_grids_are_rejected_and_mass_gated() {
        let zeros = grid_from(vec![0.0; 64], 8);
        let ones = grid_from(vec![1.0; 64], 8);
        let router = CentroidRouter::compile([(&ones, 1.0)], 8, 8);
        let (adm, stats) = router.route(&zeros);
        assert!(adm.is_empty());
        // |Σx − Σc| = 64 > 1, so the mass gate discharges all 8 rows.
        assert_eq!(stats.mass_skips, 8);
        assert_eq!(stats.exact_passes, 0);
    }

    #[test]
    fn dimension_mismatched_kernels_get_no_rows() {
        let q = ramp(8, 0.21);
        let small = ramp(4, 0.21);
        let router = CentroidRouter::compile([(&small, 100.0), (&q, 100.0)], 8, 8);
        assert_eq!(router.kernel_count(), 2);
        assert_eq!(router.row_count(), 8);
        let (adm, _) = router.route(&q);
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].kernel, 1);
    }

    #[test]
    fn non_square_grids_search_only_aligned_orientations() {
        let q = DensityGrid::from_cells(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let c = DensityGrid::from_cells(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.7]);
        let router = CentroidRouter::compile([(&c, 10.0)], 3, 2);
        // Odd rotations of a 3×2 grid are 2×3 and must be excluded.
        assert_eq!(router.row_count(), 4);
        check_equivalence(&q, &[(c, 10.0)]);
    }

    #[test]
    fn huge_ablation_threshold_never_overflows_the_screen() {
        let q = ramp(8, 0.41);
        let c = ramp(8, 0.29);
        // Admission thresholds come from model files, which are outside
        // input: a huge one must keep the slackened screening bound
        // finite and prune nothing, not overflow into a rejection.
        let threshold = f64::MAX / 4.0 * 1.5;
        let router = CentroidRouter::compile([(&c, threshold)], 8, 8);
        let (adm, stats) = router.route(&q);
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].distance, q.distance(&c).distance);
        assert_eq!(adm[0].orientation, q.distance(&c).orientation);
        assert_eq!(stats.mass_skips, 0);
        assert_eq!(stats.block_skips, 0);
    }

    #[test]
    fn tie_break_is_first_orientation_in_d8_order() {
        // A fully symmetric grid ties at every orientation; the arg-min
        // must be the first D8 element, as the naive search returns.
        let q = grid_from(vec![0.5; 16], 4);
        let c = grid_from(vec![0.25; 16], 4);
        let router = CentroidRouter::compile([(&c, 10.0)], 4, 4);
        let (adm, _) = router.route(&q);
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].orientation, D8[0]);
        assert_eq!(adm[0].distance, q.distance(&c).distance);
    }

    #[test]
    fn threshold_boundary_is_inclusive() {
        let q = grid_from(vec![0.0; 4], 2);
        let c = grid_from(vec![0.25; 4], 2);
        // Exact distance is 1.0 at every orientation.
        check_equivalence(&q, &[(c.clone(), 1.0)]);
        let router = CentroidRouter::compile([(&c, 1.0)], 2, 2);
        let (adm, _) = router.route(&q);
        assert_eq!(adm.len(), 1, "<= threshold must admit");
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = RouteStats {
            queries: 1,
            admitted: 2,
            rows_considered: 16,
            mass_skips: 3,
            block_skips: 4,
            exact_passes: 5,
            early_exits: 2,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.queries, 2);
        assert_eq!(a.rows_considered, 32);
        assert_eq!(a.rows_pruned(), 18);
    }

    #[test]
    fn multi_kernel_admission_matches_naive() {
        let window = Rect::from_extents(0, 0, 120, 120);
        let q = DensityGrid::from_rects(&window, &[Rect::from_extents(0, 0, 60, 120)], 8, 8);
        let kernels: Vec<(DensityGrid, f64)> = (0..6)
            .map(|i| {
                let r = Rect::from_extents(0, 0, 15 * (i + 1), 120);
                let g = DensityGrid::from_rects(&window, &[r], 8, 8);
                (g, 0.5 + 0.5 * i as f64)
            })
            .collect();
        check_equivalence(&q, &kernels);
    }
}

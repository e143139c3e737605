//! Pixelated polygon-density grids and the orientation-minimised distance of
//! eq. (1) in the paper.
//!
//! A core pattern is pixelated into an `n × n` grid; each pixel stores the
//! fraction of its area covered by polygons. The distance between two
//! patterns is the minimum over the eight orientations of the summed
//! per-pixel density difference:
//!
//! ```text
//! ρ(p_i, p_j) = min_{τ ∈ D8}  Σ_k | d_k(p_i) − d_k(τ(p_j)) |      (1)
//! ```

use crate::{Coord, Orientation, Rect, D8};
use serde::{Deserialize, Serialize};

/// A pixelated density image of a pattern window.
///
/// ```
/// use hotspot_geom::{DensityGrid, Rect};
/// let window = Rect::from_extents(0, 0, 100, 100);
/// let rects = [Rect::from_extents(0, 0, 50, 100)];
/// let g = DensityGrid::from_rects(&window, &rects, 2, 2);
/// // Left half fully covered, right half empty.
/// assert_eq!(g.cells(), &[1.0, 0.0, 1.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityGrid {
    nx: usize,
    ny: usize,
    cells: Vec<f64>, // row-major, row 0 at the bottom
}

/// Result of the eq. (1) distance: the minimising orientation and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityDistance {
    /// Summed per-pixel absolute density difference at the best orientation.
    pub distance: f64,
    /// Orientation of the second operand that minimises the distance.
    pub orientation: Orientation,
}

/// The empty `0 × 0` grid — a scratch placeholder for in-place
/// rasterisation ([`crate::AreaTableGrid::rasterize_into`]).
impl Default for DensityGrid {
    fn default() -> Self {
        DensityGrid {
            nx: 0,
            ny: 0,
            cells: Vec::new(),
        }
    }
}

impl DensityGrid {
    /// Rasterises `rects` (clipped to `window`) into an `nx × ny` grid of
    /// coverage fractions.
    ///
    /// Coverage is accumulated as an exact integer area per cell (nm², in
    /// `i64`) and divided by the cell area exactly once at the end, so the
    /// result is independent of the order of `rects` — integer addition
    /// commutes, unlike the f64 fraction sum it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero or the window is empty.
    pub fn from_rects(window: &Rect, rects: &[Rect], nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        assert!(!window.is_empty(), "window must be non-empty");
        let mut covered = vec![0i64; nx * ny];
        let w = window.width();
        let h = window.height();
        for r in rects {
            let Some(clipped) = r.intersection(window) else {
                continue;
            };
            // Local coordinates inside the window.
            let local = clipped.translate(-window.min());
            // Pixel index ranges the rectangle touches.
            let px0 = (local.min().x * nx as Coord / w).clamp(0, nx as Coord - 1) as usize;
            let px1 = ((local.max().x * nx as Coord + w - 1) / w).clamp(1, nx as Coord) as usize;
            let py0 = (local.min().y * ny as Coord / h).clamp(0, ny as Coord - 1) as usize;
            let py1 = ((local.max().y * ny as Coord + h - 1) / h).clamp(1, ny as Coord) as usize;
            for py in py0..py1 {
                for px in px0..px1 {
                    let cell = pixel_rect(w, h, nx, ny, px, py);
                    let ov = cell.overlap_area(&local);
                    if ov > 0 {
                        // Saturating keeps overlapping pathological inputs
                        // order-independent: min(true sum, i64::MAX) no
                        // matter the accumulation order.
                        let c = &mut covered[py * nx + px];
                        *c = c.saturating_add(ov);
                    }
                }
            }
        }
        // One f64 division per cell; overlapping input rects may push the
        // integer sum above the cell area, so clamp first.
        let cells = covered
            .iter()
            .enumerate()
            .map(|(idx, &cov)| {
                let cell = pixel_rect(w, h, nx, ny, idx % nx, idx / nx);
                let area = cell.area();
                if area == 0 {
                    0.0
                } else {
                    cov.min(area) as f64 / area as f64
                }
            })
            .collect();
        DensityGrid { nx, ny, cells }
    }

    /// Reshapes the grid to `nx × ny` with all cells zero, reusing the
    /// backing allocation, and returns the cell buffer (row-major, bottom
    /// row first) for in-place rasterisation.
    pub(crate) fn reset_for(&mut self, nx: usize, ny: usize) -> &mut [f64] {
        self.nx = nx;
        self.ny = ny;
        // Contents are not zeroed: the rasterisation kernel writes every
        // cell.
        if self.cells.len() != nx * ny {
            self.cells.clear();
            self.cells.resize(nx * ny, 0.0);
        }
        &mut self.cells
    }

    /// Builds a grid directly from cell values (row-major, bottom row first).
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != nx * ny`.
    pub fn from_cells(nx: usize, ny: usize, cells: Vec<f64>) -> Self {
        assert_eq!(cells.len(), nx * ny, "cell count mismatch");
        DensityGrid { nx, ny, cells }
    }

    /// Grid width in pixels.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in pixels.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Raw cell values (row-major, bottom row first).
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Density at pixel `(px, py)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of range.
    pub fn at(&self, px: usize, py: usize) -> f64 {
        assert!(px < self.nx && py < self.ny, "pixel out of range");
        self.cells[py * self.nx + px]
    }

    /// Mean density over the whole grid (the "polygon density"
    /// nontopological feature).
    pub fn mean(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().sum::<f64>() / self.cells.len() as f64
    }

    /// Returns the grid transformed by `orientation` (pixels permuted; no
    /// re-rasterisation error).
    pub fn transform(&self, orientation: Orientation) -> DensityGrid {
        let mut out = DensityGrid {
            nx: 0,
            ny: 0,
            cells: Vec::new(),
        };
        self.transform_into(orientation, &mut out);
        out
    }

    /// [`DensityGrid::transform`] into a caller-owned scratch grid, reusing
    /// its allocation. Lets the eq. (1) 8-orientation loop permute pixels
    /// without allocating a fresh `Vec` per orientation per comparison.
    pub fn transform_into(&self, orientation: Orientation, out: &mut DensityGrid) {
        let (tnx, tny) = if orientation.rotation_steps() % 2 == 1 {
            (self.ny, self.nx)
        } else {
            (self.nx, self.ny)
        };
        out.nx = tnx;
        out.ny = tny;
        out.cells.clear();
        out.cells.resize(self.cells.len(), 0.0);
        for py in 0..self.ny {
            for px in 0..self.nx {
                let (tx, ty) = transform_pixel(orientation, px, py, self.nx, self.ny);
                out.cells[ty * tnx + tx] = self.cells[py * self.nx + px];
            }
        }
    }

    /// The pixel permutation behind [`DensityGrid::transform`] for an
    /// `nx × ny` grid: the transformed shape and `perm` with
    /// `g.transform(orientation).cells()[k] == g.cells()[perm[k]]` for
    /// every `k`. A caller comparing many grids of one shape builds it
    /// once instead of materialising a transformed grid per comparison.
    pub fn transform_permutation(
        orientation: Orientation,
        nx: usize,
        ny: usize,
    ) -> ((usize, usize), Vec<usize>) {
        let (tnx, tny) = if orientation.rotation_steps() % 2 == 1 {
            (ny, nx)
        } else {
            (nx, ny)
        };
        let mut perm = vec![0; nx * ny];
        for py in 0..ny {
            for px in 0..nx {
                let (tx, ty) = transform_pixel(orientation, px, py, nx, ny);
                perm[ty * tnx + tx] = py * nx + px;
            }
        }
        ((tnx, tny), perm)
    }

    /// Plain L1 distance without orientation search.
    ///
    /// # Panics
    ///
    /// Panics if grid dimensions differ.
    pub fn l1_distance(&self, other: &DensityGrid) -> f64 {
        assert_eq!(
            (self.nx, self.ny),
            (other.nx, other.ny),
            "grid dimension mismatch"
        );
        self.cells
            .iter()
            .zip(&other.cells)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// The eq. (1) distance: L1 minimised over the eight orientations of
    /// `other`.
    ///
    /// # Panics
    ///
    /// Panics if the grids cannot be aligned in any orientation (dimension
    /// mismatch in every element of D8).
    pub fn distance(&self, other: &DensityGrid) -> DensityDistance {
        let mut scratch = DensityGrid {
            nx: 0,
            ny: 0,
            cells: Vec::with_capacity(other.cells.len()),
        };
        let mut best: Option<DensityDistance> = None;
        for o in D8 {
            other.transform_into(o, &mut scratch);
            if (scratch.nx, scratch.ny) != (self.nx, self.ny) {
                continue;
            }
            let d = self.l1_distance(&scratch);
            if best.is_none_or(|b| d < b.distance) {
                best = Some(DensityDistance {
                    distance: d,
                    orientation: o,
                });
            }
        }
        best.expect("grids cannot be aligned in any orientation")
    }

    /// Element-wise running mean: `self = (self * n + other) / (n + 1)`.
    ///
    /// Used to recompute a cluster centroid when a pattern joins the cluster.
    ///
    /// # Panics
    ///
    /// Panics if grid dimensions differ.
    pub fn fold_mean(&mut self, other: &DensityGrid, n: usize) {
        assert_eq!(
            (self.nx, self.ny),
            (other.nx, other.ny),
            "grid dimension mismatch"
        );
        let n = n as f64;
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a = (*a * n + *b) / (n + 1.0);
        }
    }
}

/// The rectangle covered by pixel `(px, py)` in window-local coordinates.
///
/// Uses exact integer boundaries `floor(k·w/n)` so pixel areas tile the
/// window without gaps regardless of divisibility.
fn pixel_rect(w: Coord, h: Coord, nx: usize, ny: usize, px: usize, py: usize) -> Rect {
    let x0 = px as Coord * w / nx as Coord;
    let x1 = (px as Coord + 1) * w / nx as Coord;
    let y0 = py as Coord * h / ny as Coord;
    let y1 = (py as Coord + 1) * h / ny as Coord;
    Rect::from_extents(x0, y0, x1, y1)
}

/// Maps a pixel index through an orientation (mirror first, then rotations).
fn transform_pixel(
    orientation: Orientation,
    px: usize,
    py: usize,
    nx: usize,
    ny: usize,
) -> (usize, usize) {
    let (mut x, mut y) = (px, py);
    let (mut cw, mut ch) = (nx, ny);
    if orientation.is_mirrored() {
        x = cw - 1 - x;
    }
    for _ in 0..orientation.rotation_steps() {
        // 90° ccw for pixel indices: (x, y) -> (ch - 1 - y, x).
        let nx2 = ch - 1 - y;
        let ny2 = x;
        x = nx2;
        y = ny2;
        std::mem::swap(&mut cw, &mut ch);
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn window() -> Rect {
        Rect::from_extents(0, 0, 120, 120)
    }

    #[test]
    fn full_coverage_is_all_ones() {
        let g = DensityGrid::from_rects(&window(), &[window()], 4, 4);
        assert!(g.cells().iter().all(|&c| (c - 1.0).abs() < 1e-12));
        assert!((g.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_all_zeros() {
        let g = DensityGrid::from_rects(&window(), &[], 4, 4);
        assert!(g.cells().iter().all(|&c| c == 0.0));
    }

    #[test]
    fn partial_pixel_coverage_is_fractional() {
        // Cover the left half of a 1-pixel grid.
        let g = DensityGrid::from_rects(&window(), &[Rect::from_extents(0, 0, 60, 120)], 1, 1);
        assert!((g.at(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_rects_clamp_to_one() {
        let r = Rect::from_extents(0, 0, 120, 120);
        let g = DensityGrid::from_rects(&window(), &[r, r], 2, 2);
        assert!(g.cells().iter().all(|&c| c <= 1.0));
    }

    #[test]
    fn rects_outside_window_are_clipped() {
        let g =
            DensityGrid::from_rects(&window(), &[Rect::from_extents(-100, -100, -10, -10)], 4, 4);
        assert_eq!(g.mean(), 0.0);
    }

    #[test]
    fn uneven_grid_division_tiles_exactly() {
        // 120 / 7 is not integral; pixel areas must still sum to the window.
        let total: i64 = (0..7)
            .flat_map(|py| (0..7).map(move |px| pixel_rect(120, 120, 7, 7, px, py).area()))
            .sum();
        assert_eq!(total, 120 * 120);
    }

    #[test]
    fn transform_preserves_mass() {
        let rects = [
            Rect::from_extents(0, 0, 30, 120),
            Rect::from_extents(60, 60, 90, 90),
        ];
        let g = DensityGrid::from_rects(&window(), &rects, 6, 6);
        for o in D8 {
            let t = g.transform(o);
            assert!((t.mean() - g.mean()).abs() < 1e-12, "{o}");
        }
    }

    #[test]
    fn transform_matches_geometric_rasterisation() {
        // Rasterising transformed geometry must equal transforming the grid.
        let rects = [
            Rect::from_extents(0, 0, 30, 120),
            Rect::from_extents(60, 0, 120, 30),
        ];
        let g = DensityGrid::from_rects(&window(), &rects, 4, 4);
        for o in D8 {
            let trects = o.apply_rects(&rects, 120, 120);
            let direct = DensityGrid::from_rects(&window(), &trects, 4, 4);
            let permuted = g.transform(o);
            assert!(
                direct.l1_distance(&permuted) < 1e-9,
                "{o}: {direct:?} vs {permuted:?}"
            );
        }
    }

    #[test]
    fn transform_permutation_gathers_the_transformed_grid() {
        // Non-square, so the quarter turns change the shape.
        let g = DensityGrid::from_cells(3, 2, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        for o in D8 {
            let t = g.transform(o);
            let (shape, perm) = DensityGrid::transform_permutation(o, 3, 2);
            assert_eq!(shape, (t.nx(), t.ny()), "{o}");
            let gathered: Vec<f64> = perm.iter().map(|&p| g.cells()[p]).collect();
            assert_eq!(gathered, t.cells(), "{o}");
        }
    }

    #[test]
    fn distance_of_rotated_copy_is_zero() {
        let rects = [
            Rect::from_extents(0, 0, 30, 120),
            Rect::from_extents(60, 0, 120, 30),
        ];
        let g = DensityGrid::from_rects(&window(), &rects, 6, 6);
        for o in D8 {
            let trects = o.apply_rects(&rects, 120, 120);
            let t = DensityGrid::from_rects(&window(), &trects, 6, 6);
            let d = g.distance(&t);
            assert!(d.distance < 1e-9, "{o}: distance {}", d.distance);
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let a = DensityGrid::from_rects(&window(), &[Rect::from_extents(0, 0, 40, 120)], 5, 5);
        let b = DensityGrid::from_rects(&window(), &[Rect::from_extents(0, 0, 120, 40)], 5, 5);
        let dab = a.distance(&b).distance;
        let dba = b.distance(&a).distance;
        assert!((dab - dba).abs() < 1e-9);
    }

    #[test]
    fn distinct_patterns_have_positive_distance() {
        let a = DensityGrid::from_rects(&window(), &[Rect::from_extents(0, 0, 40, 40)], 5, 5);
        let b = DensityGrid::from_rects(&window(), &[window()], 5, 5);
        assert!(a.distance(&b).distance > 1.0);
    }

    #[test]
    fn fold_mean_averages() {
        let mut a = DensityGrid::from_cells(1, 2, vec![0.0, 1.0]);
        let b = DensityGrid::from_cells(1, 2, vec![1.0, 0.0]);
        a.fold_mean(&b, 1);
        assert_eq!(a.cells(), &[0.5, 0.5]);
    }

    #[test]
    fn shifted_window_rasterises_in_local_coords() {
        let win = Rect::from_extents(1000, 2000, 1120, 2120);
        let rect = Rect::from_extents(1000, 2000, 1060, 2120);
        let g = DensityGrid::from_rects(&win, &[rect], 2, 1);
        assert!((g.at(0, 0) - 1.0).abs() < 1e-12);
        assert_eq!(g.at(1, 0), 0.0);
        let _ = Point::ORIGIN; // silence unused import in some cfgs
    }
}

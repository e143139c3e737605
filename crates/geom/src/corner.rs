//! Corner and touch-point analysis of rectangle unions.
//!
//! Two of the paper's nontopological features (Fig. 7(e)) are the number of
//! corners (convex plus concave) and the number of touched points of the
//! pattern inside a clip. Both are properties of the *union* of the
//! pattern's rectangles, computed here by classifying the four cells
//! around every vertex of the pattern's compressed grid ([`CoverGrid`]).

use crate::{CoverGrid, Rect};
use serde::{Deserialize, Serialize};

/// Classification of a single vertex of a rectangle union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CornerKind {
    /// Exactly one quadrant covered: a convex (outward) corner.
    Convex,
    /// Exactly three quadrants covered: a concave (inward) corner.
    Concave,
    /// Two diagonally opposite quadrants covered: two polygons touching at a
    /// point.
    TouchPoint,
    /// Not a corner (0, 2-adjacent, or 4 quadrants covered).
    None,
}

/// Counts of the corner kinds over a rectangle union.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CornerSummary {
    /// Convex corner count.
    pub convex: usize,
    /// Concave corner count.
    pub concave: usize,
    /// Point-touch count.
    pub touch_points: usize,
}

impl CornerSummary {
    /// Analyses the union of `rects`.
    ///
    /// ```
    /// use hotspot_geom::{CornerSummary, Rect};
    /// let s = CornerSummary::of(&[Rect::from_extents(0, 0, 10, 10)]);
    /// assert_eq!(s.convex, 4);
    /// assert_eq!(s.concave, 0);
    /// ```
    pub fn of(rects: &[Rect]) -> CornerSummary {
        CornerSummary::of_grid(&CoverGrid::new(None, rects))
    }

    /// Analyses the union of the rectangles a grid was built from.
    ///
    /// Corners of the union can appear wherever edges cross, not only at
    /// input-rectangle corners (e.g. the concave corners of a plus shape
    /// formed by two crossing bars), so every grid vertex is classified by
    /// its four neighbouring cells. A vertex off the rectangles' own edges
    /// (say on a frame line) has pairwise-equal quadrants and is never a
    /// corner, so extra grid lines do not change the counts.
    pub fn of_grid(grid: &CoverGrid) -> CornerSummary {
        let (nx, ny) = (grid.columns(), grid.rows());
        // Cells outside the grid are empty; `wrapping_sub` turns index -1
        // into a value the bounds test rejects.
        let cell = |i: usize, j: usize| i < nx && j < ny && grid.cell(i, j);
        let mut summary = CornerSummary::default();
        for l in 0..=ny {
            for k in 0..=nx {
                let (k0, l0) = (k.wrapping_sub(1), l.wrapping_sub(1));
                match classify(cell(k, l), cell(k0, l), cell(k0, l0), cell(k, l0)) {
                    CornerKind::Convex => summary.convex += 1,
                    CornerKind::Concave => summary.concave += 1,
                    CornerKind::TouchPoint => summary.touch_points += 1,
                    CornerKind::None => {}
                }
            }
        }
        summary
    }

    /// Convex plus concave corner count (nontopological feature 1).
    pub fn total_corners(&self) -> usize {
        self.convex + self.concave
    }
}

/// Classifies a vertex by the occupancy of its four quadrants.
fn classify(ne: bool, nw: bool, sw: bool, se: bool) -> CornerKind {
    match (ne as u8) + (nw as u8) + (sw as u8) + (se as u8) {
        1 => CornerKind::Convex,
        3 => CornerKind::Concave,
        2 => {
            if (ne && sw) || (nw && se) {
                CornerKind::TouchPoint
            } else {
                CornerKind::None // edge midpoint
            }
        }
        _ => CornerKind::None,
    }
}

/// Convex plus concave corner count of a rectangle union.
///
/// See [`CornerSummary::of`] for the underlying analysis.
pub fn corner_count(rects: &[Rect]) -> usize {
    CornerSummary::of(rects).total_corners()
}

/// Number of point touches (two polygons meeting at exactly one point).
pub fn touch_point_count(rects: &[Rect]) -> usize {
    CornerSummary::of(rects).touch_points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::from_extents(x0, y0, x1, y1)
    }

    #[test]
    fn single_rect_has_four_convex_corners() {
        let s = CornerSummary::of(&[r(0, 0, 10, 10)]);
        assert_eq!(s.convex, 4);
        assert_eq!(s.concave, 0);
        assert_eq!(s.touch_points, 0);
        assert_eq!(s.total_corners(), 4);
    }

    #[test]
    fn l_shape_has_five_convex_one_concave() {
        // Two rects forming an L.
        let s = CornerSummary::of(&[r(0, 0, 30, 10), r(0, 10, 10, 30)]);
        assert_eq!(s.convex, 5);
        assert_eq!(s.concave, 1);
        assert_eq!(s.total_corners(), 6);
    }

    #[test]
    fn abutting_rects_merge_edges() {
        // Two rects side by side form one rectangle: 4 corners only.
        let s = CornerSummary::of(&[r(0, 0, 10, 10), r(10, 0, 20, 10)]);
        assert_eq!(s.convex, 4);
        assert_eq!(s.concave, 0);
    }

    #[test]
    fn diagonal_touch_is_a_touch_point() {
        let s = CornerSummary::of(&[r(0, 0, 10, 10), r(10, 10, 20, 20)]);
        assert_eq!(s.touch_points, 1);
        assert_eq!(s.convex, 6); // 3 outer corners each
    }

    #[test]
    fn plus_shape_has_concave_corners() {
        // A plus sign: horizontal bar + vertical bar crossing it.
        let s = CornerSummary::of(&[r(0, 10, 30, 20), r(10, 0, 20, 30)]);
        assert_eq!(s.convex, 8);
        assert_eq!(s.concave, 4);
    }

    #[test]
    fn overlapping_duplicates_do_not_inflate_counts() {
        let a = r(0, 0, 10, 10);
        let s = CornerSummary::of(&[a, a, a]);
        assert_eq!(s.convex, 4);
    }

    #[test]
    fn empty_input_and_empty_rects() {
        assert_eq!(CornerSummary::of(&[]), CornerSummary::default());
        assert_eq!(
            CornerSummary::of(&[r(5, 5, 5, 9)]),
            CornerSummary::default()
        );
    }

    #[test]
    fn helper_functions_agree_with_summary() {
        let rects = [r(0, 0, 30, 10), r(0, 10, 10, 30)];
        assert_eq!(corner_count(&rects), 6);
        assert_eq!(touch_point_count(&rects), 0);
    }
}

//! Compressed occupancy grid of a rectangle set.
//!
//! The sorted distinct x and y edges of a rectangle set cut the plane into
//! a grid whose cells are each either fully covered or fully empty, so
//! every union-level question (corners, tilings, strict overlaps with
//! grid-aligned rectangles) can be answered from the cells alone.
//!
//! The grid is stored *doubled*: along each axis, even index `2k` is the
//! grid line at `xs[k]` and odd index `2i + 1` is the open span between
//! `xs[i]` and `xs[i + 1]`. A rectangle covers the doubled positions of its
//! interior — on an axis where it has zero extent, the one line it lies on.
//! Cells, edge segments and vertices thus each carry a coverage bit, and
//! zero-width or zero-height rectangles are represented too. Coverage is
//! built with a 2D difference array, so construction is
//! `O(n log n + |xs|·|ys|)` for `n` rectangles, however much they overlap.

use crate::{Coord, Rect};

/// Coverage of the compressed grid induced by a rectangle set.
///
/// ```
/// use hotspot_geom::{CoverGrid, Rect};
///
/// let window = Rect::from_extents(0, 0, 100, 100);
/// let g = CoverGrid::new(Some(&window), &[Rect::from_extents(40, 40, 60, 60)]);
/// assert_eq!(g.xs(), &[0, 40, 60, 100]);
/// assert!(g.cell(1, 1) && !g.cell(0, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoverGrid {
    xs: Vec<Coord>,
    ys: Vec<Coord>,
    /// Coverage depth per doubled position, row-major by doubled y.
    depth: Vec<i32>,
}

impl CoverGrid {
    /// The grid of `rects`. With a `frame`, every rectangle is first clipped
    /// to it ([`Rect::intersection`], which drops rectangles sharing no
    /// interior with the frame) and the frame's edges become grid lines.
    pub fn new(frame: Option<&Rect>, rects: &[Rect]) -> CoverGrid {
        let mut grid = CoverGrid::default();
        grid.rebuild(frame, rects);
        grid
    }

    /// Rebuilds the grid in place, reusing its buffers (see [`new`](Self::new)).
    pub fn rebuild(&mut self, frame: Option<&Rect>, rects: &[Rect]) {
        let clip = |r: &Rect| match frame {
            Some(f) => r.intersection(f),
            None => Some(*r),
        };
        self.xs.clear();
        self.ys.clear();
        for r in frame
            .into_iter()
            .copied()
            .chain(rects.iter().filter_map(clip))
        {
            self.xs.extend([r.min().x, r.max().x]);
            self.ys.extend([r.min().y, r.max().y]);
        }
        for v in [&mut self.xs, &mut self.ys] {
            v.sort_unstable();
            v.dedup();
        }

        let (w, h) = (self.doubled_width(), self.doubled_height());
        self.depth.clear();
        self.depth.resize(w * h, 0);
        for r in rects.iter().filter_map(clip) {
            let (x0, x1) = doubled_span(&self.xs, r.min().x, r.max().x);
            let (y0, y1) = doubled_span(&self.ys, r.min().y, r.max().y);
            self.depth[y0 * w + x0] += 1;
            if x1 + 1 < w {
                self.depth[y0 * w + x1 + 1] -= 1;
            }
            if y1 + 1 < h {
                self.depth[(y1 + 1) * w + x0] -= 1;
                if x1 + 1 < w {
                    self.depth[(y1 + 1) * w + x1 + 1] += 1;
                }
            }
        }
        for row in self.depth.chunks_exact_mut(w.max(1)) {
            for x in 1..row.len() {
                row[x] += row[x - 1];
            }
        }
        for i in w..self.depth.len() {
            self.depth[i] += self.depth[i - w];
        }
    }

    /// The sorted distinct x grid lines.
    pub fn xs(&self) -> &[Coord] {
        &self.xs
    }

    /// The sorted distinct y grid lines.
    pub fn ys(&self) -> &[Coord] {
        &self.ys
    }

    /// Number of cell columns (`xs().len() - 1`, or 0 for an empty grid).
    pub fn columns(&self) -> usize {
        self.xs.len().saturating_sub(1)
    }

    /// Number of cell rows.
    pub fn rows(&self) -> usize {
        self.ys.len().saturating_sub(1)
    }

    /// Whether some rectangle covers doubled position `(x, y)`, for
    /// `x <= 2 * columns()` and `y <= 2 * rows()`.
    pub fn covers(&self, x: usize, y: usize) -> bool {
        let w = self.doubled_width();
        debug_assert!(x < w, "doubled x {x} outside the grid");
        self.depth[y * w + x] > 0
    }

    /// Whether cell `(i, j)` (between `xs[i]..xs[i + 1]` and
    /// `ys[j]..ys[j + 1]`) is covered.
    pub fn cell(&self, i: usize, j: usize) -> bool {
        self.covers(2 * i + 1, 2 * j + 1)
    }

    fn doubled_width(&self) -> usize {
        (2 * self.xs.len()).saturating_sub(1)
    }

    fn doubled_height(&self) -> usize {
        (2 * self.ys.len()).saturating_sub(1)
    }
}

/// The doubled positions of the extent `lo..hi` over grid `lines`: the open
/// spans and interior lines in between, or the one line of a zero extent.
fn doubled_span(lines: &[Coord], lo: Coord, hi: Coord) -> (usize, usize) {
    let index = |v: Coord| lines.partition_point(|&l| l < v);
    let (a, b) = (index(lo), index(hi));
    if a < b {
        (2 * a + 1, 2 * b - 1)
    } else {
        (2 * a, 2 * a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::from_extents(x0, y0, x1, y1)
    }

    #[test]
    fn empty_input_is_an_empty_grid() {
        let g = CoverGrid::new(None, &[]);
        assert_eq!((g.columns(), g.rows()), (0, 0));
    }

    #[test]
    fn overlapping_rects_cover_their_union() {
        let g = CoverGrid::new(None, &[r(0, 0, 20, 10), r(10, 0, 30, 10), r(10, 0, 30, 10)]);
        assert_eq!(g.xs(), &[0, 10, 20, 30]);
        assert!((0..3).all(|i| g.cell(i, 0)));
        // The interior line at x = 10 is covered, the outer edges are not.
        assert!(g.covers(2, 1) && !g.covers(0, 1) && !g.covers(6, 1));
    }

    #[test]
    fn frame_clips_and_adds_grid_lines() {
        let frame = r(0, 0, 100, 50);
        let g = CoverGrid::new(Some(&frame), &[r(-20, 10, 30, 80), r(200, 0, 300, 10)]);
        assert_eq!(g.xs(), &[0, 30, 100]);
        assert_eq!(g.ys(), &[0, 10, 50]);
        assert!(g.cell(0, 1) && !g.cell(0, 0) && !g.cell(1, 1));
    }

    #[test]
    fn zero_width_rect_covers_only_its_line() {
        let frame = r(0, 0, 100, 100);
        let g = CoverGrid::new(Some(&frame), &[r(40, 20, 40, 60)]);
        assert_eq!(g.xs(), &[0, 40, 100]);
        assert_eq!(g.ys(), &[0, 20, 60, 100]);
        assert!(g.covers(2, 3));
        assert!(!g.cell(0, 1) && !g.cell(1, 1));
        assert!(!g.covers(2, 1) && !g.covers(2, 5));
    }
}

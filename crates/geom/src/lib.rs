//! Integer-nanometre rectilinear geometry substrate for lithography hotspot
//! detection.
//!
//! This crate provides the low-level geometric machinery that the rest of the
//! hotspot-detection workspace is built on:
//!
//! - [`Point`] and [`Rect`] in integer nanometres ([`Coord`]),
//! - rectilinear [`Polygon`]s with horizontal dissection into rectangles
//!   (the polygon dissection of Fig. 11(a) in the paper),
//! - the [`Orientation`] group `D8` (four rotations × two mirrors) used by
//!   topological classification and the density distance of eq. (1),
//! - pixelated [`DensityGrid`]s with the orientation-minimised L1 distance,
//! - exact integer summed-area tables ([`AreaTable`]) over rect soups,
//!   the shared-per-tile fast path for density rasterisation ([`RasterMode`]),
//! - the compressed occupancy grid of a rect set ([`CoverGrid`]) and the
//!   corner/touch analysis over it used by the nontopological features
//!   (Fig. 7(e)),
//! - a uniform-grid [`GridIndex`] for sublinear window queries, shared by
//!   clip extraction and the tiled layout scanner.
//!
//! All coordinates are integers (nanometres). Geometry is closed-open:
//! a rectangle spans `[min.x, max.x) × [min.y, max.y)`, so two rectangles
//! that merely share an edge do not overlap but do *touch*.
//!
//! # Examples
//!
//! ```
//! use hotspot_geom::{Point, Rect};
//!
//! let a = Rect::new(Point::new(0, 0), Point::new(100, 50));
//! let b = Rect::new(Point::new(50, 0), Point::new(150, 50));
//! assert_eq!(a.intersection(&b), Some(Rect::new(Point::new(50, 0), Point::new(100, 50))));
//! assert_eq!(a.overlap_area(&b), 50 * 50);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod boolean;
mod corner;
mod cover;
mod density;
mod index;
mod orientation;
mod point;
mod polygon;
mod rect;
pub mod sat;

pub use corner::{corner_count, touch_point_count, CornerKind, CornerSummary};
pub use cover::CoverGrid;
pub use density::{DensityDistance, DensityGrid};
pub use index::GridIndex;
pub use orientation::{Orientation, D8};
pub use point::{Coord, Point};
pub use polygon::{dissect_rects, DissectError, Polygon};
pub use rect::Rect;
pub use sat::{AreaTable, AreaTableGrid, RasterMode};

/// Minimum horizontal or vertical distance between the edges of two
/// disjoint rectangles, `None` if they overlap or touch in both axes.
///
/// This is the edge-to-edge spacing used by the "external facing edge pair"
/// nontopological feature. Diagonal separation is measured as the Chebyshev
/// distance of the gap.
///
/// ```
/// use hotspot_geom::{edge_spacing, Point, Rect};
/// let a = Rect::new(Point::new(0, 0), Point::new(10, 10));
/// let b = Rect::new(Point::new(25, 0), Point::new(35, 10));
/// assert_eq!(edge_spacing(&a, &b), Some(15));
/// ```
pub fn edge_spacing(a: &Rect, b: &Rect) -> Option<Coord> {
    if a.overlaps(b) {
        return None;
    }
    let dx = gap_1d(a.min().x, a.max().x, b.min().x, b.max().x);
    let dy = gap_1d(a.min().y, a.max().y, b.min().y, b.max().y);
    match (dx, dy) {
        (Some(dx), Some(dy)) => Some(dx.max(dy)),
        (Some(dx), None) => Some(dx),
        (None, Some(dy)) => Some(dy),
        (None, None) => None,
    }
}

/// Gap between intervals `[a0,a1)` and `[b0,b1)`; `None` if they overlap.
fn gap_1d(a0: Coord, a1: Coord, b0: Coord, b1: Coord) -> Option<Coord> {
    if a1 <= b0 {
        Some(b0 - a1)
    } else if b1 <= a0 {
        Some(a0 - b1)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_spacing_horizontal() {
        let a = Rect::new(Point::new(0, 0), Point::new(10, 10));
        let b = Rect::new(Point::new(30, 2), Point::new(40, 8));
        assert_eq!(edge_spacing(&a, &b), Some(20));
    }

    #[test]
    fn edge_spacing_vertical() {
        let a = Rect::new(Point::new(0, 0), Point::new(10, 10));
        let b = Rect::new(Point::new(0, 17), Point::new(10, 20));
        assert_eq!(edge_spacing(&a, &b), Some(7));
    }

    #[test]
    fn edge_spacing_diagonal_is_chebyshev() {
        let a = Rect::new(Point::new(0, 0), Point::new(10, 10));
        let b = Rect::new(Point::new(13, 14), Point::new(20, 20));
        assert_eq!(edge_spacing(&a, &b), Some(4));
    }

    #[test]
    fn edge_spacing_overlapping_is_none() {
        let a = Rect::new(Point::new(0, 0), Point::new(10, 10));
        let b = Rect::new(Point::new(5, 5), Point::new(15, 15));
        assert_eq!(edge_spacing(&a, &b), None);
    }

    #[test]
    fn edge_spacing_touching_is_zero() {
        let a = Rect::new(Point::new(0, 0), Point::new(10, 10));
        let b = Rect::new(Point::new(10, 0), Point::new(20, 10));
        assert_eq!(edge_spacing(&a, &b), Some(0));
    }
}

//! Axis-aligned rectangles with closed-open extent.

use crate::{Coord, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An axis-aligned rectangle spanning `[min.x, max.x) × [min.y, max.y)`.
///
/// The closed-open convention means rectangles that share only an edge have
/// zero [`overlap_area`](Rect::overlaps) but [`touch`](Rect::touches).
/// Degenerate (zero-width or zero-height) rectangles are permitted and are
/// reported as [`empty`](Rect::is_empty).
///
/// ```
/// use hotspot_geom::{Point, Rect};
/// let r = Rect::new(Point::new(0, 0), Point::new(40, 30));
/// assert_eq!(r.width(), 40);
/// assert_eq!(r.height(), 30);
/// assert_eq!(r.area(), 1200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: a.min_components(b),
            max: a.max_components(b),
        }
    }

    /// Creates a rectangle from its four extents.
    pub fn from_extents(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Self {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// Creates a rectangle from its bottom-left corner plus width and height.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative.
    pub fn from_origin_size(origin: Point, width: Coord, height: Coord) -> Self {
        assert!(width >= 0 && height >= 0, "negative rectangle size");
        Rect {
            min: origin,
            max: origin + Point::new(width, height),
        }
    }

    /// A square of side `side` centred on `center` (rounded down when `side`
    /// is odd).
    pub fn centered_square(center: Point, side: Coord) -> Self {
        let half = side / 2;
        Rect {
            min: center - Point::new(half, half),
            max: center - Point::new(half, half) + Point::new(side, side),
        }
    }

    /// Bottom-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Top-right corner (exclusive).
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width in nanometres.
    pub fn width(&self) -> Coord {
        self.max.x - self.min.x
    }

    /// Height in nanometres.
    pub fn height(&self) -> Coord {
        self.max.y - self.min.y
    }

    /// Area in nm², saturating at `i64::MAX` (a full-range `i32` square
    /// has an area of about 2^64).
    pub fn area(&self) -> i64 {
        self.width().saturating_mul(self.height())
    }

    /// `true` if the rectangle has zero area.
    pub fn is_empty(&self) -> bool {
        self.width() == 0 || self.height() == 0
    }

    /// Geometric centre (rounded toward the bottom-left on odd spans).
    pub fn center(&self) -> Point {
        Point::new((self.min.x + self.max.x) / 2, (self.min.y + self.max.y) / 2)
    }

    /// The four corners in counterclockwise order starting at the bottom-left.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// `true` if `p` lies inside the closed-open extent.
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.y >= self.min.y && p.y < self.max.y
    }

    /// `true` if `other` lies entirely within `self` (closed containment;
    /// shared edges count as contained).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min.x >= self.min.x
            && other.min.y >= self.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// `true` if the two rectangles share interior area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.min.x < other.max.x
            && other.min.x < self.max.x
            && self.min.y < other.max.y
            && other.min.y < self.max.y
    }

    /// `true` if the rectangles overlap or share a boundary point.
    pub fn touches(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Intersection, or `None` when the rectangles share no interior area.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Rect {
            min: self.min.max_components(other.min),
            max: self.max.min_components(other.max),
        })
    }

    /// Overlap area in nm² (0 when disjoint).
    pub fn overlap_area(&self, other: &Rect) -> i64 {
        self.intersection(other).map_or(0, |r| r.area())
    }

    /// Smallest rectangle covering both inputs.
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min: self.min.min_components(other.min),
            max: self.max.max_components(other.max),
        }
    }

    /// Bounding box of an iterator of rectangles, ignoring empty ones.
    /// Returns `None` when the iterator yields no non-empty rectangle.
    pub fn bbox_of<'a, I: IntoIterator<Item = &'a Rect>>(rects: I) -> Option<Rect> {
        let mut acc: Option<Rect> = None;
        for r in rects {
            if r.is_empty() {
                continue;
            }
            acc = Some(match acc {
                Some(a) => a.union_bbox(r),
                None => *r,
            });
        }
        acc
    }

    /// Translates the rectangle by `delta`.
    pub fn translate(&self, delta: Point) -> Rect {
        Rect {
            min: self.min + delta,
            max: self.max + delta,
        }
    }

    /// Grows the rectangle outward by `margin` on every side (shrinks for
    /// negative margins; collapses to an empty rectangle rather than
    /// inverting).
    pub fn inflate(&self, margin: Coord) -> Rect {
        let min = self.min - Point::new(margin, margin);
        let max = self.max + Point::new(margin, margin);
        if min.x >= max.x || min.y >= max.y {
            let c = self.center();
            return Rect { min: c, max: c };
        }
        Rect { min, max }
    }

    /// Fraction of `self`'s area covered by `other`, in `[0, 1]`.
    /// Returns 0.0 for an empty `self`.
    pub fn overlap_ratio(&self, other: &Rect) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.overlap_area(other) as f64 / self.area() as f64
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} — {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::from_extents(x0, y0, x1, y1)
    }

    #[test]
    fn normalizes_corners() {
        let a = Rect::new(Point::new(10, 20), Point::new(0, 5));
        assert_eq!(a.min(), Point::new(0, 5));
        assert_eq!(a.max(), Point::new(10, 20));
    }

    #[test]
    fn area_and_empty() {
        assert_eq!(r(0, 0, 4, 5).area(), 20);
        assert!(r(3, 3, 3, 10).is_empty());
        assert!(!r(0, 0, 1, 1).is_empty());
    }

    #[test]
    fn full_range_area_saturates() {
        // GDSII coordinates are i32: a full-range rect spans 2^32 - 1 per
        // side, and its exact area (about 2^64) does not fit in i64.
        let full = r(
            i32::MIN.into(),
            i32::MIN.into(),
            i32::MAX.into(),
            i32::MAX.into(),
        );
        assert_eq!(full.area(), i64::MAX);
        let wide = r(i32::MIN.into(), 0, i32::MAX.into(), 1);
        assert_eq!(wide.area(), (1i64 << 32) - 1);
    }

    #[test]
    fn containment() {
        let big = r(0, 0, 100, 100);
        assert!(big.contains_rect(&r(0, 0, 100, 100)));
        assert!(big.contains_rect(&r(10, 10, 90, 90)));
        assert!(!big.contains_rect(&r(-1, 10, 90, 90)));
        assert!(big.contains_point(Point::new(0, 0)));
        assert!(!big.contains_point(Point::new(100, 100)));
    }

    #[test]
    fn overlap_semantics_closed_open() {
        let a = r(0, 0, 10, 10);
        let b = r(10, 0, 20, 10); // shares an edge only
        assert!(!a.overlaps(&b));
        assert!(a.touches(&b));
        assert_eq!(a.overlap_area(&b), 0);
        let c = r(9, 9, 11, 11);
        assert!(a.overlaps(&c));
        assert_eq!(a.overlap_area(&c), 1);
    }

    #[test]
    fn intersection_and_union() {
        let a = r(0, 0, 10, 10);
        let b = r(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(r(5, 5, 10, 10)));
        assert_eq!(a.union_bbox(&b), r(0, 0, 15, 15));
        assert_eq!(a.intersection(&r(20, 20, 30, 30)), None);
    }

    #[test]
    fn bbox_of_skips_empty() {
        let rects = [r(0, 0, 10, 10), r(5, 5, 5, 20), r(20, -5, 30, 2)];
        assert_eq!(Rect::bbox_of(rects.iter()), Some(r(0, -5, 30, 10)));
        assert_eq!(Rect::bbox_of([].iter()), None);
        assert_eq!(Rect::bbox_of([r(1, 1, 1, 1)].iter()), None);
    }

    #[test]
    fn translate_and_inflate() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.translate(Point::new(5, -5)), r(5, -5, 15, 5));
        assert_eq!(a.inflate(3), r(-3, -3, 13, 13));
        assert_eq!(a.inflate(-2), r(2, 2, 8, 8));
        // Over-shrinking collapses instead of inverting.
        assert!(a.inflate(-7).is_empty());
    }

    #[test]
    fn centered_square() {
        let sq = Rect::centered_square(Point::new(100, 100), 60);
        assert_eq!(sq, r(70, 70, 130, 130));
    }

    #[test]
    fn overlap_ratio() {
        let a = r(0, 0, 10, 10);
        let b = r(0, 0, 5, 10);
        assert!((a.overlap_ratio(&b) - 0.5).abs() < 1e-12);
        assert_eq!(r(0, 0, 0, 0).overlap_ratio(&a), 0.0);
    }

    #[test]
    fn corners_ccw() {
        let a = r(0, 0, 4, 2);
        assert_eq!(
            a.corners(),
            [
                Point::new(0, 0),
                Point::new(4, 0),
                Point::new(4, 2),
                Point::new(0, 2)
            ]
        );
    }
}

//! Rectilinear polygons and their dissection into rectangles.
//!
//! The evaluation phase of the paper first horizontally slices every layout
//! polygon into rectangles (Fig. 11(a)); those rectangles seed layout-clip
//! extraction. [`Polygon::dissect_horizontal`] implements that slicing for
//! arbitrary (possibly non-convex, possibly with collinear runs) rectilinear
//! polygons.

use crate::{Coord, Point, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple rectilinear (Manhattan) polygon.
///
/// Vertices are stored in order (either orientation); every edge must be
/// axis-parallel and the boundary must be closed and non-self-intersecting.
/// Validation happens in [`Polygon::new`].
///
/// ```
/// use hotspot_geom::{Point, Polygon, Rect};
/// // An L-shape.
/// let poly = Polygon::new(vec![
///     Point::new(0, 0), Point::new(20, 0), Point::new(20, 10),
///     Point::new(10, 10), Point::new(10, 30), Point::new(0, 30),
/// ])?;
/// assert_eq!(poly.area(), 20 * 10 + 10 * 20);
/// assert_eq!(poly.dissect_horizontal().len(), 2);
/// # Ok::<(), hotspot_geom::DissectError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Point>,
}

/// Error building or dissecting a rectilinear polygon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DissectError {
    /// Fewer than four vertices were supplied.
    TooFewVertices(usize),
    /// Two consecutive vertices are not axis-aligned (or are identical).
    NonRectilinearEdge(Point, Point),
    /// The number of vertices is odd, which cannot close a rectilinear loop.
    OddVertexCount(usize),
}

impl fmt::Display for DissectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DissectError::TooFewVertices(n) => {
                write!(f, "rectilinear polygon needs at least 4 vertices, got {n}")
            }
            DissectError::NonRectilinearEdge(a, b) => {
                write!(f, "edge {a} -> {b} is not axis-parallel")
            }
            DissectError::OddVertexCount(n) => {
                write!(
                    f,
                    "rectilinear polygon cannot have an odd vertex count ({n})"
                )
            }
        }
    }
}

impl std::error::Error for DissectError {}

impl Polygon {
    /// Builds a polygon from a closed vertex loop (the closing edge from the
    /// last back to the first vertex is implicit). Consecutive duplicate
    /// vertices and collinear runs are tolerated and normalised away.
    ///
    /// # Errors
    ///
    /// Returns [`DissectError`] when the loop has fewer than four distinct
    /// vertices, an odd vertex count after normalisation, or any edge that is
    /// not axis-parallel.
    pub fn new(vertices: Vec<Point>) -> Result<Self, DissectError> {
        let normalized = normalize_loop(vertices);
        if normalized.len() < 4 {
            return Err(DissectError::TooFewVertices(normalized.len()));
        }
        if !normalized.len().is_multiple_of(2) {
            return Err(DissectError::OddVertexCount(normalized.len()));
        }
        let n = normalized.len();
        for i in 0..n {
            let a = normalized[i];
            let b = normalized[(i + 1) % n];
            if (a.x != b.x && a.y != b.y) || a == b {
                return Err(DissectError::NonRectilinearEdge(a, b));
            }
        }
        Ok(Polygon {
            vertices: normalized,
        })
    }

    /// The polygon's vertices after normalisation.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        let mut min = self.vertices[0];
        let mut max = self.vertices[0];
        for &v in &self.vertices[1..] {
            min = min.min_components(v);
            max = max.max_components(v);
        }
        Rect::new(min, max)
    }

    /// Area in nm² (always positive), saturating at `i64::MAX` like
    /// [`Rect::area`].
    pub fn area(&self) -> i64 {
        // Shoelace formula; rectilinear polygons keep it exact in integers.
        let n = self.vertices.len();
        let mut twice: i128 = 0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            twice += a.x as i128 * b.y as i128 - b.x as i128 * a.y as i128;
        }
        i64::try_from(twice.abs() / 2).unwrap_or(i64::MAX)
    }

    /// Translates every vertex by `delta`.
    pub fn translate(&self, delta: Point) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&v| v + delta).collect(),
        }
    }

    /// `true` if `p` lies inside the polygon (closed-open semantics,
    /// consistent with [`Rect::contains_point`]): a point on the left or
    /// bottom boundary is inside, on the right or top boundary outside.
    ///
    /// ```
    /// use hotspot_geom::{Point, Polygon, Rect};
    /// let p = Polygon::from(Rect::from_extents(0, 0, 10, 10));
    /// assert!(p.contains_point(Point::new(0, 0)));
    /// assert!(!p.contains_point(Point::new(10, 10)));
    /// ```
    pub fn contains_point(&self, p: Point) -> bool {
        // Rectilinear polygons dissect exactly; containment reduces to the
        // per-rectangle closed-open test.
        self.dissect_horizontal()
            .iter()
            .any(|r| r.contains_point(p))
    }

    /// Dissects the polygon into non-overlapping rectangles by horizontal
    /// slicing (Fig. 11(a)): the polygon is cut at every distinct
    /// horizontal-edge y-coordinate and each band contributes its covered
    /// x-intervals.
    ///
    /// The union of the returned rectangles equals the polygon region, and
    /// their total area equals [`Polygon::area`].
    pub fn dissect_horizontal(&self) -> Vec<Rect> {
        // Vertical edges as (x, y_lo, y_hi).
        let n = self.vertices.len();
        let mut vedges: Vec<(Coord, Coord, Coord)> = Vec::new();
        let mut ys: Vec<Coord> = Vec::new();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if a.x == b.x {
                vedges.push((a.x, a.y.min(b.y), a.y.max(b.y)));
            } else {
                ys.push(a.y);
            }
        }
        ys.sort_unstable();
        ys.dedup();

        let mut out = Vec::new();
        for w in ys.windows(2) {
            let (y0, y1) = (w[0], w[1]);
            // Vertical edges spanning this band, sorted by x; parity fill.
            let mut xs: Vec<Coord> = vedges
                .iter()
                .filter(|&&(_, lo, hi)| lo <= y0 && hi >= y1)
                .map(|&(x, _, _)| x)
                .collect();
            xs.sort_unstable();
            debug_assert!(xs.len().is_multiple_of(2), "odd crossing count in band");
            for pair in xs.chunks_exact(2) {
                if pair[0] < pair[1] {
                    out.push(Rect::from_extents(pair[0], y0, pair[1], y1));
                }
            }
        }
        merge_vertical_runs(out)
    }
}

impl From<Rect> for Polygon {
    fn from(r: Rect) -> Polygon {
        Polygon {
            vertices: r.corners().to_vec(),
        }
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polygon[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Dissects every polygon and concatenates the resulting rectangles.
///
/// Convenience wrapper used by clip extraction over a full layout layer.
pub fn dissect_rects<'a, I: IntoIterator<Item = &'a Polygon>>(polygons: I) -> Vec<Rect> {
    let mut out = Vec::new();
    for p in polygons {
        out.extend(p.dissect_horizontal());
    }
    out
}

/// Removes consecutive duplicates and collinear midpoints from a vertex loop.
fn normalize_loop(mut vs: Vec<Point>) -> Vec<Point> {
    vs.dedup();
    if vs.len() > 1 && vs.first() == vs.last() {
        vs.pop();
    }
    // Drop collinear midpoints (runs of 3+ points on one axis line).
    loop {
        let n = vs.len();
        if n < 3 {
            return vs;
        }
        let mut removed = false;
        let mut keep = Vec::with_capacity(n);
        for i in 0..n {
            let prev = vs[(i + n - 1) % n];
            let cur = vs[i];
            let next = vs[(i + 1) % n];
            let collinear =
                (prev.x == cur.x && cur.x == next.x) || (prev.y == cur.y && cur.y == next.y);
            if collinear {
                removed = true;
            } else {
                keep.push(cur);
            }
        }
        vs = keep;
        if !removed {
            return vs;
        }
    }
}

/// Merges vertically adjacent band rectangles that share an x-range, so the
/// dissection of a plain rectangle is a single rectangle.
fn merge_vertical_runs(mut rects: Vec<Rect>) -> Vec<Rect> {
    rects.sort_by_key(|r| (r.min().x, r.max().x, r.min().y));
    let mut out: Vec<Rect> = Vec::with_capacity(rects.len());
    for r in rects {
        if let Some(last) = out.last_mut() {
            if last.min().x == r.min().x && last.max().x == r.max().x && last.max().y == r.min().y {
                *last = Rect::new(last.min(), r.max());
                continue;
            }
        }
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: Coord, y: Coord) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn area_saturates_on_the_full_gdsii_range() {
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let full = Polygon::from(Rect::from_extents(lo, lo, hi, hi));
        assert_eq!(full.area(), i64::MAX);
    }

    #[test]
    fn rejects_bad_loops() {
        assert!(matches!(
            Polygon::new(vec![pt(0, 0), pt(1, 0), pt(1, 1)]),
            Err(DissectError::TooFewVertices(_))
        ));
        assert!(matches!(
            Polygon::new(vec![pt(0, 0), pt(5, 5), pt(5, 0), pt(0, 5)]),
            Err(DissectError::NonRectilinearEdge(..))
        ));
    }

    #[test]
    fn rect_roundtrip() {
        let r = Rect::from_extents(2, 3, 12, 9);
        let p = Polygon::from(r);
        assert_eq!(p.area(), r.area());
        assert_eq!(p.bbox(), r);
        let d = p.dissect_horizontal();
        assert_eq!(d, vec![r]);
    }

    #[test]
    fn l_shape_dissection() {
        // ┌──┐
        // │  │
        // │  └────┐
        // └───────┘
        let p = Polygon::new(vec![
            pt(0, 0),
            pt(30, 0),
            pt(30, 10),
            pt(10, 10),
            pt(10, 30),
            pt(0, 30),
        ])
        .unwrap();
        assert_eq!(p.area(), 30 * 10 + 10 * 20);
        let d = p.dissect_horizontal();
        let total: i64 = d.iter().map(|r| r.area()).sum();
        assert_eq!(total, p.area());
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn u_shape_dissection() {
        // Two towers connected at the bottom.
        let p = Polygon::new(vec![
            pt(0, 0),
            pt(50, 0),
            pt(50, 30),
            pt(40, 30),
            pt(40, 10),
            pt(10, 10),
            pt(10, 30),
            pt(0, 30),
        ])
        .unwrap();
        let d = p.dissect_horizontal();
        let total: i64 = d.iter().map(|r| r.area()).sum();
        assert_eq!(total, p.area());
        // Bottom bar + two towers.
        assert_eq!(d.len(), 3);
        // No two output rectangles overlap.
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                assert!(!d[i].overlaps(&d[j]), "{:?} overlaps {:?}", d[i], d[j]);
            }
        }
    }

    #[test]
    fn collinear_and_duplicate_vertices_normalized() {
        let p = Polygon::new(vec![
            pt(0, 0),
            pt(5, 0),
            pt(10, 0), // collinear midpoint at (5, 0)
            pt(10, 10),
            pt(10, 10), // duplicate
            pt(0, 10),
            pt(0, 0), // explicit closure
        ])
        .unwrap();
        assert_eq!(p.vertices().len(), 4);
        assert_eq!(p.area(), 100);
    }

    #[test]
    fn contains_point_on_l_shape() {
        let p = Polygon::new(vec![
            pt(0, 0),
            pt(30, 0),
            pt(30, 10),
            pt(10, 10),
            pt(10, 30),
            pt(0, 30),
        ])
        .unwrap();
        assert!(p.contains_point(pt(5, 5)), "inside the base");
        assert!(p.contains_point(pt(5, 25)), "inside the tower");
        assert!(!p.contains_point(pt(20, 20)), "in the notch");
        assert!(p.contains_point(pt(0, 0)), "closed bottom-left");
        assert!(!p.contains_point(pt(30, 10)), "open top-right of base");
    }

    #[test]
    fn translate_moves_bbox() {
        let p = Polygon::from(Rect::from_extents(0, 0, 10, 10)).translate(pt(100, -50));
        assert_eq!(p.bbox(), Rect::from_extents(100, -50, 110, -40));
    }

    #[test]
    fn dissect_rects_concatenates() {
        let a = Polygon::from(Rect::from_extents(0, 0, 10, 10));
        let b = Polygon::from(Rect::from_extents(20, 0, 30, 10));
        let rs = dissect_rects([&a, &b]);
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn display_formats() {
        let p = Polygon::from(Rect::from_extents(0, 0, 1, 1));
        assert!(p.to_string().starts_with("Polygon["));
    }
}

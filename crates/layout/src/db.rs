//! The flat layout database.

use hotspot_geom::{Polygon, Rect};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A GDSII layer number.
///
/// ```
/// use hotspot_layout::LayerId;
/// assert_eq!(LayerId::new(7).number(), 7);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LayerId(u16);

impl LayerId {
    /// The metal-1-style default layer used throughout the benchmarks.
    pub const METAL1: LayerId = LayerId(1);

    /// Creates a layer id from a GDSII layer number.
    pub const fn new(number: u16) -> Self {
        LayerId(number)
    }

    /// The GDSII layer number.
    pub const fn number(self) -> u16 {
        self.0
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A flat layout: named top cell plus per-layer rectilinear polygons.
///
/// The hotspot benchmarks are flat (no hierarchy), so the database stores
/// polygons directly per layer. Polygons are kept in insertion order within
/// a layer.
///
/// ```
/// use hotspot_layout::{Layout, LayerId};
/// use hotspot_geom::Rect;
///
/// let mut l = Layout::new("chip");
/// l.add_rect(LayerId::new(1), Rect::from_extents(0, 0, 50, 20));
/// l.add_rect(LayerId::new(2), Rect::from_extents(0, 0, 20, 50));
/// assert_eq!(l.polygon_count(), 2);
/// assert_eq!(l.layers().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layout {
    name: String,
    layers: BTreeMap<LayerId, Vec<Polygon>>,
}

impl Layout {
    /// Creates an empty layout with the given top-cell name.
    pub fn new(name: impl Into<String>) -> Self {
        Layout {
            name: name.into(),
            layers: BTreeMap::new(),
        }
    }

    /// Top-cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a polygon to a layer.
    pub fn add_polygon(&mut self, layer: LayerId, polygon: Polygon) {
        self.layers.entry(layer).or_default().push(polygon);
    }

    /// Adds a rectangle to a layer (stored as a 4-vertex polygon).
    pub fn add_rect(&mut self, layer: LayerId, rect: Rect) {
        self.add_polygon(layer, Polygon::from(rect));
    }

    /// The polygons on `layer` (empty slice if the layer is absent).
    pub fn polygons(&self, layer: LayerId) -> &[Polygon] {
        self.layers.get(&layer).map_or(&[], Vec::as_slice)
    }

    /// Iterator over the populated layers in ascending order.
    pub fn layers(&self) -> impl Iterator<Item = LayerId> + '_ {
        self.layers.keys().copied()
    }

    /// Total polygon count over all layers.
    pub fn polygon_count(&self) -> usize {
        self.layers.values().map(Vec::len).sum()
    }

    /// Bounding box over all layers, `None` for an empty layout.
    pub fn bbox(&self) -> Option<Rect> {
        let mut acc: Option<Rect> = None;
        for polys in self.layers.values() {
            for p in polys {
                let b = p.bbox();
                acc = Some(match acc {
                    Some(a) => a.union_bbox(&b),
                    None => b,
                });
            }
        }
        acc
    }

    /// Total polygon area on `layer`, in nm², saturating at `i64::MAX`.
    pub fn layer_area(&self, layer: LayerId) -> i64 {
        self.polygons(layer)
            .iter()
            .fold(0, |total, p| total.saturating_add(p.area()))
    }

    /// Dissects every polygon on `layer` into rectangles
    /// (see [`Polygon::dissect_horizontal`]).
    pub fn dissected_rects(&self, layer: LayerId) -> Vec<Rect> {
        hotspot_geom::dissect_rects(self.polygons(layer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::Point;

    #[test]
    fn empty_layout() {
        let l = Layout::new("top");
        assert_eq!(l.name(), "top");
        assert_eq!(l.polygon_count(), 0);
        assert_eq!(l.bbox(), None);
        assert!(l.polygons(LayerId::new(1)).is_empty());
    }

    #[test]
    fn add_and_query() {
        let mut l = Layout::new("top");
        l.add_rect(LayerId::new(1), Rect::from_extents(0, 0, 10, 10));
        l.add_rect(LayerId::new(1), Rect::from_extents(20, 0, 30, 10));
        l.add_rect(LayerId::new(3), Rect::from_extents(0, 20, 10, 30));
        assert_eq!(l.polygon_count(), 3);
        assert_eq!(l.polygons(LayerId::new(1)).len(), 2);
        assert_eq!(
            l.layers().collect::<Vec<_>>(),
            vec![LayerId::new(1), LayerId::new(3)]
        );
        assert_eq!(l.bbox(), Some(Rect::from_extents(0, 0, 30, 30)));
        assert_eq!(l.layer_area(LayerId::new(1)), 200);
    }

    #[test]
    fn dissected_rects_flattens_layer() {
        let mut l = Layout::new("top");
        let poly = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(30, 0),
            Point::new(30, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ])
        .unwrap();
        l.add_polygon(LayerId::METAL1, poly);
        let rects = l.dissected_rects(LayerId::METAL1);
        assert_eq!(rects.len(), 2);
        assert_eq!(rects.iter().map(|r| r.area()).sum::<i64>(), 500);
    }

    #[test]
    fn layer_display() {
        assert_eq!(LayerId::new(12).to_string(), "L12");
    }
}

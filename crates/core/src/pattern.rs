//! Clip patterns and training sets.

use hotspot_geom::{Point, Rect};
use hotspot_layout::{ClipWindow, LayerId, Layout};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Ground-truth class of a training pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Label {
    /// Lithography hotspot.
    Hotspot,
    /// Printable pattern.
    NonHotspot,
}

impl Label {
    /// The SVM target value: `+1` for hotspots, `−1` otherwise.
    pub fn target(self) -> f64 {
        match self {
            Label::Hotspot => 1.0,
            Label::NonHotspot => -1.0,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Hotspot => f.write_str("hotspot"),
            Label::NonHotspot => f.write_str("non-hotspot"),
        }
    }
}

/// One clip pattern: a placed core/ambit window plus the polygon rectangles
/// inside it (absolute coordinates, clipped to the window).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pattern {
    /// The clip window (core + ambit).
    pub window: ClipWindow,
    /// Polygon rectangles inside the clip window.
    pub rects: Vec<Rect>,
}

impl Pattern {
    /// Builds a pattern by clipping `rects` to `window.clip`.
    pub fn new(window: ClipWindow, rects: &[Rect]) -> Pattern {
        let clipped = rects
            .iter()
            .filter_map(|r| r.intersection(&window.clip))
            .collect();
        Pattern {
            window,
            rects: clipped,
        }
    }

    /// Extracts the pattern at `window` from a layout layer.
    ///
    /// For repeated extraction over one layout prefer building a
    /// [`crate::RectIndex`] once and using [`Pattern::from_index`].
    pub fn from_layout(layout: &Layout, layer: LayerId, window: ClipWindow) -> Pattern {
        let rects = layout.dissected_rects(layer);
        Pattern::new(window, &rects)
    }

    /// Extracts the pattern at `window` using a prebuilt spatial index.
    pub fn from_index(index: &crate::RectIndex, window: ClipWindow) -> Pattern {
        Pattern::new(window, &index.query(&window.clip))
    }

    /// Why this pattern's window cannot be classified, or `None` when it
    /// can: both the core and the clip window must have positive width and
    /// height, and the core must lie inside the clip.
    pub fn window_fault(&self) -> Option<&'static str> {
        let positive = |r: &Rect| r.width() > 0 && r.height() > 0;
        if !positive(&self.window.core) {
            Some("empty core window")
        } else if !positive(&self.window.clip) {
            Some("empty clip window")
        } else if !self.window.clip.contains_rect(&self.window.core) {
            Some("core window outside its clip window")
        } else {
            None
        }
    }

    /// The rectangles clipped to the core region.
    pub fn core_rects(&self) -> Vec<Rect> {
        self.rects
            .iter()
            .filter_map(|r| r.intersection(&self.window.core))
            .collect()
    }

    /// Shifts the *geometry* by `delta` within the fixed window (the data
    /// shifting of Section III-D3), clipping at the window boundary.
    pub fn shifted(&self, delta: Point) -> Pattern {
        let moved: Vec<Rect> = self
            .rects
            .iter()
            .filter_map(|r| r.translate(delta).intersection(&self.window.clip))
            .collect();
        Pattern {
            window: self.window,
            rects: moved,
        }
    }

    /// Polygon density inside the core region.
    pub fn core_density(&self) -> f64 {
        let core = self.window.core;
        if core.is_empty() {
            return 0.0;
        }
        // The core rects may overlap after clipping of overlapping input;
        // overlap is rare and density is a filter heuristic, so sum & clamp.
        let covered: i64 = self.rects.iter().map(|r| r.overlap_area(&core)).sum();
        (covered as f64 / core.area() as f64).min(1.0)
    }

    /// Bounding box of the pattern's rectangles, `None` when empty.
    pub fn content_bbox(&self) -> Option<Rect> {
        Rect::bbox_of(self.rects.iter())
    }

    /// Maximum distance from any clip boundary to the content bounding box
    /// (the four arrows of Fig. 11(b)); `None` when the clip is empty.
    pub fn max_boundary_bbox_distance(&self) -> Option<i64> {
        let bbox = self.content_bbox()?;
        let clip = self.window.clip;
        Some(
            (bbox.min().x - clip.min().x)
                .max(bbox.min().y - clip.min().y)
                .max(clip.max().x - bbox.max().x)
                .max(clip.max().y - bbox.max().y),
        )
    }
}

/// A labelled training corpus of hotspot and nonhotspot patterns.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingSet {
    /// Hotspot patterns.
    pub hotspots: Vec<Pattern>,
    /// Nonhotspot patterns (typically far more numerous).
    pub nonhotspots: Vec<Pattern>,
}

impl TrainingSet {
    /// An empty training set.
    pub fn new() -> TrainingSet {
        TrainingSet::default()
    }

    /// Adds a labelled pattern.
    pub fn push(&mut self, pattern: Pattern, label: Label) {
        match label {
            Label::Hotspot => self.hotspots.push(pattern),
            Label::NonHotspot => self.nonhotspots.push(pattern),
        }
    }

    /// Total pattern count.
    pub fn len(&self) -> usize {
        self.hotspots.len() + self.nonhotspots.len()
    }

    /// `true` when no patterns are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministically subsamples a fraction of each class (used by the
    /// Table IV training-data experiments). `fraction` is clamped to
    /// `[0, 1]`; at least one pattern per non-empty class is kept.
    pub fn subsample(&self, fraction: f64) -> TrainingSet {
        let f = fraction.clamp(0.0, 1.0);
        let take = |v: &[Pattern]| -> Vec<Pattern> {
            if v.is_empty() {
                return Vec::new();
            }
            let n = ((v.len() as f64 * f).round() as usize).clamp(1, v.len());
            // Deterministic stride sampling spreads picks over the corpus.
            let stride = v.len() as f64 / n as f64;
            (0..n)
                .map(|i| v[(i as f64 * stride) as usize % v.len()].clone())
                .collect()
        };
        TrainingSet {
            hotspots: take(&self.hotspots),
            nonhotspots: take(&self.nonhotspots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_layout::ClipShape;

    fn shape() -> ClipShape {
        ClipShape::new(100, 300).unwrap()
    }

    fn sample() -> Pattern {
        let window = shape().window_centered(Point::new(0, 0));
        Pattern::new(
            window,
            &[
                Rect::from_extents(-20, -20, 20, 20),   // in core
                Rect::from_extents(100, 100, 140, 140), // in ambit
                Rect::from_extents(500, 500, 600, 600), // outside, dropped
            ],
        )
    }

    #[test]
    fn new_clips_to_window() {
        let p = sample();
        assert_eq!(p.rects.len(), 2);
        assert!(p.rects.iter().all(|r| p.window.clip.contains_rect(r)));
    }

    #[test]
    fn window_fault_names_empty_and_misplaced_windows() {
        let p = sample();
        assert_eq!(p.window_fault(), None);
        let with = |core: Rect, clip: Rect| Pattern {
            window: ClipWindow { clip, core },
            rects: Vec::new(),
        };
        let (core, clip) = (p.window.core, p.window.clip);
        let flat = Rect::from_extents(core.min().x, core.min().y, core.min().x, core.max().y);
        assert_eq!(with(flat, clip).window_fault(), Some("empty core window"));
        let flat = Rect::from_extents(clip.min().x, clip.min().y, clip.max().x, clip.min().y);
        assert_eq!(with(core, flat).window_fault(), Some("empty clip window"));
        assert_eq!(
            with(core.translate(Point::new(1000, 0)), clip).window_fault(),
            Some("core window outside its clip window")
        );
    }

    #[test]
    fn core_rects_clip_to_core() {
        let p = sample();
        let core = p.core_rects();
        assert_eq!(core.len(), 1);
        assert_eq!(core[0], Rect::from_extents(-20, -20, 20, 20));
    }

    #[test]
    fn density_and_bbox() {
        let p = sample();
        // Core is 100×100, covered by a 40×40 square.
        assert!((p.core_density() - 0.16).abs() < 1e-12);
        assert_eq!(
            p.content_bbox(),
            Some(Rect::from_extents(-20, -20, 140, 140))
        );
        // Clip spans [-150, 150]; content bbox min is -20: distance 130;
        // max side: 150 - 140 = 10. Max distance = 130.
        assert_eq!(p.max_boundary_bbox_distance(), Some(130));
    }

    #[test]
    fn empty_pattern_edge_cases() {
        let p = Pattern::new(shape().window_centered(Point::new(0, 0)), &[]);
        assert_eq!(p.core_density(), 0.0);
        assert_eq!(p.content_bbox(), None);
        assert_eq!(p.max_boundary_bbox_distance(), None);
    }

    #[test]
    fn shifted_moves_geometry_not_window() {
        let p = sample();
        let s = p.shifted(Point::new(10, 0));
        assert_eq!(s.window, p.window);
        assert_eq!(s.rects[0], Rect::from_extents(-10, -20, 30, 20));
        // Geometry leaving the clip is clipped away.
        let far = p.shifted(Point::new(1000, 0));
        assert!(far.rects.is_empty());
    }

    #[test]
    fn label_targets() {
        assert_eq!(Label::Hotspot.target(), 1.0);
        assert_eq!(Label::NonHotspot.target(), -1.0);
    }

    #[test]
    fn training_set_push_and_len() {
        let mut ts = TrainingSet::new();
        assert!(ts.is_empty());
        ts.push(sample(), Label::Hotspot);
        ts.push(sample(), Label::NonHotspot);
        ts.push(sample(), Label::NonHotspot);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.hotspots.len(), 1);
        assert_eq!(ts.nonhotspots.len(), 2);
    }

    #[test]
    fn subsample_fraction() {
        let mut ts = TrainingSet::new();
        for _ in 0..100 {
            ts.push(sample(), Label::NonHotspot);
        }
        for _ in 0..10 {
            ts.push(sample(), Label::Hotspot);
        }
        let half = ts.subsample(0.5);
        assert_eq!(half.nonhotspots.len(), 50);
        assert_eq!(half.hotspots.len(), 5);
        // At least one survives extreme fractions.
        let tiny = ts.subsample(0.0001);
        assert_eq!(tiny.hotspots.len(), 1);
        assert_eq!(tiny.nonhotspots.len(), 1);
        // Full fraction is the identity on counts.
        assert_eq!(ts.subsample(1.0).len(), ts.len());
    }

    #[test]
    fn from_layout_extracts_window() {
        use hotspot_layout::LayerId;
        let mut layout = hotspot_layout::Layout::new("t");
        layout.add_rect(LayerId::METAL1, Rect::from_extents(-20, -20, 20, 20));
        let p = Pattern::from_layout(
            &layout,
            LayerId::METAL1,
            shape().window_centered(Point::new(0, 0)),
        );
        assert_eq!(p.rects.len(), 1);
    }
}

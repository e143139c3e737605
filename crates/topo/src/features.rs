//! Critical feature extraction (Section III-C, Figs. 7–8).
//!
//! From the horizontally tiled `Ch` graph and the vertically tiled `Cv`
//! graph, four kinds of topological features are extracted and recorded as
//! **rule rectangles** (width, height, offset from the window's bottom-left
//! reference point, boundary mark):
//!
//! 1. **Internal** — dimensions of a block tile between spaces,
//! 2. **External** — a space tile between exactly two block tiles,
//! 3. **Diagonal** — the corner region between diagonally adjacent tiles,
//! 4. **Segment** — a space tile with 2–3 window-boundary edges.
//!
//! Five **nontopological** features follow Fig. 7(e): corner count, touch
//! points, minimum internal distance, minimum external distance, and
//! polygon density.
//!
//! A region is extracted in one pass over one compressed grid of its
//! rects ([`CoverGrid`]): the two tilings are swept off the grid, each
//! counting its tiles' block neighbours along its own axis (all that the
//! `Ch` horizontal and `Cv` vertical edges are read for), the `Ch` diagonal
//! edges come from prefix-sum queries over the grid ([`mtcg`](crate::mtcg)),
//! and corners and touch points from its cells. For `n` rects on a grid of
//! `g` cells this costs `O(n log n + g + t²)` for `t` horizontal tiles,
//! where building the full MTCG cost `O(t³)`. The grid and tilings live in
//! per-thread buffers that every extraction reuses.

use crate::mtcg::{diagonal_gaps, Occupancy};
use crate::tiling::{TileKind, Tiling, TilingAxis};
use hotspot_geom::{CornerSummary, CoverGrid, Orientation, Rect};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

/// The four topological feature kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Width/height of an isolated block tile.
    Internal,
    /// Spacing between two adjacent block tiles.
    External,
    /// Corner region between diagonally adjacent tiles.
    Diagonal,
    /// Space tile hugging the window boundary.
    Segment,
}

impl FeatureKind {
    fn code(self) -> f64 {
        match self {
            FeatureKind::Internal => 1.0,
            FeatureKind::External => 2.0,
            FeatureKind::Diagonal => 3.0,
            FeatureKind::Segment => 4.0,
        }
    }
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FeatureKind::Internal => "internal",
            FeatureKind::External => "external",
            FeatureKind::Diagonal => "diagonal",
            FeatureKind::Segment => "segment",
        };
        f.write_str(s)
    }
}

/// One extracted topological feature, recorded relative to the window's
/// bottom-left reference point (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RuleRect {
    /// Which extraction rule produced this feature.
    pub kind: FeatureKind,
    /// Offset of the rectangle's bottom-left corner from the reference
    /// point (`d_x` in the paper).
    pub dx: i64,
    /// Vertical offset (`d_y`).
    pub dy: i64,
    /// Rectangle width.
    pub width: i64,
    /// Rectangle height.
    pub height: i64,
    /// Special mark for features touching the window boundary.
    pub boundary: bool,
}

impl RuleRect {
    fn from_rect(kind: FeatureKind, window: &Rect, rect: &Rect) -> RuleRect {
        let local = rect.translate(-window.min());
        let boundary = rect.min().x == window.min().x
            || rect.min().y == window.min().y
            || rect.max().x == window.max().x
            || rect.max().y == window.max().y;
        RuleRect {
            kind,
            dx: local.min().x,
            dy: local.min().y,
            width: local.width(),
            height: local.height(),
            boundary,
        }
    }
}

/// Configuration of feature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Skip internal/external features with more than this many window-
    /// boundary edges (the paper keeps "at most one edge touching").
    pub max_boundary_edges: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            max_boundary_edges: 1,
        }
    }
}

/// The critical features of one pattern window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalFeatures {
    /// The extracted rule rectangles, canonically ordered.
    pub rules: Vec<RuleRect>,
    /// Nontopological feature 1: convex + concave corner count.
    pub corner_count: usize,
    /// Nontopological feature 2: number of touched points.
    pub touch_points: usize,
    /// Nontopological feature 3: minimum internally facing edge distance
    /// (window side when no polygon exists).
    pub min_internal: i64,
    /// Nontopological feature 4: minimum externally facing edge distance
    /// (window side when no spacing exists).
    pub min_external: i64,
    /// Nontopological feature 5: polygon density in `[0, 1]`.
    pub density: f64,
}

/// Reusable buffers of one extraction.
struct Scratch {
    grid: CoverGrid,
    horizontal: Tiling,
    vertical: Tiling,
    occupancy: Occupancy,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        grid: CoverGrid::default(),
        horizontal: Tiling::empty(TilingAxis::Horizontal),
        vertical: Tiling::empty(TilingAxis::Vertical),
        occupancy: Occupancy::default(),
    });
}

impl CriticalFeatures {
    /// Extracts all features of `rects` within `window`.
    pub fn extract(window: &Rect, rects: &[Rect], config: &FeatureConfig) -> CriticalFeatures {
        SCRATCH.with(|scratch| {
            let Scratch {
                grid,
                horizontal,
                vertical,
                occupancy,
            } = &mut *scratch.borrow_mut();
            grid.rebuild(Some(window), rects);
            horizontal.rebuild(grid, TilingAxis::Horizontal);
            vertical.rebuild(grid, TilingAxis::Vertical);
            CriticalFeatures::from_tilings(window, grid, horizontal, vertical, occupancy, config)
        })
    }

    fn from_tilings(
        window: &Rect,
        grid: &CoverGrid,
        horizontal: &Tiling,
        vertical: &Tiling,
        occupancy: &mut Occupancy,
        config: &FeatureConfig,
    ) -> CriticalFeatures {
        // No tile is longer than the window's longer side, which is also
        // the value of a minimum over no tiles.
        let side = window.width().max(window.height());
        let (mut min_internal, mut min_external) = (side, side);
        let mut rules: Vec<RuleRect> = Vec::new();
        let mut push = |kind, rect: &Rect| rules.push(RuleRect::from_rect(kind, window, rect));

        // Internal features: block tiles between spaces, and external
        // features: spaces between exactly two blocks, from both tilings
        // along their own axes. A block never meets another block along its
        // tiling's axis, so every block tile is between spaces.
        let extent_along = [Rect::width, Rect::height];
        for (tiling, along) in [horizontal, vertical].into_iter().zip(extent_along) {
            for (i, tile) in tiling.tiles().iter().enumerate() {
                let kind = match tile.kind {
                    TileKind::Block => {
                        min_internal = min_internal.min(along(&tile.rect));
                        FeatureKind::Internal
                    }
                    TileKind::Space if tiling.block_neighbours(i) == 2 => {
                        min_external = min_external.min(along(&tile.rect));
                        FeatureKind::External
                    }
                    TileKind::Space => continue,
                };
                if tile.boundary_edges(window) <= config.max_boundary_edges {
                    push(kind, &tile.rect);
                }
            }
        }

        // Diagonal features: corner regions of diagonal edges in the
        // horizontally tiled graph.
        diagonal_gaps(horizontal, grid, occupancy, |_, gap| {
            push(FeatureKind::Diagonal, &gap)
        });

        // Segment features: boundary-hugging space tiles (2–3 boundary
        // edges) from the horizontal tiling.
        for tile in horizontal.tiles_of_kind(TileKind::Space) {
            if (2..=3).contains(&tile.boundary_edges(window)) {
                push(FeatureKind::Segment, &tile.rect);
            }
        }

        // Equal keys mean equal rules: the boundary mark follows from the
        // offset and size within the window.
        rules.sort_unstable_by_key(|r| (r.kind, r.dx, r.dy, r.width, r.height));
        rules.dedup();

        // Nontopological features.
        let corners = CornerSummary::of_grid(grid);
        let block_area: i64 = horizontal
            .tiles_of_kind(TileKind::Block)
            .map(|t| t.rect.area())
            .sum();
        let density = block_area as f64 / window.area() as f64;

        CriticalFeatures {
            rules,
            corner_count: corners.total_corners(),
            touch_points: corners.touch_points,
            min_internal,
            min_external,
            density,
        }
    }

    /// Extracts features of the pattern transformed by `orientation`
    /// (the paper generates eight feature sets per training pattern).
    pub fn extract_oriented(
        window: &Rect,
        rects: &[Rect],
        orientation: Orientation,
        config: &FeatureConfig,
    ) -> CriticalFeatures {
        let local: Vec<Rect> = rects
            .iter()
            .filter_map(|r| r.intersection(window))
            .map(|r| r.translate(-window.min()))
            .collect();
        let (w, h) = (window.width(), window.height());
        let oriented = orientation.apply_rects(&local, w, h);
        let (tw, th) = orientation.window(w, h);
        let twin = Rect::from_extents(0, 0, tw, th);
        CriticalFeatures::extract(&twin, &oriented, config)
    }

    /// Flattens the features into an SVM input vector:
    /// `[kind, dx, dy, w, h, boundary]` per rule rectangle (canonical
    /// order), followed by the five nontopological features.
    pub fn to_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.rules.len() * 6 + 5);
        for r in &self.rules {
            v.push(r.kind.code());
            v.push(r.dx as f64);
            v.push(r.dy as f64);
            v.push(r.width as f64);
            v.push(r.height as f64);
            v.push(if r.boundary { 1.0 } else { 0.0 });
        }
        v.push(self.corner_count as f64);
        v.push(self.touch_points as f64);
        v.push(self.min_internal as f64);
        v.push(self.min_external as f64);
        v.push(self.density);
        v
    }

    /// Flattens to exactly `len` values: truncating or zero-padding the rule
    /// section while always keeping the five nontopological features at the
    /// tail. Used when evaluating a clip against a kernel trained on a
    /// cluster with a different rule count.
    ///
    /// # Panics
    ///
    /// Panics if `len < 5`.
    pub fn to_vector_padded(&self, len: usize) -> Vec<f64> {
        assert!(len >= 5, "padded vector must hold the nontopological tail");
        let full = self.to_vector();
        let rules_len = len - 5;
        let mut v = Vec::with_capacity(len);
        let have_rules = full.len() - 5;
        v.extend_from_slice(&full[..rules_len.min(have_rules)]);
        v.resize(rules_len, 0.0);
        v.extend_from_slice(&full[have_rules..]);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Rect {
        Rect::from_extents(0, 0, 120, 120)
    }

    fn cfg() -> FeatureConfig {
        FeatureConfig::default()
    }

    #[test]
    fn empty_window_has_no_rules() {
        let f = CriticalFeatures::extract(&window(), &[], &cfg());
        // The single full-window space tile has 4 boundary edges: no rules.
        assert!(f.rules.is_empty());
        assert_eq!(f.corner_count, 0);
        assert_eq!(f.density, 0.0);
        assert_eq!(f.min_internal, 120);
    }

    #[test]
    fn isolated_block_yields_internal_feature() {
        let f = CriticalFeatures::extract(&window(), &[Rect::from_extents(40, 40, 70, 60)], &cfg());
        let internals: Vec<_> = f
            .rules
            .iter()
            .filter(|r| r.kind == FeatureKind::Internal)
            .collect();
        assert!(!internals.is_empty());
        assert!(internals.iter().any(|r| r.width == 30 && r.height == 20));
        assert_eq!(f.corner_count, 4);
        assert_eq!(f.min_internal, 20);
    }

    #[test]
    fn two_bars_yield_external_spacing() {
        let rects = [
            Rect::from_extents(10, 40, 50, 60),
            Rect::from_extents(70, 40, 110, 60),
        ];
        let f = CriticalFeatures::extract(&window(), &rects, &cfg());
        let ext: Vec<_> = f
            .rules
            .iter()
            .filter(|r| r.kind == FeatureKind::External)
            .collect();
        assert!(ext.iter().any(|r| r.width == 20), "spacing of 20 expected");
        assert_eq!(f.min_external, 20);
    }

    #[test]
    fn diagonal_blocks_yield_diagonal_feature() {
        let rects = [
            Rect::from_extents(10, 10, 40, 40),
            Rect::from_extents(70, 70, 110, 110),
        ];
        let f = CriticalFeatures::extract(&window(), &rects, &cfg());
        let diag: Vec<_> = f
            .rules
            .iter()
            .filter(|r| r.kind == FeatureKind::Diagonal)
            .collect();
        assert!(!diag.is_empty());
        assert!(diag.iter().any(|r| r.width == 30 && r.height == 30));
    }

    #[test]
    fn boundary_spaces_yield_segment_features() {
        // A vertical bar through the middle leaves two boundary-hugging
        // space tiles with 3 boundary edges each.
        let f = CriticalFeatures::extract(&window(), &[Rect::from_extents(50, 0, 70, 120)], &cfg());
        let segs: Vec<_> = f
            .rules
            .iter()
            .filter(|r| r.kind == FeatureKind::Segment)
            .collect();
        assert_eq!(segs.len(), 2);
        assert!(segs.iter().all(|r| r.boundary));
    }

    #[test]
    fn same_topology_same_vector_length() {
        // Two patterns with identical topology but different dimensions
        // must produce equally long feature vectors (the property the paper
        // relies on for per-cluster kernels).
        let a = CriticalFeatures::extract(&window(), &[Rect::from_extents(40, 40, 70, 60)], &cfg());
        let b = CriticalFeatures::extract(&window(), &[Rect::from_extents(30, 50, 80, 70)], &cfg());
        assert_eq!(a.to_vector().len(), b.to_vector().len());
    }

    #[test]
    fn vector_layout() {
        let f = CriticalFeatures::extract(&window(), &[Rect::from_extents(40, 40, 70, 60)], &cfg());
        let v = f.to_vector();
        assert_eq!(v.len(), f.rules.len() * 6 + 5);
        // Tail is the nontopological block.
        let n = v.len();
        assert_eq!(v[n - 5], f.corner_count as f64);
        assert_eq!(v[n - 1], f.density);
    }

    #[test]
    fn padded_vector_preserves_nontopological_tail() {
        let f = CriticalFeatures::extract(&window(), &[Rect::from_extents(40, 40, 70, 60)], &cfg());
        let full = f.to_vector();
        // Pad up.
        let padded = f.to_vector_padded(full.len() + 12);
        assert_eq!(padded.len(), full.len() + 12);
        assert_eq!(&padded[padded.len() - 5..], &full[full.len() - 5..]);
        // Truncate down.
        let truncated = f.to_vector_padded(11);
        assert_eq!(truncated.len(), 11);
        assert_eq!(&truncated[6..], &full[full.len() - 5..]);
    }

    #[test]
    fn density_feature_is_exact() {
        let f = CriticalFeatures::extract(&window(), &[Rect::from_extents(0, 0, 60, 120)], &cfg());
        assert!((f.density - 0.5).abs() < 1e-12);
    }

    #[test]
    fn touching_pair_counts_touch_point() {
        let rects = [
            Rect::from_extents(10, 10, 40, 40),
            Rect::from_extents(40, 40, 80, 80),
        ];
        let f = CriticalFeatures::extract(&window(), &rects, &cfg());
        assert_eq!(f.touch_points, 1);
    }

    #[test]
    fn oriented_extraction_preserves_feature_count() {
        let rects = [
            Rect::from_extents(0, 0, 50, 20),
            Rect::from_extents(70, 40, 110, 60),
        ];
        let base = CriticalFeatures::extract(&window(), &rects, &cfg());
        for o in hotspot_geom::D8 {
            let f = CriticalFeatures::extract_oriented(&window(), &rects, o, &cfg());
            assert_eq!(
                f.rules.len(),
                base.rules.len(),
                "rule count changed under {o}"
            );
            assert_eq!(f.corner_count, base.corner_count, "{o}");
            assert!((f.density - base.density).abs() < 1e-12, "{o}");
        }
    }

    #[test]
    fn mountain_pattern_extracts_multiple_feature_kinds() {
        // A "mountain" in the spirit of Fig. 8: a wide base with a peak,
        // flanked by two towers.
        let rects = [
            Rect::from_extents(0, 0, 120, 20),    // base
            Rect::from_extents(45, 20, 75, 60),   // peak
            Rect::from_extents(5, 40, 25, 110),   // left tower
            Rect::from_extents(95, 40, 115, 110), // right tower
        ];
        let f = CriticalFeatures::extract(&window(), &rects, &cfg());
        let kinds: std::collections::BTreeSet<_> = f.rules.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&FeatureKind::Internal), "kinds: {kinds:?}");
        assert!(kinds.contains(&FeatureKind::External), "kinds: {kinds:?}");
        assert!(
            f.rules.len() >= 5,
            "expected several features, got {}",
            f.rules.len()
        );
    }
}

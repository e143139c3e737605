//! Streaming tiled layout traversal for full-layout hotspot scans.
//!
//! The paper evaluates density-filtered clips over the *whole* testing
//! layout (§IV-E). Materializing every candidate clip up front is fine for
//! clip-sized benchmarks but not for production-scale layouts, so this
//! module walks a layout in bounded-size **tiles**: square regions of a
//! configurable stride, each yielded together with a surrounding *halo* so
//! that any clip whose core anchor falls inside the tile's region can be
//! evaluated from the tile alone.
//!
//! - [`TileSpec`] fixes the tile stride and halo width,
//! - [`TileGrid`] maps the layout bounding box onto a row-major tile grid,
//! - [`TileScanner`] iterates the non-empty tiles, querying a
//!   [`GridIndex`] per tile so each step is
//!   sublinear in the layout size.
//!
//! Tile *regions* partition the plane, so every geometry-derived anchor
//! point belongs to exactly one tile — the ownership rule that lets a tiled
//! scan reproduce a whole-layout scan exactly.
//!
//! ```
//! use hotspot_layout::{scan::{TileScanner, TileSpec}, LayerId, Layout};
//! use hotspot_geom::Rect;
//!
//! let mut layout = Layout::new("chip");
//! layout.add_rect(LayerId::METAL1, Rect::from_extents(0, 0, 400, 200));
//! layout.add_rect(LayerId::METAL1, Rect::from_extents(20_000, 0, 20_400, 200));
//!
//! let spec = TileSpec::new(4800, 3000)?;
//! let tiles: Vec<_> = TileScanner::new(&layout, LayerId::METAL1, spec).collect();
//! // Only non-empty tiles are yielded, and each rect's bottom-left anchor
//! // is owned by exactly one tile (halo windows may see it from others).
//! assert!(tiles.iter().all(|t| !t.rects.is_empty()));
//! for r in [Rect::from_extents(0, 0, 400, 200), Rect::from_extents(20_000, 0, 20_400, 200)] {
//!     let owners = tiles.iter().filter(|t| t.region.contains_point(r.min())).count();
//!     assert_eq!(owners, 1);
//! }
//! # Ok::<(), hotspot_layout::scan::TileSpecError>(())
//! ```

use crate::{LayerId, Layout};
use hotspot_geom::{Coord, GridIndex, Point, Rect};
use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over a byte slice — the same hash the tile cache frames
/// its lines with, reimplemented here so the layout crate stays standalone.
fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Error constructing a [`TileSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileSpecError {
    /// The tile stride was not positive.
    NonPositiveStride,
    /// The halo width was negative.
    NegativeHalo,
}

impl fmt::Display for TileSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileSpecError::NonPositiveStride => write!(f, "tile stride must be positive"),
            TileSpecError::NegativeHalo => write!(f, "tile halo cannot be negative"),
        }
    }
}

impl std::error::Error for TileSpecError {}

/// Shape of every tile in a scan: the stride of the owned region and the
/// halo added on each side to form the tile window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpec {
    stride: Coord,
    halo: Coord,
}

impl TileSpec {
    /// Creates a tile spec.
    ///
    /// For clip-based detection the halo must be at least
    /// `ambit + core_side` so every clip window anchored inside the region
    /// lies fully inside the tile window.
    ///
    /// # Errors
    ///
    /// Returns [`TileSpecError`] unless `stride > 0` and `halo >= 0`.
    pub fn new(stride: Coord, halo: Coord) -> Result<Self, TileSpecError> {
        if stride <= 0 {
            return Err(TileSpecError::NonPositiveStride);
        }
        if halo < 0 {
            return Err(TileSpecError::NegativeHalo);
        }
        Ok(TileSpec { stride, halo })
    }

    /// The owned-region side length.
    pub fn stride(self) -> Coord {
        self.stride
    }

    /// The halo width on each side of the region.
    pub fn halo(self) -> Coord {
        self.halo
    }
}

/// The row-major tile grid a scan walks: the layout bounding box divided
/// into `cols × rows` regions of [`TileSpec::stride`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    origin: Point,
    spec: TileSpec,
    cols: Coord,
    rows: Coord,
}

impl TileGrid {
    /// Lays a grid over `bbox` (pass the layout/layer bounding box);
    /// `None` yields an empty grid.
    pub fn cover(bbox: Option<Rect>, spec: TileSpec) -> TileGrid {
        match bbox {
            Some(b) if !b.is_empty() => {
                let s = spec.stride;
                TileGrid {
                    origin: b.min(),
                    spec,
                    cols: (b.width() + s - 1) / s,
                    rows: (b.height() + s - 1) / s,
                }
            }
            _ => TileGrid {
                origin: Point::new(0, 0),
                spec,
                cols: 0,
                rows: 0,
            },
        }
    }

    /// Grid columns.
    pub fn cols(&self) -> Coord {
        self.cols
    }

    /// Grid rows.
    pub fn rows(&self) -> Coord {
        self.rows
    }

    /// Total tile count (including tiles that turn out to be empty).
    pub fn tile_count(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// The owned region of tile `(ix, iy)`: a half-open stride × stride
    /// square. Regions partition the covered plane.
    pub fn region(&self, ix: Coord, iy: Coord) -> Rect {
        let s = self.spec.stride;
        Rect::from_origin_size(
            Point::new(self.origin.x + ix * s, self.origin.y + iy * s),
            s,
            s,
        )
    }

    /// The query window of tile `(ix, iy)`: its region inflated by the halo.
    pub fn window(&self, ix: Coord, iy: Coord) -> Rect {
        self.region(ix, iy).inflate(self.spec.halo)
    }
}

/// One yielded tile: its grid coordinates, owned region, halo window, and
/// the (unclipped) layout rectangles overlapping the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    /// Column index in the tile grid.
    pub ix: Coord,
    /// Row index in the tile grid.
    pub iy: Coord,
    /// The owned region; anchor points inside it belong to this tile only.
    pub region: Rect,
    /// The region inflated by the halo; content queries use this window.
    pub window: Rect,
    /// Layout rectangles overlapping the window, in deterministic index
    /// order (full rectangles, not clipped to the window).
    pub rects: Vec<Rect>,
}

impl Tile {
    /// A stable content fingerprint of the geometry visible to this tile:
    /// FNV-1a 64 over the canonicalised (sorted, tile-local) extents of
    /// every rectangle overlapping the window.
    ///
    /// Coordinates are taken relative to the window's bottom-left corner,
    /// so the fingerprint is invariant under translation of the whole
    /// layout (the grid origin is the layout bounding-box corner, which
    /// translates with the content) and under the insertion order of the
    /// rectangles. Any change to the extents or membership of a rect
    /// overlapping the window changes the fingerprint; rects are hashed
    /// unclipped, so edits to a rect's far end outside the window
    /// conservatively invalidate the tile too.
    pub fn content_fingerprint(&self) -> u64 {
        let base = self.window.min();
        let mut locals: Vec<[Coord; 4]> = self
            .rects
            .iter()
            .map(|r| {
                let lo = r.min();
                let hi = r.max();
                [lo.x - base.x, lo.y - base.y, hi.x - base.x, hi.y - base.y]
            })
            .collect();
        locals.sort_unstable();
        let mut h = fnv1a64(FNV_OFFSET, &(locals.len() as u64).to_le_bytes());
        for l in &locals {
            for c in l {
                h = fnv1a64(h, &c.to_le_bytes());
            }
        }
        h
    }
}

/// A streaming iterator over the non-empty tiles of a layout layer.
///
/// Construction dissects the layer once into rectangles and builds a
/// [`GridIndex`]; iteration then yields tiles row-major (bottom-left to
/// top-right), skipping tiles whose window contains no geometry. Memory per
/// step is bounded by one tile's rectangle list — candidate clips are never
/// materialized here.
#[derive(Debug)]
pub struct TileScanner {
    index: GridIndex,
    grid: TileGrid,
    next: Coord,
    emitted: usize,
}

impl TileScanner {
    /// Scans the dissected rectangles of `layer` in `layout`.
    pub fn new(layout: &Layout, layer: LayerId, spec: TileSpec) -> TileScanner {
        TileScanner::from_rects(layout.dissected_rects(layer), spec)
    }

    /// Scans an explicit rectangle soup — the hook for feeding rectangles
    /// from an incremental GDSII reader without building a [`Layout`].
    pub fn from_rects(rects: Vec<Rect>, spec: TileSpec) -> TileScanner {
        // The index cell matches the tile stride so a tile window query
        // touches a constant number of cells.
        let index = GridIndex::build(rects, spec.stride + 2 * spec.halo.max(0));
        let grid = TileGrid::cover(index.bbox(), spec);
        TileScanner {
            index,
            grid,
            next: 0,
            emitted: 0,
        }
    }

    /// The tile grid being walked.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The spatial index backing tile queries.
    pub fn index(&self) -> &GridIndex {
        &self.index
    }

    /// Non-empty tiles yielded so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }
}

impl Iterator for TileScanner {
    type Item = Tile;

    fn next(&mut self) -> Option<Tile> {
        let total = self.grid.cols * self.grid.rows;
        while self.next < total {
            let ix = self.next % self.grid.cols.max(1);
            let iy = self.next / self.grid.cols.max(1);
            self.next += 1;
            let window = self.grid.window(ix, iy);
            let rects = self.index.query(&window);
            if rects.is_empty() {
                continue;
            }
            self.emitted += 1;
            return Some(Tile {
                ix,
                iy,
                region: self.grid.region(ix, iy),
                window,
                rects,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TileSpec {
        TileSpec::new(4800, 3000).unwrap()
    }

    #[test]
    fn spec_validation() {
        assert_eq!(TileSpec::new(0, 10), Err(TileSpecError::NonPositiveStride));
        assert_eq!(TileSpec::new(10, -1), Err(TileSpecError::NegativeHalo));
        let s = TileSpec::new(10, 0).unwrap();
        assert_eq!(s.stride(), 10);
        assert_eq!(s.halo(), 0);
    }

    #[test]
    fn empty_layout_yields_no_tiles() {
        let layout = Layout::new("t");
        let mut scanner = TileScanner::new(&layout, LayerId::METAL1, spec());
        assert_eq!(scanner.grid().tile_count(), 0);
        assert_eq!(scanner.next(), None);
    }

    #[test]
    fn regions_partition_the_bbox() {
        let mut layout = Layout::new("t");
        layout.add_rect(LayerId::METAL1, Rect::from_extents(0, 0, 12_000, 7_000));
        let scanner = TileScanner::new(&layout, LayerId::METAL1, spec());
        let grid = *scanner.grid();
        assert_eq!(grid.cols(), 3);
        assert_eq!(grid.rows(), 2);
        // Adjacent regions touch but do not overlap.
        let a = grid.region(0, 0);
        let b = grid.region(1, 0);
        assert!(!a.overlaps(&b));
        assert_eq!(a.max().x, b.min().x);
        // Windows carry the halo.
        assert_eq!(grid.window(0, 0), a.inflate(3000));
    }

    #[test]
    fn skips_empty_tiles_and_counts() {
        let mut layout = Layout::new("t");
        // Two rects ~5 strides apart: the tiles between them are empty.
        layout.add_rect(LayerId::METAL1, Rect::from_extents(0, 0, 400, 200));
        layout.add_rect(LayerId::METAL1, Rect::from_extents(30_000, 0, 30_400, 200));
        let mut scanner = TileScanner::new(&layout, LayerId::METAL1, spec());
        let tiles: Vec<Tile> = scanner.by_ref().collect();
        assert!(tiles.len() < scanner.grid().tile_count());
        assert_eq!(scanner.emitted(), tiles.len());
        for t in &tiles {
            assert!(!t.rects.is_empty());
            assert_eq!(t.window, t.region.inflate(3000));
        }
    }

    #[test]
    fn every_rect_appears_in_the_tile_owning_its_anchor() {
        let mut layout = Layout::new("t");
        let rects = [
            Rect::from_extents(100, 100, 500, 300),
            Rect::from_extents(5_000, 2_000, 5_400, 2_300),
            Rect::from_extents(9_999, 9_999, 10_200, 10_100),
        ];
        for r in rects {
            layout.add_rect(LayerId::METAL1, r);
        }
        let tiles: Vec<Tile> = TileScanner::new(&layout, LayerId::METAL1, spec()).collect();
        for r in rects {
            let owners: Vec<&Tile> = tiles
                .iter()
                .filter(|t| t.region.contains_point(r.min()))
                .collect();
            assert_eq!(owners.len(), 1, "anchor {:?} owned by one tile", r.min());
            assert!(owners[0].rects.contains(&r));
        }
    }

    #[test]
    fn fingerprint_ignores_order_and_translation_but_not_content() {
        let rects = [
            Rect::from_extents(100, 100, 500, 300),
            Rect::from_extents(700, 100, 900, 400),
            Rect::from_extents(1_500, 900, 1_900, 1_200),
        ];
        let tiles = |rs: &[Rect]| -> Vec<Tile> {
            let mut layout = Layout::new("t");
            for r in rs {
                layout.add_rect(LayerId::METAL1, *r);
            }
            TileScanner::new(&layout, LayerId::METAL1, spec()).collect()
        };
        let base = tiles(&rects);
        assert_eq!(base.len(), 1);
        let fp = base[0].content_fingerprint();

        // Insertion order is canonicalised away.
        let reordered = tiles(&[rects[2], rects[0], rects[1]]);
        assert_eq!(reordered[0].content_fingerprint(), fp);

        // A global translation moves the grid origin with the content.
        let shifted: Vec<Rect> = rects
            .iter()
            .map(|r| r.translate(Point::new(13_337, -4_200)))
            .collect();
        assert_eq!(tiles(&shifted)[0].content_fingerprint(), fp);

        // Perturbing one rect inside the window changes the fingerprint.
        let mut edited = rects;
        edited[1] = Rect::from_extents(700, 100, 901, 400);
        assert_ne!(tiles(&edited)[0].content_fingerprint(), fp);
    }

    #[test]
    fn halo_pulls_in_neighbouring_content() {
        let mut layout = Layout::new("t");
        // Content just across a region border: visible through the halo.
        layout.add_rect(LayerId::METAL1, Rect::from_extents(0, 0, 100, 100));
        layout.add_rect(LayerId::METAL1, Rect::from_extents(5_000, 0, 5_100, 100));
        let tiles: Vec<Tile> = TileScanner::new(&layout, LayerId::METAL1, spec()).collect();
        let first = tiles
            .iter()
            .find(|t| t.region.contains_point(Point::new(0, 0)))
            .unwrap();
        assert!(
            first
                .rects
                .contains(&Rect::from_extents(5_000, 0, 5_100, 100)),
            "halo window must see the neighbour rect"
        );
    }
}

//! Horizontal and vertical tiling of a pattern window.
//!
//! The MTCG construction (Fig. 6) first tiles the core region: the window is
//! cut into *block* tiles (covered by polygons) and *space* tiles. The
//! horizontal tiling cuts at every horizontal polygon edge, producing
//! horizontally maximal tiles; the vertical tiling is its transpose.
//!
//! Both are read off one compressed grid ([`CoverGrid`]) by a sweep over
//! its bands: each band's cells split into alternating runs, a run extends
//! the tile of the band below when that tile has the same extent and kind,
//! and the sweep counts each tile's block neighbours along its axis on the
//! way (the `Ch` or `Cv` edges critical features read, see
//! [`mtcg`](crate::mtcg)). Everything is linear in the grid's cell count.

use hotspot_geom::{CoverGrid, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a tile is covered by polygons or empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileKind {
    /// Covered by layout polygons.
    Block,
    /// Empty space.
    Space,
}

impl fmt::Display for TileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileKind::Block => f.write_str("block"),
            TileKind::Space => f.write_str("space"),
        }
    }
}

/// One tile of a tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tile {
    /// The tile's extent (window coordinates).
    pub rect: Rect,
    /// Block or space.
    pub kind: TileKind,
}

impl Tile {
    /// Number of tile sides lying on the window boundary (0–4).
    pub fn boundary_edges(&self, window: &Rect) -> usize {
        let mut n = 0;
        if self.rect.min().x == window.min().x {
            n += 1;
        }
        if self.rect.max().x == window.max().x {
            n += 1;
        }
        if self.rect.min().y == window.min().y {
            n += 1;
        }
        if self.rect.max().y == window.max().y {
            n += 1;
        }
        n
    }
}

/// Direction of a tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TilingAxis {
    /// Cut at horizontal edges: tiles are horizontally maximal.
    Horizontal,
    /// Cut at vertical edges: tiles are vertically maximal.
    Vertical,
}

/// A complete tiling of a window into block and space tiles.
///
/// ```
/// use hotspot_geom::Rect;
/// use hotspot_topo::{Tiling, TileKind};
///
/// let window = Rect::from_extents(0, 0, 100, 100);
/// let rects = [Rect::from_extents(40, 40, 60, 60)];
/// let t = Tiling::horizontal(&window, &rects);
/// let blocks = t.tiles_of_kind(TileKind::Block).count();
/// assert_eq!(blocks, 1);
/// // Tiles partition the window exactly.
/// let area: i64 = t.tiles().iter().map(|t| t.rect.area()).sum();
/// assert_eq!(area, window.area());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tiling {
    window: Rect,
    axis: TilingAxis,
    tiles: Vec<Tile>,
    spans: Vec<Span>,
    block_neighbours: Vec<u32>,
}

/// A tile's extent in grid-line indices of its tiling's sweep: `lo..hi`
/// along the tiling's maximal direction (x for the horizontal tiling), and
/// `b0..b1` across the bands. A zero-width block has `lo == hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub lo: usize,
    pub hi: usize,
    pub b0: usize,
    pub b1: usize,
    pub kind: TileKind,
}

impl Tiling {
    /// Horizontally tiles `window` around the given polygon rectangles
    /// (clipped to the window).
    pub fn horizontal(window: &Rect, rects: &[Rect]) -> Tiling {
        Tiling::of(&CoverGrid::new(Some(window), rects), TilingAxis::Horizontal)
    }

    /// Vertically tiles `window` (the transpose construction).
    pub fn vertical(window: &Rect, rects: &[Rect]) -> Tiling {
        Tiling::of(&CoverGrid::new(Some(window), rects), TilingAxis::Vertical)
    }

    fn of(grid: &CoverGrid, axis: TilingAxis) -> Tiling {
        let mut tiling = Tiling::empty(axis);
        tiling.rebuild(grid, axis);
        tiling
    }

    /// A tiling with no tiles, whose buffers [`rebuild`](Self::rebuild)
    /// fills.
    pub(crate) fn empty(axis: TilingAxis) -> Tiling {
        Tiling {
            window: Rect::default(),
            axis,
            tiles: Vec::new(),
            spans: Vec::new(),
            block_neighbours: Vec::new(),
        }
    }

    /// Tiles the extent of `grid` (its frame, for a framed grid) along
    /// `axis`, reusing this tiling's buffers.
    pub(crate) fn rebuild(&mut self, grid: &CoverGrid, axis: TilingAxis) {
        self.axis = axis;
        self.tiles.clear();
        self.spans.clear();
        self.block_neighbours.clear();
        let (xs, ys) = (grid.xs(), grid.ys());
        let (Some((&x0, &x1)), Some((&y0, &y1))) =
            (xs.first().zip(xs.last()), ys.first().zip(ys.last()))
        else {
            self.window = Rect::default();
            return;
        };
        self.window = Rect::from_extents(x0, y0, x1, y1);
        match axis {
            TilingAxis::Horizontal => {
                self.sweep(grid.columns(), grid.rows(), |a, b| grid.covers(a, b));
                self.tiles.extend(self.spans.iter().map(|s| Tile {
                    rect: Rect::from_extents(xs[s.lo], ys[s.b0], xs[s.hi], ys[s.b1]),
                    kind: s.kind,
                }));
            }
            TilingAxis::Vertical => {
                self.sweep(grid.rows(), grid.columns(), |a, b| grid.covers(b, a));
                self.tiles.extend(self.spans.iter().map(|s| Tile {
                    rect: Rect::from_extents(xs[s.b0], ys[s.lo], xs[s.b1], ys[s.hi]),
                    kind: s.kind,
                }));
            }
        }
    }

    /// The band sweep over `bands` bands of `cells` cells each, with
    /// `covers(a, b)` the grid's doubled coverage at position `a` along a
    /// band and `b` across the bands.
    ///
    /// A band's tiles are its maximal runs of covered (block) and empty
    /// (space) cells, plus a zero-width block wherever a zero-width rect
    /// crosses the band between two empty cells: the union of touching
    /// x-intervals that the per-band construction of the tiling produces.
    /// A run continues the previous band's tile of the same extent and
    /// kind, so tiles come out maximal across bands and ordered by
    /// `(b0, lo)`.
    ///
    /// Two tiles of one band that meet along the band are neighbours in the
    /// constraint graph along this axis; the pair is counted once, at the
    /// first band both tiles span. Two blocks never meet in a band (their
    /// runs would have merged), so only space tiles gain block neighbours.
    fn sweep(&mut self, cells: usize, bands: usize, covers: impl Fn(usize, usize) -> bool) {
        // A band's runs `(lo, hi, kind)`, then with their tile ids.
        let mut runs: Vec<(usize, usize, TileKind)> = Vec::new();
        let mut below: Vec<(usize, usize, TileKind, usize)> = Vec::new();
        let mut band: Vec<(usize, usize, TileKind, usize)> = Vec::new();
        for j in 0..bands {
            let b = 2 * j + 1;
            let cell = |i: usize| covers(2 * i + 1, b);
            let zero_width_block = |k: usize| covers(2 * k, b) && !cell(k - 1) && !cell(k);
            runs.clear();
            let mut i = 0;
            while i < cells {
                let (start, covered) = (i, cell(i));
                i += 1;
                while i < cells && cell(i) == covered && (covered || !zero_width_block(i)) {
                    i += 1;
                }
                if covered {
                    runs.push((start, i, TileKind::Block));
                } else {
                    runs.push((start, i, TileKind::Space));
                    if i < cells && zero_width_block(i) {
                        runs.push((i, i, TileKind::Block));
                    }
                }
            }

            // Runs and the tiles below are both ordered by extent.
            band.clear();
            let mut k = 0;
            for &(lo, hi, kind) in &runs {
                while below.get(k).is_some_and(|&(l, h, _, _)| (l, h) < (lo, hi)) {
                    k += 1;
                }
                let id = match below.get(k) {
                    Some(&(l, h, kd, id)) if (l, h, kd) == (lo, hi, kind) => {
                        self.spans[id].b1 = j + 1;
                        id
                    }
                    _ => {
                        self.spans.push(Span {
                            lo,
                            hi,
                            b0: j,
                            b1: j + 1,
                            kind,
                        });
                        self.block_neighbours.push(0);
                        self.spans.len() - 1
                    }
                };
                band.push((lo, hi, kind, id));
            }

            for pair in band.windows(2) {
                let (u, v) = (pair[0].3, pair[1].3);
                if j == self.spans[u].b0.max(self.spans[v].b0) {
                    if self.spans[u].kind == TileKind::Block {
                        self.block_neighbours[v] += 1;
                    }
                    if self.spans[v].kind == TileKind::Block {
                        self.block_neighbours[u] += 1;
                    }
                }
            }
            std::mem::swap(&mut below, &mut band);
        }
    }

    /// The tiled window.
    pub fn window(&self) -> &Rect {
        &self.window
    }

    /// The tiling direction.
    pub fn axis(&self) -> TilingAxis {
        self.axis
    }

    /// All tiles, bottom-to-top then left-to-right.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Iterator over tiles of one kind.
    pub fn tiles_of_kind(&self, kind: TileKind) -> impl Iterator<Item = &Tile> {
        self.tiles.iter().filter(move |t| t.kind == kind)
    }

    /// Number of block tiles that tile `i` meets along the tiling's axis:
    /// its block neighbours in `Ch` for the horizontal tiling, in `Cv` for
    /// the vertical one. Always 0 for a block tile.
    pub fn block_neighbours(&self, i: usize) -> usize {
        self.block_neighbours[i] as usize
    }

    /// Tile extents in grid-line indices, parallel to [`tiles`](Self::tiles).
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Rect {
        Rect::from_extents(0, 0, 100, 100)
    }

    fn transpose_rect(r: &Rect) -> Rect {
        Rect::new(r.min().transpose(), r.max().transpose())
    }

    fn tile_area(t: &Tiling) -> i64 {
        t.tiles().iter().map(|t| t.rect.area()).sum()
    }

    #[test]
    fn empty_window_is_one_space_tile() {
        let t = Tiling::horizontal(&window(), &[]);
        assert_eq!(t.tiles().len(), 1);
        assert_eq!(t.tiles()[0].kind, TileKind::Space);
        assert_eq!(t.tiles()[0].rect, window());
    }

    #[test]
    fn full_window_is_one_block_tile() {
        let t = Tiling::horizontal(&window(), &[window()]);
        assert_eq!(t.tiles().len(), 1);
        assert_eq!(t.tiles()[0].kind, TileKind::Block);
    }

    #[test]
    fn centered_square_gives_nine_region_tiling() {
        // Horizontal tiling of a centred square: 3 bands; middle band has
        // space | block | space; outer bands merge into full-width space.
        let t = Tiling::horizontal(&window(), &[Rect::from_extents(40, 40, 60, 60)]);
        assert_eq!(tile_area(&t), window().area());
        assert_eq!(t.tiles_of_kind(TileKind::Block).count(), 1);
        assert_eq!(t.tiles_of_kind(TileKind::Space).count(), 4);
    }

    #[test]
    fn tiles_partition_without_overlap() {
        let rects = [
            Rect::from_extents(0, 0, 30, 100),
            Rect::from_extents(50, 20, 80, 70),
            Rect::from_extents(90, 0, 100, 10),
        ];
        for t in [
            Tiling::horizontal(&window(), &rects),
            Tiling::vertical(&window(), &rects),
        ] {
            assert_eq!(tile_area(&t), window().area());
            let ts = t.tiles();
            for i in 0..ts.len() {
                for j in (i + 1)..ts.len() {
                    assert!(
                        !ts[i].rect.overlaps(&ts[j].rect),
                        "{:?} overlaps {:?}",
                        ts[i],
                        ts[j]
                    );
                }
            }
            // Block area equals input polygon area (inputs are disjoint).
            let block_area: i64 = t
                .tiles_of_kind(TileKind::Block)
                .map(|t| t.rect.area())
                .sum();
            let input_area: i64 = rects.iter().map(|r| r.area()).sum();
            assert_eq!(block_area, input_area);
        }
    }

    #[test]
    fn horizontal_tiles_are_horizontally_maximal() {
        // Space left and right of a block must extend to the window edges.
        let t = Tiling::horizontal(&window(), &[Rect::from_extents(40, 40, 60, 60)]);
        for tile in t.tiles_of_kind(TileKind::Space) {
            let r = tile.rect;
            // Every space tile in the middle band touches the block or edge;
            // tiles in outer bands span the full width.
            if r.min().y < 40 || r.min().y >= 60 {
                assert_eq!(r.width(), 100, "outer space band must be full width");
            }
        }
    }

    #[test]
    fn vertical_is_transpose_of_horizontal() {
        let rects = [
            Rect::from_extents(20, 0, 40, 100),
            Rect::from_extents(60, 30, 90, 80),
        ];
        let h = Tiling::horizontal(&window(), &rects);
        let trects: Vec<Rect> = rects.iter().map(transpose_rect).collect();
        let v = Tiling::vertical(&window(), &trects);
        // Transposing the vertical tiling of transposed input gives the
        // horizontal tiling.
        let mut vt: Vec<Tile> = v
            .tiles()
            .iter()
            .map(|t| Tile {
                rect: transpose_rect(&t.rect),
                kind: t.kind,
            })
            .collect();
        vt.sort_by_key(|t| (t.rect.min().y, t.rect.min().x));
        let mut ht = h.tiles().to_vec();
        ht.sort_by_key(|t| (t.rect.min().y, t.rect.min().x));
        assert_eq!(vt, ht);
    }

    #[test]
    fn overlapping_input_rects_merge() {
        let rects = [
            Rect::from_extents(10, 10, 50, 50),
            Rect::from_extents(30, 10, 70, 50),
        ];
        let t = Tiling::horizontal(&window(), &rects);
        assert_eq!(t.tiles_of_kind(TileKind::Block).count(), 1);
        let block = t.tiles_of_kind(TileKind::Block).next().unwrap();
        assert_eq!(block.rect, Rect::from_extents(10, 10, 70, 50));
    }

    #[test]
    fn boundary_edges_counted() {
        let w = window();
        let corner = Tile {
            rect: Rect::from_extents(0, 0, 10, 10),
            kind: TileKind::Block,
        };
        assert_eq!(corner.boundary_edges(&w), 2);
        let inner = Tile {
            rect: Rect::from_extents(40, 40, 60, 60),
            kind: TileKind::Block,
        };
        assert_eq!(inner.boundary_edges(&w), 0);
        let full = Tile {
            rect: w,
            kind: TileKind::Space,
        };
        assert_eq!(full.boundary_edges(&w), 4);
    }

    #[test]
    fn rects_outside_window_ignored() {
        let t = Tiling::horizontal(&window(), &[Rect::from_extents(200, 200, 300, 300)]);
        assert_eq!(t.tiles_of_kind(TileKind::Block).count(), 0);
    }
}

//! The modified transitive closure graph (MTCG) edges that critical
//! features read.
//!
//! Following Fig. 6 and \[6\], each tiling carries constraint graphs:
//!
//! - the **vertical constraint graph** `Cv`: a directed edge runs from a
//!   tile to any tile directly above it whose x-projection overlaps,
//! - the **horizontal constraint graph** `Ch`: a directed edge runs from a
//!   tile to any tile directly to its right whose y-projection overlaps,
//! - **diagonal edges** (only in the horizontally tiled `Ch`): between two
//!   same-kind tiles whose projections overlap on neither axis, with no
//!   same-kind tile inside the corner region between them.
//!
//! Critical feature extraction reads three parts of these graphs, so only
//! those are built:
//!
//! - `Ch`'s horizontal edges on the horizontal tiling and `Cv`'s vertical
//!   edges on the vertical tiling. Features only ask how many block tiles a
//!   tile meets along the tiling's own axis, and the tiling sweep counts
//!   that per tile ([`Tiling::block_neighbours`]).
//! - `Ch`'s diagonal edges, found here. Every same-kind pair of horizontal
//!   tiles with disjoint projections is a candidate, and its corner region
//!   is tested against all same-kind tiles at once by a prefix-sum query
//!   over the doubled grid ([`CoverGrid`]): `O(1)` per pair instead of a
//!   scan over all tiles.
//!
//! The corner region of a corner-touching or edge-aligned pair is
//! degenerate (zero width or height). The blocking test keeps
//! [`Rect::overlaps`](hotspot_geom::Rect::overlaps)' strict semantics for
//! it: a zero-width region is blocked only by a same-kind tile straddling
//! its line, and a point region never is.

use crate::tiling::{Span, TileKind, Tiling};
use hotspot_geom::{CoverGrid, Rect};

/// Calls `emit` with the tile kind and the corner region of every diagonal
/// edge of the horizontal tiling's `Ch`, in no particular order.
/// `occupancy` holds reusable buffers.
pub(crate) fn diagonal_gaps(
    horizontal: &Tiling,
    grid: &CoverGrid,
    occupancy: &mut Occupancy,
    mut emit: impl FnMut(TileKind, Rect),
) {
    let (xs, ys) = (grid.xs(), grid.ys());
    let spans = horizontal.spans();
    let mut built = false;
    for kind in [TileKind::Block, TileKind::Space] {
        let mut same_kind = std::mem::take(&mut occupancy.same_kind);
        same_kind.clear();
        same_kind.extend(spans.iter().filter(|s| s.kind == kind));
        // Tiles come ordered by first band, so the partners of `a` above
        // it — the only ones whose y-projection can clear a's — form a
        // suffix.
        for (i, a) in same_kind.iter().enumerate() {
            let above = &same_kind[i + 1..];
            let first = above.partition_point(|b| b.b0 < a.b1);
            for b in &above[first..] {
                let Some((x0, x1)) = gap_1d(a.lo, a.hi, b.lo, b.hi) else {
                    continue;
                };
                let (y0, y1) = (a.b1, b.b0);
                if !built {
                    occupancy.build(spans, grid.columns(), grid.rows());
                    built = true;
                }
                if !occupancy.blocked(kind, (x0, x1), (y0, y1)) {
                    emit(kind, Rect::from_extents(xs[x0], ys[y0], xs[x1], ys[y1]));
                }
            }
        }
        occupancy.same_kind = same_kind;
    }
}

/// The gap between two disjoint (or touching) extents, `None` when they
/// overlap.
fn gap_1d(a0: usize, a1: usize, b0: usize, b1: usize) -> Option<(usize, usize)> {
    if a1 <= b0 {
        Some((a1, b0))
    } else if b1 <= a0 {
        Some((b1, a0))
    } else {
        None
    }
}

/// The doubled positions of extent `lo..hi` in grid-line indices: the
/// open spans and interior lines, or the one line of a zero extent (see
/// [`CoverGrid`]). Two extents strictly overlap iff these intersect,
/// unless both are the same zero extent.
fn doubled((lo, hi): (usize, usize)) -> (usize, usize) {
    if lo < hi {
        (2 * lo + 1, 2 * hi - 1)
    } else {
        (2 * lo, 2 * lo)
    }
}

/// Summed-area tables over the doubled grid of a horizontal tiling: how
/// many tiles of a kind have an interior meeting a doubled rectangle, in
/// `O(1)`.
///
/// Block and space counts share one `u64` table, blocks in the low and
/// spaces in the high 32 bits: each field's sums stay below `2^32` (they
/// count grid positions), so wrapping sums and differences of packed
/// values keep the fields apart. Zero-width blocks, which most regions lack,
/// get a table of their own only when present.
#[derive(Debug, Default)]
pub(crate) struct Occupancy {
    stride: usize,
    tiles: Vec<u64>,
    zero_width: Vec<u64>,
    /// The tiles of one kind, for [`diagonal_gaps`].
    same_kind: Vec<Span>,
}

const BLOCK_UNIT: u64 = 1;
const SPACE_UNIT: u64 = 1 << 32;

impl Occupancy {
    fn build(&mut self, spans: &[Span], columns: usize, rows: usize) {
        // Position (X, Y) of the doubled grid lives at (X + 1, Y + 1); row
        // and column 0 stay zero, so the summed areas are exclusive.
        self.stride = 2 * columns + 2;
        let len = self.stride * (2 * rows + 2);
        self.tiles.clear();
        self.tiles.resize(len, 0);
        self.zero_width.clear();
        // Tile interiors are disjoint, so marking each one costs the grid
        // size in all.
        for s in spans {
            let (table, unit) = match s.kind {
                TileKind::Space => (&mut self.tiles, SPACE_UNIT),
                TileKind::Block if s.lo < s.hi => (&mut self.tiles, BLOCK_UNIT),
                TileKind::Block => {
                    self.zero_width.resize(len, 0);
                    (&mut self.zero_width, BLOCK_UNIT)
                }
            };
            let (x0, x1) = doubled((s.lo, s.hi));
            let (y0, y1) = doubled((s.b0, s.b1));
            for y in y0..=y1 {
                let row = (y + 1) * self.stride;
                table[row + x0 + 1..=row + x1 + 1].fill(unit);
            }
        }
        for table in [&mut self.tiles, &mut self.zero_width] {
            summed_areas(table, self.stride);
        }
    }

    /// The summed marks of `table` over the inclusive doubled rectangle
    /// `x0..=x1` × `y0..=y1`.
    fn sum(&self, table: &[u64], (x0, x1): (usize, usize), (y0, y1): (usize, usize)) -> u64 {
        let at = |x: usize, y: usize| table[y * self.stride + x];
        at(x1 + 1, y1 + 1)
            .wrapping_sub(at(x0, y1 + 1))
            .wrapping_sub(at(x1 + 1, y0))
            .wrapping_add(at(x0, y0))
    }

    /// Whether a `kind` tile strictly overlaps ([`Rect::overlaps`]) the
    /// region spanning grid lines `x` × `y`.
    fn blocked(&self, kind: TileKind, x: (usize, usize), y: (usize, usize)) -> bool {
        let (dx, dy) = (doubled(x), doubled(y));
        let tiles = self.sum(&self.tiles, dx, dy);
        match kind {
            TileKind::Space => tiles >> 32 != 0,
            // A zero-width block does not strictly overlap a zero-width
            // region on its own line, though their doubled positions meet.
            TileKind::Block => {
                tiles & (SPACE_UNIT - 1) != 0
                    || (x.0 < x.1
                        && !self.zero_width.is_empty()
                        && self.sum(&self.zero_width, dx, dy) != 0)
            }
        }
    }
}

/// Turns per-position marks into exclusive summed areas, in place.
fn summed_areas(table: &mut [u64], stride: usize) {
    for row in table.chunks_exact_mut(stride) {
        for x in 1..row.len() {
            row[x] = row[x].wrapping_add(row[x - 1]);
        }
    }
    for i in stride..table.len() {
        table[i] = table[i].wrapping_add(table[i - stride]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Rect {
        Rect::from_extents(0, 0, 100, 100)
    }

    fn block_gaps(rects: &[Rect]) -> Vec<Rect> {
        let grid = CoverGrid::new(Some(&window()), rects);
        let tiling = Tiling::horizontal(&window(), rects);
        let mut gaps = Vec::new();
        diagonal_gaps(&tiling, &grid, &mut Occupancy::default(), |kind, g| {
            if kind == TileKind::Block {
                gaps.push(g);
            }
        });
        gaps
    }

    #[test]
    fn corner_touching_blocks_have_a_point_gap() {
        let rects = [
            Rect::from_extents(0, 0, 40, 40),
            Rect::from_extents(40, 40, 80, 80),
        ];
        assert_eq!(block_gaps(&rects), vec![Rect::from_extents(40, 40, 40, 40)]);
    }

    #[test]
    fn separated_blocks_with_empty_corner_are_diagonal() {
        let rects = [
            Rect::from_extents(0, 0, 20, 20),
            Rect::from_extents(60, 60, 90, 90),
        ];
        assert_eq!(block_gaps(&rects), vec![Rect::from_extents(20, 20, 60, 60)]);
    }

    #[test]
    fn block_inside_corner_region_breaks_diagonal_adjacency() {
        let rects = [
            Rect::from_extents(0, 0, 20, 20),
            Rect::from_extents(60, 60, 90, 90),
            Rect::from_extents(30, 30, 50, 50),
        ];
        let gaps = block_gaps(&rects);
        // Corner-to-middle pairs remain adjacent; the outer pair does not.
        assert!(!gaps.contains(&Rect::from_extents(20, 20, 60, 60)));
        assert!(gaps.contains(&Rect::from_extents(20, 20, 30, 30)));
        assert!(gaps.contains(&Rect::from_extents(50, 50, 60, 60)));
    }

    #[test]
    fn straddling_block_blocks_a_zero_width_gap() {
        // The two small blocks share the line x = 40; the bar across it
        // lies inside their zero-width corner region.
        let lone = [
            Rect::from_extents(20, 0, 40, 10),
            Rect::from_extents(40, 80, 60, 90),
        ];
        assert!(block_gaps(&lone).contains(&Rect::from_extents(40, 10, 40, 80)));
        let crossed = [lone[0], lone[1], Rect::from_extents(30, 40, 50, 50)];
        assert!(!block_gaps(&crossed).contains(&Rect::from_extents(40, 10, 40, 80)));
        // A zero-width block on the same line does not block it.
        let on_line = [lone[0], lone[1], Rect::from_extents(40, 40, 40, 50)];
        assert!(block_gaps(&on_line).contains(&Rect::from_extents(40, 10, 40, 80)));
    }

    #[test]
    fn gap_geometry() {
        assert_eq!(gap_1d(0, 1, 3, 4), Some((1, 3)));
        assert_eq!(gap_1d(3, 4, 0, 1), Some((1, 3)));
        assert_eq!(gap_1d(0, 2, 2, 4), Some((2, 2)));
        assert_eq!(gap_1d(0, 3, 2, 4), None);
    }
}

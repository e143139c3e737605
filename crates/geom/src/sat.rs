//! Exact integer summed-area tables over rectangle sets, one per subtile
//! of a scan tile.
//!
//! Rectangle coverage over integer coordinates is an exact integer — no
//! floating point is involved until a single division at the very end of
//! rasterisation. Each table compresses its rectangles' x/y boundaries
//! into a coarse grid of "compressed cells" whose corners carry exact `i64`
//! prefix sums of covered area (the build refuses inputs whose total
//! weighted area could overflow them — over a square metre of geometry).
//! The covered area of an arbitrary query rect is then four corner
//! evaluations.
//!
//! Rasterising a clip's `n × n` density grid through a shared per-tile
//! [`AreaTableGrid`] therefore costs O(n²) corner reads instead of
//! O(clip rects × touched cells) per clip — and because both paths compute
//! the *same* exact integer per cell before one f64 division, the
//! resulting [`DensityGrid`] is bit-identical to [`DensityGrid::from_rects`]
//! on **arbitrary** input. A single pattern rasterises faster with the
//! direct sweep; the tables pay off only when one build serves every clip
//! of a tile.
//!
//! # Multiplicity
//!
//! The direct sweep [`DensityGrid::from_rects`] accumulates the per-rect
//! overlap *sum* into each cell — a point covered by two rects counts twice
//! (the clamp to the cell area happens afterwards). Layouts do produce
//! overlapping dissected rects (per-polygon dissections are disjoint only
//! within one polygon), so a table stores a coverage **multiplicity** per
//! compressed cell rather than a boolean: a corner query is exactly
//! `Σ overlap_area(rect, query)`, and rasterisation applies the sweep's
//! clamp-then-divide per pixel. No disjointness precondition, no fallback
//! on real layouts — the two paths agree bit for bit by construction.
//! (Compressed cells are elementary: no rect edge crosses one, so a
//! per-cell count captures overlap exactly.)

use crate::{Coord, DensityGrid, Point, Rect};
use serde::{Deserialize, Serialize};

/// The density-grid rasterisation strategy: one value, kept so model files
/// that name it (`"raster_mode":"Sat"`) still load. A scan rasterises its
/// clips through per-tile [`AreaTableGrid`]s; single patterns use the
/// direct sweep ([`DensityGrid::from_rects`]). Both are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RasterMode {
    /// Per-tile summed-area tables in scans, the direct sweep elsewhere.
    #[default]
    Sat,
}

/// Holder of the per-table cell cap of [`AreaTableGrid`] builds; it has no
/// values.
pub enum AreaTable {}

impl AreaTable {
    /// Default cap on compressed cells per subtile table: ~4.2 M cells
    /// keeps the largest table under ~120 MiB across the four per-cell
    /// planes.
    pub const DEFAULT_MAX_CELLS: usize = 1 << 22;
}

/// Integrates corner deltas (`diff`, `cx × cy`) into multiplicities and the
/// three prefix planes in one fused row-major sweep: `row_w[j]` is the
/// in-row weighted-width scan, and `col_h[j+1]`/`prefix[j+1]` accumulate
/// from row `j`. Every access is a contiguous row slice and no cell is
/// touched twice. The planes must be exactly sized; every element
/// (including the zero row-0 boundary of `col_h`/`prefix`) is written, so
/// callers may hand over stale storage without pre-zeroing.
#[allow(clippy::too_many_arguments)]
fn sweep_planes(
    xs: &[Coord],
    ys: &[Coord],
    diff: &[i32],
    run: &mut Vec<i32>,
    mult: &mut [u32],
    row_w: &mut [i64],
    col_h: &mut [i64],
    prefix: &mut [i64],
) {
    let cx = xs.len() - 1;
    let cy = ys.len() - 1;
    run.clear();
    run.resize(cx, 0);
    col_h[..cx].fill(0);
    prefix[..cx + 1].fill(0);
    for j in 0..cy {
        let drow = &diff[j * cx..(j + 1) * cx];
        let mrow = &mut mult[j * cx..(j + 1) * cx];
        let rrow = &mut row_w[j * (cx + 1)..(j + 1) * (cx + 1)];
        let row_h = ys[j + 1] - ys[j];
        let (ch_done, ch_next) = col_h.split_at_mut((j + 1) * cx);
        let ch_prev = &ch_done[j * cx..];
        let (p_done, p_next) = prefix.split_at_mut((j + 1) * (cx + 1));
        let p_prev = &p_done[j * (cx + 1)..];
        let mut row_acc = 0i32;
        let mut w_acc = 0i64;
        for i in 0..cx {
            row_acc += drow[i];
            run[i] += row_acc;
            let m = run[i] as u32;
            mrow[i] = m;
            rrow[i] = w_acc;
            p_next[i] = p_prev[i] + w_acc * row_h;
            w_acc += m as i64 * (xs[i + 1] - xs[i]);
            ch_next[i] = ch_prev[i] + m as i64 * row_h;
        }
        rrow[cx] = w_acc;
        p_next[cx] = p_prev[cx] + w_acc * row_h;
    }
}

/// Borrowed view of one compressed table's planes: one subtile's ranges
/// inside an [`AreaTableGrid`]'s shared arenas. All-empty slices denote a
/// zero-coverage table.
struct TableView<'a> {
    xs: &'a [Coord],
    ys: &'a [Coord],
    mult: &'a [u32],
    prefix: &'a [i64],
    col_h: &'a [i64],
    row_w: &'a [i64],
}

/// Fills `out[k] = (b, i, f)` for each pixel boundary `b = min + ⌊k·span/n⌋`:
/// `i` the compressed interval holding the clamped boundary (last index with
/// `axis[i] <= b`), `f` the partial extent `b - axis[i]`. Boundaries ascend,
/// so one remainder carry generates them and one merge walk indexes them.
fn fill_bounds(
    out: &mut [(Coord, usize, Coord)],
    min: Coord,
    span: Coord,
    n: usize,
    axis: &[Coord],
    empty: bool,
) {
    let n = n as Coord;
    let step = span / n;
    let rem = span % n;
    let mut b = min;
    let mut carry: Coord = 0;
    let mut walk = 0usize;
    let hi = axis.len().saturating_sub(1);
    for slot in out.iter_mut() {
        *slot = if empty {
            (b, 0, 0)
        } else {
            let bc = b.clamp(axis[0], axis[hi]);
            while walk < hi && axis[walk + 1] <= bc {
                walk += 1;
            }
            (b, walk, bc - axis[walk])
        };
        b += step;
        carry += rem;
        if carry >= n {
            carry -= n;
            b += 1;
        }
    }
}

/// The rasterisation kernel behind [`AreaTableGrid::rasterize`], writing
/// every element of `cells` (`nx * ny` long; prior contents are ignored).
///
/// # Panics
///
/// Panics if `nx` or `ny` is zero or the window is empty.
fn rasterize_view(t: &TableView<'_>, window: &Rect, nx: usize, ny: usize, cells: &mut [f64]) {
    assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
    assert!(!window.is_empty(), "window must be non-empty");
    debug_assert_eq!(cells.len(), nx * ny);
    // Stack buffers for the common case (clip grids are 8×8; anything
    // up to 32×32 stays off the heap). `STACK + 1` boundary entries.
    const STACK: usize = 32;
    let w = window.width();
    let h = window.height();
    // Pixel boundaries in absolute coordinates: the same exact integer
    // splits `floor(k·w/n)` as `DensityGrid::from_rects` uses in local
    // coordinates, shifted by the window origin. Alongside each
    // boundary, its compressed column/row index and partial-strip
    // extent. Pixel boundaries ascend, so a monotone merge walk finds
    // each index — no per-boundary binary search.
    let mut bx_buf = [(0 as Coord, 0usize, 0 as Coord); STACK + 1];
    let mut bx_vec = Vec::new();
    let bx: &mut [(Coord, usize, Coord)] = if nx < STACK + 1 {
        &mut bx_buf[..nx + 1]
    } else {
        bx_vec.resize(nx + 1, (0, 0, 0));
        &mut bx_vec
    };
    let mut by_buf = [(0 as Coord, 0usize, 0 as Coord); STACK + 1];
    let mut by_vec = Vec::new();
    let by: &mut [(Coord, usize, Coord)] = if ny < STACK + 1 {
        &mut by_buf[..ny + 1]
    } else {
        by_vec.resize(ny + 1, (0, 0, 0));
        &mut by_vec
    };
    // Boundary positions `min + floor(k·w/n)` are generated incrementally
    // (two divisions per axis, then a Bresenham-style remainder carry), and
    // their compressed indices by a monotone merge walk — no per-boundary
    // division or binary search.
    let empty = t.xs.is_empty();
    fill_bounds(bx, window.min().x, w, nx, t.xs, empty);
    fill_bounds(by, window.min().y, h, ny, t.ys, empty);

    if empty {
        cells.fill(0.0);
        return;
    }
    let cx = t.xs.len() - 1;

    // Stream the corner grid two rows at a time: compute corner row
    // `pj`, then emit pixel row `pj - 1` from the previous and current
    // rows — no (nx+1)×(ny+1) corner plane. All arithmetic is exact
    // `i64` by the build-time magnitude check.
    let mut prev_buf = [0i64; STACK + 1];
    let mut cur_buf = [0i64; STACK + 1];
    let mut prev_vec = Vec::new();
    let mut cur_vec = Vec::new();
    let (mut prev, mut cur): (&mut [i64], &mut [i64]) = if nx < STACK + 1 {
        (&mut prev_buf[..nx + 1], &mut cur_buf[..nx + 1])
    } else {
        prev_vec.resize(nx + 1, 0i64);
        cur_vec.resize(nx + 1, 0i64);
        (&mut prev_vec, &mut cur_vec)
    };
    let uniform = w % nx as Coord == 0 && h % ny as Coord == 0;
    for pj in 0..=ny {
        let (_, j, fy) = by[pj];
        // `j == cy` can occur (query at or above the top boundary),
        // but only with `fy == 0`; the partial-row planes have no row
        // there, so they are sliced inside the `fy > 0` arm.
        let prefix_row = &t.prefix[j * (cx + 1)..(j + 1) * (cx + 1)];
        let col_h_row = &t.col_h[j * cx..(j + 1) * cx];
        let (row_w_row, mult_row): (&[i64], &[u32]) = if fy > 0 {
            (
                &t.row_w[j * (cx + 1)..(j + 1) * (cx + 1)],
                &t.mult[j * cx..(j + 1) * cx],
            )
        } else {
            (&[], &[])
        };
        // Bulk corner-row fill with the `fy` test hoisted out of the
        // per-boundary loop.
        if fy > 0 {
            for (slot, &(_, i, fx)) in cur.iter_mut().zip(bx.iter()) {
                let mut area = prefix_row[i] + fy * row_w_row[i];
                if fx > 0 {
                    area += fx * col_h_row[i] + fx * fy * mult_row[i] as i64;
                }
                *slot = area;
            }
        } else {
            for (slot, &(_, i, fx)) in cur.iter_mut().zip(bx.iter()) {
                let mut area = prefix_row[i];
                if fx > 0 {
                    area += fx * col_h_row[i];
                }
                *slot = area;
            }
        }
        if pj > 0 {
            let py = pj - 1;
            let row_h = by[pj].0 - by[py].0;
            let out = &mut cells[py * nx..(py + 1) * nx];
            // Raw per-cell coverage is a non-negative weighted area, so a
            // zero row-strip total means every cell in the row is zero —
            // the whole row of clamps, conversions and divisions drops
            // out. Per cell, `0 / a == +0.0` and `a / a == 1.0` exactly
            // in IEEE-754, so empty and saturated cells skip the division
            // the direct sweep would perform without changing a single bit.
            if cur[nx] - prev[nx] == cur[0] - prev[0] {
                out.fill(0.0);
            } else if uniform {
                // Every cell has the same area (the window divides the
                // grid evenly — the production clip shape always does),
                // so the zero-area guard and per-pixel width lookup drop
                // out.
                let cell_area = (w / nx as Coord) * row_h;
                for px in 0..nx {
                    let covered = cur[px + 1] - prev[px + 1] - cur[px] + prev[px];
                    let covered = covered.clamp(0, cell_area);
                    out[px] = if covered == 0 {
                        0.0
                    } else if covered == cell_area {
                        1.0
                    } else {
                        covered as f64 / cell_area as f64
                    };
                }
            } else {
                for px in 0..nx {
                    let cell_area = (bx[px + 1].0 - bx[px].0) * row_h;
                    if cell_area == 0 {
                        out[px] = 0.0;
                        continue;
                    }
                    let covered = cur[px + 1] - prev[px + 1] - cur[px] + prev[px];
                    let covered = covered.clamp(0, cell_area);
                    out[px] = if covered == 0 {
                        0.0
                    } else if covered == cell_area {
                        1.0
                    } else {
                        covered as f64 / cell_area as f64
                    };
                }
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
}

/// A grid of padded per-subtile summed-area tables covering one scan tile.
///
/// One tile-wide table costs O(R²) compressed cells for R tile rects —
/// the coordinate compression crosses *every* x boundary with *every* y
/// boundary, even for geometry at opposite corners of the tile. Splitting
/// the tile's owned region into `stride × stride` subtiles keeps boundary
/// crossings local: with rects spread over k×k subtiles the total cell
/// count (and thus build time) drops ~k²-fold.
///
/// Each subtile's table is built over the rects clipped to its *padded*
/// window — padded by `pad` on the +x/+y sides — so that any query window
/// up to `pad` wide anchored inside the subtile fits entirely within one
/// table. Clipping does not change coverage (or multiplicity) inside the
/// padded window, so [`AreaTableGrid::rasterize`] through the owning
/// subtile stays bit-identical to the direct sweep over the full rect
/// set.
///
/// Subtiles whose clipped rect soup would exceed the per-table cell cap
/// (or the exact-`i64` area bound) have no table; [`AreaTableGrid::rasterize`]
/// returns `None` there and callers fall back to the direct sweep for
/// those windows.
#[derive(Debug, Clone)]
pub struct AreaTableGrid {
    origin: Point,
    stride: Coord,
    pad: Coord,
    cols: usize,
    rows: usize,
    slots: Vec<SubSlot>,
    // Shared arenas: every subtile table's boundary and plane storage
    // lives in six flat vectors (offsets in `SubSlot::Table`), so building
    // thousands of small subtile tables costs a handful of large
    // allocations rather than six each — per-table allocation is the
    // dominant build cost at production subtile pitches.
    xs: Vec<Coord>,
    ys: Vec<Coord>,
    mult: Vec<u32>,
    prefix: Vec<i64>,
    col_h: Vec<i64>,
    row_w: Vec<i64>,
    // Build-time scratch retained across rebuilds so a scan worker's
    // per-tile table build stops paying allocation and zeroing: arenas and
    // scratch vectors are grown once and overwritten thereafter.
    scratch: BuildScratch,
}

/// Retained scratch for [`AreaTableGrid`] rebuilds. Contents are stale
/// between builds by design; every consumer overwrites (or epoch-guards)
/// what it reads.
#[derive(Debug, Clone, Default)]
struct BuildScratch {
    /// Bucket offsets of the counting sort (`nslots + 1`).
    start: Vec<usize>,
    /// Scatter cursors / bucket end offsets (`nslots`).
    cursor: Vec<usize>,
    /// Clipped rects, bucket-contiguous.
    flat: Vec<Rect>,
    /// Compressed x-index of each clipped rect's min/max edge.
    ex: Vec<u32>,
    /// Compressed y-index of each clipped rect's min/max edge.
    ey: Vec<u32>,
    /// Epoch marks over the dense boundary span (presence test).
    stamp: Vec<u64>,
    /// Dense boundary-offset → compressed-index lookup.
    lut: Vec<u32>,
    /// Monotone epoch for `stamp` (never reset, so stale marks never
    /// collide).
    epoch: u64,
    /// Unique sorted x boundaries of the current bucket.
    xs_tmp: Vec<Coord>,
    /// Unique sorted y boundaries of the current bucket.
    ys_tmp: Vec<Coord>,
    /// Tagged `(value, edge)` pairs for the wide-span sort fallback.
    pairs: Vec<(Coord, u32)>,
    /// Corner-delta plane of the current bucket.
    diff: Vec<i32>,
    /// Running column accumulator of the plane sweep.
    run: Vec<i32>,
}

/// One subtile's entry in an [`AreaTableGrid`].
#[derive(Debug, Clone, Copy)]
enum SubSlot {
    /// No geometry intersects the padded window — rasterises to zeros.
    Empty,
    /// Table refused (cell cap or exact-`i64` area bound); queries here
    /// fall back to the direct sweep.
    Refused,
    /// Offsets of this subtile's boundary/plane ranges in the arenas.
    Table {
        xs_start: usize,
        xs_len: usize,
        ys_start: usize,
        ys_len: usize,
        mult_start: usize,
        prefix_start: usize,
        col_h_start: usize,
        row_w_start: usize,
    },
}

/// An empty grid covering nothing: every query window misses and returns
/// `None` (direct-sweep fallback). The useful starting point for
/// [`AreaTableGrid::rebuild_for`]'s allocation-retaining rebuild cycle.
impl Default for AreaTableGrid {
    fn default() -> Self {
        AreaTableGrid {
            origin: Point::ORIGIN,
            stride: 1,
            pad: 0,
            cols: 0,
            rows: 0,
            slots: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            mult: Vec::new(),
            prefix: Vec::new(),
            col_h: Vec::new(),
            row_w: Vec::new(),
            scratch: BuildScratch::default(),
        }
    }
}

impl AreaTableGrid {
    /// Builds padded subtile tables over `region` from `rects`.
    ///
    /// `region` is the area query anchors live in (a scan tile's owned
    /// region); `stride` the subtile pitch; `pad` the maximum query-window
    /// extent beyond its anchor subtile (a scan's core side). Rects outside
    /// every padded window are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty, `stride <= 0`, or `pad < 0`.
    pub fn build(
        region: &Rect,
        stride: Coord,
        pad: Coord,
        rects: &[Rect],
        max_cells_per_table: usize,
    ) -> AreaTableGrid {
        let mut grid = AreaTableGrid::default();
        grid.rebuild_impl(region, stride, pad, rects, max_cells_per_table, None);
        grid
    }

    /// [`AreaTableGrid::build`] restricted to the subtiles that anchor at
    /// least one of `windows` (and fully contain it within their padding):
    /// the caller already knows every query window it will rasterise, so
    /// subtiles nothing anchors in skip table compilation entirely. Their
    /// queries — which the caller said will not happen — simply return
    /// `None` (direct-sweep fallback), so the restriction is invisible to
    /// correctness.
    pub fn build_for(
        region: &Rect,
        stride: Coord,
        pad: Coord,
        rects: &[Rect],
        max_cells_per_table: usize,
        windows: &[Rect],
    ) -> AreaTableGrid {
        let mut grid = AreaTableGrid::default();
        grid.rebuild_for(region, stride, pad, rects, max_cells_per_table, windows);
        grid
    }

    /// [`AreaTableGrid::build_for`] into an existing grid, retaining its
    /// arena and scratch allocations: a scan worker rebuilding tables tile
    /// after tile stops paying allocation and zeroing for storage it
    /// already grew. The previous contents are fully replaced.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty, `stride <= 0`, or `pad < 0`.
    pub fn rebuild_for(
        &mut self,
        region: &Rect,
        stride: Coord,
        pad: Coord,
        rects: &[Rect],
        max_cells_per_table: usize,
        windows: &[Rect],
    ) {
        assert!(!region.is_empty(), "region must be non-empty");
        assert!(stride > 0, "stride must be positive");
        assert!(pad >= 0, "pad must be non-negative");
        let origin = region.min();
        let cols = usize::try_from((region.width() + stride - 1) / stride).expect("cols overflow");
        let rows = usize::try_from((region.height() + stride - 1) / stride).expect("rows overflow");
        let mut wanted = vec![false; cols * rows];
        for w in windows {
            let dx = w.min().x - origin.x;
            let dy = w.min().y - origin.y;
            if dx < 0 || dy < 0 {
                continue;
            }
            let (Ok(c), Ok(q)) = (usize::try_from(dx / stride), usize::try_from(dy / stride))
            else {
                continue;
            };
            if c >= cols || q >= rows {
                continue;
            }
            let win_max_x = origin.x + (c as Coord + 1) * stride + pad;
            let win_max_y = origin.y + (q as Coord + 1) * stride + pad;
            if w.max().x <= win_max_x && w.max().y <= win_max_y {
                wanted[q * cols + c] = true;
            }
        }
        self.rebuild_impl(
            region,
            stride,
            pad,
            rects,
            max_cells_per_table,
            Some(&wanted),
        );
    }

    fn rebuild_impl(
        &mut self,
        region: &Rect,
        stride: Coord,
        pad: Coord,
        rects: &[Rect],
        max_cells_per_table: usize,
        wanted: Option<&[bool]>,
    ) {
        assert!(!region.is_empty(), "region must be non-empty");
        assert!(stride > 0, "stride must be positive");
        assert!(pad >= 0, "pad must be non-negative");
        let origin = region.min();
        let cols = usize::try_from((region.width() + stride - 1) / stride).expect("cols overflow");
        let rows = usize::try_from((region.height() + stride - 1) / stride).expect("rows overflow");
        let nslots = cols * rows;
        self.origin = origin;
        self.stride = stride;
        self.pad = pad;
        self.cols = cols;
        self.rows = rows;
        // Disjoint field borrows: `scratch` on one side, the slot list and
        // arenas on the other.
        let BuildScratch {
            start,
            cursor,
            flat,
            ex,
            ey,
            stamp,
            lut,
            epoch,
            xs_tmp,
            ys_tmp,
            pairs,
            diff,
            run,
        } = &mut self.scratch;

        // Subtile (c, q)'s padded window spans
        // `[origin + c·stride, origin + (c+1)·stride + pad)` per axis;
        // floor-divide a rect's extents to the subtile range it intersects
        // (coordinates may be negative — halo geometry).
        let span = |r: &Rect| -> Option<(usize, usize, usize, usize)> {
            if r.is_empty() {
                return None;
            }
            let c_lo = (r.min().x - origin.x - pad).div_euclid(stride).max(0);
            let c_hi = (r.max().x - origin.x - 1).div_euclid(stride);
            let q_lo = (r.min().y - origin.y - pad).div_euclid(stride).max(0);
            let q_hi = (r.max().y - origin.y - 1).div_euclid(stride);
            if c_hi < 0 || q_hi < 0 || c_lo as usize >= cols || q_lo as usize >= rows {
                return None;
            }
            Some((
                c_lo as usize,
                (c_hi as usize).min(cols - 1),
                q_lo as usize,
                (q_hi as usize).min(rows - 1),
            ))
        };

        // Counting-sort the clipped rects into one flat bucket array: a
        // count pass sizes every bucket, a scatter pass fills them — no
        // per-subtile `Vec` growth.
        start.clear();
        start.resize(nslots + 1, 0);
        for r in rects {
            if let Some((c0, c1, q0, q1)) = span(r) {
                for q in q0..=q1 {
                    for c in c0..=c1 {
                        start[q * cols + c + 1] += 1;
                    }
                }
            }
        }
        for s in 0..nslots {
            start[s + 1] += start[s];
        }
        cursor.clear();
        cursor.extend_from_slice(&start[..nslots]);
        // Stale tails and scatter holes are never read: every bucket read
        // is `flat[start[s]..cursor[s]]`.
        flat.truncate(start[nslots]);
        flat.resize(start[nslots], Rect::default());
        for r in rects {
            if let Some((c0, c1, q0, q1)) = span(r) {
                for q in q0..=q1 {
                    for c in c0..=c1 {
                        let win = Rect::from_extents(
                            origin.x + c as Coord * stride,
                            origin.y + q as Coord * stride,
                            origin.x + (c as Coord + 1) * stride + pad,
                            origin.y + (q as Coord + 1) * stride + pad,
                        );
                        if let Some(clipped) = r.intersection(&win) {
                            let s = q * cols + c;
                            flat[cursor[s]] = clipped;
                            cursor[s] += 1;
                        }
                    }
                }
            }
        }

        self.slots.clear();
        self.xs.clear();
        self.ys.clear();
        // Pass 1: boundary-compress each bucket and lay out every
        // subtile's plane ranges, so the plane arenas can be allocated
        // zeroed at exactly their final size — no growth reallocation and
        // no double zeroing, which dominate an incremental arena build.
        // Per-edge compressed indices (edge `2k`/`2k+1` = bucket rect `k`'s
        // min/max edge), so pass 2 marks corner deltas with zero binary
        // searches. Bucket edge values are clipped into the subtile's padded
        // window, so they fall in a dense span of `stride + pad + 1`
        // offsets: an epoch-stamped dedup plus a direct value→index lookup
        // table indexes every edge in O(1), and only the ~dozens of unique
        // boundaries are ever sorted. (Beyond `FAST_SPAN` the tables would
        // outweigh the sort they replace; fall back to sorting tagged
        // pairs.)
        const FAST_SPAN: i64 = 1 << 16;
        let span_len = stride + pad + 1;
        let fast = span_len <= FAST_SPAN;
        if fast && stamp.len() < span_len as usize {
            stamp.resize(span_len as usize, 0);
            lut.resize(span_len as usize, 0);
        }
        ex.truncate(2 * flat.len());
        ex.resize(2 * flat.len(), 0);
        ey.truncate(2 * flat.len());
        ey.resize(2 * flat.len(), 0);
        let mut mult_total = 0usize;
        let mut prefix_total = 0usize;
        let mut col_h_total = 0usize;
        let mut row_w_total = 0usize;
        for s in 0..nslots {
            // `cursor[s]`, not `start[s + 1]`: a rect counted into a bucket
            // but clipped to nothing would leave a hole at the tail.
            let bucket = &flat[start[s]..cursor[s]];
            if bucket.is_empty() {
                self.slots.push(SubSlot::Empty);
                continue;
            }
            // A subtile no caller-declared window anchors in skips table
            // compilation; `Refused` keeps any unexpected query correct
            // via the direct-sweep fallback.
            if wanted.is_some_and(|w| !w[s]) {
                self.slots.push(SubSlot::Refused);
                continue;
            }
            // Every corner-function term (prefix, fx·col_h, fy·row_w,
            // fx·fy·mult) is a weighted area of a subregion, so each is
            // bounded by the bucket's total weighted area, and the query
            // arithmetic's partial sums by small multiples of it. Refusing
            // buckets past `i64::MAX / 8` keeps storage and queries exact
            // in `i64`.
            let total_weighted: i128 = bucket.iter().map(|r| r.area() as i128).sum();
            if total_weighted > i128::from(i64::MAX) / 8 {
                self.slots.push(SubSlot::Refused);
                continue;
            }
            let base = 2 * start[s];
            let c = s % cols;
            let q = s / cols;
            let lo_x = origin.x + c as Coord * stride;
            let lo_y = origin.y + q as Coord * stride;
            if fast {
                *epoch += 1;
                xs_tmp.clear();
                for r in bucket {
                    for v in [r.min().x, r.max().x] {
                        let k = (v - lo_x) as usize;
                        if stamp[k] != *epoch {
                            stamp[k] = *epoch;
                            xs_tmp.push(v);
                        }
                    }
                }
                xs_tmp.sort_unstable();
                for (u, &v) in xs_tmp.iter().enumerate() {
                    lut[(v - lo_x) as usize] = u as u32;
                }
                for (k, r) in bucket.iter().enumerate() {
                    ex[base + 2 * k] = lut[(r.min().x - lo_x) as usize];
                    ex[base + 2 * k + 1] = lut[(r.max().x - lo_x) as usize];
                }
                *epoch += 1;
                ys_tmp.clear();
                for r in bucket {
                    for v in [r.min().y, r.max().y] {
                        let k = (v - lo_y) as usize;
                        if stamp[k] != *epoch {
                            stamp[k] = *epoch;
                            ys_tmp.push(v);
                        }
                    }
                }
                ys_tmp.sort_unstable();
                for (u, &v) in ys_tmp.iter().enumerate() {
                    lut[(v - lo_y) as usize] = u as u32;
                }
                for (k, r) in bucket.iter().enumerate() {
                    ey[base + 2 * k] = lut[(r.min().y - lo_y) as usize];
                    ey[base + 2 * k + 1] = lut[(r.max().y - lo_y) as usize];
                }
            } else {
                pairs.clear();
                for (k, r) in bucket.iter().enumerate() {
                    pairs.push((r.min().x, 2 * k as u32));
                    pairs.push((r.max().x, 2 * k as u32 + 1));
                }
                pairs.sort_unstable();
                xs_tmp.clear();
                for &(v, tag) in pairs.iter() {
                    if xs_tmp.last() != Some(&v) {
                        xs_tmp.push(v);
                    }
                    ex[base + tag as usize] = (xs_tmp.len() - 1) as u32;
                }
                pairs.clear();
                for (k, r) in bucket.iter().enumerate() {
                    pairs.push((r.min().y, 2 * k as u32));
                    pairs.push((r.max().y, 2 * k as u32 + 1));
                }
                pairs.sort_unstable();
                ys_tmp.clear();
                for &(v, tag) in pairs.iter() {
                    if ys_tmp.last() != Some(&v) {
                        ys_tmp.push(v);
                    }
                    ey[base + tag as usize] = (ys_tmp.len() - 1) as u32;
                }
            }
            let cx = xs_tmp.len() - 1;
            let cy = ys_tmp.len() - 1;
            if cx
                .checked_mul(cy)
                .is_none_or(|cells| cells > max_cells_per_table)
            {
                self.slots.push(SubSlot::Refused);
                continue;
            }
            let xs_start = self.xs.len();
            let ys_start = self.ys.len();
            self.xs.extend_from_slice(xs_tmp);
            self.ys.extend_from_slice(ys_tmp);
            self.slots.push(SubSlot::Table {
                xs_start,
                xs_len: xs_tmp.len(),
                ys_start,
                ys_len: ys_tmp.len(),
                mult_start: mult_total,
                prefix_start: prefix_total,
                col_h_start: col_h_total,
                row_w_start: row_w_total,
            });
            mult_total += cx * cy;
            prefix_total += (cx + 1) * (cy + 1);
            col_h_total += cx * (cy + 1);
            row_w_total += (cx + 1) * cy;
        }
        // The sweep writes every arena element of every table range (the
        // ranges exactly partition the arenas), so stale contents from the
        // previous rebuild need no zeroing — only growth beyond the
        // retained capacity pays an actual memset.
        self.mult.truncate(mult_total);
        self.mult.resize(mult_total, 0);
        self.prefix.truncate(prefix_total);
        self.prefix.resize(prefix_total, 0);
        self.col_h.truncate(col_h_total);
        self.col_h.resize(col_h_total, 0);
        self.row_w.truncate(row_w_total);
        self.row_w.resize(row_w_total, 0);

        // Pass 2: fill each subtile's planes in place.
        for s in 0..nslots {
            let SubSlot::Table {
                xs_start,
                xs_len,
                ys_start,
                ys_len,
                mult_start,
                prefix_start,
                col_h_start,
                row_w_start,
            } = self.slots[s]
            else {
                continue;
            };
            let bucket = &flat[start[s]..cursor[s]];
            let cx = xs_len - 1;
            let cy = ys_len - 1;
            let xs = &self.xs[xs_start..xs_start + xs_len];
            let ys = &self.ys[ys_start..ys_start + ys_len];
            diff.clear();
            diff.resize(cx * cy, 0);
            let base = 2 * start[s];
            for k in 0..bucket.len() {
                let i0 = ex[base + 2 * k] as usize;
                let i1 = ex[base + 2 * k + 1] as usize;
                let j0 = ey[base + 2 * k] as usize;
                let j1 = ey[base + 2 * k + 1] as usize;
                diff[j0 * cx + i0] += 1;
                if i1 < cx {
                    diff[j0 * cx + i1] -= 1;
                }
                if j1 < cy {
                    diff[j1 * cx + i0] -= 1;
                    if i1 < cx {
                        diff[j1 * cx + i1] += 1;
                    }
                }
            }
            sweep_planes(
                xs,
                ys,
                diff,
                run,
                &mut self.mult[mult_start..mult_start + cx * cy],
                &mut self.row_w[row_w_start..row_w_start + (cx + 1) * cy],
                &mut self.col_h[col_h_start..col_h_start + cx * (cy + 1)],
                &mut self.prefix[prefix_start..prefix_start + (cx + 1) * (cy + 1)],
            );
        }
    }

    /// The [`TableView`] of the subtile owning `window` (selected by the
    /// window's min corner) — `None` when the window lies outside the
    /// grid, spans past its anchor subtile's padding, or the subtile
    /// refused its table; callers fall back to the direct sweep.
    fn view_for(&self, window: &Rect) -> Option<TableView<'_>> {
        let dx = window.min().x - self.origin.x;
        let dy = window.min().y - self.origin.y;
        if dx < 0 || dy < 0 {
            return None;
        }
        let c = usize::try_from(dx / self.stride).ok()?;
        let q = usize::try_from(dy / self.stride).ok()?;
        if c >= self.cols || q >= self.rows {
            return None;
        }
        let win_max_x = self.origin.x + (c as Coord + 1) * self.stride + self.pad;
        let win_max_y = self.origin.y + (q as Coord + 1) * self.stride + self.pad;
        if window.max().x > win_max_x || window.max().y > win_max_y {
            return None;
        }
        match self.slots[q * self.cols + c] {
            SubSlot::Refused => None,
            SubSlot::Empty => Some(TableView {
                xs: &[],
                ys: &[],
                mult: &[],
                prefix: &[],
                col_h: &[],
                row_w: &[],
            }),
            SubSlot::Table {
                xs_start,
                xs_len,
                ys_start,
                ys_len,
                mult_start,
                prefix_start,
                col_h_start,
                row_w_start,
            } => {
                let cx = xs_len - 1;
                let cy = ys_len - 1;
                Some(TableView {
                    xs: &self.xs[xs_start..xs_start + xs_len],
                    ys: &self.ys[ys_start..ys_start + ys_len],
                    mult: &self.mult[mult_start..mult_start + cx * cy],
                    prefix: &self.prefix[prefix_start..prefix_start + (cx + 1) * (cy + 1)],
                    col_h: &self.col_h[col_h_start..col_h_start + cx * (cy + 1)],
                    row_w: &self.row_w[row_w_start..row_w_start + (cx + 1) * cy],
                })
            }
        }
    }

    /// Rasterises `window` through its owning subtile's table — `None`
    /// when no table covers it (outside the grid, past the anchor
    /// subtile's padding, or a refused subtile), in which case the caller
    /// falls back to the direct sweep. A returned grid is bit-identical
    /// to the direct sweep over the grid's full rect set.
    pub fn rasterize(&self, window: &Rect, nx: usize, ny: usize) -> Option<DensityGrid> {
        let view = self.view_for(window)?;
        let mut cells = vec![0.0f64; nx * ny];
        rasterize_view(&view, window, nx, ny, &mut cells);
        Some(DensityGrid::from_cells(nx, ny, cells))
    }

    /// [`AreaTableGrid::rasterize`] into a reusable scratch grid: reshapes
    /// `out` to `nx × ny` and fills it in place (no per-clip allocation
    /// once the scratch has grown). Returns `false` — leaving `out`
    /// unspecified — when no table covers `window`; the caller falls back
    /// to the direct sweep.
    pub fn rasterize_into(
        &self,
        window: &Rect,
        nx: usize,
        ny: usize,
        out: &mut DensityGrid,
    ) -> bool {
        let Some(view) = self.view_for(window) else {
            return false;
        };
        rasterize_view(&view, window, nx, ny, out.reset_for(nx, ny));
        true
    }

    /// Total compressed cells across all subtile tables (memory/build-cost
    /// proxy).
    pub fn cells(&self) -> usize {
        self.slots
            .iter()
            .map(|s| match s {
                SubSlot::Table { xs_len, ys_len, .. } => (xs_len - 1) * (ys_len - 1),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rasterises `window` through a one-subtile grid anchored at its
    /// corner: the table path on its own, for comparison with the sweep.
    fn table_raster(rects: &[Rect], window: &Rect, nx: usize, ny: usize) -> Option<DensityGrid> {
        let side = window.width().max(window.height());
        AreaTableGrid::build(window, side, 0, rects, usize::MAX).rasterize(window, nx, ny)
    }

    #[test]
    fn empty_table_rasterises_zeros() {
        let window = Rect::from_extents(-10, -10, 10, 10);
        let g = table_raster(&[], &window, 4, 4).expect("empty subtile answers");
        assert!(g.cells().iter().all(|&c| c == 0.0));
    }

    #[test]
    fn overlapping_rasterisation_matches_sweep_clamp() {
        // Two rects each covering the same half of the window: the overlap
        // sum saturates the clamp exactly as `from_rects` does.
        let window = Rect::from_extents(0, 0, 100, 100);
        let rects = [
            Rect::from_extents(0, 0, 50, 100),
            Rect::from_extents(0, 0, 50, 100),
            Rect::from_extents(25, 25, 75, 75),
        ];
        for n in [1usize, 2, 4, 5, 8] {
            let sat = table_raster(&rects, &window, n, n).expect("table");
            let naive = DensityGrid::from_rects(&window, &rects, n, n);
            assert_eq!(sat.cells(), naive.cells(), "grid {n}x{n}");
        }
    }

    #[test]
    fn tables_over_the_cell_cap_are_refused() {
        let rects: Vec<Rect> = (0..10)
            .map(|i| Rect::from_extents(3 * i, 3 * i, 3 * i + 2, 3 * i + 2))
            .collect();
        let window = Rect::from_extents(0, 0, 30, 30);
        let capped = AreaTableGrid::build(&window, 30, 0, &rects, 3);
        assert!(capped.rasterize(&window, 4, 4).is_none());
        let fine = AreaTableGrid::build(&window, 30, 0, &rects, 10_000);
        let sat = fine.rasterize(&window, 4, 4).expect("under cap");
        assert_eq!(
            sat.cells(),
            DensityGrid::from_rects(&window, &rects, 4, 4).cells()
        );
    }

    #[test]
    fn rasterize_matches_from_rects_bitwise() {
        let window = Rect::from_extents(0, 0, 120, 120);
        let rects = [
            Rect::from_extents(0, 0, 30, 120),
            Rect::from_extents(60, 60, 90, 90),
            Rect::from_extents(95, 5, 118, 41),
        ];
        for n in [1usize, 2, 4, 7, 8] {
            let sat = table_raster(&rects, &window, n, n).expect("table");
            let naive = DensityGrid::from_rects(&window, &rects, n, n);
            assert_eq!(sat.cells(), naive.cells(), "grid {n}x{n}");
        }
    }

    #[test]
    fn rasterize_window_outside_coverage_is_zero() {
        let rects = [Rect::from_extents(0, 0, 10, 10)];
        let window = Rect::from_extents(1000, 1000, 1100, 1100);
        let g = table_raster(&rects, &window, 4, 4).expect("empty subtile answers");
        assert!(g.cells().iter().all(|&c| c == 0.0));
    }

    #[test]
    fn grid_rasterize_matches_sweep_on_anchored_windows() {
        let region = Rect::from_extents(0, 0, 160, 160);
        let rects = [
            Rect::from_extents(-20, 5, 35, 45),
            Rect::from_extents(30, 30, 90, 60),
            Rect::from_extents(30, 30, 90, 60),
            Rect::from_extents(100, 0, 130, 180),
            Rect::from_extents(5, 120, 200, 150),
        ];
        let windows = [
            Rect::from_extents(0, 0, 40, 40),
            Rect::from_extents(25, 25, 65, 65),
            Rect::from_extents(79, 100, 119, 140),
            Rect::from_extents(120, 120, 160, 160),
        ];
        let grid = AreaTableGrid::build_for(&region, 40, 40, &rects, usize::MAX, &windows);
        for w in &windows {
            let sat = grid
                .rasterize(w, 8, 8)
                .expect("anchored window has a table");
            let naive = DensityGrid::from_rects(w, &rects, 8, 8);
            assert_eq!(sat.cells(), naive.cells(), "window {w:?}");
        }
    }

    #[test]
    fn grid_empty_subtile_rasterises_zeros() {
        let region = Rect::from_extents(0, 0, 160, 160);
        let rects = [Rect::from_extents(0, 0, 10, 10)];
        let windows = [Rect::from_extents(120, 120, 160, 160)];
        let grid = AreaTableGrid::build_for(&region, 40, 40, &rects, usize::MAX, &windows);
        let g = grid
            .rasterize(&windows[0], 4, 4)
            .expect("empty subtile still answers");
        assert!(g.cells().iter().all(|&c| c == 0.0));
    }

    #[test]
    fn grid_refuses_unanchored_and_overhanging_windows() {
        let region = Rect::from_extents(0, 0, 160, 160);
        let rects = [Rect::from_extents(0, 0, 160, 160)];
        let windows = [Rect::from_extents(0, 0, 40, 40)];
        let grid = AreaTableGrid::build_for(&region, 40, 40, &rects, usize::MAX, &windows);
        // Anchored window answers.
        assert!(grid.rasterize(&windows[0], 4, 4).is_some());
        // A window anchored in a subtile the caller never declared.
        assert!(grid
            .rasterize(&Rect::from_extents(90, 90, 130, 130), 4, 4)
            .is_none());
        // A window larger than the padding allows.
        assert!(grid
            .rasterize(&Rect::from_extents(0, 0, 90, 90), 4, 4)
            .is_none());
        // A window anchored outside the region.
        assert!(grid
            .rasterize(&Rect::from_extents(-40, 0, 0, 40), 4, 4)
            .is_none());
    }

    #[test]
    fn grid_rasterize_into_matches_rasterize() {
        let region = Rect::from_extents(0, 0, 160, 160);
        let rects = [
            Rect::from_extents(3, 7, 61, 33),
            Rect::from_extents(50, 20, 95, 95),
        ];
        let windows = [Rect::from_extents(20, 10, 60, 50)];
        let grid = AreaTableGrid::build_for(&region, 40, 40, &rects, usize::MAX, &windows);
        let owned = grid.rasterize(&windows[0], 8, 8).expect("table");
        let mut scratch = DensityGrid::default();
        assert!(grid.rasterize_into(&windows[0], 8, 8, &mut scratch));
        assert_eq!(owned.cells(), scratch.cells());
        // Refused window leaves the scratch untouched and reports false.
        assert!(!grid.rasterize_into(&Rect::from_extents(0, 0, 150, 150), 8, 8, &mut scratch));
        assert_eq!(owned.cells(), scratch.cells());
    }

    #[test]
    fn grid_rebuild_reuses_storage_and_matches_fresh_build() {
        let region_a = Rect::from_extents(0, 0, 160, 160);
        let rects_a = [
            Rect::from_extents(0, 0, 80, 80),
            Rect::from_extents(40, 40, 120, 120),
        ];
        let windows_a = [Rect::from_extents(10, 10, 50, 50)];
        let mut grid =
            AreaTableGrid::build_for(&region_a, 40, 40, &rects_a, usize::MAX, &windows_a);

        // Rebuild in place over a different tile and geometry; results must
        // match a from-scratch build bit for bit (stale retained storage
        // must be invisible).
        let region_b = Rect::from_extents(200, 200, 360, 360);
        let rects_b = [
            Rect::from_extents(205, 210, 280, 260),
            Rect::from_extents(240, 240, 330, 350),
            Rect::from_extents(240, 240, 330, 350),
        ];
        let windows_b = [
            Rect::from_extents(210, 210, 250, 250),
            Rect::from_extents(300, 300, 340, 340),
        ];
        grid.rebuild_for(&region_b, 40, 40, &rects_b, usize::MAX, &windows_b);
        let fresh = AreaTableGrid::build_for(&region_b, 40, 40, &rects_b, usize::MAX, &windows_b);
        for w in &windows_b {
            let a = grid.rasterize(w, 8, 8).expect("rebuilt");
            let b = fresh.rasterize(w, 8, 8).expect("fresh");
            assert_eq!(a.cells(), b.cells(), "window {w:?}");
            let naive = DensityGrid::from_rects(w, &rects_b, 8, 8);
            assert_eq!(a.cells(), naive.cells(), "window {w:?} vs sweep");
        }
        // Windows of the old tile are gone.
        assert!(grid.rasterize(&windows_a[0], 8, 8).is_none());
    }
}

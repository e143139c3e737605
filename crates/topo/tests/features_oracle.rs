//! Property tests pinning `CriticalFeatures::extract`, which reads one
//! compressed grid, to the extraction it replaced: band-by-band tilings,
//! the all-pairs MTCG with its cubic diagonal pass, and corner counts by
//! testing every rect at four samples around every grid vertex. The two
//! must agree exactly — rule order, every tail value, and the density
//! bit for bit — on overlapping, touching, stacked, zero-area and
//! window-crossing rects, in non-square windows and in all eight
//! orientations.

use hotspot_geom::{Orientation, Point, Rect, D8};
use hotspot_topo::{CriticalFeatures, FeatureConfig, FeatureKind, RuleRect, TileKind, Tiling};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The seed extraction, kept as the oracle.
mod seed {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Tile {
        pub rect: Rect,
        pub kind: TileKind,
    }

    fn boundary_edges(rect: &Rect, window: &Rect) -> usize {
        [
            rect.min().x == window.min().x,
            rect.max().x == window.max().x,
            rect.min().y == window.min().y,
            rect.max().y == window.max().y,
        ]
        .into_iter()
        .filter(|&b| b)
        .count()
    }

    fn transpose(r: &Rect) -> Rect {
        Rect::new(r.min().transpose(), r.max().transpose())
    }

    /// Tiles the window band by band (`transpose` for the vertical tiling).
    pub fn tiling(window: &Rect, rects: &[Rect], transpose_axes: bool) -> Vec<Tile> {
        let mut win = *window;
        let mut clipped: Vec<Rect> = rects
            .iter()
            .filter_map(|r| r.intersection(window))
            .collect();
        if transpose_axes {
            win = transpose(window);
            clipped = clipped.iter().map(transpose).collect();
        }
        let mut ys = vec![win.min().y, win.max().y];
        for r in &clipped {
            ys.extend([r.min().y, r.max().y]);
        }
        ys.sort_unstable();
        ys.dedup();
        let mut tiles = Vec::new();
        for band in ys.windows(2) {
            let (y0, y1) = (band[0], band[1]);
            let mut xs: Vec<(i64, i64)> = clipped
                .iter()
                .filter(|r| r.min().y <= y0 && r.max().y >= y1)
                .map(|r| (r.min().x, r.max().x))
                .collect();
            xs.sort_unstable();
            let mut merged: Vec<(i64, i64)> = Vec::new();
            for (a, b) in xs {
                if let Some(last) = merged.last_mut() {
                    if a <= last.1 {
                        last.1 = last.1.max(b);
                        continue;
                    }
                }
                merged.push((a, b));
            }
            let mut cursor = win.min().x;
            for &(a, b) in &merged {
                if a > cursor {
                    tiles.push(Tile {
                        rect: Rect::from_extents(cursor, y0, a, y1),
                        kind: TileKind::Space,
                    });
                }
                tiles.push(Tile {
                    rect: Rect::from_extents(a, y0, b, y1),
                    kind: TileKind::Block,
                });
                cursor = b;
            }
            if cursor < win.max().x {
                tiles.push(Tile {
                    rect: Rect::from_extents(cursor, y0, win.max().x, y1),
                    kind: TileKind::Space,
                });
            }
        }
        tiles.sort_by_key(|t| (t.rect.min().x, t.rect.max().x, t.rect.min().y));
        let mut out: Vec<Tile> = Vec::new();
        for t in tiles {
            if let Some(last) = out.last_mut() {
                if last.kind == t.kind
                    && last.rect.min().x == t.rect.min().x
                    && last.rect.max().x == t.rect.max().x
                    && last.rect.max().y == t.rect.min().y
                {
                    last.rect = Rect::new(last.rect.min(), t.rect.max());
                    continue;
                }
            }
            out.push(t);
        }
        out.sort_by_key(|t| (t.rect.min().y, t.rect.min().x));
        if transpose_axes {
            for t in &mut out {
                t.rect = transpose(&t.rect);
            }
        }
        out
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum EdgeKind {
        Vertical,
        Horizontal,
        Diagonal,
    }

    /// The all-pairs MTCG with its cubic diagonal pass.
    pub struct Mtcg {
        pub tiles: Vec<Tile>,
        pub edges: Vec<(usize, usize, EdgeKind)>,
    }

    fn overlaps_1d(a0: i64, a1: i64, b0: i64, b1: i64) -> bool {
        a0 < b1 && b0 < a1
    }

    pub fn diagonal_gap(a: &Rect, b: &Rect) -> Option<Rect> {
        let (x0, x1) = if a.max().x <= b.min().x {
            (a.max().x, b.min().x)
        } else if b.max().x <= a.min().x {
            (b.max().x, a.min().x)
        } else {
            return None;
        };
        let (y0, y1) = if a.max().y <= b.min().y {
            (a.max().y, b.min().y)
        } else if b.max().y <= a.min().y {
            (b.max().y, a.min().y)
        } else {
            return None;
        };
        Some(Rect::from_extents(x0, y0, x1, y1))
    }

    impl Mtcg {
        pub fn build(tiles: &[Tile]) -> Mtcg {
            let n = tiles.len();
            let mut edges = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let (a, b) = (&tiles[i].rect, &tiles[j].rect);
                    if a.max().y == b.min().y
                        && overlaps_1d(a.min().x, a.max().x, b.min().x, b.max().x)
                    {
                        edges.push((i, j, EdgeKind::Vertical));
                    }
                    if a.max().x == b.min().x
                        && overlaps_1d(a.min().y, a.max().y, b.min().y, b.max().y)
                    {
                        edges.push((i, j, EdgeKind::Horizontal));
                    }
                }
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if tiles[i].kind != tiles[j].kind {
                        continue;
                    }
                    let Some(gap) = diagonal_gap(&tiles[i].rect, &tiles[j].rect) else {
                        continue;
                    };
                    let blocked = tiles.iter().enumerate().any(|(k, t)| {
                        k != i && k != j && t.kind == tiles[i].kind && t.rect.overlaps(&gap)
                    });
                    if !blocked {
                        edges.push((i, j, EdgeKind::Diagonal));
                    }
                }
            }
            Mtcg {
                tiles: tiles.to_vec(),
                edges,
            }
        }

        /// Kinds of tile `i`'s neighbours along `kind` edges, one per edge.
        fn neighbour_kinds(&self, i: usize, kind: EdgeKind) -> Vec<TileKind> {
            self.edges
                .iter()
                .filter(|e| e.2 == kind)
                .filter_map(|&(from, to, _)| {
                    if from == i {
                        Some(to)
                    } else if to == i {
                        Some(from)
                    } else {
                        None
                    }
                })
                .map(|n| self.tiles[n].kind)
                .collect()
        }

        pub fn block_neighbours(&self, i: usize, kind: EdgeKind) -> usize {
            self.neighbour_kinds(i, kind)
                .into_iter()
                .filter(|&k| k == TileKind::Block)
                .count()
        }

        pub fn blocks_between_spaces(&self, kind: EdgeKind) -> Vec<usize> {
            (0..self.tiles.len())
                .filter(|&i| self.tiles[i].kind == TileKind::Block)
                .filter(|&i| self.block_neighbours(i, kind) == 0)
                .collect()
        }

        pub fn spaces_between_two_blocks(&self, kind: EdgeKind) -> Vec<usize> {
            (0..self.tiles.len())
                .filter(|&i| self.tiles[i].kind == TileKind::Space)
                .filter(|&i| self.block_neighbours(i, kind) == 2)
                .collect()
        }
    }

    fn covers_sample(rects: &[Rect], x: i64, y: i64) -> bool {
        rects.iter().any(|r| r.contains_point(Point::new(x, y)))
    }

    /// `(convex + concave, touch points)` by the vertex-sample loop.
    pub fn corners(rects: &[Rect]) -> (usize, usize) {
        let mut xs = BTreeSet::new();
        let mut ys = BTreeSet::new();
        for r in rects.iter().filter(|r| !r.is_empty()) {
            xs.extend([r.min().x, r.max().x]);
            ys.extend([r.min().y, r.max().y]);
        }
        let (mut corners, mut touches) = (0, 0);
        for &x in &xs {
            for &y in &ys {
                let ne = covers_sample(rects, x, y);
                let nw = covers_sample(rects, x - 1, y);
                let sw = covers_sample(rects, x - 1, y - 1);
                let se = covers_sample(rects, x, y - 1);
                match (ne as u8) + (nw as u8) + (sw as u8) + (se as u8) {
                    1 | 3 => corners += 1,
                    2 if (ne && sw) || (nw && se) => touches += 1,
                    _ => {}
                }
            }
        }
        (corners, touches)
    }

    fn rule(kind: FeatureKind, window: &Rect, rect: &Rect) -> RuleRect {
        let local = rect.translate(-window.min());
        RuleRect {
            kind,
            dx: local.min().x,
            dy: local.min().y,
            width: local.width(),
            height: local.height(),
            boundary: boundary_edges(rect, window) > 0,
        }
    }

    pub fn extract(window: &Rect, rects: &[Rect], config: &FeatureConfig) -> CriticalFeatures {
        let horizontal = tiling(window, rects, false);
        let vertical = tiling(window, rects, true);
        let ch = Mtcg::build(&horizontal);
        let cv = Mtcg::build(&vertical);
        let mut rules = Vec::new();
        for (graph, kind) in [(&ch, EdgeKind::Horizontal), (&cv, EdgeKind::Vertical)] {
            for idx in graph.blocks_between_spaces(kind) {
                let rect = graph.tiles[idx].rect;
                if boundary_edges(&rect, window) <= config.max_boundary_edges {
                    rules.push(rule(FeatureKind::Internal, window, &rect));
                }
            }
        }
        for (graph, kind) in [(&ch, EdgeKind::Horizontal), (&cv, EdgeKind::Vertical)] {
            for idx in graph.spaces_between_two_blocks(kind) {
                let rect = graph.tiles[idx].rect;
                if boundary_edges(&rect, window) <= config.max_boundary_edges {
                    rules.push(rule(FeatureKind::External, window, &rect));
                }
            }
        }
        for &(from, to, kind) in &ch.edges {
            if kind == EdgeKind::Diagonal {
                if let Some(gap) = diagonal_gap(&ch.tiles[from].rect, &ch.tiles[to].rect) {
                    rules.push(rule(FeatureKind::Diagonal, window, &gap));
                }
            }
        }
        for t in horizontal.iter().filter(|t| t.kind == TileKind::Space) {
            if (2..=3).contains(&boundary_edges(&t.rect, window)) {
                rules.push(rule(FeatureKind::Segment, window, &t.rect));
            }
        }
        rules.sort_by_key(|r| (r.kind, r.dx, r.dy, r.width, r.height));
        rules.dedup();

        let clipped: Vec<Rect> = rects
            .iter()
            .filter_map(|r| r.intersection(window))
            .collect();
        let (corner_count, touch_points) = corners(&clipped);
        let side = window.width().max(window.height());
        let blocks = |ts: &[Tile]| -> Vec<Rect> {
            ts.iter()
                .filter(|t| t.kind == TileKind::Block)
                .map(|t| t.rect)
                .collect()
        };
        let min_internal = blocks(&horizontal)
            .iter()
            .map(|r| r.width())
            .chain(blocks(&vertical).iter().map(|r| r.height()))
            .min()
            .unwrap_or(side);
        let min_external = ch
            .spaces_between_two_blocks(EdgeKind::Horizontal)
            .iter()
            .map(|&i| ch.tiles[i].rect.width())
            .chain(
                cv.spaces_between_two_blocks(EdgeKind::Vertical)
                    .iter()
                    .map(|&i| cv.tiles[i].rect.height()),
            )
            .min()
            .unwrap_or(side);
        let block_area: i64 = blocks(&horizontal).iter().map(|r| r.area()).sum();
        CriticalFeatures {
            rules,
            corner_count,
            touch_points,
            min_internal,
            min_external,
            density: block_area as f64 / window.area() as f64,
        }
    }

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
        let (tw, th) = orientation.window(w, h);
        extract(
            &Rect::from_extents(0, 0, tw, th),
            &orientation.apply_rects(&local, w, h),
            config,
        )
    }
}

fn assert_same(got: &CriticalFeatures, want: &CriticalFeatures, what: &str) {
    assert_eq!(got.rules, want.rules, "rules of {what}");
    assert_eq!(
        (
            got.corner_count,
            got.touch_points,
            got.min_internal,
            got.min_external
        ),
        (
            want.corner_count,
            want.touch_points,
            want.min_internal,
            want.min_external
        ),
        "tail of {what}"
    );
    assert_eq!(
        got.density.to_bits(),
        want.density.to_bits(),
        "density of {what}"
    );
}

/// A window and up to fourteen rects snapped to a grid step, so edges often
/// coincide: rects overlap, abut along edges, touch at corners, stack as
/// duplicates, collapse to zero width, height or both, and reach past the
/// window on any side.
#[derive(Debug, Clone)]
struct Case {
    window: Rect,
    rects: Vec<Rect>,
}

type RawRect = (i64, i64, i64, i64, usize);

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (0usize..3, -3i64..3, -3i64..3, 2i64..13, 2i64..13),
        proptest::collection::vec(
            (-2i64..14, -2i64..14, 0i64..7, 0i64..7, 0usize..8),
            0usize..15,
        ),
    )
        .prop_map(|((step, wx, wy, ww, wh), raw): (_, Vec<RawRect>)| {
            let step = [1, 5, 10][step];
            let window =
                Rect::from_extents(wx * step, wy * step, (wx + ww) * step, (wy + wh) * step);
            let mut rects: Vec<Rect> = Vec::new();
            for (x, y, w, h, shape) in raw {
                let (x0, y0) = ((wx + x) * step, (wy + y) * step);
                let (w, h) = match shape {
                    0 => (0, h),
                    1 => (w, 0),
                    2 => (0, 0),
                    _ => (w, h),
                };
                let r = Rect::from_extents(x0, y0, x0 + w * step, y0 + h * step);
                if shape == 3 {
                    if let Some(&last) = rects.last() {
                        rects.push(last);
                    }
                }
                rects.push(r);
            }
            Case { window, rects }
        })
}

/// A checkerboard fragment with random holes: many same-kind tiles meeting
/// at corners and along shared lines, where diagonal edges are dense.
fn arb_board() -> impl Strategy<Value = Case> {
    (2i64..9, 2i64..9, proptest::collection::vec(0u8..4, 64)).prop_map(|(nx, ny, holes)| {
        let rects = (0..ny)
            .flat_map(|j| (0..nx).map(move |i| (i, j)))
            .filter(|&(i, j)| (i + j) % 2 == 0 && holes[(j * 8 + i) as usize] != 0)
            .map(|(i, j)| Rect::from_extents(i * 10, j * 10, i * 10 + 10, j * 10 + 10))
            .collect();
        Case {
            window: Rect::from_extents(0, 0, nx * 10, ny * 10),
            rects,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn extraction_matches_the_seed(case in arb_case()) {
        for max_boundary_edges in [1, 4] {
            let cfg = FeatureConfig { max_boundary_edges };
            assert_same(
                &CriticalFeatures::extract(&case.window, &case.rects, &cfg),
                &seed::extract(&case.window, &case.rects, &cfg),
                &format!("{case:?} at {max_boundary_edges}"),
            );
        }
    }

    #[test]
    fn tilings_and_neighbour_counts_match_the_seed(case in arb_case()) {
        for (tiling, transpose, kind) in [
            (Tiling::horizontal(&case.window, &case.rects), false, seed::EdgeKind::Horizontal),
            (Tiling::vertical(&case.window, &case.rects), true, seed::EdgeKind::Vertical),
        ] {
            let want = seed::tiling(&case.window, &case.rects, transpose);
            let got: Vec<seed::Tile> = tiling
                .tiles()
                .iter()
                .map(|t| seed::Tile { rect: t.rect, kind: t.kind })
                .collect();
            prop_assert_eq!(&got, &want, "{:?}", case);
            let graph = seed::Mtcg::build(&want);
            for i in 0..want.len() {
                prop_assert_eq!(tiling.block_neighbours(i), graph.block_neighbours(i, kind), "{:?}", case);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn oriented_extraction_matches_the_seed(case in arb_case()) {
        let cfg = FeatureConfig::default();
        for o in D8 {
            assert_same(
                &CriticalFeatures::extract_oriented(&case.window, &case.rects, o, &cfg),
                &seed::extract_oriented(&case.window, &case.rects, o, &cfg),
                &format!("{case:?} under {o}"),
            );
        }
    }

    #[test]
    fn dense_boards_match_the_seed(case in arb_board()) {
        let cfg = FeatureConfig::default();
        assert_same(
            &CriticalFeatures::extract(&case.window, &case.rects, &cfg),
            &seed::extract(&case.window, &case.rects, &cfg),
            &format!("{case:?}"),
        );
    }
}

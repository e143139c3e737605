//! Property tests pinning `CornerSummary::of`, which classifies the vertices
//! of the rects' compressed grid by its four neighbouring cells, to the
//! vertex-sample loop it replaced: every vertex of the grid of non-empty
//! rect edges, classified by testing every rect against the four 1 nm
//! samples around it.

use hotspot_geom::{CornerSummary, CoverGrid, Point, Rect};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn covers_sample(rects: &[Rect], x: i64, y: i64) -> bool {
    rects.iter().any(|r| r.contains_point(Point::new(x, y)))
}

fn oracle(rects: &[Rect]) -> CornerSummary {
    let mut xs = BTreeSet::new();
    let mut ys = BTreeSet::new();
    for r in rects.iter().filter(|r| !r.is_empty()) {
        xs.extend([r.min().x, r.max().x]);
        ys.extend([r.min().y, r.max().y]);
    }
    let mut s = CornerSummary::default();
    for &x in &xs {
        for &y in &ys {
            let ne = covers_sample(rects, x, y);
            let nw = covers_sample(rects, x - 1, y);
            let sw = covers_sample(rects, x - 1, y - 1);
            let se = covers_sample(rects, x, y - 1);
            match (ne as u8) + (nw as u8) + (sw as u8) + (se as u8) {
                1 => s.convex += 1,
                3 => s.concave += 1,
                2 if (ne && sw) || (nw && se) => s.touch_points += 1,
                _ => {}
            }
        }
    }
    s
}

/// Up to ten rects on a coarse or fine grid, so edges often coincide and
/// rects touch, overlap, repeat or collapse to zero width or height.
fn arb_rects() -> impl Strategy<Value = Vec<Rect>> {
    (
        0usize..3,
        proptest::collection::vec(
            (-3i64..12, -3i64..12, 0i64..6, 0i64..6, 0usize..4),
            0usize..11,
        ),
    )
        .prop_map(|(step, raw)| {
            let step = [1, 7, 10][step];
            let mut rects: Vec<Rect> = Vec::new();
            for (x, y, w, h, repeat) in raw {
                let r = Rect::from_extents(x * step, y * step, (x + w) * step, (y + h) * step);
                // Stack a duplicate of the previous rect now and then.
                if repeat == 0 {
                    if let Some(&last) = rects.last() {
                        rects.push(last);
                    }
                }
                rects.push(r);
            }
            rects
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn corner_summary_matches_the_vertex_sample_loop(rects in arb_rects()) {
        prop_assert_eq!(CornerSummary::of(&rects), oracle(&rects), "{:?}", rects);
    }

    #[test]
    fn a_frame_adds_lines_but_no_corners(rects in arb_rects(), fx in -40i64..0, fy in -40i64..0) {
        // Rects reaching past the frame are clipped: compare with the
        // oracle on the clipped set.
        let frame = Rect::from_extents(fx, fy, 90, 70);
        let clipped: Vec<Rect> = rects.iter().filter_map(|r| r.intersection(&frame)).collect();
        let grid = CoverGrid::new(Some(&frame), &rects);
        prop_assert_eq!(CornerSummary::of_grid(&grid), oracle(&clipped), "{:?}", rects);
    }
}

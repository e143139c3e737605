//! Property tests pinning `DirectionalStrings::of` and
//! `TopoSignature::with_orientation` to a naive slicing. The oracle orients
//! the pattern by every element of `D8`, slices each oriented pattern into
//! its own four side strings (each the bottom string of the pattern turned
//! so that side faces down: 32 bottom strings in all) and keeps the first
//! orientation whose counterclockwise composite is the lexicographic
//! minimum. Production sweeps the pattern once per axis, reads each slice
//! from both ends and compares the eight composites in place through
//! Theorem 1's side table, so side strings, signature and orientation must
//! agree exactly, ties included.

use hotspot_geom::{Coord, Orientation, Point, Rect, D8};
use hotspot_topo::{DirectionalStrings, TopoSignature};
use proptest::prelude::*;

/// The separator between side strings inside a composite.
const SIDE_SEPARATOR: u128 = u128::MAX;

/// The code of a slice of more than 127 blocks.
const SLICE_OVERFLOW: u128 = u128::MAX - 1;

/// The bottom string of the `w × h` pattern `rects` after orienting it by
/// `o`: slice the oriented pattern vertically along its x-edges, merge
/// each slice's touching or overlapping y-intervals, collapse identical
/// adjacent slices, and encode each slice as the boundary bit then one bit
/// per bottom-to-top block (polygon = 1, space = 0).
fn bottom_string(rects: &[Rect], w: Coord, h: Coord, o: Orientation) -> Vec<u128> {
    let oriented = o.apply_rects(rects, w, h);
    let (ow, oh) = o.window(w, h);
    let mut xs: Vec<Coord> = vec![0, ow];
    for r in &oriented {
        xs.push(r.min().x);
        xs.push(r.max().x);
    }
    xs.sort_unstable();
    xs.dedup();
    let mut slices: Vec<Vec<(Coord, Coord)>> = Vec::new();
    for pair in xs.windows(2) {
        let (x0, x1) = (pair[0], pair[1]);
        let mut intervals: Vec<(Coord, Coord)> = oriented
            .iter()
            .filter(|r| r.min().x <= x0 && r.max().x >= x1)
            .map(|r| (r.min().y, r.max().y))
            .collect();
        intervals.sort_unstable();
        let mut merged: Vec<(Coord, Coord)> = Vec::new();
        for (a, b) in intervals {
            match merged.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        if slices.last() != Some(&merged) {
            slices.push(merged);
        }
    }
    slices.iter().map(|merged| encode(merged, oh)).collect()
}

/// One slice's code, [`SLICE_OVERFLOW`] past 128 bits.
fn encode(merged: &[(Coord, Coord)], h: Coord) -> u128 {
    let mut bits = vec![1u8];
    let mut cursor = 0;
    for &(a, b) in merged {
        if a > cursor {
            bits.push(0);
        }
        bits.push(1);
        cursor = b;
    }
    if cursor < h {
        bits.push(0);
    }
    if bits.len() > 128 {
        return SLICE_OVERFLOW;
    }
    bits.iter().fold(0, |v, &bit| (v << 1) | u128::from(bit))
}

/// The window-local rects of `rects` clipped to `window`.
fn local_rects(window: &Rect, rects: &[Rect]) -> Vec<Rect> {
    rects
        .iter()
        .filter_map(|r| r.intersection(window))
        .map(|r| r.translate(-window.min()))
        .collect()
}

/// The four side strings (bottom, east, top, west): each side is the
/// bottom string of the pattern turned so that side faces down.
fn oracle_sides(window: &Rect, rects: &[Rect]) -> [Vec<u128>; 4] {
    let (w, h) = (window.width(), window.height());
    let local = local_rects(window, rects);
    [
        Orientation::R0,
        Orientation::R270,
        Orientation::R180,
        Orientation::R90,
    ]
    .map(|o| bottom_string(&local, w, h, o))
}

/// Every orientation's counterclockwise composite, in `D8` order, by
/// re-slicing the oriented pattern.
fn oracle_composites(window: &Rect, rects: &[Rect]) -> Vec<(Orientation, Vec<u128>)> {
    let (w, h) = (window.width(), window.height());
    let local = local_rects(window, rects);
    D8.into_iter()
        .map(|o| {
            let (tw, th) = o.window(w, h);
            let twin = Rect::from_extents(0, 0, tw, th);
            let sides = oracle_sides(&twin, &o.apply_rects(&local, w, h));
            let mut flat = vec![SIDE_SEPARATOR];
            for side in sides.iter().chain(&sides[..1]) {
                flat.extend(side);
                flat.push(SIDE_SEPARATOR);
            }
            (o, flat)
        })
        .collect()
}

/// The minimal composite and the first orientation of `D8` attaining it.
fn oracle(window: &Rect, rects: &[Rect]) -> (Vec<u128>, Orientation) {
    let mut best: Option<(Vec<u128>, Orientation)> = None;
    for (o, flat) in oracle_composites(window, rects) {
        if best.as_ref().is_none_or(|(b, _)| flat < *b) {
            best = Some((flat, o));
        }
    }
    best.expect("D8 is non-empty")
}

/// The orientations attaining the minimal composite, in `D8` order.
fn minimal_orientations(window: &Rect, rects: &[Rect]) -> Vec<Orientation> {
    let (min, _) = oracle(window, rects);
    oracle_composites(window, rects)
        .into_iter()
        .filter(|(_, flat)| *flat == min)
        .map(|(o, _)| o)
        .collect()
}

fn assert_sides_match_oracle(window: &Rect, rects: &[Rect]) {
    let strings = DirectionalStrings::of(window, rects);
    for (k, side) in oracle_sides(window, rects).iter().enumerate() {
        assert_eq!(
            strings.side(k),
            side.as_slice(),
            "side {k} of {rects:?} in {window:?}"
        );
    }
}

fn assert_matches_oracle(window: &Rect, rects: &[Rect]) {
    let (sig, o) = TopoSignature::with_orientation(window, rects);
    let (flat, oracle_o) = oracle(window, rects);
    assert_eq!(
        sig.as_slice(),
        flat.as_slice(),
        "signature of {rects:?} in {window:?}"
    );
    assert_eq!(o, oracle_o, "orientation of {rects:?} in {window:?}");
}

/// Raw draws for one pattern: a grid-step selector and up to six rects as
/// per-mille fractions of the window.
type Raw = (usize, Vec<(i64, i64, i64, i64)>);

fn arb_raw() -> impl Strategy<Value = Raw> {
    (
        0usize..3,
        proptest::collection::vec((0i64..1000, 0i64..1000, 1i64..1000, 1i64..1000), 0usize..7),
    )
}

/// The rects of `raw` inside a `w × h` window at the origin. Coordinates
/// snap to a grid (1, 5 or a quarter of the shorter side) so edges often
/// coincide, rects abut and overlap, and symmetric patterns (orientation
/// ties) come up.
fn rects_in(w: i64, h: i64, (step, raw): &Raw) -> Vec<Rect> {
    let step = [1, 5, (w.min(h) / 4).max(1)][*step];
    let (nx, ny) = (w / step, h / step);
    raw.iter()
        .map(|&(x, y, dx, dy)| {
            let (x, y) = (x * nx / 1000, y * ny / 1000);
            let (dx, dy) = (1 + dx * nx / 1000, 1 + dy * ny / 1000);
            Rect::from_extents(
                x * step,
                y * step,
                ((x + dx) * step).min(w),
                ((y + dy) * step).min(h),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The two sweeps' four side strings equal the four naive bottom
    /// strings, on square, non-square and offset windows (`shape` 0, 1
    /// and 2), the latter with rects reaching up to 20 units past every
    /// side of the window.
    #[test]
    fn side_strings_match_the_oracle(
        shape in 0usize..3,
        (w, dh) in (8i64..160, 1i64..120),
        (ox, oy) in (-10_000i64..10_000, -10_000i64..10_000),
        raw in arb_raw(),
    ) {
        let h = if shape == 0 { w } else { 8 + (w - 8 + dh) % 152 };
        if shape < 2 {
            assert_sides_match_oracle(&Rect::from_extents(0, 0, w, h), &rects_in(w, h, &raw));
        } else {
            let window = Rect::from_origin_size(Point::new(ox, oy), w, h);
            let shift = Point::new(ox - 20, oy - 20);
            let rects: Vec<Rect> = rects_in(w + 40, h + 40, &raw)
                .iter()
                .map(|r| r.translate(shift))
                .collect();
            assert_sides_match_oracle(&window, &rects);
        }
    }

    #[test]
    fn square_windows_match_the_oracle(w in 8i64..160, raw in arb_raw()) {
        assert_matches_oracle(&Rect::from_extents(0, 0, w, w), &rects_in(w, w, &raw));
    }

    /// `w ≠ h`: odd rotations swap the window's dimensions.
    #[test]
    fn non_square_windows_match_the_oracle(w in 8i64..160, dh in 1i64..120, raw in arb_raw()) {
        let h = 8 + (w - 8 + dh) % 152;
        assert_matches_oracle(&Rect::from_extents(0, 0, w, h), &rects_in(w, h, &raw));
    }

    /// Windows away from the origin, with rects reaching up to 20 units
    /// past the window on every side (the signature clips them).
    #[test]
    fn offset_windows_match_the_oracle(
        (w, h) in (8i64..120, 8i64..120),
        (ox, oy) in (-10_000i64..10_000, -10_000i64..10_000),
        raw in arb_raw(),
    ) {
        let window = Rect::from_origin_size(Point::new(ox, oy), w, h);
        let shift = Point::new(ox - 20, oy - 20);
        let rects: Vec<Rect> = rects_in(w + 40, h + 40, &raw)
            .iter()
            .map(|r| r.translate(shift))
            .collect();
        assert_matches_oracle(&window, &rects);
    }
}

/// Checks `rects` in `window` and every orientation of it against the
/// oracle, and that at least `min_ties` orientations attain the minimum,
/// so the first of them in `D8` must be the one reported.
fn check_tie(window: Rect, rects: &[Rect], min_ties: usize) {
    let (w, h) = (window.width(), window.height());
    for o in D8 {
        let (tw, th) = o.window(w, h);
        let twin = Rect::from_extents(0, 0, tw, th);
        let trects = o.apply_rects(rects, w, h);
        let ties = minimal_orientations(&twin, &trects);
        assert!(ties.len() >= min_ties, "{o}: only {ties:?} tie");
        let (sig, canonical) = TopoSignature::with_orientation(&twin, &trects);
        assert_eq!(canonical, ties[0], "{o}: ties {ties:?}");
        assert_eq!(sig.as_slice(), oracle(&twin, &trects).0.as_slice(), "{o}");
    }
}

#[test]
fn empty_core_ties_everywhere_and_picks_r0() {
    let window = Rect::from_extents(0, 0, 100, 100);
    check_tie(window, &[], 8);
    assert_eq!(
        TopoSignature::with_orientation(&window, &[]).1,
        Orientation::R0
    );
}

#[test]
fn full_core_ties_everywhere_and_picks_r0() {
    let window = Rect::from_extents(0, 0, 100, 100);
    check_tie(window, &[window], 8);
    assert_eq!(
        TopoSignature::with_orientation(&window, &[window]).1,
        Orientation::R0
    );
}

#[test]
fn centred_square_ties_everywhere_and_picks_r0() {
    let window = Rect::from_extents(0, 0, 100, 100);
    let square = [Rect::from_extents(30, 30, 70, 70)];
    check_tie(window, &square, 8);
    assert_eq!(
        TopoSignature::with_orientation(&window, &square).1,
        Orientation::R0
    );
}

#[test]
fn two_fold_symmetric_pattern_picks_the_first_tied_orientation() {
    // Invariant under R180 only: each block is the other turned by half a
    // turn, and no mirror maps the pair onto itself.
    let window = Rect::from_extents(0, 0, 100, 100);
    let rects = [
        Rect::from_extents(0, 0, 30, 60),
        Rect::from_extents(70, 40, 100, 100),
    ];
    check_tie(window, &rects, 2);
}

#[test]
fn non_square_two_fold_pattern_picks_the_first_tied_orientation() {
    // A bar through the middle of a 160 × 90 window: symmetric under R180,
    // Mx and MxR180.
    let window = Rect::from_extents(0, 0, 160, 90);
    check_tie(window, &[Rect::from_extents(0, 30, 160, 60)], 2);
}

#[test]
fn a_side_that_extends_another_is_the_smaller() {
    // The minimal composite is decided where one orientation's side is a
    // proper prefix of another's: the separator ending the shorter side
    // outranks every slice code, so the longer side sorts first, as in
    // the flattened string.
    let window = Rect::from_extents(0, 0, 71, 17);
    let rects = [
        Rect::from_extents(20, 10, 35, 15),
        Rect::from_extents(30, 0, 71, 10),
    ];
    let (min, _) = oracle(&window, &rects);
    let decided_by_a_prefix = oracle_composites(&window, &rects).iter().any(|(_, flat)| {
        let first_difference = min.iter().zip(flat).position(|(a, b)| a != b);
        first_difference.is_some_and(|t| flat[t] == SIDE_SEPARATOR)
    });
    assert!(decided_by_a_prefix, "no orientation loses on a separator");
    check_tie(window, &rects, 1);
}

#[test]
fn overflowing_slices_match_the_oracle_along_both_axes() {
    // 70 bars: each slice across them holds 141 blocks.
    for vertical in [false, true] {
        let bar = |i: i64| {
            if vertical {
                Rect::from_extents(0, 4 * i + 1, 100, 4 * i + 3)
            } else {
                Rect::from_extents(4 * i + 1, 0, 4 * i + 3, 100)
            }
        };
        let bars: Vec<Rect> = (0..70).map(bar).collect();
        let window = if vertical {
            Rect::from_extents(0, 0, 100, 281)
        } else {
            Rect::from_extents(0, 0, 281, 100)
        };
        assert_sides_match_oracle(&window, &bars);
        assert_matches_oracle(&window, &bars);
    }
}

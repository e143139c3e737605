//! Property tests pinning `TopoSignature::with_orientation` to the
//! re-slicing it replaced: orient the pattern by every element of `D8`,
//! slice the oriented pattern into its own four side strings (32 bottom
//! strings in all) and keep the first orientation whose counterclockwise
//! composite is the lexicographic minimum. The production signature reads
//! the eight composites off four base side strings through Theorem 1's
//! side table, so the signature and the orientation must agree exactly,
//! ties included.

use hotspot_geom::{Orientation, Point, Rect, D8};
use hotspot_topo::{DirectionalStrings, TopoSignature};
use proptest::prelude::*;

/// Every orientation's composite, in `D8` order, by re-slicing the
/// oriented pattern.
fn oracle_composites(window: &Rect, rects: &[Rect]) -> Vec<(Orientation, Vec<u128>)> {
    let (w, h) = (window.width(), window.height());
    let local: Vec<Rect> = rects
        .iter()
        .filter_map(|r| r.intersection(window))
        .map(|r| r.translate(-window.min()))
        .collect();
    D8.into_iter()
        .map(|o| {
            let (tw, th) = o.window(w, h);
            let twin = Rect::from_extents(0, 0, tw, th);
            let strings = DirectionalStrings::of(&twin, &o.apply_rects(&local, w, h));
            (o, strings.ccw_composite())
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

//! Directional strings and string-based topological classification
//! (Section III-B1 and Theorem 1 of the paper).
//!
//! A core pattern is sliced along polygon edges in each of the four
//! directions. Each slice becomes a binary sequence — boundary bit `1`,
//! polygon blocks `1`, space blocks `0` — read as a number, so each side of
//! the pattern carries a string of numbers. Two core patterns have the same
//! topology (up to the eight orientations) iff the concatenation of any two
//! adjacent side strings of one pattern occurs in the counterclockwise or
//! clockwise composite string of the other (Theorem 1).
//!
//! For clustering, [`TopoSignature`] canonicalises the four side strings
//! over all eight orientations into a hashable key: two patterns share a
//! signature exactly when Theorem 1 declares them topologically equal.
//!
//! # The side table
//!
//! Theorem 1 rests on two facts about the side strings, and the signature
//! uses them to read all eight orientations off the four base strings
//! instead of re-slicing the pattern eight times:
//!
//! - rotating the pattern by `Rr` (`r` quarter turns counterclockwise)
//!   shifts its sides cyclically: side `k` of the rotated pattern is base
//!   side `(k − r) mod 4`;
//! - mirroring it (`x ↦ w − x`) reverses the side order and each side's
//!   slices, since every side is read counterclockwise and a mirror turns
//!   counterclockwise into clockwise. With `MxRr` = mirror, then `Rr`,
//!   side `k` is base side `(r − k) mod 4`, slices reversed.
//!
//! A slice's code depends only on its own stack of blocks, which no
//! orientation changes, so the table is exact. In `D8` order it reads:
//!
//! | orientation | sides 0–3 from base sides | slices |
//! |-------------|---------------------------|--------|
//! | `R0`        | 0, 1, 2, 3                | as is  |
//! | `R90`       | 3, 0, 1, 2                | as is  |
//! | `R180`      | 2, 3, 0, 1                | as is  |
//! | `R270`      | 1, 2, 3, 0                | as is  |
//! | `Mx`        | 0, 3, 2, 1                | reversed |
//! | `MxR90`     | 1, 0, 3, 2                | reversed |
//! | `MxR180`    | 2, 1, 0, 3                | reversed |
//! | `MxR270`    | 3, 2, 1, 0                | reversed |
//!
//! So a signature needs only the four base side strings, and those come
//! from two sweeps, not four slicings. A half turn (`R180`) reverses the
//! order of the vertical slices and mirrors each slice's blocks, so one
//! sweep over the vertical slices yields the bottom side, each slice read
//! upward, and the top side, each slice read downward with the slices
//! reversed. Likewise one sweep over the horizontal slices yields east,
//! read right to left, and west, read left to right with the slices
//! reversed. Collapsing identical adjacent slices commutes with the mirror,
//! and both readings of a slice hold the same blocks, so a slice of more
//! than 127 blocks overflows in both.
//!
//! The eight composites are compared in place, side by side through the
//! table, and only the minimal one is written out. The separator outranks
//! every slice code, so of two sides sharing a common prefix the longer one
//! is the smaller. `crates/topo/tests/signature_oracle.rs` checks the side
//! strings against a naive slicing of each rotated pattern, and the
//! signature against the re-slicing of every orientation.

use hotspot_geom::{Coord, Orientation, Rect, D8};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;

/// Sentinel separating side strings inside composite strings, so a match
/// can never straddle a side boundary incorrectly.
const SIDE_SEPARATOR: u128 = u128::MAX;

/// Code of a slice whose bit sequence does not fit in 128 bits: more than
/// 127 blocks, as when it crosses 64 bars with space above and below them.
/// No representable slice has this value: past the boundary bit and the
/// first block, a slice never holds two adjacent polygon bits, while this
/// value is all ones but its last bit. All such slices share the one code,
/// so patterns whose slices differ only beyond 127 blocks look alike.
const SLICE_OVERFLOW: u128 = u128::MAX - 1;

/// The side table of the [module docs](self): `SIDES[i][k]` is the base
/// side that becomes side `k` after orientation `D8[i]`. The mirrored
/// orientations (the last four) also reverse each side's slices.
const SIDES: [[usize; 4]; 8] = [
    [0, 1, 2, 3], // R0
    [3, 0, 1, 2], // R90
    [2, 3, 0, 1], // R180
    [1, 2, 3, 0], // R270
    [0, 3, 2, 1], // Mx
    [1, 0, 3, 2], // MxR90
    [2, 1, 0, 3], // MxR180
    [3, 2, 1, 0], // MxR270
];

/// The four directional strings of a core pattern.
///
/// Sides are stored in counterclockwise order: bottom, right (east), top,
/// left (west). Each side string is the bottom string of the pattern rotated
/// so that side faces down.
///
/// ```
/// use hotspot_geom::Rect;
/// use hotspot_topo::DirectionalStrings;
///
/// let window = Rect::from_extents(0, 0, 100, 100);
/// let rects = [Rect::from_extents(0, 0, 100, 50)];
/// let s = DirectionalStrings::of(&window, &rects);
/// // One slice, fully spanning in x: bottom string has a single number.
/// assert_eq!(s.side(0).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DirectionalStrings {
    sides: [Vec<u128>; 4], // bottom, east, top, west
}

impl DirectionalStrings {
    /// Computes the four directional strings of the pattern `rects` inside
    /// `window` (rects are clipped to the window).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn of(window: &Rect, rects: &[Rect]) -> DirectionalStrings {
        with_sides(window, rects, |sides| DirectionalStrings {
            sides: sides.clone(),
        })
    }

    /// Side string `k` in counterclockwise order (0 = bottom, 1 = east,
    /// 2 = top, 3 = west).
    ///
    /// # Panics
    ///
    /// Panics if `k >= 4`.
    pub fn side(&self, k: usize) -> &[u128] {
        &self.sides[k]
    }

    /// The counterclockwise composite string: all four sides joined with
    /// separators, with the beginning side repeated at the end (as the paper
    /// prescribes) so cyclic matches succeed.
    pub fn ccw_composite(&self) -> Vec<u128> {
        composite(&self.sides, 0)
    }

    /// The clockwise composite string (side order reversed and each side's
    /// slices reversed) — this is the counterclockwise composite of the
    /// mirrored pattern.
    pub fn cw_composite(&self) -> Vec<u128> {
        composite(&self.sides, 4)
    }

    /// The query string for Theorem 1: two adjacent sides (bottom then
    /// east), separator-delimited.
    pub fn adjacent_pair_query(&self) -> Vec<u128> {
        let mut q = vec![SIDE_SEPARATOR];
        q.extend(self.sides[0].iter().copied());
        q.push(SIDE_SEPARATOR);
        q.extend(self.sides[1].iter().copied());
        q.push(SIDE_SEPARATOR);
        q
    }

    /// Theorem 1: `true` iff the two patterns have the same topology under
    /// some of the eight orientations.
    pub fn same_topology(&self, other: &DirectionalStrings) -> bool {
        let query = self.adjacent_pair_query();
        contains(&other.ccw_composite(), &query) || contains(&other.cw_composite(), &query)
    }
}

impl fmt::Display for DirectionalStrings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = ["bottom", "east", "top", "west"];
        for (name, side) in names.iter().zip(&self.sides) {
            write!(f, "{name}: <")?;
            for (i, v) in side.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, ">")?;
        }
        Ok(())
    }
}

/// Side `k` of the pattern with base side strings `sides` after
/// orientation `D8[i]`: base side `SIDES[i][k]`, read backwards when
/// `D8[i]` mirrors.
fn oriented_side(sides: &[Vec<u128>; 4], i: usize, k: usize) -> SideView<'_> {
    SideView {
        codes: &sides[SIDES[i][k]],
        reversed: D8[i].is_mirrored(),
    }
}

/// The counterclockwise composite of the pattern with base side strings
/// `sides` after orientation `D8[i]`; its first side is repeated at the
/// end.
fn composite(sides: &[Vec<u128>; 4], i: usize) -> Vec<u128> {
    let len = 6 + sides.iter().map(Vec::len).sum::<usize>() + sides[SIDES[i][0]].len();
    let mut out = Vec::with_capacity(len);
    for k in [0, 1, 2, 3, 0] {
        out.push(SIDE_SEPARATOR);
        let side = oriented_side(sides, i, k);
        if side.reversed {
            out.extend(side.codes.iter().rev());
        } else {
            out.extend(side.codes);
        }
    }
    out.push(SIDE_SEPARATOR);
    out
}

/// Orders the composites of orientations `D8[i]` and `D8[j]` as their
/// flattened strings order, without writing either. The fifth side repeats
/// the first, so four sides decide.
fn cmp_composites(sides: &[Vec<u128>; 4], i: usize, j: usize) -> Ordering {
    (0..4)
        .map(|k| oriented_side(sides, i, k).cmp_segment(oriented_side(sides, j, k)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// One side of an oriented composite: a base side string, read forwards
/// or backwards.
#[derive(Clone, Copy)]
struct SideView<'a> {
    codes: &'a [u128],
    reversed: bool,
}

impl SideView<'_> {
    fn at(self, t: usize) -> u128 {
        if self.reversed {
            self.codes[self.codes.len() - 1 - t]
        } else {
            self.codes[t]
        }
    }

    /// Orders two sides as they order inside flattened composites, where
    /// each is followed by [`SIDE_SEPARATOR`]: code by code, and on a
    /// common prefix the *longer* side is the smaller, since its next code
    /// is below the separator that ends the shorter one.
    fn cmp_segment(self, other: SideView<'_>) -> Ordering {
        let common = self.codes.len().min(other.codes.len());
        (0..common)
            .map(|t| self.at(t).cmp(&other.at(t)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| other.codes.len().cmp(&self.codes.len()))
    }
}

/// Canonical topology key: the lexicographically smallest flattened side
/// tuple over all eight orientations.
///
/// Two patterns have equal signatures iff [`DirectionalStrings::same_topology`]
/// holds for them; unlike Theorem-1 matching, the signature is hashable and
/// gives clustering a direct `HashMap` key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TopoSignature(Vec<u128>);

impl TopoSignature {
    /// Computes the canonical signature of a pattern.
    pub fn of(window: &Rect, rects: &[Rect]) -> TopoSignature {
        Self::with_orientation(window, rects).0
    }

    /// Computes the signature together with the canonical orientation — the
    /// first element of `D8` whose flattened composite attains the
    /// lexicographic minimum. Aligning every cluster member by its canonical
    /// orientation puts their critical features in a common frame.
    ///
    /// The pattern is swept once per axis; the eight orientations'
    /// composites are compared in place through the side table (see the
    /// [module docs](self)) and only the minimal one is written out.
    pub fn with_orientation(window: &Rect, rects: &[Rect]) -> (TopoSignature, Orientation) {
        with_sides(window, rects, |sides| {
            let best = (1..D8.len()).fold(0, |best, i| {
                if cmp_composites(sides, i, best).is_lt() {
                    i
                } else {
                    best
                }
            });
            (TopoSignature(composite(sides, best)), D8[best])
        })
    }

    /// The flattened canonical string (for diagnostics).
    pub fn as_slice(&self) -> &[u128] {
        &self.0
    }
}

/// Subsequence search (naive; strings are tens of numbers long).
fn contains(haystack: &[u128], needle: &[u128]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if haystack.len() < needle.len() {
        return false;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// The direction a sweep cuts the pattern: [`Axis::Vertical`] slices lie
/// between x-edges and stack their blocks in y, [`Axis::Horizontal`]
/// slices the other way.
#[derive(Clone, Copy)]
enum Axis {
    Vertical,
    Horizontal,
}

impl Axis {
    /// The rect's extent across the slices (where its slice edges lie) and
    /// along them (the block interval it adds to every slice it spans).
    fn extents(self, r: &Rect) -> ((Coord, Coord), (Coord, Coord)) {
        let (x, y) = ((r.min().x, r.max().x), (r.min().y, r.max().y));
        match self {
            Axis::Vertical => (x, y),
            Axis::Horizontal => (y, x),
        }
    }
}

/// The buffers of one pattern's slicing, reused across patterns: the
/// rects in window-local coordinates, the buffers both sweeps share, and
/// the four base side strings.
#[derive(Default)]
struct Slicer {
    rects: Vec<Rect>,
    sweep: Sweep,
    sides: [Vec<u128>; 4], // bottom, east, top, west
}

thread_local! {
    static SLICER: RefCell<Slicer> = RefCell::new(Slicer::default());
}

/// Slices the pattern `rects` inside `window` (rects are clipped to the
/// window) into its four base side strings and hands them to `f`.
///
/// # Panics
///
/// Panics if the window is empty.
fn with_sides<T>(window: &Rect, rects: &[Rect], f: impl FnOnce(&[Vec<u128>; 4]) -> T) -> T {
    assert!(!window.is_empty(), "window must be non-empty");
    SLICER.with(|slicer| {
        let Slicer {
            rects: local,
            sweep,
            sides,
        } = &mut *slicer.borrow_mut();
        // Normalise to local coordinates with the window at the origin.
        local.clear();
        local.extend(
            rects
                .iter()
                .filter_map(|r| r.intersection(window))
                .map(|r| r.translate(-window.min())),
        );
        let (w, h) = (window.width(), window.height());
        // Bottom reads the vertical slices upward, top (`R180`) downward
        // in reverse; east (`R270`) reads the horizontal slices right to
        // left, west (`R90`) left to right in reverse.
        let [bottom, east, top, west] = sides;
        sweep.run(local, Axis::Vertical, w, h, bottom, top);
        sweep.run(local, Axis::Horizontal, h, w, west, east);
        top.reverse();
        west.reverse();
        f(sides)
    })
}

/// The buffers a sweep reuses: the sorted slice edges, the intervals of
/// the rects spanning the current slice, and the merged interval sets of
/// the previous and current slice.
#[derive(Default)]
struct Sweep {
    edges: Vec<Coord>,
    spans: Vec<(Coord, Coord)>,
    prev: Vec<(Coord, Coord)>,
    cur: Vec<(Coord, Coord)>,
}

impl Sweep {
    /// Slices `rects` along `axis` across `[0, span)`, each slice `height`
    /// long, and writes the code of every slice to `up` (blocks read from
    /// 0 to `height`) and to `down` (read from `height` to 0), in slice
    /// order. Adjacent slices with *identical* merged interval sets are one
    /// topological slice (abutting rectangles of one union create spurious
    /// edge events), so they collapse before encoding.
    fn run(
        &mut self,
        rects: &[Rect],
        axis: Axis,
        span: Coord,
        height: Coord,
        up: &mut Vec<u128>,
        down: &mut Vec<u128>,
    ) {
        let Sweep {
            edges,
            spans,
            prev,
            cur,
        } = self;
        up.clear();
        down.clear();
        // Slice boundaries at every edge across the axis plus the window
        // sides.
        edges.clear();
        edges.extend([0, span]);
        for r in rects {
            let ((lo, hi), _) = axis.extents(r);
            edges.extend([lo, hi]);
        }
        edges.sort_unstable();
        edges.dedup();
        for slice in edges.windows(2) {
            let (s0, s1) = (slice[0], slice[1]);
            // Slice boundaries are at all edges, so any rect overlapping
            // the slice spans it whole.
            spans.clear();
            spans.extend(
                rects
                    .iter()
                    .map(|r| axis.extents(r))
                    .filter(|&((lo, hi), _)| lo <= s0 && hi >= s1)
                    .map(|(_, interval)| interval),
            );
            spans.sort_unstable();
            // Merge touching/overlapping intervals.
            cur.clear();
            for &(a, b) in spans.iter() {
                if let Some(last) = cur.last_mut() {
                    if a <= last.1 {
                        last.1 = last.1.max(b);
                        continue;
                    }
                }
                cur.push((a, b));
            }
            if up.is_empty() || cur != prev {
                let mirrored = cur.iter().rev().map(|&(a, b)| (height - b, height - a));
                up.push(encode_slice(cur.iter().copied(), height).unwrap_or(SLICE_OVERFLOW));
                down.push(encode_slice(mirrored, height).unwrap_or(SLICE_OVERFLOW));
                std::mem::swap(prev, cur);
            }
        }
    }
}

/// The code of one slice of height `h` with merged polygon intervals
/// `merged`, in increasing order: the boundary bit, then one bit per
/// block from 0 to `h` (polygon = 1, space = 0). `None` when the bits
/// exceed 128.
fn encode_slice(merged: impl IntoIterator<Item = (Coord, Coord)>, h: Coord) -> Option<u128> {
    let push_bit = |v: u128, bit: u128| (v.leading_zeros() > 0).then_some((v << 1) | bit);
    let mut value: u128 = 1;
    let mut cursor = 0;
    for (a, b) in merged {
        if a > cursor {
            value = push_bit(value, 0)?;
        }
        value = push_bit(value, 1)?;
        cursor = b;
    }
    if cursor < h {
        value = push_bit(value, 0)?;
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Rect {
        Rect::from_extents(0, 0, 100, 100)
    }

    /// The paper's Fig. 5(a)-style step: left column solid full height,
    /// right column a floating bar.
    fn step_pattern() -> Vec<Rect> {
        vec![
            Rect::from_extents(0, 0, 50, 100),
            Rect::from_extents(50, 40, 100, 70),
        ]
    }

    #[test]
    fn fig5a_bottom_string_is_3_10() {
        let s = DirectionalStrings::of(&window(), &step_pattern());
        // Slice 1 (solid column): bits 1,1 -> 3. Slice 2 (floating bar):
        // bits 1,0,1,0 -> 10.
        assert_eq!(s.side(0), &[3u128, 10]);
    }

    #[test]
    fn empty_pattern_single_slice() {
        let s = DirectionalStrings::of(&window(), &[]);
        // One slice, boundary + one space block: bits 1,0 -> 2.
        assert_eq!(s.side(0), &[2u128]);
        assert_eq!(s.side(2), &[2u128]);
    }

    #[test]
    fn full_pattern_single_slice() {
        let s = DirectionalStrings::of(&window(), &[window()]);
        // Bits 1,1 -> 3 on every side.
        for k in 0..4 {
            assert_eq!(s.side(k), &[3u128], "side {k}");
        }
    }

    #[test]
    fn same_topology_under_all_orientations() {
        let rects = step_pattern();
        let base = DirectionalStrings::of(&window(), &rects);
        for o in D8 {
            let trects = o.apply_rects(&rects, 100, 100);
            let rotated = DirectionalStrings::of(&window(), &trects);
            assert!(
                base.same_topology(&rotated),
                "orientation {o} should match\nbase:\n{base}\nrot:\n{rotated}"
            );
            assert!(
                rotated.same_topology(&base),
                "orientation {o} reverse should match"
            );
        }
    }

    #[test]
    fn different_topologies_do_not_match() {
        let a = DirectionalStrings::of(&window(), &[Rect::from_extents(0, 0, 100, 50)]);
        let b = DirectionalStrings::of(&window(), &step_pattern());
        assert!(!a.same_topology(&b));
        assert!(!b.same_topology(&a));
        let empty = DirectionalStrings::of(&window(), &[]);
        assert!(!a.same_topology(&empty));
    }

    #[test]
    fn scaled_pattern_same_topology() {
        // Strings capture topology, not dimensions.
        let big = vec![
            Rect::from_extents(0, 0, 50, 100),
            Rect::from_extents(50, 40, 100, 70),
        ];
        let small = vec![
            Rect::from_extents(0, 0, 10, 100),
            Rect::from_extents(10, 80, 100, 90),
        ];
        let a = DirectionalStrings::of(&window(), &big);
        let b = DirectionalStrings::of(&window(), &small);
        assert!(a.same_topology(&b));
    }

    #[test]
    fn signature_matches_theorem1() {
        let patterns: Vec<Vec<Rect>> = vec![
            vec![Rect::from_extents(0, 0, 100, 50)],
            step_pattern(),
            vec![Rect::from_extents(20, 20, 80, 80)],
            vec![
                Rect::from_extents(0, 40, 100, 60),
                Rect::from_extents(40, 0, 60, 100),
            ],
            vec![],
        ];
        for (i, pa) in patterns.iter().enumerate() {
            for (j, pb) in patterns.iter().enumerate() {
                let sa = TopoSignature::of(&window(), pa);
                let sb = TopoSignature::of(&window(), pb);
                let da = DirectionalStrings::of(&window(), pa);
                let db = DirectionalStrings::of(&window(), pb);
                assert_eq!(
                    sa == sb,
                    da.same_topology(&db),
                    "signature vs theorem-1 mismatch for patterns {i}, {j}"
                );
            }
        }
    }

    #[test]
    fn signature_is_orientation_invariant() {
        let rects = step_pattern();
        let base = TopoSignature::of(&window(), &rects);
        for o in D8 {
            let trects = o.apply_rects(&rects, 100, 100);
            assert_eq!(base, TopoSignature::of(&window(), &trects), "{o}");
        }
    }

    #[test]
    fn mirrored_only_pattern_matches_via_cw_composite() {
        // An asymmetric pattern whose mirror is not any rotation of itself.
        let rects = vec![
            Rect::from_extents(0, 0, 30, 100),
            Rect::from_extents(30, 0, 100, 20),
            Rect::from_extents(60, 50, 80, 70),
        ];
        let mirrored = Orientation::Mx.apply_rects(&rects, 100, 100);
        let a = DirectionalStrings::of(&window(), &rects);
        let b = DirectionalStrings::of(&window(), &mirrored);
        assert!(a.same_topology(&b));
    }

    #[test]
    fn composite_contains_repeated_first_side() {
        let s = DirectionalStrings::of(&window(), &step_pattern());
        let ccw = s.ccw_composite();
        // Starts and ends with separator; first side repeated at the end.
        assert_eq!(ccw.first(), Some(&SIDE_SEPARATOR));
        assert_eq!(ccw.last(), Some(&SIDE_SEPARATOR));
        let b = s.side(0);
        assert_eq!(&ccw[1..1 + b.len()], b);
        assert_eq!(&ccw[ccw.len() - 1 - b.len()..ccw.len() - 1], b);
    }

    #[test]
    fn side_table_follows_theorem1() {
        for (o, order) in D8.into_iter().zip(&SIDES) {
            let r = usize::from(o.rotation_steps());
            for (k, &side) in order.iter().enumerate() {
                let expected = if o.is_mirrored() {
                    (r + 4 - k) % 4
                } else {
                    (k + 4 - r) % 4
                };
                assert_eq!(side, expected, "{o} side {k}");
            }
        }
    }

    /// `bars` full-width horizontal bars, 2 nm wide at a 4 nm pitch, with a
    /// space below the first and above the last: each vertical slice holds
    /// `2 * bars + 1` blocks.
    fn bar_stack(bars: i64) -> (Rect, Vec<Rect>) {
        let window = Rect::from_extents(0, 0, 100, 4 * bars + 1);
        let rects = (0..bars)
            .map(|i| Rect::from_extents(0, 4 * i + 1, 100, 4 * i + 3))
            .collect();
        (window, rects)
    }

    #[test]
    fn slice_of_63_bars_still_fits() {
        let (window, rects) = bar_stack(63);
        let s = DirectionalStrings::of(&window, &rects);
        // Boundary bit plus 127 blocks: exactly 128 bits, alternating.
        let expected = (0..127).fold(1u128, |v, i| (v << 1) | (i % 2));
        assert_eq!(s.side(0), &[expected]);
        assert_ne!(expected, SLICE_OVERFLOW);
    }

    #[test]
    fn slice_across_70_bars_gets_the_overflow_code() {
        let (window, rects) = bar_stack(70);
        let s = DirectionalStrings::of(&window, &rects);
        assert_eq!(s.side(0), &[SLICE_OVERFLOW]);
        assert_eq!(s.side(2), &[SLICE_OVERFLOW]);
        // East and west sides slice across the bars one at a time.
        assert_eq!(s.side(1).len(), 141);
        // Transposed, the horizontal sweep's slices cross all 70 bars.
        let (tw, th) = (window.height(), window.width());
        let transposed: Vec<Rect> = rects
            .iter()
            .map(|r| Rect::from_extents(r.min().y, r.min().x, r.max().y, r.max().x))
            .collect();
        let t = DirectionalStrings::of(&Rect::from_extents(0, 0, tw, th), &transposed);
        assert_eq!(t.side(1), &[SLICE_OVERFLOW]);
        assert_eq!(t.side(3), &[SLICE_OVERFLOW]);
        assert_eq!(t.side(0).len(), 141);
        let base = TopoSignature::of(&window, &rects);
        let (w, h) = (window.width(), window.height());
        for o in D8 {
            let (tw, th) = o.window(w, h);
            let twin = Rect::from_extents(0, 0, tw, th);
            let sig = TopoSignature::of(&twin, &o.apply_rects(&rects, w, h));
            assert_eq!(sig, base, "{o}");
        }
    }

    #[test]
    fn touching_rects_merge_into_one_block() {
        // Two stacked rects sharing an edge behave as one block.
        let merged = DirectionalStrings::of(
            &window(),
            &[
                Rect::from_extents(40, 0, 60, 50),
                Rect::from_extents(40, 50, 60, 100),
            ],
        );
        let solid = DirectionalStrings::of(&window(), &[Rect::from_extents(40, 0, 60, 100)]);
        assert_eq!(merged, solid);
    }
}

//! Scan-scoped memo of admitted kernel decisions.
//!
//! Everything the multiple-kernel stage computes for a clip — the core
//! topology signature, the core density grid, the router's admissions, the
//! critical features and the SVM decision values — reads only the clip's
//! core rects relative to the core window. Array-style layouts repeat
//! cores heavily (about half the clips of an array benchmark repeat an
//! earlier core up to translation), so [`EvalMemo`] keys that
//! window-relative geometry and serves repeats the exact decision list the
//! first evaluation produced.
//!
//! One memo lives for one `scan_layout` call and is shared by every worker
//! of the scan. It cannot be per worker: the executor spawns fresh scoped
//! threads per batch, so thread-local state would be emptied after every
//! batch. It cannot live on the detector either: repeated scans on one
//! detector would then measure and serve warm state.

use hotspot_geom::Rect;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Upper bound on the bytes the memo stores: every entry's key cells,
/// decision list and table slot (the hash table's spare capacity comes on
/// top). At the budget the memo stops inserting and keeps serving hits.
/// The memo sits outside the scan's `max_in_flight` tile bound.
const MAX_BYTES: usize = 16 << 20;

/// One window-relative rect (or, first in a key, the window size) packed
/// as `[x0, y0, x1, y1]`.
type Cell = [u16; 4];

/// What a repeat of a memoised core replays.
struct Entry {
    /// `(kernel index, decision value)` per admitted kernel, in kernel
    /// order. Its length is the clip's `admissions` count.
    decisions: Box<[(usize, f64)]>,
    /// Router rows the first evaluation pruned, so the `admission_skips`
    /// telemetry counts every clip, hit or not.
    rows_pruned: usize,
}

/// The memo's map and the bytes its entries hold.
#[derive(Default)]
struct Table {
    map: HashMap<Box<[Cell]>, Entry>,
    bytes: usize,
}

/// A byte-capped map from a clip's packed core geometry to its admitted
/// `(kernel, decision)` list. See the [module docs](self).
pub(crate) struct EvalMemo {
    table: Mutex<Table>,
    max_bytes: usize,
}

impl EvalMemo {
    /// An empty memo capped at [`MAX_BYTES`].
    pub(crate) fn new() -> Self {
        EvalMemo::with_max_bytes(MAX_BYTES)
    }

    /// An empty memo capped at `max_bytes`.
    pub(crate) fn with_max_bytes(max_bytes: usize) -> Self {
        EvalMemo {
            table: Mutex::default(),
            max_bytes,
        }
    }

    /// The locked table. Poison is ignored: a holder only copies into or
    /// out of the map, so no panic can leave an entry half written.
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Packs a clip's core into `key`: the window size first, then every
    /// window-relative rect in the order evaluation reads them. `rects`
    /// must already be clipped to `window` and translated to its origin.
    /// Returns `false` when a coordinate falls outside `u16`; such a clip
    /// bypasses the memo.
    pub(crate) fn pack_key(window: &Rect, rects: &[Rect], key: &mut Vec<Cell>) -> bool {
        key.clear();
        let Some(size) = pack(0, 0, window.width(), window.height()) else {
            return false;
        };
        key.push(size);
        for r in rects {
            let Some(cell) = pack(r.min().x, r.min().y, r.max().x, r.max().y) else {
                return false;
            };
            key.push(cell);
        }
        true
    }

    /// Copies the decisions memoised under `key` into `out` and returns the
    /// rows the router pruned for them, or `None` on a miss.
    pub(crate) fn get(&self, key: &[Cell], out: &mut Vec<(usize, f64)>) -> Option<usize> {
        let table = self.table();
        let entry = table.map.get(key)?;
        out.clear();
        out.extend_from_slice(&entry.decisions);
        Some(entry.rows_pruned)
    }

    /// Stores a freshly computed decision list. The first insert of a key
    /// wins; racing writers hold identical values, so which one wins never
    /// shows. Does nothing once the entry would take the memo past its
    /// byte budget.
    pub(crate) fn insert(&self, key: &[Cell], decisions: &[(usize, f64)], rows_pruned: usize) {
        let bytes = size_of::<(Box<[Cell]>, Entry)>() + size_of_val(key) + size_of_val(decisions);
        let mut table = self.table();
        if table.bytes + bytes > self.max_bytes || table.map.contains_key(key) {
            return;
        }
        table.bytes += bytes;
        table.map.insert(
            key.into(),
            Entry {
                decisions: decisions.into(),
                rows_pruned,
            },
        );
    }

    /// Entries and bytes stored so far.
    #[cfg(test)]
    fn usage(&self) -> (usize, usize) {
        let table = self.table();
        (table.map.len(), table.bytes)
    }
}

impl fmt::Debug for EvalMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No lock here: a worker formatting its engine may hold it.
        f.debug_struct("EvalMemo")
            .field("max_bytes", &self.max_bytes)
            .finish_non_exhaustive()
    }
}

/// One packed cell, or `None` when a coordinate falls outside `u16`.
fn pack(x0: i64, y0: i64, x1: i64, y1: i64) -> Option<Cell> {
    let c = |v: i64| u16::try_from(v).ok();
    Some([c(x0)?, c(y0)?, c(x1)?, c(y1)?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::EvalEngine;
    use crate::{AdmissionParams, EvalScratch, HotspotDetector, Label, Pattern, TrainingSet};
    use hotspot_geom::Point;
    use hotspot_layout::{ClipShape, ClipWindow};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    const SHAPE: ClipShape = ClipShape::ICCAD2012;

    /// A toy detector (narrow-gap bar pairs are hotspots) whose widened
    /// admission radius lets the router admit some random cores and prune
    /// others, so the decision lists under test vary in length.
    fn detector() -> &'static HotspotDetector {
        static DET: OnceLock<HotspotDetector> = OnceLock::new();
        DET.get_or_init(|| {
            let mut training = TrainingSet::new();
            for i in 0..6 {
                training.push(bars(Point::new(0, 0), 60 + 10 * i), Label::Hotspot);
            }
            for i in 0..8 {
                training.push(bars(Point::new(0, 0), 480 + 10 * i), Label::NonHotspot);
            }
            HotspotDetector::builder()
                .max_learning_rounds(2)
                .admission(AdmissionParams {
                    fuzziness: 3.0,
                    ..Default::default()
                })
                .train(&training)
                .expect("toy training")
        })
    }

    fn bars(corner: Point, gap: i64) -> Pattern {
        let rects = [
            Rect::from_extents(0, 0, 300, 300),
            Rect::from_extents(300 + gap, 0, 600 + gap, 300),
        ];
        place(SHAPE.window_from_core_corner(corner), &rects)
    }

    /// `core_rects` (relative to the core corner) placed in `window`.
    fn place(window: ClipWindow, core_rects: &[Rect]) -> Pattern {
        let rects: Vec<Rect> = core_rects
            .iter()
            .map(|r| r.translate(window.core.min()))
            .collect();
        Pattern::new(window, &rects)
    }

    /// Per clip, the `(kernel, decision bits)` sequence the engine visits,
    /// plus the scratch's admission counters after the run.
    type Run = (Vec<Vec<(usize, u64)>>, u64, u64);

    fn run(engine: &EvalEngine<'_>, patterns: &[Pattern]) -> Run {
        let mut scratch = EvalScratch::new();
        let visits = patterns
            .iter()
            .map(|p| {
                let mut seen = Vec::new();
                engine.for_each_admitted(p, &mut scratch, |k, d| seen.push((k, d.to_bits())));
                seen
            })
            .collect();
        (visits, scratch.admissions(), scratch.admission_skips())
    }

    /// Runs `patterns` with and without `memo` and asserts identical
    /// visits and counters.
    fn assert_exact(patterns: &[Pattern], memo: &EvalMemo) -> Run {
        let engine = detector().eval_engine();
        let plain = run(&engine, patterns);
        let memoised = run(&engine.with_memo(memo), patterns);
        assert_eq!(memoised, plain);
        plain
    }

    fn arb_core() -> impl Strategy<Value = Vec<Rect>> {
        proptest::collection::vec(
            (-200i64..1_300, -200i64..1_300, 20i64..700, 20i64..700),
            0..7,
        )
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(x, y, w, h)| Rect::from_origin_size(Point::new(x, y), w, h))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn memoised_decisions_equal_unmemoised(
            cores in proptest::collection::vec(arb_core(), 1..5),
            placements in proptest::collection::vec(
                (0usize..64, -40_000i64..40_000, -40_000i64..40_000),
                2..14,
            ),
        ) {
            // Every core is placed at least once, then again at random
            // translations, so repeats hit the memo.
            let patterns: Vec<Pattern> = (0..cores.len())
                .map(|i| (i, 0, 0))
                .chain(placements)
                .map(|(i, x, y)| {
                    place(SHAPE.window_from_core_corner(Point::new(x, y)), &cores[i % cores.len()])
                })
                .collect();
            let memo = EvalMemo::new();
            assert_exact(&patterns, &memo);
            prop_assert!(memo.usage().0 <= cores.len());
        }
    }

    #[test]
    fn repeats_are_served_and_the_toy_cores_are_admitted() {
        let patterns: Vec<Pattern> = [(0, 0, 70), (5_000, -3_000, 70), (0, 9_000, 500)]
            .into_iter()
            .map(|(x, y, gap)| bars(Point::new(x, y), gap))
            .collect();
        let memo = EvalMemo::new();
        let (visits, admissions, _) = assert_exact(&patterns, &memo);
        assert_eq!(memo.usage().0, 2, "the translated repeat is a hit");
        assert!(admissions > 0 && !visits[0].is_empty());
        assert_eq!(visits[0], visits[1]);
    }

    #[test]
    fn cores_beyond_u16_bypass_the_memo() {
        // A 70 µm core puts window-relative coordinates past u16::MAX.
        let core = Rect::from_origin_size(Point::new(-3_000, 8_000), 70_000, 70_000);
        let window = ClipWindow {
            core,
            clip: core.inflate(SHAPE.ambit()),
        };
        let rects = [
            Rect::from_extents(0, 0, 300, 300),
            Rect::from_extents(66_000, 100, 69_000, 900),
        ];
        let patterns = [place(window, &rects), place(window, &rects)];
        let memo = EvalMemo::new();
        assert_exact(&patterns, &memo);
        assert_eq!(memo.usage(), (0, 0));
    }

    #[test]
    fn a_full_memo_keeps_serving_and_stays_exact() {
        let distinct: Vec<Pattern> = (0..8)
            .map(|i| bars(Point::new(2_000 * i, 0), 60 + 40 * i))
            .collect();
        // Each core twice, the second pass after the budget is reached.
        let patterns: Vec<Pattern> = distinct.iter().chain(&distinct).cloned().collect();
        let budget = 300;
        let memo = EvalMemo::with_max_bytes(budget);
        assert_exact(&patterns, &memo);
        let (entries, bytes) = memo.usage();
        assert!(entries > 0 && entries < distinct.len(), "{entries} entries");
        assert!(bytes <= budget);
    }

    #[test]
    fn pack_key_bounds() {
        let window = Rect::from_extents(500, 500, 500 + 65_535, 600);
        let mut key = Vec::new();
        let edge = Rect::from_extents(0, 0, 65_535, 100);
        assert!(EvalMemo::pack_key(&window, &[edge], &mut key));
        assert_eq!(key, [[0, 0, 65_535, 100], [0, 0, 65_535, 100]]);
        let wide = Rect::from_extents(500, 500, 500 + 65_536, 600);
        assert!(!EvalMemo::pack_key(&wide, &[], &mut key));
        let below = Rect::from_extents(-1, 0, 10, 10);
        assert!(!EvalMemo::pack_key(&window, &[edge, below], &mut key));
    }
}

//! Streaming full-layout scan with density prefiltering (§IV-E) and
//! fault tolerance.
//!
//! Materialising every candidate clip of a layout before classifying is
//! fine for benchmark clips and prohibitive for a production-scale layout.
//! [`HotspotDetector::scan_layout`] instead walks the layout as
//! overlapping tiles (a
//! [`TileScanner`]), discards tiles
//! whose pattern density cannot pass the extraction filter (the *density
//! prefilter*, a new [`StageId::DensityPrefilter`] pipeline stage), and
//! fans the surviving tiles over the executor while holding
//! at most [`ScanConfig::max_in_flight`] tiles in memory at once.
//!
//! The default prefilter is **conservative**: a tile is skipped only when
//! the summed pattern area overlapping its window is below
//! `min_core_density × core_area`, an upper bound on the core density of
//! every clip the tile owns — so every tiling reports *exactly* the
//! hotspot set of sequential whole-layout evaluation (see `tests/scan.rs`).
//! [`HotspotDetector::detect`] is this scan at [`ScanConfig::default`].
//! Setting
//! [`ScanConfig::tile_density`] adds an aggressive mean-coverage cut that
//! trades recall for speed, as the paper's density filter does.
//!
//! # Fault tolerance
//!
//! A production scan runs for hours, so the scan is the pipeline's
//! fault-tolerance boundary:
//!
//! - tile tasks run under the executor's panic isolation — a panicking
//!   tile is retried once on the caller thread, then handled per
//!   [`ScanConfig::failure_policy`]: [`FailurePolicy::Abort`] surfaces a
//!   typed [`DetectError::TaskPanicked`], while
//!   [`FailurePolicy::SkipAndRecord`] quarantines the tile into
//!   [`ScanReport::failed_tiles`] and scans on;
//! - [`ScanConfig::cache`] appends every tile a batch computes to the
//!   tile cache ([`crate::tile_cache`]) with one fsync per batch, so a
//!   killed scan re-run with the same cache restarts where it left off,
//!   with a report whose deterministic content ([`ScanReport::digest`])
//!   is bit-identical to an uninterrupted run;
//! - [`ScanConfig::fault_plan`] arms the deterministic fault-injection
//!   harness that proves all of the above under test.
//!
//! # Deadlines and cooperative cancellation
//!
//! Long scans can also be *stopped* without losing their progress:
//!
//! - [`ScanConfig::deadline`] bounds the scan's wall-clock budget — when
//!   it expires, the scan stops admitting tiles at the next batch
//!   boundary, drains the in-flight window, syncs the cache, and returns a partial report marked
//!   [`ScanReport::aborted`](ScanReport::aborted) with
//!   [`AbortReason::DeadlineExceeded`];
//! - [`ScanConfig::cancel`] is an external [`CancelToken`] (the CLI's
//!   SIGINT handler trips it) that aborts the same way with
//!   [`AbortReason::Interrupted`], which outranks the deadline. The scan
//!   polls one token, that flag bounded by the deadline instant, so either
//!   stop reaches in-flight tiles at their next poll;
//! - [`ScanConfig::tile_timeout`] arms a soft per-tile budget, polled
//!   cooperatively at stage boundaries and per evaluated clip — a tile
//!   that blows it is retried once and then quarantined as
//!   [`FailureKind::TimedOut`], with a deterministic reason so the
//!   quarantine list stays digest-stable across machines.
//!
//! Because the abort points sit at batch boundaries and the cache is
//! fsync'd per batch, an aborted scan's cache holds only whole-tile
//! entries; re-running the scan with the same [`ScanConfig::cache`]
//! completes it with a digest bit-identical to an uninterrupted run.
//!
//! # Example
//!
//! ```
//! use hotspot_core::{DetectorConfig, HotspotDetector, Label, Pattern, ScanConfig, TrainingSet};
//! use hotspot_geom::{Point, Rect};
//! use hotspot_layout::{ClipShape, LayerId, Layout};
//!
//! // A toy training set: narrow-gap bar pairs are hotspots.
//! let clip = |gap: i64| {
//!     let window = ClipShape::ICCAD2012.window_from_core_corner(Point::new(0, 0));
//!     let rects = [
//!         Rect::from_extents(0, 0, 300, 300),
//!         Rect::from_extents(300 + gap, 0, 600 + gap, 300),
//!     ];
//!     Pattern::new(window, &rects)
//! };
//! let mut training = TrainingSet::new();
//! for i in 0..4 {
//!     training.push(clip(60 + 10 * i), Label::Hotspot);
//! }
//! for i in 0..8 {
//!     training.push(clip(480 + 10 * i), Label::NonHotspot);
//! }
//! let config = DetectorConfig {
//!     threads: 2,
//!     max_learning_rounds: 2,
//!     distribution: hotspot_core::DistributionFilter {
//!         min_core_density: 0.001,
//!         min_polygon_count: 1,
//!         max_boundary_bbox_distance: 4800,
//!     },
//!     ..Default::default()
//! };
//! let detector = HotspotDetector::train(&training, config)?;
//!
//! // Plant the hotspot motif in a layout and stream-scan it.
//! let mut layout = Layout::new("chip");
//! layout.add_rect(LayerId::METAL1, Rect::from_extents(20_000, 20_000, 20_300, 20_300));
//! layout.add_rect(LayerId::METAL1, Rect::from_extents(20_370, 20_000, 20_670, 20_300));
//! let scan = ScanConfig { tile_cores: 4, max_in_flight: 2, ..Default::default() };
//! let report = detector.scan_layout(&layout, LayerId::METAL1, &scan)?;
//!
//! // The default tiling (`detect`) reports the same set; memory stays
//! // within the window.
//! let default_tiling = detector.detect(&layout, LayerId::METAL1)?;
//! assert_eq!(report.reported, default_tiling.reported);
//! assert!(report.peak_in_flight <= 2);
//! # Ok::<(), hotspot_core::DetectError>(())
//! ```

use crate::cancel::{AbortReason, CancelPanic, CancelToken, TimeoutPanic};
use crate::detector::{DetectError, HotspotDetector};
use crate::engine::executor::panic_payload_to_string;
use crate::engine::{
    Executor, ExecutorStats, FaultPlan, FaultSite, PipelineTelemetry, StageId, StageRecorder,
    StageTelemetry, TaskFailure, TaskResult,
};
use crate::extraction::{passes_filter, split_oversized_into, RectIndex};
use crate::feedback::EvalScratch;
use crate::journal::TileOutcomeRecord;
use crate::memo::EvalMemo;
use crate::metrics::{score, Evaluation};
use crate::obs::{Counter, ObsEvent, ObsHub, StageCounter};
use crate::pattern::Pattern;
use crate::removal::remove_redundant_clips;
use crate::tile_cache::{self, CacheHeader, TileCache};
use hotspot_geom::{AreaTable, Point, Rect};
use hotspot_layout::scan::{Tile, TileScanner, TileSpec};
use hotspot_layout::{ClipWindow, LayerId, Layout};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Subtile pitch of the scan's per-tile [`hotspot_geom::AreaTableGrid`], in
/// core sides. Table build cost is quadratic in the rects per subtile, so
/// a pitch of a few cores keeps boundary crossings local while the padded
/// windows (one core side of +x/+y padding) stay small relative to the
/// pitch. Public so the benchmark's traced replay rasterises with exactly
/// the production decomposition.
pub const RASTER_SUBTILE_CORES: i64 = 4;

/// Most tiles a scan grid may hold. A layer whose bounding box needs more
/// tiles at the configured stride fails with
/// [`DetectError::ExtentTooLarge`] before any index is built, so a hostile
/// extent (say, two specks at opposite corners of the GDSII coordinate
/// range) cannot allocate or walk without bound.
///
/// For scale: the largest suite layout (`mx_blind_partial` at `Huge`,
/// 1.5 × 0.6 mm) is about 2.5 × 10^3 tiles at the default 16-core stride,
/// and a full 26 × 33 mm reticle is 2.3 × 10^6 tiles at that stride and
/// 6.0 × 10^8 at the finest (1-core) stride. The full `i32` range is
/// 5 × 10^10 tiles at the default stride.
pub const MAX_SCAN_TILES: u64 = 1 << 30;

/// Rejects a layer whose bounding box needs more than [`MAX_SCAN_TILES`]
/// tiles of side `stride`. The arithmetic is checked: an extent that
/// overflows counts as too large.
fn check_extent(bbox: Option<Rect>, stride: i64) -> Result<(), DetectError> {
    let Some(bbox) = bbox else {
        return Ok(());
    };
    let stride = stride.unsigned_abs();
    let tiles_along = |lo: i64, hi: i64| {
        hi.checked_sub(lo)
            .map(|w| w.unsigned_abs().div_ceil(stride))
    };
    let tiles = tiles_along(bbox.min().x, bbox.max().x)
        .zip(tiles_along(bbox.min().y, bbox.max().y))
        .and_then(|(cols, rows)| cols.checked_mul(rows));
    match tiles {
        Some(tiles) if tiles <= MAX_SCAN_TILES => Ok(()),
        tiles => Err(DetectError::ExtentTooLarge {
            bbox,
            tiles: tiles.unwrap_or(u64::MAX),
        }),
    }
}

/// The density prefilter's pattern area over `window`: every rect's
/// overlap summed, overlaps double-counted. The sum saturates at
/// `i64::MAX` rather than overflowing (stacked giant rects under a large
/// `tile_cores` reach it), so it stays an upper bound on the true area.
fn covered_area(rects: &[Rect], window: &Rect) -> i64 {
    rects
        .iter()
        .fold(0i64, |sum, r| sum.saturating_add(r.overlap_area(window)))
}

/// What a scan does when a tile task fails (panics on both attempts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Fail the scan with [`DetectError::TaskPanicked`] on the first tile
    /// whose retry also fails (the default — no silent data loss).
    #[default]
    Abort,
    /// Quarantine the failed tile into [`ScanReport::failed_tiles`] and
    /// keep scanning — degraded mode for long production runs.
    SkipAndRecord {
        /// Fail the scan with [`DetectError::TooManyFailures`] once more
        /// than this many tiles are quarantined.
        max_failed_tiles: usize,
    },
}

/// How a quarantined tile failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FailureKind {
    /// Both attempts panicked — the only kind before soft budgets existed,
    /// and the serde default so older reports deserialise unchanged.
    #[default]
    Panicked,
    /// Both attempts exceeded the soft per-tile budget
    /// ([`ScanConfig::tile_timeout`]).
    TimedOut,
}

/// A tile that failed both attempts and was skipped under
/// [`FailurePolicy::SkipAndRecord`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedTile {
    /// Stable tile id (`iy × grid_cols + ix`), thread-count-invariant.
    pub tile: usize,
    /// Whether the tile panicked or blew its soft time budget. Content,
    /// not provenance — included in the digest. Absent in pre-timeout
    /// reports, which deserialise as [`FailureKind::Panicked`].
    #[serde(default)]
    pub kind: FailureKind,
    /// The panic payload of the failing attempt (for
    /// [`FailureKind::TimedOut`], a deterministic budget message that
    /// never includes measured wall time).
    pub reason: String,
}

/// Configuration of a streaming layout scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanConfig {
    /// Tile region side length in core sides (the tile stride is
    /// `tile_cores × core_side`). Must be at least 1.
    pub tile_cores: usize,
    /// Maximum tiles held in flight at once — the scan's memory bound.
    /// `0` resolves to twice the worker-thread count.
    pub max_in_flight: usize,
    /// Optional aggressive prefilter: skip tiles whose mean pattern
    /// coverage (overlapping pattern area / tile window area) is below this
    /// fraction. Unlike the default conservative prefilter this may drop
    /// true hotspots; `None` keeps the scan exactly equivalent to
    /// whole-layout evaluation.
    pub tile_density: Option<f64>,
    /// What to do when a tile fails both its attempt and its retry.
    #[serde(default)]
    pub failure_policy: FailurePolicy,
    /// Deterministic fault-injection plan, for the fault-tolerance tests
    /// and the CI smoke. The default (empty) plan injects nothing and
    /// costs nothing.
    #[serde(default)]
    pub fault_plan: FaultPlan,
    /// Content-addressed tile result cache ([`crate::tile_cache`]) and the
    /// scan's one durable store: tiles whose content fingerprint matches a
    /// stored entry replay their cached outcome instead of recomputing,
    /// each batch appends the tiles it computed with one fsync, and the
    /// file is compacted to this scan's results on completion. Re-running
    /// an aborted or killed scan with the same cache resumes it. `None`
    /// disables caching.
    #[serde(default)]
    pub cache: Option<PathBuf>,
    /// Paranoid cache mode: hits are *also* recomputed and the stored
    /// outcome is asserted byte-equal to the fresh one — any disagreement
    /// fails the scan with [`DetectError::Cache`]. Costs a full recompute;
    /// for debugging and CI only.
    #[serde(default)]
    pub cache_verify: bool,
    /// Global wall-clock budget. When it expires the scan stops admitting
    /// tiles at the next batch boundary, drains the in-flight window,
    /// syncs the cache, and returns a partial report marked
    /// [`ScanReport::aborted`] with [`AbortReason::DeadlineExceeded`] —
    /// resumable by re-running with the same [`cache`](Self::cache). `None` (the
    /// default) scans to completion. A zero deadline is valid and aborts
    /// before the first batch.
    #[serde(default)]
    pub deadline: Option<Duration>,
    /// Soft per-tile wall-clock budget, polled cooperatively at every
    /// stage boundary and per evaluated clip. A tile that blows it panics
    /// with a deterministic timeout marker, is retried once like any other
    /// failure, and is then handled per
    /// [`failure_policy`](Self::failure_policy) as
    /// [`FailureKind::TimedOut`]. `None` disables the budget; zero is
    /// rejected by [`validate`](Self::validate).
    #[serde(default)]
    pub tile_timeout: Option<Duration>,
    /// External cooperative stop: when this token is cancelled (the CLI's
    /// SIGINT handler trips it) the scan aborts at the next batch boundary
    /// with [`AbortReason::Interrupted`]. Never serialised — deserialised
    /// configs carry no token.
    #[serde(skip)]
    pub cancel: Option<CancelToken>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            tile_cores: 16,
            max_in_flight: 0,
            tile_density: None,
            failure_policy: FailurePolicy::Abort,
            fault_plan: FaultPlan::default(),
            cache: None,
            cache_verify: false,
            deadline: None,
            tile_timeout: None,
            cancel: None,
        }
    }
}

impl ScanConfig {
    /// Validates the scan settings.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile_cores == 0 {
            return Err("tile_cores must be at least 1".into());
        }
        if let Some(d) = self.tile_density {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("tile_density must be positive and finite, got {d}"));
            }
        }
        if self.cache_verify && self.cache.is_none() {
            return Err("cache_verify requires a cache path".into());
        }
        if self.tile_timeout.is_some_and(|t| t.is_zero()) {
            return Err("tile_timeout must be positive when set".into());
        }
        self.fault_plan.validate()
    }

    /// The in-flight window after resolving `0` against `threads`.
    pub fn effective_in_flight(&self, threads: usize) -> usize {
        if self.max_in_flight == 0 {
            (threads * 2).max(1)
        } else {
            self.max_in_flight
        }
    }
}

/// Outcome of a streaming layout scan.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScanReport {
    /// The reported hotspot clips (after removal, when enabled) — the same
    /// set at every tiling when the aggressive
    /// [`ScanConfig::tile_density`] cut is off.
    pub reported: Vec<ClipWindow>,
    /// Tiles in the scan grid, including empty ones.
    pub tiles_total: usize,
    /// Non-empty tiles examined.
    pub tiles_scanned: usize,
    /// Tiles discarded by the density prefilter.
    pub tiles_prefiltered: usize,
    /// Candidate clips extracted from surviving tiles.
    pub clips_extracted: usize,
    /// Clips flagged hotspot by the multiple kernels.
    pub clips_flagged: usize,
    /// Flags reclaimed to nonhotspot by the feedback kernel.
    pub feedback_reclaimed: usize,
    /// Clip batches scheduled through the batched SVM inference engine —
    /// one per tile that evaluated at least one clip. Absent in
    /// pre-batching reports, which deserialise with 0.
    #[serde(default)]
    pub eval_batches: usize,
    /// Tiles quarantined under [`FailurePolicy::SkipAndRecord`] — both
    /// attempts panicked. Empty on a healthy scan (and in pre-v4 reports,
    /// which deserialise empty).
    #[serde(default)]
    pub failed_tiles: Vec<QuarantinedTile>,
    /// Failed tile tasks that were re-attempted once before quarantine.
    /// Absent in pre-v4 reports, which deserialise with 0.
    #[serde(default)]
    pub retries: usize,
    /// Tiles replayed from the [`ScanConfig::cache`] by content
    /// fingerprint. Provenance, not content — excluded from the digest.
    /// Absent in pre-cache reports, which deserialise with 0.
    #[serde(default)]
    pub cache_hits: usize,
    /// Tiles the cache could not serve (new, edited, or lost to
    /// corruption) — always 0 when caching is off. Provenance, not
    /// content. Absent in pre-cache reports, which deserialise with 0.
    #[serde(default)]
    pub cache_misses: usize,
    /// Why the scan stopped early — [`ScanConfig::deadline`] expiry or an
    /// external [`ScanConfig::cancel`] trip — or `None` when it ran to
    /// completion. Provenance, not content: excluded from the digest, so
    /// an aborted scan re-run to completion from its cache digests
    /// identically to an uninterrupted run. Absent in pre-deadline reports, which
    /// deserialise as `None`.
    #[serde(default)]
    pub aborted: Option<AbortReason>,
    /// Most tiles simultaneously in flight — never exceeds the configured
    /// window ([`ScanConfig::effective_in_flight`]).
    pub peak_in_flight: usize,
    /// Per-stage telemetry of the scan (phase `"scan"`). Stage wall times
    /// are summed across workers, so they can exceed the phase wall time.
    pub telemetry: PipelineTelemetry,
    /// Total wall-clock time of the scan.
    #[serde(skip)]
    pub scan_time: Duration,
}

impl ScanReport {
    /// Clips classified per second of scan wall time.
    pub fn clips_per_second(&self) -> f64 {
        let secs = self.scan_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.clips_extracted as f64 / secs
    }

    /// Scores the reported clips against ground-truth hotspot windows, with
    /// [`scan_time`](Self::scan_time) as the runtime.
    pub fn score_against(
        &self,
        actual: &[ClipWindow],
        min_clip_overlap: f64,
        layout_area_um2: f64,
    ) -> Evaluation {
        score(
            &self.reported,
            actual,
            min_clip_overlap,
            layout_area_um2,
            self.scan_time,
        )
    }

    /// Canonical JSON digest of the report's *deterministic* content: the
    /// reported clips, every tile/clip/flag count, and the quarantine
    /// list. Wall-clock and scheduling artefacts (telemetry, scan time,
    /// `peak_in_flight`), the retry/cache provenance counters, and the
    /// [`aborted`](Self::aborted) marker are excluded — so a killed scan
    /// re-run from its cache and a warm cached re-scan both digest
    /// byte-identically to an uninterrupted cold run, which
    /// `tests/fault_tolerance.rs`, `tests/deadlines.rs`, and
    /// `tests/tile_cache.rs` pin.
    pub fn digest(&self) -> String {
        #[derive(Serialize)]
        struct Digest {
            reported: Vec<ClipWindow>,
            tiles_total: usize,
            tiles_scanned: usize,
            tiles_prefiltered: usize,
            clips_extracted: usize,
            clips_flagged: usize,
            feedback_reclaimed: usize,
            eval_batches: usize,
            failed_tiles: Vec<QuarantinedTile>,
        }
        serde_json::to_string(&Digest {
            reported: self.reported.clone(),
            tiles_total: self.tiles_total,
            tiles_scanned: self.tiles_scanned,
            tiles_prefiltered: self.tiles_prefiltered,
            clips_extracted: self.clips_extracted,
            clips_flagged: self.clips_flagged,
            feedback_reclaimed: self.feedback_reclaimed,
            eval_batches: self.eval_batches,
            failed_tiles: self.failed_tiles.clone(),
        })
        .expect("scan digest serialises")
    }
}

/// What one tile produced: the canonical record the cache stores, plus
/// the work it took — provenance that is never stored, so served tiles
/// carry none.
struct TileOutcome {
    record: TileOutcomeRecord,
    work: TileWork,
}

impl TileOutcome {
    /// A stored outcome served without recomputation.
    fn replayed(record: TileOutcomeRecord) -> TileOutcome {
        TileOutcome {
            record,
            work: TileWork::default(),
        }
    }
}

/// Admission counters and per-stage wall times of one tile computation.
#[derive(Default)]
struct TileWork {
    /// Clip-kernel pairs admitted to SVM evaluation on this tile.
    admissions: u64,
    /// Centroid-orientation rows the admission router pruned on this tile.
    admission_skips: u64,
    prefilter_time: Duration,
    extract_time: Duration,
    eval_time: Duration,
}

/// Where a batch tile's outcome comes from.
enum Origin {
    /// Served from the tile cache by content fingerprint.
    CacheHit,
    /// A cache hit recomputed under [`ScanConfig::cache_verify`]; the
    /// recompute must reproduce this stored record.
    VerifiedHit(TileOutcomeRecord),
    /// Run because the cache held no matching entry; `stale` when it held
    /// one under an outdated fingerprint.
    CacheMiss { stale: bool },
    /// Run with caching off.
    Uncached,
}

/// How far a batch tile got.
enum TileState {
    /// Not computed — before the runner, or after it when the scan is
    /// stopping (a re-run computes it).
    Pending,
    Done(TileOutcome),
    Quarantined(QuarantinedTile),
}

/// One tile of the in-flight batch, carried from the source through the
/// runner and the sink into the tally.
struct Slot {
    tile: Tile,
    /// Stable tile id (`iy × grid_cols + ix`), thread-count-invariant.
    id: usize,
    /// Content fingerprint; 0 when caching is off.
    fingerprint: u64,
    origin: Origin,
    state: TileState,
    /// Whether the first attempt failed and the tile ran once more.
    retried: bool,
}

/// Ends a worker's hold on a tile on drop: decrements the in-flight count
/// and counts the tile done on the hub. Dropping also runs when the tile
/// unwinds — out of a panic, a blown budget or the cooperative stop — so
/// every tile a worker started is done once the worker lets go of it, and
/// no tile stays in flight after the scan returns, aborted or not. A retry
/// runs on the calling thread after this and counts nothing more.
struct InFlightGuard<'a>(&'a AtomicUsize, Option<&'a ObsHub>);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        if let Some(hub) = self.1 {
            hub.counters().add(Counter::TilesDone, 1);
        }
    }
}

/// Per-worker scratch reused across tiles, like [`EvalScratch`] but for
/// the whole of [`TileRunner::process`]: the split-piece buffer, the anchor-dedup
/// set, the extracted patterns, and the evaluation scratch itself. Buffers
/// grow to their high-water marks once and are cleared — not freed — at
/// the start of every tile, so outcomes never depend on what ran before.
#[derive(Default)]
struct TileScratch {
    eval: EvalScratch,
    pieces: Vec<Rect>,
    seen: HashSet<Point>,
    patterns: Vec<Pattern>,
    /// Clip core windows of the current tile, collected for the
    /// anchor-aware subtile table build.
    windows: Vec<Rect>,
}

thread_local! {
    /// One [`TileScratch`] per worker thread. Thread-local rather than
    /// task-local because the executor closure is shared by every worker;
    /// a panicking tile releases the borrow on unwind, so the sequential
    /// retry reuses the same (cleared) scratch safely.
    static TILE_SCRATCH: RefCell<TileScratch> = RefCell::new(TileScratch::default());
}

impl HotspotDetector {
    /// Streams a full layout through the evaluation pipeline tile by tile
    /// (§IV-E): density prefilter → clip extraction → multiple-kernel
    /// evaluation, with redundant clip removal over the accumulated flags.
    ///
    /// Memory is bounded by the in-flight tile window; results are
    /// deterministic and — with the aggressive cut off — independent of
    /// the tiling. [`HotspotDetector::detect`] is this scan at
    /// [`ScanConfig::default`]. Tile panics are
    /// isolated, retried once, and then handled per
    /// [`ScanConfig::failure_policy`]; see the [module docs](crate::scan)
    /// for resuming through the tile cache.
    ///
    /// # Examples
    ///
    /// Scan a layout with live observability attached — counters stream to
    /// any registered sink, while the report stays bit-identical to an
    /// unobserved run:
    ///
    /// ```
    /// use hotspot_core::{
    ///     DetectorConfig, HotspotDetector, Label, ObsHub, Pattern, ScanConfig, TrainingSet,
    /// };
    /// use hotspot_geom::{Point, Rect};
    /// use hotspot_layout::{ClipShape, LayerId, Layout};
    ///
    /// let clip = |gap: i64| {
    ///     let window = ClipShape::ICCAD2012.window_from_core_corner(Point::new(0, 0));
    ///     let rects = [
    ///         Rect::from_extents(0, 0, 300, 300),
    ///         Rect::from_extents(300 + gap, 0, 600 + gap, 300),
    ///     ];
    ///     Pattern::new(window, &rects)
    /// };
    /// let mut training = TrainingSet::new();
    /// for i in 0..4 {
    ///     training.push(clip(60 + 10 * i), Label::Hotspot);
    /// }
    /// for i in 0..8 {
    ///     training.push(clip(480 + 10 * i), Label::NonHotspot);
    /// }
    /// let config = DetectorConfig {
    ///     max_learning_rounds: 2,
    ///     ..Default::default()
    /// };
    /// let hub = ObsHub::new();
    /// let detector = HotspotDetector::train(&training, config)?.with_obs(hub.clone());
    ///
    /// let mut layout = Layout::new("chip");
    /// layout.add_rect(LayerId::METAL1, Rect::from_extents(0, 0, 300, 300));
    /// layout.add_rect(LayerId::METAL1, Rect::from_extents(370, 0, 670, 300));
    /// let report = detector.scan_layout(&layout, LayerId::METAL1, &ScanConfig::default())?;
    ///
    /// let snapshot = hub.snapshot();
    /// assert_eq!(snapshot.clips_extracted, report.clips_extracted as u64);
    /// # Ok::<(), hotspot_core::DetectError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Config`] for invalid scan settings,
    /// [`DetectError::InvalidModel`] for a model whose kernels disagree
    /// with their SVMs ([`validate`](Self::validate)),
    /// [`DetectError::EmptyLayer`] when the layout has no polygons on
    /// `layer`, [`DetectError::ExtentTooLarge`] when the layer's bounding
    /// box needs more than [`MAX_SCAN_TILES`] tiles, [`DetectError::Cache`]
    /// when the tile cache cannot be written, [`DetectError::TaskPanicked`] under
    /// [`FailurePolicy::Abort`], and [`DetectError::TooManyFailures`] when
    /// the quarantine bound is exceeded.
    pub fn scan_layout(
        &self,
        layout: &Layout,
        layer: LayerId,
        scan: &ScanConfig,
    ) -> Result<ScanReport, DetectError> {
        scan.validate().map_err(DetectError::Config)?;
        self.validate()?;
        if layout.polygons(layer).is_empty() {
            return Err(DetectError::EmptyLayer(layer));
        }
        let config = self.config();
        let shape = config.clip_shape;
        let threads = config.effective_threads().max(1);
        let window_cap = scan.effective_in_flight(threads);
        let started = Instant::now();
        let mut recorder = StageRecorder::new("scan", threads);
        let obs = self.obs().map(Arc::as_ref);

        let stride = i64::try_from(scan.tile_cores)
            .ok()
            .and_then(|n| shape.core_side().checked_mul(n))
            .ok_or_else(|| DetectError::Config("tile_cores overflows the tile stride".into()))?;
        let spec = TileSpec::new(stride, shape.ambit() + shape.core_side())
            .map_err(|e| DetectError::Config(e.to_string()))?;
        let rects = layout.dissected_rects(layer);
        check_extent(Rect::bbox_of(&rects), stride)?;
        // The global rectangle index: patterns are built from the same
        // index queries whole-layout extraction issues, so clip features do
        // not depend on the tiling.
        let index = RectIndex::build(rects, shape.clip_side());
        let scanner = TileScanner::from_rects(index.rects().to_vec(), spec);
        let tiles_total = scanner.grid().tile_count();
        if let Some(hub) = obs {
            hub.emit(|| ObsEvent::ScanStarted {
                tiles_total,
                threads,
                window: window_cap,
            });
        }

        let mut source = TileSource {
            grid_cols: scanner.grid().cols(),
            scanner,
            cache_verify: scan.cache_verify,
        };
        let mut sink = TileSink {
            cache: self.open_cache(scan, layer),
            scan,
        };
        // The scan's one stop token: the caller's flag bounded by the
        // deadline. The loop below, the executor and every tile poll it.
        let deadline_at = scan.deadline.and_then(|d| started.checked_add(d));
        let stop = scan
            .cancel
            .clone()
            .unwrap_or_default()
            .with_deadline(deadline_at);
        if let Some(hub) = obs {
            hub.set_deadline(deadline_at);
        }
        let runner = TileRunner::new(self, &index, scan, threads, stop);

        let mut tally = ScanTally::default();
        let batches: Result<_, DetectError> = (|| loop {
            // Abort point: stop admitting tiles at the batch boundary. The
            // cache already holds every completed batch (fsync'd by the
            // sink), so everything up to here is resumable.
            if let Some(reason) = runner.stop.abort_reason() {
                break Ok(Some(reason));
            }
            // Backpressure: pull at most one window's worth of tiles, run
            // them, then drain before pulling more.
            let mut slots = source.next_batch(window_cap, sink.cache.as_ref(), obs);
            if slots.is_empty() {
                break Ok(None);
            }
            let stats = runner.run(&mut slots, tally.report.failed_tiles.len())?;
            sink.write_batch(&slots)?;
            tally.fold(slots, &stats, &mut recorder, obs);
        })();
        // The gauge goes with the scan, failed or not.
        if let Some(hub) = obs {
            hub.set_deadline(None);
        }
        let aborted = batches?;

        let flagged_cores = std::mem::take(&mut tally.flagged_cores);
        let flagged_count = flagged_cores.len();
        let t_removal = Instant::now();
        let reported = if config.ablation.removal {
            remove_redundant_clips(flagged_cores, shape, &index, config)
        } else {
            flagged_cores
                .into_iter()
                .map(|core| ClipWindow {
                    core,
                    clip: core.inflate(shape.ambit()),
                })
                .collect()
        };
        let removal = StageTelemetry::measured(
            StageId::ClipRemoval,
            flagged_count,
            reported.len(),
            t_removal.elapsed(),
            None,
        );
        record_stage(&mut recorder, obs, StageId::ClipRemoval, &removal);
        if aborted.is_none() {
            sink.finish()?;
        }

        if let Some(reason) = aborted {
            recorder.set_aborted(reason.name());
        }
        if let Some(hub) = obs {
            let tiles_scanned = tally.report.tiles_scanned;
            match aborted {
                Some(reason) => hub.emit(|| ObsEvent::ScanAborted {
                    reason: reason.name().to_string(),
                    tiles_scanned,
                }),
                None => hub.emit(|| ObsEvent::ScanCompleted {
                    tiles_scanned,
                    reported: reported.len(),
                    quarantined: tally.report.failed_tiles.len(),
                }),
            }
            recorder.set_obs_sinks(hub.sink_names());
        }
        Ok(ScanReport {
            reported,
            tiles_total,
            aborted,
            peak_in_flight: runner.peak.load(Ordering::SeqCst),
            telemetry: recorder.finish(),
            scan_time: started.elapsed(),
            ..tally.report
        })
    }

    /// Opens the scan's tile cache, when one is configured. Opening never
    /// fails: a corrupt or mismatched store is discarded, not trusted, and
    /// the hub hears what was thrown away.
    fn open_cache(&self, scan: &ScanConfig, layer: LayerId) -> Option<TileCache> {
        let path = scan.cache.as_deref()?;
        let header = CacheHeader::new(
            self.model_fingerprint(),
            scan.tile_cores,
            layer,
            self.config().decision_threshold,
            scan.tile_density,
        );
        let mut cache = TileCache::open(path, header);
        if let Some(hub) = self.obs() {
            cache.set_obs(Arc::clone(hub));
        }
        let stats = cache.load_stats();
        if let (Some(hub), true) = (self.obs(), stats.discarded || stats.rejected > 0) {
            let invalidated = if stats.discarded { 1 } else { stats.rejected };
            hub.counters()
                .add(Counter::CacheInvalidated, invalidated as u64);
            hub.emit(|| ObsEvent::CacheInvalidated {
                entries: if stats.discarded { 0 } else { stats.loaded },
                rejected: stats.rejected,
                discarded: stats.discarded,
            });
        }
        Some(cache)
    }

    /// FNV-1a fingerprint of this trained model's evaluation identity —
    /// the kernels, the feedback kernel, and the full config minus the
    /// thread count (scans are thread-count-invariant). Any retrain or
    /// config change yields a new fingerprint and invalidates every tile
    /// cache built under the old one. Only the small config half is
    /// serialised per scan.
    fn model_fingerprint(&self) -> u64 {
        let mut config = self.config().clone();
        config.threads = 0;
        let config = serde_json::to_string(&config).expect("config serialises");
        tile_cache::model_fingerprint(self.model_hash(), &config)
    }
}

/// The cooperative stop/budget poll of a tile that started at
/// `tile_started`, called at every stage boundary and per evaluated clip.
/// Cancellation wins over the budget so an aborting scan never mislabels
/// in-flight tiles as timed out. Both outcomes unwind with typed markers
/// the executor and the retry loop downcast; the timeout marker carries
/// only the configured budget — never the measured elapsed time — so
/// quarantine reasons (digest content) stay deterministic across machines,
/// runs, and thread counts. The panic releases the scratch borrow on
/// unwind, like any other tile panic.
fn poll_stop(stop: &CancelToken, budget: Option<Duration>, tile_started: Instant) {
    if stop.is_cancelled() {
        panic_any(CancelPanic);
    }
    if let Some(b) = budget {
        if tile_started.elapsed() > b {
            panic_any(TimeoutPanic {
                budget_ms: b.as_millis() as u64,
            });
        }
    }
}

/// The tile source: walks the grid one window of tiles at a time and
/// resolves each tile from the cache by content fingerprint, leaving the
/// rest pending for the runner.
struct TileSource {
    scanner: TileScanner,
    grid_cols: i64,
    cache_verify: bool,
}

impl TileSource {
    /// The next batch of at most `window` tiles, in grid order — empty once
    /// the grid is exhausted.
    fn next_batch(
        &mut self,
        window: usize,
        cache: Option<&TileCache>,
        obs: Option<&ObsHub>,
    ) -> Vec<Slot> {
        let mut slots = Vec::with_capacity(window);
        for tile in self.scanner.by_ref().take(window) {
            let id = (tile.iy * self.grid_cols + tile.ix) as usize;
            let fingerprint = cache.map_or(0, |_| tile.content_fingerprint());
            let (origin, state) = if let Some(cache) = cache {
                match cache.lookup(id, fingerprint) {
                    Some(local) => {
                        if let Some(hub) = obs {
                            hub.emit(|| ObsEvent::CacheHit { tile: id as u64 });
                        }
                        let global = tile_cache::translate_record(local, tile.window.min());
                        if self.cache_verify {
                            (Origin::VerifiedHit(global), TileState::Pending)
                        } else {
                            let outcome = TileOutcome::replayed(global);
                            (Origin::CacheHit, TileState::Done(outcome))
                        }
                    }
                    None => {
                        let stale = cache.is_stale(id, fingerprint);
                        if let Some(hub) = obs {
                            hub.emit(|| ObsEvent::CacheMiss {
                                tile: id as u64,
                                invalidated: stale,
                            });
                        }
                        (Origin::CacheMiss { stale }, TileState::Pending)
                    }
                }
            } else {
                (Origin::Uncached, TileState::Pending)
            };
            slots.push(Slot {
                tile,
                id,
                fingerprint,
                origin,
                state,
                retried: false,
            });
        }
        slots
    }
}

/// The executor stage label of scan tiles: it names tile failures and the
/// [`ObsEvent::StageBegin`]/[`ObsEvent::StageEnd`] span of each batch.
const TILE_STAGE: &str = "scan_tile";

/// The tile runner: computes pending tiles on the executor under the
/// scan's stop token and soft tile budget, retries each failure once on
/// the calling thread, and applies [`ScanConfig::failure_policy`].
struct TileRunner<'a> {
    detector: &'a HotspotDetector,
    index: &'a RectIndex,
    scan: &'a ScanConfig,
    /// Admitted kernel decisions per distinct clip core, shared by every
    /// worker and dropped with the scan.
    memo: EvalMemo,
    executor: Executor,
    stop: CancelToken,
    in_flight: AtomicUsize,
    peak: AtomicUsize,
    obs: Option<&'a ObsHub>,
}

impl<'a> TileRunner<'a> {
    fn new(
        detector: &'a HotspotDetector,
        index: &'a RectIndex,
        scan: &'a ScanConfig,
        threads: usize,
        stop: CancelToken,
    ) -> Self {
        TileRunner {
            detector,
            index,
            scan,
            memo: EvalMemo::new(),
            executor: Executor::new(threads),
            stop,
            in_flight: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            obs: detector.obs().map(Arc::as_ref),
        }
    }

    /// Runs the batch's pending tiles, leaving each one `Done`,
    /// `Quarantined`, or — when the scan is stopping — `Pending`.
    /// `quarantined` counts the tiles earlier batches quarantined, for the
    /// failure bound.
    fn run(&self, slots: &mut [Slot], quarantined: usize) -> Result<ExecutorStats, DetectError> {
        let pending: Vec<usize> = (0..slots.len())
            .filter(|&pos| matches!(slots[pos].state, TileState::Pending))
            .collect();
        if pending.is_empty() {
            return Ok(ExecutorStats::default());
        }
        let batch: &[Slot] = slots;
        let items = pending.len();
        if let Some(hub) = self.obs {
            hub.emit(|| ObsEvent::StageBegin {
                stage: TILE_STAGE.to_string(),
                items,
            });
        }
        let (results, stats) = self.executor.try_map_with_cancel(
            TILE_STAGE,
            &pending,
            |_, &pos| {
                let current = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                let _guard = InFlightGuard(&self.in_flight, self.obs);
                self.peak.fetch_max(current, Ordering::SeqCst);
                self.progress(Counter::TilesStarted);
                TILE_SCRATCH.with_borrow_mut(|scratch| self.process(&batch[pos], 0, scratch))
            },
            Some(&self.stop),
        );
        if let Some(hub) = self.obs {
            hub.emit(|| ObsEvent::StageEnd {
                stage: TILE_STAGE.to_string(),
                items,
                failures: stats.tasks_failed,
            });
        }
        for (result, pos) in results.into_iter().zip(pending) {
            let failure = match result {
                TaskResult::Done(outcome) => {
                    slots[pos].state = TileState::Done(outcome);
                    continue;
                }
                // Skipped by the cooperative stop, or failed while the scan
                // is stopping: no retry burns wall time mid-abort; the tile
                // stays pending and a re-run computes it.
                TaskResult::Skipped => continue,
                TaskResult::Failed(_) if self.stop.is_cancelled() => continue,
                TaskResult::Failed(failure) => failure,
            };
            let slot = &mut slots[pos];
            slot.retried = true;
            let retry = || TILE_SCRATCH.with_borrow_mut(|scratch| self.process(slot, 1, scratch));
            let payload = match catch_unwind(AssertUnwindSafe(retry)) {
                Ok(outcome) => {
                    slot.state = TileState::Done(outcome);
                    continue;
                }
                // The retry observed the cooperative stop mid-tile: an
                // abort, not a failure.
                Err(payload) if payload.downcast_ref::<CancelPanic>().is_some() => continue,
                Err(payload) => payload,
            };
            let kind = if payload.downcast_ref::<TimeoutPanic>().is_some() {
                FailureKind::TimedOut
            } else {
                FailureKind::Panicked
            };
            let reason = panic_payload_to_string(payload.as_ref());
            let tile = slot.id;
            if let Some(hub) = self.obs {
                match kind {
                    FailureKind::TimedOut => hub.emit(|| ObsEvent::TileTimedOut {
                        tile: tile as u64,
                        budget_ms: self.scan.tile_timeout.map_or(0, |t| t.as_millis() as u64),
                    }),
                    FailureKind::Panicked => hub.emit(|| ObsEvent::TileQuarantined {
                        tile: tile as u64,
                        stage: failure.stage.clone(),
                    }),
                }
            }
            let FailurePolicy::SkipAndRecord { max_failed_tiles } = self.scan.failure_policy else {
                return Err(DetectError::TaskPanicked(TaskFailure {
                    stage: failure.stage,
                    index: tile,
                    payload: reason,
                }));
            };
            slot.state = TileState::Quarantined(QuarantinedTile { tile, kind, reason });
            let failed = quarantined
                + slots
                    .iter()
                    .filter(|s| matches!(s.state, TileState::Quarantined(_)))
                    .count();
            if failed > max_failed_tiles {
                return Err(DetectError::TooManyFailures {
                    failed,
                    max: max_failed_tiles,
                });
            }
        }
        Ok(stats)
    }

    /// One attempt (0 = first, 1 = retry) at prefiltering, extracting and
    /// classifying the clips a tile owns, on the worker's reusable
    /// `scratch`.
    ///
    /// The slot's stable grid id and `attempt` exist only to key the
    /// deterministic fault-injection hooks, which compile down to an
    /// `is_empty` check on production scans. The scan's stop token is
    /// polled at stage boundaries together with the soft tile budget.
    fn process(&self, slot: &Slot, attempt: u32, scratch: &mut TileScratch) -> TileOutcome {
        let (tile, tile_id) = (&slot.tile, slot.id);
        let config = self.detector.config();
        let shape = config.clip_shape;
        let fault = &self.scan.fault_plan;
        let budget = self.scan.tile_timeout;
        let tile_started = Instant::now();
        let checkpoint = || poll_stop(&self.stop, budget, tile_started);
        let mut work = TileWork::default();

        // Density prefilter. `covered` double-counts overlapping pattern
        // rectangles, so it upper-bounds the pattern area over any core the
        // tile owns: skipping only below `min_core_density × core_area`
        // can never drop a clip that extraction would keep.
        if !fault.is_empty() {
            fault.inject(FaultSite::Prefilter, tile_id, attempt);
        }
        checkpoint();
        let t0 = Instant::now();
        // Cleared up front (set again below for surviving Sat tiles) so
        // tables never leak from one tile into the next on this worker's
        // scratch.
        scratch.eval.clear_raster_tables();
        let covered = covered_area(&tile.rects, &tile.window);
        let core_area = (shape.core_side() * shape.core_side()) as f64;
        let conservative_cut = (covered as f64) < config.distribution.min_core_density * core_area;
        let aggressive_cut = self
            .scan
            .tile_density
            .is_some_and(|min_cov| (covered as f64) < min_cov * tile.window.area() as f64);
        work.prefilter_time = t0.elapsed();
        if conservative_cut || aggressive_cut {
            return TileOutcome {
                record: TileOutcomeRecord::Prefiltered,
                work,
            };
        }

        // Clip extraction, restricted to the anchors this tile owns. Tile
        // regions partition the plane, so per-tile dedup over owned anchors
        // equals the global anchor dedup of `extract_clips_indexed`.
        if !fault.is_empty() {
            fault.inject(FaultSite::Extraction, tile_id, attempt);
        }
        checkpoint();
        let t1 = Instant::now();
        let TileScratch {
            eval,
            pieces,
            seen,
            patterns,
            windows,
        } = scratch;
        split_oversized_into(&tile.rects, shape.core_side(), pieces);
        seen.clear();
        patterns.clear();
        for piece in pieces.iter() {
            let anchor = piece.min();
            if !tile.region.contains_point(anchor) || !seen.insert(anchor) {
                continue;
            }
            let window = shape.window_from_core_corner(anchor);
            let pattern = Pattern::new(window, &self.index.query(&window.clip));
            if passes_filter(&pattern, &config.distribution) {
                patterns.push(pattern);
            }
        }
        work.extract_time = t1.elapsed();

        // Multiple-kernel (and feedback) evaluation: the tile's clips form
        // one batch sharing the worker's `EvalScratch` buffers; only its
        // telemetry counters are reset per tile.
        if !fault.is_empty() {
            fault.inject(FaultSite::Evaluation, tile_id, attempt);
        }
        checkpoint();
        let t2 = Instant::now();
        // Padded subtile summed-area tables over the tile's dissected rects
        // serve the whole eval loop: every owned clip's core grid is
        // rasterised from its subtile's table. Built only for tiles the
        // prefilter kept, after extraction, and only for the subtiles the
        // extracted clip windows anchor in. Subtiles over the cell cap (or
        // outside the anchored set) have no table and their clips sweep
        // their own rects — bit-identical either way.
        if !patterns.is_empty() {
            windows.clear();
            windows.extend(patterns.iter().map(|p| p.window.core));
            eval.rebuild_raster_tables(
                &tile.region,
                shape.core_side() * RASTER_SUBTILE_CORES,
                shape.core_side(),
                &tile.rects,
                AreaTable::DEFAULT_MAX_CELLS,
                windows,
            );
        }
        let engine = self.detector.eval_engine().with_memo(&self.memo);
        eval.reset_counters();
        let (mut flagged, mut reclaimed, mut flagged_cores) = (0, 0, Vec::new());
        for pattern in patterns.iter() {
            checkpoint();
            let (flag, reclaim) = HotspotDetector::flag_with_engine(&engine, pattern, eval);
            if flag {
                flagged += 1;
                if reclaim {
                    reclaimed += 1;
                } else {
                    flagged_cores.push(pattern.window.core);
                }
            }
        }
        work.admissions = eval.admissions();
        work.admission_skips = eval.admission_skips();
        work.eval_time = t2.elapsed();
        TileOutcome {
            record: TileOutcomeRecord::Evaluated {
                clips: patterns.len(),
                flagged,
                reclaimed,
                flagged_cores,
            },
            work,
        }
    }

    /// Worker-side progress: one relaxed add per transition.
    fn progress(&self, counter: Counter) {
        if let Some(hub) = self.obs {
            hub.counters().add(counter, 1);
        }
    }
}

/// The tile sink: records finished tiles into the cache, appends the
/// computed ones with one fsync per batch, and compacts the cache when the
/// scan completes.
struct TileSink<'a> {
    cache: Option<TileCache>,
    scan: &'a ScanConfig,
}

impl TileSink<'_> {
    /// Records one finished batch. Quarantined and pending tiles are never
    /// stored: a re-run computes them again.
    fn write_batch(&mut self, slots: &[Slot]) -> Result<(), DetectError> {
        let Some(cache) = self.cache.as_mut() else {
            return Ok(());
        };
        for slot in slots {
            let TileState::Done(outcome) = &slot.state else {
                continue;
            };
            let record = &outcome.record;
            if let Origin::VerifiedHit(expected) = &slot.origin {
                if record != expected {
                    return Err(DetectError::Cache(format!(
                        "cache_verify: tile {} recompute disagrees with stored entry",
                        slot.id
                    )));
                }
            }
            let local = tile_cache::translate_record(record, -slot.tile.window.min());
            // Served tiles are in the file already.
            if let Origin::CacheMiss { .. } = slot.origin {
                cache
                    .append(slot.id, slot.fingerprint, local, &self.scan.fault_plan)
                    .map_err(|e| {
                        cache_error(self.scan, format!("append of tile {} failed: {e}", slot.id))
                    })?;
            } else {
                cache.record(slot.id, slot.fingerprint, local);
            }
        }
        cache
            .sync()
            .map_err(|e| cache_error(self.scan, format!("sync failed: {e}")))
    }

    /// Compacts the cache to this scan's results: only tiles recorded this
    /// run survive, so entries for deleted tiles don't accumulate. Called
    /// only when the scan completes — an aborted scan keeps its log.
    fn finish(&self) -> Result<(), DetectError> {
        match &self.cache {
            Some(cache) => cache
                .store()
                .map_err(|e| cache_error(self.scan, format!("compaction failed: {e}"))),
            None => Ok(()),
        }
    }
}

/// A [`DetectError::Cache`] naming the scan's cache file.
fn cache_error(scan: &ScanConfig, what: String) -> DetectError {
    let path = scan.cache.clone().unwrap_or_default();
    DetectError::Cache(format!("{}: {what}", path.display()))
}

/// Counts of one batch.
#[derive(Default)]
struct Counts {
    tiles_scanned: usize,
    tiles_prefiltered: usize,
    /// Tiles the prefilter kept, whose clips were extracted and evaluated.
    tiles_evaluated: usize,
    clips_extracted: usize,
    /// Clips of the tiles computed in this batch, not served from the cache.
    clips_evaluated: usize,
    clips_flagged: usize,
    feedback_reclaimed: usize,
    eval_batches: usize,
    retries: usize,
    quarantined: usize,
    timed_out: usize,
    /// Cache-served tiles: done without running.
    served: usize,
    cache_hits: usize,
    cache_misses: usize,
    /// Misses whose cache entry was outdated.
    cache_stale: usize,
    admissions: u64,
    admission_skips: u64,
    prefilter_time: Duration,
    extract_time: Duration,
    eval_time: Duration,
}

/// The scan's one set of counts. Every tile is folded here exactly once,
/// and the report's count fields, the stage rows and the hub's scan
/// counters are all written from the same per-batch numbers, so they
/// cannot disagree. Only the per-tile started/done progress pair and the
/// tile cache's own counts reach the hub another way.
#[derive(Default)]
struct ScanTally {
    /// The report under construction; only its count fields and
    /// `failed_tiles` are filled in here, and nothing else writes them.
    report: ScanReport,
    /// Surviving flags, in grid order — the order of an uninterrupted,
    /// uncached run, so the report content never depends on where tiles
    /// came from.
    flagged_cores: Vec<Rect>,
}

impl ScanTally {
    /// Folds one finished batch, in grid order.
    fn fold(
        &mut self,
        slots: Vec<Slot>,
        stats: &ExecutorStats,
        recorder: &mut StageRecorder,
        obs: Option<&ObsHub>,
    ) {
        let tiles = slots.len();
        let mut b = Counts::default();
        for slot in slots {
            let served = matches!(slot.origin, Origin::CacheHit);
            b.served += usize::from(served);
            match slot.origin {
                Origin::CacheHit | Origin::VerifiedHit(_) => b.cache_hits += 1,
                Origin::CacheMiss { stale } => {
                    b.cache_misses += 1;
                    b.cache_stale += usize::from(stale);
                }
                Origin::Uncached => {}
            }
            b.retries += usize::from(slot.retried);
            match slot.state {
                TileState::Pending => {}
                TileState::Quarantined(q) => {
                    b.tiles_scanned += 1;
                    b.quarantined += 1;
                    b.timed_out += usize::from(q.kind == FailureKind::TimedOut);
                    self.report.failed_tiles.push(q);
                }
                TileState::Done(TileOutcome { record, work }) => {
                    b.tiles_scanned += 1;
                    b.admissions += work.admissions;
                    b.admission_skips += work.admission_skips;
                    b.prefilter_time += work.prefilter_time;
                    b.extract_time += work.extract_time;
                    b.eval_time += work.eval_time;
                    match record {
                        TileOutcomeRecord::Prefiltered => b.tiles_prefiltered += 1,
                        TileOutcomeRecord::Evaluated {
                            clips,
                            flagged,
                            reclaimed,
                            mut flagged_cores,
                        } => {
                            b.tiles_evaluated += 1;
                            b.clips_extracted += clips;
                            b.clips_evaluated += if served { 0 } else { clips };
                            b.clips_flagged += flagged;
                            b.feedback_reclaimed += reclaimed;
                            // Each tile with clips to evaluate was one batch
                            // on its own `BatchEvaluator` scratch.
                            b.eval_batches += usize::from(clips > 0);
                            self.flagged_cores.append(&mut flagged_cores);
                        }
                    }
                }
            }
        }

        let prefilter = StageTelemetry::measured(
            StageId::DensityPrefilter,
            b.tiles_prefiltered + b.tiles_evaluated,
            b.tiles_evaluated,
            b.prefilter_time,
            None,
        );
        record_stage(recorder, obs, StageId::DensityPrefilter, &prefilter);
        let extraction = StageTelemetry::measured(
            StageId::ClipExtraction,
            b.tiles_evaluated,
            b.clips_extracted,
            b.extract_time,
            None,
        );
        record_stage(recorder, obs, StageId::ClipExtraction, &extraction);
        let measured = StageTelemetry::measured(
            StageId::KernelEvaluation,
            b.clips_extracted,
            b.clips_flagged,
            b.eval_time,
            Some(stats),
        );
        let evaluation = StageTelemetry {
            batches: b.eval_batches,
            admissions: b.admissions,
            admission_skips: b.admission_skips,
            // First attempts failed through the executor stats; every
            // failed retry quarantined its tile.
            failures: measured.failures + b.quarantined,
            retries: b.retries,
            timeouts: b.timed_out,
            ..measured
        };
        record_stage(recorder, obs, StageId::KernelEvaluation, &evaluation);

        if let Some(hub) = obs {
            let counters = hub.counters();
            // Served tiles count as started and done, so live progress
            // reaches 100% without recompute.
            counters.add(Counter::TilesStarted, b.served as u64);
            counters.add(Counter::TilesDone, b.served as u64);
            counters.add(Counter::CacheHits, b.cache_hits as u64);
            counters.add(Counter::CacheMisses, b.cache_misses as u64);
            counters.add(Counter::CacheInvalidated, b.cache_stale as u64);
            counters.add(Counter::TilesPrefiltered, b.tiles_prefiltered as u64);
            counters.add(Counter::ClipsExtracted, b.clips_extracted as u64);
            counters.add(Counter::ClipsEvaluated, b.clips_evaluated as u64);
            counters.add(Counter::ClipsFlagged, b.clips_flagged as u64);
            counters.add(Counter::ClipsReclaimed, b.feedback_reclaimed as u64);
            counters.add(Counter::EvalBatches, b.eval_batches as u64);
            counters.add(Counter::TaskRetries, b.retries as u64);
            counters.add(Counter::TilesQuarantined, b.quarantined as u64);
            counters.add(Counter::TilesTimedOut, b.timed_out as u64);
            counters.add(Counter::ExecutorTasks, stats.tasks_executed as u64);
            hub.emit(|| ObsEvent::BatchCompleted {
                tiles,
                clips: b.clips_extracted,
                flagged: b.clips_flagged,
                admissions: b.admissions,
                admission_skips: b.admission_skips,
            });
        }
        let r = &mut self.report;
        r.tiles_scanned += b.tiles_scanned;
        r.tiles_prefiltered += b.tiles_prefiltered;
        r.clips_extracted += b.clips_extracted;
        r.clips_flagged += b.clips_flagged;
        r.feedback_reclaimed += b.feedback_reclaimed;
        r.eval_batches += b.eval_batches;
        r.retries += b.retries;
        r.cache_hits += b.cache_hits;
        r.cache_misses += b.cache_misses;
    }
}

/// Adds one stage delta to its telemetry row and to the hub's slice of
/// that stage. Scan stage rows are written only through here, so no row
/// can reach the report without reaching `/metrics` too.
fn record_stage(
    recorder: &mut StageRecorder,
    obs: Option<&ObsHub>,
    stage: StageId,
    delta: &StageTelemetry,
) {
    recorder.add(stage, delta);
    if let Some(hub) = obs {
        let counters = hub.counters();
        counters.add_stage(stage, StageCounter::Tasks, delta.tasks_executed as u64);
        counters.add_stage(stage, StageCounter::Failures, delta.failures as u64);
        counters.add_stage(stage, StageCounter::Admissions, delta.admissions);
        counters.add_stage(stage, StageCounter::AdmissionSkips, delta.admission_skips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_check_caps_the_tile_count_with_checked_arithmetic() {
        let square = |side: i64| Some(Rect::from_extents(0, 0, side, side));
        assert!(check_extent(None, 100).is_ok());
        // 2^15 × 2^15 tiles is exactly the cap; one more column exceeds it.
        assert!(check_extent(square(100 << 15), 100).is_ok());
        let wider = Some(Rect::from_extents(0, 0, (100 << 15) + 1, 100 << 15));
        assert!(matches!(
            check_extent(wider, 100),
            Err(DetectError::ExtentTooLarge { tiles, .. }) if tiles == MAX_SCAN_TILES + (1 << 15)
        ));
        // An extent whose width overflows `i64` is too large, not a panic.
        let huge = Some(Rect::from_extents(i64::MIN, 0, i64::MAX, 1));
        assert!(matches!(
            check_extent(huge, 100),
            Err(DetectError::ExtentTooLarge {
                tiles: u64::MAX,
                ..
            })
        ));
    }

    #[test]
    fn prefilter_coverage_saturates_over_stacked_full_window_rects() {
        // Each full-window overlap is 2^62 nm²; two of them overflow i64.
        let window = Rect::from_extents(0, 0, 1 << 31, 1 << 31);
        assert_eq!(covered_area(&[window; 2], &window), i64::MAX);
        assert_eq!(covered_area(&[window; 16], &window), i64::MAX);
        // A window whose own area saturates.
        let huge = Rect::from_extents(-(1 << 40), -(1 << 40), 1 << 40, 1 << 40);
        assert_eq!(covered_area(&[huge; 3], &huge), i64::MAX);
        // Below the limit the sum is exact, overlaps double-counted.
        let half = Rect::from_extents(0, 0, 1 << 30, 1 << 31);
        assert_eq!(covered_area(&[half, window], &window), 3 << 61);
        assert_eq!(covered_area(&[], &window), 0);
    }

    #[test]
    fn config_validation() {
        assert!(ScanConfig::default().validate().is_ok());
        let bad = ScanConfig {
            tile_cores: 0,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("tile_cores"));
        for d in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let bad = ScanConfig {
                tile_density: Some(d),
                ..Default::default()
            };
            assert!(bad.validate().is_err(), "tile_density {d}");
        }
        let bad_plan = ScanConfig {
            fault_plan: FaultPlan {
                panic_per_mille: 2000,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(bad_plan.validate().unwrap_err().contains("per_mille"));
        let bad_verify = ScanConfig {
            cache_verify: true,
            ..Default::default()
        };
        assert!(bad_verify.validate().unwrap_err().contains("cache_verify"));
        let ok_verify = ScanConfig {
            cache: Some(PathBuf::from("/tmp/cache")),
            cache_verify: true,
            ..Default::default()
        };
        assert!(ok_verify.validate().is_ok());
        let bad_timeout = ScanConfig {
            tile_timeout: Some(Duration::ZERO),
            ..Default::default()
        };
        assert!(bad_timeout.validate().unwrap_err().contains("tile_timeout"));
        // A zero deadline is a valid "abort before the first batch"; a
        // positive tile budget is a valid budget.
        let ok_deadline = ScanConfig {
            deadline: Some(Duration::ZERO),
            tile_timeout: Some(Duration::from_millis(100)),
            cancel: Some(CancelToken::new()),
            ..Default::default()
        };
        assert!(ok_deadline.validate().is_ok());
    }

    #[test]
    fn in_flight_window_resolution() {
        let auto = ScanConfig {
            max_in_flight: 0,
            ..Default::default()
        };
        assert_eq!(auto.effective_in_flight(4), 8);
        let fixed = ScanConfig {
            max_in_flight: 3,
            ..Default::default()
        };
        assert_eq!(fixed.effective_in_flight(4), 3);
    }

    #[test]
    fn legacy_scan_config_json_deserialises() {
        // A pre-fault-tolerance config: no policy, cache, or fault plan.
        let json = r#"{"tile_cores":8,"max_in_flight":4,"tile_density":null}"#;
        let config: ScanConfig = serde_json::from_str(json).unwrap();
        assert_eq!(config.failure_policy, FailurePolicy::Abort);
        assert!(config.cache.is_none());
        assert!(config.fault_plan.is_empty());
        assert!(config.deadline.is_none() && config.tile_timeout.is_none());
        assert!(config.cancel.is_none(), "tokens are never deserialised");
    }

    fn empty_report() -> ScanReport {
        ScanReport {
            clips_extracted: 10,
            ..Default::default()
        }
    }

    #[test]
    fn clips_per_second_handles_zero_time() {
        let report = empty_report();
        assert_eq!(report.clips_per_second(), 0.0);
        let timed = ScanReport {
            scan_time: Duration::from_secs(2),
            ..report
        };
        assert!((timed.clips_per_second() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn digest_ignores_provenance_but_not_content() {
        let base = empty_report();
        let provenance = ScanReport {
            retries: 3,
            cache_hits: 11,
            cache_misses: 2,
            aborted: Some(AbortReason::DeadlineExceeded),
            peak_in_flight: 5,
            scan_time: Duration::from_secs(1),
            ..base.clone()
        };
        assert_eq!(base.digest(), provenance.digest());
        let content = ScanReport {
            clips_flagged: 1,
            ..base.clone()
        };
        assert_ne!(base.digest(), content.digest());
        let quarantined = ScanReport {
            failed_tiles: vec![QuarantinedTile {
                tile: 4,
                kind: FailureKind::Panicked,
                reason: "injected".into(),
            }],
            ..base.clone()
        };
        assert_ne!(base.digest(), quarantined.digest());
        // The failure *kind* is content too: a timed-out tile digests
        // differently from a panicked one.
        let timed_out = ScanReport {
            failed_tiles: vec![QuarantinedTile {
                tile: 4,
                kind: FailureKind::TimedOut,
                reason: "injected".into(),
            }],
            ..base.clone()
        };
        assert_ne!(quarantined.digest(), timed_out.digest());
    }

    #[test]
    fn model_fingerprint_matches_the_full_serialisation() {
        use crate::journal::fnv1a;
        use crate::{Label, TrainingSet};
        use hotspot_layout::ClipShape;

        // The formula tile caches were written under: every part
        // re-serialised per call. Caches must stay valid across the split.
        fn serialised(det: &HotspotDetector) -> u64 {
            let kernels = serde_json::to_string(&det.kernels().to_vec()).unwrap();
            let feedback = match det.feedback() {
                Some(f) => serde_json::to_string(f).unwrap(),
                None => "null".to_string(),
            };
            let mut config = det.config().clone();
            config.threads = 0;
            let config = serde_json::to_string(&config).unwrap();
            let mut h = fnv1a(kernels.as_bytes());
            h ^= fnv1a(feedback.as_bytes());
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
            h ^= fnv1a(config.as_bytes());
            h.wrapping_mul(0x0000_0100_0000_01B3)
        }

        // Hotspots and nonhotspots share a core and differ in the ambit,
        // so training also produces a feedback kernel.
        let shape = ClipShape::ICCAD2012;
        let core = [
            Rect::from_extents(0, 0, 500, 400),
            Rect::from_extents(600, 0, 1100, 400),
        ];
        let pattern = |ambit: bool, i: i64| {
            let window = shape.window_from_core_corner(Point::new(0, 0));
            let mut rects = core.to_vec();
            if ambit {
                rects.push(Rect::from_extents(1400 + 10 * i, 1400, 2300, 2300));
            }
            Pattern::new(window, &rects)
        };
        let mut training = TrainingSet::new();
        for i in 0..3 {
            training.push(pattern(false, i), Label::Hotspot);
            training.push(pattern(true, i), Label::NonHotspot);
        }
        let config = crate::DetectorConfig {
            max_learning_rounds: 2,
            ..Default::default()
        };
        let det = HotspotDetector::train(&training, config).unwrap();
        assert!(
            det.feedback().is_some(),
            "the toy model has a feedback kernel"
        );
        assert_eq!(det.model_fingerprint(), serialised(&det));

        // The config half is hashed per scan: a config change keeps the
        // model half and still changes the print.
        let json = serde_json::to_string(&det).unwrap();
        let threshold = r#""decision_threshold":0.0"#;
        assert!(json.contains(threshold), "{json}");
        let raised = json.replace(threshold, r#""decision_threshold":0.5"#);
        let raised: HotspotDetector = serde_json::from_str(&raised).unwrap();
        assert_eq!(raised.model_hash(), det.model_hash());
        assert_eq!(raised.model_fingerprint(), serialised(&raised));
        assert_ne!(raised.model_fingerprint(), det.model_fingerprint());
        // Threads do not count; a reloaded model rebuilds the same print.
        assert_eq!(
            det.clone().with_threads(7).model_fingerprint(),
            serialised(&det)
        );
        let json = serde_json::to_string(&det).unwrap();
        let reloaded: HotspotDetector = serde_json::from_str(&json).unwrap();
        assert_eq!(reloaded.model_fingerprint(), det.model_fingerprint());
    }

    #[test]
    fn legacy_quarantine_records_deserialise_as_panicked() {
        let json = r#"{"tile":9,"reason":"boom"}"#;
        let q: QuarantinedTile = serde_json::from_str(json).unwrap();
        assert_eq!(q.kind, FailureKind::Panicked);
        let json = serde_json::to_string(&QuarantinedTile {
            tile: 1,
            kind: FailureKind::TimedOut,
            reason: "slow".into(),
        })
        .unwrap();
        let back: QuarantinedTile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.kind, FailureKind::TimedOut);
    }
}

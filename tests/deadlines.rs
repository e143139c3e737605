//! Deadline, watchdog, and cancellation integration tests.
//!
//! The headline invariant pinned here: a cached scan stopped early — by
//! its wall-clock deadline, by a per-tile watchdog quarantine, or by a
//! caller's cancel token — and then re-run with the same tile cache
//! produces a report whose deterministic content ([`ScanReport::digest`])
//! is bit-identical to an uninterrupted run's, at 1, 2, and 4 threads.
//! Abort points sit at batch boundaries and skipped tiles are never
//! cached, so the cache only ever gains whole-tile entries and the
//! quarantine set under `tile_timeout` is exactly the stalled set,
//! independent of thread count.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::engine::StageId;
use hotspot_suite::core::{
    AbortReason, CacheEntry, CancelToken, FailureKind, FailurePolicy, FaultPlan, FaultSite,
    HotspotDetector, ObsEvent, ObsHub, ObsRecord, ObsSink, ScanConfig, ScanReport,
};
use hotspot_suite::layout::scan::{TileScanner, TileSpec};
use hotspot_suite::layout::ClipShape;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

fn benchmark() -> &'static Benchmark {
    static BM: OnceLock<Benchmark> = OnceLock::new();
    BM.get_or_init(|| {
        Benchmark::generate(BenchmarkSpec {
            name: "deadline-test".into(),
            process_nm: 32,
            width: 48_000,
            height: 48_000,
            train_hotspots: 20,
            train_nonhotspots: 70,
            test_hotspots: 6,
            seed: 11,
            clip_shape: ClipShape::ICCAD2012,
            oracle: LithoOracle::default(),
            background_fill: 0.55,
            ambit_filler: true,
        })
    })
}

fn trained(bm: &Benchmark) -> &'static HotspotDetector {
    static DET: OnceLock<HotspotDetector> = OnceLock::new();
    DET.get_or_init(|| {
        HotspotDetector::builder()
            .threads(2)
            .train(&bm.training)
            .expect("training")
    })
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotspot_deadline_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

fn base_scan() -> ScanConfig {
    ScanConfig {
        tile_cores: 8,
        max_in_flight: 2,
        ..Default::default()
    }
}

fn run(scan: &ScanConfig, threads: usize) -> ScanReport {
    let bm = benchmark();
    trained(bm)
        .clone()
        .with_threads(threads)
        .scan_layout(&bm.layout, bm.layer, scan)
        .expect("scan")
}

/// Tiles the scan quarantined for blowing their soft budget, as the
/// kernel-evaluation stage row counts them.
fn eval_timeouts(report: &ScanReport) -> usize {
    report
        .telemetry
        .stage(StageId::KernelEvaluation)
        .map_or(0, |s| s.timeouts)
}

/// The clean (unbudgeted, uninterrupted) report every variant must match.
fn clean_report() -> &'static ScanReport {
    static REPORT: OnceLock<ScanReport> = OnceLock::new();
    REPORT.get_or_init(|| run(&base_scan(), 2))
}

/// Ids of the non-empty tiles `base_scan` walks — the tiles a clean scan
/// completes.
fn scanned_tile_ids() -> &'static Vec<usize> {
    static IDS: OnceLock<Vec<usize>> = OnceLock::new();
    IDS.get_or_init(|| {
        let bm = benchmark();
        let shape = ClipShape::ICCAD2012;
        let spec =
            TileSpec::new(shape.core_side() * 8, shape.ambit() + shape.core_side()).expect("spec");
        let scanner = TileScanner::from_rects(bm.layout.dissected_rects(bm.layer), spec);
        let cols = scanner.grid().cols();
        let mut ids: Vec<usize> = scanner.map(|t| (t.iy * cols + t.ix) as usize).collect();
        ids.sort_unstable();
        assert!(ids.len() > 4, "benchmark too small for deadline tests");
        ids
    })
}

/// Tile ids of the entry lines in the cache file at `path`; none when a
/// scan wrote no file.
fn cached_tiles(path: &Path) -> Vec<usize> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .skip(1)
        .map(|line| {
            let (_, payload) = line.split_once(' ').expect("framed line");
            serde_json::from_str::<CacheEntry>(payload)
                .expect("entry line")
                .tile
        })
        .collect()
}

fn cached_scan(cache: &Path) -> ScanConfig {
    ScanConfig {
        cache: Some(cache.to_path_buf()),
        ..base_scan()
    }
}

/// A fault plan that stalls *every* tile long enough to guarantee the
/// scan outlives a ~100 ms deadline (honest tiles take ~tens of ms).
fn stall_everything() -> FaultPlan {
    FaultPlan {
        stall_per_mille: 1000,
        stall_ms: 150,
        site: FaultSite::Prefilter,
        ..Default::default()
    }
}

#[test]
fn zero_deadline_aborts_before_the_first_batch() {
    let dir = workdir("zero");
    let cache = dir.join("tiles.cache");
    let scan = ScanConfig {
        deadline: Some(Duration::ZERO),
        ..cached_scan(&cache)
    };
    let report = run(&scan, 2);
    assert_eq!(report.aborted, Some(AbortReason::DeadlineExceeded));
    assert_eq!(report.tiles_scanned, 0, "no batch may be admitted");
    assert!(report.failed_tiles.is_empty());
    assert_eq!(
        report.telemetry.aborted_reason.as_deref(),
        Some("deadline_exceeded")
    );

    // Nothing was computed, so nothing was written; re-running finishes
    // the scan with the clean digest.
    assert!(
        !cache.exists(),
        "an abort before the first batch writes nothing"
    );
    let rerun = run(&cached_scan(&cache), 2);
    assert_eq!(rerun.aborted, None);
    assert_eq!(rerun.digest(), clean_report().digest());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_abort_then_resume_digests_identically_at_any_thread_count() {
    let dir = workdir("abort_resume");
    for threads in [1usize, 2, 4] {
        let cache = dir.join(format!("abort_{threads}.cache"));
        let scan = ScanConfig {
            deadline: Some(Duration::from_millis(100)),
            fault_plan: stall_everything(),
            ..cached_scan(&cache)
        };
        let report = run(&scan, threads);
        assert_eq!(
            report.aborted,
            Some(AbortReason::DeadlineExceeded),
            "{threads} threads: stalled scan must blow a 100 ms deadline"
        );
        assert!(
            report.tiles_scanned < report.tiles_total,
            "{threads} threads: abort must leave work undone"
        );

        // The abort left only whole lines: one entry per scanned tile
        // and no torn tail.
        let cached = cached_tiles(&cache);
        assert_eq!(cached.len(), report.tiles_scanned, "{threads} threads");
        if cache.exists() {
            let bytes = std::fs::read(&cache).expect("cache bytes");
            assert_eq!(bytes.last(), Some(&b'\n'), "{threads} threads");
        }

        // Re-running without the deadline (or the stalls) finishes the
        // scan bit-identically to a never-interrupted run.
        let rerun = run(&cached_scan(&cache), threads);
        assert_eq!(rerun.aborted, None);
        assert_eq!(rerun.cache_hits, cached.len());
        assert_eq!(rerun.digest(), clean_report().digest(), "{threads} threads");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tile_timeout_quarantines_exactly_the_stalled_set_at_any_thread_count() {
    let ids = scanned_tile_ids();
    let mut stalled = vec![ids[1], ids[ids.len() - 2]];
    stalled.sort_unstable();

    let dir = workdir("watchdog");
    let mut digests = Vec::new();
    for threads in [1usize, 2, 4] {
        let cache = dir.join(format!("wd_{threads}.cache"));
        let scan = ScanConfig {
            tile_timeout: Some(Duration::from_millis(250)),
            failure_policy: FailurePolicy::SkipAndRecord {
                max_failed_tiles: ids.len(),
            },
            fault_plan: FaultPlan {
                stall_tasks: stalled.clone(),
                stall_ms: 600,
                site: FaultSite::Prefilter,
                ..Default::default()
            },
            ..cached_scan(&cache)
        };
        let report = run(&scan, threads);
        assert_eq!(report.aborted, None, "a timeout quarantines, never aborts");

        let mut failed: Vec<usize> = report.failed_tiles.iter().map(|f| f.tile).collect();
        failed.sort_unstable();
        assert_eq!(failed, stalled, "{threads} threads");
        for f in &report.failed_tiles {
            assert_eq!(f.kind, FailureKind::TimedOut, "tile {}", f.tile);
            assert!(
                f.reason.contains("soft time budget of 250 ms"),
                "{}",
                f.reason
            );
        }
        // Stalls fire on the retry too, so each stalled tile is retried
        // once and then quarantined — same semantics as a panicking tile.
        assert_eq!(report.retries, stalled.len());
        assert_eq!(eval_timeouts(&report), stalled.len());

        // Timed-out tiles are never cached.
        let cached = cached_tiles(&cache);
        for id in &stalled {
            assert!(!cached.contains(id), "tile {id} cached");
        }
        digests.push(report.digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "timed-out quarantine digest must be thread-count-invariant"
    );
    assert_ne!(
        digests[0],
        clean_report().digest(),
        "quarantined tiles must be visibly absent from the report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn precancelled_token_aborts_as_interrupted_and_outranks_the_deadline() {
    let token = CancelToken::new();
    token.cancel();
    // Both stop conditions hold; the external interrupt must win the
    // attribution — it is the more actionable of the two.
    let scan = ScanConfig {
        cancel: Some(token),
        deadline: Some(Duration::ZERO),
        ..base_scan()
    };
    let report = run(&scan, 2);
    assert_eq!(report.aborted, Some(AbortReason::Interrupted));
    assert_eq!(report.tiles_scanned, 0);
    assert_eq!(
        report.telemetry.aborted_reason.as_deref(),
        Some("interrupted")
    );
}

#[test]
fn generous_budgets_leave_the_scan_bit_identical() {
    // Deadline, tile budget, and cancel token all armed but never
    // tripped: the watchdog machinery must be purely observational.
    let scan = ScanConfig {
        deadline: Some(Duration::from_secs(3600)),
        tile_timeout: Some(Duration::from_secs(600)),
        cancel: Some(CancelToken::new()),
        ..base_scan()
    };
    let report = run(&scan, 2);
    assert_eq!(report.aborted, None);
    assert_eq!(report.retries, 0);
    assert_eq!(eval_timeouts(&report), 0);
    assert_eq!(report.telemetry.aborted_reason, None);
    assert_eq!(report.digest(), clean_report().digest());
}

/// Cancels a token once the scan has completed `after` batches: an
/// interrupt that lands at a deterministic batch boundary.
struct CancelAfterBatches {
    token: CancelToken,
    after: usize,
    seen: AtomicUsize,
}

impl ObsSink for CancelAfterBatches {
    fn name(&self) -> &str {
        "cancel-after-batches"
    }

    fn on_event(&self, record: &ObsRecord) {
        if let ObsEvent::BatchCompleted { .. } = record.event {
            if self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.after {
                self.token.cancel();
            }
        }
    }
}

/// Cache bytes left behind by a cached scan interrupted after three
/// batches, plus the length of its header line — computed once for the
/// prefix-truncation properties below.
fn aborted_cache_bytes() -> &'static (Vec<u8>, usize) {
    static BYTES: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = workdir("prop_seed");
        let cache = dir.join("aborted.cache");
        let token = CancelToken::new();
        let hub = ObsHub::new();
        hub.register(Box::new(CancelAfterBatches {
            token: token.clone(),
            after: 3,
            seen: AtomicUsize::new(0),
        }));
        let scan = ScanConfig {
            cancel: Some(token),
            ..cached_scan(&cache)
        };
        let bm = benchmark();
        let report = trained(bm)
            .clone()
            .with_obs(hub)
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("scan");
        assert_eq!(report.aborted, Some(AbortReason::Interrupted));
        assert_eq!(report.tiles_scanned, 3 * base_scan().max_in_flight);
        let bytes = std::fs::read(&cache).expect("cache bytes");
        let header_len = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("cache has a header line")
            + 1;
        std::fs::remove_dir_all(&dir).ok();
        (bytes, header_len)
    })
}

/// Re-runs the scan from `bytes` written as its cache, checking that it
/// completes with the clean digest; returns its cache hits and the
/// entries the hub saw invalidated.
fn rerun_from(name: &str, bytes: &[u8]) -> (usize, u64) {
    let dir = workdir(name);
    let cache = dir.join("cut.cache");
    std::fs::write(&cache, bytes).expect("truncate copy");
    let hub = ObsHub::new();
    let bm = benchmark();
    let rerun = trained(bm)
        .clone()
        .with_obs(hub.clone())
        .scan_layout(&bm.layout, bm.layer, &cached_scan(&cache))
        .expect("scan");
    assert_eq!(rerun.aborted, None);
    assert_eq!(rerun.digest(), clean_report().digest());
    std::fs::remove_dir_all(&dir).ok();
    (rerun.cache_hits, hub.snapshot().cache_invalidated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// *Any* prefix truncation of an aborted scan's cache log (down to
    /// its header) re-runs to the clean digest, serving exactly the
    /// entries whose lines survived whole.
    #[test]
    fn any_prefix_of_an_aborted_cache_log_reruns_to_the_clean_digest(
        cut_frac in 0.0f64..1.0,
    ) {
        let (bytes, header_len) = aborted_cache_bytes();
        let span = bytes.len() - header_len;
        let cut = header_len + ((cut_frac * (span as f64 + 1.0)) as usize).min(span);
        let whole = bytes[*header_len..cut].iter().filter(|&&b| b == b'\n').count();
        let (hits, _) = rerun_from(&format!("prop_cut_{cut}"), &bytes[..cut]);
        prop_assert_eq!(hits, whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cuts *inside* the header discard the whole cache — never a panic,
    /// never a replay — and the re-run recomputes every tile.
    #[test]
    fn cuts_inside_the_header_are_discarded_and_recomputed(cut_frac in 0.0f64..1.0) {
        let (bytes, header_len) = aborted_cache_bytes();
        let cut = (cut_frac * (*header_len as f64 - 1.0)).round() as usize;
        let (hits, invalidated) = rerun_from(&format!("prop_hdr_{cut}"), &bytes[..cut]);
        prop_assert_eq!(hits, 0);
        prop_assert_eq!(invalidated, 1, "one wholesale discard");
    }
}

//! Fault-tolerance integration tests: panic isolation, the tile cache as
//! the scan's durable store, and the deterministic fault-injection harness.
//!
//! The two load-bearing guarantees pinned here:
//!
//! 1. a cached scan killed mid-run and re-run with the same cache produces
//!    a report whose deterministic content ([`ScanReport::digest`]) is
//!    byte-identical to an uninterrupted run, at any thread count and for
//!    a cache log truncated at any line boundary or inside a line;
//! 2. under [`FailurePolicy::SkipAndRecord`], seeded injected panics never
//!    abort the scan and the quarantine list is exactly the set of tiles
//!    the plan says must fail — independent of thread count.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::{
    CacheEntry, DetectError, DetectorConfig, FailurePolicy, FaultPlan, FaultSite, HotspotDetector,
    ObsHub, ScanConfig, ScanReport,
};
use hotspot_suite::geom::Point;
use hotspot_suite::layout::scan::{TileScanner, TileSpec};
use hotspot_suite::layout::{ClipShape, Layout};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn benchmark() -> &'static Benchmark {
    static BM: OnceLock<Benchmark> = OnceLock::new();
    BM.get_or_init(|| {
        Benchmark::generate(BenchmarkSpec {
            name: "fault-test".into(),
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
        HotspotDetector::train(
            &bm.training,
            DetectorConfig {
                threads: 2,
                ..Default::default()
            },
        )
        .expect("training")
    })
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotspot_fault_{name}"));
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

/// The clean (fault-free, cache-free) report every variant must match.
fn clean_report() -> &'static ScanReport {
    static REPORT: OnceLock<ScanReport> = OnceLock::new();
    REPORT.get_or_init(|| run(&base_scan(), 2))
}

/// The tiles `base_scan` walks over the benchmark layout.
fn tile_scanner() -> TileScanner {
    let bm = benchmark();
    let shape = ClipShape::ICCAD2012;
    let spec =
        TileSpec::new(shape.core_side() * 8, shape.ambit() + shape.core_side()).expect("spec");
    TileScanner::from_rects(bm.layout.dissected_rects(bm.layer), spec)
}

/// Ids of the non-empty tiles `base_scan` walks — the tiles a clean scan
/// completes.
fn scanned_tile_ids() -> &'static Vec<usize> {
    static IDS: OnceLock<Vec<usize>> = OnceLock::new();
    IDS.get_or_init(|| {
        let scanner = tile_scanner();
        let cols = scanner.grid().cols();
        let mut ids: Vec<usize> = scanner.map(|t| (t.iy * cols + t.ix) as usize).collect();
        ids.sort_unstable();
        assert!(ids.len() > 4, "benchmark too small for fault tests");
        ids
    })
}

/// Tile ids of the entry lines in the cache file at `path`.
fn cached_tiles(path: &Path) -> Vec<usize> {
    let text = std::fs::read_to_string(path).expect("cache reads back");
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

/// A cached scan of `layout` that dies at its fourth cache append: the
/// injected I/O error is a deterministic stand-in for `kill -9`. Returns
/// the entry lines the cache holds afterwards.
fn killed_after_three_appends(cache: &Path, layout: &Layout) -> usize {
    let killed = ScanConfig {
        fault_plan: FaultPlan {
            fail_journal_at: Some(3),
            ..Default::default()
        },
        ..cached_scan(cache)
    };
    let bm = benchmark();
    let err = trained(bm)
        .clone()
        .with_threads(2)
        .scan_layout(layout, bm.layer, &killed)
        .expect_err("injected append failure must kill the scan");
    assert!(matches!(err, DetectError::Cache(_)), "{err:?}");
    cached_tiles(cache).len()
}

#[test]
fn journaled_scan_matches_unjournaled_digest() {
    // A cold cached scan appends every tile it computes, one fsync per
    // batch; a warm one serves every tile and writes nothing.
    let dir = workdir("journaled");
    let cache = dir.join("tiles.cache");
    let bm = benchmark();
    let batches = scanned_tile_ids().len().div_ceil(base_scan().max_in_flight);
    for (pass, appends, syncs) in [("cold", scanned_tile_ids().len(), batches), ("warm", 0, 0)] {
        let hub = ObsHub::new();
        let report = trained(bm)
            .clone()
            .with_obs(hub.clone())
            .scan_layout(&bm.layout, bm.layer, &cached_scan(&cache))
            .expect("scan");
        assert_eq!(report.digest(), clean_report().digest(), "{pass}");
        let snap = hub.snapshot();
        assert_eq!(snap.journal_appends, appends as u64, "{pass}");
        assert_eq!(snap.journal_syncs, syncs as u64, "{pass}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_truncation_is_bit_identical_at_any_cut() {
    let dir = workdir("truncate");
    let full = dir.join("full.cache");
    run(&cached_scan(&full), 2);
    let clean_bytes = std::fs::read(&full).expect("cache bytes");
    let clean_digest = clean_report().digest();

    // An uncompacted log: kill a cached scan after three appends, then
    // let a second scan die at its own fourth append, so the log holds
    // six entries in completion order.
    let log = dir.join("log.cache");
    assert_eq!(killed_after_three_appends(&log, &benchmark().layout), 3);
    assert_eq!(killed_after_three_appends(&log, &benchmark().layout), 6);
    let log_bytes = std::fs::read(&log).expect("log bytes");

    // Line starts: the header's end and every entry boundary.
    let boundaries: Vec<usize> = log_bytes
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(boundaries.len(), 7, "header plus six entries");

    // Every line boundary, plus ragged offsets inside the header and
    // inside entry lines.
    let mid = boundaries[3];
    let mut cuts = boundaries.clone();
    cuts.extend([
        boundaries[0] / 2,
        mid + 1,
        mid + 7,
        mid - 3,
        log_bytes.len() - 1,
    ]);
    for &cut in &cuts {
        let entries = boundaries
            .iter()
            .filter(|&&b| b <= cut)
            .count()
            .saturating_sub(1);
        for threads in [1, 2, 4] {
            let partial = dir.join(format!("cut_{cut}_{threads}.cache"));
            std::fs::write(&partial, &log_bytes[..cut]).expect("truncate copy");
            let report = run(&cached_scan(&partial), threads);
            assert_eq!(
                report.digest(),
                clean_digest,
                "cut at byte {cut}, {threads} threads"
            );
            assert_eq!(report.cache_hits, entries, "cut at byte {cut}");
            // The compaction after completion equals the cache of an
            // uninterrupted cached scan, byte for byte.
            assert_eq!(
                std::fs::read(&partial).expect("compacted cache"),
                clean_bytes,
                "cut at byte {cut}, {threads} threads"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_journal_failure_kills_and_resume_heals() {
    let dir = workdir("journal_kill");
    let cache = dir.join("tiles.cache");
    assert_eq!(killed_after_three_appends(&cache, &benchmark().layout), 3);

    // Re-running with the same cache serves exactly the three landed
    // tiles and recomputes the rest.
    for threads in [1, 2, 4] {
        let copy = dir.join(format!("rerun_{threads}.cache"));
        std::fs::copy(&cache, &copy).expect("copy cache");
        let report = run(&cached_scan(&copy), threads);
        assert_eq!(report.digest(), clean_report().digest());
        assert_eq!(report.cache_hits, 3, "{threads} threads");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_cached_scan_reruns_on_current_content() {
    let bm = benchmark();
    let dir = workdir("kill_edit");
    let cache = dir.join("tiles.cache");
    assert_eq!(killed_after_three_appends(&cache, &bm.layout), 3);

    let copy = dir.join("rerun.cache");
    std::fs::copy(&cache, &copy).expect("copy cache");
    let rerun = run(&cached_scan(&copy), 2);
    assert_eq!(rerun.cache_hits, 3);
    assert_eq!(rerun.digest(), clean_report().digest());

    // The same killed cache re-run on a layout with the first cached
    // tile edited — a shifted copy of one of its rects added beside the
    // original: that tile's fingerprint no longer matches, so the report
    // is that of the edited layout, never a replay of the old content.
    let first = cached_tiles(&cache)[0];
    let cols = tile_scanner().grid().cols();
    let tile = tile_scanner()
        .find(|t| (t.iy * cols + t.ix) as usize == first)
        .expect("cached tile is on the grid");
    let rect = tile
        .rects
        .iter()
        .find(|r| tile.region.contains_point(r.min()))
        .expect("the tile owns a rect");
    let mut edited = bm.layout.clone();
    edited.add_rect(bm.layer, rect.translate(Point::new(rect.width() + 80, 0)));
    let edited_clean = trained(bm)
        .scan_layout(&edited, bm.layer, &base_scan())
        .expect("cache-free scan");
    assert!(
        edited_clean.digest() != clean_report().digest(),
        "the edit must change the report"
    );
    let report = trained(bm)
        .scan_layout(&edited, bm.layer, &cached_scan(&cache))
        .expect("re-run on the edited layout");
    assert!(report.cache_hits < 3, "the edited tile must miss");
    assert!(
        report.digest() == edited_clean.digest(),
        "stale content replayed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_is_exactly_the_planned_failure_set() {
    let plan = FaultPlan {
        seed: 42,
        panic_per_mille: 100,
        site: FaultSite::Prefilter,
        ..Default::default()
    };
    let expected: Vec<usize> = scanned_tile_ids()
        .iter()
        .copied()
        .filter(|&id| plan.persistent(id))
        .collect();
    assert!(
        !expected.is_empty(),
        "seed 42 at 10% must hit at least one tile"
    );
    assert!(
        expected.len() * 10 <= scanned_tile_ids().len() * 3,
        "10% per-mille plan should stay well under the tile count"
    );

    let dir = workdir("quarantine");
    let mut digests = Vec::new();
    for threads in [1, 2, 4] {
        let cache = dir.join(format!("q_{threads}.cache"));
        let scan = ScanConfig {
            failure_policy: FailurePolicy::SkipAndRecord {
                max_failed_tiles: scanned_tile_ids().len(),
            },
            fault_plan: plan.clone(),
            ..cached_scan(&cache)
        };
        let report = run(&scan, threads);
        let mut failed: Vec<usize> = report.failed_tiles.iter().map(|f| f.tile).collect();
        failed.sort_unstable();
        assert_eq!(failed, expected, "{threads} threads");
        assert_eq!(report.retries, expected.len(), "one retry per failure");
        for f in &report.failed_tiles {
            assert!(f.reason.contains("injected fault"), "{}", f.reason);
        }
        // Quarantined tiles are never cached.
        let cached = cached_tiles(&cache);
        for id in &expected {
            assert!(!cached.contains(id), "tile {id} cached");
        }
        digests.push(report.digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "degraded-mode digest must be thread-count-invariant"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abort_policy_fails_fast_with_the_failing_tile() {
    let target = scanned_tile_ids()[1];
    let scan = ScanConfig {
        fault_plan: FaultPlan {
            panic_tasks: vec![target],
            site: FaultSite::Prefilter,
            ..Default::default()
        },
        ..base_scan()
    };
    let bm = benchmark();
    let err = trained(bm)
        .scan_layout(&bm.layout, bm.layer, &scan)
        .expect_err("Abort must surface the panic");
    match err {
        DetectError::TaskPanicked(failure) => {
            assert_eq!(failure.index, target);
            assert!(failure.payload.contains("injected fault"), "{failure}");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
}

#[test]
fn transient_faults_are_retried_and_leave_no_quarantine() {
    let plan = FaultPlan {
        seed: 7,
        transient_per_mille: 200,
        site: FaultSite::Prefilter,
        ..Default::default()
    };
    let expected_retries = scanned_tile_ids()
        .iter()
        .filter(|&&id| plan.transient(id))
        .count();
    assert!(expected_retries > 0, "seed 7 at 20% must hit at least once");

    // Abort policy: the scan still completes because every retry succeeds.
    let scan = ScanConfig {
        fault_plan: plan,
        ..base_scan()
    };
    let report = run(&scan, 2);
    assert_eq!(report.retries, expected_retries);
    assert!(report.failed_tiles.is_empty());
    assert_eq!(report.digest(), clean_report().digest());
}

#[test]
fn quarantine_bound_is_enforced() {
    let target = scanned_tile_ids()[0];
    let scan = ScanConfig {
        failure_policy: FailurePolicy::SkipAndRecord {
            max_failed_tiles: 0,
        },
        fault_plan: FaultPlan {
            panic_tasks: vec![target],
            site: FaultSite::Prefilter,
            ..Default::default()
        },
        ..base_scan()
    };
    let bm = benchmark();
    let err = trained(bm)
        .scan_layout(&bm.layout, bm.layer, &scan)
        .expect_err("bound of 0 must reject the first quarantine");
    assert!(
        matches!(err, DetectError::TooManyFailures { failed: 1, max: 0 }),
        "{err:?}"
    );
}

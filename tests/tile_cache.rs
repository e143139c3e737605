//! Incremental re-scan integration tests: the content-addressed tile
//! result cache must make warm re-scans byte-identical to cold scans.
//!
//! The headline invariants pinned here:
//!
//! 1. a warm re-scan of an unchanged layout and a warm re-scan after
//!    editing k tiles both produce a [`ScanReport::digest`] byte-identical
//!    to a cold scan, at 1/2/4 threads, recomputing exactly the expected
//!    number of tiles;
//! 2. a corrupt cache entry is rejected individually (that tile recomputes,
//!    the scan still succeeds) and a header mismatch discards the store
//!    wholesale;
//! 3. a quarantined tile is never written to the cache as a success, and
//!    an aborted scan keeps every entry the cache held and gained.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::{
    AbortReason, DetectorConfig, FailurePolicy, FaultPlan, FaultSite, HotspotDetector, ScanConfig,
    ScanReport,
};
use hotspot_suite::geom::Rect;
use hotspot_suite::layout::scan::{TileScanner, TileSpec};
use hotspot_suite::layout::{ClipShape, Layout};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

fn benchmark() -> &'static Benchmark {
    static BM: OnceLock<Benchmark> = OnceLock::new();
    BM.get_or_init(|| {
        Benchmark::generate(BenchmarkSpec {
            name: "cache-test".into(),
            process_nm: 32,
            width: 48_000,
            height: 48_000,
            train_hotspots: 20,
            train_nonhotspots: 70,
            test_hotspots: 6,
            seed: 23,
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
    let dir = std::env::temp_dir().join(format!("hotspot_cache_{name}"));
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

fn cached_scan(cache: &std::path::Path) -> ScanConfig {
    ScanConfig {
        cache: Some(cache.to_path_buf()),
        ..base_scan()
    }
}

fn run_on(layout: &Layout, scan: &ScanConfig, threads: usize) -> ScanReport {
    let bm = benchmark();
    trained(bm)
        .clone()
        .with_threads(threads)
        .scan_layout(layout, bm.layer, scan)
        .expect("scan")
}

fn run(scan: &ScanConfig, threads: usize) -> ScanReport {
    run_on(&benchmark().layout, scan, threads)
}

/// The clean (cache-free) report every cached variant must match.
fn clean_report() -> &'static ScanReport {
    static REPORT: OnceLock<ScanReport> = OnceLock::new();
    REPORT.get_or_init(|| run(&base_scan(), 2))
}

/// The tile spec `base_scan` resolves to (stride = 8 cores, clip halo).
fn tile_spec() -> TileSpec {
    let shape = ClipShape::ICCAD2012;
    TileSpec::new(shape.core_side() * 8, shape.ambit() + shape.core_side()).expect("spec")
}

/// Content fingerprints of every non-empty tile of `layout`, keyed by
/// grid coordinate — the same quantity the cache keys hits on.
fn layout_fingerprints(layout: &Layout) -> BTreeMap<(i64, i64), u64> {
    let bm = benchmark();
    TileScanner::from_rects(layout.dissected_rects(bm.layer), tile_spec())
        .map(|t| ((t.ix, t.iy), t.content_fingerprint()))
        .collect()
}

#[test]
fn warm_rescan_is_bit_identical_with_zero_misses_at_any_thread_count() {
    let dir = workdir("warm");
    let cache = dir.join("tiles.cache");
    let scan = cached_scan(&cache);

    let cold = run(&scan, 2);
    assert_eq!(cold.digest(), clean_report().digest());
    assert_eq!(cold.cache_hits, 0, "first scan has nothing to hit");
    let tiles = layout_fingerprints(&benchmark().layout).len();
    assert!(tiles > 4, "benchmark too small for cache tests");
    assert_eq!(cold.cache_misses, tiles, "every non-empty tile is a miss");
    assert!(cache.exists(), "cache written at scan completion");

    for threads in [1, 2, 4] {
        let warm = run(&scan, threads);
        assert_eq!(warm.digest(), clean_report().digest(), "{threads} threads");
        assert_eq!(warm.cache_misses, 0, "{threads} threads");
        assert_eq!(warm.cache_hits, tiles, "{threads} threads");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn editing_k_tiles_recomputes_exactly_the_touched_tiles() {
    let bm = benchmark();
    let dir = workdir("edited");
    let cache = dir.join("tiles.cache");
    run(&cached_scan(&cache), 2);

    // Add one small rect in the layout interior: the bbox (and therefore
    // the tile grid) must not move, and only the tiles whose core+ambit
    // window sees the new geometry may change fingerprint.
    let bbox = bm.layout.bbox().expect("non-empty layout");
    let cx = (bbox.min().x + bbox.max().x) / 2;
    let cy = (bbox.min().y + bbox.max().y) / 2;
    let mut edited = bm.layout.clone();
    edited.add_rect(bm.layer, Rect::from_extents(cx, cy, cx + 300, cy + 300));

    let before = layout_fingerprints(&bm.layout);
    let after = layout_fingerprints(&edited);
    let expected_misses = after
        .iter()
        .filter(|(key, fp)| before.get(key) != Some(fp))
        .count();
    assert!(
        expected_misses > 0 && expected_misses < after.len(),
        "edit must touch some but not all of the {} tiles, got {expected_misses}",
        after.len()
    );

    let edited_clean = run_on(&edited, &base_scan(), 2);
    for threads in [1, 2, 4] {
        // Fresh copy per thread count: a warm scan rewrites the store.
        let copy = dir.join(format!("tiles_{threads}.cache"));
        std::fs::copy(&cache, &copy).expect("copy cache");
        let report = run_on(&edited, &cached_scan(&copy), threads);
        assert_eq!(report.digest(), edited_clean.digest(), "{threads} threads");
        assert_eq!(report.cache_misses, expected_misses, "{threads} threads");
        assert_eq!(
            report.cache_hits,
            after.len() - expected_misses,
            "{threads} threads"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_cache_entry_is_rejected_individually() {
    let dir = workdir("corrupt");
    let cache = dir.join("tiles.cache");
    let scan = cached_scan(&cache);
    run(&scan, 2);

    // Flip one bit inside the payload of the second entry line (line 0 is
    // the header). The framing checksum must reject exactly that entry.
    let mut bytes = std::fs::read(&cache).expect("cache bytes");
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    assert!(line_starts.len() > 3, "expected several cache entries");
    let mut target = line_starts[2] + 24;
    while bytes[target] == b'\n' || bytes[target] ^ 1 == b'\n' {
        target += 1;
    }
    bytes[target] ^= 1;
    std::fs::write(&cache, &bytes).expect("write damaged cache");

    let report = run(&scan, 2);
    assert_eq!(report.digest(), clean_report().digest());
    assert_eq!(report.cache_misses, 1, "only the damaged entry recomputes");

    // The write-back healed the store: a third scan is all hits.
    let healed = run(&scan, 2);
    assert_eq!(healed.cache_misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grid_or_threshold_change_discards_the_whole_cache() {
    let dir = workdir("discard");
    let cache = dir.join("tiles.cache");
    run(&cached_scan(&cache), 2);

    // Same cache file, different tile grid: the header fingerprint must
    // not match, every tile recomputes, and the scan still succeeds.
    let other_grid = ScanConfig {
        tile_cores: 4,
        ..cached_scan(&cache)
    };
    let report = run(&other_grid, 2);
    assert_eq!(report.cache_hits, 0, "discarded cache serves nothing");
    assert!(report.cache_misses > 0);
    assert_eq!(
        report.digest(),
        run(
            &ScanConfig {
                tile_cores: 4,
                ..base_scan()
            },
            2
        )
        .digest()
    );

    // The rewrite now carries the tile_cores=4 header: the original scan
    // config sees a mismatched header again and recomputes everything.
    let back = run(&cached_scan(&cache), 2);
    assert_eq!(back.cache_hits, 0);
    assert_eq!(back.digest(), clean_report().digest());

    // Same cache and grid, another decision threshold: the model
    // fingerprint hashes the threshold, so nothing is served, and the
    // recomputed report is an uncached scan's at that threshold.
    let raised = |scan: &ScanConfig| {
        let bm = benchmark();
        trained(bm)
            .clone()
            .with_threads(2)
            .with_decision_threshold(0.5)
            .scan_layout(&bm.layout, bm.layer, scan)
            .expect("scan")
    };
    let report = raised(&cached_scan(&cache));
    assert_eq!(
        report.cache_hits, 0,
        "a threshold change discards the cache"
    );
    assert!(report.cache_misses > 0);
    assert_eq!(report.digest(), raised(&base_scan()).digest());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_tiles_are_never_cached_as_successes() {
    let dir = workdir("quarantine");
    let cache = dir.join("tiles.cache");
    let plan = FaultPlan {
        seed: 42,
        panic_per_mille: 100,
        site: FaultSite::Prefilter,
        ..Default::default()
    };
    let faulty = ScanConfig {
        failure_policy: FailurePolicy::SkipAndRecord {
            max_failed_tiles: usize::MAX,
        },
        fault_plan: plan,
        ..cached_scan(&cache)
    };
    let degraded = run(&faulty, 2);
    let quarantined = degraded.failed_tiles.len();
    assert!(quarantined > 0, "seed 42 at 10% must quarantine tiles");

    // A fault-free warm re-scan recomputes exactly the quarantined tiles:
    // had any been cached as a success, it would be served stale.
    let report = run(&cached_scan(&cache), 2);
    assert_eq!(report.cache_misses, quarantined);
    assert!(report.failed_tiles.is_empty());
    assert_eq!(report.digest(), clean_report().digest());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_aborted_scan_keeps_the_cache() {
    let dir = workdir("aborted");
    let cache = dir.join("tiles.cache");
    let full = run(&cached_scan(&cache), 2);
    assert!(full.cache_misses > 0);
    let warm_bytes = std::fs::read(&cache).expect("cache bytes");

    // A zero deadline aborts before the first batch: nothing computed,
    // nothing written, nothing thrown away.
    let aborted = ScanConfig {
        deadline: Some(Duration::ZERO),
        ..cached_scan(&cache)
    };
    let report = run(&aborted, 2);
    assert_eq!(report.aborted, Some(AbortReason::DeadlineExceeded));
    assert!(
        std::fs::read(&cache).expect("cache bytes") == warm_bytes,
        "the aborted scan rewrote the cache"
    );

    let third = run(&cached_scan(&cache), 2);
    assert_eq!(third.cache_misses, 0, "the abort must not empty the cache");
    assert_eq!(third.cache_hits, full.cache_misses);
    assert_eq!(third.digest(), clean_report().digest());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_verify_revalidates_an_honest_cache() {
    let dir = workdir("verify");
    let cache = dir.join("tiles.cache");
    run(&cached_scan(&cache), 2);

    let verify = ScanConfig {
        cache_verify: true,
        ..cached_scan(&cache)
    };
    let report = run(&verify, 2);
    assert_eq!(report.digest(), clean_report().digest());
    assert!(report.cache_hits > 0, "verify mode still reports the hits");
    std::fs::remove_dir_all(&dir).ok();
}

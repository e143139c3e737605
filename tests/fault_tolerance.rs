//! Fault-tolerance integration tests: panic isolation, the checkpoint
//! journal, and the deterministic fault-injection harness.
//!
//! The two load-bearing guarantees pinned here:
//!
//! 1. a scan killed mid-run and resumed from its journal produces a report
//!    whose deterministic content ([`ScanReport::digest`]) is
//!    byte-identical to an uninterrupted run, at any thread count and for
//!    a journal truncated at *any* byte boundary;
//! 2. under [`FailurePolicy::SkipAndRecord`], seeded injected panics never
//!    abort the scan and the quarantine list is exactly the set of tiles
//!    the plan says must fail — independent of thread count.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::journal::read_journal;
use hotspot_suite::core::{
    DetectError, FailurePolicy, FaultPlan, FaultSite, HotspotDetector, ScanConfig, ScanReport,
};
use hotspot_suite::layout::ClipShape;
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
        HotspotDetector::builder()
            .threads(2)
            .train(&bm.training)
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

/// The clean (fault-free, journal-free) report every variant must match.
fn clean_report() -> &'static ScanReport {
    static REPORT: OnceLock<ScanReport> = OnceLock::new();
    REPORT.get_or_init(|| run(&base_scan(), 2))
}

/// Tile ids the clean scan completes, via a throwaway journal.
fn scanned_tile_ids() -> &'static Vec<usize> {
    static IDS: OnceLock<Vec<usize>> = OnceLock::new();
    IDS.get_or_init(|| {
        let dir = workdir("tile_ids");
        let journal = dir.join("scan.journal");
        let scan = ScanConfig {
            journal: Some(journal.clone()),
            ..base_scan()
        };
        run(&scan, 2);
        let contents = read_journal(&journal).expect("journal reads back");
        let mut ids: Vec<usize> = contents.records.keys().copied().collect();
        ids.sort_unstable();
        std::fs::remove_dir_all(&dir).ok();
        assert!(ids.len() > 4, "benchmark too small for fault tests");
        ids
    })
}

fn resume_config(journal: &Path) -> ScanConfig {
    ScanConfig {
        journal: Some(journal.to_path_buf()),
        resume: true,
        ..base_scan()
    }
}

#[test]
fn journaled_scan_matches_unjournaled_digest() {
    let dir = workdir("journaled");
    let journal = dir.join("scan.journal");
    let scan = ScanConfig {
        journal: Some(journal.clone()),
        ..base_scan()
    };
    let report = run(&scan, 2);
    assert_eq!(report.digest(), clean_report().digest());
    assert_eq!(report.resumed_tiles, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_truncation_is_bit_identical_at_any_cut() {
    let dir = workdir("truncate");
    let full = dir.join("full.journal");
    let scan = ScanConfig {
        journal: Some(full.clone()),
        ..base_scan()
    };
    run(&scan, 2);
    let clean_bytes = std::fs::read(&full).expect("journal bytes");
    let clean_digest = clean_report().digest();

    // Line starts after the header: every record boundary in the file.
    let boundaries: Vec<usize> = clean_bytes
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert!(boundaries.len() > 3, "expected several journal records");

    // Cut at the first record boundary, a middle one, the last, and at
    // ragged mid-record offsets around the middle boundary.
    let mid = boundaries[boundaries.len() / 2];
    let cuts = [
        boundaries[1],
        mid,
        boundaries[boundaries.len() - 2],
        mid + 1,
        mid + 7,
        mid.saturating_sub(3),
    ];
    for (i, &cut) in cuts.iter().enumerate() {
        for threads in [1, 2, 4] {
            let partial = dir.join(format!("cut_{i}_{threads}.journal"));
            std::fs::write(&partial, &clean_bytes[..cut]).expect("truncate copy");
            let report = run(&resume_config(&partial), threads);
            assert_eq!(
                report.digest(),
                clean_digest,
                "cut at byte {cut}, {threads} threads"
            );
            assert!(
                report.resumed_tiles > 0 || cut <= boundaries[0],
                "cut at byte {cut} should replay at least one tile"
            );
            // The healed journal is byte-identical to the uninterrupted
            // one: appends re-run in scan order from the valid prefix.
            assert_eq!(
                std::fs::read(&partial).expect("healed journal"),
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
    let journal = dir.join("scan.journal");
    // The third fresh append dies with an injected I/O error — a
    // deterministic stand-in for `kill -9` mid-scan.
    let killed = ScanConfig {
        journal: Some(journal.clone()),
        fault_plan: FaultPlan {
            fail_journal_at: Some(3),
            ..Default::default()
        },
        ..base_scan()
    };
    let bm = benchmark();
    let err = trained(bm)
        .clone()
        .with_threads(2)
        .scan_layout(&bm.layout, bm.layer, &killed)
        .expect_err("injected journal failure must abort");
    assert!(matches!(err, DetectError::Journal(_)), "{err:?}");

    let contents = read_journal(&journal).expect("prefix is readable");
    assert_eq!(contents.records.len(), 3, "three appends landed");

    for threads in [1, 2, 4] {
        let copy = dir.join(format!("resume_{threads}.journal"));
        std::fs::copy(&journal, &copy).expect("copy journal");
        let report = run(&resume_config(&copy), threads);
        assert_eq!(report.digest(), clean_report().digest());
        assert_eq!(report.resumed_tiles, 3);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_a_journal_from_a_different_scan() {
    let dir = workdir("mismatch");
    let journal = dir.join("scan.journal");
    let scan = ScanConfig {
        journal: Some(journal.clone()),
        ..base_scan()
    };
    run(&scan, 2);
    // Same journal, different grid: the fingerprint must not match.
    let mismatched = ScanConfig {
        tile_cores: 4,
        journal: Some(journal.clone()),
        resume: true,
        ..base_scan()
    };
    let bm = benchmark();
    let err = trained(bm)
        .scan_layout(&bm.layout, bm.layer, &mismatched)
        .expect_err("mismatched journal must be rejected");
    assert!(matches!(err, DetectError::Journal(_)), "{err:?}");
    assert!(err.to_string().contains("different scan"), "{err}");
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
        let journal = dir.join(format!("q_{threads}.journal"));
        let scan = ScanConfig {
            failure_policy: FailurePolicy::SkipAndRecord {
                max_failed_tiles: scanned_tile_ids().len(),
            },
            journal: Some(journal.clone()),
            fault_plan: plan.clone(),
            ..base_scan()
        };
        let report = run(&scan, threads);
        let mut failed: Vec<usize> = report.failed_tiles.iter().map(|f| f.tile).collect();
        failed.sort_unstable();
        assert_eq!(failed, expected, "{threads} threads");
        assert_eq!(report.retries, expected.len(), "one retry per failure");
        for f in &report.failed_tiles {
            assert!(f.reason.contains("injected fault"), "{}", f.reason);
        }
        // Quarantined tiles are never journaled.
        let contents = read_journal(&journal).expect("journal reads back");
        for id in &expected {
            assert!(!contents.records.contains_key(id), "tile {id} journaled");
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

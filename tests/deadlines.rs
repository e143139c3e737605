//! Deadline, watchdog, and cancellation integration tests.
//!
//! The headline invariant pinned here: a scan stopped early — by its
//! wall-clock deadline, by a per-tile watchdog quarantine, or by a
//! caller's cancel token — and then resumed from its journal produces a
//! report whose deterministic content ([`ScanReport::digest`]) is
//! bit-identical to an uninterrupted run's, at 1, 2, and 4 threads.
//! Abort points sit at batch boundaries and skipped tiles are never
//! journaled, so the journal only ever holds whole-tile records and the
//! quarantine set under `tile_timeout` is exactly the stalled set,
//! independent of thread count.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::engine::StageId;
use hotspot_suite::core::journal::read_journal;
use hotspot_suite::core::{
    AbortReason, CancelToken, FailureKind, FailurePolicy, FaultPlan, FaultSite, HotspotDetector,
    ScanConfig, ScanReport,
};
use hotspot_suite::layout::ClipShape;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
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
        assert!(ids.len() > 4, "benchmark too small for deadline tests");
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
    let journal = dir.join("scan.journal");
    let scan = ScanConfig {
        deadline: Some(Duration::ZERO),
        journal: Some(journal.clone()),
        ..base_scan()
    };
    let report = run(&scan, 2);
    assert_eq!(report.aborted, Some(AbortReason::DeadlineExceeded));
    assert_eq!(report.tiles_scanned, 0, "no batch may be admitted");
    assert!(report.failed_tiles.is_empty());
    assert_eq!(
        report.telemetry.aborted_reason.as_deref(),
        Some("deadline_exceeded")
    );

    // The journal is a valid header-only file; resuming it finishes the
    // scan with the clean digest.
    let contents = read_journal(&journal).expect("aborted journal is valid");
    assert!(contents.records.is_empty());
    let resumed = run(&resume_config(&journal), 2);
    assert_eq!(resumed.aborted, None);
    assert_eq!(resumed.digest(), clean_report().digest());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_abort_then_resume_digests_identically_at_any_thread_count() {
    let dir = workdir("abort_resume");
    for threads in [1usize, 2, 4] {
        let journal = dir.join(format!("abort_{threads}.journal"));
        let scan = ScanConfig {
            deadline: Some(Duration::from_millis(100)),
            fault_plan: stall_everything(),
            journal: Some(journal.clone()),
            ..base_scan()
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

        // The abort left only whole records: the journal's valid prefix
        // is the entire file, no torn tail.
        let contents = read_journal(&journal).expect("aborted journal is valid");
        let file_len = std::fs::metadata(&journal).expect("journal metadata").len();
        assert_eq!(contents.valid_len, file_len, "{threads} threads");
        assert_eq!(contents.records.len(), report.tiles_scanned);

        // Resuming without the deadline (or the stalls) finishes the scan
        // bit-identically to a never-interrupted run.
        let resumed = run(&resume_config(&journal), threads);
        assert_eq!(resumed.aborted, None);
        assert_eq!(resumed.resumed_tiles, contents.records.len());
        assert_eq!(
            resumed.digest(),
            clean_report().digest(),
            "{threads} threads"
        );
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
        let journal = dir.join(format!("wd_{threads}.journal"));
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
            journal: Some(journal.clone()),
            ..base_scan()
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

        // Timed-out tiles are never journaled.
        let contents = read_journal(&journal).expect("journal reads back");
        for id in &stalled {
            assert!(!contents.records.contains_key(id), "tile {id} journaled");
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

/// Journal bytes left behind by a deadline-aborted scan, plus the length
/// of its header line — computed once for the prefix-truncation
/// properties below.
fn aborted_journal_bytes() -> &'static (Vec<u8>, usize) {
    static BYTES: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = workdir("prop_seed");
        let journal = dir.join("aborted.journal");
        let scan = ScanConfig {
            deadline: Some(Duration::from_millis(100)),
            fault_plan: stall_everything(),
            journal: Some(journal.clone()),
            ..base_scan()
        };
        let report = run(&scan, 2);
        assert_eq!(report.aborted, Some(AbortReason::DeadlineExceeded));
        let bytes = std::fs::read(&journal).expect("journal bytes");
        let header_len = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("journal has a header line")
            + 1;
        std::fs::remove_dir_all(&dir).ok();
        (bytes, header_len)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite invariant: *any* prefix truncation of a deadline-aborted
    /// journal (down to its header) is accepted by `read_journal`, and a
    /// resume from it reproduces the clean digest and re-appends the
    /// journal to a superset of the prefix.
    #[test]
    fn any_prefix_of_an_aborted_journal_resumes_to_the_clean_digest(
        cut_frac in 0.0f64..1.0,
    ) {
        let (bytes, header_len) = aborted_journal_bytes();
        let span = bytes.len() - header_len;
        let cut = header_len + ((cut_frac * (span as f64 + 1.0)) as usize).min(span);
        let dir = workdir(&format!("prop_cut_{cut}"));
        let journal = dir.join("cut.journal");
        std::fs::write(&journal, &bytes[..cut]).expect("truncate copy");

        let contents = read_journal(&journal).expect("any prefix cut must be accepted");
        prop_assert!(contents.valid_len as usize <= cut);

        let resumed = run(&resume_config(&journal), 2);
        prop_assert_eq!(resumed.aborted, None);
        prop_assert_eq!(resumed.resumed_tiles, contents.records.len());
        prop_assert_eq!(resumed.digest(), clean_report().digest());
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cuts *inside* the header are the one unrecoverable truncation:
    /// they must fail cleanly (`InvalidData`), never panic, so the CLI
    /// can tell the user to start a fresh journal.
    #[test]
    fn cuts_inside_the_header_fail_cleanly(cut_frac in 0.0f64..1.0) {
        let (bytes, header_len) = aborted_journal_bytes();
        let cut = (cut_frac * (*header_len as f64 - 1.0)).round() as usize;
        let dir = workdir(&format!("prop_hdr_{cut}"));
        let journal = dir.join("hdr.journal");
        std::fs::write(&journal, &bytes[..cut]).expect("truncate copy");
        let err = read_journal(&journal).expect_err("headerless journal must be rejected");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Observability integration tests: attaching the full sink stack to a
//! streaming scan must not change a single bit of the report, the
//! Prometheus endpoint must serve the per-stage counter families over
//! plain HTTP, and the NDJSON event log must round-trip through the
//! schema-versioned reader.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::engine::StageId;
use hotspot_suite::core::obs::read_events;
use hotspot_suite::core::{
    AbortReason, FailureKind, FailurePolicy, FaultPlan, FaultSite, HotspotDetector, MetricsServer,
    NdjsonSink, ObsEvent, ObsHub, ObsRecord, ObsSink, ScanConfig, ScanReport, OBS_SCHEMA_VERSION,
};
use hotspot_suite::layout::ClipShape;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

fn benchmark() -> &'static Benchmark {
    static BM: OnceLock<Benchmark> = OnceLock::new();
    BM.get_or_init(|| {
        Benchmark::generate(BenchmarkSpec {
            name: "obs-test".into(),
            process_nm: 32,
            width: 40_000,
            height: 40_000,
            train_hotspots: 16,
            train_nonhotspots: 56,
            test_hotspots: 5,
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
        HotspotDetector::builder()
            .threads(2)
            .train(&bm.training)
            .expect("training")
    })
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hotspot_obs_it_{}_{name}", std::process::id()))
}

/// Issues a blocking HTTP/1.0 GET and returns the raw response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn full_sink_stack_leaves_scan_report_bit_identical() {
    let bm = benchmark();
    let detector = trained(bm);
    let scan = ScanConfig {
        tile_cores: 6,
        max_in_flight: 3,
        ..Default::default()
    };

    for threads in [1usize, 2, 4] {
        let bare = detector
            .clone()
            .with_threads(threads)
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("unobserved scan");
        assert!(bare.telemetry.obs_sinks.is_empty());

        let events = temp_path(&format!("identical_{threads}.ndjson"));
        let hub = ObsHub::new();
        hub.register(Box::new(NdjsonSink::create(&events).expect("event log")));
        let server = MetricsServer::bind("127.0.0.1:0", hub.clone()).expect("bind");
        let observed = detector
            .clone()
            .with_threads(threads)
            .with_obs(hub.clone())
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("observed scan");
        server.shutdown();

        // The acceptance bar: deterministic content is bit-identical with
        // the whole sink stack attached, at every thread count.
        assert_eq!(
            observed.digest(),
            bare.digest(),
            "observed scan diverged at {threads} thread(s)"
        );
        assert_eq!(observed.reported, bare.reported);
        // Telemetry (schema v6) records which sinks watched the run.
        assert_eq!(
            observed.telemetry.obs_sinks,
            vec!["ndjson".to_string(), "prometheus".to_string()]
        );
        std::fs::remove_file(&events).ok();
    }
}

#[test]
fn metrics_endpoint_serves_per_stage_counter_families() {
    let bm = benchmark();
    let detector = trained(bm);
    let hub = ObsHub::new();
    let server = MetricsServer::bind("127.0.0.1:0", hub.clone()).expect("bind");
    let addr = server.local_addr();

    let report = detector
        .clone()
        .with_obs(hub.clone())
        .scan_layout(&bm.layout, bm.layer, &ScanConfig::default())
        .expect("scan");

    let response = http_get(addr, "/metrics");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    // Global counter families reflect the finished scan exactly.
    assert!(
        body.contains(&format!(
            "hotspot_clips_extracted_total {}",
            report.clips_extracted
        )),
        "{body}"
    );
    assert!(
        body.contains(&format!(
            "hotspot_tiles_done_total {}",
            report.tiles_scanned
        )),
        "{body}"
    );
    assert!(body.contains("hotspot_tiles_in_flight 0"), "{body}");
    // Per-stage families carry the stage label.
    assert!(
        body.contains("hotspot_stage_tasks_total{stage=\"kernel_evaluation\"}"),
        "{body}"
    );
    assert!(
        body.contains("hotspot_stage_admissions_total{stage=\"kernel_evaluation\"}"),
        "{body}"
    );
    // Every sample line is `name[{labels}] value` with a numeric value —
    // minimal Prometheus text-format validity.
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in line: {line}"
        );
    }

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
    server.shutdown();
}

#[test]
fn ndjson_event_log_round_trips_and_matches_report() {
    let bm = benchmark();
    let detector = trained(bm);
    let events = temp_path("roundtrip.ndjson");
    let hub = ObsHub::new();
    hub.register(Box::new(NdjsonSink::create(&events).expect("event log")));

    let report = detector
        .clone()
        .with_obs(hub.clone())
        .scan_layout(&bm.layout, bm.layer, &ScanConfig::default())
        .expect("scan");

    let records = read_events(&events).expect("valid NDJSON event log");
    assert!(!records.is_empty());
    assert!(records.iter().all(|r| r.v == OBS_SCHEMA_VERSION));
    // Sequence numbers are monotonic, so the log orders causally.
    assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));

    match &records.first().expect("first event").event {
        ObsEvent::ScanStarted { tiles_total, .. } => {
            assert_eq!(*tiles_total, report.tiles_total);
        }
        other => panic!("expected ScanStarted first, got {other:?}"),
    }
    match &records.last().expect("last event").event {
        ObsEvent::ScanCompleted {
            tiles_scanned,
            reported,
            ..
        } => {
            assert_eq!(*tiles_scanned, report.tiles_scanned);
            assert_eq!(*reported, report.reported.len());
        }
        other => panic!("expected ScanCompleted last, got {other:?}"),
    }
    // Batch events sum to the report's totals.
    let (batch_clips, batch_flagged) =
        records
            .iter()
            .fold((0usize, 0usize), |(c, f), r| match r.event {
                ObsEvent::BatchCompleted { clips, flagged, .. } => (c + clips, f + flagged),
                _ => (c, f),
            });
    assert_eq!(batch_clips, report.clips_extracted);
    assert_eq!(batch_flagged, report.clips_flagged);
    std::fs::remove_file(&events).ok();
}

/// A sink that keeps every event in memory.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<ObsEvent>>>);

impl ObsSink for Capture {
    fn name(&self) -> &str {
        "capture"
    }

    fn on_event(&self, record: &ObsRecord) {
        self.0.lock().unwrap().push(record.event.clone());
    }
}

/// Scans with a fresh hub attached and checks that every count the report,
/// the telemetry stage rows and the hub share agrees across all three.
fn scan_and_check_agreement(
    detector: &HotspotDetector,
    scan: &ScanConfig,
    case: &str,
) -> ScanReport {
    let bm = benchmark();
    let hub = ObsHub::new();
    let capture = Capture::default();
    hub.register(Box::new(capture.clone()));
    let report = detector
        .clone()
        .with_obs(hub.clone())
        .scan_layout(&bm.layout, bm.layer, scan)
        .unwrap_or_else(|e| panic!("{case}: scan failed: {e}"));
    let snap = hub.snapshot();
    let t = &report.telemetry;
    let prefilter = t.stage(StageId::DensityPrefilter).expect("prefilter row");
    let extraction = t.stage(StageId::ClipExtraction).expect("extraction row");
    let eval = t.stage(StageId::KernelEvaluation).expect("evaluation row");
    let n = |v: usize| v as u64;

    let prefiltered = n(report.tiles_prefiltered);
    assert_eq!(snap.tiles_prefiltered, prefiltered, "{case}");
    assert_eq!(
        n(prefilter.items_in - prefilter.items_out),
        prefiltered,
        "{case}"
    );
    let clips = n(report.clips_extracted);
    assert_eq!(snap.clips_extracted, clips, "{case}");
    assert_eq!(n(extraction.items_out), clips, "{case}");
    assert_eq!(n(eval.items_in), clips, "{case}");
    assert_eq!(snap.clips_flagged, n(report.clips_flagged), "{case}");
    assert_eq!(n(eval.items_out), n(report.clips_flagged), "{case}");
    assert_eq!(snap.clips_reclaimed, n(report.feedback_reclaimed), "{case}");
    assert_eq!(snap.eval_batches, n(report.eval_batches), "{case}");
    assert_eq!(n(eval.batches), n(report.eval_batches), "{case}");
    assert_eq!(snap.cache_hits, n(report.cache_hits), "{case}");
    assert_eq!(snap.cache_misses, n(report.cache_misses), "{case}");
    if scan.cache.is_some() {
        // Every miss of a clean cached scan is computed and appended.
        assert_eq!(snap.journal_appends, n(report.cache_misses), "{case}");
    }
    assert_eq!(snap.task_retries, n(report.retries), "{case}");
    assert_eq!(n(eval.retries), n(report.retries), "{case}");
    assert_eq!(
        snap.tiles_quarantined,
        n(report.failed_tiles.len()),
        "{case}"
    );
    let timed_out = report
        .failed_tiles
        .iter()
        .filter(|q| q.kind == FailureKind::TimedOut)
        .count();
    assert_eq!(snap.tiles_timed_out, n(timed_out), "{case}");
    assert_eq!(n(eval.timeouts), n(timed_out), "{case}");
    // Every scanned tile — evaluated, prefiltered, replayed, served or
    // quarantined — is done, and none is left in flight. An aborted scan
    // also counts the tiles its stop dropped mid-body as done: at most one
    // in-flight window more than it scanned.
    if report.aborted.is_some() {
        let scanned = n(report.tiles_scanned);
        let window = n(scan.max_in_flight);
        assert!(
            (scanned..=scanned + window).contains(&snap.tiles_done),
            "{case}: {} done, {scanned} scanned",
            snap.tiles_done
        );
    } else {
        assert_eq!(snap.tiles_done, n(report.tiles_scanned), "{case}");
    }
    assert_eq!(snap.tiles_in_flight(), 0, "{case}");

    // Every stage row equals the hub's slice of that stage, and a stage
    // the scan did not record reads 0 on the hub.
    assert_eq!(snap.stages.len(), StageId::ALL.len(), "{case}");
    for (stage, slice) in StageId::ALL.iter().zip(&snap.stages) {
        assert_eq!(slice.stage, stage.name(), "{case}");
        let row = t.stage(*stage).map_or((0, 0, 0, 0), |r| {
            let (tasks, failures) = (n(r.tasks_executed), n(r.failures));
            (tasks, failures, r.admissions, r.admission_skips)
        });
        let hub_row = (
            slice.tasks,
            slice.failures,
            slice.admissions,
            slice.admission_skips,
        );
        assert_eq!(hub_row, row, "{case}: stage {}", slice.stage);
    }
    assert_eq!(snap.executor_tasks, n(eval.tasks_executed), "{case}");
    // Clips are evaluated for computed tiles only, never for cache-served
    // ones.
    if report.cache_hits == 0 {
        assert_eq!(snap.clips_evaluated, clips, "{case}");
    } else if report.cache_misses == 0 {
        assert_eq!(snap.clips_evaluated, 0, "{case}");
    } else {
        assert!(
            (1..clips).contains(&snap.clips_evaluated),
            "{case}: {} of {clips} clips evaluated",
            snap.clips_evaluated
        );
    }

    // Each batch the executor ran is one `scan_tile` span: a StageBegin
    // and then its StageEnd over the same tiles. The spans' failures are
    // the first attempts that panicked; with the failed retries
    // (quarantined tiles) they make up the evaluation row's failures.
    let events = capture.0.lock().unwrap();
    let spans: Vec<(bool, &str, usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::StageBegin { stage, items } => Some((true, stage.as_str(), *items, 0)),
            ObsEvent::StageEnd {
                stage,
                items,
                failures,
            } => Some((false, stage.as_str(), *items, *failures)),
            _ => None,
        })
        .collect();
    for pair in spans.chunks(2) {
        let [begin, end] = pair else {
            panic!("{case}: unpaired span {pair:?}");
        };
        assert!(begin.0 && !end.0, "{case}: {pair:?}");
        assert_eq!((begin.1, end.1), ("scan_tile", "scan_tile"), "{case}");
        assert_eq!(begin.2, end.2, "{case}: {pair:?}");
    }
    let span_tasks = n(spans.iter().filter(|s| !s.0).map(|s| s.2).sum());
    let span_failures: usize = spans.iter().map(|s| s.3).sum();
    assert_eq!(
        span_failures + report.failed_tiles.len(),
        eval.failures,
        "{case}"
    );
    // Tasks a stop skipped were handed to the executor but never ran.
    if report.aborted.is_some() {
        assert!(span_tasks >= snap.executor_tasks, "{case}");
    } else {
        assert_eq!(span_tasks, snap.executor_tasks, "{case}");
    }
    report
}

#[test]
fn report_stage_rows_and_hub_agree_on_every_shared_count() {
    let bm = benchmark();
    let detector = trained(bm);
    let dir = temp_path("agreement");
    std::fs::create_dir_all(&dir).expect("work dir");
    let base = ScanConfig {
        tile_cores: 6,
        max_in_flight: 3,
        ..Default::default()
    };

    // Cold and warm through the tile cache.
    let cached = ScanConfig {
        cache: Some(dir.join("tiles.cache")),
        ..base.clone()
    };
    let cold = scan_and_check_agreement(detector, &cached, "cold");
    assert!(cold.cache_misses > 0 && cold.cache_hits == 0);
    let warm = scan_and_check_agreement(detector, &cached, "warm");
    assert!(warm.cache_hits > 0 && warm.cache_misses == 0);
    assert_eq!(warm.digest(), cold.digest());

    // Resumed from a cache cut to its header plus half of its entries.
    let cache = dir.join("tiles.cache");
    let bytes = std::fs::read(&cache).expect("cache bytes");
    let ends: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert!(ends.len() > 2, "cache holds several entries");
    std::fs::write(&cache, &bytes[..ends[ends.len() / 2]]).expect("cut cache");
    let report = scan_and_check_agreement(detector, &cached, "resumed");
    assert!(report.cache_hits > 0 && report.cache_misses > 0);
    assert_eq!(report.digest(), cold.digest());

    // Degraded mode: injected panics quarantine tiles and the scan goes on.
    let degraded = ScanConfig {
        failure_policy: FailurePolicy::SkipAndRecord {
            max_failed_tiles: usize::MAX,
        },
        fault_plan: FaultPlan {
            seed: 7,
            panic_per_mille: 300,
            ..Default::default()
        },
        ..base.clone()
    };
    let report = scan_and_check_agreement(detector, &degraded, "skip-and-record");
    assert!(
        !report.failed_tiles.is_empty(),
        "the plan quarantines tiles"
    );

    // Aborted mid-batch: every tile stalls far past the deadline, so the
    // stop drops the first batch's tiles inside their bodies.
    let aborted = ScanConfig {
        deadline: Some(Duration::from_millis(300)),
        fault_plan: FaultPlan {
            stall_per_mille: 1000,
            stall_ms: 1000,
            site: FaultSite::Prefilter,
            ..Default::default()
        },
        ..base
    };
    let report = scan_and_check_agreement(detector, &aborted, "aborted");
    assert_eq!(report.aborted, Some(AbortReason::DeadlineExceeded));
    std::fs::remove_dir_all(&dir).ok();
}

/// The NDJSON event log of one default scan of the benchmark, as bytes.
fn valid_event_log() -> &'static [u8] {
    static LOG: OnceLock<Vec<u8>> = OnceLock::new();
    LOG.get_or_init(|| {
        let bm = benchmark();
        let events = temp_path("fuzz_source.ndjson");
        let hub = ObsHub::new();
        hub.register(Box::new(NdjsonSink::create(&events).expect("event log")));
        trained(bm)
            .clone()
            .with_obs(hub)
            .scan_layout(&bm.layout, bm.layer, &ScanConfig::default())
            .expect("scan");
        let bytes = std::fs::read(&events).expect("read event log");
        std::fs::remove_file(&events).ok();
        assert!(read_events_from(&bytes).is_ok(), "the source log is valid");
        bytes
    })
}

/// `read_events` over `bytes` written to a scratch file.
fn read_events_from(bytes: &[u8]) -> std::io::Result<Vec<hotspot_suite::core::ObsRecord>> {
    let path = temp_path(&format!("fuzz_{:?}.ndjson", std::thread::current().id()));
    std::fs::write(&path, bytes).expect("write mutated log");
    let result = read_events(&path);
    std::fs::remove_file(&path).ok();
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A corrupted event log is read or rejected as `InvalidData`, never a
    /// panic: truncation at any byte, flipped bytes, non-UTF-8 bytes and
    /// events of a kind the reader does not know.
    #[test]
    fn corrupted_event_logs_are_read_or_rejected_as_invalid_data(
        kind in 0u8..4,
        at in 0usize..1 << 20,
        flips in proptest::collection::vec((0usize..1 << 20, 1u16..256), 1..6),
        high in 0x80u16..0x100,
    ) {
        let mut log = valid_event_log().to_vec();
        let at = at % (log.len() + 1);
        match kind {
            0 => log.truncate(at),
            1 => {
                for (pos, mask) in flips {
                    let pos = pos % log.len();
                    log[pos] ^= mask as u8;
                }
            }
            2 => log.insert(at, high as u8),
            _ => {
                // An unknown event kind on a line of its own, between two
                // records.
                let line_start = log[..at].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let unknown = format!(
                    "{{\"v\":{OBS_SCHEMA_VERSION},\"seq\":7,\"event\":{{\"NoSuchEvent\":{{\"n\":1}}}}}}\n"
                );
                log.splice(line_start..line_start, unknown.into_bytes());
            }
        }
        if let Err(e) = read_events_from(&log) {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e);
        }
    }
}

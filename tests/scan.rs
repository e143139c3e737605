//! Streaming-scan integration tests: the tiled `scan_layout` must report
//! exactly the hotspot set of sequential whole-layout evaluation (the
//! test-side oracle in `support`) for any tile size and in-flight window,
//! and it must respect its configured memory bound.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::engine::StageId;
use hotspot_suite::core::scan::MAX_SCAN_TILES;
use hotspot_suite::core::{DetectError, HotspotDetector, ScanConfig};
use hotspot_suite::geom::Rect;
use hotspot_suite::layout::{gdsii, ClipShape, LayerId, Layout};
use std::sync::OnceLock;

mod support;

fn benchmark() -> &'static Benchmark {
    static BM: OnceLock<Benchmark> = OnceLock::new();
    BM.get_or_init(|| {
        Benchmark::generate(BenchmarkSpec {
            name: "scan-test".into(),
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

#[test]
fn scan_reports_the_same_hotspots_as_the_whole_layout_oracle() {
    let bm = benchmark();
    let detector = trained(bm);
    let reference = support::whole_layout_reference(detector, &bm.layout, bm.layer);
    assert!(
        !reference.reported.is_empty(),
        "the oracle reports hotspots"
    );

    // The conservative prefilter only drops tiles whose clips the
    // distribution filter would reject, so surviving-clip counts match
    // whole-layout extraction exactly.
    for (tile_cores, max_in_flight) in [(2, 1), (4, 3), (16, 0), (64, 2)] {
        let scan = ScanConfig {
            tile_cores,
            max_in_flight,
            tile_density: None,
            ..Default::default()
        };
        let report = detector
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("scan");
        reference.assert_matches(
            &report,
            &format!("tile_cores={tile_cores} max_in_flight={max_in_flight}"),
        );
    }
    let report = detector.detect(&bm.layout, bm.layer).expect("detect");
    reference.assert_matches(&report, "detect");
}

#[test]
fn scan_holds_at_most_the_configured_window() {
    let bm = benchmark();
    let detector = trained(bm);
    let scan = ScanConfig {
        tile_cores: 2,
        max_in_flight: 2,
        tile_density: None,
        ..Default::default()
    };
    let report = detector
        .scan_layout(&bm.layout, bm.layer, &scan)
        .expect("scan");
    assert!(
        report.tiles_scanned > scan.max_in_flight,
        "layout too small to exercise the window ({} tiles)",
        report.tiles_scanned
    );
    assert!(report.peak_in_flight >= 1);
    assert!(
        report.peak_in_flight <= scan.max_in_flight,
        "peak {} exceeds the {}-tile window",
        report.peak_in_flight,
        scan.max_in_flight
    );
}

#[test]
fn scan_accounts_for_every_tile() {
    let bm = benchmark();
    let detector = trained(bm);
    let report = detector
        .scan_layout(&bm.layout, bm.layer, &ScanConfig::default())
        .expect("scan");
    assert!(report.tiles_scanned <= report.tiles_total);
    assert!(report.tiles_prefiltered <= report.tiles_scanned);
    assert!(report.clips_flagged <= report.clips_extracted);

    let t = &report.telemetry;
    assert_eq!(t.phase, "scan");
    let prefilter = t.stage(StageId::DensityPrefilter).expect("prefilter stage");
    assert_eq!(prefilter.items_in, report.tiles_scanned);
    assert_eq!(
        prefilter.items_out,
        report.tiles_scanned - report.tiles_prefiltered
    );
    let eval = t.stage(StageId::KernelEvaluation).expect("eval stage");
    assert_eq!(eval.items_in, report.clips_extracted);
}

#[test]
fn aggressive_tile_density_filters_everything_at_full_coverage() {
    let bm = benchmark();
    let detector = trained(bm);
    let scan = ScanConfig {
        tile_density: Some(1.0),
        ..Default::default()
    };
    let report = detector
        .scan_layout(&bm.layout, bm.layer, &scan)
        .expect("scan");
    // No realistic tile window is 100% covered by patterns: every tile is
    // prefiltered and nothing is reported.
    assert_eq!(report.tiles_prefiltered, report.tiles_scanned);
    assert_eq!(report.clips_extracted, 0);
    assert!(report.reported.is_empty());
}

#[test]
fn scan_rejects_bad_inputs() {
    let bm = benchmark();
    let detector = trained(bm);
    let bad = ScanConfig {
        tile_cores: 0,
        ..Default::default()
    };
    assert!(matches!(
        detector.scan_layout(&bm.layout, bm.layer, &bad),
        Err(DetectError::Config(_))
    ));
    // A stride that overflows `i64` (here to exactly 1,200 nm when
    // wrapped) is a configuration error, not a silently different tiling.
    let overflowing = ScanConfig {
        tile_cores: (1 << 60) + 1,
        ..Default::default()
    };
    assert!(matches!(
        detector.scan_layout(&bm.layout, bm.layer, &overflowing),
        Err(DetectError::Config(_))
    ));
    let empty = Layout::new("empty");
    assert!(matches!(
        detector.scan_layout(&empty, LayerId::METAL1, &ScanConfig::default()),
        Err(DetectError::EmptyLayer(_))
    ));
}

#[test]
fn scan_rejects_extents_spanning_the_gdsii_coordinate_range() {
    // One boundary over the full `i32` range, and two 1 um squares at its
    // opposite corners: both once aborted or ran for minutes building and
    // walking a grid of ~5 × 10^10 tiles.
    let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
    let mut full = Layout::new("full");
    full.add_rect(LayerId::METAL1, Rect::from_extents(lo, lo, hi, hi));
    let mut corners = Layout::new("corners");
    corners.add_rect(
        LayerId::METAL1,
        Rect::from_extents(lo, lo, lo + 1000, lo + 1000),
    );
    corners.add_rect(
        LayerId::METAL1,
        Rect::from_extents(hi - 1000, hi - 1000, hi, hi),
    );
    let detector = trained(benchmark());
    for layout in [full, corners] {
        let bytes = gdsii::write_bytes(&layout).expect("serialise");
        let layout = gdsii::read_bytes(&bytes).expect("parse");
        for report in [
            detector.scan_layout(&layout, LayerId::METAL1, &ScanConfig::default()),
            detector.detect(&layout, LayerId::METAL1),
        ] {
            match report {
                Err(DetectError::ExtentTooLarge { tiles, .. }) => {
                    assert!(tiles > MAX_SCAN_TILES, "{tiles} tiles");
                }
                other => panic!("{}: expected ExtentTooLarge, got {other:?}", layout.name()),
            }
        }
    }
}

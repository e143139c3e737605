//! Cross-crate integration tests: benchmark generation → training →
//! detection → scoring, on a small but realistic workload.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::{DetectorConfig, HotspotDetector};
use hotspot_suite::layout::ClipShape;

fn small_benchmark(seed: u64) -> Benchmark {
    Benchmark::generate(BenchmarkSpec {
        name: format!("it_{seed}"),
        process_nm: 32,
        width: 72_000,
        height: 72_000,
        train_hotspots: 16,
        train_nonhotspots: 60,
        test_hotspots: 8,
        seed,
        clip_shape: ClipShape::ICCAD2012,
        oracle: LithoOracle::default(),
        background_fill: 0.5,
        ambit_filler: true,
    })
}

#[test]
fn framework_reaches_high_accuracy() {
    let bm = small_benchmark(11);
    let detector =
        HotspotDetector::train(&bm.training, DetectorConfig::default()).expect("training succeeds");
    let report = detector.detect(&bm.layout, bm.layer).expect("evaluation");
    let eval = report.score_against(&bm.actual, 0.2, bm.area_um2());
    assert!(
        eval.accuracy() >= 0.75,
        "accuracy {:.2}% below floor ({} / {} hits, {} extras)",
        eval.accuracy() * 100.0,
        eval.hits,
        eval.actual,
        eval.extras
    );
    // The secondary objective stays sane: extras bounded by the clip count.
    assert!(eval.extras <= report.clips_extracted);
}

#[test]
fn detection_is_deterministic_across_runs() {
    let bm = small_benchmark(12);
    let run = || {
        let detector = HotspotDetector::train(
            &bm.training,
            DetectorConfig {
                threads: 2,
                ..Default::default()
            },
        )
        .expect("training succeeds");
        detector
            .detect(&bm.layout, bm.layer)
            .expect("evaluation")
            .reported
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_and_sequential_agree_end_to_end() {
    let bm = small_benchmark(13);
    let seq = HotspotDetector::train(
        &bm.training,
        DetectorConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("sequential training");
    let par = HotspotDetector::train(
        &bm.training,
        DetectorConfig {
            threads: 4,
            ..Default::default()
        },
    )
    .expect("parallel training");
    let a = seq.detect(&bm.layout, bm.layer).expect("evaluation");
    let b = par.detect(&bm.layout, bm.layer).expect("evaluation");
    assert_eq!(a.reported, b.reported);
    assert_eq!(a.clips_extracted, b.clips_extracted);
    assert_eq!(a.clips_flagged, b.clips_flagged);
}

#[test]
fn gdsii_roundtrip_preserves_detection() {
    // Writing the testing layout through the GDSII codec must not change
    // the detector's output.
    let bm = small_benchmark(14);
    let detector =
        HotspotDetector::train(&bm.training, DetectorConfig::default()).expect("training succeeds");
    let bytes = hotspot_suite::layout::gdsii::write_bytes(&bm.layout).expect("serialise");
    let restored = hotspot_suite::layout::gdsii::read_bytes(&bytes).expect("parse");
    let a = detector.detect(&bm.layout, bm.layer).expect("evaluation");
    let b = detector.detect(&restored, bm.layer).expect("evaluation");
    assert_eq!(a.reported, b.reported);
}

#[test]
fn raising_threshold_never_raises_flag_count() {
    let bm = small_benchmark(15);
    let detector =
        HotspotDetector::train(&bm.training, DetectorConfig::default()).expect("training succeeds");
    let mut last = usize::MAX;
    for threshold in [-0.5, 0.0, 0.5, 1.0, 2.0] {
        let report = detector
            .clone()
            .with_decision_threshold(threshold)
            .detect(&bm.layout, bm.layer)
            .expect("evaluation");
        assert!(
            report.clips_flagged <= last,
            "flag count rose from {last} at threshold {threshold}"
        );
        last = report.clips_flagged;
    }
}

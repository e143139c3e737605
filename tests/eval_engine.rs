//! Clip-evaluation integration tests: the compiled engines (admission
//! router plus flattened SVMs) must report exactly what the naive
//! per-kernel oracle in `support` reports — flags, reclaims, reported
//! windows and admission counts — for `detect` and `scan_layout` alike, at
//! any worker-thread count, and after a serde round trip (which drops the
//! compiled cache and forces a lazy re-compile).

use hotspot_suite::benchgen::{iccad_suite, Benchmark, BenchmarkSpec, LithoOracle, SuiteScale};
use hotspot_suite::core::engine::StageId;
use hotspot_suite::core::{HotspotDetector, ScanConfig};
use hotspot_suite::layout::ClipShape;
use std::sync::OnceLock;

mod support;

fn benchmark() -> &'static Benchmark {
    static BM: OnceLock<Benchmark> = OnceLock::new();
    BM.get_or_init(|| {
        Benchmark::generate(BenchmarkSpec {
            name: "eval-engine-test".into(),
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
        HotspotDetector::builder()
            .threads(2)
            .train(&bm.training)
            .expect("training")
    })
}

#[test]
fn compiled_detect_matches_reference_across_thread_counts() {
    let bm = benchmark();
    assert_engines_match_across_thread_counts(bm, trained(bm));

    // Workers race to memoise the repeated clip cores of an array layout;
    // whichever evaluation lands first, nothing may move.
    let spec = iccad_suite(SuiteScale::Tiny)
        .into_iter()
        .find(|s| s.name == "array_benchmark1")
        .expect("suite benchmark");
    let array = Benchmark::generate(spec);
    let detector = HotspotDetector::builder()
        .threads(2)
        .train(&array.training)
        .expect("training");
    assert_engines_match_across_thread_counts(&array, &detector);
}

fn assert_engines_match_across_thread_counts(bm: &Benchmark, base: &HotspotDetector) {
    let oracle = support::whole_layout_reference(base, &bm.layout, bm.layer);
    let name = &bm.spec.name;

    let mut skips = None;
    for threads in [1, 2, 4] {
        let report = base
            .clone()
            .with_threads(threads)
            .detect(&bm.layout, bm.layer)
            .expect("detect");
        oracle.assert_matches(&report, &format!("{name}, {threads} threads"));

        // Every tile with clips was evaluated as one batch.
        assert!(report.eval_batches >= 1, "no eval batches recorded");
        assert!(report.eval_batches <= report.clips_extracted);
        let stage = report
            .telemetry
            .stage(StageId::KernelEvaluation)
            .expect("eval stage");
        assert_eq!(stage.batches, report.eval_batches);
        assert_eq!(stage.items_in, report.clips_extracted);
        assert!(
            stage.admissions >= report.clips_flagged as u64,
            "every flag requires an admission"
        );

        // Memo hits replay their pruned-row counts, so the counter does not
        // depend on which worker evaluated a repeated core first.
        assert_eq!(
            *skips.get_or_insert(stage.admission_skips),
            stage.admission_skips,
            "{name}: admission skips changed at {threads} threads"
        );
    }
}

#[test]
fn compiled_scan_matches_reference_engine() {
    let bm = benchmark();
    let detector = trained(bm);
    let oracle = support::whole_layout_reference(detector, &bm.layout, bm.layer);
    let scan = ScanConfig {
        tile_cores: 4,
        max_in_flight: 2,
        tile_density: None,
        ..Default::default()
    };

    for threads in [1, 2, 4] {
        let report = detector
            .clone()
            .with_threads(threads)
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("scan");
        oracle.assert_matches(&report, &format!("scan at {threads} threads"));
        assert!(report.eval_batches >= 1, "no eval batches recorded");
    }
}

#[test]
fn classify_agrees_between_engines() {
    let bm = benchmark();
    let detector = trained(bm);
    let threshold = detector.config().decision_threshold;

    for pattern in bm.training.hotspots.iter().chain(&bm.training.nonhotspots) {
        assert_eq!(
            detector.classify(pattern),
            support::evaluate_clip(detector, pattern, threshold).is_hotspot(),
            "engines disagree on a training clip"
        );
        for threshold in [-0.5, 0.0, 0.5] {
            assert_eq!(
                detector.classify_with_threshold(pattern, threshold),
                support::evaluate_clip(detector, pattern, threshold).is_hotspot(),
                "engines disagree at threshold {threshold}"
            );
        }
    }
}

#[test]
fn deserialised_detector_recompiles_and_matches() {
    let bm = benchmark();
    let detector = trained(bm);
    let oracle = support::whole_layout_reference(detector, &bm.layout, bm.layer);

    // The compiled cache is #[serde(skip)]: a round-tripped detector must
    // rebuild it lazily and flag the identical set.
    let json = serde_json::to_string(detector).expect("serialise detector");
    let revived: HotspotDetector = serde_json::from_str(&json).expect("deserialise detector");
    let report = revived
        .with_threads(2)
        .detect(&bm.layout, bm.layer)
        .expect("detect after round trip");
    oracle.assert_matches(&report, "after a serde round trip");
}

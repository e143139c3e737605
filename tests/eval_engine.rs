//! Batched-inference integration tests: the compiled SVM engine must
//! report exactly the hotspot set of the per-support-vector reference
//! path, for `detect` and `scan_layout` alike, at any worker-thread
//! count, and after a serde round trip (which drops the compiled cache
//! and forces a lazy re-compile). `detect` is pinned to the sequential
//! whole-layout oracle in `support` as well.

use hotspot_suite::benchgen::{iccad_suite, Benchmark, BenchmarkSpec, LithoOracle, SuiteScale};
use hotspot_suite::core::engine::StageId;
use hotspot_suite::core::{EvalMode, HotspotDetector, ScanConfig};
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

    let mut counters = None;
    for threads in [1, 2, 4] {
        let compiled = base
            .clone()
            .with_threads(threads)
            .detect(&bm.layout, bm.layer)
            .expect("compiled detect");
        let reference = base
            .clone()
            .with_threads(threads)
            .with_eval_mode(EvalMode::Reference)
            .detect(&bm.layout, bm.layer)
            .expect("reference detect");

        oracle.assert_matches(&compiled, &format!("{name} compiled, {threads} threads"));
        oracle.assert_matches(&reference, &format!("{name} reference, {threads} threads"));

        // Every tile with clips was evaluated as one batch.
        assert!(compiled.eval_batches >= 1, "no eval batches recorded");
        assert!(compiled.eval_batches <= compiled.clips_extracted);
        let stage = compiled
            .telemetry
            .stage(StageId::KernelEvaluation)
            .expect("eval stage");
        assert_eq!(stage.batches, compiled.eval_batches);
        assert_eq!(stage.items_in, compiled.clips_extracted);

        // Admission accounting: both modes admit the identical clip-kernel
        // pairs; only the compiled router records pruned rows, and the
        // reference path never prunes.
        let ref_stage = reference
            .telemetry
            .stage(StageId::KernelEvaluation)
            .expect("reference eval stage");
        assert_eq!(stage.admissions, ref_stage.admissions);
        assert!(
            stage.admissions >= compiled.clips_flagged as u64,
            "every flag requires an admission"
        );
        assert_eq!(ref_stage.admission_skips, 0, "reference path never prunes");

        // Memo hits replay their admission counts, so the counters do not
        // depend on which worker evaluated a repeated core first.
        let now = (stage.admissions, stage.admission_skips);
        assert_eq!(
            *counters.get_or_insert(now),
            now,
            "{name}: admission counters changed at {threads} threads"
        );
    }
}

#[test]
fn compiled_scan_matches_reference_engine() {
    let bm = benchmark();
    let detector = trained(bm);
    let scan = ScanConfig {
        tile_cores: 4,
        max_in_flight: 2,
        tile_density: None,
        ..Default::default()
    };

    let mut reported = None;
    for threads in [1, 2, 4] {
        let compiled = detector
            .clone()
            .with_threads(threads)
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("compiled scan");
        let reference = detector
            .clone()
            .with_threads(threads)
            .with_eval_mode(EvalMode::Reference)
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("reference scan");

        assert_eq!(
            compiled.reported, reference.reported,
            "scan engines disagree at {threads} threads"
        );
        assert_eq!(compiled.clips_extracted, reference.clips_extracted);
        assert_eq!(compiled.clips_flagged, reference.clips_flagged);
        assert!(compiled.eval_batches >= 1, "no eval batches recorded");

        // The flagged set is pinned across thread counts in both modes.
        match &reported {
            None => reported = Some(compiled.reported.clone()),
            Some(first) => assert_eq!(
                &compiled.reported, first,
                "scan flagged set changed between thread counts"
            ),
        }
    }
}

#[test]
fn classify_agrees_between_engines() {
    let bm = benchmark();
    let detector = trained(bm);
    let reference = detector.clone().with_eval_mode(EvalMode::Reference);

    for pattern in bm.training.hotspots.iter().chain(&bm.training.nonhotspots) {
        assert_eq!(
            detector.classify(pattern),
            reference.classify(pattern),
            "engines disagree on a training clip"
        );
        for threshold in [-0.5, 0.0, 0.5] {
            assert_eq!(
                detector.classify_with_threshold(pattern, threshold),
                reference.classify_with_threshold(pattern, threshold),
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

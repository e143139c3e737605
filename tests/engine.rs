//! Engine-level integration tests: training determinism across thread
//! counts (the executor and speculative `(C, γ)` rounds must
//! not change the model), detection against the whole-layout oracle in
//! `support` at every thread count, and telemetry serialisation.

use hotspot_suite::benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_suite::core::{DetectorConfig, HotspotDetector, PipelineTelemetry};

mod support;

fn fixed_seed_benchmark() -> Benchmark {
    // Benchmark 2 of the tiny fixed-seed suite: enough clusters that
    // kernel training actually fans out across workers.
    Benchmark::generate(iccad_suite(SuiteScale::Tiny).remove(1))
}

fn train_at(bm: &Benchmark, threads: usize) -> HotspotDetector {
    HotspotDetector::train(
        &bm.training,
        DetectorConfig {
            threads,
            ..Default::default()
        },
    )
    .expect("training")
}

#[test]
fn training_is_deterministic_across_thread_counts() {
    let bm = fixed_seed_benchmark();
    // Compare the serialised kernels and feedback model: every SVM weight,
    // Platt coefficient, and cluster assignment must be bit-identical.
    // (Telemetry and the thread count legitimately differ between runs, so
    // the full model JSON is not compared.)
    let fingerprint = |d: &HotspotDetector| {
        (
            serde_json::to_string(&d.kernels()).expect("kernels"),
            serde_json::to_string(&d.feedback()).expect("feedback"),
            d.summary().upsampled_hotspots,
            d.summary().hotspot_clusters,
            d.summary().nonhotspot_medoids,
        )
    };
    let want = fingerprint(&train_at(&bm, 1));
    for threads in [2, 4] {
        let got = fingerprint(&train_at(&bm, threads));
        assert_eq!(got, want, "model diverged at {threads} threads");
    }
}

#[test]
fn detection_reports_agree_across_thread_counts() {
    let bm = fixed_seed_benchmark();
    let sequential = train_at(&bm, 1);
    let oracle = support::whole_layout_reference(&sequential, &bm.layout, bm.layer);
    let report = sequential.detect(&bm.layout, bm.layer).expect("evaluation");
    oracle.assert_matches(&report, "1 thread");
    for threads in [2, 4] {
        let report = train_at(&bm, threads)
            .detect(&bm.layout, bm.layer)
            .expect("evaluation");
        oracle.assert_matches(&report, &format!("{threads} threads"));
    }
}

#[test]
fn merged_telemetry_round_trips_through_json() {
    let bm = fixed_seed_benchmark();
    let detector = train_at(&bm, 2);
    let report = detector.detect(&bm.layout, bm.layer).expect("evaluation");

    let merged = detector.summary().telemetry.merge(&report.telemetry);
    assert_eq!(merged.stages.len(), 8, "merged record covers all stages");
    assert!(merged.stages.iter().any(|s| s.items_in > 0));

    let json = serde_json::to_string(&merged).expect("serialise");
    let back: PipelineTelemetry = serde_json::from_str(&json).expect("parse");
    assert_eq!(back, merged);

    // The model JSON itself persists the training telemetry, so a later
    // `detect` run can reconstruct the full record.
    let model_json = serde_json::to_string(&detector).expect("serialise model");
    let restored: HotspotDetector = serde_json::from_str(&model_json).expect("parse model");
    assert_eq!(restored.summary().telemetry, detector.summary().telemetry);
}

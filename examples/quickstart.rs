//! Quickstart: generate a small benchmark, train the hotspot-detection
//! framework, evaluate a testing layout, and score the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::{DetectorConfig, HotspotDetector};
use hotspot_suite::layout::ClipShape;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small synthetic benchmark: training clips labelled by the
    //    lithography oracle plus a testing layout with planted hotspots.
    let benchmark = Benchmark::generate(BenchmarkSpec {
        name: "quickstart".into(),
        process_nm: 32,
        width: 96_000, // 96 µm
        height: 96_000,
        train_hotspots: 25,
        train_nonhotspots: 85,
        test_hotspots: 14,
        seed: 7,
        clip_shape: ClipShape::ICCAD2012,
        oracle: LithoOracle::default(),
        background_fill: 0.55,
        ambit_filler: true,
    });
    println!(
        "benchmark: {} training clips ({} hotspots), layout {:.0} um^2, {} planted hotspots",
        benchmark.training.len(),
        benchmark.training.hotspots.len(),
        benchmark.area_um2(),
        benchmark.actual.len()
    );

    // 2. Train the full framework of the paper: topological classification,
    //    population balancing, per-cluster SVM kernels with iterative
    //    (C, γ) learning, and the feedback kernel. The default config holds
    //    the paper's settings (one worker per core); `train` validates it
    //    before training starts.
    let detector = HotspotDetector::train(&benchmark.training, DetectorConfig::default())?;
    let summary = detector.summary();
    println!(
        "trained {} kernels from {} upsampled hotspots / {} nonhotspot medoids (feedback: {})",
        detector.kernels().len(),
        summary.upsampled_hotspots,
        summary.nonhotspot_medoids,
        summary.feedback_trained
    );

    // 3. Evaluate the testing layout: density-filtered clip extraction,
    //    multiple-kernel + feedback evaluation, redundant clip removal.
    let report = detector.detect(&benchmark.layout, benchmark.layer)?;
    println!(
        "evaluated {} clips, flagged {}, reported {} hotspots in {:.2?}",
        report.clips_extracted,
        report.clips_flagged,
        report.reported.len(),
        report.scan_time
    );

    // The merged telemetry covers all eight pipeline stages.
    let telemetry = detector.summary().telemetry.merge(&report.telemetry);
    println!("{}", telemetry.breakdown());

    // 4. Score against the ground truth with the contest's hit rule.
    let eval = report.score_against(&benchmark.actual, 0.2, benchmark.area_um2());
    println!("{eval}");
    println!("false alarm: {:.4} extras/um^2", eval.false_alarm());
    Ok(())
}

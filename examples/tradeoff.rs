//! Sweep the decision threshold on one benchmark to trace the paper's
//! Fig. 15 accuracy/false-alarm trade-off for a single design.
//!
//! ```sh
//! cargo run --release --example tradeoff
//! ```

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::{DetectorConfig, HotspotDetector};
use hotspot_suite::layout::ClipShape;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = Benchmark::generate(BenchmarkSpec {
        name: "tradeoff".into(),
        process_nm: 28,
        width: 120_000,
        height: 120_000,
        train_hotspots: 30,
        train_nonhotspots: 120,
        test_hotspots: 20,
        seed: 21,
        clip_shape: ClipShape::ICCAD2012,
        oracle: LithoOracle::default(),
        background_fill: 0.55,
        ambit_filler: true,
    });

    // The feedback kernel is trained once, at the default threshold; each
    // operating point only moves the evaluation threshold.
    let detector = HotspotDetector::train(&benchmark.training, DetectorConfig::default())?;

    println!(
        "{:>10} {:>9} {:>7} {:>8} {:>11}",
        "threshold", "hit rate", "#hit", "#extra", "hit/extra"
    );
    for threshold in [-0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2] {
        let report = detector
            .clone()
            .with_decision_threshold(threshold)
            .detect(&benchmark.layout, benchmark.layer)?;
        let eval = report.score_against(&benchmark.actual, 0.2, benchmark.area_um2());
        println!(
            "{:>10.2} {:>8.2}% {:>7} {:>8} {:>11.3e}",
            threshold,
            eval.accuracy() * 100.0,
            eval.hits,
            eval.extras,
            eval.hit_extra_ratio()
        );
    }
    Ok(())
}

//! Regenerates Fig. 15: the trade-off between accuracy (hit rate) and
//! false alarm (extra count) as the decision threshold sweeps.
//!
//! As in the paper, the training data pools 5 % of every benchmark's
//! training set and the testing layout pools the testing benchmarks
//! (we evaluate each and sum the scores).

use hotspot_bench::{generate_suite, print_header, scale_from_env, subsample_training};
use hotspot_core::{DetectorConfig, HotspotDetector, TrainingSet};

fn main() {
    let scale = scale_from_env();
    print_header("Fig. 15 — accuracy vs false-alarm trade-off", scale);

    let suite = generate_suite(scale);
    // Pool 5 % of every training set.
    let mut pooled = TrainingSet::new();
    for bm in &suite {
        let s = subsample_training(&bm.training, 0.05);
        pooled.hotspots.extend(s.hotspots);
        pooled.nonhotspots.extend(s.nonhotspots);
    }
    println!(
        "pooled training: {} hotspots, {} nonhotspots",
        pooled.hotspots.len(),
        pooled.nonhotspots.len()
    );

    let detector =
        HotspotDetector::train(&pooled, DetectorConfig::default()).expect("pooled training");

    println!(
        "{:>10} {:>9} {:>7} {:>8}",
        "threshold", "hit rate", "#hit", "#extra"
    );
    for threshold in [
        -0.4, -0.2, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    ] {
        let at = detector.clone().with_decision_threshold(threshold);
        let mut hits = 0usize;
        let mut actual = 0usize;
        let mut extras = 0usize;
        for bm in &suite {
            let report = at.detect(&bm.layout, bm.layer).expect("evaluation");
            let eval = report.score_against(&bm.actual, 0.2, bm.area_um2());
            hits += eval.hits;
            actual += eval.actual;
            extras += eval.extras;
        }
        println!(
            "{:>10.2} {:>8.2}% {:>7} {:>8}",
            threshold,
            100.0 * hits as f64 / actual.max(1) as f64,
            hits,
            extras
        );
    }
}

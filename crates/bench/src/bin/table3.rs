//! Regenerates Table III: the ablation over the framework's stages —
//! Basic (single huge kernel), +Topology, +Removal, and the full framework
//! (feedback kernel included) — plus the #hs/#nhs balance ratio.

use hotspot_bench::{
    generate_suite, print_breakdown, print_header, run_basic, run_ours, scale_from_env,
};
use hotspot_core::{AblationSwitches, DetectorConfig, HotspotDetector};

fn main() {
    let scale = scale_from_env();
    print_header("Table III — stage-by-stage ablation", scale);
    println!(
        "{:<22} {:<12} {:>8} {:>5} {:>7} {:>9} {:>9}",
        "benchmark", "method", "hs/nhs", "#hit", "#extra", "accuracy", "runtime"
    );
    for bm in generate_suite(scale) {
        // The balance ratio after resampling, from a full training run.
        let probe =
            HotspotDetector::train(&bm.training, DetectorConfig::default()).expect("training");
        let ratio = probe.summary().balance_ratio();
        let raw_ratio =
            bm.training.hotspots.len() as f64 / bm.training.nonhotspots.len().max(1) as f64;

        let rows = vec![
            (
                format!("{raw_ratio:.2}"),
                run_basic(&bm, DetectorConfig::default()),
            ),
            (
                format!("{ratio:.2}"),
                run_ours(
                    &bm,
                    DetectorConfig {
                        ablation: AblationSwitches {
                            topology: true,
                            removal: false,
                            feedback: false,
                        },
                        ..Default::default()
                    },
                    "+topology",
                ),
            ),
            (
                format!("{ratio:.2}"),
                run_ours(
                    &bm,
                    DetectorConfig {
                        ablation: AblationSwitches {
                            topology: true,
                            removal: true,
                            feedback: false,
                        },
                        ..Default::default()
                    },
                    "+removal",
                ),
            ),
            (
                format!("{ratio:.2}"),
                run_ours(&bm, DetectorConfig::default(), "ours"),
            ),
        ];
        for (ratio, r) in &rows {
            println!(
                "{:<22} {:<12} {:>8} {:>5} {:>7} {:>8.2}% {:>8.1}s",
                bm.spec.name,
                r.method,
                ratio,
                r.eval.hits,
                r.eval.extras,
                r.eval.accuracy() * 100.0,
                r.eval.runtime.as_secs_f64(),
            );
        }
        // Per-stage breakdown of the full framework row.
        print_breakdown(&rows[rows.len() - 1].1);
        println!();
    }
}

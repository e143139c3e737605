//! Regenerates Table II: comparison of our framework (at three operating
//! points, with and without multithreading) against the fuzzy
//! pattern-matching contest-winner proxy.

use hotspot_bench::{
    generate_suite, print_breakdown, print_header, run_matcher, run_ours, scale_from_env,
};
use hotspot_core::DetectorConfig;

fn main() {
    let scale = scale_from_env();
    print_header("Table II — comparison with the contest-winner proxy", scale);
    println!(
        "{:<22} {:<12} {:>5} {:>7} {:>9} {:>10} {:>9}",
        "benchmark", "method", "#hit", "#extra", "accuracy", "hit/extra", "runtime"
    );
    for bm in generate_suite(scale) {
        let base = DetectorConfig::default();
        // Table II's operating points differ only in the decision
        // threshold: `ours_med` trades hits for a medium hit/extra ratio,
        // `ours_low` for a high one.
        let at = |decision_threshold| DetectorConfig {
            decision_threshold,
            ..base.clone()
        };
        let rows = vec![
            run_matcher(&bm, base.clone()),
            run_ours(&bm, base.clone(), "ours"),
            run_ours(&bm, at(0.3), "ours_med"),
            run_ours(&bm, at(0.6), "ours_low"),
            run_ours(
                &bm,
                DetectorConfig {
                    threads: 1,
                    ..base.clone()
                },
                "ours_nopara",
            ),
        ];
        for r in &rows {
            println!("{:<22} {}", bm.spec.name, r.row());
        }
        // Per-stage breakdown of the full framework at the default
        // operating point.
        print_breakdown(&rows[1]);
        println!();
    }
}

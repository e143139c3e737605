//! Regenerates Table IV: accuracy as a function of the training-data
//! fraction (the paper's rapid-convergence experiment).

use hotspot_bench::{generate_suite, print_header, run_ours, scale_from_env, subsample_training};
use hotspot_core::DetectorConfig;

fn main() {
    let scale = scale_from_env();
    print_header("Table IV — accuracy vs training-data fraction", scale);
    println!(
        "{:<22} {:>7} {:>5} {:>7} {:>9} {:>9}",
        "benchmark", "data", "#hit", "#extra", "accuracy", "runtime"
    );
    for bm in generate_suite(scale) {
        for fraction in [1.0, 0.65, 0.25, 0.10, 0.05] {
            let mut sub = bm.clone();
            sub.training = subsample_training(&bm.training, fraction);
            let r = run_ours(&sub, DetectorConfig::default(), "ours");
            println!(
                "{:<22} {:>6.0}% {:>5} {:>7} {:>8.2}% {:>8.1}s",
                bm.spec.name,
                fraction * 100.0,
                r.eval.hits,
                r.eval.extras,
                r.eval.accuracy() * 100.0,
                r.eval.runtime.as_secs_f64(),
            );
        }
        println!();
    }
}

//! Shared harness code for the experiment binaries (`table1`–`table5`,
//! `fig15`) that regenerate the paper's evaluation tables and figure.
//! Performance claims are measured end to end by `e2ebench` (see
//! `e2ebench/README.md`), not here.
//!
//! Scale selection: set `HOTSPOT_SCALE=tiny|small|medium|paper|huge`
//! (default `small`). `EXPERIMENTS.md` documents how the scaled suite maps
//! to Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hotspot_benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_core::{DetectorConfig, Evaluation, HotspotDetector, PipelineTelemetry, TrainingSet};
use std::time::{Duration, Instant};

/// One table row: a method evaluated on a benchmark.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label (e.g. `ours`, `ours_med`, `1st-proxy`, `basic`).
    pub method: String,
    /// The scored evaluation.
    pub eval: Evaluation,
    /// Training wall-clock time.
    pub train_time: Duration,
    /// Candidate clip count evaluated.
    pub clips: usize,
    /// Merged training + evaluation telemetry (framework methods only).
    pub telemetry: Option<PipelineTelemetry>,
}

impl MethodResult {
    /// Formats the row like Table II: `#hit #extra accuracy hit/extra
    /// runtime`. Runtimes have millisecond resolution, so tiny-scale runs
    /// do not all read zero.
    pub fn row(&self) -> String {
        format!(
            "{:<12} {:>5} {:>7} {:>8.2}% {:>10.3e} {:>8.3}s (train {:>7.3}s, {} clips)",
            self.method,
            self.eval.hits,
            self.eval.extras,
            self.eval.accuracy() * 100.0,
            self.eval.hit_extra_ratio(),
            self.eval.runtime.as_secs_f64(),
            self.train_time.as_secs_f64(),
            self.clips,
        )
    }
}

/// Reads the suite scale from `HOTSPOT_SCALE` (default: `small`).
pub fn scale_from_env() -> SuiteScale {
    std::env::var("HOTSPOT_SCALE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(SuiteScale::Small)
}

/// Generates the whole suite at the chosen scale. The blind benchmark
/// (`mx_blind_partial`) reuses benchmark 1's training set, as in the paper.
pub fn generate_suite(scale: SuiteScale) -> Vec<Benchmark> {
    let mut benchmarks: Vec<Benchmark> = iccad_suite(scale)
        .into_iter()
        .map(Benchmark::generate)
        .collect();
    // Paper: MX_blind_partial is evaluated with MX_benchmark1_clip training.
    if benchmarks.len() == 6 {
        let bm1_training = benchmarks[0].training.clone();
        benchmarks[5].training = bm1_training;
    }
    benchmarks
}

/// Trains and evaluates the full framework at `config`.
pub fn run_ours(benchmark: &Benchmark, config: DetectorConfig, method: &str) -> MethodResult {
    let t0 = Instant::now();
    let detector = HotspotDetector::train(&benchmark.training, config).expect("framework training");
    let train_time = t0.elapsed();
    let report = detector
        .detect(&benchmark.layout, benchmark.layer)
        .expect("framework evaluation");
    let eval = report.score_against(
        &benchmark.actual,
        detector.config().min_hit_clip_overlap,
        benchmark.area_um2(),
    );
    let telemetry = detector.summary().telemetry.merge(&report.telemetry);
    MethodResult {
        method: method.to_string(),
        eval,
        train_time,
        clips: report.clips_extracted,
        telemetry: Some(telemetry),
    }
}

/// Runs the fuzzy pattern-matching baseline (contest-winner proxy).
pub fn run_matcher(benchmark: &Benchmark, config: DetectorConfig) -> MethodResult {
    let t0 = Instant::now();
    let matcher = hotspot_baselines::PatternMatcher::train(&benchmark.training, config.clone());
    let train_time = t0.elapsed();
    let report = matcher.detect(&benchmark.layout, benchmark.layer);
    let eval = hotspot_core::score(
        &report.reported,
        &benchmark.actual,
        config.min_hit_clip_overlap,
        benchmark.area_um2(),
        report.runtime,
    );
    MethodResult {
        method: "1st-proxy".to_string(),
        eval,
        train_time,
        clips: report.clips_extracted,
        telemetry: None,
    }
}

/// Runs the single-kernel "Basic" baseline.
pub fn run_basic(benchmark: &Benchmark, config: DetectorConfig) -> MethodResult {
    let t0 = Instant::now();
    let basic = hotspot_baselines::SingleKernelSvm::train(&benchmark.training, config.clone())
        .expect("basic training");
    let train_time = t0.elapsed();
    let report = basic.detect(&benchmark.layout, benchmark.layer);
    let eval = hotspot_core::score(
        &report.reported,
        &benchmark.actual,
        config.min_hit_clip_overlap,
        benchmark.area_um2(),
        report.runtime,
    );
    MethodResult {
        method: "basic".to_string(),
        eval,
        train_time,
        clips: report.clips_extracted,
        telemetry: None,
    }
}

/// Deterministically subsamples a training set to `fraction` (Table IV).
pub fn subsample_training(training: &TrainingSet, fraction: f64) -> TrainingSet {
    training.subsample(fraction)
}

/// Prints the per-stage telemetry breakdown of a framework run, when one was
/// recorded (indented under its table row).
pub fn print_breakdown(result: &MethodResult) {
    if let Some(t) = &result.telemetry {
        for line in t.breakdown().lines() {
            println!("    {line}");
        }
    }
}

/// Prints a table header naming the experiment.
pub fn print_header(title: &str, scale: SuiteScale) {
    println!("==============================================================");
    println!("{title}   (scale: {scale:?}; see EXPERIMENTS.md for mapping)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
    use hotspot_layout::ClipShape;

    fn tiny_benchmark() -> Benchmark {
        Benchmark::generate(BenchmarkSpec {
            name: "harness".into(),
            process_nm: 32,
            width: 48_000,
            height: 48_000,
            train_hotspots: 10,
            train_nonhotspots: 30,
            test_hotspots: 4,
            seed: 5,
            clip_shape: ClipShape::ICCAD2012,
            oracle: LithoOracle::default(),
            background_fill: 0.5,
            ambit_filler: true,
        })
    }

    #[test]
    fn method_result_row_formats_all_columns() {
        let bm = tiny_benchmark();
        let r = run_ours(&bm, DetectorConfig::default(), "ours");
        let row = r.row();
        assert!(row.contains("ours"), "{row}");
        assert!(row.contains("clips"), "{row}");
        assert!(row.contains('%'), "{row}");
        let runtime = format!("{:.3}s", r.eval.runtime.as_secs_f64());
        assert!(row.contains(&runtime), "{row}");
    }

    #[test]
    fn all_three_method_runners_score() {
        let bm = tiny_benchmark();
        for r in [
            run_ours(&bm, DetectorConfig::default(), "ours"),
            run_matcher(&bm, DetectorConfig::default()),
            run_basic(&bm, DetectorConfig::default()),
        ] {
            assert_eq!(r.eval.actual, bm.actual.len(), "{}", r.method);
            assert!(r.clips > 0, "{}", r.method);
            assert!(r.eval.accuracy() >= 0.0 && r.eval.accuracy() <= 1.0);
        }
    }

    #[test]
    fn suite_generation_wires_blind_training() {
        let suite = generate_suite(SuiteScale::Tiny);
        assert_eq!(suite.len(), 6);
        // The blind benchmark reuses benchmark 1's training set.
        assert_eq!(suite[5].training, suite[0].training);
        assert_ne!(suite[5].layout, suite[0].layout);
    }

    #[test]
    fn subsample_helper_delegates() {
        let bm = tiny_benchmark();
        let half = subsample_training(&bm.training, 0.5);
        assert_eq!(half.hotspots.len(), 5);
    }
}

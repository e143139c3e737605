//! Batched SVM inference benchmark — the clip-evaluation hot loop.
//!
//! For each measured suite scale, trains the framework on benchmark 1 of
//! the suite, extracts every candidate clip of its testing layout, and
//! routes each clip to its admitted kernels once (topology/density
//! admission is identical before and after this engine, so it is
//! precomputed and excluded from the timed region). Three timed passes
//! then run the post-admission hot loop:
//!
//! - **naive** — the pre-engine loop: every admitted kernel re-extracts
//!   the clip's padded feature vector and walks the per-support-vector
//!   `Vec<Vec<f64>>` through [`SvmModel::decision_value`];
//! - **memoized** — features extracted once per clip and shared across
//!   kernels ([`FeatureMemo`]), decisions still on the reference path;
//! - **compiled** — shared features scored through the flattened
//!   [`CompiledModel`] engine on a reusable [`BatchEvaluator`].
//!
//! A fourth pair of passes isolates pure decision values (features fully
//! pre-extracted, reference vs compiled).
//!
//! Schema v2 adds the admission passes over precomputed density grids
//! and topological signatures: **admit-naive** replays the reference
//! per-kernel search (each `DensityGrid::distance` call materialises all
//! eight D8 transforms of the query), while **admit-compiled** routes
//! every clip through the batched [`CentroidRouter`] compiled once per
//! model. A final pair of **full** passes times the admission-included
//! flagging engine ([`EvalEngine::flagging_kernels`]) in both
//! [`EvalMode`]s. Both admission paths must admit the identical
//! clip-kernel pairs; the binary aborts otherwise.
//!
//! Finally `detect` runs end to end on both engines to confirm the
//! flagged hotspot sets are identical and record the kernel-evaluation
//! stage walls. Writes `BENCH_eval.json` (schema in `DESIGN.md`).
//!
//! ```sh
//! cargo run --release -p hotspot-bench --bin eval
//! ```
//!
//! Environment knobs: `HOTSPOT_EVAL_SCALES` (comma-separated suite
//! scales, default `small,medium`), `HOTSPOT_EVAL_REPS` (fixed timed
//! repetitions; default auto-calibrated), `HOTSPOT_EVAL_MIN_SPEEDUP`
//! (exit non-zero when any suite's hot-loop speedup falls below this),
//! `HOTSPOT_EVAL_MIN_ADMIT_SPEEDUP` (same gate for the admission
//! speedup — the CI smoke gate), and `HOTSPOT_BENCH_OUT` (output path,
//! default `BENCH_eval.json`).
//!
//! [`SvmModel::decision_value`]: hotspot_svm::SvmModel::decision_value
//! [`FeatureMemo`]: hotspot_core::training::FeatureMemo
//! [`CompiledModel`]: hotspot_svm::CompiledModel
//! [`BatchEvaluator`]: hotspot_svm::BatchEvaluator
//! [`CentroidRouter`]: hotspot_topo::route::CentroidRouter
//! [`EvalEngine::flagging_kernels`]: hotspot_core::EvalEngine::flagging_kernels
//! [`EvalMode`]: hotspot_core::EvalMode

use hotspot_bench::{parse_scale, EvalBenchReport, EvalSuiteBench, EVAL_BENCH_SCHEMA_VERSION};
use hotspot_benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_core::engine::StageId;
use hotspot_core::training::{density_grid, feature_vector_padded, FeatureMemo, Region};
use hotspot_core::{
    extract_clips, DetectorConfig, EvalEngine, EvalMode, EvalScratch, HotspotDetector, Pattern,
};
use hotspot_svm::{BatchEvaluator, CompiledModel};
use hotspot_topo::route::{Admission, CentroidRouter, RouteStats};
use hotspot_topo::TopoSignature;
use std::hint::black_box;
use std::time::Instant;

/// Kernel indices admitted for one clip, mirroring the topology/density
/// admission of `hotspot_core::EvalEngine::flagging_kernels` (which both
/// engines share unchanged — it is set-up here, not measurement).
fn admitted_kernels(detector: &HotspotDetector, clip: &Pattern) -> Vec<usize> {
    let config = detector.config();
    let window = clip.window.core;
    let rects: Vec<_> = clip
        .rects
        .iter()
        .filter_map(|r| r.intersection(&window))
        .map(|r| r.translate(-window.min()))
        .collect();
    let local = hotspot_geom::Rect::from_extents(0, 0, window.width(), window.height());
    let signature = TopoSignature::of(&local, &rects);
    let grid = density_grid(clip, Region::Core, config);
    let mut out = Vec::new();
    for (idx, k) in detector.kernels().iter().enumerate() {
        let topo_match = signature == k.signature;
        let density_match = if grid.nx() == k.centroid.nx() && grid.ny() == k.centroid.ny() {
            grid.distance(&k.centroid).distance <= config.admission.threshold(k.radius)
        } else {
            false
        };
        if topo_match || density_match {
            out.push(idx);
        }
    }
    out
}

/// The pre-engine hot loop: per admitted kernel, re-extract the padded
/// feature vector and evaluate the reference per-support-vector path.
fn naive_pass(detector: &HotspotDetector, clips: &[Pattern], admitted: &[Vec<usize>]) -> f64 {
    let kernels = detector.kernels();
    let config = detector.config();
    let mut acc = 0.0;
    for (clip, list) in clips.iter().zip(admitted) {
        for &idx in list {
            let features =
                feature_vector_padded(clip, Region::Core, config, kernels[idx].feature_len);
            acc += kernels[idx].model.decision_value(&features);
        }
    }
    acc
}

/// Shared feature extraction, reference decisions.
fn memoized_pass(detector: &HotspotDetector, clips: &[Pattern], admitted: &[Vec<usize>]) -> f64 {
    let kernels = detector.kernels();
    let config = detector.config();
    let mut acc = 0.0;
    for (clip, list) in clips.iter().zip(admitted) {
        let mut memo = FeatureMemo::new(clip, Region::Core, config);
        for &idx in list {
            acc += kernels[idx]
                .model
                .decision_value(memo.padded(kernels[idx].feature_len));
        }
    }
    acc
}

/// Shared feature extraction, batched compiled engine.
fn compiled_pass(
    detector: &HotspotDetector,
    models: &[CompiledModel],
    eval: &mut BatchEvaluator,
    clips: &[Pattern],
    admitted: &[Vec<usize>],
) -> f64 {
    let kernels = detector.kernels();
    let config = detector.config();
    let mut acc = 0.0;
    for (clip, list) in clips.iter().zip(admitted) {
        let mut memo = FeatureMemo::new(clip, Region::Core, config);
        for &idx in list {
            acc += eval.decision_value(&models[idx], memo.padded(kernels[idx].feature_len));
        }
    }
    acc
}

/// Times `reps` repetitions of a pass, returning seconds.
fn time_reps(reps: usize, mut pass: impl FnMut() -> f64) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(pass());
    }
    t.elapsed().as_secs_f64()
}

fn measure_suite(scale: SuiteScale) -> EvalSuiteBench {
    let spec = iccad_suite(scale).remove(0);
    let name = spec.name.clone();
    println!(
        "[{scale:?}] generating {name} ({} x {} um)...",
        spec.width / 1000,
        spec.height / 1000
    );
    let benchmark = Benchmark::generate(spec);

    let t0 = Instant::now();
    let detector = HotspotDetector::train(&benchmark.training, DetectorConfig::default())
        .expect("framework training");
    let kernels = detector.kernels();
    let support_vectors: usize = kernels.iter().map(|k| k.model.support_vector_count()).sum();
    let max_feature_len = kernels.iter().map(|k| k.feature_len).max().unwrap_or(0);
    println!(
        "[{scale:?}] trained {} kernels ({} SVs, max dim {}) in {:.1?}",
        kernels.len(),
        support_vectors,
        max_feature_len,
        t0.elapsed()
    );

    // Untimed set-up: clip extraction and kernel admission (identical on
    // both engines), plus fully pre-extracted features for the pure
    // decision-value passes.
    let clips = extract_clips(&benchmark.layout, benchmark.layer, detector.config());
    let admitted: Vec<Vec<usize>> = clips
        .iter()
        .map(|c| admitted_kernels(&detector, c))
        .collect();
    let clips_admitted = admitted.iter().filter(|l| !l.is_empty()).count();
    let admitted_evals: usize = admitted.iter().map(|l| l.len()).sum();
    println!(
        "[{scale:?}] {} clips, {} admitted to >=1 kernel, {} kernel evaluations",
        clips.len(),
        clips_admitted,
        admitted_evals
    );
    let features: Vec<Vec<Vec<f64>>> = clips
        .iter()
        .zip(&admitted)
        .map(|(clip, list)| {
            let mut memo = FeatureMemo::new(clip, Region::Core, detector.config());
            list.iter()
                .map(|&idx| memo.padded(kernels[idx].feature_len).to_vec())
                .collect()
        })
        .collect();

    let compiled: Vec<CompiledModel> = kernels.iter().map(|k| k.model.compile()).collect();
    let mut eval = BatchEvaluator::new();

    // Calibrate the repetition count on the slowest (naive) pass so each
    // timed section runs long enough for a stable clock, unless pinned.
    let reps = match std::env::var("HOTSPOT_EVAL_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(r) => r,
        None => {
            let probe = time_reps(1, || naive_pass(&detector, &clips, &admitted)).max(1e-6);
            ((0.6 / probe).ceil() as usize).clamp(2, 1000)
        }
    };

    // Warm every path once, then measure.
    black_box(memoized_pass(&detector, &clips, &admitted));
    black_box(compiled_pass(
        &detector, &compiled, &mut eval, &clips, &admitted,
    ));
    let naive_secs = time_reps(reps, || naive_pass(&detector, &clips, &admitted));
    let memoized_secs = time_reps(reps, || memoized_pass(&detector, &clips, &admitted));
    let compiled_secs = time_reps(reps, || {
        compiled_pass(&detector, &compiled, &mut eval, &clips, &admitted)
    });

    let scored = (clips.len() * reps) as f64;
    println!(
        "[{scale:?}] {reps} reps: naive {:.0} clips/s, memoized {:.0}, compiled {:.0} ({:.2}x hot-loop speedup)",
        scored / naive_secs,
        scored / memoized_secs,
        scored / compiled_secs,
        naive_secs / compiled_secs,
    );

    // Pure decision values over the pre-extracted admitted features.
    let decision_naive = |_: &mut BatchEvaluator| {
        let mut acc = 0.0;
        for (list, rows) in admitted.iter().zip(&features) {
            for (&idx, f) in list.iter().zip(rows) {
                acc += kernels[idx].model.decision_value(f);
            }
        }
        acc
    };
    let decision_compiled = |eval: &mut BatchEvaluator| {
        let mut acc = 0.0;
        for (list, rows) in admitted.iter().zip(&features) {
            for (&idx, f) in list.iter().zip(rows) {
                acc += eval.decision_value(&compiled[idx], f);
            }
        }
        acc
    };
    black_box(decision_naive(&mut eval));
    black_box(decision_compiled(&mut eval));
    // The decision passes are far cheaper than the extraction-bound hot
    // loop, so they get their own calibration against the same target.
    let dreps = {
        let probe = time_reps(1, || decision_naive(&mut eval)).max(1e-6);
        ((0.6 / probe).ceil() as usize).clamp(reps, 100_000)
    };
    let decision_naive_secs = time_reps(dreps, || decision_naive(&mut eval));
    let decision_compiled_secs = time_reps(dreps, || decision_compiled(&mut eval));
    let flops: f64 = admitted
        .iter()
        .flatten()
        .map(|&idx| compiled[idx].flops_per_eval() as f64)
        .sum();
    let sv_dot_gflops = flops * dreps as f64 / decision_compiled_secs / 1e9;
    println!(
        "[{scale:?}] decision values: naive {:.2} us, compiled {:.2} us per eval ({:.2}x, {:.2} GFLOP/s SV-dot)",
        decision_naive_secs * 1e6 / (dreps * admitted_evals.max(1)) as f64,
        decision_compiled_secs * 1e6 / (dreps * admitted_evals.max(1)) as f64,
        decision_naive_secs / decision_compiled_secs,
        sv_dot_gflops,
    );

    // Admission passes (schema v2): the naive per-centroid 8-orientation
    // search vs the batched router, over precomputed grids + signatures
    // so only the centroid search itself is timed. Router compilation is
    // model-compile-time work and stays untimed.
    let config = detector.config();
    let grids: Vec<_> = clips
        .iter()
        .map(|c| density_grid(c, Region::Core, config))
        .collect();
    let signatures: Vec<TopoSignature> = clips
        .iter()
        .map(|clip| {
            let window = clip.window.core;
            let rects: Vec<_> = clip
                .rects
                .iter()
                .filter_map(|r| r.intersection(&window))
                .map(|r| r.translate(-window.min()))
                .collect();
            let local = hotspot_geom::Rect::from_extents(0, 0, window.width(), window.height());
            TopoSignature::of(&local, &rects)
        })
        .collect();
    let router = CentroidRouter::compile(
        kernels
            .iter()
            .map(|k| (&k.centroid, config.admission.threshold(k.radius))),
        config.cluster.grid,
        config.cluster.grid,
    );

    let admit_naive = || {
        let mut count = 0usize;
        for (sig, grid) in signatures.iter().zip(&grids) {
            for k in kernels {
                let topo_match = *sig == k.signature;
                let density_match = grid.nx() == k.centroid.nx()
                    && grid.ny() == k.centroid.ny()
                    && grid.distance(&k.centroid).distance <= config.admission.threshold(k.radius);
                if topo_match || density_match {
                    count += 1;
                }
            }
        }
        count as f64
    };
    let mut route_out: Vec<Admission> = Vec::new();
    let mut route_stats = RouteStats::default();
    let admit_compiled_pass = |out: &mut Vec<Admission>, stats: &mut RouteStats| {
        let mut count = 0usize;
        for (sig, grid) in signatures.iter().zip(&grids) {
            router.route_into(grid, out, stats);
            let mut next = 0usize;
            for (idx, k) in kernels.iter().enumerate() {
                let density_match = out.get(next).is_some_and(|a| a.kernel == idx);
                if density_match {
                    next += 1;
                }
                if density_match || *sig == k.signature {
                    count += 1;
                }
            }
        }
        count as f64
    };

    // One untimed pass per path: warm-up, pairwise-agreement check, and
    // the router counters reported for a single sweep.
    let naive_admitted = admit_naive();
    let mut single_stats = RouteStats::default();
    let router_admitted = admit_compiled_pass(&mut route_out, &mut single_stats);
    assert_eq!(
        naive_admitted, router_admitted,
        "admission paths disagree on the admitted clip-kernel pairs"
    );
    let admit_reps = {
        let probe = time_reps(1, admit_naive).max(1e-6);
        ((0.6 / probe).ceil() as usize).clamp(2, 100_000)
    };
    let admit_naive_secs = time_reps(admit_reps, admit_naive);
    let admit_compiled_secs = time_reps(admit_reps, || {
        admit_compiled_pass(&mut route_out, &mut route_stats)
    });
    println!(
        "[{scale:?}] admission ({admit_reps} reps): naive {:.2} ms, routed {:.2} ms per sweep ({:.2}x; {} of {} rows pruned)",
        admit_naive_secs * 1e3 / admit_reps as f64,
        admit_compiled_secs * 1e3 / admit_reps as f64,
        admit_naive_secs / admit_compiled_secs,
        single_stats.rows_pruned(),
        single_stats.rows_considered,
    );

    // Admission-included full flagging passes through the public engine
    // handle, one per eval mode.
    let reference_detector = detector.clone().with_eval_mode(EvalMode::Reference);
    let full_pass = |engine: &EvalEngine<'_>, scratch: &mut EvalScratch| {
        let mut flagged = 0usize;
        for clip in &clips {
            flagged += engine.flagging_kernels(clip, scratch).len();
        }
        flagged as f64
    };
    let mut scratch = EvalScratch::new();
    let reference_engine = reference_detector.eval_engine();
    let compiled_engine = detector.eval_engine();
    black_box(full_pass(&reference_engine, &mut scratch));
    black_box(full_pass(&compiled_engine, &mut scratch));
    let full_reps = {
        let probe = time_reps(1, || full_pass(&reference_engine, &mut scratch)).max(1e-6);
        ((0.6 / probe).ceil() as usize).clamp(2, 1000)
    };
    let full_reference_secs = time_reps(full_reps, || full_pass(&reference_engine, &mut scratch));
    let full_compiled_secs = time_reps(full_reps, || full_pass(&compiled_engine, &mut scratch));
    println!(
        "[{scale:?}] full flagging ({full_reps} reps): reference {:.1} ms, compiled {:.1} ms per sweep ({:.2}x)",
        full_reference_secs * 1e3 / full_reps as f64,
        full_compiled_secs * 1e3 / full_reps as f64,
        full_reference_secs / full_compiled_secs,
    );

    // End-to-end cross-check: both engines must flag the identical
    // hotspot set, and the stage telemetry gives the in-pipeline walls.
    let naive_report = reference_detector
        .detect(&benchmark.layout, benchmark.layer)
        .expect("reference detect");
    let compiled_report = detector
        .detect(&benchmark.layout, benchmark.layer)
        .expect("compiled detect");
    assert_eq!(
        naive_report.reported, compiled_report.reported,
        "engines disagree on the reported hotspot set"
    );
    let stage_ms = |r: &hotspot_core::ScanReport| {
        r.telemetry
            .stage(StageId::KernelEvaluation)
            .map(|s| s.wall_ms)
            .unwrap_or(0.0)
    };
    println!(
        "[{scale:?}] detect eval stage: naive {:.1} ms, compiled {:.1} ms ({} batches), {} hotspots on both engines",
        stage_ms(&naive_report),
        stage_ms(&compiled_report),
        compiled_report.eval_batches,
        compiled_report.reported.len(),
    );

    EvalSuiteBench {
        benchmark: name,
        scale: format!("{scale:?}").to_lowercase(),
        kernels: kernels.len(),
        support_vectors,
        max_feature_len,
        clips: clips.len(),
        clips_admitted,
        admitted_evals,
        reps,
        naive_wall_ms: naive_secs * 1e3,
        memoized_wall_ms: memoized_secs * 1e3,
        compiled_wall_ms: compiled_secs * 1e3,
        naive_clips_per_second: scored / naive_secs,
        compiled_clips_per_second: scored / compiled_secs,
        speedup: naive_secs / compiled_secs,
        decision_naive_wall_ms: decision_naive_secs * 1e3,
        decision_compiled_wall_ms: decision_compiled_secs * 1e3,
        decision_speedup: decision_naive_secs / decision_compiled_secs,
        sv_dot_gflops,
        detect_eval_stage_naive_ms: stage_ms(&naive_report),
        detect_eval_stage_compiled_ms: stage_ms(&compiled_report),
        eval_batches: compiled_report.eval_batches,
        hotspots_identical: true,
        admit_reps,
        admit_naive_wall_ms: admit_naive_secs * 1e3,
        admit_compiled_wall_ms: admit_compiled_secs * 1e3,
        admit_speedup: admit_naive_secs / admit_compiled_secs,
        admit_admissions: naive_admitted as u64,
        admit_rows_considered: single_stats.rows_considered as u64,
        admit_rows_pruned: single_stats.rows_pruned() as u64,
        full_reps,
        full_reference_wall_ms: full_reference_secs * 1e3,
        full_compiled_wall_ms: full_compiled_secs * 1e3,
        full_speedup: full_reference_secs / full_compiled_secs,
    }
}

fn main() {
    let scales_var = std::env::var("HOTSPOT_EVAL_SCALES").unwrap_or_else(|_| "small,medium".into());
    let scales: Vec<SuiteScale> = scales_var
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| parse_scale(s).unwrap_or_else(|| panic!("unknown suite scale `{s}`")))
        .collect();

    println!("==============================================================");
    println!("Batched SVM inference — naive vs compiled clip evaluation");
    println!("==============================================================");

    let suites: Vec<EvalSuiteBench> = scales.into_iter().map(measure_suite).collect();
    let report = EvalBenchReport {
        schema_version: EVAL_BENCH_SCHEMA_VERSION,
        threads: DetectorConfig::default().effective_threads().max(1),
        suites,
    };

    let out = std::env::var("HOTSPOT_BENCH_OUT").unwrap_or_else(|_| "BENCH_eval.json".into());
    let json = serde_json::to_string_pretty(&report).expect("serialise BENCH_eval.json");
    // Round-trip before writing so a schema regression fails the run, not
    // the downstream reader.
    let parsed: EvalBenchReport = serde_json::from_str(&json).expect("re-parse BENCH_eval.json");
    assert_eq!(parsed, report);
    std::fs::write(&out, json).expect("write BENCH_eval.json");
    println!("wrote {out}");

    if let Ok(min) = std::env::var("HOTSPOT_EVAL_MIN_SPEEDUP") {
        let min: f64 = min
            .parse()
            .expect("HOTSPOT_EVAL_MIN_SPEEDUP must be a number");
        for s in &report.suites {
            if s.speedup < min {
                eprintln!(
                    "FAIL: {} ({}) speedup {:.2} < required {min:.2}",
                    s.benchmark, s.scale, s.speedup
                );
                std::process::exit(1);
            }
        }
        println!("speedup gate ok (all suites >= {min:.2}x)");
    }

    if let Ok(min) = std::env::var("HOTSPOT_EVAL_MIN_ADMIT_SPEEDUP") {
        let min: f64 = min
            .parse()
            .expect("HOTSPOT_EVAL_MIN_ADMIT_SPEEDUP must be a number");
        for s in &report.suites {
            if s.admit_speedup < min {
                eprintln!(
                    "FAIL: {} ({}) admission speedup {:.2} < required {min:.2}",
                    s.benchmark, s.scale, s.admit_speedup
                );
                std::process::exit(1);
            }
        }
        println!("admission speedup gate ok (all suites >= {min:.2}x)");
    }
}

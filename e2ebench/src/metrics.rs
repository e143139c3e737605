//! The metric names and units the benchmark prints, and the result line.
//!
//! `BENCHMARK.json` declares the same names; the self-test checks that the
//! two lists agree.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("clips_per_s", "1/s"),
    ("op_ms_min", "ms"),
    ("peak_rss_mb", "MiB"),
    ("hit_rate", "ratio"),
    ("extras", "count"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.detector.model_load_ms", "ms"),
    ("core.detector.model_bytes", "bytes"),
    ("core.detector.compile_ms", "ms"),
    ("layout.gdsii.read_ms", "ms"),
    ("layout.gdsii.bytes", "bytes"),
    ("core.training.set_load_ms", "ms"),
    ("core.training.set_bytes", "bytes"),
    ("core.extraction.index_ms", "ms"),
    ("layout.scan.tile_ms", "ms"),
    ("layout.scan.tiles", "count"),
    ("core.scan.prefilter_ms", "ms"),
    ("core.extraction.extract_ms", "ms"),
    ("core.extraction.clips", "count"),
    ("core.eval.clip_ms", "ms"),
    ("geom.sat.raster_ms", "ms"),
    ("geom.sat.fallbacks", "count"),
    ("topo.dirstring.signature_ms", "ms"),
    ("topo.route.route_ms", "ms"),
    ("topo.route.rows_considered", "count"),
    ("topo.route.rows_pruned", "count"),
    ("topo.route.admissions", "count"),
    ("topo.route.admit_ratio", "ratio"),
    ("core.training.feature_ms", "ms"),
    ("core.training.feature_extractions", "count"),
    ("svm.eval.decision_ms", "ms"),
    ("svm.eval.decisions", "count"),
    ("svm.eval.sv_dot_gflop", "GFLOP"),
    ("core.feedback.confirm_ms", "ms"),
    ("core.feedback.calls", "count"),
    ("core.feedback.reclaimed", "count"),
    ("core.removal.merge_ms", "ms"),
    ("core.removal.discard_ms", "ms"),
    ("core.removal.shift_ms", "ms"),
    ("core.removal.flagged_in", "count"),
    ("core.removal.reported_out", "count"),
    ("core.tile_cache.open_ms", "ms"),
    ("core.tile_cache.lookup_ms", "ms"),
    ("core.tile_cache.store_ms", "ms"),
    ("core.tile_cache.bytes", "bytes"),
    ("core.tile_cache.hits", "count"),
    ("core.tile_cache.misses", "count"),
    ("layout.scan.fingerprint_ms", "ms"),
    ("core.engine.executor.busy_ratio", "ratio"),
    ("core.engine.executor.tasks_stolen", "count"),
    ("core.scan.wall_1t_ms", "ms"),
    ("core.scan.overhead_ms", "ms"),
    ("core.balance.upsample_ms", "ms"),
    ("core.balance.downsample_ms", "ms"),
    ("topo.cluster.classify_ms", "ms"),
    ("svm.smo.kernel_train_ms", "ms"),
    ("svm.smo.iterations", "count"),
    ("core.feedback.train_ms", "ms"),
    ("trace.replay_vs_scan_ratio", "ratio"),
];

/// Span names whose summed self time is a per-layer `<name>_ms` metric.
/// Together with `core.scan.overhead_ms` they account for the 1-thread
/// scan wall.
pub const SCAN_LAYERS: &[&str] = &[
    "core.extraction.index",
    "layout.scan.tile",
    "core.scan.prefilter",
    "core.extraction.extract",
    "core.eval.clip",
    "geom.sat.raster",
    "topo.dirstring.signature",
    "topo.route.route",
    "core.training.feature",
    "svm.eval.decision",
    "core.feedback.confirm",
    "core.removal.merge",
    "core.removal.discard",
    "core.removal.shift",
    "core.tile_cache.open",
    "core.tile_cache.lookup",
    "core.tile_cache.store",
    "layout.scan.fingerprint",
];

/// Span names of the training replay reported as `<name>_ms`.
pub const TRAIN_LAYERS: &[&str] = &[
    "core.balance.upsample",
    "topo.cluster.classify",
    "core.balance.downsample",
    "svm.smo.kernel_train",
    "core.feedback.train",
    "core.detector.compile",
];

/// Metric values of one run, keyed by name.
pub type Values = BTreeMap<String, f64>;

/// Counts operations and correctness checks, and reports failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one attempted operation or check; `false` counts a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `table` with its unit. Metrics absent from `values`
/// are left out; a non-finite value counts as a failure. Every name in
/// `values` must be declared in `table`.
pub fn result_line(table: &[(&str, &str)], values: &Values, checks: &mut Checks) -> String {
    for name in values.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric `{name}` is not declared"
        );
    }
    let mut parts = Vec::new();
    for (name, unit) in table {
        let Some(&value) = values.get(*name) else {
            continue;
        };
        if !value.is_finite() {
            checks.check(false, || format!("metric `{name}` is {value}"));
            continue;
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        parts.join(", ")
    )
}

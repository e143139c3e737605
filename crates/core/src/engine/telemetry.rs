//! Serializable per-stage pipeline telemetry.
//!
//! Every run of the training or evaluation pipeline produces a
//! [`PipelineTelemetry`] describing, for each of the eight canonical
//! stages, its wall-clock time, item flow, and thread utilisation. The
//! structure is serde-serialisable so the CLI can persist it
//! (`hotspot detect --telemetry out.json`) and the bench binaries can
//! print per-stage breakdowns.

use super::executor::ExecutorStats;
use super::stage::StageId;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Duration;

/// Version of the telemetry JSON schema (bump on breaking field changes).
///
/// v2 added the `density_prefilter` stage to the canonical stage list
/// (merged records therefore carry eight stages instead of seven).
/// v3 added the per-stage `batches` counter: clip batches scheduled
/// through the batched SVM inference engine (0 for unbatched stages).
/// v4 added the fault-tolerance counters: per-stage `failures` (task
/// attempts that panicked and were isolated) and `retries` (failed tasks
/// re-attempted before quarantine), plus the run-level `resumed_tiles`
/// (removed in v9). Both deserialise as 0 from older records via
/// `#[serde(default)]`.
/// v5 added the admission counters: per-stage `admissions` (clip-kernel
/// pairs admitted to SVM evaluation by topology or density) and
/// `admission_skips` (centroid-orientation rows the compiled admission
/// router pruned via its mass gate, block-sum screens, or early exit). Both
/// deserialise as 0 from v4 and older records via `#[serde(default)]`.
/// v6 added the run-level `obs_sinks` list: names of the observability
/// sinks and endpoints active during the run (empty when the pipeline ran
/// unobserved). Deserialises as empty from v5 and older records via
/// `#[serde(default)]`.
/// v7 added the run-level tile-cache counters `cache_hits`,
/// `cache_misses` and `recomputed_tiles` (removed in v9).
/// v8 added the deadline counters: per-stage `timeouts` (tasks quarantined
/// for exceeding the soft per-tile budget), the run-level `timed_out`
/// total (removed in v9), and `aborted_reason` (the stable
/// [`crate::AbortReason::name`] string when the run stopped early; `null`
/// for runs that completed). Both deserialise as 0 / `None` from v7 and
/// older records via `#[serde(default)]`.
/// v9 removed the run-level `resumed_tiles`, `cache_hits`, `cache_misses`,
/// `recomputed_tiles` and `timed_out`: they only repeated the
/// [`crate::ScanReport`] fields of the same names, or the sum of the
/// per-stage `timeouts`. Older records still parse; the removed keys are
/// ignored.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 9;

/// Telemetry of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTelemetry {
    /// Canonical stage name (see [`StageId::name`]).
    pub stage: String,
    /// Wall-clock time spent in the stage, in milliseconds.
    pub wall_ms: f64,
    /// Items entering the stage (patterns, clusters, clips, …).
    pub items_in: usize,
    /// Items leaving the stage.
    pub items_out: usize,
    /// Worker threads that participated.
    pub threads_used: usize,
    /// Tasks executed across all workers (0 for untasked stages).
    pub tasks_executed: usize,
    /// Tasks a worker stole from another worker's queue.
    pub tasks_stolen: usize,
    /// Clip batches scheduled through the batched SVM inference engine
    /// (0 for stages that do not evaluate clips). Absent in pre-v3 records,
    /// which deserialise with 0.
    #[serde(default)]
    pub batches: usize,
    /// Task attempts in this stage that panicked and were isolated by the
    /// executor instead of aborting the process. Absent in pre-v4 records,
    /// which deserialise with 0.
    #[serde(default)]
    pub failures: usize,
    /// Failed tasks that were retried once before quarantine. Absent in
    /// pre-v4 records, which deserialise with 0.
    #[serde(default)]
    pub retries: usize,
    /// Clip-kernel pairs admitted to SVM evaluation (by exact topology
    /// match or density routing). Absent in pre-v5 records, which
    /// deserialise with 0.
    #[serde(default)]
    pub admissions: u64,
    /// Centroid-orientation rows the compiled admission router pruned
    /// without computing their full exact distance (mass gate + block-sum
    /// screens + early exit). Absent in pre-v5 records, which deserialise
    /// with 0.
    #[serde(default)]
    pub admission_skips: u64,
    /// Tasks in this stage quarantined for exceeding the soft per-tile
    /// budget ([`crate::ScanConfig::tile_timeout`]) — a subset of
    /// `failures`. Absent in pre-v8 records, which deserialise with 0.
    #[serde(default)]
    pub timeouts: usize,
}

impl StageTelemetry {
    /// An all-zero entry for a stage that did not run.
    pub fn empty(stage: StageId) -> Self {
        StageTelemetry {
            stage: stage.name().to_string(),
            wall_ms: 0.0,
            items_in: 0,
            items_out: 0,
            threads_used: 0,
            tasks_executed: 0,
            tasks_stolen: 0,
            batches: 0,
            failures: 0,
            retries: 0,
            admissions: 0,
            admission_skips: 0,
            timeouts: 0,
        }
    }

    /// The row of one stage execution. `stats` carries [`ExecutorStats`]
    /// counters for parallel stages; sequential stages pass `None` and are
    /// counted as one task on one thread.
    pub fn measured(
        stage: StageId,
        items_in: usize,
        items_out: usize,
        wall: Duration,
        stats: Option<&ExecutorStats>,
    ) -> Self {
        let (threads_used, tasks_executed, tasks_stolen) = match stats {
            Some(s) => (s.threads_used, s.tasks_executed, s.tasks_stolen),
            None => (1, 1, 0),
        };
        StageTelemetry {
            wall_ms: wall.as_secs_f64() * 1e3,
            items_in,
            items_out,
            threads_used,
            tasks_executed,
            tasks_stolen,
            failures: stats.map_or(0, |s| s.tasks_failed),
            ..StageTelemetry::empty(stage)
        }
    }

    /// The stage wall time as a [`Duration`].
    pub fn wall_time(&self) -> Duration {
        Duration::from_secs_f64((self.wall_ms / 1e3).max(0.0))
    }

    /// Accumulates another record of the same stage into this one.
    pub(crate) fn absorb(&mut self, other: &StageTelemetry) {
        self.wall_ms += other.wall_ms;
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.tasks_executed += other.tasks_executed;
        self.tasks_stolen += other.tasks_stolen;
        self.batches += other.batches;
        self.failures += other.failures;
        self.retries += other.retries;
        self.admissions += other.admissions;
        self.admission_skips += other.admission_skips;
        self.timeouts += other.timeouts;
    }
}

/// Telemetry of one pipeline run (a training phase, an evaluation phase,
/// or both merged).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineTelemetry {
    /// Telemetry schema version ([`TELEMETRY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which phase this telemetry covers (`"training"`, `"scan"`, or
    /// `"training+scan"` after merging; records written before `detect`
    /// became the default-tiled scan say `"detection"`).
    pub phase: String,
    /// Worker threads configured for the run.
    pub threads: usize,
    /// Per-stage records in canonical pipeline order.
    pub stages: Vec<StageTelemetry>,
    /// Total wall-clock time of the phase, in milliseconds.
    pub total_wall_ms: f64,
    /// Why the run stopped early, as the stable
    /// [`crate::AbortReason::name`] string (`"deadline_exceeded"` or
    /// `"interrupted"`), or `None` for runs that completed (schema v8).
    /// Absent in pre-v8 records, which deserialise as `None`.
    #[serde(default)]
    pub aborted_reason: Option<String>,
    /// Observability sinks and endpoints active during the run (schema
    /// v6): sink names in registration order, e.g. `["ndjson",
    /// "progress", "prometheus"]`. Empty for unobserved runs and absent
    /// in pre-v6 records, which deserialise with an empty list.
    #[serde(default)]
    pub obs_sinks: Vec<String>,
}

impl Default for PipelineTelemetry {
    fn default() -> Self {
        PipelineTelemetry {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            phase: String::new(),
            threads: 0,
            stages: Vec::new(),
            total_wall_ms: 0.0,
            aborted_reason: None,
            obs_sinks: Vec::new(),
        }
    }
}

impl PipelineTelemetry {
    /// The record for `stage`, when that stage ran.
    pub fn stage(&self, stage: StageId) -> Option<&StageTelemetry> {
        self.stages.iter().find(|s| s.stage == stage.name())
    }

    /// Total wall time as a [`Duration`].
    pub fn total_wall_time(&self) -> Duration {
        Duration::from_secs_f64((self.total_wall_ms / 1e3).max(0.0))
    }

    /// Merges two phases (typically training + detection) into one record
    /// that carries **all eight** canonical stages, zero-filled where a
    /// stage ran in neither phase.
    pub fn merge(&self, other: &PipelineTelemetry) -> PipelineTelemetry {
        let stages = StageId::ALL
            .iter()
            .map(|&id| {
                let mut entry = StageTelemetry::empty(id);
                for source in [self, other] {
                    if let Some(s) = source.stage(id) {
                        entry.absorb(s);
                    }
                }
                entry
            })
            .collect();
        let mut obs_sinks = self.obs_sinks.clone();
        for name in &other.obs_sinks {
            if !obs_sinks.contains(name) {
                obs_sinks.push(name.clone());
            }
        }
        PipelineTelemetry {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            phase: format!("{}+{}", self.phase, other.phase),
            threads: self.threads.max(other.threads),
            stages,
            total_wall_ms: self.total_wall_ms + other.total_wall_ms,
            aborted_reason: self
                .aborted_reason
                .clone()
                .or_else(|| other.aborted_reason.clone()),
            obs_sinks,
        }
    }

    /// A human-readable per-stage breakdown table, for the bench binaries
    /// and the CLI.
    ///
    /// Header and rows are rendered from one shared column spec
    /// (`BREAKDOWN_COLUMNS`), so stage names and every numeric column —
    /// including the v5 admission columns — stay aligned by construction.
    pub fn breakdown(&self) -> String {
        let mut out = format!(
            "pipeline telemetry (schema v{}, phase {}, {} thread(s), total {:.2} ms)\n",
            self.schema_version, self.phase, self.threads, self.total_wall_ms
        );
        let header: Vec<String> = BREAKDOWN_COLUMNS
            .iter()
            .map(|(title, _)| (*title).to_string())
            .collect();
        out.push_str(&breakdown_row("stage", &header));
        for s in &self.stages {
            let cells = vec![
                format!("{:.3}", s.wall_ms),
                s.items_in.to_string(),
                s.items_out.to_string(),
                s.threads_used.to_string(),
                s.tasks_executed.to_string(),
                s.tasks_stolen.to_string(),
                s.batches.to_string(),
                s.failures.to_string(),
                s.retries.to_string(),
                s.admissions.to_string(),
                s.admission_skips.to_string(),
                s.timeouts.to_string(),
            ];
            out.push_str(&breakdown_row(&s.stage, &cells));
        }
        if !self.obs_sinks.is_empty() {
            let _ = writeln!(out, "  obs sinks: {}", self.obs_sinks.join(", "));
        }
        out
    }
}

/// Width of the left-aligned stage-name column in [`breakdown`]
/// (PipelineTelemetry::breakdown) output: the widest canonical stage name
/// (`topological_classification`, 26 chars) plus two spaces of air.
const STAGE_NAME_WIDTH: usize = 28;

/// The numeric columns of the breakdown table — `(header, width)` pairs
/// used for both the header and every data row, so the two can never
/// drift apart.
const BREAKDOWN_COLUMNS: [(&str, usize); 12] = [
    ("wall (ms)", 12),
    ("in", 9),
    ("out", 9),
    ("threads", 8),
    ("tasks", 7),
    ("stolen", 7),
    ("batches", 7),
    ("failed", 6),
    ("retried", 7),
    ("admitted", 9),
    ("adm-skips", 10),
    ("timeouts", 9),
];

/// Renders one breakdown line: the stage cell left-padded to
/// [`STAGE_NAME_WIDTH`], then each cell right-aligned to its column width.
fn breakdown_row(stage: &str, cells: &[String]) -> String {
    debug_assert_eq!(cells.len(), BREAKDOWN_COLUMNS.len());
    let mut line = format!("  {stage:<STAGE_NAME_WIDTH$}");
    for (cell, (_, width)) in cells.iter().zip(BREAKDOWN_COLUMNS) {
        let _ = write!(line, " {cell:>width$}");
    }
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageRecorder;

    fn sample(phase: &str, stage: StageId) -> PipelineTelemetry {
        let mut rec = StageRecorder::new(phase, 2);
        rec.record(stage, 10, 4, Duration::from_millis(3), None);
        rec.finish()
    }

    #[test]
    fn merge_carries_all_canonical_stages() {
        let train = sample("training", StageId::KernelTraining);
        let detect = sample("detection", StageId::KernelEvaluation);
        let merged = train.merge(&detect);
        assert_eq!(merged.stages.len(), StageId::ALL.len());
        assert_eq!(merged.phase, "training+detection");
        for (entry, id) in merged.stages.iter().zip(StageId::ALL) {
            assert_eq!(entry.stage, id.name());
        }
        assert!(merged.stage(StageId::KernelTraining).unwrap().wall_ms > 0.0);
        assert_eq!(merged.stage(StageId::ClipRemoval).unwrap().items_in, 0);
        assert!((merged.total_wall_ms - train.total_wall_ms - detect.total_wall_ms).abs() < 1e-12);
    }

    #[test]
    fn serde_json_round_trip() {
        let t = sample("training", StageId::PopulationBalancing);
        let json = serde_json::to_string(&t).unwrap();
        let back: PipelineTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert!(json.contains("\"schema_version\":9"), "{json}");
        assert!(json.contains("\"obs_sinks\":[]"), "{json}");
        assert!(json.contains("\"timeouts\""), "{json}");
        assert!(json.contains("\"aborted_reason\":null"), "{json}");
        assert!(json.contains("\"batches\""), "{json}");
        assert!(json.contains("\"failures\""), "{json}");
        assert!(json.contains("\"retries\""), "{json}");
        for removed in [
            "resumed_tiles",
            "cache_hits",
            "cache_misses",
            "recomputed_tiles",
            "timed_out",
        ] {
            assert!(!json.contains(removed), "{removed} in {json}");
        }
        assert!(json.contains("\"admissions\""), "{json}");
        assert!(json.contains("\"admission_skips\""), "{json}");
        assert!(json.contains("population_balancing"), "{json}");
    }

    #[test]
    fn pre_v4_records_deserialise_without_fault_counters() {
        // A v2-era stage record: no batches, failures, or retries.
        let json = r#"{"stage":"kernel_evaluation","wall_ms":1.0,"items_in":2,
            "items_out":1,"threads_used":1,"tasks_executed":1,"tasks_stolen":0}"#;
        let s: StageTelemetry = serde_json::from_str(json).unwrap();
        assert_eq!(s.batches, 0);
        assert_eq!(s.failures, 0);
        assert_eq!(s.retries, 0);
        // A v3-era pipeline record.
        let json = r#"{"schema_version":3,"phase":"scan","threads":2,
            "stages":[],"total_wall_ms":1.0}"#;
        let t: PipelineTelemetry = serde_json::from_str(json).unwrap();
        assert_eq!(t.phase, "scan");
    }

    #[test]
    fn v4_records_deserialise_without_admission_counters() {
        // A v4-era stage record: fault counters present, no admissions.
        let json = r#"{"stage":"kernel_evaluation","wall_ms":1.0,"items_in":2,
            "items_out":1,"threads_used":1,"tasks_executed":1,"tasks_stolen":0,
            "batches":1,"failures":0,"retries":0}"#;
        let s: StageTelemetry = serde_json::from_str(json).unwrap();
        assert_eq!(s.admissions, 0);
        assert_eq!(s.admission_skips, 0);
        // A full v4 pipeline record still loads (schema_version is data,
        // not a gate) and merges cleanly with v5 output.
        let json = r#"{"schema_version":4,"phase":"detection","threads":2,
            "stages":[{"stage":"kernel_evaluation","wall_ms":1.0,"items_in":2,
            "items_out":1,"threads_used":1,"tasks_executed":1,"tasks_stolen":0,
            "batches":1,"failures":0,"retries":0}],
            "total_wall_ms":1.0,"resumed_tiles":0}"#;
        let t: PipelineTelemetry = serde_json::from_str(json).unwrap();
        let merged = t.merge(&PipelineTelemetry::default());
        assert_eq!(merged.schema_version, TELEMETRY_SCHEMA_VERSION);
        assert_eq!(
            merged.stage(StageId::KernelEvaluation).unwrap().admissions,
            0
        );
    }

    #[test]
    fn v5_records_deserialise_without_obs_sinks() {
        // A full v5 pipeline record: admission counters present, no
        // obs_sinks list.
        let json = r#"{"schema_version":5,"phase":"detection","threads":2,
            "stages":[{"stage":"kernel_evaluation","wall_ms":1.0,"items_in":2,
            "items_out":1,"threads_used":1,"tasks_executed":1,"tasks_stolen":0,
            "batches":1,"failures":0,"retries":0,"admissions":4,
            "admission_skips":12}],
            "total_wall_ms":1.0,"resumed_tiles":0}"#;
        let t: PipelineTelemetry = serde_json::from_str(json).unwrap();
        assert!(t.obs_sinks.is_empty());
        let merged = t.merge(&PipelineTelemetry::default());
        assert_eq!(merged.schema_version, TELEMETRY_SCHEMA_VERSION);
        assert!(merged.obs_sinks.is_empty());
    }

    #[test]
    fn v8_records_with_removed_run_level_counters_still_parse() {
        let json = r#"{"schema_version":8,"phase":"scan","threads":2,
            "stages":[{"stage":"kernel_evaluation","wall_ms":1.0,"items_in":2,
            "items_out":1,"threads_used":1,"tasks_executed":1,"tasks_stolen":0,
            "batches":1,"failures":1,"retries":1,"admissions":4,
            "admission_skips":12,"timeouts":1}],
            "total_wall_ms":1.0,"resumed_tiles":3,"cache_hits":3,
            "cache_misses":1,"recomputed_tiles":1,"timed_out":1,
            "aborted_reason":null,"obs_sinks":["ndjson"]}"#;
        let t: PipelineTelemetry = serde_json::from_str(json).unwrap();
        assert_eq!(t.stage(StageId::KernelEvaluation).unwrap().timeouts, 1);
        assert_eq!(t.obs_sinks, vec!["ndjson"]);
        let merged = t.merge(&PipelineTelemetry::default());
        assert_eq!(merged.schema_version, TELEMETRY_SCHEMA_VERSION);
    }

    #[test]
    fn v7_records_deserialise_without_deadline_counters() {
        // A full v7 pipeline record: cache counters present, no per-stage
        // timeouts, run-level timed_out, or aborted_reason.
        let json = r#"{"schema_version":7,"phase":"scan","threads":2,
            "stages":[{"stage":"kernel_evaluation","wall_ms":1.0,"items_in":2,
            "items_out":1,"threads_used":1,"tasks_executed":1,"tasks_stolen":0,
            "batches":1,"failures":1,"retries":1,"admissions":4,
            "admission_skips":12}],
            "total_wall_ms":1.0,"resumed_tiles":0,"cache_hits":3,
            "cache_misses":1,"recomputed_tiles":1,"obs_sinks":["ndjson"]}"#;
        let t: PipelineTelemetry = serde_json::from_str(json).unwrap();
        assert_eq!(t.aborted_reason, None);
        assert_eq!(t.stage(StageId::KernelEvaluation).unwrap().timeouts, 0);
        let merged = t.merge(&PipelineTelemetry::default());
        assert_eq!(merged.schema_version, TELEMETRY_SCHEMA_VERSION);
    }

    #[test]
    fn merge_keeps_first_abort_reason() {
        let a = PipelineTelemetry {
            phase: "scan".to_string(),
            aborted_reason: None,
            ..PipelineTelemetry::default()
        };
        let b = PipelineTelemetry {
            phase: "scan".to_string(),
            aborted_reason: Some("deadline_exceeded".to_string()),
            ..PipelineTelemetry::default()
        };
        let merged = a.merge(&b);
        assert_eq!(merged.aborted_reason.as_deref(), Some("deadline_exceeded"));
        // When both halves aborted, the left-hand reason wins.
        let c = PipelineTelemetry {
            aborted_reason: Some("interrupted".to_string()),
            ..a
        };
        assert_eq!(c.merge(&b).aborted_reason.as_deref(), Some("interrupted"));
    }

    #[test]
    fn merge_unions_obs_sinks_preserving_order() {
        let mut a = PipelineTelemetry {
            phase: "training".to_string(),
            ..PipelineTelemetry::default()
        };
        a.obs_sinks = vec!["ndjson".to_string(), "prometheus".to_string()];
        let mut b = PipelineTelemetry {
            phase: "detection".to_string(),
            ..PipelineTelemetry::default()
        };
        b.obs_sinks = vec!["prometheus".to_string(), "progress".to_string()];
        let merged = a.merge(&b);
        assert_eq!(merged.obs_sinks, vec!["ndjson", "prometheus", "progress"]);
    }

    #[test]
    fn breakdown_rendering_is_pinned() {
        let mut t = PipelineTelemetry {
            phase: "detection".to_string(),
            threads: 2,
            total_wall_ms: 12.5,
            ..PipelineTelemetry::default()
        };
        let mut eval = StageTelemetry::empty(StageId::KernelEvaluation);
        eval.wall_ms = 3.25;
        eval.items_in = 128;
        eval.items_out = 5;
        eval.threads_used = 2;
        eval.tasks_executed = 2;
        eval.batches = 2;
        eval.failures = 1;
        eval.admissions = 96;
        eval.admission_skips = 1024;
        eval.timeouts = 1;
        let mut removal = StageTelemetry::empty(StageId::ClipRemoval);
        removal.wall_ms = 0.5;
        removal.items_in = 5;
        removal.items_out = 3;
        removal.threads_used = 1;
        removal.tasks_executed = 1;
        t.stages = vec![eval, removal];
        let expected = "\
pipeline telemetry (schema v9, phase detection, 2 thread(s), total 12.50 ms)
  stage                           wall (ms)        in       out  threads   tasks  stolen batches failed retried  admitted  adm-skips  timeouts
  kernel_evaluation                   3.250       128         5        2       2       0       2      1       0        96       1024         1
  clip_removal                        0.500         5         3        1       1       0       0      0       0         0          0         0
";
        assert_eq!(t.breakdown(), expected);
        // Header and every row share the column spec, so all lines after
        // the summary have equal length.
        let rendered = t.breakdown();
        let lines: Vec<&str> = rendered.lines().skip(1).map(str::trim_end).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        // An observed run appends the sink list.
        t.obs_sinks = vec!["ndjson".to_string(), "prometheus".to_string()];
        assert!(t.breakdown().ends_with("  obs sinks: ndjson, prometheus\n"));
    }

    #[test]
    fn wall_time_round_trips_through_ms() {
        let s = StageTelemetry {
            wall_ms: 1500.0,
            ..StageTelemetry::empty(StageId::ClipExtraction)
        };
        assert_eq!(s.wall_time(), Duration::from_millis(1500));
    }
}

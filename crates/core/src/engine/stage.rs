//! The eight canonical pipeline stages and the recorder that times them.

use super::executor::ExecutorStats;
use super::telemetry::{PipelineTelemetry, StageTelemetry, TELEMETRY_SCHEMA_VERSION};
use std::fmt;
use std::time::{Duration, Instant};

/// The stages of the Fig. 3 pipeline, in canonical order.
///
/// The first four run during training, the rest during evaluation. The
/// density-prefilter stage only does work in the streaming layout scan
/// (`scan_layout`); clip-list detection records it with zero items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// String- then density-based classification of training patterns.
    TopologicalClassification,
    /// Hotspot upsampling by data shifting and nonhotspot downsampling to
    /// cluster medoids.
    PopulationBalancing,
    /// Per-cluster SVM training with iterative `(C, γ)` adaptation.
    KernelTraining,
    /// Feedback-kernel training on self-evaluation false alarms.
    FeedbackTraining,
    /// Density-based tile prefiltering during a streaming layout scan.
    DensityPrefilter,
    /// Clip extraction by polygon dissection with distribution filtering.
    ClipExtraction,
    /// Multiple-kernel (and feedback) evaluation of extracted clips.
    KernelEvaluation,
    /// Redundant clip removal: merging, reframing, discarding, shifting.
    ClipRemoval,
}

impl StageId {
    /// All stages in canonical pipeline order.
    pub const ALL: [StageId; 8] = [
        StageId::TopologicalClassification,
        StageId::PopulationBalancing,
        StageId::KernelTraining,
        StageId::FeedbackTraining,
        StageId::DensityPrefilter,
        StageId::ClipExtraction,
        StageId::KernelEvaluation,
        StageId::ClipRemoval,
    ];

    /// The stable snake_case name used in telemetry JSON.
    pub fn name(self) -> &'static str {
        match self {
            StageId::TopologicalClassification => "topological_classification",
            StageId::PopulationBalancing => "population_balancing",
            StageId::KernelTraining => "kernel_training",
            StageId::FeedbackTraining => "feedback_training",
            StageId::DensityPrefilter => "density_prefilter",
            StageId::ClipExtraction => "clip_extraction",
            StageId::KernelEvaluation => "kernel_evaluation",
            StageId::ClipRemoval => "clip_removal",
        }
    }

    /// Resolves a stable snake_case [`name`](Self::name) back to its stage.
    ///
    /// Returns `None` for labels that are not canonical stage names (the
    /// executor also runs ad-hoc stages such as `"scan_tile"`).
    pub fn from_name(name: &str) -> Option<StageId> {
        StageId::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Position in the canonical order (`0..8`), matching [`StageId::ALL`].
    ///
    /// Used to index per-stage observability counter slots and to sort
    /// telemetry output.
    pub fn index(self) -> usize {
        StageId::ALL
            .iter()
            .position(|&s| s == self)
            .expect("stage is canonical")
    }

    /// Position in the canonical order, for sorting telemetry output.
    fn rank(self) -> usize {
        self.index()
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulates per-stage timings into a [`PipelineTelemetry`].
///
/// Recording the same stage twice accumulates (wall time and item counts
/// add up) so interleaved stages — e.g. the two halves of population
/// balancing that bracket topological classification — fold into one entry.
#[derive(Debug)]
pub struct StageRecorder {
    phase: String,
    threads: usize,
    stages: Vec<(StageId, StageTelemetry)>,
    started: Instant,
    aborted_reason: Option<String>,
    obs_sinks: Vec<String>,
}

impl StageRecorder {
    /// Starts recording a phase (`"training"` or `"scan"`) configured
    /// with `threads` workers.
    pub fn new(phase: &str, threads: usize) -> Self {
        StageRecorder {
            phase: phase.to_string(),
            threads,
            stages: Vec::new(),
            started: Instant::now(),
            aborted_reason: None,
            obs_sinks: Vec::new(),
        }
    }

    /// Records the observability sinks active during this phase (schema
    /// v6). The list is carried verbatim into the finished telemetry;
    /// phases run without an [`ObsHub`](crate::obs::ObsHub) leave it empty.
    pub fn set_obs_sinks(&mut self, sinks: Vec<String>) {
        self.obs_sinks = sinks;
    }

    /// Records one stage execution. `stats` carries [`ExecutorStats`]
    /// counters for parallel stages; sequential stages pass `None` and are
    /// counted as one task on one thread.
    pub fn record(
        &mut self,
        stage: StageId,
        items_in: usize,
        items_out: usize,
        wall: Duration,
        stats: Option<&ExecutorStats>,
    ) {
        self.record_batched(stage, items_in, items_out, wall, stats, 0);
    }

    /// [`record`](Self::record) for a stage that ran `batches` clip batches
    /// through the batched SVM inference engine.
    pub fn record_batched(
        &mut self,
        stage: StageId,
        items_in: usize,
        items_out: usize,
        wall: Duration,
        stats: Option<&ExecutorStats>,
        batches: usize,
    ) {
        let (threads_used, tasks_executed, tasks_stolen) = match stats {
            Some(s) => (s.threads_used, s.tasks_executed, s.tasks_stolen),
            None => (1, 1, 0),
        };
        let entry = StageTelemetry {
            stage: stage.name().to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            items_in,
            items_out,
            threads_used,
            tasks_executed,
            tasks_stolen,
            batches,
            failures: stats.map_or(0, |s| s.tasks_failed),
            retries: 0,
            admissions: 0,
            admission_skips: 0,
            timeouts: 0,
        };
        self.update(stage, |existing| existing.absorb(&entry));
    }

    /// Applies `f` to `stage`'s entry, creating a zero-time entry when the
    /// stage has not been recorded yet — for the counters beyond the item
    /// flow: admissions (schema v5), failures and retries (v4), timeouts
    /// (v8).
    pub fn update(&mut self, stage: StageId, f: impl FnOnce(&mut StageTelemetry)) {
        let pos = match self.stages.iter().position(|(id, _)| *id == stage) {
            Some(pos) => pos,
            None => {
                self.stages.push((stage, StageTelemetry::empty(stage)));
                self.stages.len() - 1
            }
        };
        f(&mut self.stages[pos].1);
    }

    /// Records that the run stopped early, with the stable
    /// [`AbortReason::name`](crate::AbortReason::name) string (schema v8).
    /// The first recorded reason wins.
    pub fn set_aborted(&mut self, reason: &str) {
        if self.aborted_reason.is_none() {
            self.aborted_reason = Some(reason.to_string());
        }
    }

    /// Times `f` as one execution of `stage`; the closure returns its value
    /// together with the stage's output item count.
    pub fn time<T>(
        &mut self,
        stage: StageId,
        items_in: usize,
        f: impl FnOnce() -> (T, usize),
    ) -> T {
        let start = Instant::now();
        let (value, items_out) = f();
        self.record(stage, items_in, items_out, start.elapsed(), None);
        value
    }

    /// Finalises the telemetry: stages are sorted into canonical order and
    /// the phase's total wall time is stamped.
    pub fn finish(mut self) -> PipelineTelemetry {
        self.stages.sort_by_key(|(id, _)| id.rank());
        PipelineTelemetry {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            phase: self.phase,
            threads: self.threads,
            stages: self.stages.into_iter().map(|(_, s)| s).collect(),
            total_wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
            aborted_reason: self.aborted_reason,
            obs_sinks: self.obs_sinks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique() {
        let names: Vec<&str> = StageId::ALL.iter().map(|s| s.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 8);
        assert_eq!(StageId::KernelTraining.to_string(), "kernel_training");
    }

    #[test]
    fn from_name_and_index_round_trip() {
        for (i, stage) in StageId::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(StageId::from_name(stage.name()), Some(*stage));
        }
        assert_eq!(StageId::from_name("scan_tile"), None);
        assert_eq!(StageId::from_name("unlabelled"), None);
    }

    #[test]
    fn recorder_accumulates_repeated_stages() {
        let mut rec = StageRecorder::new("training", 4);
        rec.record(
            StageId::PopulationBalancing,
            10,
            50,
            Duration::from_millis(2),
            None,
        );
        rec.record(
            StageId::PopulationBalancing,
            30,
            6,
            Duration::from_millis(3),
            None,
        );
        let t = rec.finish();
        let s = t.stage(StageId::PopulationBalancing).unwrap();
        assert_eq!(s.items_in, 40);
        assert_eq!(s.items_out, 56);
        assert!((s.wall_ms - 5.0).abs() < 1.0, "wall {}", s.wall_ms);
        assert_eq!(s.tasks_executed, 2);
    }

    #[test]
    fn record_batched_accumulates_batches() {
        let mut rec = StageRecorder::new("detection", 2);
        rec.record_batched(StageId::KernelEvaluation, 100, 3, Duration::ZERO, None, 2);
        rec.record_batched(StageId::KernelEvaluation, 60, 1, Duration::ZERO, None, 1);
        rec.record(StageId::ClipRemoval, 4, 4, Duration::ZERO, None);
        let t = rec.finish();
        assert_eq!(t.stage(StageId::KernelEvaluation).unwrap().batches, 3);
        assert_eq!(t.stage(StageId::ClipRemoval).unwrap().batches, 0);
    }

    #[test]
    fn finish_sorts_into_canonical_order() {
        let mut rec = StageRecorder::new("detection", 1);
        rec.record(StageId::ClipRemoval, 1, 1, Duration::ZERO, None);
        rec.record(StageId::ClipExtraction, 1, 1, Duration::ZERO, None);
        let t = rec.finish();
        assert_eq!(t.stages[0].stage, "clip_extraction");
        assert_eq!(t.stages[1].stage, "clip_removal");
        assert_eq!(t.phase, "detection");
        assert_eq!(t.threads, 1);
    }

    #[test]
    fn update_folds_into_existing_or_new_entries() {
        let mut rec = StageRecorder::new("scan", 2);
        rec.record(StageId::KernelEvaluation, 10, 2, Duration::ZERO, None);
        rec.update(StageId::KernelEvaluation, |s| s.admissions += 7);
        rec.update(StageId::KernelEvaluation, |s| s.admissions += 3);
        rec.update(StageId::DensityPrefilter, |s| s.failures += 1);
        rec.set_aborted("deadline_exceeded");
        rec.set_aborted("interrupted"); // first reason wins
        let t = rec.finish();
        let eval = t.stage(StageId::KernelEvaluation).unwrap();
        assert_eq!(eval.admissions, 10);
        assert_eq!(eval.items_in, 10);
        let pre = t.stage(StageId::DensityPrefilter).unwrap();
        assert_eq!(pre.failures, 1);
        assert_eq!(pre.wall_ms, 0.0);
        assert_eq!(pre.tasks_executed, 0);
        assert_eq!(t.aborted_reason.as_deref(), Some("deadline_exceeded"));
    }

    #[test]
    fn time_returns_closure_value() {
        let mut rec = StageRecorder::new("training", 1);
        let v = rec.time(StageId::KernelTraining, 3, || (vec![1, 2], 2));
        assert_eq!(v, vec![1, 2]);
        let t = rec.finish();
        assert_eq!(t.stage(StageId::KernelTraining).unwrap().items_out, 2);
    }
}

//! The end-to-end hotspot detector (Fig. 3).

use crate::balance::upsample_hotspots;
use crate::config::{AdmissionParams, DetectorConfig, DistributionFilter};
use crate::engine::{Executor, PipelineTelemetry, StageId, StageRecorder, TaskFailure};
use crate::feedback::{train_feedback, CompiledKernels, EvalEngine, EvalScratch, FeedbackKernel};
use crate::obs::ObsHub;
use crate::pattern::{Label, Pattern, TrainingSet};
use crate::scan::{ScanConfig, ScanReport, MAX_SCAN_TILES};
use crate::tile_cache;
use crate::training::{
    classify_patterns, train_oriented_kernels, ClusterKernel, PatternCluster, Region,
};
use hotspot_geom::{Orientation, Rect};
use hotspot_layout::{ClipShape, LayerId, Layout};
use hotspot_svm::{CompiledModel, TrainError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Error running the detector's training or evaluation pipeline.
#[derive(Debug)]
pub enum DetectError {
    /// The training set contains no hotspot patterns.
    NoHotspots,
    /// The configuration failed validation.
    Config(String),
    /// An SVM kernel failed to train.
    Svm(TrainError),
    /// The evaluated layout has no polygons on the requested layer.
    EmptyLayer(LayerId),
    /// The layer's bounding box needs more scan tiles than
    /// [`MAX_SCAN_TILES`].
    ExtentTooLarge {
        /// The layer's bounding box.
        bbox: Rect,
        /// Tiles the scan grid would hold (`u64::MAX` when the count
        /// overflows).
        tiles: u64,
    },
    /// A pipeline task panicked; the panic was isolated by the executor
    /// and surfaced here instead of aborting the process.
    TaskPanicked(TaskFailure),
    /// The tile result cache could not be appended to, synced, or
    /// compacted — or, under
    /// [`crate::ScanConfig::cache_verify`], a cache hit's stored outcome
    /// disagreed with a fresh recompute of the same tile.
    Cache(String),
    /// More tiles failed than
    /// [`FailurePolicy::SkipAndRecord`](crate::scan::FailurePolicy)
    /// tolerates.
    TooManyFailures {
        /// Tiles that failed (after their retry).
        failed: usize,
        /// The configured `max_failed_tiles` bound.
        max: usize,
    },
    /// A loaded model cannot score the vectors its kernels would be
    /// given (see [`HotspotDetector::validate`]).
    InvalidModel(String),
    /// A training pattern's window cannot be classified (see
    /// [`Pattern::window_fault`]).
    InvalidPattern {
        /// The pattern's class.
        label: Label,
        /// Its index among the training set's patterns of that class.
        index: usize,
        /// What is wrong with its window.
        reason: &'static str,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::NoHotspots => {
                write!(f, "training set contains no hotspot patterns")
            }
            DetectError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            DetectError::Svm(e) => write!(f, "svm training failed: {e}"),
            DetectError::EmptyLayer(layer) => {
                write!(f, "layout has no polygons on layer {layer}")
            }
            DetectError::ExtentTooLarge { bbox, tiles } => write!(
                f,
                "layer extent {bbox} needs {tiles} scan tiles, above the limit of {MAX_SCAN_TILES}"
            ),
            DetectError::TaskPanicked(failure) => {
                write!(f, "pipeline task panicked: {failure}")
            }
            DetectError::Cache(msg) => write!(f, "tile cache error: {msg}"),
            DetectError::TooManyFailures { failed, max } => write!(
                f,
                "{failed} tile(s) failed, exceeding the quarantine bound of {max}"
            ),
            DetectError::InvalidModel(msg) => write!(f, "inconsistent model: {msg}"),
            DetectError::InvalidPattern {
                label,
                index,
                reason,
            } => write!(f, "training {label} pattern {index}: {reason}"),
        }
    }
}

impl std::error::Error for DetectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DetectError::Svm(e) => Some(e),
            DetectError::TaskPanicked(failure) => Some(failure),
            _ => None,
        }
    }
}

impl From<TrainError> for DetectError {
    fn from(e: TrainError) -> Self {
        DetectError::Svm(e)
    }
}

/// Summary of the training phase, for diagnostics and the experiment
/// harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSummary {
    /// Hotspot patterns after upsampling.
    pub upsampled_hotspots: usize,
    /// Hotspot clusters (= SVM kernels).
    pub hotspot_clusters: usize,
    /// Nonhotspot clusters found.
    pub nonhotspot_clusters: usize,
    /// Nonhotspot medoids kept after downsampling.
    pub nonhotspot_medoids: usize,
    /// Whether a feedback kernel was trained.
    pub feedback_trained: bool,
    /// Wall-clock training time.
    #[serde(skip)]
    pub training_time: Duration,
    /// Per-stage telemetry of the training phase. Persisted with the model,
    /// so a later `detect` can merge it into a full eight-stage record.
    pub telemetry: PipelineTelemetry,
}

impl TrainingSummary {
    /// The paper's `#hs/#nhs` balance ratio after resampling (Table III).
    pub fn balance_ratio(&self) -> f64 {
        if self.nonhotspot_medoids == 0 {
            return 0.0;
        }
        self.upsampled_hotspots as f64 / self.nonhotspot_medoids as f64
    }
}

/// The detector's models flattened for the batched inference engine —
/// compiled once (eagerly at train time, lazily after deserialisation) and
/// shared read-only by every evaluation thread.
#[derive(Debug, Clone)]
struct CompiledSet {
    /// Compiled cluster kernels and their admission router.
    kernels: CompiledKernels,
    /// Compiled feedback kernel, when one was trained.
    feedback: Option<CompiledModel>,
    /// The model half of the tile-cache fingerprint (see
    /// [`HotspotDetector::model_hash`]), hashed on the first cached scan.
    model_hash: OnceLock<u64>,
}

/// Lazy [`CompiledSet`] holder, skipped by serde (the compiled form is a
/// pure acceleration of the persisted models, so it is rebuilt on demand).
#[derive(Debug, Clone, Default)]
struct CompiledCache(OnceLock<CompiledSet>);

/// The trained hotspot-detection framework.
///
/// Serialisable with serde, so a trained detector can be persisted and
/// reloaded (see the `hotspot` CLI's `train` / `detect` commands).
///
/// Clip evaluation runs through the compiled engines: the batched
/// flattened SVM evaluator ([`hotspot_svm::CompiledModel`]) and the
/// admission router ([`hotspot_topo::route::CentroidRouter`]). The
/// integration tests pin them to a naive per-kernel oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotspotDetector {
    kernels: Vec<ClusterKernel>,
    feedback: Option<FeedbackKernel>,
    config: DetectorConfig,
    summary: TrainingSummary,
    #[serde(skip)]
    compiled: CompiledCache,
    #[serde(skip)]
    obs: Option<Arc<ObsHub>>,
}

impl HotspotDetector {
    /// Starts a [`DetectorBuilder`] with the default (paper) configuration.
    ///
    /// This is the preferred way to configure a detector; constructing a
    /// [`DetectorConfig`] by struct literal is deprecated in favour of the
    /// builder's validated setters.
    ///
    /// # Examples
    ///
    /// Train a tiny detector on synthetic bar pairs:
    ///
    /// ```
    /// use hotspot_core::{HotspotDetector, Label, Pattern, TrainingSet};
    /// use hotspot_geom::{Point, Rect};
    /// use hotspot_layout::ClipShape;
    ///
    /// // Two bars separated by `gap` nm inside an ICCAD-2012 clip window.
    /// let clip = |gap: i64| {
    ///     let window = ClipShape::ICCAD2012.window_from_core_corner(Point::new(0, 0));
    ///     let rects = [
    ///         Rect::from_extents(0, 0, 300, 300),
    ///         Rect::from_extents(300 + gap, 0, 600 + gap, 300),
    ///     ];
    ///     Pattern::new(window, &rects)
    /// };
    /// let mut training = TrainingSet::new();
    /// for i in 0..4 {
    ///     training.push(clip(60 + 10 * i), Label::Hotspot);
    /// }
    /// for i in 0..8 {
    ///     training.push(clip(480 + 10 * i), Label::NonHotspot);
    /// }
    ///
    /// let config = HotspotDetector::builder().max_learning_rounds(2).build()?;
    /// let detector = HotspotDetector::train(&training, config)?;
    /// assert!(!detector.kernels().is_empty());
    /// # Ok::<(), hotspot_core::DetectError>(())
    /// ```
    pub fn builder() -> DetectorBuilder {
        DetectorBuilder::new()
    }

    /// Runs the full training phase of Fig. 3: upsampling, topological
    /// classification, population balancing, multiple-kernel learning, and
    /// feedback-kernel learning.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] for invalid configurations, an empty
    /// hotspot set, a pattern whose window cannot be classified, or SVM
    /// failures.
    pub fn train(
        training: &TrainingSet,
        config: DetectorConfig,
    ) -> Result<HotspotDetector, DetectError> {
        config.validate().map_err(DetectError::Config)?;
        if training.hotspots.is_empty() {
            return Err(DetectError::NoHotspots);
        }
        for (label, patterns) in [
            (Label::Hotspot, &training.hotspots),
            (Label::NonHotspot, &training.nonhotspots),
        ] {
            for (index, pattern) in patterns.iter().enumerate() {
                if let Some(reason) = pattern.window_fault() {
                    return Err(DetectError::InvalidPattern {
                        label,
                        index,
                        reason,
                    });
                }
            }
        }
        let start = Instant::now();
        let threads = config.effective_threads().max(1);
        let mut recorder = StageRecorder::new("training", threads);

        // Upsample hotspots by data shifting, classify both classes, and
        // downsample nonhotspots to cluster medoids.
        let hotspots = recorder.time(
            StageId::PopulationBalancing,
            training.hotspots.len(),
            || {
                let h = upsample_hotspots(&training.hotspots, config.data_shift);
                let n = h.len();
                (h, n)
            },
        );
        let (hotspot_clusters, nonhotspot_clusters) = recorder.time(
            StageId::TopologicalClassification,
            hotspots.len() + training.nonhotspots.len(),
            || {
                let h = classify_patterns(&hotspots, Region::Core, &config.cluster);
                let n = classify_patterns(&training.nonhotspots, Region::Core, &config.cluster);
                let count = h.len() + n.len();
                ((h, n), count)
            },
        );
        // `medoids[i]` is the medoid of `nonhotspot_clusters[i]`.
        let medoids = recorder.time(
            StageId::PopulationBalancing,
            training.nonhotspots.len(),
            || {
                let m: Vec<Pattern> = nonhotspot_clusters
                    .iter()
                    .map(|c| training.nonhotspots[c.medoid].clone())
                    .collect();
                let n = m.len();
                (m, n)
            },
        );
        let medoid_orientations: Vec<Orientation> = nonhotspot_clusters
            .iter()
            .map(PatternCluster::medoid_orientation)
            .collect();
        let executor = Executor::new(threads);
        let t_kernels = Instant::now();
        let (kernels, exec_stats) = train_oriented_kernels(
            &hotspots,
            &hotspot_clusters,
            &medoids,
            &medoid_orientations,
            &config,
            &executor,
        )?;
        recorder.record(
            StageId::KernelTraining,
            hotspot_clusters.len(),
            kernels.len(),
            t_kernels.elapsed(),
            Some(&exec_stats),
        );

        let feedback = if config.ablation.feedback {
            recorder.time(
                StageId::FeedbackTraining,
                nonhotspot_clusters.len(),
                || -> (Result<Option<FeedbackKernel>, TrainError>, usize) {
                    let fb = train_feedback(
                        &hotspots,
                        &hotspot_clusters,
                        &kernels,
                        &training.nonhotspots,
                        &nonhotspot_clusters,
                        &config,
                    );
                    let n = matches!(&fb, Ok(Some(_))) as usize;
                    (fb, n)
                },
            )?
        } else {
            None
        };

        let summary = TrainingSummary {
            upsampled_hotspots: hotspots.len(),
            hotspot_clusters: hotspot_clusters.len(),
            nonhotspot_clusters: nonhotspot_clusters.len(),
            nonhotspot_medoids: medoids.len(),
            feedback_trained: feedback.is_some(),
            training_time: start.elapsed(),
            telemetry: recorder.finish(),
        };

        let detector = HotspotDetector {
            kernels,
            feedback,
            config,
            summary,
            compiled: CompiledCache::default(),
            obs: None,
        };
        // Compile the inference engine eagerly so evaluation never pays the
        // flattening cost inside a timed phase.
        let _ = detector.compiled_set();
        Ok(detector)
    }

    /// Checks that every kernel, and the feedback kernel, can score the
    /// vectors it will be given: its `feature_len` holds the five
    /// nontopological features and equals its SVM's dimension, and the SVM's
    /// stored parts have that dimension ([`SvmModel::check_shape`]). Also
    /// checks that every kernel centroid holds `nx × ny` cells, which the
    /// admission router's flat centroid store relies on. Training always
    /// produces such a model; a hand-edited or corrupted model file may
    /// not, and scanning it would panic in every worker or misalign every
    /// later row. Scans run this check before their first tile.
    ///
    /// [`SvmModel::check_shape`]: hotspot_svm::SvmModel::check_shape
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidModel`] naming the first inconsistent
    /// kernel.
    pub fn validate(&self) -> Result<(), DetectError> {
        let kernels = self
            .kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (format!("kernel {i}"), k.feature_len, &k.model));
        let feedback = self
            .feedback
            .iter()
            .map(|f| ("the feedback kernel".to_string(), f.feature_len, &f.model));
        for (name, feature_len, model) in kernels.chain(feedback) {
            let dim = model.dim();
            if feature_len < 5 {
                return Err(DetectError::InvalidModel(format!(
                    "{name} has feature_len {feature_len}, below the 5 nontopological features"
                )));
            }
            if feature_len != dim {
                return Err(DetectError::InvalidModel(format!(
                    "{name} has feature_len {feature_len} but its SVM takes {dim} features"
                )));
            }
            model
                .check_shape()
                .map_err(|e| DetectError::InvalidModel(format!("{name}'s SVM: {e}")))?;
        }
        for (i, k) in self.kernels.iter().enumerate() {
            let c = &k.centroid;
            if c.nx().checked_mul(c.ny()) != Some(c.cells().len()) {
                return Err(DetectError::InvalidModel(format!(
                    "kernel {i}'s centroid has {} cells, not {} x {}",
                    c.cells().len(),
                    c.nx(),
                    c.ny()
                )));
            }
        }
        Ok(())
    }

    /// The compiled inference engine, built on first use.
    fn compiled_set(&self) -> &CompiledSet {
        self.compiled.0.get_or_init(|| CompiledSet {
            kernels: CompiledKernels::new(&self.kernels, &self.config),
            feedback: self.feedback.as_ref().map(|f| f.model.compile()),
            model_hash: OnceLock::new(),
        })
    }

    /// FNV-1a hash of the canonical JSON of the kernels and the feedback
    /// kernel: the config-independent half of the tile-cache fingerprint.
    /// Kernels never change after construction, so it is serialised once
    /// per detector, not once per scan.
    pub(crate) fn model_hash(&self) -> u64 {
        *self.compiled_set().model_hash.get_or_init(|| {
            let kernels = serde_json::to_string(&self.kernels).expect("kernels serialise");
            let feedback =
                serde_json::to_string(&self.feedback).expect("feedback kernel serialises");
            tile_cache::model_hash(&kernels, &feedback)
        })
    }

    /// An evaluation handle at the configured
    /// [`decision_threshold`](DetectorConfig::decision_threshold). The
    /// handle borrows the detector; pair it with an [`EvalScratch`] per
    /// worker.
    pub fn eval_engine(&self) -> EvalEngine<'_> {
        self.eval_engine_with_threshold(self.config.decision_threshold)
    }

    /// [`eval_engine`](Self::eval_engine) at an explicit decision
    /// threshold (for the Fig. 15 trade-off sweep).
    pub fn eval_engine_with_threshold(&self, threshold: f64) -> EvalEngine<'_> {
        let set = self.compiled_set();
        let feedback = self
            .feedback
            .as_ref()
            .filter(|_| self.config.ablation.feedback)
            .zip(set.feedback.as_ref());
        EvalEngine::new(
            &self.kernels,
            &set.kernels,
            feedback,
            &self.config,
            threshold,
        )
    }

    /// Returns this detector with its worker-thread count overridden
    /// (0 = one per core), e.g. to re-parallelise a deserialised model.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Returns this detector with an observability hub attached:
    /// [`scan_layout`](Self::scan_layout) (and so
    /// [`detect`](Self::detect)) emits span events and records
    /// lock-free progress counters into `hub`, and the run's telemetry
    /// lists the hub's sinks (schema v6). Observation only — reports,
    /// digests and telemetry contents are bit-identical with and without
    /// a hub. Not persisted with the model.
    pub fn with_obs(mut self, hub: Arc<ObsHub>) -> Self {
        self.obs = Some(hub);
        self
    }

    /// The attached observability hub, when one was installed with
    /// [`with_obs`](Self::with_obs).
    pub fn obs(&self) -> Option<&Arc<ObsHub>> {
        self.obs.as_ref()
    }

    /// The trained per-cluster kernels.
    pub fn kernels(&self) -> &[ClusterKernel] {
        &self.kernels
    }

    /// The feedback kernel, when one was trained.
    pub fn feedback(&self) -> Option<&FeedbackKernel> {
        self.feedback.as_ref()
    }

    /// The configuration the detector was trained with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Training-phase statistics.
    pub fn summary(&self) -> &TrainingSummary {
        &self.summary
    }

    /// Classifies a single clip pattern (multiple kernels, then feedback).
    pub fn classify(&self, pattern: &Pattern) -> bool {
        self.classify_with_threshold(pattern, self.config.decision_threshold)
    }

    /// Calibrated hotspot probability of a clip: the maximum Platt
    /// probability over the kernels the clip routes to, or `None` when no
    /// kernel's topology or density gate admits it.
    pub fn classify_probability(&self, pattern: &Pattern) -> Option<f64> {
        let engine = self.eval_engine();
        let mut scratch = EvalScratch::new();
        let mut best: Option<f64> = None;
        engine.for_each_admitted(pattern, &mut scratch, |idx, decision| {
            let p = self.kernels[idx].platt.probability(decision);
            if best.is_none_or(|b| p > b) {
                best = Some(p);
            }
        });
        best
    }

    /// Classification at an explicit decision threshold (for the Fig. 15
    /// trade-off sweep).
    pub fn classify_with_threshold(&self, pattern: &Pattern, threshold: f64) -> bool {
        let (flagged, reclaimed) = self.flag_pattern(pattern, threshold);
        flagged && !reclaimed
    }

    /// Runs the full evaluation phase of Fig. 3 on a testing layout: clip
    /// extraction, multiple-kernel and feedback evaluation, then redundant
    /// clip removal. This is [`scan_layout`](Self::scan_layout) at the
    /// default [`ScanConfig`], whose conservative prefilter keeps every
    /// clip whole-layout extraction would keep.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::EmptyLayer`] when the layout has no polygons
    /// on `layer`, and otherwise fails as
    /// [`scan_layout`](Self::scan_layout) does.
    pub fn detect(&self, layout: &Layout, layer: LayerId) -> Result<ScanReport, DetectError> {
        self.detect_with_threshold(layout, layer, self.config.decision_threshold)
    }

    /// Evaluation with an explicit decision threshold: the streaming scan
    /// at the default [`ScanConfig`].
    ///
    /// # Errors
    ///
    /// Same as [`scan_layout`](Self::scan_layout).
    pub fn detect_with_threshold(
        &self,
        layout: &Layout,
        layer: LayerId,
        threshold: f64,
    ) -> Result<ScanReport, DetectError> {
        self.scan_layout_with_threshold(layout, layer, &ScanConfig::default(), threshold)
    }

    /// [`flag_with_engine`](Self::flag_with_engine) on throwaway scratch,
    /// for single-clip entry points.
    pub(crate) fn flag_pattern(&self, pattern: &Pattern, threshold: f64) -> (bool, bool) {
        let engine = self.eval_engine_with_threshold(threshold);
        Self::flag_with_engine(&engine, pattern, &mut EvalScratch::new())
    }

    /// `(flagged_by_kernels, reclaimed_by_feedback)` for one clip. Shared
    /// by the single-clip entry points and the scan's tile loop; `scratch`
    /// carries the buffers one tile's clips reuse across calls.
    pub(crate) fn flag_with_engine(
        engine: &EvalEngine<'_>,
        pattern: &Pattern,
        scratch: &mut EvalScratch,
    ) -> (bool, bool) {
        let flags = engine.flagging_kernels(pattern, scratch);
        if flags.is_empty() {
            return (false, false);
        }
        let reclaimed = matches!(engine.feedback_confirms(pattern, scratch), Some(false));
        (true, reclaimed)
    }
}

/// Validated, fluent construction of a [`DetectorConfig`] — and from there a
/// trained [`HotspotDetector`] — starting from the paper's defaults.
///
/// Unlike filling a [`DetectorConfig`] struct literal, the builder checks
/// every setting at [`build`](DetectorBuilder::build) time and reports the
/// first violation as [`DetectError::Config`]:
///
/// ```
/// use hotspot_core::HotspotDetector;
///
/// let config = HotspotDetector::builder()
///     .threads(2)
///     .decision_threshold(0.3)
///     .build()
///     .unwrap();
/// assert_eq!(config.threads, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DetectorBuilder {
    config: DetectorConfig,
    threads: Option<usize>,
    clip_sides: Option<(i64, i64)>,
}

impl DetectorBuilder {
    /// Starts from the paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration (still validated at build).
    pub fn from_config(config: DetectorConfig) -> Self {
        DetectorBuilder {
            config,
            threads: None,
            clip_sides: None,
        }
    }

    /// Sets an explicit worker-thread count. Must be at least 1; use
    /// [`auto_threads`](Self::auto_threads) for one thread per core.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Uses one worker thread per available core (the default).
    pub fn auto_threads(mut self) -> Self {
        self.threads = None;
        self.config.threads = 0;
        self
    }

    /// Sets the core and clip side lengths in nanometres; validated at
    /// build time (`0 < core < clip`, even difference).
    pub fn clip_shape(mut self, core_side: i64, clip_side: i64) -> Self {
        self.clip_sides = Some((core_side, clip_side));
        self
    }

    /// Sets the initial SVM penalty `C`.
    pub fn initial_c(mut self, c: f64) -> Self {
        self.config.initial_c = c;
        self
    }

    /// Sets the initial RBF width `γ`.
    pub fn initial_gamma(mut self, gamma: f64) -> Self {
        self.config.initial_gamma = gamma;
        self
    }

    /// Bounds the iterative `(C, γ)` adaptation rounds.
    pub fn max_learning_rounds(mut self, rounds: usize) -> Self {
        self.config.max_learning_rounds = rounds;
        self
    }

    /// Sets the SVM decision threshold at evaluation.
    pub fn decision_threshold(mut self, threshold: f64) -> Self {
        self.config.decision_threshold = threshold;
        self
    }

    /// Sets the kernel-admission parameters (fuzziness factor and radius
    /// floor); validated at build time.
    pub fn admission(mut self, params: AdmissionParams) -> Self {
        self.config.admission = params;
        self
    }

    /// Sets the data-shifting distance for hotspot upsampling.
    pub fn data_shift(mut self, shift: i64) -> Self {
        self.config.data_shift = shift;
        self
    }

    /// Sets the polygon-distribution filter for clip extraction.
    pub fn distribution(mut self, filter: DistributionFilter) -> Self {
        self.config.distribution = filter;
        self
    }

    /// Sets the ablation switches (Table III rows).
    pub fn ablation(mut self, switches: crate::AblationSwitches) -> Self {
        self.config.ablation = switches;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Config`] describing the first violated
    /// constraint — a zero thread count, an invalid clip shape, or anything
    /// [`DetectorConfig::validate`] rejects.
    pub fn build(self) -> Result<DetectorConfig, DetectError> {
        let mut config = self.config;
        if let Some(threads) = self.threads {
            if threads == 0 {
                return Err(DetectError::Config(
                    "worker threads must be at least 1; use auto_threads() for one per core".into(),
                ));
            }
            config.threads = threads;
        }
        if let Some((core, clip)) = self.clip_sides {
            config.clip_shape = ClipShape::new(core, clip)
                .map_err(|e| DetectError::Config(format!("invalid clip shape: {e}")))?;
        }
        config.validate().map_err(DetectError::Config)?;
        Ok(config)
    }

    /// Validates the configuration and trains a detector on `training`.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] for invalid settings, an empty hotspot set,
    /// or SVM failures.
    pub fn train(self, training: &TrainingSet) -> Result<HotspotDetector, DetectError> {
        HotspotDetector::train(training, self.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::{Point, Rect};
    use hotspot_layout::ClipShape;

    fn shape() -> ClipShape {
        ClipShape::ICCAD2012
    }

    /// Builds a training clip anchored like layout-clip extraction does:
    /// the core's bottom-left corner sits at `corner` and the motif rects
    /// are corner-relative. Training clips and extracted clips then share
    /// the same frame, as the contest's foundry-provided clips do.
    fn pattern_at(corner: Point, rects: &[Rect]) -> Pattern {
        let window = shape().window_from_core_corner(corner);
        let abs: Vec<Rect> = rects.iter().map(|r| r.translate(corner)).collect();
        Pattern::new(window, &abs)
    }

    /// Hotspot motif: two bars with a dangerously narrow gap, anchored at
    /// the origin corner.
    fn hs_rects(gap: i64) -> Vec<Rect> {
        vec![
            Rect::from_extents(0, 0, 300, 300),
            Rect::from_extents(300 + gap, 0, 600 + gap, 300),
        ]
    }

    /// Safe motif: same topology, generous gap (still inside the core).
    fn safe_rects(gap: i64) -> Vec<Rect> {
        hs_rects(gap)
    }

    fn training_set() -> TrainingSet {
        let mut ts = TrainingSet::new();
        for i in 0..4 {
            ts.push(
                pattern_at(Point::new(0, 0), &hs_rects(60 + 10 * i)),
                crate::Label::Hotspot,
            );
        }
        for i in 0..8 {
            ts.push(
                pattern_at(Point::new(0, 0), &safe_rects(480 + 10 * i)),
                crate::Label::NonHotspot,
            );
        }
        ts
    }

    fn fast_config() -> DetectorConfig {
        DetectorConfig {
            max_learning_rounds: 3,
            threads: 2,
            // The unit-test layouts are sparse; keep the paper's bound for
            // the dense benchmark layouts only.
            distribution: crate::DistributionFilter {
                min_core_density: 0.001,
                min_polygon_count: 1,
                max_boundary_bbox_distance: 4800,
            },
            ..Default::default()
        }
    }

    #[test]
    fn trains_and_classifies_patterns() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        assert!(!det.kernels().is_empty());
        assert!(det.classify(&pattern_at(Point::new(0, 0), &hs_rects(80))));
        assert!(!det.classify(&pattern_at(Point::new(0, 0), &safe_rects(500))));
    }

    #[test]
    fn patterns_with_unclassifiable_windows_are_rejected() {
        let mut ts = training_set();
        ts.hotspots[2].window.core = Rect::from_extents(0, 0, 0, 1200);
        let err = HotspotDetector::train(&ts, fast_config()).unwrap_err();
        assert!(matches!(
            err,
            DetectError::InvalidPattern {
                label: Label::Hotspot,
                index: 2,
                reason: "empty core window",
            }
        ));
        assert_eq!(
            err.to_string(),
            "training hotspot pattern 2: empty core window"
        );

        let mut ts = training_set();
        ts.nonhotspots[5].window.core = ts.nonhotspots[5].window.clip.translate(Point::new(1, 0));
        assert!(matches!(
            HotspotDetector::train(&ts, fast_config()),
            Err(DetectError::InvalidPattern {
                label: Label::NonHotspot,
                index: 5,
                reason: "core window outside its clip window",
            })
        ));
    }

    #[test]
    fn training_errors() {
        let mut empty = TrainingSet::new();
        empty.push(
            pattern_at(Point::new(0, 0), &safe_rects(500)),
            crate::Label::NonHotspot,
        );
        assert!(matches!(
            HotspotDetector::train(&empty, fast_config()),
            Err(DetectError::NoHotspots)
        ));

        let bad = DetectorConfig {
            reframe_separation: 10_000,
            ..Default::default()
        };
        assert!(matches!(
            HotspotDetector::train(&training_set(), bad),
            Err(DetectError::Config(_))
        ));
    }

    #[test]
    fn builder_validates_settings() {
        // Zero threads is rejected with a pointer at auto_threads().
        let err = HotspotDetector::builder().threads(0).build().unwrap_err();
        assert!(matches!(&err, DetectError::Config(msg) if msg.contains("auto_threads")));

        // Core must not exceed the clip.
        assert!(matches!(
            HotspotDetector::builder().clip_shape(4800, 1200).build(),
            Err(DetectError::Config(_))
        ));
        // Negative (asymmetric / non-positive) geometry is rejected too.
        assert!(matches!(
            HotspotDetector::builder().clip_shape(-100, 4800).build(),
            Err(DetectError::Config(_))
        ));
        assert!(matches!(
            HotspotDetector::builder().clip_shape(1200, 4801).build(),
            Err(DetectError::Config(_))
        ));

        // Settings flow through validation into the config.
        let cfg = HotspotDetector::builder()
            .threads(3)
            .clip_shape(1200, 4800)
            .decision_threshold(0.3)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.clip_shape, ClipShape::ICCAD2012);
        assert_eq!(cfg.decision_threshold, 0.3);
    }

    #[test]
    fn builder_trains_a_detector() {
        let det = DetectorBuilder::from_config(fast_config())
            .threads(2)
            .train(&training_set())
            .unwrap();
        assert!(!det.kernels().is_empty());
        assert_eq!(det.config().threads, 2);
    }

    #[test]
    fn detect_rejects_empty_layer() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let layout = Layout::new("empty");
        assert!(matches!(
            det.detect(&layout, LayerId::METAL1),
            Err(DetectError::EmptyLayer(l)) if l == LayerId::METAL1
        ));
    }

    #[test]
    fn telemetry_covers_both_phases() {
        use crate::engine::StageId;

        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let t = &det.summary().telemetry;
        assert_eq!(t.phase, "training");
        for stage in [
            StageId::PopulationBalancing,
            StageId::TopologicalClassification,
            StageId::KernelTraining,
            StageId::FeedbackTraining,
        ] {
            assert!(t.stage(stage).is_some(), "missing training stage {stage}");
        }

        let mut layout = Layout::new("t");
        let layer = LayerId::METAL1;
        for r in hs_rects(70) {
            layout.add_rect(layer, r.translate(Point::new(20_000, 20_000)));
        }
        let report = det.detect(&layout, layer).unwrap();
        let d = &report.telemetry;
        assert_eq!(d.phase, "scan");
        for stage in [
            StageId::DensityPrefilter,
            StageId::ClipExtraction,
            StageId::KernelEvaluation,
            StageId::ClipRemoval,
        ] {
            assert!(d.stage(stage).is_some(), "missing detection stage {stage}");
        }

        // The merged record always carries all eight canonical stages.
        let merged = t.merge(d);
        assert_eq!(merged.stages.len(), 8);
    }

    #[test]
    fn summary_reflects_balancing() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let s = det.summary();
        // 4 hotspots upsampled ×5 (original + 4 shifts, minus any empty-core
        // derivatives).
        assert!(s.upsampled_hotspots >= 4);
        assert!(s.hotspot_clusters >= 1);
        assert!(s.balance_ratio() > 0.0);
    }

    /// Asserts that `bad` fails validation with a message containing
    /// `needle`, and that a scan rejects it before any tile runs.
    fn assert_rejected(bad: HotspotDetector, needle: &str) {
        let err = bad.validate().unwrap_err();
        assert!(
            matches!(&err, DetectError::InvalidModel(m) if m.contains(needle)),
            "{err}"
        );
        let mut layout = Layout::new("t");
        for r in hs_rects(70) {
            layout.add_rect(LayerId::METAL1, r.translate(Point::new(20_000, 20_000)));
        }
        let err = bad.detect(&layout, LayerId::METAL1).unwrap_err();
        assert!(matches!(err, DetectError::InvalidModel(_)), "{err}");
    }

    /// `value` read back from its JSON with `edit` applied.
    fn edited<T: Serialize + serde::de::DeserializeOwned>(
        value: &T,
        edit: impl Fn(&str) -> String,
    ) -> T {
        let json = serde_json::to_string(value).unwrap();
        let changed = edit(&json);
        assert_ne!(changed, json, "the edit changed nothing");
        serde_json::from_str(&changed).unwrap()
    }

    /// `json` with the value after the first `key` cut (the key must open
    /// an array of at least two values).
    fn cut_first_value(json: &str, key: &str) -> String {
        let at = json.find(key).expect("key present") + key.len();
        let end = at + json[at..].find(',').expect("a second value");
        format!("{}{}", &json[..at], &json[end + 1..])
    }

    #[test]
    fn inconsistent_models_are_rejected_before_any_tile() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        det.validate().unwrap();
        let dim = det.kernels()[0].model.dim();

        let mut short = det.clone();
        for k in &mut short.kernels {
            k.feature_len = 3;
        }
        assert_rejected(short, "kernel 0 has feature_len 3, below");

        let mut mismatched = det.clone();
        mismatched.feedback = Some(FeedbackKernel {
            model: det.kernels()[0].model.clone(),
            feature_len: dim + 6,
            extras_seen: 0,
        });
        assert_rejected(mismatched, "the feedback kernel has feature_len");
    }

    #[test]
    fn a_short_support_vector_is_rejected() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let mut bad = det.clone();
        bad.kernels[0].model = edited(&det.kernels[0].model, |j| {
            cut_first_value(j, r#""support":[["#)
        });
        assert_rejected(bad, "kernel 0's SVM: support vector 0 has");
    }

    #[test]
    fn a_coefficient_count_off_the_support_vectors_is_rejected() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let mut bad = det.clone();
        bad.kernels[0].model = edited(&det.kernels[0].model, |j| {
            j.replacen(r#""coef":["#, r#""coef":[0.5,"#, 1)
        });
        assert_rejected(bad, "kernel 0's SVM: ");
    }

    #[test]
    fn a_short_scaler_is_rejected() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let mut bad = det.clone();
        bad.kernels[0].model = edited(&det.kernels[0].model, |j| {
            cut_first_value(j, r#""spans":["#)
        });
        assert_rejected(bad, "kernel 0's SVM: scaler spans have");
    }

    #[test]
    fn a_short_centroid_is_rejected() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let mut bad = det.clone();
        let last = bad.kernels.len() - 1;
        bad.kernels[last].centroid = edited(&det.kernels[last].centroid, |j| {
            cut_first_value(j, r#""cells":["#)
        });
        assert_rejected(
            bad,
            &format!("kernel {last}'s centroid has 63 cells, not 8 x 8"),
        );
    }

    #[test]
    fn detect_finds_planted_hotspot() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let mut layout = Layout::new("t");
        let layer = LayerId::METAL1;
        // Plant a hotspot motif and a safe motif far apart.
        for r in hs_rects(70) {
            layout.add_rect(layer, r.translate(Point::new(20_000, 20_000)));
        }
        for r in safe_rects(500) {
            layout.add_rect(layer, r.translate(Point::new(60_000, 60_000)));
        }
        let report = det.detect(&layout, layer).unwrap();
        assert!(report.clips_extracted > 0);
        let hotspot_window = shape().window_centered(Point::new(20_000, 20_000));
        assert!(
            report
                .reported
                .iter()
                .any(|w| w.is_hit(&hotspot_window, 0.2)),
            "planted hotspot not reported; {} clips reported",
            report.reported.len()
        );
    }

    #[test]
    fn threshold_monotonically_prunes_reports() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let mut layout = Layout::new("t");
        let layer = LayerId::METAL1;
        for i in 0..4 {
            for r in hs_rects(70 + i * 5) {
                layout.add_rect(layer, r.translate(Point::new(20_000 * (i + 1), 20_000)));
            }
        }
        let lo = det.detect_with_threshold(&layout, layer, 0.0).unwrap();
        let hi = det.detect_with_threshold(&layout, layer, 2.0).unwrap();
        assert!(hi.clips_flagged <= lo.clips_flagged);
    }

    #[test]
    fn parallel_and_sequential_detection_agree() {
        let det_seq = HotspotDetector::train(
            &training_set(),
            DetectorConfig {
                threads: 1,
                ..fast_config()
            },
        )
        .unwrap();
        let det_par = HotspotDetector::train(
            &training_set(),
            DetectorConfig {
                threads: 4,
                ..fast_config()
            },
        )
        .unwrap();
        let mut layout = Layout::new("t");
        let layer = LayerId::METAL1;
        for r in hs_rects(70) {
            layout.add_rect(layer, r.translate(Point::new(20_000, 20_000)));
        }
        let a = det_seq.detect(&layout, layer).unwrap();
        let b = det_par.detect(&layout, layer).unwrap();
        assert_eq!(a.reported, b.reported);
        assert_eq!(a.clips_extracted, b.clips_extracted);
    }

    #[test]
    fn probabilities_are_calibrated_and_ordered() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let hot = pattern_at(Point::new(0, 0), &hs_rects(75));
        let cold = pattern_at(Point::new(0, 0), &safe_rects(500));
        let p_hot = det.classify_probability(&hot).expect("routes to a kernel");
        assert!((0.0..=1.0).contains(&p_hot));
        assert!(p_hot > 0.5, "hotspot probability {p_hot}");
        if let Some(p_cold) = det.classify_probability(&cold) {
            assert!(p_cold < p_hot, "cold {p_cold} >= hot {p_hot}");
        }
        // A pattern far from every cluster routes nowhere.
        let alien = pattern_at(Point::new(0, 0), &[Rect::from_extents(0, 0, 1100, 1100)]);
        assert_eq!(det.classify_probability(&alien), None);
    }

    #[test]
    fn topology_off_is_rejected_naming_the_single_kernel_baseline() {
        let cfg = DetectorConfig {
            ablation: crate::AblationSwitches {
                topology: false,
                removal: false,
                feedback: false,
            },
            ..fast_config()
        };
        let err = HotspotDetector::train(&training_set(), cfg).unwrap_err();
        assert!(
            matches!(&err, DetectError::Config(msg) if msg.contains("hotspot_baselines::SingleKernelSvm")),
            "{err}"
        );
    }

    #[test]
    fn removal_toggle_changes_report_shape() {
        let det_on = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let cfg_off = DetectorConfig {
            ablation: crate::AblationSwitches {
                removal: false,
                ..Default::default()
            },
            ..fast_config()
        };
        let det_off = HotspotDetector::train(&training_set(), cfg_off).unwrap();
        let mut layout = Layout::new("t");
        let layer = LayerId::METAL1;
        // A dense row of hotspot motifs so clips pile up.
        for i in 0..6 {
            for r in hs_rects(70) {
                layout.add_rect(layer, r.translate(Point::new(20_000 + i * 700, 20_000)));
            }
        }
        let with = det_on.detect(&layout, layer).unwrap();
        let without = det_off.detect(&layout, layer).unwrap();
        assert!(
            with.reported.len() <= without.reported.len(),
            "removal must not increase the report count ({} vs {})",
            with.reported.len(),
            without.reported.len()
        );
    }

    #[test]
    fn report_scoring_integration() {
        let det = HotspotDetector::train(&training_set(), fast_config()).unwrap();
        let mut layout = Layout::new("t");
        let layer = LayerId::METAL1;
        for r in hs_rects(70) {
            layout.add_rect(layer, r.translate(Point::new(20_000, 20_000)));
        }
        let report = det.detect(&layout, layer).unwrap();
        let actual = vec![shape().window_centered(Point::new(20_000, 20_000))];
        let eval = report.score_against(&actual, 0.2, 100.0);
        assert_eq!(eval.actual, 1);
        assert!(eval.accuracy() >= 0.0);
    }
}

//! Feedback-kernel learning and evaluation (Section III-D4, Figs. 9–10).
//!
//! After multiple-kernel training, the nonhotspot medoids are self-evaluated
//! through the kernels. Medoids still flagged as hotspots ("extras") reveal
//! clusters whose *core* looks like a hotspot but whose *ambit* says
//! otherwise (Fig. 10). Those clusters are re-classified with the ambit
//! included, and a dedicated kernel is trained on the resulting sub-cluster
//! medoids (nonhotspot side) against the hotspots of the offending kernels
//! (hotspot side). At evaluation time the feedback kernel reclaims flagged
//! clips back to nonhotspot, cutting the false alarm without touching the
//! hit count of true hotspots.

use crate::config::DetectorConfig;
use crate::memo::EvalMemo;
use crate::pattern::Pattern;
use crate::training::{
    classify_patterns, critical_features, density_grid, feature_vector_padded, train_iterative,
    ClusterKernel, FeatureMemo, PatternCluster, Region,
};
use hotspot_geom::{AreaTableGrid, DensityGrid, Rect};
use hotspot_svm::{BatchEvaluator, CompiledModel, SvmModel, TrainError};
use hotspot_topo::route::{Admission, CentroidRouter, RouteStats};
use hotspot_topo::{CriticalFeatures, TopoSignature};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Reusable per-worker scratch for [`EvalEngine`] calls: the batched SVM
/// evaluator's buffers, the router's admission list, the clip's decision
/// list, and the admission telemetry counters. Create one per worker (or
/// per batch) and reuse it across clips — queries are allocation-free once
/// the buffers have grown to their high-water marks.
#[derive(Debug, Default)]
pub struct EvalScratch {
    eval: BatchEvaluator,
    admissions: Vec<Admission>,
    admitted: usize,
    rows_pruned: usize,
    /// The current clip's `(kernel, decision)` list, evaluated or served
    /// by the scan's [`EvalMemo`].
    decisions: Vec<(usize, f64)>,
    /// The current clip's packed [`EvalMemo`] key.
    key: Vec<[u16; 4]>,
    /// The current clip's core rects, relative to its core window.
    core: Vec<Rect>,
    /// Padded subtile summed-area tables over the current scan tile's
    /// dissected rects, rebuilt in place by the tile loop (allocations
    /// persist across tiles). When live, every clip of the tile rasterises
    /// its core density grid from its subtile's shared table instead of
    /// sweeping its rects.
    raster: AreaTableGrid,
    /// Whether `raster` holds the *current* tile's tables. Cleared at the
    /// start of every tile so stale tables never leak across tiles.
    raster_live: bool,
    /// Reused clip-grid buffer for the in-place table rasterisation, so the
    /// per-clip grid costs no allocation once grown.
    grid: DensityGrid,
}

impl EvalScratch {
    /// Fresh scratch with empty buffers and zeroed counters.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Clip-kernel pairs admitted to SVM evaluation (topology or density)
    /// since construction or the last [`reset_counters`](Self::reset_counters).
    pub fn admissions(&self) -> u64 {
        self.admitted as u64
    }

    /// Centroid-orientation rows the admission router pruned without
    /// computing their full exact distance (mass gate + block-sum screens +
    /// early exit).
    pub fn admission_skips(&self) -> u64 {
        self.rows_pruned as u64
    }

    /// Zeroes the telemetry counters, keeping the grown buffers.
    pub fn reset_counters(&mut self) {
        self.admitted = 0;
        self.rows_pruned = 0;
    }

    /// Marks the shared per-tile summed-area tables stale. The scan loop
    /// calls this unconditionally at the start of every tile, so tables
    /// never leak across tiles; the storage itself is retained for the
    /// next rebuild.
    pub(crate) fn clear_raster_tables(&mut self) {
        self.raster_live = false;
    }

    /// Rebuilds the shared per-tile summed-area tables in place (see
    /// [`AreaTableGrid::rebuild_for`]) and marks them live for the
    /// current tile.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rebuild_raster_tables(
        &mut self,
        region: &Rect,
        stride: i64,
        pad: i64,
        rects: &[Rect],
        max_cells_per_table: usize,
        windows: &[Rect],
    ) {
        self.raster
            .rebuild_for(region, stride, pad, rects, max_cells_per_table, windows);
        self.raster_live = true;
    }
}

/// The compiled form of a kernel set: each kernel's flattened SVM and the
/// admission router over their centroids. Built once per detector (and
/// once for the feedback self-evaluation) and shared read-only by every
/// evaluation thread.
#[derive(Debug, Clone)]
pub(crate) struct CompiledKernels {
    /// Compiled SVMs, indexed 1:1 with the kernels.
    pub(crate) models: Vec<CompiledModel>,
    /// Every kernel centroid with its mass and block sums, for the
    /// density side of admission.
    pub(crate) router: CentroidRouter,
}

impl CompiledKernels {
    /// Compiles `kernels` for queries of `config`'s density grid.
    pub(crate) fn new(kernels: &[ClusterKernel], config: &DetectorConfig) -> Self {
        let grid = config.cluster.grid;
        CompiledKernels {
            models: kernels.iter().map(|k| k.model.compile()).collect(),
            router: CentroidRouter::compile(
                kernels
                    .iter()
                    .map(|k| (&k.centroid, config.admission.threshold(k.radius))),
                grid,
                grid,
            ),
        }
    }
}

/// A borrowing evaluation handle: kernels with their compiled SVMs and
/// admission router, the feedback kernel, and the config whose
/// [`decision_threshold`](DetectorConfig::decision_threshold) it flags
/// above, bound together so callers cannot mix mismatched pairs.
///
/// Obtain one from [`crate::HotspotDetector::eval_engine`]. The naive
/// per-kernel search it is pinned against lives in the integration tests'
/// oracle.
#[derive(Debug, Clone, Copy)]
pub struct EvalEngine<'d> {
    pub(crate) kernels: &'d [ClusterKernel],
    pub(crate) models: &'d [CompiledModel],
    pub(crate) router: &'d CentroidRouter,
    /// The feedback kernel with its compiled SVM; `None` when none was
    /// trained or the ablation disables it.
    pub(crate) feedback: Option<(&'d FeedbackKernel, &'d CompiledModel)>,
    pub(crate) config: &'d DetectorConfig,
    pub(crate) memo: Option<&'d EvalMemo>,
}

impl<'d> EvalEngine<'d> {
    /// An engine over `kernels` and their compiled form, with no memo.
    pub(crate) fn new(
        kernels: &'d [ClusterKernel],
        compiled: &'d CompiledKernels,
        feedback: Option<(&'d FeedbackKernel, &'d CompiledModel)>,
        config: &'d DetectorConfig,
    ) -> Self {
        EvalEngine {
            kernels,
            models: &compiled.models,
            router: &compiled.router,
            feedback,
            config,
            memo: None,
        }
    }

    /// This engine serving repeated clip cores from `memo`. Decisions,
    /// visit order and admission counters are exactly those of the
    /// un-memoised engine.
    pub(crate) fn with_memo(self, memo: &'d EvalMemo) -> Self {
        EvalEngine {
            memo: Some(memo),
            ..self
        }
    }

    /// The kernels of the multiple-kernel stage that flag `pattern` as a
    /// hotspot (empty = classified nonhotspot everywhere).
    ///
    /// A kernel participates when the pattern's core topology matches its
    /// cluster signature exactly, or the core density grid lies within the
    /// kernel's admission threshold
    /// ([`crate::AdmissionParams::threshold`]) of the cluster centroid
    /// under the eq. (1) distance. Features are extracted once per clip
    /// and padded vectors are shared across kernels of the same feature
    /// length ([`FeatureMemo`]).
    ///
    /// ```
    /// use hotspot_core::{DetectorConfig, EvalScratch, HotspotDetector, Label, Pattern, TrainingSet};
    /// use hotspot_geom::{Point, Rect};
    /// use hotspot_layout::ClipShape;
    ///
    /// // A toy training set: narrow-gap bar pairs are hotspots.
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
    /// let config = DetectorConfig {
    ///     max_learning_rounds: 2,
    ///     ..Default::default()
    /// };
    /// let detector = HotspotDetector::train(&training, config)?;
    ///
    /// // Reuse one scratch across clips: queries are allocation-free once
    /// // its buffers have grown to their high-water marks.
    /// let engine = detector.eval_engine();
    /// let mut scratch = EvalScratch::new();
    /// let flagged_by = engine.flagging_kernels(&clip(65), &mut scratch);
    /// assert!(!flagged_by.is_empty(), "a narrow-gap clip should be flagged");
    /// assert!(engine.flagging_kernels(&clip(500), &mut scratch).is_empty());
    /// # Ok::<(), hotspot_core::DetectError>(())
    /// ```
    pub fn flagging_kernels(&self, pattern: &Pattern, scratch: &mut EvalScratch) -> Vec<usize> {
        let threshold = self.config.decision_threshold;
        let mut out = Vec::new();
        self.for_each_admitted(pattern, scratch, |idx, decision| {
            if decision > threshold {
                out.push(idx);
            }
        });
        out
    }

    /// Runs the admission search for `pattern` and invokes `visit` with
    /// `(kernel index, decision value)` for every admitted kernel, in
    /// kernel order. With a memo attached, a clip whose core repeats an
    /// earlier one up to translation replays the memoised list.
    pub(crate) fn for_each_admitted(
        &self,
        pattern: &Pattern,
        scratch: &mut EvalScratch,
        mut visit: impl FnMut(usize, f64),
    ) {
        let rows_pruned = self.admitted_decisions(pattern, scratch);
        scratch.admitted += scratch.decisions.len();
        scratch.rows_pruned += rows_pruned;
        for &(idx, decision) in &scratch.decisions {
            visit(idx, decision);
        }
    }

    /// Fills `scratch.decisions` with the clip's admitted `(kernel,
    /// decision)` list, from the memo when it holds the clip's core, and
    /// returns the router rows pruned for it.
    fn admitted_decisions(&self, pattern: &Pattern, scratch: &mut EvalScratch) -> usize {
        let window = pattern.window.core;
        let mut rects = std::mem::take(&mut scratch.core);
        rects.clear();
        rects.extend(
            pattern
                .rects
                .iter()
                .filter_map(|r| r.intersection(&window))
                .map(|r| r.translate(-window.min())),
        );
        let memo = self
            .memo
            .filter(|_| EvalMemo::pack_key(&window, &rects, &mut scratch.key));
        let rows_pruned = match memo.and_then(|m| m.get(&scratch.key, &mut scratch.decisions)) {
            Some(rows_pruned) => rows_pruned,
            None => {
                let rows_pruned = self.evaluate(pattern, &window, &rects, scratch);
                if let Some(memo) = memo {
                    memo.insert(&scratch.key, &scratch.decisions, rows_pruned);
                }
                rows_pruned
            }
        };
        scratch.core = rects;
        rows_pruned
    }

    /// The un-memoised evaluation of one clip into `scratch.decisions`;
    /// `rects` are the core rects relative to `window`. Returns the router
    /// rows pruned.
    fn evaluate(
        &self,
        pattern: &Pattern,
        window: &Rect,
        rects: &[Rect],
        scratch: &mut EvalScratch,
    ) -> usize {
        let local = Rect::from_extents(0, 0, window.width(), window.height());
        let (signature, orientation) = TopoSignature::with_orientation(&local, rects);
        // With per-tile summed-area tables installed, the clip's core grid
        // is four table lookups per cell against its subtile's table (in
        // absolute coordinates — the integer pixel boundaries shift with
        // the window origin, so the result is bit-identical to the
        // per-pattern rasterisation). Windows no subtile covers (cell-cap
        // overflow) fall back to the direct sweep.
        let g = self.config.cluster.grid;
        let EvalScratch {
            eval,
            admissions,
            decisions,
            raster,
            raster_live,
            grid: scratch_grid,
            ..
        } = scratch;
        decisions.clear();
        let filled = *raster_live && raster.rasterize_into(window, g, g, scratch_grid);
        if !filled {
            *scratch_grid = density_grid(pattern, Region::Core, self.config);
        }
        let grid: &DensityGrid = scratch_grid;
        let mut features = FeatureMemo::oriented(pattern, Region::Core, self.config, orientation);

        // The router answers the density side of admission for every
        // kernel in one fused pass; the admissions come back sorted by
        // kernel index, so the union with topology matches is a linear
        // merge.
        let mut route = RouteStats::default();
        self.router.route_into(grid, admissions, &mut route);
        let mut next = 0usize;
        for (idx, k) in self.kernels.iter().enumerate() {
            let density_match = admissions.get(next).is_some_and(|a| a.kernel == idx);
            if density_match {
                next += 1;
            }
            if density_match || signature == k.signature {
                let padded = features.padded(k.feature_len);
                decisions.push((idx, eval.decision_value(&self.models[idx], padded)));
            }
        }
        route.rows_pruned()
    }

    /// Whether the feedback kernel confirms a flagged clip; `None` when no
    /// feedback kernel is attached (not trained, or disabled by ablation),
    /// which callers treat as confirmed.
    pub(crate) fn feedback_confirms(
        &self,
        pattern: &Pattern,
        scratch: &mut EvalScratch,
    ) -> Option<bool> {
        let (fb, model) = self.feedback?;
        let features = feature_vector_padded(pattern, Region::Clip, self.config, fb.feature_len);
        Some(scratch.eval.decision_value(model, &features) > 0.0)
    }
}

/// The trained feedback kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackKernel {
    /// The SVM trained on clip-region (core + ambit) features.
    pub model: SvmModel,
    /// Feature-vector length the kernel expects.
    pub feature_len: usize,
    /// How many extras the self-evaluation produced.
    pub extras_seen: usize,
}

/// Trains the feedback kernel (Fig. 9(b)–(c)).
///
/// Returns `Ok(None)` when self-evaluation produces no extras — every
/// nonhotspot medoid is already classified correctly, so no feedback kernel
/// is needed.
///
/// # Errors
///
/// Propagates SVM training failures.
pub fn train_feedback(
    hotspots: &[Pattern],
    hotspot_clusters: &[PatternCluster],
    kernels: &[ClusterKernel],
    nonhotspots: &[Pattern],
    nonhotspot_clusters: &[PatternCluster],
    config: &DetectorConfig,
) -> Result<Option<FeedbackKernel>, TrainError> {
    // Self-evaluation: push every nonhotspot medoid through the kernels,
    // compiled as a trained detector compiles them (no feedback kernel yet).
    let compiled = CompiledKernels::new(kernels, config);
    let engine = EvalEngine::new(kernels, &compiled, None, config);
    let mut scratch = EvalScratch::new();
    let mut offending_kernels: BTreeSet<usize> = BTreeSet::new();
    let mut extra_cluster_ids: BTreeSet<usize> = BTreeSet::new();
    for (cid, cluster) in nonhotspot_clusters.iter().enumerate() {
        let medoid = &nonhotspots[cluster.medoid];
        let flags = engine.flagging_kernels(medoid, &mut scratch);
        if !flags.is_empty() {
            extra_cluster_ids.insert(cid);
            offending_kernels.extend(flags);
        }
    }
    if extra_cluster_ids.is_empty() {
        return Ok(None);
    }

    // Nonhotspot side: re-classify the offending clusters' members with the
    // ambit region included, then keep the sub-cluster medoids.
    let mut member_patterns: Vec<Pattern> = Vec::new();
    for &cid in &extra_cluster_ids {
        for &m in &nonhotspot_clusters[cid].members {
            member_patterns.push(nonhotspots[m].clone());
        }
    }
    let sub_clusters = classify_patterns(&member_patterns, Region::Clip, &config.cluster);
    let nonhotspot_training: Vec<&Pattern> = sub_clusters
        .iter()
        .map(|c| &member_patterns[c.medoid])
        .collect();

    // Hotspot side: the hotspots of every kernel that produced extras
    // (kernels map 1:1 to hotspot clusters).
    let mut hotspot_training: Vec<&Pattern> = Vec::new();
    for &kid in &offending_kernels {
        if let Some(cluster) = hotspot_clusters.get(kid) {
            for &m in &cluster.members {
                hotspot_training.push(&hotspots[m]);
            }
        }
    }
    if hotspot_training.is_empty() {
        return Ok(None);
    }

    // Clip-region features; pad everything to the longest vector, keeping
    // each one's nontopological tail last.
    let features: Vec<CriticalFeatures> = hotspot_training
        .iter()
        .chain(&nonhotspot_training)
        .map(|p| critical_features(p, Region::Clip, config, None))
        .collect();
    let feature_len = features
        .iter()
        .map(|f| f.to_vector().len())
        .max()
        .unwrap_or(5)
        .max(5);
    let x: Vec<Vec<f64>> = features
        .iter()
        .map(|f| f.to_vector_padded(feature_len))
        .collect();
    let y: Vec<f64> = std::iter::repeat_n(1.0, hotspot_training.len())
        .chain(std::iter::repeat_n(-1.0, nonhotspot_training.len()))
        .collect();

    let fit = train_iterative(&x, &y, config)?;
    Ok(Some(FeedbackKernel {
        model: fit.model,
        feature_len,
        extras_seen: extra_cluster_ids.len(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::train_cluster_kernels;
    use hotspot_geom::{Point, Rect};
    use hotspot_layout::ClipShape;

    fn shape() -> ClipShape {
        ClipShape::new(1200, 4800).unwrap()
    }

    fn pattern(rects: &[Rect]) -> Pattern {
        Pattern::new(shape().window_centered(Point::new(0, 0)), rects)
    }

    /// Hotspot motif: two bars with a dangerously small gap in the core.
    fn hotspot_core(gap: i64) -> Vec<Rect> {
        vec![
            Rect::from_extents(-500, -200, -gap / 2, 200),
            Rect::from_extents(gap / 2, -200, 500, 200),
        ]
    }

    /// Nonhotspot: same two-bar topology but a comfortable gap.
    fn safe_core(gap: i64) -> Vec<Rect> {
        hotspot_core(gap)
    }

    fn config() -> DetectorConfig {
        DetectorConfig {
            max_learning_rounds: 4,
            ..Default::default()
        }
    }

    type TrainedWorld = (
        Vec<Pattern>,
        Vec<PatternCluster>,
        Vec<ClusterKernel>,
        Vec<Pattern>,
        Vec<PatternCluster>,
    );

    fn trained_world() -> TrainedWorld {
        let hotspots: Vec<Pattern> = (0..4)
            .map(|i| pattern(&hotspot_core(60 + i * 10)))
            .collect();
        let nonhotspots: Vec<Pattern> = (0..4).map(|i| pattern(&safe_core(700 + i * 40))).collect();
        let cfg = config();
        let h_clusters = classify_patterns(&hotspots, Region::Core, &cfg.cluster);
        let n_clusters = classify_patterns(&nonhotspots, Region::Core, &cfg.cluster);
        let medoids: Vec<Pattern> = n_clusters
            .iter()
            .map(|c| nonhotspots[c.medoid].clone())
            .collect();
        let kernels = train_cluster_kernels(&hotspots, &h_clusters, &medoids, &cfg).unwrap();
        (hotspots, h_clusters, kernels, nonhotspots, n_clusters)
    }

    /// The feedback kernel's verdict through its training-time SVM.
    fn confirms(fb: &FeedbackKernel, p: &Pattern, cfg: &DetectorConfig) -> bool {
        let features = feature_vector_padded(p, Region::Clip, cfg, fb.feature_len);
        fb.model.decision_value(&features) > 0.0
    }

    #[test]
    fn flagging_kernels_fire_on_hotspots() {
        let (_, _, kernels, _, _) = trained_world();
        let hs = pattern(&hotspot_core(70));
        let cfg = config();
        let compiled = CompiledKernels::new(&kernels, &cfg);
        let mut scratch = EvalScratch::new();
        let flags =
            EvalEngine::new(&kernels, &compiled, None, &cfg).flagging_kernels(&hs, &mut scratch);
        assert!(!flags.is_empty(), "hotspot-like clip should be flagged");
        assert!(scratch.admissions() >= flags.len() as u64);
    }

    #[test]
    fn flagging_kernels_pass_safe_patterns() {
        let (_, _, kernels, _, _) = trained_world();
        let safe = pattern(&safe_core(720));
        let cfg = config();
        let compiled = CompiledKernels::new(&kernels, &cfg);
        let flags = EvalEngine::new(&kernels, &compiled, None, &cfg)
            .flagging_kernels(&safe, &mut EvalScratch::new());
        assert!(flags.is_empty(), "safe clip should pass, got {flags:?}");
    }

    #[test]
    fn no_extras_no_feedback_kernel() {
        let (hotspots, h_clusters, kernels, nonhotspots, n_clusters) = trained_world();
        // With a well-separated training world, self-evaluation should be
        // clean and feedback unnecessary.
        let fb = train_feedback(
            &hotspots,
            &h_clusters,
            &kernels,
            &nonhotspots,
            &n_clusters,
            &config(),
        )
        .unwrap();
        assert!(fb.is_none());
    }

    #[test]
    fn ambiguous_core_triggers_feedback_training() {
        // Build the Fig. 10 situation: hotspots and nonhotspots share an
        // almost identical core; only the ambit distinguishes them.
        let core = hotspot_core(100);
        let hotspots: Vec<Pattern> = (0..3).map(|_| pattern(&core)).collect();
        let mut with_ambit = core.clone();
        with_ambit.push(Rect::from_extents(1400, 1400, 2300, 2300));
        let nonhotspots: Vec<Pattern> = (0..3).map(|_| pattern(&with_ambit)).collect();

        let cfg = config();
        let h_clusters = classify_patterns(&hotspots, Region::Core, &cfg.cluster);
        let n_clusters = classify_patterns(&nonhotspots, Region::Core, &cfg.cluster);
        let medoids: Vec<Pattern> = n_clusters
            .iter()
            .map(|c| nonhotspots[c.medoid].clone())
            .collect();
        let kernels = train_cluster_kernels(&hotspots, &h_clusters, &medoids, &cfg).unwrap();

        // The medoid's core equals the hotspot core, so self-evaluation must
        // produce an extra and feedback training must engage.
        let fb = train_feedback(
            &hotspots,
            &h_clusters,
            &kernels,
            &nonhotspots,
            &n_clusters,
            &cfg,
        )
        .unwrap();
        let fb = fb.expect("ambiguous cores must trigger feedback learning");
        assert!(fb.extras_seen >= 1);

        // The feedback kernel separates by ambit: it confirms the bare-core
        // hotspot and reclaims the ambit-decorated nonhotspot.
        assert!(confirms(&fb, &pattern(&core), &cfg));
        assert!(!confirms(&fb, &pattern(&with_ambit), &cfg));
    }
}

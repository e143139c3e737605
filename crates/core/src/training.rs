//! Topological classification of training patterns and multiple SVM-kernel
//! learning (Sections III-B and III-D, Fig. 9(a)).

use crate::config::DetectorConfig;
use crate::engine::{Executor, ExecutorStats};
use crate::pattern::Pattern;
use hotspot_geom::{DensityGrid, RasterMode, Rect};
use hotspot_svm::{Kernel, PlattScaler, SharedKernelCache, SvmModel, SvmTrainer, TrainError};
use hotspot_topo::{ClusterParams, CriticalFeatures, DensityClustering, TopoSignature};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which part of a clip drives classification and feature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Region {
    /// The central core only (multiple-kernel training, Section III-B).
    Core,
    /// The full clip including the ambit (feedback kernel, Section III-D4).
    Clip,
}

impl Region {
    /// The window rectangle of `pattern` for this region.
    pub fn window(self, pattern: &Pattern) -> Rect {
        match self {
            Region::Core => pattern.window.core,
            Region::Clip => pattern.window.clip,
        }
    }

    /// The pattern rectangles clipped to this region.
    pub fn rects(self, pattern: &Pattern) -> Vec<Rect> {
        let w = self.window(pattern);
        pattern
            .rects
            .iter()
            .filter_map(|r| r.intersection(&w))
            .collect()
    }
}

/// One two-level topological cluster of patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternCluster {
    /// Indices into the classified pattern slice.
    pub members: Vec<usize>,
    /// Shared string-topology signature of the members.
    pub signature: TopoSignature,
    /// Mean density grid of the members (density-level centroid).
    pub centroid: DensityGrid,
    /// Density radius used by the sub-clustering (eq. (2)).
    pub radius: f64,
    /// Index (into the pattern slice) of the medoid member.
    pub medoid: usize,
}

/// Two-level topological classification (Section III-B): string-based
/// grouping by [`TopoSignature`], then density-based sub-clustering with the
/// eq. (1)/(2) machinery.
pub fn classify_patterns(
    patterns: &[Pattern],
    region: Region,
    params: &ClusterParams,
) -> Vec<PatternCluster> {
    classify_patterns_mode(patterns, region, params, RasterMode::default())
}

/// [`classify_patterns`] with an explicit [`RasterMode`] for density-grid
/// construction. Modes are bit-identical for disjoint rects, so the cluster
/// structure never depends on the choice.
pub fn classify_patterns_mode(
    patterns: &[Pattern],
    region: Region,
    params: &ClusterParams,
    mode: RasterMode,
) -> Vec<PatternCluster> {
    // Level 1: group by canonical string signature.
    let mut groups: HashMap<TopoSignature, Vec<usize>> = HashMap::new();
    for (i, p) in patterns.iter().enumerate() {
        let sig = TopoSignature::of(&region.window(p), &region.rects(p));
        groups.entry(sig).or_default().push(i);
    }
    // Deterministic order regardless of hash iteration.
    let mut groups: Vec<(TopoSignature, Vec<usize>)> = groups.into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));

    // Level 2: density-based sub-clustering inside each group.
    let mut clusters = Vec::new();
    for (signature, members) in groups {
        let member_patterns: Vec<Vec<Rect>> = members
            .iter()
            .map(|&i| normalized_rects(&patterns[i], region))
            .collect();
        let window = normalized_window(&patterns[members[0]], region);
        let dc = DensityClustering::run_with_mode(&window, &member_patterns, params, mode);
        for cluster in &dc.clusters {
            let global: Vec<usize> = cluster.members.iter().map(|&m| members[m]).collect();
            let medoid_local = cluster.medoid(&dc.grids);
            clusters.push(PatternCluster {
                members: global.clone(),
                signature: signature.clone(),
                centroid: cluster.centroid.clone(),
                radius: dc.radius,
                medoid: members[medoid_local],
            });
        }
    }
    clusters
}

/// Region rects translated to a window anchored at the origin, so patterns
/// from different absolute positions compare correctly.
fn normalized_rects(pattern: &Pattern, region: Region) -> Vec<Rect> {
    let w = region.window(pattern);
    region
        .rects(pattern)
        .iter()
        .map(|r| r.translate(-w.min()))
        .collect()
}

fn normalized_window(pattern: &Pattern, region: Region) -> Rect {
    let w = region.window(pattern);
    Rect::from_extents(0, 0, w.width(), w.height())
}

/// Canonical-orientation critical features of one pattern region.
///
/// The pattern is aligned by the canonical orientation of its topology
/// signature, so all members of one cluster land in a common frame.
fn critical_features(
    pattern: &Pattern,
    region: Region,
    config: &DetectorConfig,
) -> CriticalFeatures {
    let window = normalized_window(pattern, region);
    let rects = normalized_rects(pattern, region);
    let (_, orientation) = TopoSignature::with_orientation(&window, &rects);
    CriticalFeatures::extract_oriented(&window, &rects, orientation, &config.feature)
}

/// Canonical-orientation critical-feature vector of one pattern region.
pub fn feature_vector(pattern: &Pattern, region: Region, config: &DetectorConfig) -> Vec<f64> {
    critical_features(pattern, region, config).to_vector()
}

/// Canonical-orientation features padded/truncated to `len` values.
pub fn feature_vector_padded(
    pattern: &Pattern,
    region: Region,
    config: &DetectorConfig,
    len: usize,
) -> Vec<f64> {
    critical_features(pattern, region, config).to_vector_padded(len)
}

/// Lazily extracted, per-length-memoized feature vectors of one pattern
/// region.
///
/// Orientation and critical-feature extraction are the expensive half of
/// clip evaluation, so a clip admitted by several kernels must pay them
/// once, not once per kernel (as per-kernel extraction originally did).
/// Padding to each kernel's `feature_len` is cheap and cached by length,
/// so kernels sharing a feature length share one padded vector.
pub struct FeatureMemo<'a> {
    pattern: &'a Pattern,
    region: Region,
    config: &'a DetectorConfig,
    features: Option<CriticalFeatures>,
    padded: Vec<(usize, Vec<f64>)>,
}

impl<'a> FeatureMemo<'a> {
    /// A memo that extracts nothing until the first [`padded`](Self::padded)
    /// request.
    pub fn new(pattern: &'a Pattern, region: Region, config: &'a DetectorConfig) -> Self {
        FeatureMemo {
            pattern,
            region,
            config,
            features: None,
            padded: Vec::new(),
        }
    }

    /// The feature vector padded/truncated to `len` — bit-identical to
    /// [`feature_vector_padded`], with extraction done on first use and the
    /// padded vector shared across kernels requesting the same length.
    pub fn padded(&mut self, len: usize) -> &[f64] {
        if let Some(i) = self.padded.iter().position(|(l, _)| *l == len) {
            return &self.padded[i].1;
        }
        let features = self
            .features
            .get_or_insert_with(|| critical_features(self.pattern, self.region, self.config));
        self.padded.push((len, features.to_vector_padded(len)));
        &self.padded.last().expect("just pushed").1
    }
}

/// Density grid of a pattern region at the configured resolution (used for
/// routing evaluation clips to kernels), rasterised via the configured
/// [`RasterMode`].
pub fn density_grid(pattern: &Pattern, region: Region, config: &DetectorConfig) -> DensityGrid {
    let window = normalized_window(pattern, region);
    let rects = normalized_rects(pattern, region);
    DensityGrid::from_rects_mode(
        &window,
        &rects,
        config.cluster.grid,
        config.cluster.grid,
        config.raster_mode,
    )
}

/// Core-region topology signature and density grid of one pattern — the
/// admission precomputation shared by the scan eval loop and the
/// classification entry points of the multilayer and double-patterning
/// detectors. Keeping grid construction behind this one helper (which
/// routes through [`DensityGrid::from_rects_mode`]) gives raster-mode
/// selection a single seam.
pub fn core_signature_and_grid(
    pattern: &Pattern,
    config: &DetectorConfig,
) -> (TopoSignature, DensityGrid) {
    let window = normalized_window(pattern, Region::Core);
    let rects = normalized_rects(pattern, Region::Core);
    let signature = TopoSignature::of(&window, &rects);
    let grid = DensityGrid::from_rects_mode(
        &window,
        &rects,
        config.cluster.grid,
        config.cluster.grid,
        config.raster_mode,
    );
    (signature, grid)
}

/// Result of the iterative `(C, γ)` self-training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeFit {
    /// The trained model of the final round.
    pub model: SvmModel,
    /// Round whose model was kept (1 = the initial parameters sufficed).
    pub rounds: usize,
    /// Total self-training rounds attempted before stopping.
    pub rounds_attempted: usize,
    /// Final penalty value.
    pub c: f64,
    /// Final RBF width.
    pub gamma: f64,
    /// Training accuracy of the final round.
    pub training_accuracy: f64,
}

/// Iterative learning (Section III-D2): train, self-evaluate on the
/// training data, and double `C` and `γ` until the accuracy target or the
/// round bound is reached.
///
/// # Errors
///
/// Propagates [`TrainError`] from the underlying SVM trainer.
pub fn train_iterative(
    x: &[Vec<f64>],
    y: &[f64],
    config: &DetectorConfig,
) -> Result<IterativeFit, TrainError> {
    let shared = SharedKernelCache::new(x.len());
    train_iterative_with(x, y, config, &shared, 1)
}

/// The `(C, γ)` parameters of 1-based `round`: each round doubles both,
/// starting from the configured initial values. Doubling is exact in f64,
/// so recomputing from the round number matches sequential accumulation
/// bit for bit.
fn round_params(config: &DetectorConfig, round: usize) -> (f64, f64) {
    let scale = 2f64.powi(round as i32 - 1);
    (config.initial_c * scale, config.initial_gamma * scale)
}

fn train_round(
    x: &[Vec<f64>],
    y: &[f64],
    config: &DetectorConfig,
    shared: &SharedKernelCache,
    round: usize,
) -> Result<(SvmModel, f64), TrainError> {
    let (c, gamma) = round_params(config, round);
    let model = SvmTrainer::new(Kernel::rbf(gamma))
        .c(c)
        .train_with_cache(x, y, shared)?;
    let acc = model.accuracy(x, y);
    Ok((model, acc))
}

/// Iterative learning with up to `speculation` rounds trained concurrently.
///
/// Rounds are independent trainings on the same data with doubled `(C, γ)`,
/// so when spare threads exist they can be trained speculatively in waves:
/// all rounds of a wave run in parallel (sharing the γ-independent
/// squared-distance rows in `shared`), then the sequential stopping rule is
/// replayed over the wave in round order. Rounds past the stop point are
/// discarded, so the selected fit — model, kept round, attempted rounds —
/// is identical to the sequential loop's for every `speculation` width.
///
/// # Errors
///
/// Propagates [`TrainError`] from the underlying SVM trainer.
pub fn train_iterative_with(
    x: &[Vec<f64>],
    y: &[f64],
    config: &DetectorConfig,
    shared: &SharedKernelCache,
    speculation: usize,
) -> Result<IterativeFit, TrainError> {
    let max_rounds = config.max_learning_rounds.max(1);
    let mut best: Option<IterativeFit> = None;
    let mut attempted = 0;
    let mut next_round = 1usize;
    'waves: while next_round <= max_rounds {
        let wave: Vec<usize> = (next_round..=max_rounds).take(speculation.max(1)).collect();
        let fits: Vec<Result<(SvmModel, f64), TrainError>> = if wave.len() == 1 {
            vec![train_round(x, y, config, shared, wave[0])]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = wave
                    .iter()
                    .map(|&round| scope.spawn(move || train_round(x, y, config, shared, round)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("round training panicked"))
                    .collect()
            })
        };
        // Selection replay: walk the wave in round order exactly like the
        // sequential loop would, stopping at the accuracy target.
        for (&round, fit) in wave.iter().zip(fits) {
            let (model, acc) = fit?;
            attempted = round;
            let (c, gamma) = round_params(config, round);
            let improved = best.as_ref().is_none_or(|b| acc > b.training_accuracy);
            if improved {
                best = Some(IterativeFit {
                    model,
                    rounds: round,
                    rounds_attempted: round,
                    c,
                    gamma,
                    training_accuracy: acc,
                });
            }
            let current_best = best.as_ref().expect("set above");
            if current_best.training_accuracy >= config.target_training_accuracy {
                break 'waves;
            }
        }
        next_round = wave.last().expect("wave is non-empty") + 1;
    }
    let mut best = best.expect("at least one round runs");
    best.rounds_attempted = attempted;
    Ok(best)
}

/// One per-cluster SVM kernel with its routing metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterKernel {
    /// The trained SVM.
    pub model: SvmModel,
    /// Topology signature of the hotspot cluster.
    pub signature: TopoSignature,
    /// Density centroid of the hotspot cluster.
    pub centroid: DensityGrid,
    /// Density radius of the cluster.
    pub radius: f64,
    /// Feature-vector length the kernel expects.
    pub feature_len: usize,
    /// Number of hotspot training patterns in the cluster.
    pub hotspot_count: usize,
    /// Self-training rounds used.
    pub rounds: usize,
    /// Final `(C, γ)` of iterative learning.
    pub final_c: f64,
    /// Final RBF width.
    pub final_gamma: f64,
    /// Platt sigmoid fitted on the kernel's training decisions, giving
    /// calibrated hotspot probabilities.
    pub platt: PlattScaler,
}

/// Trains one SVM kernel per hotspot cluster against the shared nonhotspot
/// medoid set (Fig. 9(a)).
///
/// `hotspots` are the (already upsampled) hotspot patterns; `clusters` their
/// topological clusters; `nonhotspot_medoids` the downsampled nonhotspot
/// patterns.
///
/// # Errors
///
/// Propagates the first SVM training failure.
pub fn train_cluster_kernels(
    hotspots: &[Pattern],
    clusters: &[PatternCluster],
    nonhotspot_medoids: &[Pattern],
    config: &DetectorConfig,
) -> Result<Vec<ClusterKernel>, TrainError> {
    let executor = Executor::new(config.effective_threads());
    let (kernels, _) =
        train_cluster_kernels_with(hotspots, clusters, nonhotspot_medoids, config, &executor)?;
    Ok(kernels)
}

/// [`train_cluster_kernels`] on an explicit [`Executor`], returning its
/// utilisation stats for telemetry.
///
/// All kernels are independent (Section III-G): each cluster is one task on
/// the [`Executor`]. When the executor has more threads than
/// there are clusters, the surplus is spent *inside* each task training
/// speculative `(C, γ)` rounds concurrently (see [`train_iterative_with`]),
/// so both fan-out axes of the paper's parallelisation are covered while
/// total concurrency stays near the configured thread count.
///
/// # Errors
///
/// Propagates the first SVM training failure (in cluster order).
pub fn train_cluster_kernels_with(
    hotspots: &[Pattern],
    clusters: &[PatternCluster],
    nonhotspot_medoids: &[Pattern],
    config: &DetectorConfig,
    executor: &Executor,
) -> Result<(Vec<ClusterKernel>, ExecutorStats), TrainError> {
    let speculation = (executor.threads() / clusters.len().max(1)).max(1);
    let (results, stats) = executor.map(clusters, |_, cl| {
        train_one_kernel(hotspots, cl, nonhotspot_medoids, config, speculation)
    });
    let kernels = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((kernels, stats))
}

fn train_one_kernel(
    hotspots: &[Pattern],
    cluster: &PatternCluster,
    nonhotspot_medoids: &[Pattern],
    config: &DetectorConfig,
    speculation: usize,
) -> Result<ClusterKernel, TrainError> {
    // Determine the kernel's feature length from the cluster members.
    let member_features: Vec<CriticalFeatures> = cluster
        .members
        .iter()
        .map(|&i| critical_features(&hotspots[i], Region::Core, config))
        .collect();
    let feature_len = member_features
        .iter()
        .map(|f| f.to_vector().len())
        .max()
        .unwrap_or(5)
        .max(5);

    let mut x: Vec<Vec<f64>> = Vec::with_capacity(member_features.len() + nonhotspot_medoids.len());
    let mut y: Vec<f64> = Vec::with_capacity(x.capacity());
    for f in &member_features {
        x.push(f.to_vector_padded(feature_len));
        y.push(1.0);
    }
    for p in nonhotspot_medoids {
        x.push(feature_vector_padded(p, Region::Core, config, feature_len));
        y.push(-1.0);
    }

    // One shared distance-row cache per kernel: every (C, γ) round trains
    // on the same vectors, so the rows are reused across rounds whether the
    // rounds run sequentially or speculatively in parallel.
    let shared = SharedKernelCache::new(x.len());
    let fit = train_iterative_with(&x, &y, config, &shared, speculation)?;
    let decisions: Vec<f64> = x.iter().map(|v| fit.model.decision_value(v)).collect();
    let platt = PlattScaler::fit(&decisions, &y);
    Ok(ClusterKernel {
        model: fit.model,
        signature: cluster.signature.clone(),
        centroid: cluster.centroid.clone(),
        radius: cluster.radius,
        feature_len,
        hotspot_count: cluster.members.len(),
        rounds: fit.rounds,
        final_c: fit.c,
        final_gamma: fit.gamma,
        platt,
    })
}

/// `v` zero-padded or truncated to `len` values.
pub(crate) fn pad(mut v: Vec<f64>, len: usize) -> Vec<f64> {
    v.resize(len, 0.0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::Point;
    use hotspot_layout::ClipShape;

    fn shape() -> ClipShape {
        ClipShape::new(1200, 4800).unwrap()
    }

    fn pattern_with_core(rects: &[Rect]) -> Pattern {
        let window = shape().window_centered(Point::new(0, 0));
        Pattern::new(window, rects)
    }

    fn bar_pattern(width: i64) -> Pattern {
        pattern_with_core(&[Rect::from_extents(-600, -width / 2, 600, width / 2)])
    }

    fn pair_pattern(gap: i64) -> Pattern {
        pattern_with_core(&[
            Rect::from_extents(-500, -300, -gap / 2, 300),
            Rect::from_extents(gap / 2, -300, 500, 300),
        ])
    }

    fn test_config() -> DetectorConfig {
        DetectorConfig {
            max_learning_rounds: 4,
            ..Default::default()
        }
    }

    #[test]
    fn classification_groups_same_topology() {
        // The two bars differ only marginally, so they survive density-based
        // sub-clustering as one cluster; the pair pattern differs in string
        // topology.
        let patterns = vec![bar_pattern(200), bar_pattern(204), pair_pattern(100)];
        let clusters = classify_patterns(&patterns, Region::Core, &test_config().cluster);
        assert_eq!(clusters.len(), 2);
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 3);
        // The two bars share a cluster.
        let bar_cluster = clusters
            .iter()
            .find(|c| c.members.contains(&0))
            .expect("bar cluster");
        assert!(bar_cluster.members.contains(&1));
        assert!(!bar_cluster.members.contains(&2));
    }

    #[test]
    fn medoid_is_a_member() {
        let patterns = vec![bar_pattern(200), bar_pattern(210), bar_pattern(400)];
        let clusters = classify_patterns(&patterns, Region::Core, &test_config().cluster);
        for c in &clusters {
            assert!(c.members.contains(&c.medoid));
        }
    }

    #[test]
    fn classification_is_deterministic() {
        let patterns = vec![
            bar_pattern(200),
            pair_pattern(100),
            bar_pattern(300),
            pair_pattern(200),
        ];
        let a = classify_patterns(&patterns, Region::Core, &test_config().cluster);
        let b = classify_patterns(&patterns, Region::Core, &test_config().cluster);
        assert_eq!(a, b);
    }

    #[test]
    fn clip_region_sees_ambit_differences() {
        // Same core, different ambit: Region::Core merges them,
        // Region::Clip separates them.
        let core = Rect::from_extents(-400, -400, 400, 400);
        let a = pattern_with_core(&[core]);
        let b = pattern_with_core(&[core, Rect::from_extents(1500, 1500, 2200, 2200)]);
        let core_clusters = classify_patterns(
            &[a.clone(), b.clone()],
            Region::Core,
            &test_config().cluster,
        );
        assert_eq!(core_clusters.len(), 1);
        let clip_clusters = classify_patterns(&[a, b], Region::Clip, &test_config().cluster);
        assert_eq!(clip_clusters.len(), 2);
    }

    #[test]
    fn iterative_learning_stops_on_target() {
        // Trivially separable data: the first round should hit the target.
        let x = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![1.0, 1.0],
            vec![0.9, 1.0],
        ];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let fit = train_iterative(&x, &y, &test_config()).unwrap();
        assert_eq!(fit.rounds, 1);
        assert!(fit.training_accuracy >= 0.9);
        assert_eq!(fit.c, 1000.0);
    }

    #[test]
    fn iterative_learning_escalates_until_round_bound() {
        // Conflicting duplicate labels make the target unreachable: the loop
        // must double (C, γ) through every allowed round and keep the best
        // model rather than the last.
        let x = vec![vec![0.5], vec![0.5], vec![0.0], vec![1.0]];
        let y = vec![1.0, -1.0, -1.0, 1.0];
        let config = DetectorConfig {
            max_learning_rounds: 5,
            ..Default::default()
        };
        let fit = train_iterative(&x, &y, &config).unwrap();
        assert_eq!(fit.rounds_attempted, 5, "all rounds must be attempted");
        assert!(
            fit.training_accuracy < 1.0,
            "conflicts cannot fully separate"
        );
        assert!(fit.rounds <= fit.rounds_attempted);
    }

    #[test]
    fn kernels_train_per_cluster() {
        let hotspots = vec![
            bar_pattern(200),
            bar_pattern(220),
            pair_pattern(100),
            pair_pattern(120),
        ];
        let clusters = classify_patterns(&hotspots, Region::Core, &test_config().cluster);
        let nonhotspots = vec![bar_pattern(1000), pair_pattern(600)];
        let kernels =
            train_cluster_kernels(&hotspots, &clusters, &nonhotspots, &test_config()).unwrap();
        assert_eq!(kernels.len(), clusters.len());
        for k in &kernels {
            assert!(k.feature_len >= 5);
            assert!(k.hotspot_count >= 1);
            assert!(k.rounds >= 1);
        }
    }

    #[test]
    fn parallel_and_sequential_training_agree() {
        let hotspots = vec![
            bar_pattern(200),
            bar_pattern(220),
            pair_pattern(100),
            pair_pattern(140),
        ];
        let clusters = classify_patterns(&hotspots, Region::Core, &test_config().cluster);
        let nonhotspots = vec![bar_pattern(1000)];
        let seq_cfg = DetectorConfig {
            threads: 1,
            ..test_config()
        };
        let par_cfg = DetectorConfig {
            threads: 4,
            ..test_config()
        };
        let a = train_cluster_kernels(&hotspots, &clusters, &nonhotspots, &seq_cfg).unwrap();
        let b = train_cluster_kernels(&hotspots, &clusters, &nonhotspots, &par_cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn feature_memo_matches_direct_extraction() {
        let p = pair_pattern(120);
        let cfg = test_config();
        let mut memo = FeatureMemo::new(&p, Region::Core, &cfg);
        for len in [5usize, 9, 17, 9, 5] {
            assert_eq!(
                memo.padded(len),
                feature_vector_padded(&p, Region::Core, &cfg, len).as_slice(),
                "len {len}"
            );
        }
        // Both lengths stay cached; re-requests return the same vectors.
        assert_eq!(memo.padded.len(), 3);
    }

    #[test]
    fn pad_zero_fills_and_truncates() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(pad(v.clone(), 5), vec![1.0, 2.0, 3.0, 0.0, 0.0]);
        assert_eq!(pad(v, 2), vec![1.0, 2.0]);
    }
}

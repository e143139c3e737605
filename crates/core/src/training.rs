//! Topological classification of training patterns and multiple SVM-kernel
//! learning (Sections III-B and III-D, Fig. 9(a)).

use crate::config::DetectorConfig;
use crate::engine::{Executor, ExecutorStats};
use crate::pattern::Pattern;
use hotspot_geom::{DensityGrid, Orientation, RasterMode, Rect};
use hotspot_svm::{DistanceTable, Kernel, PlattScaler, SvmModel, SvmTrainer, TrainError};
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
    /// Canonical orientation of each member's region, parallel to
    /// `members`: the orientation its signature was read in, which aligns
    /// its critical features with the other members'.
    pub orientations: Vec<Orientation>,
    /// Shared string-topology signature of the members.
    pub signature: TopoSignature,
    /// Mean density grid of the members (density-level centroid).
    pub centroid: DensityGrid,
    /// Density radius used by the sub-clustering (eq. (2)).
    pub radius: f64,
    /// Index (into the pattern slice) of the medoid member.
    pub medoid: usize,
}

impl PatternCluster {
    /// The canonical orientation of the medoid's region.
    pub fn medoid_orientation(&self) -> Orientation {
        let at = self
            .members
            .iter()
            .position(|&m| m == self.medoid)
            .expect("the medoid is a member");
        self.orientations[at]
    }
}

/// Two-level topological classification (Section III-B): string-based
/// grouping by [`TopoSignature`], then density-based sub-clustering with the
/// eq. (1)/(2) machinery.
pub fn classify_patterns(
    patterns: &[Pattern],
    region: Region,
    params: &ClusterParams,
) -> Vec<PatternCluster> {
    // Level 1: group by canonical string signature, keeping each member's
    // canonical orientation for its feature extraction.
    let mut groups: HashMap<TopoSignature, Vec<(usize, Orientation)>> = HashMap::new();
    for (i, p) in patterns.iter().enumerate() {
        let (sig, orientation) =
            TopoSignature::with_orientation(&region.window(p), &region.rects(p));
        groups.entry(sig).or_default().push((i, orientation));
    }
    // Deterministic order regardless of hash iteration.
    let mut groups: Vec<(TopoSignature, Vec<(usize, Orientation)>)> = groups.into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));

    // Level 2: density-based sub-clustering inside each group.
    let mut clusters = Vec::new();
    for (signature, members) in groups {
        let member_patterns: Vec<Vec<Rect>> = members
            .iter()
            .map(|&(i, _)| normalized_rects(&patterns[i], region))
            .collect();
        let window = normalized_window(&patterns[members[0].0], region);
        let dc = DensityClustering::run(&window, &member_patterns, params);
        for cluster in &dc.clusters {
            let medoid_local = cluster.medoid(&dc.grids);
            clusters.push(PatternCluster {
                members: cluster.members.iter().map(|&m| members[m].0).collect(),
                orientations: cluster.members.iter().map(|&m| members[m].1).collect(),
                signature: signature.clone(),
                centroid: cluster.centroid.clone(),
                radius: dc.radius,
                medoid: members[medoid_local].0,
            });
        }
    }
    clusters
}

/// [`classify_patterns`]; `RasterMode` has one value.
#[doc(hidden)]
pub fn classify_patterns_mode(
    patterns: &[Pattern],
    region: Region,
    params: &ClusterParams,
    _mode: RasterMode,
) -> Vec<PatternCluster> {
    classify_patterns(patterns, region, params)
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
/// signature, so all members of one cluster land in a common frame. A
/// caller that already holds that orientation passes it, so it is not
/// derived twice.
pub(crate) fn critical_features(
    pattern: &Pattern,
    region: Region,
    config: &DetectorConfig,
    orientation: Option<Orientation>,
) -> CriticalFeatures {
    let window = normalized_window(pattern, region);
    let rects = normalized_rects(pattern, region);
    let orientation =
        orientation.unwrap_or_else(|| TopoSignature::with_orientation(&window, &rects).1);
    CriticalFeatures::extract_oriented(&window, &rects, orientation, &config.feature)
}

/// Canonical-orientation critical-feature vector of one pattern region.
pub fn feature_vector(pattern: &Pattern, region: Region, config: &DetectorConfig) -> Vec<f64> {
    critical_features(pattern, region, config, None).to_vector()
}

/// Canonical-orientation features padded/truncated to `len` values.
pub fn feature_vector_padded(
    pattern: &Pattern,
    region: Region,
    config: &DetectorConfig,
    len: usize,
) -> Vec<f64> {
    critical_features(pattern, region, config, None).to_vector_padded(len)
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
    orientation: Option<Orientation>,
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
            orientation: None,
            features: None,
            padded: Vec::new(),
        }
    }

    /// Like [`new`](Self::new), for a caller that already holds the
    /// region's canonical orientation (the one
    /// [`TopoSignature::with_orientation`] returns for it): extraction
    /// reuses it instead of deriving it again.
    pub fn oriented(
        pattern: &'a Pattern,
        region: Region,
        config: &'a DetectorConfig,
        orientation: Orientation,
    ) -> Self {
        FeatureMemo {
            orientation: Some(orientation),
            ..FeatureMemo::new(pattern, region, config)
        }
    }

    /// The feature vector padded/truncated to `len` — bit-identical to
    /// [`feature_vector_padded`], with extraction done on first use and the
    /// padded vector shared across kernels requesting the same length.
    pub fn padded(&mut self, len: usize) -> &[f64] {
        if let Some(i) = self.padded.iter().position(|(l, _)| *l == len) {
            return &self.padded[i].1;
        }
        let features = self.features.get_or_insert_with(|| {
            critical_features(self.pattern, self.region, self.config, self.orientation)
        });
        self.padded.push((len, features.to_vector_padded(len)));
        &self.padded.last().expect("just pushed").1
    }
}

/// Density grid of a pattern region at the configured resolution (used for
/// routing evaluation clips to kernels).
pub fn density_grid(pattern: &Pattern, region: Region, config: &DetectorConfig) -> DensityGrid {
    let window = normalized_window(pattern, region);
    let rects = normalized_rects(pattern, region);
    DensityGrid::from_rects(&window, &rects, config.cluster.grid, config.cluster.grid)
}

/// Core-region topology signature and density grid of one pattern — the
/// admission inputs of the single-clip classification entry points of the
/// multilayer and double-patterning detectors.
pub fn core_signature_and_grid(
    pattern: &Pattern,
    config: &DetectorConfig,
) -> (TopoSignature, DensityGrid) {
    let window = normalized_window(pattern, Region::Core);
    let rects = normalized_rects(pattern, Region::Core);
    let signature = TopoSignature::of(&window, &rects);
    let grid = DensityGrid::from_rects(&window, &rects, config.cluster.grid, config.cluster.grid);
    (signature, grid)
}

/// Whether a kernel admits a clip for SVM evaluation: the clip's core
/// topology equals the kernel's cluster signature, or its core density
/// grid has the centroid's shape and lies within the kernel's admission
/// threshold of it under the eq. (1) distance. The naive search behind
/// the multilayer and double-patterning detectors' `classify`.
fn kernel_admits(
    signature: &TopoSignature,
    grid: &DensityGrid,
    kernel_signature: &TopoSignature,
    centroid: &DensityGrid,
    radius: f64,
    config: &DetectorConfig,
) -> bool {
    signature == kernel_signature
        || ((grid.nx(), grid.ny()) == (centroid.nx(), centroid.ny())
            && grid.distance(centroid).distance <= config.admission.threshold(radius))
}

/// One per-cluster kernel of the Section IV detectors (multilayer and
/// double patterning): routed by the core topology of each detector's
/// classification pattern, scored on each detector's own feature vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ExtensionKernel {
    model: SvmModel,
    signature: TopoSignature,
    centroid: DensityGrid,
    radius: f64,
    feature_len: usize,
}

impl ExtensionKernel {
    /// Trains one kernel per core-topology cluster of `class_patterns` (one
    /// per hotspot): each on its members' `hotspot_features` against every
    /// vector of `nonhotspot_features`, zero-padded to the longest of them
    /// (5 values if there are none).
    pub(crate) fn train_all(
        class_patterns: &[Pattern],
        hotspot_features: &[Vec<f64>],
        nonhotspot_features: &[Vec<f64>],
        config: &DetectorConfig,
    ) -> Result<Vec<ExtensionKernel>, TrainError> {
        let clusters = classify_patterns(class_patterns, Region::Core, &config.cluster);
        clusters
            .iter()
            .map(|cluster| {
                let positives = cluster.members.iter().map(|&i| &hotspot_features[i]);
                let feature_len = positives
                    .clone()
                    .chain(nonhotspot_features)
                    .map(Vec::len)
                    .max()
                    .unwrap_or(5);
                let x: Vec<Vec<f64>> = positives
                    .chain(nonhotspot_features)
                    .map(|f| pad(f.clone(), feature_len))
                    .collect();
                let y: Vec<f64> = std::iter::repeat_n(1.0, cluster.members.len())
                    .chain(std::iter::repeat_n(-1.0, nonhotspot_features.len()))
                    .collect();
                let fit = train_iterative(&x, &y, config)?;
                Ok(ExtensionKernel {
                    model: fit.model,
                    signature: cluster.signature.clone(),
                    centroid: cluster.centroid.clone(),
                    radius: cluster.radius,
                    feature_len,
                })
            })
            .collect()
    }

    /// Whether any of `kernels` flags a clip: admits its classification
    /// pattern (see [`kernel_admits`]) and scores its `features`, padded to
    /// the kernel's length, above the decision threshold.
    pub(crate) fn any_flags(
        kernels: &[ExtensionKernel],
        class_pattern: &Pattern,
        features: &[f64],
        config: &DetectorConfig,
    ) -> bool {
        let (signature, grid) = core_signature_and_grid(class_pattern, config);
        kernels.iter().any(|k| {
            kernel_admits(
                &signature,
                &grid,
                &k.signature,
                &k.centroid,
                k.radius,
                config,
            ) && k
                .model
                .decision_value(&pad(features.to_vec(), k.feature_len))
                > config.decision_threshold
        })
    }
}

/// Result of the iterative `(C, γ)` self-training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeFit {
    /// The kept model: the first round of the best training accuracy.
    pub model: SvmModel,
    /// Round whose model was kept (1 = the initial parameters sufficed).
    pub rounds: usize,
    /// Total self-training rounds attempted before stopping.
    pub rounds_attempted: usize,
    /// Penalty of the kept round.
    pub c: f64,
    /// RBF width of the kept round.
    pub gamma: f64,
    /// Training accuracy of the kept round.
    pub training_accuracy: f64,
}

/// Iterative learning (Section III-D2): train, self-evaluate on the
/// training data, and double `C` and `γ` until the accuracy target or the
/// round bound is reached. A round's model is kept only if it beats every
/// earlier round's training accuracy.
///
/// Every round trains on the same vectors, so one [`DistanceTable`] serves
/// them all: the γ-independent squared distances of the RBF kernel are
/// computed once per fit.
///
/// # Errors
///
/// Propagates [`TrainError`] from the underlying SVM trainer.
pub fn train_iterative(
    x: &[Vec<f64>],
    y: &[f64],
    config: &DetectorConfig,
) -> Result<IterativeFit, TrainError> {
    let mut distances = DistanceTable::default();
    let mut best: Option<IterativeFit> = None;
    for round in 1..=config.max_learning_rounds.max(1) {
        // Doubling is exact in f64, so `2^(round − 1)` equals the running
        // product bit for bit.
        let scale = 2f64.powi(round as i32 - 1);
        let (c, gamma) = (config.initial_c * scale, config.initial_gamma * scale);
        let trainer = SvmTrainer::new(Kernel::rbf(gamma)).c(c);
        let model = trainer.train_with_cache(x, y, &mut distances)?;
        let training_accuracy = model.accuracy(x, y);
        if best
            .as_ref()
            .is_none_or(|b| training_accuracy > b.training_accuracy)
        {
            best = Some(IterativeFit {
                model,
                rounds: round,
                rounds_attempted: round,
                c,
                gamma,
                training_accuracy,
            });
        }
        let best = best.as_mut().expect("set above");
        best.rounds_attempted = round;
        if best.training_accuracy >= config.target_training_accuracy {
            break;
        }
    }
    Ok(best.expect("at least one round runs"))
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
/// topological clusters, classified on [`Region::Core`] (each member's
/// features are aligned by the orientation its cluster carries);
/// `nonhotspot_medoids` the downsampled nonhotspot patterns.
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
/// The nonhotspot medoids are every kernel's negative class, so their
/// critical features are extracted once, one task per medoid, and each
/// kernel pads them to its own feature length.
///
/// All kernels are independent (Section III-G): each cluster is one task on
/// the [`Executor`], and each task runs its `(C, γ)` rounds in order
/// ([`train_iterative`]). The returned stats are those of the kernel tasks.
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
    train_oriented_kernels(
        hotspots,
        clusters,
        nonhotspot_medoids,
        &[],
        config,
        executor,
    )
}

/// [`train_cluster_kernels_with`] given the canonical orientations of the
/// nonhotspot medoids' cores, so their features reuse them; a medoid past
/// the end of `medoid_orientations` derives its own.
pub(crate) fn train_oriented_kernels(
    hotspots: &[Pattern],
    clusters: &[PatternCluster],
    nonhotspot_medoids: &[Pattern],
    medoid_orientations: &[Orientation],
    config: &DetectorConfig,
    executor: &Executor,
) -> Result<(Vec<ClusterKernel>, ExecutorStats), TrainError> {
    let (medoid_features, _) = executor.map(nonhotspot_medoids, |i, p| {
        critical_features(p, Region::Core, config, medoid_orientations.get(i).copied())
    });
    let (results, stats) = executor.map(clusters, |_, cl| {
        train_one_kernel(hotspots, cl, &medoid_features, config)
    });
    let kernels = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((kernels, stats))
}

/// Trains the kernel of `cluster` against the nonhotspot medoids' features.
fn train_one_kernel(
    hotspots: &[Pattern],
    cluster: &PatternCluster,
    medoid_features: &[CriticalFeatures],
    config: &DetectorConfig,
) -> Result<ClusterKernel, TrainError> {
    // Determine the kernel's feature length from the cluster members.
    let member_features: Vec<CriticalFeatures> = cluster
        .members
        .iter()
        .zip(&cluster.orientations)
        .map(|(&i, &o)| critical_features(&hotspots[i], Region::Core, config, Some(o)))
        .collect();
    let feature_len = member_features
        .iter()
        .map(|f| f.to_vector().len())
        .max()
        .unwrap_or(5)
        .max(5);

    let x: Vec<Vec<f64>> = member_features
        .iter()
        .chain(medoid_features)
        .map(|f| f.to_vector_padded(feature_len))
        .collect();
    let y: Vec<f64> = std::iter::repeat_n(1.0, member_features.len())
        .chain(std::iter::repeat_n(-1.0, medoid_features.len()))
        .collect();
    fit_kernel(cluster, &x, &y, feature_len, config)
}

/// Fits the kernel of `cluster` on its assembled training vectors `x`
/// (hotspots first, labelled `+1`, then nonhotspots, `−1`).
fn fit_kernel(
    cluster: &PatternCluster,
    x: &[Vec<f64>],
    y: &[f64],
    feature_len: usize,
    config: &DetectorConfig,
) -> Result<ClusterKernel, TrainError> {
    let fit = train_iterative(x, y, config)?;
    let decisions: Vec<f64> = x.iter().map(|v| fit.model.decision_value(v)).collect();
    let platt = PlattScaler::fit(&decisions, y);
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
fn pad(mut v: Vec<f64>, len: usize) -> Vec<f64> {
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
    fn kernel_admission_guards_the_centroid_shape() {
        let cfg = test_config();
        let (bar_sig, bar_grid) = core_signature_and_grid(&bar_pattern(200), &cfg);
        let (pair_sig, pair_grid) = core_signature_and_grid(&pair_pattern(100), &cfg);
        assert_ne!(bar_sig, pair_sig);
        // Same topology, or a density grid at distance 0: admitted.
        assert!(kernel_admits(
            &bar_sig, &pair_grid, &bar_sig, &bar_grid, 0.0, &cfg
        ));
        assert!(kernel_admits(
            &pair_sig, &bar_grid, &bar_sig, &bar_grid, 0.0, &cfg
        ));
        // Another topology and a distant grid: not admitted.
        assert!(!kernel_admits(
            &pair_sig, &pair_grid, &bar_sig, &bar_grid, 0.0, &cfg
        ));
        // A centroid of the grid's width but another height aligns in no
        // orientation: not admitted, and the eq. (1) distance is never asked.
        let g = cfg.cluster.grid;
        let flat = DensityGrid::from_cells(g, g / 2, vec![0.0; g * g / 2]);
        assert!(!kernel_admits(
            &pair_sig,
            &pair_grid,
            &bar_sig,
            &flat,
            f64::MAX,
            &cfg
        ));
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
    fn oriented_feature_memo_matches_direct_extraction() {
        let cfg = test_config();
        for p in [pair_pattern(120), bar_pattern(300)] {
            let window = normalized_window(&p, Region::Core);
            let rects = normalized_rects(&p, Region::Core);
            let (_, orientation) = TopoSignature::with_orientation(&window, &rects);
            let mut memo = FeatureMemo::oriented(&p, Region::Core, &cfg, orientation);
            for len in [5usize, 9, 17] {
                assert_eq!(
                    memo.padded(len),
                    feature_vector_padded(&p, Region::Core, &cfg, len).as_slice(),
                    "len {len}"
                );
            }
        }
    }

    /// The kernel training `train_cluster_kernels` replaced: every kernel
    /// re-extracts each nonhotspot medoid's features at its own length.
    fn per_kernel_extraction(
        hotspots: &[Pattern],
        clusters: &[PatternCluster],
        medoids: &[Pattern],
        config: &DetectorConfig,
    ) -> Vec<ClusterKernel> {
        clusters
            .iter()
            .map(|cl| {
                let feature_len = cl
                    .members
                    .iter()
                    .map(|&i| feature_vector(&hotspots[i], Region::Core, config).len())
                    .max()
                    .unwrap_or(5)
                    .max(5);
                let mut x: Vec<Vec<f64>> = Vec::new();
                let mut y: Vec<f64> = Vec::new();
                for &i in &cl.members {
                    x.push(feature_vector_padded(
                        &hotspots[i],
                        Region::Core,
                        config,
                        feature_len,
                    ));
                    y.push(1.0);
                }
                for p in medoids {
                    x.push(feature_vector_padded(p, Region::Core, config, feature_len));
                    y.push(-1.0);
                }
                fit_kernel(cl, &x, &y, feature_len, config).expect("training")
            })
            .collect()
    }

    #[test]
    fn shared_medoid_features_match_per_kernel_extraction() {
        let toy_sets = [
            (
                vec![
                    bar_pattern(200),
                    bar_pattern(220),
                    pair_pattern(100),
                    pair_pattern(120),
                ],
                vec![bar_pattern(1000), pair_pattern(600)],
            ),
            (
                vec![
                    bar_pattern(200),
                    bar_pattern(220),
                    pair_pattern(100),
                    pair_pattern(140),
                ],
                vec![bar_pattern(1000)],
            ),
        ];
        for (hotspots, medoids) in &toy_sets {
            let clusters = classify_patterns(hotspots, Region::Core, &test_config().cluster);
            let expected = per_kernel_extraction(hotspots, &clusters, medoids, &test_config());
            for threads in [1, 4] {
                let cfg = DetectorConfig {
                    threads,
                    ..test_config()
                };
                let kernels = train_cluster_kernels(hotspots, &clusters, medoids, &cfg).unwrap();
                assert_eq!(kernels, expected, "threads {threads}");
            }
        }
    }

    #[test]
    fn pad_zero_fills_and_truncates() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(pad(v.clone(), 5), vec![1.0, 2.0, 3.0, 0.0, 0.0]);
        assert_eq!(pad(v, 2), vec![1.0, 2.0]);
    }
}

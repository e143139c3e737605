//! All framework parameters, defaulting to the values the paper reports in
//! its experiments (Section V, second experiment set).

use hotspot_geom::{Coord, RasterMode};
use hotspot_layout::ClipShape;
use hotspot_topo::{ClusterParams, FeatureConfig};
use serde::{Deserialize, Serialize};

/// Requirements on the polygon distribution of an extracted layout clip
/// (Section III-E): clips failing any bound are discarded before SVM
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributionFilter {
    /// Minimum polygon density inside the clip's core.
    pub min_core_density: f64,
    /// Minimum number of polygon rectangles inside the clip.
    pub min_polygon_count: usize,
    /// Maximum allowed distance between each clip boundary and the bounding
    /// box of the polygons inside the clip (1440 nm in the paper).
    pub max_boundary_bbox_distance: Coord,
}

impl Default for DistributionFilter {
    fn default() -> Self {
        DistributionFilter {
            min_core_density: 0.01,
            min_polygon_count: 1,
            max_boundary_bbox_distance: 1440,
        }
    }
}

/// Ablation switches matching the rows of Table III: `Basic` corresponds to
/// all three disabled (handled by the baselines crate), `+Topology` enables
/// clustering only, `+Removal` adds redundant clip removal, and the full
/// framework also enables the feedback kernel.
///
/// The detector always trains with topology on: the `Basic` row is
/// `hotspot_baselines::SingleKernelSvm`, and
/// [`DetectorConfig::validate`] rejects `topology: false`. The field stays
/// so model files that carry it still load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationSwitches {
    /// Topological classification + population balancing + multiple
    /// kernels. Must be `true`.
    pub topology: bool,
    /// Redundant clip removal after evaluation.
    pub removal: bool,
    /// Feedback kernel training and evaluation.
    pub feedback: bool,
}

impl Default for AblationSwitches {
    fn default() -> Self {
        AblationSwitches {
            topology: true,
            removal: true,
            feedback: true,
        }
    }
}

/// The evaluation engine: one value, kept so model files that name it
/// (`"eval_mode":"Compiled"`) still load. Clip evaluation always runs the
/// admission router ([`hotspot_topo::route::CentroidRouter`]) and the
/// flattened support-vector evaluator ([`hotspot_svm::CompiledModel`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalMode {
    /// The compiled router and SVM engines.
    #[default]
    Compiled,
}

/// Kernel-admission parameters: when a clip's core density grid is within
/// `max(kernel radius, radius_floor) × fuzziness` of a kernel's cluster
/// centroid under the eq. (1) distance — or its topology matches exactly —
/// the kernel evaluates the clip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionParams {
    /// Fuzziness factor scaling each kernel's admission radius (1.5).
    pub fuzziness: f64,
    /// Lower bound on the radius before scaling, so kernels whose cluster
    /// collapsed to a point still admit their own centroid.
    pub radius_floor: f64,
}

impl Default for AdmissionParams {
    fn default() -> Self {
        AdmissionParams {
            fuzziness: 1.5,
            radius_floor: 1e-9,
        }
    }
}

impl AdmissionParams {
    /// The admission threshold of a kernel with the given cluster radius.
    pub fn threshold(&self, radius: f64) -> f64 {
        radius.max(self.radius_floor) * self.fuzziness
    }
}

/// Full configuration of [`crate::HotspotDetector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Core/clip geometry (ICCAD-2012: 1.2 µm core, 4.8 µm clip).
    pub clip_shape: ClipShape,
    /// Initial SVM penalty `C` (1000 in the paper).
    pub initial_c: f64,
    /// Initial RBF width `γ` (0.01 in the paper).
    pub initial_gamma: f64,
    /// Upper bound on self-training rounds; `C` and `γ` double each round.
    pub max_learning_rounds: usize,
    /// Stop self-training once training accuracy reaches this (0.9).
    pub target_training_accuracy: f64,
    /// Density-based classification parameters (K = 10 in the paper).
    pub cluster: ClusterParams,
    /// Critical-feature extraction configuration.
    pub feature: FeatureConfig,
    /// Data-shifting distance for hotspot upsampling (120 nm = `l_c`/10).
    pub data_shift: Coord,
    /// Polygon-distribution requirements for clip extraction.
    pub distribution: DistributionFilter,
    /// Minimum core-overlap ratio for clip merging (0.2 in the paper).
    pub min_merge_overlap: f64,
    /// Separating distance `l_s` of core reframing (1150 nm; must stay
    /// below the core side).
    pub reframe_separation: Coord,
    /// Merging regions holding more than this many cores are reframed (4).
    pub reframe_core_limit: usize,
    /// Clip-overlap ratio required for a reported hotspot to count as a hit.
    pub min_hit_clip_overlap: f64,
    /// SVM decision threshold at evaluation; raising it trades hits for
    /// fewer extras (`ours_med` ≈ 0.3, `ours_low` ≈ 0.6 operating points).
    /// Training's feedback self-evaluation flags at this threshold too;
    /// [`crate::HotspotDetector::with_decision_threshold`] moves only the
    /// evaluation of a trained detector.
    pub decision_threshold: f64,
    /// Kernel-admission parameters (fuzziness factor and radius floor).
    ///
    /// Absent in model files written before schema v2 of the evaluation
    /// engine; such files load with the default parameters.
    #[serde(default)]
    pub admission: AdmissionParams,
    /// The evaluation engine, which has one value. Kept in model files and
    /// the tile-cache fingerprint; absent from older files, hence the
    /// serde default.
    #[serde(default)]
    pub eval_mode: EvalMode,
    /// The rasterisation strategy, which has one value; kept like
    /// `eval_mode`.
    #[serde(default)]
    pub raster_mode: RasterMode,
    /// Worker threads for training and evaluation; 0 = one per core.
    pub threads: usize,
    /// Ablation switches (Table III).
    pub ablation: AblationSwitches,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            clip_shape: ClipShape::ICCAD2012,
            initial_c: 1000.0,
            initial_gamma: 0.01,
            max_learning_rounds: 8,
            target_training_accuracy: 0.9,
            cluster: ClusterParams {
                radius_floor: 4.0,
                expected_count: 10,
                grid: 8,
            },
            feature: FeatureConfig::default(),
            data_shift: 120,
            distribution: DistributionFilter::default(),
            min_merge_overlap: 0.2,
            reframe_separation: 1150,
            reframe_core_limit: 4,
            min_hit_clip_overlap: 0.2,
            decision_threshold: 0.0,
            admission: AdmissionParams::default(),
            eval_mode: EvalMode::default(),
            raster_mode: RasterMode::default(),
            threads: 0,
            ablation: AblationSwitches::default(),
        }
    }
}

impl DetectorConfig {
    /// Validates internal consistency (e.g. `l_s < l_c`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.ablation.topology {
            return Err(
                "ablation.topology = false is not supported: the single-kernel \
                        (Basic) ablation is hotspot_baselines::SingleKernelSvm"
                    .into(),
            );
        }
        check_clip_shape(self.clip_shape)?;
        if self.reframe_separation >= self.clip_shape.core_side() {
            return Err(format!(
                "reframe separation {} must be below the core side {}",
                self.reframe_separation,
                self.clip_shape.core_side()
            ));
        }
        if !(0.0..=1.0).contains(&self.target_training_accuracy) {
            return Err("target training accuracy must lie in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.min_merge_overlap) {
            return Err("minimum merge overlap must lie in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.min_hit_clip_overlap) {
            return Err("minimum hit clip overlap must lie in [0, 1]".into());
        }
        if self.initial_c <= 0.0 || self.initial_gamma <= 0.0 {
            return Err("initial C and gamma must be positive".into());
        }
        if self.data_shift < 0 {
            return Err("data shift cannot be negative".into());
        }
        if self.admission.fuzziness < 0.0 {
            return Err("admission fuzziness cannot be negative".into());
        }
        if self.admission.radius_floor < 0.0 {
            return Err("admission radius floor cannot be negative".into());
        }
        Ok(())
    }

    /// Number of worker threads to actually use.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Checks `shape` as [`ClipShape::new`] does: a deserialised shape skips
/// that constructor, so every config and model path re-checks it here.
pub(crate) fn check_clip_shape(shape: ClipShape) -> Result<(), String> {
    ClipShape::new(shape.core_side(), shape.clip_side())
        .map(drop)
        .map_err(|e| {
            format!(
                "invalid clip shape {}/{}: {e}",
                shape.core_side(),
                shape.clip_side()
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DetectorConfig::default();
        assert_eq!(c.initial_c, 1000.0);
        assert_eq!(c.initial_gamma, 0.01);
        assert_eq!(c.cluster.expected_count, 10);
        assert_eq!(c.data_shift, 120);
        assert_eq!(c.distribution.max_boundary_bbox_distance, 1440);
        assert_eq!(c.min_merge_overlap, 0.2);
        assert_eq!(c.reframe_separation, 1150);
        assert_eq!(c.clip_shape.core_side(), 1200);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = DetectorConfig {
            reframe_separation: 1200,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DetectorConfig {
            target_training_accuracy: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DetectorConfig {
            initial_gamma: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = DetectorConfig {
            data_shift: -5,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        // A deserialised clip shape bypasses `ClipShape::new`.
        for (core, clip) in [(4800, 1200), (1200, 4801), (-100, 4800)] {
            let json = serde_json::to_string(&DetectorConfig::default())
                .unwrap()
                .replace(
                    r#""clip_shape":{"core_side":1200,"clip_side":4800}"#,
                    &format!(r#""clip_shape":{{"core_side":{core},"clip_side":{clip}}}"#),
                );
            let c: DetectorConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(c.clip_shape.clip_side(), clip);
            let err = c.validate().unwrap_err();
            assert!(err.starts_with("invalid clip shape"), "{err}");
        }
    }

    #[test]
    fn admission_threshold_applies_floor_then_fuzziness() {
        let p = AdmissionParams::default();
        assert_eq!(p.threshold(4.0), 4.0 * 1.5);
        assert_eq!(p.threshold(0.0), 1e-9 * 1.5);
        let custom = AdmissionParams {
            fuzziness: 2.0,
            radius_floor: 0.5,
        };
        assert_eq!(custom.threshold(0.1), 1.0);
    }

    #[test]
    fn configs_without_admission_fields_load_with_defaults() {
        // A config serialised before the `admission`/`eval_mode` fields
        // existed (the old flat `fuzziness` knob is ignored by serde).
        let default_json = serde_json::to_string(&DetectorConfig::default()).unwrap();
        let mut value = serde_json::parse_value(&default_json).unwrap();
        let serde::Value::Object(entries) = &mut value else {
            panic!("config serialises as an object");
        };
        entries.retain(|(k, _)| k != "admission" && k != "eval_mode" && k != "raster_mode");
        entries.push(("fuzziness".into(), serde::Value::Float(1.5)));
        let legacy = serde_json::to_string(&value).unwrap();
        let parsed: DetectorConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.admission, AdmissionParams::default());
        assert_eq!(parsed.eval_mode, EvalMode::Compiled);
        assert_eq!(parsed.raster_mode, RasterMode::Sat);
    }

    #[test]
    fn retired_reference_modes_no_longer_load() {
        let json = serde_json::to_string(&DetectorConfig::default()).unwrap();
        for (from, key) in [
            (r#""eval_mode":"Compiled""#, "eval_mode"),
            (r#""raster_mode":"Sat""#, "raster_mode"),
        ] {
            assert!(json.contains(from), "{json}");
            for value in ["reference", "Reference"] {
                let retired = json.replace(from, &format!(r#""{key}":"{value}""#));
                assert!(serde_json::from_str::<DetectorConfig>(&retired).is_err());
            }
        }
    }

    #[test]
    fn validation_catches_bad_admission_params() {
        let c = DetectorConfig {
            admission: AdmissionParams {
                fuzziness: -1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = DetectorConfig {
            admission: AdmissionParams {
                radius_floor: -1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn effective_threads_positive() {
        assert!(DetectorConfig::default().effective_threads() >= 1);
        assert_eq!(
            DetectorConfig {
                threads: 3,
                ..Default::default()
            }
            .effective_threads(),
            3
        );
    }
}

//! End-to-end double-patterning hotspot detection (Section IV-B).
//!
//! When layouts are printed with two masks, a clip's risk depends on its
//! decomposition: each mask prints at relaxed pitch, but the combined
//! pattern (and decomposition-induced stitches) can still fail. Following
//! Fig. 14(b), every clip contributes three mask-marked feature sets —
//! mask 1, mask 2, and the combined pattern — to the SVM.
//!
//! The decomposition is either provided by the foundry (as the paper
//! assumes) or computed by the greedy two-colouring in
//! [`hotspot_topo::patterning::MaskDecomposition::decompose`].

use crate::config::DetectorConfig;
use crate::extraction::{extract_clips_indexed, RectIndex};
use crate::pattern::Pattern;
use crate::training::ExtensionKernel;
use hotspot_geom::{Coord, Rect};
use hotspot_layout::{ClipWindow, LayerId, Layout};
use hotspot_svm::TrainError;
use hotspot_topo::patterning::{MaskDecomposition, PatterningFeatures};
use serde::{Deserialize, Serialize};

/// A labelled clip with its mask decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecomposedPattern {
    /// The clip window.
    pub window: ClipWindow,
    /// The two-mask decomposition of the clip's geometry.
    pub decomposition: MaskDecomposition,
}

impl DecomposedPattern {
    /// Builds a decomposed pattern from a plain clip, colouring rectangles
    /// closer than `min_spacing` onto different masks.
    pub fn from_pattern(pattern: &Pattern, min_spacing: Coord) -> DecomposedPattern {
        let local: Vec<Rect> = pattern.rects.clone();
        DecomposedPattern {
            window: pattern.window,
            decomposition: MaskDecomposition::decompose(&local, min_spacing),
        }
    }

    /// The three-set Fig. 14(b) feature vector over the core region.
    pub fn feature_vector(&self, config: &DetectorConfig) -> Vec<f64> {
        let core = self.window.core;
        let local = Rect::from_extents(0, 0, core.width(), core.height());
        let clip_to_core = |rects: &[Rect]| -> Vec<Rect> {
            rects
                .iter()
                .filter_map(|r| r.intersection(&core))
                .map(|r| r.translate(-core.min()))
                .collect()
        };
        let d = MaskDecomposition {
            mask1: clip_to_core(&self.decomposition.mask1),
            mask2: clip_to_core(&self.decomposition.mask2),
        };
        PatterningFeatures::extract(&local, &d, &config.feature).to_vector()
    }

    /// The combined (single-exposure-equivalent) pattern.
    pub fn combined_pattern(&self) -> Pattern {
        Pattern::new(self.window, &self.decomposition.combined())
    }
}

/// A trained double-patterning detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DoublePatterningDetector {
    kernels: Vec<ExtensionKernel>,
    min_spacing: Coord,
    config: DetectorConfig,
}

impl DoublePatterningDetector {
    /// Trains per-cluster kernels over decomposed patterns. Classification
    /// runs on the combined pattern's core topology; features are the
    /// mask-marked three-set vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the hotspot set is empty or SVM training
    /// fails.
    pub fn train(
        hotspots: &[DecomposedPattern],
        nonhotspots: &[DecomposedPattern],
        min_spacing: Coord,
        config: DetectorConfig,
    ) -> Result<DoublePatterningDetector, TrainError> {
        if hotspots.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        let class_patterns: Vec<Pattern> = hotspots
            .iter()
            .map(DecomposedPattern::combined_pattern)
            .collect();
        let features = |set: &[DecomposedPattern]| -> Vec<Vec<f64>> {
            set.iter().map(|p| p.feature_vector(&config)).collect()
        };
        let kernels = ExtensionKernel::train_all(
            &class_patterns,
            &features(hotspots),
            &features(nonhotspots),
            &config,
        )?;
        Ok(DoublePatterningDetector {
            kernels,
            min_spacing,
            config,
        })
    }

    /// Number of trained kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// The decomposition spacing rule the detector was trained with.
    pub fn min_spacing(&self) -> Coord {
        self.min_spacing
    }

    /// Classifies one decomposed clip.
    pub fn classify(&self, pattern: &DecomposedPattern) -> bool {
        ExtensionKernel::any_flags(
            &self.kernels,
            &pattern.combined_pattern(),
            &pattern.feature_vector(&self.config),
            &self.config,
        )
    }

    /// Scans a testing layout, decomposing every extracted clip with the
    /// trained spacing rule.
    pub fn detect(&self, layout: &Layout, layer: LayerId) -> Vec<ClipWindow> {
        let index = RectIndex::from_layout(layout, layer, self.config.clip_shape.clip_side());
        let clips =
            extract_clips_indexed(&index, self.config.clip_shape, &self.config.distribution);
        clips
            .into_iter()
            .filter_map(|clip| {
                let dp = DecomposedPattern::from_pattern(&clip, self.min_spacing);
                if self.classify(&dp) {
                    Some(clip.window)
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::Point;
    use hotspot_layout::ClipShape;

    fn window() -> ClipWindow {
        ClipShape::ICCAD2012.window_from_core_corner(Point::new(0, 0))
    }

    /// Three bars at pitch `p` (width 150).
    fn bars(p: i64) -> Vec<Rect> {
        (0..3)
            .map(|i| Rect::from_extents(i * p, 0, i * p + 150, 1000))
            .collect()
    }

    fn decomposed(p: i64) -> DecomposedPattern {
        DecomposedPattern::from_pattern(&Pattern::new(window(), &bars(p)), 250)
    }

    fn training_sets() -> (Vec<DecomposedPattern>, Vec<DecomposedPattern>) {
        // Hotspots: pitches so tight that even decomposition leaves same-
        // mask neighbours close. Nonhotspots: relaxed pitches.
        let hotspots: Vec<_> = (0..4).map(|i| decomposed(230 + 5 * i)).collect();
        let nonhotspots: Vec<_> = (0..6).map(|i| decomposed(450 + 20 * i)).collect();
        (hotspots, nonhotspots)
    }

    fn config() -> DetectorConfig {
        DetectorConfig {
            max_learning_rounds: 4,
            ..Default::default()
        }
    }

    #[test]
    fn from_pattern_decomposes_tight_pitches() {
        let d = decomposed(240);
        assert!(!d.decomposition.mask1.is_empty());
        assert!(!d.decomposition.mask2.is_empty());
        assert_eq!(d.decomposition.combined().len(), 3);
    }

    #[test]
    fn relaxed_pitch_stays_on_one_mask() {
        let d = DecomposedPattern::from_pattern(&Pattern::new(window(), &bars(600)), 250);
        assert!(d.decomposition.mask2.is_empty());
    }

    #[test]
    fn feature_vector_carries_mask_marks() {
        let d = decomposed(240);
        let v = d.feature_vector(&config());
        assert_eq!(v[0], 1.0, "mask-1 marker");
        assert!(v.len() > 10);
    }

    #[test]
    fn detector_separates_pitches() {
        let (hs, nhs) = training_sets();
        let det = DoublePatterningDetector::train(&hs, &nhs, 250, config()).unwrap();
        assert!(det.kernel_count() >= 1);
        assert!(det.classify(&decomposed(242)), "tight pitch must flag");
        assert!(!det.classify(&decomposed(500)), "relaxed pitch must pass");
    }

    #[test]
    fn detect_scans_layout() {
        let (hs, nhs) = training_sets();
        let det = DoublePatterningDetector::train(&hs, &nhs, 250, config()).unwrap();
        let mut layout = Layout::new("dp");
        let at = Point::new(24_000, 24_000);
        for r in bars(235) {
            layout.add_rect(LayerId::METAL1, r.translate(at));
        }
        for r in hotspot_benchgen::generator::filler_rects(at) {
            layout.add_rect(LayerId::METAL1, r);
        }
        let reported = det.detect(&layout, LayerId::METAL1);
        let target = ClipShape::ICCAD2012.window_from_core_corner(at);
        assert!(
            reported.iter().any(|w| w.is_hit(&target, 0.2)),
            "tight-pitch hotspot not reported ({} reports)",
            reported.len()
        );
    }

    #[test]
    fn empty_training_errors() {
        let r = DoublePatterningDetector::train(&[], &[], 250, config());
        assert!(matches!(r, Err(TrainError::EmptyTrainingSet)));
    }
}

//! End-to-end multilayer hotspot detection (Section IV-A).
//!
//! Real hotspots can be formed by the interaction of several metal layers.
//! Following the paper: topological classification runs on one selected
//! layer; for every training pattern the features comprise `m` per-layer
//! critical-feature sets plus `m − 1` sets from the overlapped polygons of
//! adjacent layers (Fig. 13). Clip extraction also runs on the
//! classification layer, and each extracted clip gathers the geometry of
//! all layers before evaluation.

use crate::config::DetectorConfig;
use crate::detector::DetectError;
use crate::extraction::{extract_clips_indexed, RectIndex};
use crate::pattern::Pattern;
use crate::training::ExtensionKernel;
use hotspot_geom::Rect;
use hotspot_layout::{ClipWindow, LayerId, Layout};
use hotspot_svm::TrainError;
use hotspot_topo::multilayer::MultilayerFeatures;
use serde::{Deserialize, Serialize};

/// A clip pattern spanning several layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultilayerPattern {
    /// The clip window shared by all layers.
    pub window: ClipWindow,
    /// Per-layer rectangles (outer index = layer, in a fixed order).
    pub layers: Vec<Vec<Rect>>,
}

impl MultilayerPattern {
    /// Builds a pattern, clipping every layer's rects to the window.
    pub fn new(window: ClipWindow, layers: &[Vec<Rect>]) -> MultilayerPattern {
        MultilayerPattern {
            window,
            layers: layers
                .iter()
                .map(|rects| {
                    rects
                        .iter()
                        .filter_map(|r| r.intersection(&window.clip))
                        .collect()
                })
                .collect(),
        }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The single-layer pattern of the classification layer (layer 0).
    pub fn classification_pattern(&self) -> Pattern {
        Pattern::new(self.window, self.layers.first().map_or(&[], Vec::as_slice))
    }

    /// Core-region rects of every layer, in window-local coordinates.
    fn normalized_core_layers(&self) -> (Rect, Vec<Vec<Rect>>) {
        let core = self.window.core;
        let local = Rect::from_extents(0, 0, core.width(), core.height());
        let layers = self
            .layers
            .iter()
            .map(|rects| {
                rects
                    .iter()
                    .filter_map(|r| r.intersection(&core))
                    .map(|r| r.translate(-core.min()))
                    .collect()
            })
            .collect();
        (local, layers)
    }

    /// The Fig. 13 feature vector: `m` per-layer sets + `m − 1` overlap
    /// sets over the core region.
    pub fn feature_vector(&self, config: &DetectorConfig) -> Vec<f64> {
        let (window, layers) = self.normalized_core_layers();
        MultilayerFeatures::extract(&window, &layers, &config.feature).to_vector()
    }
}

/// A labelled multilayer training corpus.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MultilayerTrainingSet {
    /// Hotspot patterns.
    pub hotspots: Vec<MultilayerPattern>,
    /// Nonhotspot patterns.
    pub nonhotspots: Vec<MultilayerPattern>,
}

/// The trained multilayer detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultilayerDetector {
    kernels: Vec<ExtensionKernel>,
    layer_count: usize,
    config: DetectorConfig,
}

impl MultilayerDetector {
    /// Trains per-cluster kernels: classification by the first layer's core
    /// topology, features from all layers plus adjacent-layer overlaps.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] for empty or inconsistent training data.
    pub fn train(
        training: &MultilayerTrainingSet,
        config: DetectorConfig,
    ) -> Result<MultilayerDetector, TrainError> {
        if training.hotspots.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        let layer_count = training.hotspots[0].layer_count();

        // Classify hotspots by the first layer (the paper classifies "on
        // one randomly selected layer"; we fix layer 0 for determinism).
        let class_patterns: Vec<Pattern> = training
            .hotspots
            .iter()
            .map(MultilayerPattern::classification_pattern)
            .collect();
        // Nonhotspot side: all nonhotspots (multilayer sets are small; the
        // single-layer pipeline's medoid downsampling applies before this).
        let features = |set: &[MultilayerPattern]| -> Vec<Vec<f64>> {
            set.iter().map(|p| p.feature_vector(&config)).collect()
        };
        let kernels = ExtensionKernel::train_all(
            &class_patterns,
            &features(&training.hotspots),
            &features(&training.nonhotspots),
            &config,
        )?;
        Ok(MultilayerDetector {
            kernels,
            layer_count,
            config,
        })
    }

    /// Number of trained kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Classifies one multilayer clip (any-kernel-flags semantics).
    pub fn classify(&self, pattern: &MultilayerPattern) -> bool {
        ExtensionKernel::any_flags(
            &self.kernels,
            &pattern.classification_pattern(),
            &pattern.feature_vector(&self.config),
            &self.config,
        )
    }

    /// Scans a testing layout: clips extracted on `layers[0]`, geometry
    /// gathered from every listed layer.
    ///
    /// # Errors
    ///
    /// [`DetectError::Config`] if `layers` does not match the trained layer
    /// count.
    pub fn detect(
        &self,
        layout: &Layout,
        layers: &[LayerId],
    ) -> Result<Vec<ClipWindow>, DetectError> {
        if layers.len() != self.layer_count {
            return Err(DetectError::Config(format!(
                "layer count mismatch with training: {} given, {} trained",
                layers.len(),
                self.layer_count
            )));
        }
        let base_index =
            RectIndex::from_layout(layout, layers[0], self.config.clip_shape.clip_side());
        let clips = extract_clips_indexed(
            &base_index,
            self.config.clip_shape,
            &self.config.distribution,
        );
        let other_indexes: Vec<RectIndex> = layers[1..]
            .iter()
            .map(|&l| RectIndex::from_layout(layout, l, self.config.clip_shape.clip_side()))
            .collect();
        Ok(clips
            .into_iter()
            .filter_map(|clip| {
                let mut layer_rects = vec![clip.rects.clone()];
                for idx in &other_indexes {
                    layer_rects.push(idx.query(&clip.window.clip));
                }
                let ml = MultilayerPattern::new(clip.window, &layer_rects);
                if self.classify(&ml) {
                    Some(clip.window)
                } else {
                    None
                }
            })
            .collect())
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

    /// Metal-1 bars with a gap; metal 2 may add a crossing wire whose via
    /// overlap makes the difference between hotspot and safe.
    fn m1(gap: i64) -> Vec<Rect> {
        vec![
            Rect::from_extents(0, 0, 400, 300),
            Rect::from_extents(400 + gap, 0, 800 + gap, 300),
        ]
    }

    fn crossing_m2() -> Vec<Rect> {
        vec![Rect::from_extents(350, 0, 550, 1100)]
    }

    fn training() -> MultilayerTrainingSet {
        let mut t = MultilayerTrainingSet::default();
        // Hotspots: narrow m1 gap WITH an m2 crossing wire.
        for i in 0..4 {
            t.hotspots.push(MultilayerPattern::new(
                window(),
                &[m1(60 + 10 * i), crossing_m2()],
            ));
        }
        // Nonhotspots: same m1 topology but no m2 crossing, or wide gaps.
        for i in 0..4 {
            t.nonhotspots
                .push(MultilayerPattern::new(window(), &[m1(60 + 10 * i), vec![]]));
            t.nonhotspots.push(MultilayerPattern::new(
                window(),
                &[m1(450 + 10 * i), crossing_m2()],
            ));
        }
        t
    }

    fn config() -> DetectorConfig {
        DetectorConfig {
            max_learning_rounds: 4,
            ..Default::default()
        }
    }

    #[test]
    fn pattern_construction_clips_all_layers() {
        let p = MultilayerPattern::new(
            window(),
            &[
                vec![Rect::from_extents(-9000, 0, 400, 300)],
                vec![Rect::from_extents(0, -9000, 300, 400)],
            ],
        );
        assert_eq!(p.layer_count(), 2);
        for layer in &p.layers {
            for r in layer {
                assert!(p.window.clip.contains_rect(r));
            }
        }
    }

    #[test]
    fn feature_vector_covers_layers_and_overlap() {
        let p = MultilayerPattern::new(window(), &[m1(100), crossing_m2()]);
        let cfg = config();
        let v = p.feature_vector(&cfg);
        // Two per-layer sets plus one overlap set: at least 15 values.
        assert!(v.len() >= 15, "vector too short: {}", v.len());
    }

    #[test]
    fn detector_separates_by_second_layer() {
        // The classification layer (m1) is identical between hotspots and
        // the "no crossing wire" nonhotspots: only the m2 features decide.
        let det = MultilayerDetector::train(&training(), config()).unwrap();
        assert!(det.kernel_count() >= 1);
        let hot = MultilayerPattern::new(window(), &[m1(75), crossing_m2()]);
        let cold = MultilayerPattern::new(window(), &[m1(75), vec![]]);
        assert!(det.classify(&hot), "crossing-wire pattern must flag");
        assert!(!det.classify(&cold), "bare-m1 pattern must pass");
    }

    #[test]
    fn detect_scans_both_layers() {
        let det = MultilayerDetector::train(&training(), config()).unwrap();
        let mut layout = Layout::new("ml");
        let (l1, l2) = (LayerId::new(1), LayerId::new(2));
        let at = Point::new(24_000, 24_000);
        for r in m1(70) {
            layout.add_rect(l1, r.translate(at));
        }
        for r in crossing_m2() {
            layout.add_rect(l2, r.translate(at));
        }
        for r in hotspot_benchgen::generator::filler_rects(at) {
            layout.add_rect(l1, r);
        }
        let reported = det.detect(&layout, &[l1, l2]).unwrap();
        let target = ClipShape::ICCAD2012.window_from_core_corner(at);
        assert!(
            reported.iter().any(|w| w.is_hit(&target, 0.2)),
            "multilayer hotspot not reported ({} reports)",
            reported.len()
        );
    }

    #[test]
    fn empty_training_errors() {
        let r = MultilayerDetector::train(&MultilayerTrainingSet::default(), config());
        assert!(matches!(r, Err(TrainError::EmptyTrainingSet)));
    }

    #[test]
    fn detect_rejects_wrong_layer_count() {
        let det = MultilayerDetector::train(&training(), config()).unwrap();
        let layout = Layout::new("ml");
        let err = det.detect(&layout, &[LayerId::new(1)]).unwrap_err();
        assert!(
            matches!(&err, DetectError::Config(m) if m.contains("layer count mismatch")),
            "{err:?}"
        );
    }
}

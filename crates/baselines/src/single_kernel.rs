//! The "Basic" baseline: one huge SVM kernel over raw density-grid
//! features (Table III).
//!
//! No topological classification, no population balancing, no feedback
//! kernel, no redundant clip removal. Features are the pixels of the core
//! region's density grid (the rapid layout-pattern classification features
//! of Wuu et al. \[9\]), which have a fixed length for every pattern — the
//! property the paper's critical features only gain *within* a cluster.

use crate::density::core_density_features as grid_features;
use hotspot_core::{extract_clips, DetectorConfig, Pattern, TrainingSet};
use hotspot_layout::{ClipWindow, LayerId, Layout};
use hotspot_svm::{Kernel, SvmModel, SvmTrainer, TrainError};
use std::time::{Duration, Instant};

/// The single-kernel baseline detector.
#[derive(Debug, Clone)]
pub struct SingleKernelSvm {
    model: SvmModel,
    grid: usize,
    config: DetectorConfig,
}

/// Detection outcome of the baseline (reported windows plus timing).
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Reported hotspot windows (unfiltered — no removal stage).
    pub reported: Vec<ClipWindow>,
    /// Candidate clips evaluated.
    pub clips_extracted: usize,
    /// Wall-clock evaluation time.
    pub runtime: Duration,
}

impl SingleKernelSvm {
    /// Trains the baseline on the full, unbalanced training set.
    ///
    /// # Errors
    ///
    /// Propagates SVM training failures.
    pub fn train(training: &TrainingSet, config: DetectorConfig) -> Result<Self, TrainError> {
        let grid = config.cluster.grid;
        let mut x = Vec::with_capacity(training.len());
        let mut y = Vec::with_capacity(training.len());
        for p in &training.hotspots {
            x.push(grid_features(p, grid));
            y.push(1.0);
        }
        for p in &training.nonhotspots {
            x.push(grid_features(p, grid));
            y.push(-1.0);
        }
        let model = SvmTrainer::new(Kernel::rbf(config.initial_gamma.max(1e-6)))
            .c(config.initial_c)
            .train(&x, &y)?;
        Ok(SingleKernelSvm {
            model,
            grid,
            config,
        })
    }

    /// Classifies one clip pattern at the config's decision threshold.
    pub fn classify(&self, pattern: &Pattern) -> bool {
        self.model
            .decision_value(&grid_features(pattern, self.grid))
            > self.config.decision_threshold
    }

    /// Scans a testing layout: same clip extraction as the framework, but a
    /// single kernel and no post-processing.
    pub fn detect(&self, layout: &Layout, layer: LayerId) -> BaselineReport {
        let start = Instant::now();
        let clips = extract_clips(layout, layer, &self.config);
        let reported = clips
            .iter()
            .filter(|c| self.classify(c))
            .map(|c| c.window)
            .collect();
        BaselineReport {
            reported,
            clips_extracted: clips.len(),
            runtime: start.elapsed(),
        }
    }

    /// The trained model's support-vector count (for diagnostics).
    pub fn support_vector_count(&self) -> usize {
        self.model.support_vector_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_core::Label;
    use hotspot_geom::{Point, Rect};
    use hotspot_layout::ClipShape;

    fn pattern(rects: &[Rect]) -> Pattern {
        let shape = ClipShape::ICCAD2012;
        Pattern::new(shape.window_from_core_corner(Point::new(0, 0)), rects)
    }

    fn hs(gap: i64) -> Vec<Rect> {
        vec![
            Rect::from_extents(0, 0, 400, 300),
            Rect::from_extents(400 + gap, 0, 800 + gap, 300),
        ]
    }

    fn training() -> TrainingSet {
        let mut ts = TrainingSet::new();
        for i in 0..5 {
            ts.push(pattern(&hs(60 + 10 * i)), Label::Hotspot);
        }
        for i in 0..10 {
            ts.push(pattern(&hs(350 + 5 * i)), Label::NonHotspot);
        }
        ts
    }

    #[test]
    fn trains_and_classifies() {
        let b = SingleKernelSvm::train(&training(), DetectorConfig::default()).unwrap();
        assert!(b.classify(&pattern(&hs(75))));
        assert!(!b.classify(&pattern(&hs(380))));
        assert!(b.support_vector_count() >= 2);
    }

    #[test]
    fn threshold_shifts_decision() {
        let at = |decision_threshold| {
            let config = DetectorConfig {
                decision_threshold,
                ..Default::default()
            };
            SingleKernelSvm::train(&training(), config).unwrap()
        };
        let p = pattern(&hs(75));
        assert!(at(-10.0).classify(&p));
        assert!(!at(10.0).classify(&p));
    }

    #[test]
    fn detect_scans_layout() {
        let b = SingleKernelSvm::train(&training(), DetectorConfig::default()).unwrap();
        let mut layout = Layout::new("t");
        for r in hs(70) {
            layout.add_rect(LayerId::METAL1, r.translate(Point::new(24_000, 24_000)));
        }
        // Dense filler so the distribution filter passes.
        for r in hotspot_benchgen::generator::filler_rects(Point::new(24_000, 24_000)) {
            layout.add_rect(LayerId::METAL1, r);
        }
        let report = b.detect(&layout, LayerId::METAL1);
        assert!(report.clips_extracted > 0);
        let target = ClipShape::ICCAD2012.window_from_core_corner(Point::new(24_000, 24_000));
        assert!(report.reported.iter().any(|w| w.is_hit(&target, 0.2)));
    }

    #[test]
    fn grid_features_fixed_length() {
        let a = grid_features(&pattern(&hs(60)), 8);
        let b = grid_features(&pattern(&[Rect::from_extents(0, 0, 100, 100)]), 8);
        assert_eq!(a.len(), 64);
        assert_eq!(b.len(), 64);
    }
}

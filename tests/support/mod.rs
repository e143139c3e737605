//! Test-side oracle for whole-layout evaluation.
//!
//! `detect` is the tiled scan, so checking the scan against `detect` would
//! compare the scan with itself. [`whole_layout_reference`] instead runs
//! the paper's evaluation chain (Fig. 3) sequentially over the whole
//! layout from public APIs only: indexed clip extraction, per-clip kernel
//! flags, the feedback kernel's reclaims, then redundant clip removal.

use hotspot_suite::core::extraction::extract_clips_indexed;
use hotspot_suite::core::removal::remove_redundant_clips;
use hotspot_suite::core::{EvalScratch, HotspotDetector, RectIndex, ScanReport};
use hotspot_suite::layout::{ClipWindow, LayerId, Layout};

/// What whole-layout evaluation reports: the fields a scan must match.
pub struct Reference {
    pub reported: Vec<ClipWindow>,
    pub clips_extracted: usize,
    pub clips_flagged: usize,
    pub feedback_reclaimed: usize,
}

/// Evaluates every candidate clip of `layout` on `layer` one at a time at
/// the detector's configured decision threshold.
pub fn whole_layout_reference(
    detector: &HotspotDetector,
    layout: &Layout,
    layer: LayerId,
) -> Reference {
    let config = detector.config();
    let threshold = config.decision_threshold;
    let shape = config.clip_shape;
    let index = RectIndex::from_layout(layout, layer, shape.clip_side());
    let clips = extract_clips_indexed(&index, shape, &config.distribution);
    let engine = detector.eval_engine_with_threshold(threshold);
    let mut scratch = EvalScratch::new();
    let (mut clips_flagged, mut feedback_reclaimed, mut cores) = (0, 0, Vec::new());
    for clip in &clips {
        if engine.flagging_kernels(clip, &mut scratch).is_empty() {
            continue;
        }
        clips_flagged += 1;
        if detector.classify_with_threshold(clip, threshold) {
            cores.push(clip.window.core);
        } else {
            feedback_reclaimed += 1;
        }
    }
    let reported = if config.ablation.removal {
        remove_redundant_clips(cores, shape, &index, config)
    } else {
        cores
            .into_iter()
            .map(|core| ClipWindow {
                core,
                clip: core.inflate(shape.ambit()),
            })
            .collect()
    };
    Reference {
        reported,
        clips_extracted: clips.len(),
        clips_flagged,
        feedback_reclaimed,
    }
}

impl Reference {
    /// Asserts that a scan's hotspot set and clip counts equal the
    /// oracle's; `context` names the configuration under test.
    pub fn assert_matches(&self, report: &ScanReport, context: &str) {
        assert_eq!(report.reported, self.reported, "hotspot set: {context}");
        assert_eq!(
            report.clips_extracted, self.clips_extracted,
            "clips: {context}"
        );
        assert_eq!(report.clips_flagged, self.clips_flagged, "flags: {context}");
        assert_eq!(
            report.feedback_reclaimed, self.feedback_reclaimed,
            "reclaims: {context}"
        );
    }
}

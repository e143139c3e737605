//! Test-side oracle for clip and whole-layout evaluation.
//!
//! `detect` is the tiled scan over the compiled engines, so checking the
//! scan against `detect` would compare the scan with itself. This oracle
//! instead runs the paper's evaluation chain (Fig. 3) naively, one clip at
//! a time, from the detector's kernels and public functions only:
//! - a kernel admits a clip when the clip's core topology equals the
//!   kernel's signature, or when its core density grid lies within the
//!   kernel's admission threshold of the centroid under the eq. (1)
//!   distance (the 8-orientation search of `DensityGrid::distance`);
//! - each admitted kernel scores the clip with the per-support-vector
//!   `SvmModel::decision_value`;
//! - the feedback kernel scores the full clip region of a flagged clip
//!   and reclaims it unless the decision is positive;
//! - redundant clip removal runs over the whole layout at once.
//!
//! It never touches the admission router or the compiled SVMs.

use hotspot_suite::core::engine::StageId;
use hotspot_suite::core::extraction::extract_clips_indexed;
use hotspot_suite::core::removal::remove_redundant_clips;
use hotspot_suite::core::training::{core_signature_and_grid, feature_vector_padded, Region};
use hotspot_suite::core::{HotspotDetector, Pattern, RectIndex, ScanReport};
use hotspot_suite::layout::{ClipWindow, LayerId, Layout};

/// The oracle's verdict on one clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClipVerdict {
    /// Kernels that admitted the clip to SVM evaluation.
    pub admissions: usize,
    /// Whether any admitted kernel's decision exceeds the threshold.
    pub flagged: bool,
    /// Whether the feedback kernel reclaimed the flagged clip.
    pub reclaimed: bool,
}

impl ClipVerdict {
    /// Whether the clip is reported as a hotspot.
    pub fn is_hotspot(&self) -> bool {
        self.flagged && !self.reclaimed
    }
}

/// Evaluates one clip naively at decision threshold `threshold`.
pub fn evaluate_clip(detector: &HotspotDetector, clip: &Pattern, threshold: f64) -> ClipVerdict {
    let config = detector.config();
    let (signature, grid) = core_signature_and_grid(clip, config);
    let mut verdict = ClipVerdict {
        admissions: 0,
        flagged: false,
        reclaimed: false,
    };
    for k in detector.kernels() {
        let density_match = (grid.nx(), grid.ny()) == (k.centroid.nx(), k.centroid.ny())
            && grid.distance(&k.centroid).distance <= config.admission.threshold(k.radius);
        if signature != k.signature && !density_match {
            continue;
        }
        verdict.admissions += 1;
        let features = feature_vector_padded(clip, Region::Core, config, k.feature_len);
        verdict.flagged |= k.model.decision_value(&features) > threshold;
    }
    let feedback = detector.feedback().filter(|_| config.ablation.feedback);
    if let (true, Some(fb)) = (verdict.flagged, feedback) {
        let features = feature_vector_padded(clip, Region::Clip, config, fb.feature_len);
        let confirms = fb.model.decision_value(&features) > 0.0;
        verdict.reclaimed = !confirms;
    }
    verdict
}

/// What whole-layout evaluation reports: the fields a scan must match.
pub struct Reference {
    pub reported: Vec<ClipWindow>,
    pub clips_extracted: usize,
    pub clips_flagged: usize,
    pub feedback_reclaimed: usize,
    /// Clip-kernel pairs admitted to SVM evaluation over every clip.
    pub admissions: u64,
}

/// Evaluates every candidate clip of `layout` on `layer` one at a time at
/// the detector's configured decision threshold.
pub fn whole_layout_reference(
    detector: &HotspotDetector,
    layout: &Layout,
    layer: LayerId,
) -> Reference {
    let config = detector.config();
    let shape = config.clip_shape;
    let index = RectIndex::from_layout(layout, layer, shape.clip_side());
    let clips = extract_clips_indexed(&index, shape, &config.distribution);
    let (mut clips_flagged, mut feedback_reclaimed, mut admissions) = (0, 0, 0);
    let mut cores = Vec::new();
    for clip in &clips {
        let verdict = evaluate_clip(detector, clip, config.decision_threshold);
        admissions += verdict.admissions as u64;
        clips_flagged += usize::from(verdict.flagged);
        feedback_reclaimed += usize::from(verdict.reclaimed);
        if verdict.is_hotspot() {
            cores.push(clip.window.core);
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
        admissions,
    }
}

impl Reference {
    /// Asserts that a scan's hotspot set, clip counts and admission count
    /// equal the oracle's; `context` names the configuration under test.
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
        let admissions = report
            .telemetry
            .stage(StageId::KernelEvaluation)
            .map_or(0, |s| s.admissions);
        assert_eq!(admissions, self.admissions, "admissions: {context}");
    }
}

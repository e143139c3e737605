//! Integration tests for the Section IV extensions through the public
//! facade: multilayer detection over a GDSII round trip, and double
//! patterning over extracted clips.

use hotspot_suite::core::{
    DecomposedPattern, DetectorConfig, DoublePatterningDetector, MultilayerDetector,
    MultilayerPattern, MultilayerTrainingSet, Pattern,
};
use hotspot_suite::geom::{Point, Rect};
use hotspot_suite::layout::{gdsii, ClipShape, LayerId, Layout};

fn window() -> hotspot_suite::layout::ClipWindow {
    ClipShape::ICCAD2012.window_from_core_corner(Point::new(0, 0))
}

fn m1(gap: i64) -> Vec<Rect> {
    vec![
        Rect::from_extents(0, 0, 400, 300),
        Rect::from_extents(400 + gap, 0, 800 + gap, 300),
    ]
}

fn m2_crossing() -> Vec<Rect> {
    vec![Rect::from_extents(350, 0, 550, 1100)]
}

fn multilayer_training() -> MultilayerTrainingSet {
    let mut t = MultilayerTrainingSet::default();
    for i in 0..4 {
        t.hotspots.push(MultilayerPattern::new(
            window(),
            &[m1(60 + 10 * i), m2_crossing()],
        ));
        t.nonhotspots
            .push(MultilayerPattern::new(window(), &[m1(60 + 10 * i), vec![]]));
        t.nonhotspots.push(MultilayerPattern::new(
            window(),
            &[m1(450 + 10 * i), m2_crossing()],
        ));
    }
    t
}

#[test]
fn multilayer_detection_survives_gdsii_roundtrip() {
    let detector = MultilayerDetector::train(&multilayer_training(), DetectorConfig::default())
        .expect("multilayer training");

    // Two sites: one with the m2 crossing (hotspot), one without (safe).
    let mut layout = Layout::new("ml");
    let (l1, l2) = (LayerId::new(1), LayerId::new(2));
    let hot_at = Point::new(24_000, 24_000);
    let safe_at = Point::new(48_000, 24_000);
    for r in m1(70) {
        layout.add_rect(l1, r.translate(hot_at));
        layout.add_rect(l1, r.translate(safe_at));
    }
    for r in m2_crossing() {
        layout.add_rect(l2, r.translate(hot_at));
    }
    for at in [hot_at, safe_at] {
        for r in hotspot_suite::benchgen::generator::filler_rects(at) {
            layout.add_rect(l1, r);
        }
    }

    // Round-trip the layout through the binary GDSII codec first.
    let restored = gdsii::read_bytes(&gdsii::write_bytes(&layout).expect("write")).expect("read");
    assert_eq!(restored, layout);

    let reported = detector
        .detect(&restored, &[l1, l2])
        .expect("two trained layers");
    let hot_window = ClipShape::ICCAD2012.window_from_core_corner(hot_at);
    let safe_window = ClipShape::ICCAD2012.window_from_core_corner(safe_at);
    assert!(
        reported.iter().any(|w| w.is_hit(&hot_window, 0.2)),
        "crossing-wire site must be reported"
    );
    assert!(
        !reported.iter().any(|w| w.is_hit(&safe_window, 0.2)),
        "bare-m1 site must not be reported"
    );
}

#[test]
fn double_patterning_detector_end_to_end() {
    let bars = |pitch: i64| -> Vec<Rect> {
        (0..3)
            .map(|i| Rect::from_extents(i * pitch, 0, i * pitch + 150, 1000))
            .collect()
    };
    let decomposed =
        |pitch: i64| DecomposedPattern::from_pattern(&Pattern::new(window(), &bars(pitch)), 250);
    let hotspots: Vec<_> = (0..4).map(|i| decomposed(230 + 5 * i)).collect();
    let safes: Vec<_> = (0..6).map(|i| decomposed(450 + 20 * i)).collect();
    let detector =
        DoublePatterningDetector::train(&hotspots, &safes, 250, DetectorConfig::default())
            .expect("dp training");

    let mut layout = Layout::new("dp");
    let hot_at = Point::new(24_000, 24_000);
    let safe_at = Point::new(48_000, 24_000);
    for r in bars(238) {
        layout.add_rect(LayerId::METAL1, r.translate(hot_at));
    }
    for r in bars(520) {
        layout.add_rect(LayerId::METAL1, r.translate(safe_at));
    }
    for at in [hot_at, safe_at] {
        for r in hotspot_suite::benchgen::generator::filler_rects(at) {
            layout.add_rect(LayerId::METAL1, r);
        }
    }
    let reported = detector.detect(&layout, LayerId::METAL1);
    let hot_window = ClipShape::ICCAD2012.window_from_core_corner(hot_at);
    let safe_window = ClipShape::ICCAD2012.window_from_core_corner(safe_at);
    assert!(
        reported.iter().any(|w| w.is_hit(&hot_window, 0.2)),
        "tight-pitch site must be reported"
    );
    assert!(
        !reported.iter().any(|w| w.is_hit(&safe_window, 0.2)),
        "relaxed-pitch site must not be reported"
    );
}

#[test]
fn multilayer_model_serialisation_roundtrip() {
    let detector = MultilayerDetector::train(&multilayer_training(), DetectorConfig::default())
        .expect("multilayer training");
    let json = serde_json::to_string(&detector).expect("serialise");
    let restored: MultilayerDetector = serde_json::from_str(&json).expect("parse");
    let probe = MultilayerPattern::new(window(), &[m1(75), m2_crossing()]);
    assert_eq!(detector.classify(&probe), restored.classify(&probe));
}

//! Rasterisation-mode integration tests: the shared per-tile summed-area
//! table (`RasterMode::Sat`) must produce **byte-identical** scan digests
//! to the reference per-clip sweep (`RasterMode::Reference`), at any
//! worker-thread count, and training under either mode must converge to
//! the same model. The SAT path is an exact-integer reformulation, not an
//! approximation — these tests pin that claim end to end.

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::{HotspotDetector, RasterMode, ScanConfig};
use hotspot_suite::layout::ClipShape;
use std::sync::OnceLock;

mod support;

fn benchmark() -> &'static Benchmark {
    static BM: OnceLock<Benchmark> = OnceLock::new();
    BM.get_or_init(|| {
        Benchmark::generate(BenchmarkSpec {
            name: "raster-mode-test".into(),
            process_nm: 32,
            width: 48_000,
            height: 48_000,
            train_hotspots: 20,
            train_nonhotspots: 70,
            test_hotspots: 6,
            seed: 29,
            clip_shape: ClipShape::ICCAD2012,
            oracle: LithoOracle::default(),
            background_fill: 0.55,
            ambit_filler: true,
        })
    })
}

fn trained(bm: &Benchmark) -> &'static HotspotDetector {
    static DET: OnceLock<HotspotDetector> = OnceLock::new();
    DET.get_or_init(|| {
        HotspotDetector::builder()
            .threads(2)
            .train(&bm.training)
            .expect("training")
    })
}

#[test]
fn scan_digest_is_byte_identical_across_raster_modes() {
    let bm = benchmark();
    let detector = trained(bm);
    let scan = ScanConfig {
        tile_cores: 4,
        max_in_flight: 2,
        tile_density: None,
        ..Default::default()
    };

    let mut pinned: Option<String> = None;
    for threads in [1, 2, 4] {
        let sat = detector
            .clone()
            .with_threads(threads)
            .with_raster_mode(RasterMode::Sat)
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("sat scan");
        let reference = detector
            .clone()
            .with_threads(threads)
            .with_raster_mode(RasterMode::Reference)
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("reference scan");

        assert_eq!(
            sat.digest(),
            reference.digest(),
            "raster modes disagree at {threads} threads"
        );
        assert_eq!(sat.reported, reference.reported);
        assert_eq!(sat.clips_extracted, reference.clips_extracted);
        assert_eq!(sat.clips_flagged, reference.clips_flagged);
        assert_eq!(sat.feedback_reclaimed, reference.feedback_reclaimed);

        // The digest is pinned across thread counts in both modes.
        match &pinned {
            None => pinned = Some(sat.digest()),
            Some(first) => assert_eq!(
                &sat.digest(),
                first,
                "scan digest changed between thread counts"
            ),
        }
    }
}

#[test]
fn detect_matches_across_raster_modes() {
    let bm = benchmark();
    let detector = trained(bm);
    let oracle = support::whole_layout_reference(detector, &bm.layout, bm.layer);

    for threads in [1, 2, 4] {
        let sat = detector
            .clone()
            .with_threads(threads)
            .with_raster_mode(RasterMode::Sat)
            .detect(&bm.layout, bm.layer)
            .expect("sat detect");
        let reference = detector
            .clone()
            .with_threads(threads)
            .with_raster_mode(RasterMode::Reference)
            .detect(&bm.layout, bm.layer)
            .expect("reference detect");

        oracle.assert_matches(&sat, &format!("sat, {threads} threads"));
        oracle.assert_matches(&reference, &format!("reference, {threads} threads"));
    }
}

#[test]
fn training_converges_identically_under_both_modes() {
    // Density clustering during training routes through the same mode
    // seam; exact rasterisation means the clusters — and therefore the
    // trained kernels and the flagged set — cannot depend on the mode.
    let bm = benchmark();
    let sat = HotspotDetector::builder()
        .threads(2)
        .raster_mode(RasterMode::Sat)
        .train(&bm.training)
        .expect("sat training");
    let reference = HotspotDetector::builder()
        .threads(2)
        .raster_mode(RasterMode::Reference)
        .train(&bm.training)
        .expect("reference training");

    assert_eq!(sat.kernels().len(), reference.kernels().len());
    let oracle = support::whole_layout_reference(&reference, &bm.layout, bm.layer);
    let sat_report = sat.detect(&bm.layout, bm.layer).expect("sat detect");
    oracle.assert_matches(&sat_report, "sat-trained detector");
}

//! Streaming scan: train on a synthetic benchmark, then walk its testing
//! layout tile by tile with the density-prefiltered, bounded-memory
//! `scan_layout` — and check that another tile size reports the same
//! hotspots.
//!
//! ```sh
//! cargo run --release --example stream_scan
//! ```

use hotspot_suite::benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
use hotspot_suite::core::{DetectorConfig, HotspotDetector, ScanConfig};
use hotspot_suite::layout::ClipShape;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A benchmark big enough that tiling matters: ~100 tiles at the
    //    4-core tile stride used below.
    let benchmark = Benchmark::generate(BenchmarkSpec {
        name: "stream_scan".into(),
        process_nm: 32,
        width: 96_000,
        height: 96_000,
        train_hotspots: 25,
        train_nonhotspots: 85,
        test_hotspots: 14,
        seed: 7,
        clip_shape: ClipShape::ICCAD2012,
        oracle: LithoOracle::default(),
        background_fill: 0.55,
        ambit_filler: true,
    });

    let detector = HotspotDetector::train(&benchmark.training, DetectorConfig::default())?;
    println!("trained {} kernels", detector.kernels().len());

    // 2. Stream the layout: 4-core tiles (19.2 µm stride at ICCAD-2012
    //    geometry), at most 4 tiles in memory at once.
    let scan = ScanConfig {
        tile_cores: 4,
        max_in_flight: 4,
        tile_density: None,
        ..Default::default()
    };
    let report = detector.scan_layout(&benchmark.layout, benchmark.layer, &scan)?;
    println!(
        "scanned {} of {} tiles ({} prefiltered): {} clips, flagged {}, reported {} hotspots in {:.2?} ({:.0} clips/s)",
        report.tiles_scanned,
        report.tiles_total,
        report.tiles_prefiltered,
        report.clips_extracted,
        report.clips_flagged,
        report.reported.len(),
        report.scan_time,
        report.clips_per_second(),
    );
    println!(
        "peak in flight: {} tiles (window {})",
        report.peak_in_flight, scan.max_in_flight
    );
    for line in report.telemetry.breakdown().lines() {
        println!("    {line}");
    }

    // 3. The streaming scan is exact: the tiling does not change the
    //    hotspot set, and memory stays within the configured window.
    //    (Asserted in CI.)
    let coarse = ScanConfig {
        tile_cores: 16,
        ..scan.clone()
    };
    let other = detector.scan_layout(&benchmark.layout, benchmark.layer, &coarse)?;
    assert_eq!(
        report.reported, other.reported,
        "4-core and 16-core tiles must report the same hotspot set"
    );
    assert!(
        report.peak_in_flight <= scan.max_in_flight,
        "in-flight window exceeded"
    );
    println!(
        "verified: identical across tile sizes ({} hotspots), window respected",
        report.reported.len()
    );

    // 4. Score against the planted ground truth.
    let eval = hotspot_suite::core::score(
        &report.reported,
        &benchmark.actual,
        detector.config().min_hit_clip_overlap,
        benchmark.area_um2(),
        report.scan_time,
    );
    println!("{eval}");
    Ok(())
}

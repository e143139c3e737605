//! Critical features of a dense clip: a 48 × 48 checkerboard of 100 nm
//! squares (1,152 rects) in a 4,800 nm window. Every same-kind pair of
//! tiles in adjacent columns or rows is a candidate diagonal edge, so this
//! input is where a superlinear extraction shows. The values were recorded
//! from the all-pairs MTCG extraction, which took seconds on it even in a
//! release build; this test runs in a debug build.

use hotspot_suite::geom::Rect;
use hotspot_suite::topo::{CriticalFeatures, FeatureConfig, FeatureKind};
use std::time::{Duration, Instant};

fn checkerboard() -> Vec<Rect> {
    (0..48i64)
        .flat_map(|j| (0..48i64).map(move |i| (i, j)))
        .filter(|(i, j)| (i + j) % 2 == 0)
        .map(|(i, j)| Rect::from_extents(i * 100, j * 100, i * 100 + 100, j * 100 + 100))
        .collect()
}

/// FNV-1a over the bytes of every value of the feature vector.
fn vector_digest(f: &CriticalFeatures) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in f.to_vector().iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn dense_checkerboard_features_are_pinned() {
    let rects = checkerboard();
    assert_eq!(rects.len(), 1152);
    let window = Rect::from_extents(0, 0, 4800, 4800);
    let start = Instant::now();
    let f = CriticalFeatures::extract(&window, &rects, &FeatureConfig::default());
    let elapsed = start.elapsed();

    assert_eq!(f.rules.len(), 54_237);
    let count = |kind| f.rules.iter().filter(|r| r.kind == kind).count();
    assert_eq!(
        [
            FeatureKind::Internal,
            FeatureKind::External,
            FeatureKind::Diagonal,
            FeatureKind::Segment
        ]
        .map(count),
        [1150, 1150, 51_935, 2]
    );
    assert_eq!(
        (
            f.corner_count,
            f.touch_points,
            f.min_internal,
            f.min_external
        ),
        (190, 2209, 100, 100)
    );
    assert_eq!(f.density.to_bits(), 0.5f64.to_bits());
    assert_eq!(vector_digest(&f), 0xcea7_c1b4_80b4_9e70);
    // A generous bound: unoptimised, the extraction takes about half a
    // second, where the all-pairs MTCG took 84 s on the same host.
    assert!(
        elapsed < Duration::from_secs(20),
        "extraction took {elapsed:?}"
    );
}

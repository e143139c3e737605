//! Micro-benchmarks of topological classification and feature extraction
//! (backing the runtime discussion of Sections III-B/III-C).

use criterion::{criterion_group, criterion_main, Criterion};
use hotspot_geom::{DensityGrid, Rect};
use hotspot_topo::{CriticalFeatures, DirectionalStrings, FeatureConfig, Tiling, TopoSignature};
use std::hint::black_box;

fn core_window() -> Rect {
    Rect::from_extents(0, 0, 1200, 1200)
}

/// A representative core pattern: comb plus flanking bars (≈ 8 rects).
fn sample_rects() -> Vec<Rect> {
    vec![
        Rect::from_extents(0, 0, 1100, 150),
        Rect::from_extents(0, 150, 120, 500),
        Rect::from_extents(300, 150, 420, 500),
        Rect::from_extents(600, 150, 720, 500),
        Rect::from_extents(900, 150, 1020, 500),
        Rect::from_extents(0, 620, 1100, 770),
        Rect::from_extents(200, 850, 520, 1050),
        Rect::from_extents(700, 850, 1020, 1050),
    ]
}

/// A clip region (4.8 µm, as the feedback kernel reads it): the core
/// pattern in the middle, ringed by bars.
fn clip_window() -> Rect {
    Rect::from_extents(0, 0, 4800, 4800)
}

fn clip_rects() -> Vec<Rect> {
    let offset = hotspot_geom::Point::new(1800, 1800);
    let mut rects: Vec<Rect> = sample_rects().iter().map(|r| r.translate(offset)).collect();
    rects.extend([
        Rect::from_extents(0, 300, 4800, 450),
        Rect::from_extents(0, 4350, 4800, 4500),
        Rect::from_extents(300, 700, 450, 4100),
        Rect::from_extents(4350, 700, 4500, 4100),
    ]);
    rects
}

fn bench_dirstrings(c: &mut Criterion) {
    let window = core_window();
    let rects = sample_rects();
    c.bench_function("directional_strings", |b| {
        b.iter(|| DirectionalStrings::of(black_box(&window), black_box(&rects)))
    });
    let a = DirectionalStrings::of(&window, &rects);
    let other = DirectionalStrings::of(&window, &rects[..6]);
    c.bench_function("theorem1_match", |b| {
        b.iter(|| black_box(&a).same_topology(black_box(&other)))
    });
    c.bench_function("topo_signature", |b| {
        b.iter(|| TopoSignature::of(black_box(&window), black_box(&rects)))
    });
}

fn bench_density(c: &mut Criterion) {
    let window = core_window();
    let g1 = DensityGrid::from_rects(&window, &sample_rects(), 8, 8);
    let g2 = DensityGrid::from_rects(&window, &sample_rects()[..5], 8, 8);
    c.bench_function("density_distance_eq1", |b| {
        b.iter(|| black_box(&g1).distance(black_box(&g2)))
    });
}

fn bench_features(c: &mut Criterion) {
    let window = core_window();
    let rects = sample_rects();
    c.bench_function("tiling_horizontal", |b| {
        b.iter(|| Tiling::horizontal(black_box(&window), black_box(&rects)))
    });
    let cfg = FeatureConfig::default();
    c.bench_function("critical_features", |b| {
        b.iter(|| CriticalFeatures::extract(black_box(&window), black_box(&rects), &cfg))
    });
    let (clip, clip_rects) = (clip_window(), clip_rects());
    c.bench_function("feature_extract_clip", |b| {
        b.iter(|| CriticalFeatures::extract(black_box(&clip), black_box(&clip_rects), &cfg))
    });
}

criterion_group!(benches, bench_dirstrings, bench_density, bench_features);
criterion_main!(benches);

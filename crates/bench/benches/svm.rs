//! Micro-benchmarks of the SMO solver (backing the training-time
//! discussion of Section III-D3: many small kernels beat one huge kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotspot_svm::{Kernel, SvmTrainer};
use std::hint::black_box;

/// Deterministic two-class problem of size `n`.
fn problem(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 * 0.7368;
        let label = if i % 2 == 0 { 1.0 } else { -1.0 };
        let shift = if label > 0.0 { 0.8 } else { 0.0 };
        x.push(vec![
            (t.sin() * 0.4 + shift).fract().abs(),
            (t.cos() * 0.4 + shift).fract().abs(),
        ]);
        y.push(label);
    }
    (x, y)
}

fn bench_smo_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("smo_train");
    group.sample_size(10);
    for n in [50usize, 100, 200, 400] {
        let (x, y) = problem(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                SvmTrainer::new(Kernel::rbf(1.0))
                    .c(100.0)
                    .train(black_box(&x), black_box(&y))
                    .expect("training")
            })
        });
    }
    group.finish();
}

/// SMO's slow regime in detector training: a first-round fit (C = 1000,
/// γ = 0.01) of a topology cluster with a few near-duplicate hotspots, as
/// upsampling leaves them, against about 50 non-hotspots, over 40
/// features in `[0, 1]`.
fn tail_problem() -> (Vec<Vec<f64>>, Vec<f64>) {
    const DIM: usize = 40;
    let unit = |seed: usize, k: usize| ((seed * DIM + k) as f64 * 0.6180339887).fract();
    let base: Vec<f64> = (0..DIM).map(|k| unit(0, k)).collect();
    let mut x: Vec<Vec<f64>> = (0..4)
        .map(|p| {
            base.iter()
                .enumerate()
                .map(|(k, b)| b + 1e-4 * ((p * DIM + k) as f64).sin())
                .collect()
        })
        .collect();
    let mut y = vec![1.0; x.len()];
    x.extend((1..=50).map(|s| (0..DIM).map(|k| unit(s, k)).collect()));
    y.resize(x.len(), -1.0);
    (x, y)
}

fn bench_smo_tail(c: &mut Criterion) {
    let (x, y) = tail_problem();
    let trainer = SvmTrainer::new(Kernel::rbf(0.01)).c(1000.0);
    let mut group = c.benchmark_group("smo_tail");
    group.bench_function("c1000_gamma0.01", |b| {
        let model = trainer.train(&x, &y).expect("training");
        println!(
            "smo_tail: {} vectors, {} SMO iterations per fit",
            x.len(),
            model.iterations()
        );
        b.iter(|| {
            trainer
                .train(black_box(&x), black_box(&y))
                .expect("training")
        })
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (x, y) = problem(200);
    let model = SvmTrainer::new(Kernel::rbf(1.0))
        .c(100.0)
        .train(&x, &y)
        .expect("training");
    let q = vec![0.5, 0.5];
    c.bench_function("svm_decision_value", |b| {
        b.iter(|| model.decision_value(black_box(&q)))
    });
}

criterion_group!(benches, bench_smo_scaling, bench_smo_tail, bench_predict);
criterion_main!(benches);

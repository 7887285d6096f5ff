//! Criterion benchmarks for segmented & sparse parallel recurrences.
//!
//! Two workload families:
//!
//! * **uniform segmentation** — 1k-element segments over 1M f64 elements
//!   (batched signal processing: many clips concatenated into one
//!   buffer). Baseline is the per-segment serial evaluator
//!   [`run_serial`]; the parallel rows measure [`SegmentedRunner`] at
//!   1/2/4 workers. This is the acceptance measurement: `plr` at ≥2
//!   threads must beat `serial`.
//! * **sparse input** — the same segmentation with 90% of chunks all
//!   zero (bursty telemetry, zero-padded batches). The rows compare the
//!   dense path (`with_sparse(false)`) against the sparse all-zero-chunk
//!   skip at a fixed worker count. This is the second acceptance
//!   measurement: `sparse` must beat `dense`.
//!
//! Plan construction (factor table, boundary map) happens once outside
//! the timed loop, mirroring the other runner benches.
//! `PLR_BENCH_QUICK=1` shrinks the sample counts — the CI smoke mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use plr_core::segmented::{run_serial, SegmentedPlan, Segments};
use plr_core::Signature;
use plr_parallel::{RunnerConfig, SegmentedRunner};
use std::hint::black_box;

fn quick() -> bool {
    std::env::var("PLR_BENCH_QUICK").is_ok()
}

fn sig() -> Signature<f64> {
    "1:0.5".parse().unwrap()
}

fn input_f64(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect()
}

/// 90% of `chunk`-sized chunks all zero, signal in every tenth chunk —
/// the shape the sparse skip is built for.
fn sparse_input_f64(n: usize, chunk: usize) -> Vec<f64> {
    let mut data = vec![0.0f64; n];
    for c in (0..n.div_ceil(chunk)).step_by(10) {
        let start = c * chunk;
        let end = (start + chunk).min(n);
        for (i, v) in data[start..end].iter_mut().enumerate() {
            *v = ((i % 13) as f64) * 0.25 - 1.5;
        }
    }
    data
}

fn runner(segments: &Segments, n: usize, chunk: usize, threads: usize) -> SegmentedRunner<f64> {
    SegmentedRunner::with_config(
        sig(),
        segments.clone(),
        n,
        RunnerConfig {
            chunk_size: chunk,
            threads,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Uniform 1k-element segments over 1M f64 elements: per-segment serial
/// baseline vs the segmented runner at 1/2/4 workers.
fn bench_uniform_segments(c: &mut Criterion) {
    let n = 1 << 20;
    let segments = Segments::uniform(1000, n);
    let data = input_f64(n);
    let s = sig();
    let mut g = c.benchmark_group("segmented_scan_uniform_1M");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 20 });
    g.bench_function("serial", |b| {
        b.iter(|| run_serial(black_box(&s), black_box(&segments), black_box(&data)));
    });
    for threads in [1usize, 2, 4] {
        let runner = runner(&segments, n, 1 << 16, threads);
        g.bench_function(BenchmarkId::new("plr", threads), |b| {
            b.iter(|| runner.run(black_box(&data)).unwrap());
        });
    }
    g.finish();
}

/// The same segmentation with 90% of chunks all zero: the dense path
/// (every chunk solved) vs the sparse skip, at 1 and 4 workers, plus
/// the serial baseline for scale. Order 2, where the solve the skip
/// avoids costs two multiply-adds per element.
fn bench_sparse_skip(c: &mut Criterion) {
    let n = 1 << 20;
    let chunk = 4096;
    let segments = Segments::uniform(1000, n);
    let data = sparse_input_f64(n, chunk);
    let s: Signature<f64> = "1:0.9,-0.2".parse().unwrap();
    let mut g = c.benchmark_group("segmented_scan_sparse_1M");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 20 });
    g.bench_function("serial", |b| {
        b.iter(|| run_serial(black_box(&s), black_box(&segments), black_box(&data)));
    });
    let config = |threads| RunnerConfig {
        chunk_size: chunk,
        threads,
        ..Default::default()
    };
    for threads in [1usize, 4] {
        let dense = SegmentedRunner::from_plan(
            SegmentedPlan::build(&s, segments.clone(), n, chunk)
                .unwrap()
                .with_sparse(false),
            config(threads),
        );
        g.bench_function(BenchmarkId::new("dense", threads), |b| {
            b.iter(|| dense.run(black_box(&data)).unwrap());
        });
        let sparse = SegmentedRunner::from_plan(
            SegmentedPlan::build(&s, segments.clone(), n, chunk).unwrap(),
            config(threads),
        );
        g.bench_function(BenchmarkId::new("sparse", threads), |b| {
            b.iter(|| sparse.run(black_box(&data)).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_uniform_segments, bench_sparse_skip);
criterion_main!(benches);
